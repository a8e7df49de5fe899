import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quotematch import behavior, model as model_mod, synth
from quotematch.artifacts import read_jsonl, write_csv
from quotematch.behavior import BehaviorLabel, read_stats_csv, write_stats_csv
from quotematch.cli import main
from quotematch.corpus import TSV_HEADER
from quotematch.features import (
    FeatureSpace, TieKind, kind_counts, load_space, load_vectors, read_ties_csv, save_space,
)
from quotematch.matcher import INDEX_MAGIC, load_index
from quotematch.model import (
    LogitHyperparams, LogitModel, categorize_report, save_model, top_coefficients,
)
from quotematch.textnorm import PhraseLexicon

# Any code point except lone surrogates, which UTF-8 cannot encode.
ANY_ID = st.text(st.characters(exclude_categories=("Cs",)), max_size=10)


def _tsv(path: Path, rows):
    lines = [TSV_HEADER] + [f"{r[0]}\t{r[1]}\t{r[2]}\t{r[3]}" for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _run_pipeline(fixture_dir: Path, work_dir: Path, seed: int = 5, n: int = 20) -> None:
    work_dir.mkdir(parents=True, exist_ok=True)
    assert main([
        "synth", "--out-dir", str(fixture_dir), "--n-per-class", str(n),
        "--timeline-len", "20", "--seed", str(seed), "--two-refute", str(n // 3),
    ]) == 0
    assert main([
        "corpus", "build", "--input", str(fixture_dir / "corpus.tsv"),
        "--out", str(work_dir / "corpus.tsv"),
    ]) == 0
    assert main([
        "index", "--corpus", str(work_dir / "corpus.tsv"), "--out", str(work_dir / "index.bin"),
    ]) == 0
    assert main([
        "scan", "--index", str(work_dir / "index.bin"),
        "--corpus", str(work_dir / "corpus.tsv"),
        "--timelines", str(fixture_dir / "timelines"),
        "--out-stats", str(work_dir / "stats.csv"),
        "--out-matches", str(work_dir / "matches.jsonl"),
    ]) == 0
    assert main([
        "label", "--stats", str(work_dir / "stats.csv"), "--out", str(work_dir / "labeled.csv"),
    ]) == 0
    assert main([
        "features", "--ties", str(fixture_dir / "ties.csv"),
        "--labeled", str(work_dir / "labeled.csv"),
        "--out-space", str(work_dir / "space.json"),
        "--out-vectors", str(work_dir / "vectors.jsonl"),
    ]) == 0
    assert main([
        "train", "--space", str(work_dir / "space.json"),
        "--vectors", str(work_dir / "vectors.jsonl"),
        "--labeled", str(work_dir / "labeled.csv"),
        "--out-model", str(work_dir / "model.json"),
        "--out-metrics", str(work_dir / "metrics.csv"),
        "--seed", str(seed),
    ]) == 0
    assert main([
        "report", "--model", str(work_dir / "model.json"),
        "--space", str(work_dir / "space.json"),
        "--out-dir", str(work_dir / "report"),
        "--labeled", str(work_dir / "labeled.csv"),
        "--ties", str(fixture_dir / "ties.csv"),
    ]) == 0


def test_corpus_merge_reports_collision(tmp_path, capsys):
    _tsv(tmp_path / "a.tsv", [("a1", "fabricated", "s", "نص مشترك بين الاثنين"),
                              ("a2", "fabricated", "s", "نص ثاني")])
    _tsv(tmp_path / "b.tsv", [("b1", "fabricated", "s", "نص مشترك بين الاثنين"),
                              ("b2", "fabricated", "s", "نص ثالث")])
    rc = main(["corpus", "merge", "--a", str(tmp_path / "a.tsv"), "--b", str(tmp_path / "b.tsv"),
               "--out", str(tmp_path / "m.tsv"), "--report", str(tmp_path / "m.json")])
    assert rc == 0
    assert "1 collision" in capsys.readouterr().out
    assert json.loads((tmp_path / "m.json").read_text())["collisions"] == 1


def test_corpus_filter_drops_listed_ids(tmp_path):
    _tsv(tmp_path / "c.tsv", [(f"q{i}", "fabricated", "s", f"نص {i}") for i in range(20)])
    (tmp_path / "exclude.txt").write_text("q1\nq2\nq3\nmissing\n", encoding="utf-8")
    rc = main(["corpus", "filter", "--corpus", str(tmp_path / "c.tsv"),
               "--exclude", str(tmp_path / "exclude.txt"), "--out", str(tmp_path / "f.tsv"),
               "--report", str(tmp_path / "f.json")])
    assert rc == 0
    report = json.loads((tmp_path / "f.json").read_text())
    assert report["removed"] == 3
    assert report["unknown_ids"] == ["missing"]
    assert report["quotes"] == 17


@pytest.mark.parametrize(
    "argv",
    [["corpus", "build", "--input", "{t}/a.tsv"],
     ["corpus", "merge", "--a", "{t}/a.tsv", "--b", "{t}/b.tsv"],
     ["corpus", "filter", "--corpus", "{t}/a.tsv", "--exclude", "{t}/none.txt"]],
    ids=["build", "merge", "filter"],
)
def test_corpus_prefixes_collapse_introduced_duplicates(tmp_path, argv):
    # The same text with and without an introduction the default lexicon lacks.
    rows = [("a1", "fabricated", "s", "قال الامام نص واحد للدمج"),
            ("a2", "fabricated", "s", "نص واحد للدمج")]
    _tsv(tmp_path / "a.tsv", rows[:1] if argv[1] == "merge" else rows)
    _tsv(tmp_path / "b.tsv", rows[1:])
    (tmp_path / "none.txt").write_text("", encoding="utf-8")
    (tmp_path / "prefixes.txt").write_text("قال الامام\n", encoding="utf-8")
    quotes = []
    for prefixes in ([], ["--prefixes", "{t}/prefixes.txt"]):
        assert main([arg.format(t=tmp_path) for arg in argv + prefixes]
                    + ["--out", str(tmp_path / "o.tsv"), "--report", str(tmp_path / "r.json")]) == 0
        quotes.append(json.loads((tmp_path / "r.json").read_text())["quotes"])
    assert quotes == [2, 1]


def test_missing_file_exit_2_with_path(tmp_path, capsys):
    rc = main(["corpus", "build", "--input", str(tmp_path / "nope.tsv"),
               "--out", str(tmp_path / "o.tsv")])
    assert rc == 2
    assert "nope.tsv" in capsys.readouterr().err


def test_malformed_corpus_exit_4(tmp_path, capsys):
    (tmp_path / "bad.tsv").write_text(TSV_HEADER + "\nbroken row\n", encoding="utf-8")
    rc = main(["corpus", "build", "--input", str(tmp_path / "bad.tsv"),
               "--out", str(tmp_path / "o.tsv")])
    assert rc == 4
    assert "line 2" in capsys.readouterr().err


def test_scan_version_mismatch_exit_3(tmp_path, capsys):
    _tsv(tmp_path / "c.tsv", [("q1", "fabricated", "s", "نص اول للفهرس")])
    assert main(["index", "--corpus", str(tmp_path / "c.tsv"),
                 "--out", str(tmp_path / "i.bin")]) == 0
    # Tamper with the corpus after indexing: same quotes, different bytes.
    content = (tmp_path / "c.tsv").read_text()
    (tmp_path / "c.tsv").write_text(content + "\n", encoding="utf-8")
    (tmp_path / "timelines").mkdir()
    rc = main(["scan", "--index", str(tmp_path / "i.bin"), "--corpus", str(tmp_path / "c.tsv"),
               "--timelines", str(tmp_path / "timelines"),
               "--out-stats", str(tmp_path / "s.csv"),
               "--out-matches", str(tmp_path / "m.jsonl")])
    assert rc == 3
    assert "different corpus" in capsys.readouterr().err


def _index_and_scan(tmp_path, index_args=(), scan_args=()):
    _tsv(tmp_path / "c.tsv", [("q1", "fabricated", "s", "نص اول للفهرس")])
    assert main(["index", "--corpus", str(tmp_path / "c.tsv"),
                 "--out", str(tmp_path / "i.bin"), *index_args]) == 0
    (tmp_path / "timelines").mkdir(exist_ok=True)
    return lambda: main([
        "scan", "--index", str(tmp_path / "i.bin"), "--corpus", str(tmp_path / "c.tsv"),
        "--timelines", str(tmp_path / "timelines"), "--out-stats", str(tmp_path / "s.csv"),
        "--out-matches", str(tmp_path / "m.jsonl"), *scan_args,
    ])


_NOT_UTF8 = b"q1\n\x80\n"
_SCAN = ["scan", "--index", "{t}/i.bin", "--corpus", "{t}/c.tsv", "--timelines", "{t}/timelines",
         "--out-stats", "{t}/s.csv", "--out-matches", "{t}/m.jsonl"]


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (["corpus", "build", "--input", "{t}/bad.txt", "--out", "{t}/o.tsv"],
         (TSV_HEADER + "\nq1\tweak\tno text\n").encode("utf-8"),
         r"bad\.txt: line 2: expected 4 tab-separated columns, got 3"),
        (["corpus", "build", "--input", "{t}/bad.txt", "--out", "{t}/o.tsv"], _NOT_UTF8,
         r"bad\.txt: 'utf-8' codec can't decode"),
        (["index", "--corpus", "{t}/c.tsv", "--out", "{t}/i2.bin", "--prefixes", "{t}/bad.txt"],
         b"\n  \n", r"bad\.txt: lexicon is empty"),
        (["corpus", "build", "--input", "{t}/c.tsv", "--out", "{t}/o.tsv",
          "--prefixes", "{t}/bad.txt"], _NOT_UTF8, r"bad\.txt: 'utf-8' codec can't decode"),
        (_SCAN + ["--refutes", "{t}/bad.txt"], b"!!\n", r"bad\.txt: lexicon is empty"),
        (["corpus", "filter", "--corpus", "{t}/c.tsv", "--exclude", "{t}/bad.txt",
          "--out", "{t}/o.tsv"], _NOT_UTF8, r"bad\.txt: 'utf-8' codec can't decode"),
    ],
    ids=["corpus-three-columns", "corpus-not-utf8", "prefixes-blank", "prefixes-not-utf8",
         "refutes-punctuation-only", "exclusion-list-not-utf8"],
)
def test_input_file_error_exit_4_names_file(tmp_path, capsys, argv, content, message):
    _index_and_scan(tmp_path)
    (tmp_path / "bad.txt").write_bytes(content)
    capsys.readouterr()
    assert main([arg.format(t=tmp_path) for arg in argv]) == 4
    assert re.search(message, capsys.readouterr().err)


def test_scan_version_1_index_exit_3(tmp_path, capsys):
    scan = _index_and_scan(tmp_path)
    (tmp_path / "i.bin").write_bytes(b"QMIDX001" + (32).to_bytes(4, "little") + b"{}")
    assert scan() == 3
    assert "i.bin: format version 1" in capsys.readouterr().err


def test_scan_truncated_index_exit_4(tmp_path, capsys):
    scan = _index_and_scan(tmp_path)
    data = (tmp_path / "i.bin").read_bytes()
    (tmp_path / "i.bin").write_bytes(data[:-3])
    assert scan() == 4
    assert "i.bin: truncated index file" in capsys.readouterr().err


def test_scan_strips_the_prefix_lexicon_the_index_was_built_with(tmp_path):
    prefixes = tmp_path / "prefixes.txt"
    prefixes.write_text("قال الامام\nروي عن الامام\n", encoding="utf-8")
    scan = _index_and_scan(tmp_path, index_args=("--prefixes", str(prefixes)))
    index = load_index(tmp_path / "i.bin")
    assert index.prefixes == PhraseLexicon.from_file(prefixes)
    (tmp_path / "timelines" / "u.jsonl").write_text("".join(
        json.dumps({"id": pid, "user_id": "u", "text": text}, ensure_ascii=False) + "\n"
        for pid, text in (("p1", "قال الامام نص اول للفهرس"), ("p2", "قال رسول الله نص اول للفهرس"))
    ), encoding="utf-8")
    assert scan() == 0
    # p1 loses the index's prefix; p2 keeps the default one: 3 of 6 tokens.
    similarity = {m["post_id"]: m["similarity"] for _, m in read_jsonl(tmp_path / "m.jsonl")}
    assert similarity == {"p1": 1.0, "p2": 0.5}


@pytest.mark.parametrize(
    "flags, kinds",
    [((), {"p1": "circulation", "p2": "circulation", "p3": "refute"}),
     (("--threshold", "0.55"), {"p1": "circulation", "p3": "refute"}),
     (("--max-posts", "2"), {"p1": "circulation", "p2": "circulation"}),
     (("--refutes", "{t}/refutes.txt"), {"p1": "circulation", "p2": "refute",
                                         "p3": "circulation"})],
    ids=["defaults", "threshold", "max-posts", "refutes"],
)
def test_scan_flags_set_the_matches(tmp_path, flags, kinds):
    scan = _index_and_scan(tmp_path, scan_args=[f.format(t=tmp_path) for f in flags])
    (tmp_path / "refutes.txt").write_text("كلمه اخري\n", encoding="utf-8")
    # Jaccard with the quote's 3 tokens: 1, 3/6 and 3/5; p3 holds a default refute phrase.
    (tmp_path / "timelines" / "u.jsonl").write_text("".join(
        json.dumps({"id": pid, "user_id": "u", "text": text}, ensure_ascii=False) + "\n"
        for pid, text in (("p1", "نص اول للفهرس"), ("p2", "نص اول للفهرس كلمه اخري زائده"),
                          ("p3", "نص اول للفهرس حديث مكذوب"))
    ), encoding="utf-8")
    assert scan() == 0
    assert {m["post_id"]: m["kind"] for _, m in read_jsonl(tmp_path / "m.jsonl")} == kinds


@pytest.mark.parametrize(
    "flags",
    [("--max-posts", "-11"), ("--max-posts", "0"), ("--threshold", "7"),
     ("--threshold", "0"), ("--threshold", "1"), ("--threshold", "nan")],
    ids=["max-posts-negative", "max-posts-zero", "threshold-above-1", "threshold-0",
         "threshold-1", "threshold-nan"],
)
def test_scan_bad_numeric_flag_exit_4(tmp_path, capsys, flags):
    scan = _index_and_scan(tmp_path, scan_args=flags)
    capsys.readouterr()
    assert scan() == 4
    assert re.search(rf"error: {flags[0]} must be", capsys.readouterr().err)
    assert not (tmp_path / "s.csv").exists()


def _rewrite_index_header(path: Path, edit) -> None:
    data = path.read_bytes()
    start = len(INDEX_MAGIC) + 4
    end = start + int.from_bytes(data[len(INDEX_MAGIC) : start], "little")
    header = json.loads(data[start:end])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(INDEX_MAGIC + len(blob).to_bytes(4, "little") + blob + data[end:])


def test_scan_index_header_without_corpus_hash_exit_4(tmp_path, capsys):
    scan = _index_and_scan(tmp_path)
    _rewrite_index_header(tmp_path / "i.bin", lambda header: header.pop("corpus_hash"))
    assert scan() == 4
    assert "i.bin: truncated or malformed index header" in capsys.readouterr().err


@pytest.mark.parametrize("shingle_n", [0, True, 2], ids=["zero", "true", "two"])
def test_scan_index_header_bad_shingle_n_exit_4(tmp_path, capsys, shingle_n):
    scan = _index_and_scan(tmp_path)  # over an empty timelines directory: no post is read
    _rewrite_index_header(tmp_path / "i.bin", lambda header: header.update(shingle_n=shingle_n))
    assert scan() == 4
    err = capsys.readouterr().err
    assert f"i.bin: truncated or malformed index header: bad shingle size {shingle_n}" in err


def test_report_model_without_keys_exit_4(tmp_path, capsys):
    fx, work = tmp_path / "fx", tmp_path / "work"
    _run_pipeline(fx, work, seed=3, n=6)
    (work / "model.json").write_text("{}\n", encoding="utf-8")
    rc = main(["report", "--model", str(work / "model.json"), "--space", str(work / "space.json"),
               "--out-dir", str(work / "r")])
    assert rc == 4
    assert "model.json: missing key 'weights'" in capsys.readouterr().err


# Checks in a fresh process that artifacts, textnorm and corpus load no numpy,
# then runs corpus build, index, scan and label with the stages' own output
# redirected, and checks that none of them imported scipy.
_STAGES_RUN = """
import contextlib, io, sys
import quotematch.artifacts, quotematch.textnorm, quotematch.corpus
assert "numpy" not in sys.modules, "a standard-library module imported numpy"
from quotematch.cli import main
fx, out = sys.argv[1], sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["corpus", "build", "--input", fx + "/corpus.tsv", "--out", out + "/corpus.tsv"],
        ["index", "--corpus", out + "/corpus.tsv", "--out", out + "/index.bin"],
        ["scan", "--index", out + "/index.bin", "--corpus", out + "/corpus.tsv",
         "--timelines", fx + "/timelines", "--out-stats", out + "/stats.csv",
         "--out-matches", out + "/matches.jsonl"],
        ["label", "--stats", out + "/stats.csv", "--out", out + "/labeled.csv"],
    ):
        assert main(argv) == 0, argv
assert "scipy" not in sys.modules, "a stage before train imported scipy"
"""

# Runs the stages after `label` on its output; the fit is the solver's own.
_FIT_STAGES_RUN = """
import contextlib, io, sys
from quotematch.cli import main
fx, out = sys.argv[1], sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["features", "--ties", fx + "/ties.csv", "--labeled", out + "/labeled.csv",
         "--out-space", out + "/space.json", "--out-vectors", out + "/vectors.jsonl"],
        ["train", "--space", out + "/space.json", "--vectors", out + "/vectors.jsonl",
         "--labeled", out + "/labeled.csv", "--out-model", out + "/model.json",
         "--out-metrics", out + "/metrics.csv"],
        ["report", "--model", out + "/model.json", "--space", out + "/space.json",
         "--out-dir", out + "/report"],
    ):
        assert main(argv) == 0, argv
assert "scipy.special" in sys.modules, "train did not fit"
assert "scipy.optimize" not in sys.modules, "a stage imported scipy.optimize"
"""


def _run_stages(fx: Path, out: Path, script: str = _STAGES_RUN, **env) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **env)
    return subprocess.run([sys.executable, "-c", script, str(fx), str(out)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_index_and_scan_identical_across_hash_seeds(tmp_path):
    fx = tmp_path / "fx"
    assert main(["synth", "--out-dir", str(fx), "--n-per-class", "20",
                 "--timeline-len", "12", "--seed", "4", "--two-refute", "5"]) == 0
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash-seed-{hash_seed}"
        out.mkdir()
        proc = _run_stages(fx, out, PYTHONHASHSEED=hash_seed)
        assert proc.returncode == 0, proc.stderr
        outputs.append({name: (out / name).read_bytes()
                        for name in ("index.bin", "stats.csv", "matches.jsonl")})
    assert outputs[0] == outputs[1]
    assert outputs[0]["matches.jsonl"]


def test_stages_before_train_do_not_import_scipy(tmp_path):
    fx = tmp_path / "fx"
    assert main(["synth", "--out-dir", str(fx), "--n-per-class", "4",
                 "--timeline-len", "6", "--seed", "2"]) == 0
    proc = _run_stages(fx, tmp_path)
    assert proc.returncode == 0, proc.stderr
    # The stages' output went to the redirect, so import and exit printed nothing.
    assert proc.stdout == ""


def test_fit_stages_do_not_import_scipy_optimize(tmp_path):
    fx = tmp_path / "fx"
    assert main(["synth", "--out-dir", str(fx), "--n-per-class", "8",
                 "--timeline-len", "8", "--seed", "2", "--two-refute", "3"]) == 0
    for script in (_STAGES_RUN, _FIT_STAGES_RUN):
        proc = _run_stages(fx, tmp_path, script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
    assert (tmp_path / "report" / "top_coefficients.csv").is_file()


def test_scan_empty_timelines_dir(tmp_path):
    _tsv(tmp_path / "c.tsv", [("q1", "fabricated", "s", "نص اول للفهرس")])
    assert main(["index", "--corpus", str(tmp_path / "c.tsv"),
                 "--out", str(tmp_path / "i.bin")]) == 0
    (tmp_path / "timelines").mkdir()
    rc = main(["scan", "--index", str(tmp_path / "i.bin"), "--corpus", str(tmp_path / "c.tsv"),
               "--timelines", str(tmp_path / "timelines"),
               "--out-stats", str(tmp_path / "s.csv"),
               "--out-matches", str(tmp_path / "m.jsonl")])
    assert rc == 0
    assert (tmp_path / "s.csv").read_text().splitlines() == [
        "user_id,total_hadith,fabricated,refutes,retweet_fraction,label"
    ]
    assert (tmp_path / "m.jsonl").read_text() == ""


def test_scan_fixture_user_with_one_fabricated_quote(tmp_path):
    quote = "كلمه اولي ثانيه ثالثه رابعه خامسه سادسه سابعه"
    _tsv(tmp_path / "c.tsv", [("q1", "fabricated", "s", quote)])
    assert main(["index", "--corpus", str(tmp_path / "c.tsv"),
                 "--out", str(tmp_path / "i.bin")]) == 0
    timelines = tmp_path / "timelines"
    timelines.mkdir()
    (timelines / "user1.jsonl").write_text(
        json.dumps({"id": "p1", "user_id": "user1", "text": quote}) + "\n"
        + json.dumps({"id": "p2", "user_id": "user1", "text": "شيء اخر مختلف"}) + "\n",
        encoding="utf-8",
    )
    rc = main(["scan", "--index", str(tmp_path / "i.bin"), "--corpus", str(tmp_path / "c.tsv"),
               "--timelines", str(timelines),
               "--out-stats", str(tmp_path / "s.csv"),
               "--out-matches", str(tmp_path / "m.jsonl")])
    assert rc == 0
    row = (tmp_path / "s.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "user1" and row[2] == "1"  # fabricated == 1
    match = json.loads((tmp_path / "m.jsonl").read_text().splitlines()[0])
    assert match["quote_id"] == "q1" and match["kind"] == "circulation"


def test_train_single_class_exit_4(tmp_path, capsys):
    fx = tmp_path / "fx"
    work = tmp_path / "work"
    work.mkdir()
    assert main(["synth", "--out-dir", str(fx), "--n-per-class", "5",
                 "--timeline-len", "10", "--seed", "1", "--two-refute", "0"]) == 0
    assert main(["features", "--ties", str(fx / "ties.csv"),
                 "--out-space", str(work / "space.json"),
                 "--out-vectors", str(work / "vectors.jsonl")]) == 0
    # Labeled stats claiming everyone is a circulator.
    lines = ["user_id,total_hadith,fabricated,refutes,retweet_fraction,label"]
    for i in range(5):
        lines.append(f"circ_{i:04d},10,3,0,0.5,circulator")
        lines.append(f"deb_{i:04d},10,3,0,0.5,circulator")
    (work / "labeled.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["train", "--space", str(work / "space.json"),
               "--vectors", str(work / "vectors.jsonl"),
               "--labeled", str(work / "labeled.csv"),
               "--out-model", str(work / "model.json"),
               "--out-metrics", str(work / "metrics.csv")])
    assert rc == 4
    assert "class" in capsys.readouterr().err


def test_synth_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["synth", "--out-dir", str(out), "--n-per-class", "8",
                     "--timeline-len", "12", "--seed", "21", "--two-refute", "3"]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)


@pytest.mark.parametrize("two_refute", ["500", "4", "-1"])
def test_synth_rejects_two_refute_outside_the_class(tmp_path, capsys, two_refute):
    rc = main(["synth", "--out-dir", str(tmp_path / "fx"), "--n-per-class", "3",
               "--two-refute", two_refute])
    assert rc == 4
    err = capsys.readouterr().err
    assert "--two-refute" in err and "0..3" in err and two_refute in err
    assert not (tmp_path / "fx").exists()


def test_synth_default_two_refute_fits_a_small_class(tmp_path):
    # The default, 216, is cut to the class size when that is smaller.
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--out-dir", str(a), "--n-per-class", "3", "--seed", "5"]) == 0
    assert main(["synth", "--out-dir", str(b), "--n-per-class", "3", "--seed", "5",
                 "--two-refute", "3"]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)


def test_full_pipeline_smoke_and_artifacts(tmp_path):
    fx, work = tmp_path / "fx", tmp_path / "work"
    _run_pipeline(fx, work)
    for name in ("corpus.tsv", "index.bin", "stats.csv", "labeled.csv", "space.json",
                 "vectors.jsonl", "model.json", "metrics.csv"):
        assert (work / name).exists(), name
    metrics = (work / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "group,accuracy,precision,recall,f1"
    assert [line.split(",")[0] for line in metrics[1:]] == ["Circulators", "Debunkers", "Macro"]
    report = work / "report"
    assert (report / "top_coefficients.csv").exists()
    assert (report / "category_counts.csv").exists()
    assert (report / "class_summary.csv").exists()


def test_pipeline_recovers_truth_labels(tmp_path):
    fx, work = tmp_path / "fx", tmp_path / "work"
    _run_pipeline(fx, work, seed=9, n=12)
    truth = dict(
        line.split(",") for line in (fx / "truth.csv").read_text().splitlines()[1:]
    )
    labeled = {}
    for line in (work / "labeled.csv").read_text().splitlines()[1:]:
        parts = line.split(",")
        labeled[parts[0]] = parts[5]
    assert all(labeled[user] == label for user, label in truth.items())


def test_report_without_category_map_all_unlabeled(tmp_path):
    fx, work = tmp_path / "fx", tmp_path / "work"
    _run_pipeline(fx, work)
    lines = (work / "report" / "category_counts.csv").read_text().splitlines()[1:]
    assert lines and all(line.split(",")[1] == "Unlabeled" for line in lines)


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_report_with_category_map(tmp_path):
    fx, work = tmp_path / "fx", tmp_path / "work"
    _run_pipeline(fx, work)
    # One planted hub's id holds a comma; features, train and report run again.
    ties = fx / "ties.csv"
    ties.write_text(ties.read_text().replace("circ_hub_000", '"hub,000"'), encoding="utf-8")
    assert main(["features", "--ties", str(ties), "--labeled", str(work / "labeled.csv"),
                 "--out-space", str(work / "space.json"),
                 "--out-vectors", str(work / "vectors.jsonl")]) == 0
    assert main(["train", "--space", str(work / "space.json"),
                 "--vectors", str(work / "vectors.jsonl"),
                 "--labeled", str(work / "labeled.csv"), "--out-model", str(work / "model.json"),
                 "--out-metrics", str(work / "metrics.csv")]) == 0
    hubs = ["hub,000"] + [f"circ_hub_{i:03d}" for i in range(1, 20)]
    cmap = tmp_path / "categories.csv"
    write_csv(cmap, ("target_id", "category"), [(hub, "Planted Pages") for hub in hubs])
    assert main(["report", "--model", str(work / "model.json"),
                 "--space", str(work / "space.json"),
                 "--out-dir", str(work / "report2"),
                 "--category-map", str(cmap)]) == 0
    coefficients = _csv_rows(work / "report2" / "top_coefficients.csv")
    assert all(len(row) == 5 for row in coefficients)
    targets = [row[2] for row in coefficients[1:]]
    assert "hub,000" in targets
    counts = {(side, category): int(n) for side, category, n in
              _csv_rows(work / "report2" / "category_counts.csv")[1:]}
    planted = [row[0] for row in coefficients[1:] if row[2] in hubs]
    assert planted.count("positive") > 0
    for side in ("positive", "negative"):
        assert counts.get((side, "Planted Pages"), 0) == planted.count(side)


def test_report_top_k_sets_the_rows_per_side(pipeline_dir, tmp_path):
    work = pipeline_dir / "work"
    assert main(["report", "--model", str(work / "model.json"), "--space", str(work / "space.json"),
                 "--out-dir", str(tmp_path), "--top-k", "3"]) == 0
    sides = [row[0] for row in _csv_rows(tmp_path / "top_coefficients.csv")[1:]]
    assert sides == ["positive"] * 3 + ["negative"] * 3


def test_report_space_mismatch_exit_3(tmp_path, capsys):
    fx, work = tmp_path / "fx", tmp_path / "work"
    _run_pipeline(fx, work)
    # One more tie, to a new target, gives a different feature space.
    ties = tmp_path / "other_ties.csv"
    ties.write_text((fx / "ties.csv").read_text(encoding="utf-8") + "circ_0000,new_page,follow\n",
                    encoding="utf-8")
    other = tmp_path / "other_space.json"
    assert main(["features", "--ties", str(ties),
                 "--out-space", str(other),
                 "--out-vectors", str(tmp_path / "other_vectors.jsonl")]) == 0
    rc = main(["report", "--model", str(work / "model.json"), "--space", str(other),
               "--out-dir", str(tmp_path / "r")])
    assert rc == 3
    assert "feature space" in capsys.readouterr().err


def test_kind_columns_hold_kind_labels(pipeline_dir):
    # str() of a TieKind is "TieKind.FOLLOW"; files must hold the label.
    labels = {"follow", "retweet", "like"}
    ties = _csv_rows(pipeline_dir / "fx" / "ties.csv")
    coefficients = _csv_rows(pipeline_dir / "work" / "report" / "top_coefficients.csv")
    assert ties[0][2] == coefficients[0][3] == "kind"
    assert {row[2] for row in ties[1:]} == labels
    assert len(coefficients) > 1 and {row[3] for row in coefficients[1:]} <= labels


def test_space_kind_counts_cover_users_outside_the_labeled_set(pipeline_dir, tmp_path):
    ties = tmp_path / "ties.csv"
    ties.write_text((pipeline_dir / "fx" / "ties.csv").read_text(encoding="utf-8")
                    + "outsider,circ_0000,like\noutsider,outsider,follow\n", encoding="utf-8")
    rows = read_stats_csv(pipeline_dir / "work" / "labeled.csv")
    neither = rows[0][0].user_id
    labeled = tmp_path / "labeled.csv"
    write_stats_csv([
        (stats, BehaviorLabel.NEITHER if stats.user_id == neither else label)
        for stats, label in rows
    ], labeled)
    assert main(["features", "--ties", str(ties), "--labeled", str(labeled),
                 "--out-space", str(tmp_path / "space.json"),
                 "--out-vectors", str(tmp_path / "vectors.jsonl")]) == 0
    space = load_space(tmp_path / "space.json")
    assert space.kind_counts == kind_counts(read_ties_csv(ties))
    assert space.kind_counts["outsider"] == (1, 0, 1)
    assert space.kind_counts[neither] != (0, 0, 0)
    encoded = {v.user_id for v in load_vectors(tmp_path / "vectors.jsonl", space)}
    assert encoded == {stats.user_id for stats, _ in rows} - {neither}


def test_trained_weights_are_stationary_on_every_tie_column(pipeline_dir, tmp_path):
    """``train`` fits on distinct columns; ``model.json``'s expanded weights
    must still zero the gradient of the objective over all of them."""
    work = pipeline_dir / "work"
    model_path = tmp_path / "model.json"
    assert main(["train", "--space", str(work / "space.json"),
                 "--vectors", str(work / "vectors.jsonl"),
                 "--labeled", str(work / "labeled.csv"), "--out-model", str(model_path),
                 "--out-metrics", str(tmp_path / "metrics.csv")]) == 0
    sign = {BehaviorLabel.CIRCULATOR: 1.0, BehaviorLabel.DEBUNKER: -1.0}
    labels = {stats.user_id: sign.get(label) for stats, label in read_stats_csv(
        work / "labeled.csv")}
    space = load_space(work / "space.json")
    rows = [v for v in load_vectors(work / "vectors.jsonl", space) if labels.get(v.user_id)]
    X = np.zeros((len(rows), space.n_columns))
    for i, v in enumerate(rows):
        X[i, list(v.columns)] = 1.0
    y = np.array([labels[v.user_id] for v in rows])
    # Some columns repeat, so a wrong expansion would show.
    assert len({X[:, j].tobytes() for j in range(X.shape[1])}) < X.shape[1]
    fitted = json.loads(model_path.read_text(encoding="utf-8"))
    w, b = np.array(fitted["weights"]), fitted["bias"]
    l2, tol = fitted["hyperparams"]["l2_strength"], fitted["hyperparams"]["tolerance"]
    r = y / (1.0 + np.exp(y * (X @ w + b)))  # y * sigmoid(-margin)
    grad = np.append(-X.T @ r / len(y) + l2 * w / len(y), -r.sum() / len(y))
    assert np.linalg.norm(grad) <= 1.01 * tol


def test_timeline_non_boolean_retweet_exit_4(tmp_path, capsys):
    fx, work = tmp_path / "fx", tmp_path / "work"
    work.mkdir()
    assert main(["synth", "--out-dir", str(fx), "--n-per-class", "2",
                 "--timeline-len", "4", "--seed", "1", "--two-refute", "0"]) == 0
    assert main(["corpus", "build", "--input", str(fx / "corpus.tsv"),
                 "--out", str(work / "corpus.tsv")]) == 0
    assert main(["index", "--corpus", str(work / "corpus.tsv"),
                 "--out", str(work / "index.bin")]) == 0
    (fx / "timelines" / "circ_0000.jsonl").write_text(
        '{"id":"p1","user_id":"circ_0000","text":"x","is_retweet":"false"}\n', encoding="utf-8"
    )
    rc = main(["scan", "--index", str(work / "index.bin"), "--corpus", str(work / "corpus.tsv"),
               "--timelines", str(fx / "timelines"), "--out-stats", str(work / "stats.csv"),
               "--out-matches", str(work / "matches.jsonl")])
    assert rc == 4
    assert "circ_0000.jsonl: bad post on line 1" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    _run_pipeline(root / "fx", root / "work", seed=3, n=6)
    return root


def _edit_json(name, **changes):
    def edit(path: Path) -> None:
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(dict(payload, **changes)), encoding="utf-8")
    return name, edit


def _edit_first_column(change):
    """Rewrite space.json's first [target, kind] column, keeping its manifest hash."""
    def edit(path: Path) -> None:
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["columns"][0] = change(*payload["columns"][0])
        path.write_text(json.dumps(payload), encoding="utf-8")
    return "space.json", edit


def _edit_vectors(line, **changes):
    def edit(path: Path) -> None:
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[line - 1])
        record.update(changes)
        lines[line - 1] = json.dumps({k: v for k, v in record.items() if v is not None})
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return "vectors.jsonl", edit


def _replace_text(name, text):
    return name, lambda path: path.write_text(text(path.read_text(encoding="utf-8")),
                                              encoding="utf-8")


_TRAIN = ["train", "--space", "{w}/space.json", "--vectors", "{w}/vectors.jsonl",
          "--labeled", "{w}/labeled.csv", "--out-model", "{w}/m2.json",
          "--out-metrics", "{w}/metrics2.csv"]
_REPORT = ["report", "--model", "{w}/model.json", "--space", "{w}/space.json",
           "--out-dir", "{w}/r2", "--category-map", "{w}/categories.csv"]
_FEATURES = ["features", "--ties", "{w}/ties.csv", "--out-space", "{w}/s2.json",
             "--out-vectors", "{w}/v2.jsonl"]
_LABEL = ["label", "--stats", "{w}/stats.csv", "--out", "{w}/l2.csv"]


def _repeat_line_2(name):
    return _replace_text(name, lambda text: re.sub(r"\n(.*\n)", r"\n\1\1", text, count=1))


@pytest.mark.parametrize(
    "argv, edit, code, message",
    [
        (_REPORT, _replace_text("space.json", lambda _: "{}"), 4,
         r"space\.json: missing key 'columns'"),
        (_REPORT, _replace_text("space.json", lambda _: "[1, 2]"), 4,
         r"space\.json: expected a JSON object, got list"),
        (_REPORT, _replace_text("space.json", lambda text: text[:200]), 4,
         r"space\.json: (Expecting|Unterminated)"),
        (_TRAIN, _edit_vectors(2, columns=None), 4,
         r"vectors\.jsonl: line 2: missing key 'columns'"),
        (_TRAIN, _edit_vectors(2, columns=5), 4, r"vectors\.jsonl: line 2: 'int' object"),
        (_REPORT, _edit_json("space.json", columns=5), 4, r"space\.json: 'int' object"),
        (_REPORT, _edit_json("model.json", hyperparams=3), 4, r"model\.json: .*must be a mapping"),
        (_REPORT, _edit_json("space.json", format_version=99), 3,
         r"space\.json: format version 99, expected 2"),
        (_REPORT, _edit_json("space.json", format_version=1), 3,
         r"space\.json: format version 1, expected 2"),
        (_REPORT, _edit_json("space.json", columns=[["t", "block"]]), 4,
         r"space\.json: unknown tie kind 'block'"),
        (_REPORT, _edit_json("space.json", columns=[["t", "like", "x"]]), 4,
         r"space\.json: too many values to unpack"),
        (_REPORT, _edit_json("space.json", kind_counts={"u": [1, 2]}), 4,
         r"space\.json: kind_counts must map users to 3 integer counts"),
        (_REPORT, _edit_json("space.json", kind_counts={"u": [-5, 0, 0]}), 4,
         r"space\.json: kind_counts must map users to 3 integer counts"),
        (_REPORT, _edit_json("space.json", support="abc"), 4,
         r"space\.json: support must be a list of integers >= 0"),
        (_REPORT + ["--ties", "{w}/ties.csv"],
         _replace_text("ties.csv", lambda text: text + "extra,hub,follow\n"), 3,
         r"ties /\S*/ties\.csv differ from the ties file /\S*/space\.json was built from"),
        (_TRAIN, _edit_vectors(1, format_version=99), 3,
         r"vectors\.jsonl: line 1: format version 99, expected 1"),
        (_REPORT, _edit_json("model.json", format_version=99), 3,
         r"model\.json: format version 99, expected 1"),
        (_TRAIN, _edit_vectors(1, space_hash=""), 3,
         r"vectors\.jsonl were encoded against a different"),
        (_REPORT, _edit_json("model.json", space_hash=""), 3,
         r"model\.json was trained against a different"),
        (_REPORT, _edit_json("space.json", manifest_hash=""), 4,
         r"space\.json: manifest hash does not match"),
        (_REPORT, _edit_first_column(lambda target, kind: [target + "x", kind]), 4,
         r"space\.json: manifest hash does not match column list"),
        (_TRAIN, _edit_first_column(lambda target, kind: [target, "like" if kind != "like"
                                                          else "follow"]), 4,
         r"space\.json: manifest hash does not match column list"),
        (_REPORT, _replace_text("categories.csv", lambda text: text + "hub,000,Hubs\n"), 4,
         r"categories\.csv: line 3: expected 2 fields target_id,category, got 3"),
        (_REPORT, _replace_text("categories.csv", lambda text: text + '"hub,000",Pages\n'), 4,
         r"categories\.csv: line 3: repeated target_id 'hub,000'"),
        (_FEATURES, _replace_text("ties.csv", lambda _: 'u,"a\nb",follow\nv,b,block\n'), 4,
         r"ties\.csv: line 3: unknown tie kind 'block'"),
        (_TRAIN, _edit_vectors(2, columns="12"), 4,
         r"vectors\.jsonl: line 2: columns must be ascending non-negative integers"),
        (_TRAIN, _edit_vectors(2, columns=[0, True]), 4,
         r"vectors\.jsonl: line 2: columns must be ascending non-negative integers"),
        (_TRAIN, _edit_vectors(2, columns=[2, 1]), 4,
         r"vectors\.jsonl: line 2: columns must be ascending non-negative integers"),
        (_TRAIN, _edit_vectors(2, columns=[-1]), 4,
         r"vectors\.jsonl: line 2: columns must be ascending non-negative integers"),
        (_TRAIN, _edit_vectors(2, columns=[10**6]), 4,
         r"vectors\.jsonl: line 2: column 1000000 is outside the \d+-column feature space"),
        (_TRAIN, _replace_text("labeled.csv", lambda text: re.sub(
            r"\n(.*)\n", r"\n\1,extra\n", text, count=1)), 4,
         r"labeled\.csv: line 2: expected 6 fields, got 7"),
        (_TRAIN, _replace_text("labeled.csv", lambda text: re.sub(
            r"\n(.*),[^,\n]*\n", r"\n\1\n", text, count=1)), 4,
         r"labeled\.csv: line 2: expected 6 fields, got 5"),
        (_TRAIN, _replace_text("labeled.csv", lambda text: text.replace("\n", "\n,,,,,\n", 1)),
         4, r"labeled\.csv: line 2: invalid literal for int"),
        (_TRAIN, _edit_vectors(2, user_id=5), 4,
         r"vectors\.jsonl: line 2: user_id must be a string, got 5"),
        (_TRAIN, _replace_text("vectors.jsonl", lambda text: re.sub(
            r"\n(.*\n)", r"\n\1\1", text, count=1)), 4,
         r"vectors\.jsonl: line 3: repeated user_id"),
        (_TRAIN, _repeat_line_2("labeled.csv"), 4,
         r"labeled\.csv: line 3: repeated user_id '"),
        (_REPORT + ["--labeled", "{w}/labeled.csv"], _repeat_line_2("labeled.csv"), 4,
         r"labeled\.csv: line 3: repeated user_id '"),
        (_LABEL, _repeat_line_2("stats.csv"), 4, r"stats\.csv: line 3: repeated user_id '"),
    ],
    ids=["space-empty-object", "space-list", "space-truncated", "vectors-line-without-columns",
         "vectors-columns-int", "space-columns-int", "model-hyperparams-int",
         "space-v99", "space-v1", "space-unknown-kind", "space-column-three-fields",
         "space-kind-counts-short", "space-kind-counts-negative", "space-support-string",
         "report-ties-extra-tie", "vectors-v99", "model-v99",
         "vectors-empty-space-hash", "model-empty-space-hash", "space-empty-manifest-hash",
         "space-tampered-target", "train-space-tampered-kind",
         "category-map-three-fields", "category-map-target-id-repeated",
         "ties-line-after-quoted-newline", "vectors-columns-string", "vectors-columns-bool",
         "vectors-columns-descending", "vectors-columns-negative", "vectors-column-past-space",
         "stats-extra-field", "stats-missing-field", "stats-empty-fields", "vectors-user-id-int",
         "vectors-user-id-repeated", "train-labeled-user-id-repeated",
         "report-labeled-user-id-repeated", "label-stats-user-id-repeated"],
)
def test_bad_artifact_exit_code_names_file(
    pipeline_dir, tmp_path, capsys, argv, edit, code, message
):
    work = tmp_path / "work"
    shutil.copytree(pipeline_dir / "work", work)
    shutil.copy(pipeline_dir / "fx" / "ties.csv", work / "ties.csv")
    write_csv(work / "categories.csv", ("target_id", "category"), [("hub,000", "Hubs")])
    name, change = edit
    change(work / name)
    capsys.readouterr()
    assert main([arg.format(w=work) for arg in argv]) == code
    assert re.search(message, capsys.readouterr().err)


def test_class_summary_needs_only_labeled(pipeline_dir, tmp_path):
    work = pipeline_dir / "work"
    summaries = []
    for extra in ([], ["--ties", str(pipeline_dir / "fx" / "ties.csv")]):
        out = tmp_path / f"report{len(extra)}"
        assert main(["report", "--model", str(work / "model.json"),
                     "--space", str(work / "space.json"), "--out-dir", str(out),
                     "--labeled", str(work / "labeled.csv")] + extra) == 0
        summaries.append((out / "class_summary.csv").read_bytes())
    assert summaries[0] == summaries[1]
    assert len(summaries[0].splitlines()) > 1


class _Built(Exception):
    """Raised by a stand-in stage callee, carrying the settings it was given."""


@pytest.mark.parametrize(
    "argv, module, callee, position, library_only",
    [
        (["synth", "--out-dir", "{w}/fx2", "--n-per-class", "7", "--timeline-len", "5",
          "--seed", "9", "--two-refute", "2"],
         synth, "generate", 0, []),
        (["label", "--stats", "{w}/stats.csv", "--out", "{w}/l2.csv", "--min-fabricated", "3",
          "--min-fraction", "0.1", "--min-refutes", "4", "--min-refutes-balance", "3",
          "--no-balance"],
         behavior, "build_labeled_dataset", 1, []),
        # max_iters and tolerance are the solver's stopping rule, not a step of
        # the paper's method: only library callers (the solver tests) set them.
        (_TRAIN + ["--l2", "2", "--seed", "3"],
         model_mod, "train_and_validate", 2, ["max_iters", "tolerance"]),
    ],
    ids=["synth", "label", "train"],
)
def test_a_flag_sets_every_settings_field(pipeline_dir, monkeypatch, argv, module, callee,
                                          position, library_only):
    def capture(*args, **kwargs):
        raise _Built(args[position])

    monkeypatch.setattr(module, callee, capture)
    with pytest.raises(_Built) as built:
        main([arg.format(w=pipeline_dir / "work") for arg in argv])
    config = built.value.args[0]
    unset = [f.name for f in dataclasses.fields(config) if getattr(config, f.name) == f.default]
    assert unset == library_only


@settings(max_examples=30, deadline=None)
@given(
    st.lists(ANY_ID, min_size=1, max_size=6, unique=True),
    st.lists(ANY_ID, min_size=1, max_size=3),
)
def test_report_files_roundtrip_any_unicode_target(tmp_path_factory, targets, categories):
    d = tmp_path_factory.mktemp("report")
    space = FeatureSpace(columns=tuple((t, TieKind.LIKE_AUTHOR) for t in targets),
                         support=(1,) * len(targets))
    weights = np.array([(i + 1) * (-1) ** i for i in range(len(targets))], dtype=np.float64)
    model = LogitModel(weights, 0.5, LogitHyperparams(), True, 0.0, [])
    save_space(space, d / "space.json")
    save_model(model, d / "model.json", space.manifest_hash)
    category_of = {t: categories[i % len(categories)] for i, t in enumerate(targets)}
    write_csv(d / "categories.csv", ("target_id", "category"), category_of.items())
    assert main(["report", "--model", str(d / "model.json"), "--space", str(d / "space.json"),
                 "--out-dir", str(d / "r"), "--category-map", str(d / "categories.csv")]) == 0
    report = top_coefficients(model, space, len(targets))
    assert _csv_rows(d / "r" / "top_coefficients.csv")[1:] == [
        [side, str(rank), target, "like", f"{weight:.8f}"]
        for side, entries in (("positive", report.top_positive),
                              ("negative", report.top_negative))
        for rank, ((target, _kind), weight) in enumerate(entries, start=1)
    ]
    counts = categorize_report(report, category_of)
    assert _csv_rows(d / "r" / "category_counts.csv")[1:] == [
        [side, category, str(counts[side][category])]
        for side in ("positive", "negative") for category in sorted(counts[side])
    ]


@pytest.fixture(scope="module")
def one_quote_index(tmp_path_factory):
    d = tmp_path_factory.mktemp("index")
    _tsv(d / "c.tsv", [("q1", "fabricated", "s", "كلمه اولي ثانيه ثالثه رابعه خامسه")])
    assert main(["index", "--corpus", str(d / "c.tsv"), "--out", str(d / "i.bin")]) == 0
    return d


@settings(max_examples=30, deadline=None)
@given(st.lists(ANY_ID, min_size=1, max_size=5, unique=True))
def test_matches_jsonl_roundtrip_any_unicode_post_id(tmp_path_factory, one_quote_index, post_ids):
    d = tmp_path_factory.mktemp("scan")
    (d / "timelines").mkdir()
    (d / "timelines" / "u.jsonl").write_text("".join(
        json.dumps({"id": pid, "user_id": "u", "text": "كلمه اولي ثانيه ثالثه رابعه خامسه"},
                   ensure_ascii=False) + "\n"
        for pid in post_ids
    ), encoding="utf-8")
    assert main(["scan", "--index", str(one_quote_index / "i.bin"),
                 "--corpus", str(one_quote_index / "c.tsv"), "--timelines", str(d / "timelines"),
                 "--out-stats", str(d / "s.csv"), "--out-matches", str(d / "m.jsonl")]) == 0
    matches = [record for _, record in read_jsonl(d / "m.jsonl")]
    assert [m["post_id"] for m in matches] == sorted(post_ids)
    assert all(list(m) == ["user_id", "post_id", "quote_id", "similarity", "authenticity", "kind"]
               for m in matches)
