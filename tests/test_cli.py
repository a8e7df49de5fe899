import json
import os
import subprocess
import sys
from pathlib import Path

from quotematch import cli
from quotematch.cli import main
from quotematch.corpus import TSV_HEADER
from quotematch.matcher import INDEX_MAGIC


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
        "--repeats", "3", "--seed", str(seed),
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


def test_scan_prefix_lexicon_mismatch_exit_3(tmp_path, capsys):
    (tmp_path / "prefixes.txt").write_text("قال الامام\n", encoding="utf-8")
    scan = _index_and_scan(tmp_path, scan_args=("--prefixes", str(tmp_path / "prefixes.txt")))
    assert scan() == 3
    assert "different prefix lexicon" in capsys.readouterr().err


def test_scan_index_header_without_corpus_hash_exit_4(tmp_path, capsys):
    scan = _index_and_scan(tmp_path)
    data = (tmp_path / "i.bin").read_bytes()
    start = len(INDEX_MAGIC) + 4
    end = start + int.from_bytes(data[len(INDEX_MAGIC) : start], "little")
    header = json.loads(data[start:end])
    del header["corpus_hash"]
    blob = json.dumps(header).encode("utf-8")
    (tmp_path / "i.bin").write_bytes(INDEX_MAGIC + len(blob).to_bytes(4, "little") + blob
                                     + data[end:])
    assert scan() == 4
    assert "i.bin: truncated or malformed index header" in capsys.readouterr().err


def test_report_model_without_keys_exit_4(tmp_path, capsys):
    fx, work = tmp_path / "fx", tmp_path / "work"
    _run_pipeline(fx, work, seed=3, n=6)
    (work / "model.json").write_text("{}\n", encoding="utf-8")
    rc = main(["report", "--model", str(work / "model.json"), "--space", str(work / "space.json"),
               "--out-dir", str(work / "r")])
    assert rc == 4
    assert "model.json: missing key 'weights'" in capsys.readouterr().err


_HASH_SEED_RUN = """
import sys
from quotematch.cli import main
fx, out = sys.argv[1], sys.argv[2]
for argv in (
    ["corpus", "build", "--input", fx + "/corpus.tsv", "--out", out + "/corpus.tsv"],
    ["index", "--corpus", out + "/corpus.tsv", "--out", out + "/index.bin"],
    ["scan", "--index", out + "/index.bin", "--corpus", out + "/corpus.tsv",
     "--timelines", fx + "/timelines", "--out-stats", out + "/stats.csv",
     "--out-matches", out + "/matches.jsonl"],
):
    assert main(argv) == 0, argv
"""


def test_index_and_scan_identical_across_hash_seeds(tmp_path):
    fx = tmp_path / "fx"
    assert main(["synth", "--out-dir", str(fx), "--n-per-class", "20",
                 "--timeline-len", "12", "--seed", "4", "--two-refute", "5"]) == 0
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash-seed-{hash_seed}"
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", _HASH_SEED_RUN, str(fx), str(out)],
                       env=env, check=True, timeout=300)
        outputs.append({name: (out / name).read_bytes()
                        for name in ("index.bin", "stats.csv", "matches.jsonl")})
    assert outputs[0] == outputs[1]
    assert outputs[0]["matches.jsonl"]


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


def test_report_with_category_map(tmp_path):
    fx, work = tmp_path / "fx", tmp_path / "work"
    _run_pipeline(fx, work)
    cmap = tmp_path / "categories.csv"
    rows = ["target_id,category"] + [f"circ_hub_{i:03d},Planted Pages" for i in range(20)]
    cmap.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["report", "--model", str(work / "model.json"),
                 "--space", str(work / "space.json"),
                 "--out-dir", str(work / "report2"),
                 "--category-map", str(cmap)]) == 0
    content = (work / "report2" / "category_counts.csv").read_text()
    assert "Planted Pages" in content


def test_report_space_mismatch_exit_3(tmp_path, capsys):
    fx, work = tmp_path / "fx", tmp_path / "work"
    _run_pipeline(fx, work)
    # Rebuild a different feature space and point report at it.
    other = tmp_path / "other_space.json"
    assert main(["features", "--ties", str(fx / "ties.csv"),
                 "--out-space", str(other),
                 "--out-vectors", str(tmp_path / "other_vectors.jsonl"),
                 "--min-support", "5"]) == 0
    rc = main(["report", "--model", str(work / "model.json"), "--space", str(other),
               "--out-dir", str(tmp_path / "r")])
    assert rc == 3
    assert "feature space" in capsys.readouterr().err


def test_scan_defaults_to_one_thread(tmp_path, monkeypatch):
    monkeypatch.delenv("QUOTEMATCH_THREADS", raising=False)

    def no_pool(*args, **kwargs):
        raise AssertionError("scan created a thread pool without QUOTEMATCH_THREADS")

    monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
    fx, work = tmp_path / "fx", tmp_path / "work"
    _run_pipeline(fx, work, seed=3, n=6)
    assert (work / "stats.csv").exists()


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


def test_scan_respects_thread_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QUOTEMATCH_THREADS", "2")
    fx, work = tmp_path / "fx", tmp_path / "work"
    _run_pipeline(fx, work, seed=3, n=6)
    assert (work / "stats.csv").exists()
