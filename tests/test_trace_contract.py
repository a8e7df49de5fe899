"""The per-layer tracer (``bench/trace.py``) wraps program functions by name
and counts what they return; these tests pin the program's side of that
contract without changing the tracer."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from quotematch.cli import main
from quotematch.corpus import build_corpus
from quotematch.matcher import build_index, load_index, query_candidates, save_index
from quotematch.textnorm import shingle

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # trace.py imports its sibling run.py
        spec = importlib.util.spec_from_file_location("bench_trace", BENCH / "trace.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module.LAYERS


CORPUS = build_corpus([
    ("q2", "fabricated", "t", "alpha beta gamma delta"),
    ("q10", "authentic", "t", "alpha epsilon zeta"),
    ("q1", "weak", "t", "eta theta iota"),
])[0]


def test_every_traced_function_exists(layers):
    for module, name in layers:
        assert callable(getattr(importlib.import_module(f"quotematch.{module}"), name, None)), (
            f"quotematch.{module}.{name}"
        )


def test_index_counts_are_corpus_size(layers, tmp_path):
    index = build_index(CORPUS)
    save_index(index, tmp_path / "index.bin")
    for name, result in (("build_index", index), ("load_index", load_index(tmp_path / "index.bin"))):
        counts = Counter()
        layers[("matcher", name)](counts, result)
        assert counts["corpus_size"] == len(CORPUS) == 3


@pytest.mark.parametrize("post", ["alpha beta", "alpha iota unknown", "theta", "unknown only"])
def test_candidate_count_is_quotes_sharing_a_shingle(layers, post):
    sharing = [q.id for q in CORPUS.quotes if set(q.normalized_text.split()) & set(post.split())]
    counts = Counter()
    layers[("matcher", "query_candidates")](counts, query_candidates(build_index(CORPUS), shingle(post)))
    assert counts["candidates"] == len(sharing)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the trace result")


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    """``trace.py`` patches modules process-wide, so it runs in its own process."""
    inputs = tmp_path / "inputs"
    assert main(["synth", "--out-dir", str(inputs), "--n-per-class", "30", "--two-refute", "10",
                 "--timeline-len", "6", "--seed", "1"]) == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), QUOTEMATCH_THREADS="1")
    result_path = tmp_path / "result.json"
    run = subprocess.run(
        [sys.executable, str(BENCH / "trace.py"), str(inputs), str(tmp_path / "out"),
         str(result_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    assert result["absent"] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    # bench/run.py adds the cli.* stage timings itself, outside the tracer.
    names = [m["name"] for m in declared if not m["name"].startswith("cli.")]
    assert len(names) == 25
    assert [name for name in names if name not in result["metrics"]] == []
