"""The per-layer tracer (``bench/trace.py``) wraps program functions by name
and counts what they return; these tests pin the program's side of that
contract without changing the tracer."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from quotematch.corpus import build_corpus
from quotematch.matcher import build_index, load_index, query_candidates, save_index
from quotematch.textnorm import shingle

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
