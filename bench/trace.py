"""Traced in-process run of the pipeline, for the per-layer metrics.

    python3 bench/trace.py INPUTS_DIR OUT_DIR RESULT_JSON [--plain]

Wraps the public functions listed in ``LAYERS`` in every ``quotematch``
module that binds them (so ``from .textnorm import ...`` copies are wrapped
too), then runs the same CLI stages as the end-to-end benchmark, one after
another in this process. Each wrapper records a span (name, start, end,
parent); spans stay in memory and are written once, to ``OUT_DIR/spans.npz``,
when the run ends. A layer's self time is its span time minus the time its
child spans cover. Counts come from the wrapped calls' return values. A
function that the program no longer has is reported as absent, not as an
error. ``--plain`` runs the same stages without wrappers, to measure the
tracing overhead. Run it with ``QUOTEMATCH_THREADS=1`` and ``src`` on the path.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from run import PIPELINE, SETUP, Inputs, stage_argv


# (module, function) -> counter fed with the call's return value, or None.
LAYERS = {
    ("corpus", "load_corpus"): None,
    ("textnorm", "normalize_arabic"): None,
    ("textnorm", "strip_quote_prefix"): None,
    ("textnorm", "shingle"): None,
    ("matcher", "build_index"): lambda c, r: c.__setitem__("corpus_size", len(r)),
    ("matcher", "load_index"): lambda c, r: c.__setitem__("corpus_size", len(r)),
    ("matcher", "minhash_signature"): None,
    ("matcher", "query_candidates"): lambda c, r: c.update(candidates=len(r)),
    ("matcher", "exact_jaccard"): None,
    ("matcher", "match_post"): lambda c, r: c.update(matched=r is not None),
    ("behavior", "read_timeline"): None,
    ("behavior", "scan_timeline"): None,
    ("behavior", "build_labeled_dataset"): None,
    ("behavior", "write_stats_csv"): None,
    ("behavior", "read_stats_csv"): None,
    ("features", "read_ties_csv"): None,
    ("features", "build_feature_space"): lambda c, r: c.__setitem__("columns", r.n_columns),
    ("features", "encode_users"): lambda c, r: c.update(nnz=sum(len(v.columns) for v in r[0])),
    ("features", "save_vectors"): None,
    ("features", "load_vectors"): None,
    ("model", "train_logit"): lambda c, r: c.update(iterations=len(r.loss_history) - 1),
    ("model", "cross_validate"): None,
    ("model", "top_coefficients"): None,
}


class Tracer:
    """Spans in flat arrays: name id, start, end and parent span index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, label: str, fn, counter=None):
        nid = len(self.names)
        self.names.append(label)
        name, start, end, parent, stack = self.name, self.start, self.end, self.parent, self.stack
        counts, clock = self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, result)
            return result

        return traced

    def calls(self) -> dict[str, int]:
        """Number of spans per name."""
        n = np.bincount(np.frombuffer(self.name, dtype=np.int32), minlength=len(self.names))
        return {label: int(n[i]) for i, label in enumerate(self.names)}

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name."""
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        total = np.bincount(name, weights=dur, minlength=len(self.names))
        own = np.bincount(name, weights=dur - covered, minlength=len(self.names))
        return (
            {n: float(total[i]) for i, n in enumerate(self.names)},
            {n: float(own[i]) for i, n in enumerate(self.names)},
        )

    def save(self, path: Path) -> None:
        np.savez(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def install(tracer: Tracer) -> list[str]:
    """Wrap every function in ``LAYERS`` wherever a quotematch module binds it.

    Returns the labels of functions the program does not have."""
    importlib.import_module("quotematch.cli")
    modules = [m for n, m in sys.modules.items() if n == "quotematch" or n.startswith("quotematch.")]
    absent = []
    for (mod, fn_name), counter in LAYERS.items():
        label = f"{mod}.{fn_name}"
        original = getattr(sys.modules.get(f"quotematch.{mod}"), fn_name, None)
        if original is None:
            absent.append(label)
            continue
        traced = tracer.wrap(label, original, counter)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
    return absent


def run_stages(inputs: Inputs, out: Path) -> float:
    """Run every stage in this process; returns their total wall seconds."""
    from quotematch import cli

    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    for stage in SETUP + PIPELINE:
        code = cli.main(stage_argv(stage, inputs, out))
        if code != 0:
            raise SystemExit(f"traced stage {stage} exited {code}")
    return time.perf_counter() - start


def per_layer(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics; a metric whose functions are all absent is left out."""
    total, own = tracer.totals()
    calls, counts = tracer.calls(), tracer.counts

    def t(*labels: str, table=total):
        present = [table[x] for x in labels if x in table]
        return sum(present) if present else None

    metrics = {
        "corpus.load_s": t("corpus.load_corpus"),
        "textnorm.normalize_s": t("textnorm.normalize_arabic"),
        "textnorm.strip_shingle_s": t("textnorm.strip_quote_prefix", "textnorm.shingle"),
        "matcher.match_post_self_s": t("matcher.match_post", table=own),
        "matcher.minhash_s": t("matcher.minhash_signature"),
        "matcher.candidates_self_s": t("matcher.query_candidates", table=own),
        "matcher.verify_s": t("matcher.exact_jaccard"),
        "matcher.index_build_s": t("matcher.build_index"),
        "matcher.index_load_s": t("matcher.load_index"),
        "behavior.read_timeline_s": t("behavior.read_timeline"),
        "behavior.scan_timeline_self_s": t("behavior.scan_timeline", table=own),
        "behavior.label_s": t("behavior.build_labeled_dataset"),
        "behavior.stats_io_s": t("behavior.write_stats_csv", "behavior.read_stats_csv"),
        "features.read_ties_s": t("features.read_ties_csv"),
        "features.encode_s": t("features.build_feature_space", "features.encode_users"),
        "features.vectors_io_s": t("features.save_vectors", "features.load_vectors"),
        "model.fit_s": t("model.train_logit"),
        "model.cv_self_s": t("model.cross_validate", table=own),
        "model.report_s": t("model.top_coefficients"),
    }
    if calls.get("matcher.query_candidates"):
        per_post = counts["candidates"] / calls["matcher.query_candidates"]
        metrics["matcher.candidates_per_post"] = per_post
        if counts["corpus_size"]:
            metrics["matcher.candidate_fraction"] = per_post / counts["corpus_size"]
    if calls.get("matcher.exact_jaccard") and "matcher.match_post" in total:
        metrics["matcher.verify_yield"] = counts["matched"] / calls["matcher.exact_jaccard"]
    if "features.build_feature_space" in total:
        metrics["features.columns"] = counts["columns"]
    if "features.encode_users" in total:
        metrics["features.nnz"] = counts["nnz"]
    if "model.train_logit" in total:
        metrics["model.iterations"] = counts["iterations"]
    return {k: v for k, v in metrics.items() if v is not None}


def main(argv: list[str]) -> int:
    inputs, out, result_path = Inputs.at(Path(argv[0])), Path(argv[1]), Path(argv[2])
    tracer = Tracer()
    absent = [] if "--plain" in argv[3:] else install(tracer)
    wall = run_stages(inputs, out)
    tracer.save(out / "spans.npz")
    result = {"wall_s": wall, "absent": absent, "metrics": per_layer(tracer), "spans": len(tracer.start)}
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
