"""The whole pipeline through the CLI on a generated fixture.

Run: python demos/06_full_pipeline.py [output-dir]
"""

import sys
import tempfile
from pathlib import Path

from quotematch.cli import main

root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="qm_pipeline_"))
fixture = root / "fixture"
work = root / "work"
work.mkdir(parents=True, exist_ok=True)

steps = [
    # Deterministic fixture: timelines, ties, ground truth, reference quotes.
    ["synth", "--out-dir", str(fixture), "--n-per-class", "60",
     "--timeline-len", "24", "--seed", "11", "--two-refute", "20"],
    # Normalize + dedup the quote corpus.
    ["corpus", "build", "--input", str(fixture / "corpus.tsv"),
     "--out", str(work / "corpus.tsv")],
    # Compile the corpus once: sorted ids, authenticity, shingle vocabulary, CSR.
    ["index", "--corpus", str(work / "corpus.tsv"), "--out", str(work / "index.bin")],
    # Scan every timeline (exact Jaccard against every quote sharing a word);
    # emits per-user stats and a per-post match audit.
    ["scan", "--index", str(work / "index.bin"), "--corpus", str(work / "corpus.tsv"),
     "--timelines", str(fixture / "timelines"),
     "--out-stats", str(work / "stats.csv"),
     "--out-matches", str(work / "matches.jsonl")],
    # Apply the circulator/debunker thresholds and balance the dataset.
    ["label", "--stats", str(work / "stats.csv"), "--out", str(work / "labeled.csv")],
    # Multi-hot tie features for the labeled users.
    ["features", "--ties", str(fixture / "ties.csv"), "--labeled", str(work / "labeled.csv"),
     "--out-space", str(work / "space.json"), "--out-vectors", str(work / "vectors.jsonl")],
    # Cross-validate, refit on everything, emit the metrics table.
    ["train", "--space", str(work / "space.json"), "--vectors", str(work / "vectors.jsonl"),
     "--labeled", str(work / "labeled.csv"), "--out-model", str(work / "model.json"),
     "--out-metrics", str(work / "metrics.csv"), "--seed", "11"],
    # Coefficient, category, and per-class interaction reports.
    ["report", "--model", str(work / "model.json"), "--space", str(work / "space.json"),
     "--out-dir", str(work / "report"), "--labeled", str(work / "labeled.csv"),
     "--ties", str(fixture / "ties.csv"), "--top-k", "25"],
]

for argv in steps:
    print(f"$ quotematch {' '.join(argv)}")
    rc = main(argv)
    if rc != 0:
        sys.exit(rc)
    print()

print("=== metrics.csv ===")
print((work / "metrics.csv").read_text())
print(f"artifacts under {work}")
