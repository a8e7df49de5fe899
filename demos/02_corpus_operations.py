"""Reference-corpus bookkeeping: dedup on load, merging sources, exclusions.

Run: python demos/02_corpus_operations.py
"""

import tempfile
from pathlib import Path

from quotematch.corpus import (
    TSV_HEADER,
    filter_corpus,
    load_corpus,
    merge_corpora,
)

tmp = Path(tempfile.mkdtemp(prefix="qm_demo_"))

# Two rows that differ only in diacritics collapse into one quote.
(tmp / "a.tsv").write_text(
    TSV_HEADER + "\n"
    "a1\tfabricated\tarchive-a\tمن حفظ اربعين حديثا دخل الجنه\n"
    "a2\tfabricated\tarchive-a\tمَن حَفِظَ أربعين حديثاً دخل الجنة\n"
    "a3\tweak\tarchive-a\tنص اخر مختلف تماما\n",
    encoding="utf-8",
)
corpus_a, report = load_corpus(tmp / "a.tsv")
print(f"archive-a: {len(corpus_a)} quotes after collapsing {report.collapsed} duplicate(s)")

# A second source sharing one text with the first: first argument wins.
(tmp / "b.tsv").write_text(
    TSV_HEADER + "\n"
    "b1\tfabricated\tarchive-b\tمن حفظ اربعين حديثا دخل الجنه\n"
    "b2\tfabricated\tarchive-b\tحديث اخر من المصدر الثاني\n",
    encoding="utf-8",
)
corpus_b, _ = load_corpus(tmp / "b.tsv")
merged, merge_report = merge_corpora(corpus_a, corpus_b)
print(
    f"merged: {len(corpus_a)} + {len(corpus_b)} quotes with "
    f"{merge_report.collisions} shared text(s) -> {len(merged)}"
)

# Scholar-provided exclusions are id lists; unknown ids warn, never fail.
filtered, filter_report = filter_corpus(merged, {"a3", "not-a-real-id"})
print(
    f"filtered: removed {filter_report.removed}, "
    f"unknown ids reported: {filter_report.unknown_ids}"
)
for quote in filtered.quotes:
    print(f"  {quote.id:6} [{quote.authenticity.value:10}] {quote.normalized_text}")
