"""Exact matching over a compiled corpus, and the strict 0.35 threshold.

Run: python demos/03_exact_matching.py

Matching is exact; the MinHash estimator plays no part in it.
"""

import numpy as np

from quotematch.corpus import build_corpus
from quotematch.matcher import build_index, exact_jaccard, match_post, query_candidates
from quotematch.textnorm import shingle

# Similarity is exact Jaccard over token sets: |A ∩ B| / |A ∪ B|.
a = shingle("الصدق منجاه والكذب مهواه والامانه غنيمه")
b = shingle("الصدق منجاه والكذب مهلكه والامانه غنيمه")
print(f"exact Jaccard: {exact_jaccard(a, b):.3f}  (5 shared of 7 distinct words)")

# Compile a small corpus: ids in string order, a sorted vocabulary, and one
# CSR row of vocabulary columns per quote.
rng = np.random.default_rng(0)
vocab = [f"كلمه{i}" for i in range(300)]
rows = []
for i in range(200):
    words = rng.choice(vocab, size=12, replace=False)
    level = "fabricated" if i % 2 == 0 else "authentic"
    rows.append((f"q{i:03d}", level, "demo", " ".join(words)))
corpus, _ = build_corpus(rows)
index = build_index(corpus)
print(f"\ncompiled {len(index)} quotes over {len(index.vocabulary)} distinct words, "
      f"{len(index.columns)} (quote, word) entries")

# Candidates are every quote sharing a word with the post, with the number of
# shared words counted over the inverted postings; nothing is pruned.
target = corpus.quotes[0]
partial = " ".join(target.normalized_text.split()[:7])  # 7/12 tokens: J = 0.583
candidates = query_candidates(index, shingle(partial))
print(f"\nquery with 7 of 12 tokens of {target.id}:")
print(f"  {len(candidates)} of {len(corpus)} quotes share a word with it; "
      f"most shared: {candidates[:, 1].max()}")

result = match_post(partial, index, post_id="demo-post")
print(f"  best match: {result.quote_id} at similarity {result.similarity:.3f} ({result.kind.value})")

# Words outside the corpus still count in the union.
noisy = match_post(partial + " غريبه اخري", index)
print(f"  + 2 unknown words: similarity {noisy.similarity:.3f} = 7/14")

# The 0.35 threshold is strict; a 7-of-20-token share sits exactly on it.
long_quote = " ".join(f"t{i}" for i in range(20))
index2 = build_index(build_corpus([("q", "fabricated", "demo", long_quote)])[0])
on_threshold = match_post(" ".join(f"t{i}" for i in range(7)), index2)
print(f"\nJaccard exactly 0.35 -> match: {on_threshold}")

# Equal similarity goes to the lowest id in string order: "q10" before "q9".
tied = build_index(build_corpus([
    ("q9", "fabricated", "demo", "a b c d"), ("q10", "fabricated", "demo", "a b c e"),
])[0])
print(f"tie between q9 and q10 -> {match_post('a b c', tied).quote_id}")

# A refuting phrase turns a would-be circulation into a refute.
refute = match_post(target.raw_text + " حديث موضوع لا يصح", index)
print(f"share + refuting phrase -> kind: {refute.kind.value}")
