"""Shared test fixtures: random corpora/posts and the brute-force match oracle.

The oracle intentionally avoids the matcher's index and candidate code
entirely: it re-derives token sets through textnorm (the shared
comparison-space contract) and does plain all-pairs set arithmetic. Nothing
here imports the benchmark (``bench/``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quotematch.corpus import AuthenticityLevel, ReferenceCorpus, build_corpus
from quotematch.matcher import DEFAULT_REFUTE_PHRASES
from quotematch.textnorm import DEFAULT_PREFIX_PATTERNS, normalize_arabic, strip_quote_prefix


@dataclass
class MatchFixture:
    corpus: ReferenceCorpus
    posts: list[tuple[str, str]]  # (post_id, text)


def _token_set(text: str, n: int = 1) -> frozenset[str]:
    tokens = strip_quote_prefix(normalize_arabic(text)).split()
    if len(tokens) < n:
        return frozenset()
    if n == 1:
        return frozenset(tokens)
    return frozenset(" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def random_match_fixture(
    seed: int, max_quotes: int = 500, max_posts: int = 2000
) -> MatchFixture:
    """A corpus plus posts whose true Jaccard values spread over [0, 1]."""
    rng = np.random.default_rng(seed)
    n_quotes = int(rng.integers(100, max_quotes + 1))
    n_posts = int(rng.integers(500, max_posts + 1))
    quote_vocab = [f"w{i:04d}" for i in range(800)]
    extra_vocab = [f"x{i:04d}" for i in range(800)]

    rows = []
    quote_tokens: list[list[str]] = []
    seen: set[frozenset[str]] = set()
    levels = ["fabricated", "authentic", "good", "weak"]
    while len(rows) < n_quotes:
        size = int(rng.integers(8, 26))
        tokens = [str(w) for w in rng.choice(quote_vocab, size=size, replace=False)]
        key = frozenset(tokens)
        if key in seen:
            continue
        seen.add(key)
        qid = f"q{len(rows):04d}"
        rows.append((qid, levels[len(rows) % 4], "fixture", " ".join(tokens)))
        quote_tokens.append(tokens)
    corpus, _ = build_corpus(rows)

    posts: list[tuple[str, str]] = []
    for i in range(n_posts):
        if rng.random() < 0.4:
            size = int(rng.integers(4, 15))
            tokens = [str(w) for w in rng.choice(quote_vocab, size=size, replace=False)]
        else:
            src = quote_tokens[int(rng.integers(0, len(quote_tokens)))]
            target_j = float(rng.uniform(0.05, 1.0))
            n_keep = max(1, round(target_j * len(src)))
            kept = [src[k] for k in sorted(rng.choice(len(src), size=n_keep, replace=False))]
            n_extra = max(0, round(n_keep / target_j) - len(src))
            extras = [str(w) for w in rng.choice(extra_vocab, size=n_extra, replace=False)]
            tokens = kept + extras
        posts.append((f"p{i:05d}", " ".join(tokens)))
    return MatchFixture(corpus=corpus, posts=posts)


def zipf_match_fixture(seed: int, n_quotes: int = 400, n_posts: int = 1200) -> MatchFixture:
    """Quotes and posts over one shared Zipf vocabulary, plus planted edge cases.

    Quote ids are not zero-padded, so string order differs from corpus order
    (``q10`` sorts before ``q9``). Quotes draw 8-30 words with replacement
    from a 1,500-word vocabulary with p(rank) ~ rank^-1.05, so frequent words
    are shared across the corpus. Noisy shares keep each source word with
    probability 0.3-0.9 and add 0-8 drawn words, so their Jaccard straddles
    0.35; some also add words found in no quote, which count toward the union
    all the same, some end in a refute phrase and some start with a quote
    prefix. Unrelated posts are plain draws.

    Planted posts: 7 and 8 of a 20-word quote (Jaccard exactly 0.35, no
    match; and 0.40), the 8 with three unknown words (8/23, no match), a
    two-quote tie that ``q10`` wins over ``q9``, and posts with no corpus word.
    """
    rng = np.random.default_rng([seed, 35])
    vocab = [f"z{i:04d}" for i in range(1500)]
    weights = 1.0 / np.arange(1, len(vocab) + 1) ** 1.05
    p = weights / weights.sum()

    def draw(n: int) -> list[str]:
        return [vocab[i] for i in rng.choice(len(vocab), size=n, p=p)]

    edge = [f"edge{i:02d}" for i in range(20)]
    tie = [f"tie{i}" for i in range(7)]
    planted_quotes = {8: edge, 9: tie + ["tiea"], 10: tie + ["tieb"]}
    levels = ["fabricated", "authentic", "good", "weak"]
    rows: list[tuple[str, str, str, str]] = []
    quote_tokens: list[list[str]] = []
    seen: set[str] = set()
    while len(rows) < n_quotes:
        tokens = planted_quotes.get(len(rows)) or draw(int(rng.integers(8, 31)))
        text = " ".join(tokens)
        if text in seen:
            continue
        seen.add(text)
        rows.append((f"q{len(rows)}", levels[len(rows) % 4], "zipf", text))
        quote_tokens.append(tokens)
    corpus, _ = build_corpus(rows)

    unknown = [f"oov{i}" for i in range(50)]
    texts = [
        " ".join(edge[:7]),
        " ".join(edge[:8]),
        " ".join(edge[:8] + unknown[:3]),
        " ".join(tie),
        " ".join(unknown[:4]),
        DEFAULT_REFUTE_PHRASES[0],
    ]
    while len(texts) < n_posts:
        if rng.random() < 0.4:
            tokens = draw(int(rng.integers(4, 21)))
        else:
            src = quote_tokens[int(rng.integers(0, len(quote_tokens)))]
            keep = float(rng.uniform(0.3, 0.9))
            tokens = [t for t in src if rng.random() < keep] + draw(int(rng.integers(0, 9)))
        if rng.random() < 0.3:
            tokens += list(rng.choice(unknown, size=int(rng.integers(1, 4)), replace=False))
        text = " ".join(tokens)
        if rng.random() < 0.15:
            text += " " + DEFAULT_REFUTE_PHRASES[int(rng.integers(0, len(DEFAULT_REFUTE_PHRASES)))]
        if rng.random() < 0.15:
            text = DEFAULT_PREFIX_PATTERNS[int(rng.integers(0, len(DEFAULT_PREFIX_PATTERNS)))] + " " + text
        texts.append(text)
    return MatchFixture(corpus, [(f"p{i:05d}", t) for i, t in enumerate(texts)])


_REFUTES = [tuple(normalize_arabic(phrase).split()) for phrase in DEFAULT_REFUTE_PHRASES]


def _has_refute(tokens: list[str]) -> bool:
    return any(
        tuple(tokens[i : i + len(phrase)]) == phrase
        for phrase in _REFUTES
        for i in range(len(tokens) - len(phrase) + 1)
    )


def brute_force_best(
    fixture: MatchFixture, threshold: float = 0.35, shingle_n: int = 1
) -> dict[str, tuple[str, str, float]]:
    """post id -> (quote id, kind, exact Jaccard) of every post that matches.

    All pairs are scored; the best quote is the first maximum in string order
    of quote ids, and it matches when its Jaccard strictly exceeds the threshold.
    """
    quotes = sorted(
        (q.id, q.authenticity, _token_set(q.raw_text, shingle_n)) for q in fixture.corpus.quotes
    )
    out = {}
    for post_id, text in fixture.posts:
        post_set = _token_set(text, shingle_n)
        if not post_set:
            continue
        best, best_sim = None, -1.0
        for quote in quotes:
            inter = len(post_set & quote[2])
            sim = inter / (len(post_set) + len(quote[2]) - inter)
            if sim > best_sim:
                best, best_sim = quote, sim
        if best_sim > threshold:
            qid, level, _ = best
            if level is not AuthenticityLevel.FABRICATED:
                kind = "non_fabricated_share"
            elif _has_refute(normalize_arabic(text).split()):
                kind = "refute"
            else:
                kind = "circulation"
            out[post_id] = (qid, kind, best_sim)
    return out
