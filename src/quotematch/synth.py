"""Deterministic synthetic fixtures: reference quotes, user timelines, network
ties, and ground-truth labels with planted circulator/debunker behaviors.

Everything is a pure function of the seed, so two runs with the same spec are
byte-identical. Tie profiles carry planted class-exclusive features; a
``label_noise`` fraction of users per class instead draws background-only
ties, which makes their label pure noise for the tie classifier while their
timeline behavior stays consistent with the label.

:class:`SyntheticSpec` sets the class size, planted ties, timeline length,
label noise, seed and two-refute debunkers. The rest is fixed: 30 fabricated
and 30 other quotes, 100 background tie targets, and a retweet fraction of
0.758 for circulators and 0.279 for debunkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_csv
from .behavior import Post, write_timeline
from .corpus import TSV_HEADER
from .features import Tie, TieKind, write_ties_csv
from .matcher import DEFAULT_REFUTE_PHRASES
from .textnorm import DEFAULT_PREFIX_PATTERNS, normalize_arabic

_ARABIC_LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"
_TIE_KINDS = (TieKind.FOLLOW, TieKind.RETWEET_AUTHOR, TieKind.LIKE_AUTHOR)
_FABRICATED_QUOTES = 30
_OTHER_QUOTES = 30
_BACKGROUND_TARGETS = 100
_RETWEET_FRACTION = {"circ": 0.758, "deb": 0.279}


@dataclass(frozen=True)
class SyntheticSpec:
    n_per_class: int = 559
    planted_per_class: int = 20
    timeline_len: int = 40
    label_noise: float = 0.05
    seed: int = 0
    two_refute_debunkers: int = 216

    def __post_init__(self) -> None:
        if min(self.n_per_class, self.planted_per_class, self.timeline_len) < 1:
            raise ValueError("spec sizes must be positive")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ValueError("label_noise must be in [0, 1]")
        if not 0 <= self.two_refute_debunkers <= self.n_per_class:
            raise ValueError("two_refute_debunkers must be within the class size")


@dataclass(frozen=True)
class SynthPaths:
    corpus: Path
    timelines_dir: Path
    ties: Path
    truth: Path


def _reserved_tokens() -> set[str]:
    reserved: set[str] = set()
    for phrase in DEFAULT_REFUTE_PHRASES + DEFAULT_PREFIX_PATTERNS:
        reserved.update(normalize_arabic(phrase).split())
    return reserved


def _make_vocab(rng: np.random.Generator, size: int, reserved: set[str]) -> list[str]:
    vocab: list[str] = []
    seen = set(reserved)
    while len(vocab) < size:
        length = int(rng.integers(3, 8))
        word = "".join(rng.choice(list(_ARABIC_LETTERS), size=length))
        if word not in seen:
            vocab.append(word)
            seen.add(word)
    return vocab


def _distinct_quote(rng: np.random.Generator, vocab: list[str], taken: set[str]) -> str:
    while True:
        n_tokens = int(rng.integers(8, 17))
        words = rng.choice(vocab, size=n_tokens, replace=False)
        text = " ".join(words)
        if text not in taken:
            taken.add(text)
            return text


def _share_text(
    rng: np.random.Generator, quote: str, noise_vocab: list[str], partial: bool
) -> str:
    """A post sharing a quote, optionally partial/decorated; Jaccard stays > 0.35."""
    tokens = quote.split()
    if partial:
        lo = int(np.ceil(0.6 * len(tokens)))
        keep = int(rng.integers(lo, len(tokens) + 1))
        idx = sorted(rng.choice(len(tokens), size=keep, replace=False))
        tokens = [tokens[i] for i in idx]
    extra = [str(w) for w in rng.choice(noise_vocab, size=int(rng.integers(0, 4)), replace=False)]
    text = " ".join(tokens + extra)
    if rng.random() < 0.5:
        text = DEFAULT_PREFIX_PATTERNS[int(rng.integers(0, len(DEFAULT_PREFIX_PATTERNS)))] + " " + text
    return text


def _noise_text(rng: np.random.Generator, noise_vocab: list[str]) -> str:
    n = int(rng.integers(4, 12))
    return " ".join(str(w) for w in rng.choice(noise_vocab, size=n, replace=False))


def _planted_pairs(prefix: str, count: int) -> list[tuple[str, TieKind]]:
    return [(f"{prefix}_{i:03d}", _TIE_KINDS[i % 3]) for i in range(count)]


def _user_ties(
    rng: np.random.Generator,
    user_id: str,
    planted: list[tuple[str, TieKind]],
    background: list[str],
    n_background: int,
    noisy: bool,
) -> list[Tie]:
    ties: list[Tie] = []
    if not noisy:
        mask = rng.random(len(planted)) < 0.5
        if not mask.any():
            mask[int(rng.integers(0, len(planted)))] = True
        ties.extend(
            (user_id, target, kind) for (target, kind), keep in zip(planted, mask) if keep
        )
    targets = rng.choice(background, size=min(n_background, len(background)), replace=False)
    for target in targets:
        kind = _TIE_KINDS[int(rng.integers(0, 3))]
        ties.append((user_id, str(target), kind))
    return ties


def generate(spec: SyntheticSpec, out_dir: str | Path) -> SynthPaths:
    """Write corpus.tsv, timelines/, ties.csv, and truth.csv under ``out_dir``."""
    out = Path(out_dir)
    timelines_dir = out / "timelines"
    timelines_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    reserved = _reserved_tokens()
    quote_vocab = _make_vocab(rng, 400, reserved)
    # Noise vocabulary is disjoint from quote vocabulary so unrelated posts
    # never cross the match threshold by accident.
    noise_vocab = _make_vocab(rng, 400, reserved | set(quote_vocab))

    taken: set[str] = set()
    fabricated = [_distinct_quote(rng, quote_vocab, taken) for _ in range(_FABRICATED_QUOTES)]
    other = [_distinct_quote(rng, quote_vocab, taken) for _ in range(_OTHER_QUOTES)]
    other_levels = ["authentic", "good", "weak"]

    corpus_lines = [TSV_HEADER]
    for i, text in enumerate(fabricated):
        corpus_lines.append(f"q{i:04d}\tfabricated\tsynthetic\t{text}")
    for j, text in enumerate(other):
        level = other_levels[j % 3]
        corpus_lines.append(f"q{_FABRICATED_QUOTES + j:04d}\t{level}\tsynthetic\t{text}")
    corpus_path = out / "corpus.tsv"
    corpus_path.write_text("\n".join(corpus_lines) + "\n", encoding="utf-8")

    circ_planted = _planted_pairs("circ_hub", spec.planted_per_class)
    deb_planted = _planted_pairs("deb_hub", spec.planted_per_class)
    background = [f"bg_{i:04d}" for i in range(_BACKGROUND_TARGETS)]

    all_ties: list[Tie] = []
    truth_rows: list[tuple[str, str]] = []
    refute_phrases = [normalize_arabic(p) for p in DEFAULT_REFUTE_PHRASES]

    for cls, label in (("circ", "circulator"), ("deb", "debunker")):
        n_noisy = int(round(spec.label_noise * spec.n_per_class))
        for u in range(spec.n_per_class):
            user_id = f"{cls}_{u:04d}"
            truth_rows.append((user_id, label))
            noisy = u < n_noisy

            posts: list[str] = []
            if cls == "circ":
                n_fab = int(rng.integers(2, 6))
                n_auth = int(rng.integers(0, 6))
                for _ in range(n_fab):
                    q = fabricated[int(rng.integers(0, len(fabricated)))]
                    posts.append(_share_text(rng, q, noise_vocab, partial=rng.random() < 0.5))
                for _ in range(n_auth):
                    q = other[int(rng.integers(0, len(other)))]
                    posts.append(_share_text(rng, q, noise_vocab, partial=rng.random() < 0.5))
            else:
                is_two_refuter = u >= spec.n_per_class - spec.two_refute_debunkers
                n_refutes = 2 if is_two_refuter else int(rng.integers(3, 7))
                n_auth = int(rng.integers(0, 6))
                for _ in range(n_refutes):
                    q = fabricated[int(rng.integers(0, len(fabricated)))]
                    phrase = refute_phrases[int(rng.integers(0, len(refute_phrases)))]
                    posts.append(q + " " + phrase)
                for _ in range(n_auth):
                    q = other[int(rng.integers(0, len(other)))]
                    posts.append(_share_text(rng, q, noise_vocab, partial=rng.random() < 0.5))

            while len(posts) < spec.timeline_len:
                posts.append(_noise_text(rng, noise_vocab))
            posts = posts[: spec.timeline_len]
            order = rng.permutation(len(posts))
            n_retweets = int(round(_RETWEET_FRACTION[cls] * len(posts)))
            retweet_slots = set(rng.choice(len(posts), size=n_retweets, replace=False).tolist())
            timeline = [
                Post(
                    id=f"{user_id}_p{i:04d}",
                    user_id=user_id,
                    text=posts[order[i]],
                    is_retweet=i in retweet_slots,
                    created_at=f"2023-03-01T{i // 60:02d}:{i % 60:02d}:00Z",
                )
                for i in range(len(posts))
            ]
            write_timeline(timeline, timelines_dir / f"{user_id}.jsonl")

            planted = circ_planted if cls == "circ" else deb_planted
            n_background = int(rng.integers(10, 30)) if cls == "circ" else int(rng.integers(5, 15))
            all_ties.extend(
                _user_ties(rng, user_id, planted, background, n_background, noisy)
            )

    ties_path = out / "ties.csv"
    write_ties_csv(all_ties, ties_path)
    truth_path = out / "truth.csv"
    write_csv(truth_path, ("user_id", "label"), sorted(truth_rows))
    return SynthPaths(
        corpus=corpus_path, timelines_dir=timelines_dir, ties=ties_path, truth=truth_path
    )
