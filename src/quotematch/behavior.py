"""Timeline scanning, per-user statistics, and circulator/debunker labeling.

A user is a circulator when they shared a fabricated quote at least twice and
those shares strictly exceed 5% of all their quote shares. A user is a
debunker when they never shared a fabricated quote and refuted one at least
three times (strict mode) or twice (balance mode, used to top up the debunker
side of the labeled dataset).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

from .artifacts import read_csv, read_jsonl, write_csv, write_jsonl
from .corpus import AuthenticityLevel
from .matcher import (
    DEFAULT_REFUTES,
    CompiledIndex,
    MatchKind,
    MatchResult,
    contains_refute_term,
    match_post,
)
from .textnorm import PhraseLexicon

logger = logging.getLogger(__name__)

STATS_CSV_FIELDS = ("user_id", "total_hadith", "fabricated", "refutes", "retweet_fraction")


@dataclass(frozen=True)
class Post:
    id: str
    user_id: str
    text: str
    is_retweet: bool = False
    created_at: str = ""
    parent_id: str | None = None


@dataclass(frozen=True)
class UserStats:
    user_id: str
    total_hadith: int
    fabricated: int
    refutes: int
    retweet_fraction: float

    def __post_init__(self) -> None:
        if min(self.total_hadith, self.fabricated, self.refutes) < 0:
            raise ValueError(f"negative count in stats for {self.user_id!r}")
        if self.fabricated > self.total_hadith:
            raise ValueError(
                f"fabricated > total_hadith for {self.user_id!r}: "
                f"{self.fabricated} > {self.total_hadith}"
            )
        if not 0.0 <= self.retweet_fraction <= 1.0:
            raise ValueError(f"retweet_fraction out of [0,1] for {self.user_id!r}")


class BehaviorLabel(Enum):
    CIRCULATOR = "circulator"
    DEBUNKER = "debunker"
    NEITHER = "neither"


@dataclass(frozen=True)
class LabelThresholds:
    min_fabricated: int = 2
    min_fabricated_fraction: float = 0.05
    min_refutes_strict: int = 3
    min_refutes_balance: int = 2

    def __post_init__(self) -> None:
        if min(self.min_fabricated, self.min_refutes_strict, self.min_refutes_balance) < 1:
            raise ValueError("label thresholds must be positive")
        if self.min_fabricated_fraction <= 0:
            raise ValueError("min_fabricated_fraction must be positive")
        if self.min_refutes_balance > self.min_refutes_strict:
            raise ValueError("balance-mode refute threshold cannot exceed strict mode")


DEFAULT_THRESHOLDS = LabelThresholds()


def read_timeline(path: str | Path) -> list[Post]:
    """Read a line-delimited JSON timeline, one post object per line."""
    posts: list[Post] = []
    for line_no, obj in read_jsonl(path):
        try:
            is_retweet = obj.get("is_retweet", False)
            if not isinstance(is_retweet, bool):
                raise TypeError(f"is_retweet must be true or false, got {is_retweet!r}")
            posts.append(
                Post(
                    id=str(obj["id"]),
                    user_id=str(obj["user_id"]),
                    text=str(obj.get("text", "")),
                    is_retweet=is_retweet,
                    created_at=str(obj.get("created_at", "")),
                    parent_id=str(obj["parent_id"]) if obj.get("parent_id") is not None else None,
                )
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: bad post on line {line_no}: {exc}") from None
    return posts


def write_timeline(posts: Sequence[Post], path: str | Path) -> None:
    write_jsonl(path, (
        {"id": p.id, "user_id": p.user_id, "text": p.text, "is_retweet": p.is_retweet,
         "created_at": p.created_at}
        | ({"parent_id": p.parent_id} if p.parent_id is not None else {})
        for p in posts
    ))


def scan_timeline(
    posts: Sequence[Post],
    index: CompiledIndex,
    refute_lexicon: PhraseLexicon = DEFAULT_REFUTES,
    threshold: float = 0.35,
    *,
    user_id: str | None = None,
) -> tuple[UserStats, list[MatchResult]]:
    """Run every post through the matcher and aggregate one user's counts.

    Besides matched refutes, a refute-term post with no quote match of its own
    counts as a refute when its parent post (within the same timeline) matched
    a fabricated quote. Empty-text posts are skipped for matching but still
    count toward the retweet fraction denominator.
    """
    seen_users = {p.user_id for p in posts}
    if len(seen_users) > 1:
        raise ValueError(f"timeline mixes user ids: {sorted(seen_users)}")
    if user_id is None:
        user_id = next(iter(seen_users)) if seen_users else ""
    elif seen_users and seen_users != {user_id}:
        raise ValueError(f"timeline user ids {sorted(seen_users)} != {user_id!r}")

    results: list[MatchResult] = []
    match_by_post: dict[str, MatchResult] = {}
    for p in posts:
        if not p.text.strip():
            continue
        result = match_post(p.text, index, refute_lexicon, threshold, post_id=p.id)
        if result is not None:
            results.append(result)
            match_by_post[p.id] = result

    context_refutes = 0
    for p in posts:
        if p.id in match_by_post or not p.text.strip() or p.parent_id is None:
            continue
        parent = match_by_post.get(p.parent_id)
        if (
            parent is not None
            and parent.authenticity is AuthenticityLevel.FABRICATED
            and contains_refute_term(p.text, refute_lexicon)
        ):
            context_refutes += 1

    fabricated = sum(1 for r in results if r.kind is MatchKind.CIRCULATION)
    non_fabricated = sum(1 for r in results if r.kind is MatchKind.NON_FABRICATED_SHARE)
    refutes = sum(1 for r in results if r.kind is MatchKind.REFUTE) + context_refutes
    retweets = sum(1 for p in posts if p.is_retweet)
    stats = UserStats(
        user_id=user_id,
        total_hadith=fabricated + non_fabricated,
        fabricated=fabricated,
        refutes=refutes,
        retweet_fraction=retweets / len(posts) if posts else 0.0,
    )
    return stats, results


LabelMode = Literal["strict", "balance"]


def label_user(
    stats: UserStats,
    thresholds: LabelThresholds = DEFAULT_THRESHOLDS,
    mode: LabelMode = "strict",
) -> BehaviorLabel:
    """Apply the circulator/debunker rules to one user's statistics."""
    if mode not in ("strict", "balance"):
        raise ValueError(f"unknown labeling mode: {mode!r}")
    if (
        stats.fabricated >= thresholds.min_fabricated
        and stats.fabricated / stats.total_hadith > thresholds.min_fabricated_fraction
    ):
        return BehaviorLabel.CIRCULATOR
    min_refutes = (
        thresholds.min_refutes_strict if mode == "strict" else thresholds.min_refutes_balance
    )
    if stats.fabricated == 0 and stats.refutes >= min_refutes:
        return BehaviorLabel.DEBUNKER
    return BehaviorLabel.NEITHER


@dataclass(frozen=True)
class DatasetReport:
    n_circulators: int
    n_strict_debunkers: int
    n_balance_added: int

    @property
    def n_debunkers(self) -> int:
        return self.n_strict_debunkers + self.n_balance_added

    @property
    def balanced(self) -> bool:
        return self.n_circulators == self.n_debunkers


def build_labeled_dataset(
    all_stats: Sequence[UserStats],
    thresholds: LabelThresholds = DEFAULT_THRESHOLDS,
    balance: bool = True,
) -> tuple[list[tuple[UserStats, BehaviorLabel]], DatasetReport]:
    """Select circulators and debunkers, topping up the debunker side.

    All circulators and all strict debunkers are included. When debunkers are
    fewer and ``balance`` is set, users with balance-level refute counts are
    added in (refutes desc, user_id) order until the classes are equal or the
    pool runs out.
    """
    seen: set[str] = set()
    for s in all_stats:
        if s.user_id in seen:
            raise ValueError(f"duplicate user_id in stats: {s.user_id!r}")
        seen.add(s.user_id)

    by_label: dict[BehaviorLabel, list[UserStats]] = {label: [] for label in BehaviorLabel}
    for s in all_stats:
        by_label[label_user(s, thresholds)].append(s)
    circulators = by_label[BehaviorLabel.CIRCULATOR]
    strict_debunkers = by_label[BehaviorLabel.DEBUNKER]
    added: list[UserStats] = []
    if balance and len(strict_debunkers) < len(circulators):
        pool = [
            s
            for s in by_label[BehaviorLabel.NEITHER]
            if label_user(s, thresholds, "balance") is BehaviorLabel.DEBUNKER
        ]
        pool.sort(key=lambda s: (-s.refutes, s.user_id))
        added = pool[: len(circulators) - len(strict_debunkers)]

    report = DatasetReport(
        n_circulators=len(circulators),
        n_strict_debunkers=len(strict_debunkers),
        n_balance_added=len(added),
    )
    if report.n_circulators == 0 and report.n_debunkers == 0:
        logger.warning("labeled dataset is empty: no circulators or debunkers found")
    elif not report.balanced:
        logger.warning(
            "labeled dataset is imbalanced after balancing: %d circulators, %d debunkers",
            report.n_circulators,
            report.n_debunkers,
        )
    labeled = [(s, BehaviorLabel.CIRCULATOR) for s in circulators] + [
        (s, BehaviorLabel.DEBUNKER) for s in strict_debunkers + added
    ]
    labeled.sort(key=lambda pair: pair[0].user_id)
    return labeled, report


@dataclass(frozen=True)
class InteractionCounts:
    follows: int
    retweets: int
    likes: int
    retweet_fraction: float


def interaction_summary(
    counts: Mapping[str, InteractionCounts],
    labels: Mapping[str, BehaviorLabel],
) -> dict[BehaviorLabel, dict[str, dict[str, float]]]:
    """Per-class distribution summary of interaction counts.

    Returns, per label, mean/median/quartiles for follows, retweets, and
    likes, plus the same for the retweet fraction. Every summarized user must
    be labeled.
    """
    missing = sorted(set(counts) - set(labels))
    if missing:
        raise ValueError(f"users without labels: {missing[:5]}")
    by_label: dict[BehaviorLabel, list[InteractionCounts]] = {}
    for user_id in sorted(counts):
        by_label.setdefault(labels[user_id], []).append(counts[user_id])

    def describe(values: list[float]) -> dict[str, float]:
        arr = np.asarray(values, dtype=float)
        return {
            "mean": float(arr.mean()),
            "median": float(np.median(arr)),
            "q1": float(np.percentile(arr, 25)),
            "q3": float(np.percentile(arr, 75)),
        }

    summary: dict[BehaviorLabel, dict[str, dict[str, float]]] = {}
    for label, rows in by_label.items():
        summary[label] = {
            "follows": describe([r.follows for r in rows]),
            "retweets": describe([r.retweets for r in rows]),
            "likes": describe([r.likes for r in rows]),
            "retweet_fraction": describe([r.retweet_fraction for r in rows]),
        }
    return summary


def write_stats_csv(
    rows: Iterable[tuple[UserStats, BehaviorLabel | None]], path: str | Path
) -> None:
    """Write the stats CSV; the label column is left empty when unknown."""
    write_csv(
        path,
        STATS_CSV_FIELDS + ("label",),
        (
            (
                stats.user_id,
                str(stats.total_hadith),
                str(stats.fabricated),
                str(stats.refutes),
                repr(stats.retweet_fraction),
                label.value if label is not None else "",
            )
            for stats, label in rows
        ),
    )


def read_stats_csv(path: str | Path) -> list[tuple[UserStats, BehaviorLabel | None]]:
    rows = read_csv(path)
    _, header = next(rows, (None, None))
    if header is None:
        return []
    if header != list(STATS_CSV_FIELDS + ("label",)) and header != list(STATS_CSV_FIELDS):
        raise ValueError(f"{path}: unexpected stats CSV header {header}")
    out: list[tuple[UserStats, BehaviorLabel | None]] = []
    for line_no, parts in rows:
        try:
            if len(parts) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(parts)}")
            stats = UserStats(
                user_id=parts[0],
                total_hadith=int(parts[1]),
                fabricated=int(parts[2]),
                refutes=int(parts[3]),
                retweet_fraction=float(parts[4]),
            )
            label = BehaviorLabel(parts[5]) if len(parts) > 5 and parts[5] else None
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
        out.append((stats, label))
    return out
