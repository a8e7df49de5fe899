"""Multi-hot network-tie feature space and sparse binary user encodings.

One column per distinct (target account, interaction kind) pair, so following
a page and liking its tweets occupy two different columns. Encodings are
binary: a column is active iff the user has that tie.

Ties are held in a ``TieTable``: the distinct (user, target, kind) ties as two
integer code arrays over sorted vocabularies, so encoding, counting and
restricting to a set of users are array operations rather than work per tie
object.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Container, Iterable, Iterator, Sequence

import numpy as np

from .artifacts import (
    VersionMismatchError, check_record, read_csv, read_json, read_jsonl, write_csv, write_json,
    write_jsonl,
)

if TYPE_CHECKING:
    from scipy import sparse


class TieKind(Enum):
    FOLLOW = "follow"
    RETWEET_AUTHOR = "retweet"
    LIKE_AUTHOR = "like"

    # Members are singletons; Enum's own __hash__ is a Python call on every tie read.
    __hash__ = object.__hash__


Tie = tuple[str, str, TieKind]  # (user_id, target_id, kind)

_KIND_OF_LABEL = {kind.value: kind for kind in TieKind}
SPACE_FORMAT_VERSION = 2
_TIES_HEADER = ["user_id", "target_id", "kind"]


@dataclass(frozen=True, eq=False)
class TieTable:
    """Distinct ties: tie ``i`` is ``users[user[i]]`` -> ``pairs[pair[i]]``.

    ``users`` is sorted, ``pairs`` is sorted by (target, kind value), and the
    ties by (user, pair) code, so code order is output order. Self-ties are
    kept; the feature encoders skip them. A restricted table keeps the whole
    vocabularies, so some users and pairs may have no tie."""

    users: tuple[str, ...]
    pairs: tuple[tuple[str, TieKind], ...]
    user: np.ndarray
    pair: np.ndarray

    def __len__(self) -> int:
        return len(self.user)

    def __iter__(self) -> Iterator[Tie]:
        for u, p in zip(self.user.tolist(), self.pair.tolist()):
            target, kind = self.pairs[p]
            yield self.users[u], target, kind

    def not_self(self) -> np.ndarray:
        """Mask of the ties whose target is not the user."""
        code_of = {user: i for i, user in enumerate(self.users)}
        target_user = np.array([code_of.get(t, -1) for t, _ in self.pairs], dtype=np.int64)
        return target_user[self.pair] != self.user

    def restrict(self, users: Container[str]) -> "TieTable":
        """The ties of ``users`` only, over the same vocabularies."""
        keep = np.array([u in users for u in self.users], dtype=bool)[self.user]
        return TieTable(self.users, self.pairs, self.user[keep], self.pair[keep])


def tie_table(ties: Iterable[Tie]) -> TieTable:
    """Code ties into a ``TieTable``; duplicates collapse."""
    user_code: dict[str, int] = {}
    pair_code: dict[tuple[str, TieKind], int] = {}
    codes = array("q")
    for user_id, target_id, kind in ties:
        codes.append(user_code.setdefault(user_id, len(user_code)))
        codes.append(pair_code.setdefault((target_id, kind), len(pair_code)))
    user_names = sorted(user_code)
    pair_names = sorted(pair_code, key=lambda pair: (pair[0], pair[1].value))
    # argsort inverts "sorted position -> code", giving each code its sorted rank.
    user_rank = np.argsort([user_code[u] for u in user_names])
    pair_rank = np.argsort([pair_code[p] for p in pair_names])
    code = np.frombuffer(codes, dtype=np.int64).reshape(-1, 2)
    n_pairs = max(len(pair_names), 1)
    keys = np.unique(user_rank[code[:, 0]] * n_pairs + pair_rank[code[:, 1]])
    return TieTable(tuple(user_names), tuple(pair_names), keys // n_pairs, keys % n_pairs)


@dataclass
class FeatureSpace:
    """Dense 0..n-1 column indexing of (target, kind) pairs, sorted for stability.

    ``ties_hash`` and ``kind_counts`` (see :func:`kind_counts`) describe the
    whole ties file the space was built from, users outside the space included."""

    columns: tuple[tuple[str, TieKind], ...]
    support: tuple[int, ...]
    ties_hash: str | None = None
    kind_counts: dict[str, tuple[int, ...]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.support):
            raise ValueError("support length does not match column count")

    @cached_property
    def column_of(self) -> dict[tuple[str, TieKind], int]:
        return {pair: i for i, pair in enumerate(self.columns)}

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    def pair_of(self, column: int) -> tuple[str, TieKind]:
        return self.columns[column]

    @cached_property
    def manifest_hash(self) -> str:
        return _manifest_hash([[t, k.value] for t, k in self.columns])


def _manifest_hash(columns: list[list[str]]) -> str:
    """sha256 of the ``[[target, kind label], ...]`` column list as compact JSON."""
    payload = json.dumps(columns, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class FeatureVector:
    """Sorted active column indices of one user (binary semantics)."""

    user_id: str
    columns: tuple[int, ...]


def build_feature_space(ties: TieTable) -> FeatureSpace:
    """One column per (target, kind) of a tie that is not a self-tie; support
    counts the users per column."""
    support = np.bincount(ties.pair[ties.not_self()], minlength=len(ties.pairs))
    used = np.flatnonzero(support)
    return FeatureSpace(
        columns=tuple(ties.pairs[p] for p in used.tolist()),
        support=tuple(support[used].tolist()),
    )


def encode_users(ties: TieTable, space: FeatureSpace) -> tuple[list[FeatureVector], int]:
    """Encode every user with a tie that is not a self-tie, sorted by user id.

    Also returns the count of those ties whose pair is not in ``space``."""
    keep = ties.not_self()
    user = ties.user[keep]
    column = np.array(
        [space.column_of.get(pair, -1) for pair in ties.pairs], dtype=np.int64
    )[ties.pair[keep]]
    rows = np.unique(user)
    known = column >= 0
    user, column = user[known], column[known]
    order = np.lexsort((column, user))
    columns = column[order].tolist()
    starts = np.searchsorted(user[order], rows).tolist() + [len(columns)]
    vectors = [
        FeatureVector(user_id=ties.users[u], columns=tuple(columns[a:b]))
        for u, a, b in zip(rows.tolist(), starts, starts[1:])
    ]
    return vectors, int(np.count_nonzero(~known))


def kind_counts(ties: TieTable) -> dict[str, tuple[int, ...]]:
    """Distinct ties of each user per kind, in ``TieKind`` order; self-ties count."""
    kind_code = {kind: i for i, kind in enumerate(TieKind)}
    kind = np.array([kind_code[k] for _, k in ties.pairs], dtype=np.int64)
    counts = np.bincount(
        ties.user * len(kind_code) + kind[ties.pair],
        minlength=len(ties.users) * len(kind_code),
    ).reshape(-1, len(kind_code))
    return {user: tuple(row) for user, row in zip(ties.users, counts.tolist())}


def to_csr(vectors: Sequence[FeatureVector], n_columns: int) -> sparse.csr_matrix:
    """Stack binary vectors into a CSR matrix with one row per vector."""
    from scipy import sparse  # local for the reason in model.loss_and_grad

    indptr = [0]
    indices: list[int] = []
    for v in vectors:
        indices.extend(v.columns)
        indptr.append(len(indices))
    data = np.ones(len(indices), dtype=np.float64)
    return sparse.csr_matrix(
        (data, np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(vectors), n_columns),
    )


def _csv_ties(path: str | Path) -> Iterator[Tie]:
    for line_no, row in read_csv(path):
        if len(row) != 3:
            raise ValueError(f"{path}: line {line_no}: expected 3 columns, got {len(row)}")
        user_id, target_id, label = row
        kind = _KIND_OF_LABEL.get(label) or _KIND_OF_LABEL.get(label.strip().lower())
        if kind is not None:
            yield user_id, target_id, kind
        elif not (line_no == 1 and row == _TIES_HEADER):
            raise ValueError(f"{path}: line {line_no}: unknown tie kind {label!r}")


def read_ties_csv(path: str | Path) -> TieTable:
    """Read ``user_id,target_id,kind`` rows into a ``TieTable``."""
    return tie_table(_csv_ties(path))


def write_ties_csv(ties: Iterable[Tie], path: str | Path) -> None:
    rows = sorted({(user_id, target_id, kind.value) for user_id, target_id, kind in ties})
    write_csv(path, _TIES_HEADER, rows)


def save_space(
    space: FeatureSpace, path: str | Path, ties_hash: str | None = None,
    kind_counts: dict[str, tuple[int, ...]] | None = None,
) -> None:
    """Persist the column manifest so coefficient reports stay interpretable,
    with the hash and the per-user kind counts of the ties file it was built
    from; :func:`load_space` returns them as the space's own fields."""
    write_json(path, {
        "format_version": SPACE_FORMAT_VERSION,
        "ties_hash": ties_hash,
        "kind_counts": kind_counts or {},
        "manifest_hash": space.manifest_hash,
        "columns": [[t, k.value] for t, k in space.columns],
        "support": list(space.support),
    })


def _is_counts(value) -> bool:
    return isinstance(value, list) and all(type(n) is int and n >= 0 for n in value)


def load_space(path: str | Path) -> FeatureSpace:
    keys = ("columns", "support", "manifest_hash", "kind_counts", "format_version")
    payload = read_json(path, keys, SPACE_FORMAT_VERSION)
    counts = payload["kind_counts"]
    if not isinstance(counts, dict) or not all(
        _is_counts(row) and len(row) == len(TieKind) for row in counts.values()
    ):
        raise ValueError(f"{path}: kind_counts must map users to {len(TieKind)} integer counts")
    if not _is_counts(payload["support"]):
        raise ValueError(f"{path}: support must be a list of integers >= 0")
    columns = payload["columns"]
    try:
        space = FeatureSpace(
            columns=tuple((t, _KIND_OF_LABEL[k]) for t, k in columns),
            support=tuple(payload["support"]),
            ties_hash=payload.get("ties_hash"),
            kind_counts={user: tuple(row) for user, row in counts.items()},
        )
    except KeyError as exc:
        raise ValueError(f"{path}: unknown tie kind {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    # Every kind label is known, so the list as read is the list the hash covers.
    digest = _manifest_hash(columns)
    if payload["manifest_hash"] != digest:
        raise ValueError(f"{path}: manifest hash does not match column list")
    space.manifest_hash = digest
    return space


def save_vectors(
    vectors: Sequence[FeatureVector], path: str | Path, space_hash: str
) -> None:
    """JSONL vectors; the first line binds them to a feature-space manifest."""
    write_jsonl(path, [{"format_version": 1, "space_hash": space_hash}] + [
        {"user_id": v.user_id, "columns": list(v.columns)} for v in vectors
    ])


def load_vectors(path: str | Path, space: FeatureSpace) -> list[FeatureVector]:
    """Load JSONL vectors bound to ``space``'s manifest hash
    (:class:`VersionMismatchError` otherwise); a line's ``user_id`` must be a
    string no earlier line holds, and its ``columns`` strictly ascending
    non-negative integers below ``space.n_columns``."""
    records = read_jsonl(path)
    line_no, meta = next(records, (None, None))
    if line_no is None:
        raise ValueError(f"{path}: empty vectors file")
    check_record(path, line_no, meta, ("format_version", "space_hash"), 1)
    if meta["space_hash"] != space.manifest_hash:
        raise VersionMismatchError(
            f"vectors {path} were encoded against a different feature space"
        )
    vectors = []
    seen: set[str] = set()
    for line_no, obj in records:
        check_record(path, line_no, obj, ("user_id", "columns"))
        user_id = obj["user_id"]
        if not isinstance(user_id, str):
            raise ValueError(f"{path}: line {line_no}: user_id must be a string, got {user_id!r}")
        if user_id in seen:
            raise ValueError(f"{path}: line {line_no}: repeated user_id {user_id!r}")
        seen.add(user_id)
        try:
            columns = tuple(obj["columns"])
        except TypeError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
        if not all(type(c) is int for c in columns) or any(
            a >= b for a, b in zip((-1,) + columns, columns)
        ):
            raise ValueError(
                f"{path}: line {line_no}: columns must be ascending non-negative integers"
            )
        if columns and columns[-1] >= space.n_columns:
            raise ValueError(
                f"{path}: line {line_no}: column {columns[-1]} is outside the "
                f"{space.n_columns}-column feature space"
            )
        vectors.append(FeatureVector(user_id=user_id, columns=columns))
    return vectors
