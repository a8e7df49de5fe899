"""Exact threshold matching of posts against a compiled reference corpus.

A post matches a reference quote when the exact Jaccard similarity of their
token shingle sets strictly exceeds the threshold (default 0.35). ``index``
compiles the corpus once (:func:`build_index`, :func:`save_index`): the quote
ids in string order, their authenticity, the sorted shingle vocabulary and a
quote x shingle CSR matrix. ``scan`` loads it and parses no corpus.

Per post, :func:`query_candidates` counts the shingles each quote shares with
the post over the inverted postings of that matrix (ScanCount; Li, Lu & Lu,
ICDE 2008). Every quote that shares a shingle is scored exactly; nothing is
pruned, so on Zipf-distributed text, where frequent words are shared, most
of the corpus is scored for every post.

Shingle sets are plain ``frozenset``s from :func:`textnorm.shingle`. The 14
refuting phrases are a :class:`textnorm.PhraseLexicon` (``DEFAULT_REFUTES``),
found as consecutive tokens of the whole normalized post before its quote
introduction is stripped with the prefix lexicon that the index was built with
and carries in its header (``DEFAULT_PREFIXES`` unless one was given).

The MinHash estimator (:func:`minhash_signature`, :func:`estimate_jaccard`)
stands alone: neither the index nor the scan uses it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from hashlib import blake2b
from pathlib import Path

import numpy as np

from .artifacts import VersionMismatchError
from .corpus import AuthenticityLevel, ReferenceCorpus
from .textnorm import (
    DEFAULT_PREFIXES,
    PhraseLexicon,
    normalize_arabic,
    shingle,
    strip_quote_prefix,
)

_MAX64 = np.uint64(0xFFFFFFFFFFFFFFFF)
# Non-empty signatures are clamped below the sentinel, so an empty-set
# signature agrees with no non-empty one in any component.
_SENTINEL = _MAX64
_CLAMP = np.uint64(0xFFFFFFFFFFFFFFFE)

INDEX_MAGIC = b"QMIDX003"
INDEX_FORMAT_VERSION = 3


class MatcherError(ValueError):
    """Invalid matcher parameters, signatures, or a malformed index file."""


@dataclass(frozen=True)
class MinHashParams:
    """Signature size and seed of the MinHash estimator."""

    k: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 16:
            raise MatcherError(f"k must be >= 16, got {self.k}")
        if self.seed < 0:
            raise MatcherError(f"seed must be non-negative, got {self.seed}")


@dataclass(eq=False)
class MinHashSignature:
    """k 64-bit minima; the empty set maps to the all-max sentinel."""

    values: np.ndarray
    seed: int

    @property
    def k(self) -> int:
        return len(self.values)

    def is_sentinel(self) -> bool:
        return bool(np.all(self.values == _SENTINEL))


@lru_cache(maxsize=1 << 20)
def _base_hash(token: str) -> int:
    """Stable 64-bit hash of a shingle string (seed-independent)."""
    return int.from_bytes(blake2b(token.encode("utf-8"), digest_size=8).digest(), "little")


@lru_cache(maxsize=64)
def _hash_coefficients(k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 1 << 62, size=k, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    b = rng.integers(0, 1 << 63, size=k, dtype=np.uint64)
    return a, b


def minhash_signature(shingles: frozenset[str], params: MinHashParams) -> MinHashSignature:
    """Deterministic signature of a shingle set under the seeded hash family."""
    if not shingles:
        return MinHashSignature(np.full(params.k, _SENTINEL, dtype=np.uint64), params.seed)
    a, b = _hash_coefficients(params.k, params.seed)
    x = np.fromiter((_base_hash(s) for s in shingles), dtype=np.uint64, count=len(shingles))
    # (k, m) affine hashes with uint64 wraparound; minimum over the set.
    values = (a[:, None] * x[None, :] + b[:, None]).min(axis=1)
    return MinHashSignature(np.minimum(values, _CLAMP), params.seed)


def estimate_jaccard(a: MinHashSignature, b: MinHashSignature) -> float:
    """Fraction of agreeing signature components; unbiased Jaccard estimate."""
    if a.k != b.k:
        raise MatcherError(f"signature length mismatch: {a.k} != {b.k}")
    if a.seed != b.seed:
        raise MatcherError(f"signature seed mismatch: {a.seed} != {b.seed}")
    return float(np.count_nonzero(a.values == b.values)) / a.k


def exact_jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    """|a ∩ b| / |a ∪ b|, with 0.0 when both sets are empty."""
    if not a and not b:
        return 0.0
    inter = len(a & b)
    union = len(a) + len(b) - inter
    return inter / union


# The 14 phrases Arabic speakers use to flag a quote as non-authentic.
# Stored raw; PhraseLexicon normalizes them on construction.
DEFAULT_REFUTE_PHRASES = (
    "حديث موضوع",
    "حديث مفبرك",
    "حديث مفترى",
    "حديث غير صحيح",
    "حديث مكذوب",
    "حديث كذب على رسول الله",
    "حديث لا يصح",
    "حديث لا أصل له",
    "الدرجة: لا يصح",
    "حديث ضعيف",
    "الدرجة: موضوع",
    "حديث ليس صحيح",
    "حديث لم يرد",
    "حديث مختلق",
)


DEFAULT_REFUTES = PhraseLexicon.from_phrases(DEFAULT_REFUTE_PHRASES)


def contains_refute_term(post_text: str, lexicon: PhraseLexicon = DEFAULT_REFUTES) -> bool:
    """True iff a refuting phrase occurs as consecutive tokens of the post."""
    return lexicon.occurs_in(normalize_arabic(post_text).split())


class MatchKind(Enum):
    CIRCULATION = "circulation"
    REFUTE = "refute"
    NON_FABRICATED_SHARE = "non_fabricated_share"


@dataclass(frozen=True)
class MatchResult:
    post_id: str
    quote_id: str
    similarity: float
    authenticity: AuthenticityLevel
    kind: MatchKind


@dataclass(eq=False)
class CompiledIndex:
    """A reference corpus compiled for exact matching; immutable after build.

    Rows are quotes in string order of their ids, so the first maximum over
    rows is at the lowest quote id. Row ``r``'s shingles are
    ``vocabulary[c]`` for ``c`` in ``columns[indptr[r]:indptr[r + 1]]``,
    ascending. ``corpus_hash``, ``prefixes`` and ``shingle_n`` record what
    the index was built from; a scan strips quote introductions with
    ``prefixes`` and shingles with ``shingle_n``.
    """

    quote_ids: tuple[str, ...]
    authenticity: tuple[AuthenticityLevel, ...]
    vocabulary: tuple[str, ...]
    indptr: np.ndarray  # (n_quotes + 1,) int64
    columns: np.ndarray  # (nnz,) int32
    shingle_n: int
    prefixes: PhraseLexicon
    corpus_hash: str | None = None

    def __len__(self) -> int:
        return len(self.quote_ids)

    @cached_property
    def sizes(self) -> np.ndarray:
        """Shingle count of each quote row."""
        return np.diff(self.indptr)

    @cached_property
    def column_of(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.vocabulary)}

    @cached_property
    def postings(self) -> tuple[np.ndarray, np.ndarray]:
        """Inverted CSR: the rows of shingle ``c`` are ``rows[ptr[c]:ptr[c + 1]]``, ascending."""
        rows = np.repeat(np.arange(len(self), dtype=np.int32), self.sizes)
        order = np.argsort(self.columns, kind="stable")
        ptr = np.zeros(len(self.vocabulary) + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.columns, minlength=len(self.vocabulary)), out=ptr[1:])
        return ptr, rows[order]

    def quote_shingles(self, row: int) -> frozenset[str]:
        """Shingle set of quote ``row``. Used by ``match_post`` only to keep
        ``exact_jaccard`` on the traced path."""
        cols = self.columns[self.indptr[row] : self.indptr[row + 1]].tolist()
        return frozenset(self.vocabulary[c] for c in cols)


def build_index(
    corpus: ReferenceCorpus,
    shingle_n: int = 1,
    *,
    corpus_hash: str | None = None,
    prefix_lexicon: PhraseLexicon = DEFAULT_PREFIXES,
) -> CompiledIndex:
    """Compile a corpus whose texts were prefix-stripped with ``prefix_lexicon``.

    Every order is a sort, never a set's or dict's iteration order, so the
    index is the same under any ``PYTHONHASHSEED``.
    """
    if len(corpus) == 0:
        raise MatcherError("cannot index an empty corpus")
    quotes = sorted(corpus.quotes, key=lambda q: q.id)
    sets = [shingle(q.normalized_text, shingle_n) for q in quotes]
    vocabulary = sorted(frozenset().union(*sets))
    column_of = {s: i for i, s in enumerate(vocabulary)}
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    indptr = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    cols = np.fromiter(
        (column_of[s] for ss in sets for s in ss), dtype=np.int64, count=int(indptr[-1])
    )
    # Sorting row * |V| + column sorts each row's columns and keeps rows in place.
    offset = np.repeat(np.arange(len(sets), dtype=np.int64) * len(vocabulary), sizes)
    columns = (np.sort(offset + cols) - offset).astype(np.int32)
    return CompiledIndex(
        quote_ids=tuple(q.id for q in quotes),
        authenticity=tuple(q.authenticity for q in quotes),
        vocabulary=tuple(vocabulary),
        indptr=indptr,
        columns=columns,
        shingle_n=shingle_n,
        prefixes=prefix_lexicon,
        corpus_hash=corpus_hash,
    )


def query_candidates(index: CompiledIndex, shingles: frozenset[str]) -> np.ndarray:
    """(row, intersection size) of every quote sharing a shingle with the post.

    An (n, 2) int64 array with rows ascending; shingles outside the corpus
    vocabulary share nothing and are skipped.
    """
    column_of = index.column_of
    cols = [column_of[s] for s in shingles if s in column_of]
    if not cols:
        return np.empty((0, 2), dtype=np.int64)
    ptr, rows = index.postings
    counts = np.bincount(np.concatenate([rows[ptr[c] : ptr[c + 1]] for c in cols]))
    hit = np.flatnonzero(counts)
    return np.column_stack((hit, counts[hit]))


def match_post(
    post_text: str,
    index: CompiledIndex,
    refute_lexicon: PhraseLexicon = DEFAULT_REFUTES,
    threshold: float = 0.35,
    *,
    post_id: str = "",
) -> MatchResult | None:
    """Match one post against the compiled corpus.

    Pipeline: normalize -> scan for refute terms (on the full normalized text,
    before any stripping) -> strip a quote introduction of the index's prefix
    lexicon -> shingle -> count shared shingles per quote -> keep the most
    similar quote if its Jaccard strictly exceeds the threshold. Ties break
    toward the lowest quote id.
    """
    if not 0.0 < threshold < 1.0:
        raise MatcherError(f"threshold must be in (0, 1), got {threshold}")
    normalized = normalize_arabic(post_text)
    refuted = refute_lexicon.occurs_in(normalized.split())
    stripped = strip_quote_prefix(normalized, index.prefixes)
    shingles = shingle(stripped, index.shingle_n)
    if not shingles:
        return None
    candidates = query_candidates(index, shingles)
    if not len(candidates):
        return None

    rows, inter = candidates[:, 0], candidates[:, 1]
    # |p| counts every post shingle, those outside the vocabulary too.
    sims = inter / (len(shingles) + index.sizes[rows] - inter)
    best = int(np.argmax(sims))
    if sims[best] <= threshold:
        return None

    row = int(rows[best])
    authenticity = index.authenticity[row]
    if authenticity is AuthenticityLevel.FABRICATED:
        kind = MatchKind.REFUTE if refuted else MatchKind.CIRCULATION
    else:
        kind = MatchKind.NON_FABRICATED_SHARE
    return MatchResult(
        post_id=post_id,
        quote_id=index.quote_ids[row],
        # Equal to sims[best] bit for bit (the same two integers divided); the
        # call stays only because the per-layer tracer times exact_jaccard.
        similarity=exact_jaccard(shingles, index.quote_shingles(row)),
        authenticity=authenticity,
        kind=kind,
    )


def save_index(index: CompiledIndex, path: str | Path) -> None:
    """Write magic, header length, JSON header, int64 ``indptr``, int32 ``columns``."""
    header = {
        "format_version": INDEX_FORMAT_VERSION,
        "corpus_hash": index.corpus_hash,
        "prefixes": [list(phrase) for phrase in index.prefixes.phrases],
        "shingle_n": index.shingle_n,
        "quote_ids": list(index.quote_ids),
        "authenticity": [a.value for a in index.authenticity],
        "vocabulary": list(index.vocabulary),
        "nnz": len(index.columns),
    }
    blob = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        fh.write(np.ascontiguousarray(index.indptr, dtype="<i8").tobytes())
        fh.write(np.ascontiguousarray(index.columns, dtype="<i4").tobytes())


def load_index(path: str | Path, *, corpus_hash: str | None = None) -> CompiledIndex:
    """Load a compiled index, checked against the corpus hash when one is given.

    Raises :class:`VersionMismatchError` for another format or magic, or when
    the corpus hash differs from the header's; :class:`MatcherError` for a
    truncated or malformed file, a malformed or empty prefix lexicon or a
    ``shingle_n`` that is not an integer >= 1 included.
    The loaded index carries the ``shingle_n`` and the prefix lexicon it was
    built with, so a scan uses both.
    """
    data = Path(path).read_bytes()
    magic = data[: len(INDEX_MAGIC)]
    if magic != INDEX_MAGIC:
        if len(data) < len(INDEX_MAGIC) and INDEX_MAGIC.startswith(data):
            raise MatcherError(f"{path}: truncated index file ({len(data)} bytes)")
        if magic[:5] == INDEX_MAGIC[:5] and magic[5:].isdigit():
            raise VersionMismatchError(
                f"{path}: format version {int(magic[5:])} index, expected "
                f"{INDEX_FORMAT_VERSION}; rebuild it with `quotematch index`"
            )
        raise VersionMismatchError(f"{path}: not a quotematch index file")
    offset = len(INDEX_MAGIC) + 4
    blob_len = int.from_bytes(data[len(INDEX_MAGIC) : offset], "little")
    try:
        header = json.loads(data[offset : offset + blob_len].decode("utf-8"))
        version = header["format_version"]
        if version != INDEX_FORMAT_VERSION:
            raise VersionMismatchError(
                f"{path}: index format version {version}, expected {INDEX_FORMAT_VERSION}"
            )
        n, nnz = len(header["quote_ids"]), header["nnz"]
        if not isinstance(nnz, int) or nnz < 0:
            raise ValueError(f"bad entry count {nnz!r}")
        vocabulary = tuple(header["vocabulary"])
        authenticity = tuple(AuthenticityLevel(a) for a in header["authenticity"])
        built_n, built_corpus = header["shingle_n"], header["corpus_hash"]
        if type(built_n) is not int or built_n < 1:
            raise ValueError(f"bad shingle size {built_n!r}")
        prefixes = PhraseLexicon.from_phrases(map(" ".join, header["prefixes"]))
        if [list(phrase) for phrase in prefixes.phrases] != header["prefixes"]:
            raise ValueError("prefixes are not a normalized lexicon")
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise MatcherError(f"{path}: truncated or malformed index header: {exc}") from None
    offset += blob_len
    expected = offset + 8 * (n + 1) + 4 * nnz
    if len(data) != expected:
        raise MatcherError(f"{path}: truncated index file: {len(data)} bytes, expected {expected}")
    indptr = np.frombuffer(data, dtype="<i8", count=n + 1, offset=offset).astype(np.int64)
    columns = np.frombuffer(data, dtype="<i4", count=nnz, offset=offset + 8 * (n + 1))
    columns = columns.astype(np.int32)
    if (
        len(authenticity) != n
        or indptr[0] != 0
        or indptr[-1] != nnz
        or np.any(np.diff(indptr) < 0)
        or (nnz and not 0 <= columns.min() <= columns.max() < len(vocabulary))
    ):
        raise MatcherError(f"{path}: malformed index: CSR arrays disagree with the header")
    # row * |V| + column rises strictly iff every row's columns do.
    keys = np.repeat(np.arange(n, dtype=np.int64) * len(vocabulary), np.diff(indptr)) + columns
    if np.any(np.diff(keys) <= 0):
        raise MatcherError(f"{path}: malformed index: a row's columns are not strictly ascending")

    if corpus_hash is not None and built_corpus != corpus_hash:
        raise VersionMismatchError(f"index {path} was built from a different corpus file")
    return CompiledIndex(
        quote_ids=tuple(header["quote_ids"]),
        authenticity=authenticity,
        vocabulary=vocabulary,
        indptr=indptr,
        columns=columns,
        shingle_n=built_n,
        prefixes=prefixes,
        corpus_hash=built_corpus,
    )
