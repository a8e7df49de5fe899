"""Reference quote corpora: loading, merging, filtering, and dedup bookkeeping.

Corpus files are UTF-8 TSV with header ``id<TAB>authenticity<TAB>source<TAB>text``,
one quote per line. A leading BOM is tolerated and stripped. Exclusion lists
are plain text, one quote id per line, read by ``artifacts.read_lines``. Load
errors name the file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable

from .artifacts import read_lines
from .textnorm import DEFAULT_PREFIXES, PhraseLexicon, normalize_arabic, strip_quote_prefix

TSV_HEADER = "id\tauthenticity\tsource\ttext"
# ``str.splitlines``, which reads a corpus file, ends a row at each of these.
_LINE_BREAKS = "\n\r\x0b\x0c\u2028\u2029\x1c\x1d\x1e\x85"
_HAS_LINE_BREAK = re.compile(f"[{_LINE_BREAKS}]")
# normalize_arabic reads the first six as spaces and drops the rest.
_TEXT_BREAKS = str.maketrans(_LINE_BREAKS[:6], " " * 6, _LINE_BREAKS[6:])


class CorpusError(ValueError):
    """Base for corpus file and invariant problems."""


class CorpusParseError(CorpusError):
    """Malformed corpus file content."""


class CorpusValidationError(CorpusError):
    """Row content that parses but violates a corpus invariant."""


class AuthenticityLevel(Enum):
    AUTHENTIC = "authentic"
    GOOD = "good"
    WEAK = "weak"
    FABRICATED = "fabricated"

    @classmethod
    def parse(cls, label: str) -> "AuthenticityLevel":
        try:
            return cls(label.strip().lower())
        except ValueError:
            raise CorpusValidationError(f"unknown authenticity label: {label!r}") from None


@dataclass(frozen=True)
class ReferenceQuote:
    id: str
    raw_text: str
    normalized_text: str
    authenticity: AuthenticityLevel
    source: str


@dataclass
class ReferenceCorpus:
    """Immutable-by-convention collection of deduplicated reference quotes."""

    quotes: list[ReferenceQuote]

    def __post_init__(self) -> None:
        ids: set[str] = set()
        seen_texts: set[str] = set()
        for q in self.quotes:
            if q.id in ids:
                raise CorpusValidationError(f"duplicate quote id: {q.id!r}")
            if q.normalized_text in seen_texts:
                raise CorpusValidationError(
                    f"duplicate normalized text for quote id {q.id!r}"
                )
            if not q.normalized_text:
                raise CorpusValidationError(f"quote {q.id!r} normalizes to empty text")
            ids.add(q.id)
            seen_texts.add(q.normalized_text)

    def __len__(self) -> int:
        return len(self.quotes)

    def ids(self) -> set[str]:
        return {q.id for q in self.quotes}


@dataclass(frozen=True)
class LoadReport:
    rows: int
    collapsed: int


@dataclass(frozen=True)
class MergeReport:
    collisions: int
    renamespaced_ids: tuple[str, ...]


@dataclass(frozen=True)
class FilterReport:
    removed: int
    unknown_ids: tuple[str, ...]


def build_corpus(
    rows: Iterable[tuple[str, str, str, str]],
    prefix_lexicon: PhraseLexicon = DEFAULT_PREFIXES,
    line_offset: int = 0,
) -> tuple[ReferenceCorpus, LoadReport]:
    """Build a corpus from (id, authenticity, source, text) rows.

    Texts are normalized and quote-introduction prefixes stripped; rows whose
    texts collapse to the same normal form are deduplicated keeping the
    first-seen id. Returns the corpus plus a report of collapsed row count.
    """
    quotes: list[ReferenceQuote] = []
    by_text: dict[str, str] = {}
    ids: set[str] = set()
    rows_read = 0
    collapsed = 0
    for i, (qid, label, source, text) in enumerate(rows, start=1):
        line_no = line_offset + i
        rows_read += 1
        if not qid:
            raise CorpusParseError(f"line {line_no}: empty quote id")
        if not text.strip():
            raise CorpusParseError(f"line {line_no}: empty quote text")
        try:
            level = AuthenticityLevel.parse(label)
        except CorpusValidationError as exc:
            raise CorpusValidationError(f"line {line_no}: {exc}") from None
        normalized = strip_quote_prefix(normalize_arabic(text), prefix_lexicon)
        if not normalized:
            raise CorpusValidationError(
                f"line {line_no}: quote {qid!r} normalizes to empty text"
            )
        if normalized in by_text:
            collapsed += 1
            continue
        if qid in ids:
            raise CorpusValidationError(f"line {line_no}: duplicate quote id {qid!r}")
        quotes.append(ReferenceQuote(qid, text, normalized, level, source))
        by_text[normalized] = qid
        ids.add(qid)
    return ReferenceCorpus(quotes), LoadReport(rows=rows_read, collapsed=collapsed)


def _parse_tsv(content: str) -> Iterable[tuple[str, str, str, str]]:
    lines = content.splitlines()
    if not lines:
        return
    if lines[0] != TSV_HEADER:
        raise CorpusParseError(f"line 1: expected header {TSV_HEADER!r}")
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t", 3)
        if len(parts) != 4:
            raise CorpusParseError(
                f"line {line_no}: expected 4 tab-separated columns, got {len(parts)}"
            )
        yield tuple(parts)  # type: ignore[misc]


def load_corpus(
    path: str | Path, prefix_lexicon: PhraseLexicon = DEFAULT_PREFIXES
) -> tuple[ReferenceCorpus, LoadReport]:
    """Load a TSV corpus file. An empty file yields an empty corpus; a
    malformed one raises ``CorpusError("<path>: ...")``."""
    try:
        rows = list(_parse_tsv(Path(path).read_text(encoding="utf-8-sig")))
        return build_corpus(rows, prefix_lexicon, line_offset=1)
    except UnicodeDecodeError as exc:
        raise CorpusParseError(f"{path}: {exc}") from None
    except CorpusError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def save_corpus(corpus: ReferenceCorpus, path: str | Path) -> None:
    """Write a corpus back to TSV. Line breaks inside texts become spaces, or
    go where normalization drops them; an id or source holding a tab or a line
    break raises ``CorpusValidationError``."""
    lines = [TSV_HEADER]
    for q in corpus.quotes:
        if "\t" in q.id + q.source or _HAS_LINE_BREAK.search(q.id + q.source):
            raise CorpusValidationError(
                f"quote {q.id!r}: a TSV id or source cannot hold a tab or a line break"
            )
        text = q.raw_text
        if _HAS_LINE_BREAK.search(text):
            text = text.translate(_TEXT_BREAKS)
        lines.append(f"{q.id}\t{q.authenticity.value}\t{q.source}\t{text}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def merge_corpora(
    a: ReferenceCorpus, b: ReferenceCorpus
) -> tuple[ReferenceCorpus, MergeReport]:
    """Union of two corpora by normalized text; quotes from ``a`` win collisions.

    A quote id used by both corpora for different texts is re-namespaced with
    the second quote's source tag rather than treated as an error.
    """
    merged = list(a.quotes)
    ids = {q.id for q in a.quotes}
    texts = {q.normalized_text for q in a.quotes}
    collisions = 0
    renamespaced: list[str] = []
    for q in b.quotes:
        if q.normalized_text in texts:
            collisions += 1
            continue
        if q.id in ids:
            new_id = f"{q.source}:{q.id}"
            if new_id in ids:
                raise CorpusValidationError(
                    f"cannot re-namespace colliding quote id {q.id!r}: "
                    f"{new_id!r} is also taken"
                )
            renamespaced.append(q.id)
            q = replace(q, id=new_id)
        merged.append(q)
        ids.add(q.id)
        texts.add(q.normalized_text)
    report = MergeReport(collisions=collisions, renamespaced_ids=tuple(renamespaced))
    return ReferenceCorpus(merged), report


def filter_corpus(
    corpus: ReferenceCorpus, exclude_ids: Iterable[str]
) -> tuple[ReferenceCorpus, FilterReport]:
    """Drop quotes whose id is in ``exclude_ids``; unknown ids are reported."""
    exclude = set(exclude_ids)
    known = corpus.ids()
    unknown = tuple(sorted(exclude - known))
    kept = [q for q in corpus.quotes if q.id not in exclude]
    report = FilterReport(removed=len(corpus) - len(kept), unknown_ids=unknown)
    return ReferenceCorpus(kept), report


def load_exclusion_list(path: str | Path) -> set[str]:
    """Read an exclusion list: one quote id per line, blanks skipped."""
    return set(read_lines(path))
