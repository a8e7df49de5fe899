"""Arabic-aware text normalization, phrase lexicons, quote-introduction
stripping, and shingling.

Every similarity operation downstream compares texts in the normal form
produced by :func:`normalize_arabic`. The rules are deterministic, idempotent,
and never grow the input: each one either deletes a character or maps it to a
single replacement, so ``len(normalize_arabic(s)) <= len(s)`` always holds.
They are implemented once, as the ``str.translate`` table ``_NormalTable``,
which applies them to each code point on its first lookup and remembers the
result, so normalizing is one C-level pass over the text.

A :class:`PhraseLexicon` holds normalized phrases and is the one phrase
matcher: :meth:`~PhraseLexicon.leading` finds the quote introduction that
:func:`strip_quote_prefix` removes (``DEFAULT_PREFIXES``), and
:meth:`~PhraseLexicon.occurs_in` finds the refuting phrases the matcher looks
for (``matcher.DEFAULT_REFUTES``). A shingle set is a plain ``frozenset`` of
token n-grams.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence, TypeAlias

from .artifacts import read_lines

# A normalized string: no diacritics/tatweel, folded letter variants, no
# punctuation or symbols, single spaces, no leading/trailing whitespace.
NormalizedText: TypeAlias = str

# Arabic combining marks removed outright: tashkil and related marks
# (U+064B..U+065F), the superscript/dagger alef (U+0670), and tatweel (U+0640).
DIACRITICS = frozenset(chr(c) for c in range(0x064B, 0x0660)) | {
    "ٰ",  # ARABIC LETTER SUPERSCRIPT ALEF
    "ـ",  # ARABIC TATWEEL
}

# Letters typed interchangeably are folded to one representative form.
LETTER_FOLD = {
    "آ": "ا",  # آ alef madda        -> ا
    "أ": "ا",  # أ alef hamza above  -> ا
    "إ": "ا",  # إ alef hamza below  -> ا
    "ٱ": "ا",  # ٱ alef wasla        -> ا
    "ة": "ه",  # ة ta marbuta        -> ه
    "ى": "ي",  # ى alef maksura      -> ي
    "ؤ": "و",  # ؤ waw hamza         -> و
    "ئ": "ي",  # ئ ya hamza          -> ي
}

# URLs and @-mentions are noise and dropped wholesale; hashtag bodies are kept
# because the '#' and '_' fall under the punctuation-to-space rule below.
_URL = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION = re.compile(r"@[A-Za-z0-9_]+")

_KEPT_CONTROLS = "\t\n\r\x0b\x0c"  # become spaces; other C-category chars are dropped


class _NormalTable(dict):
    """``str.translate`` table of the per-character rules: each code point's
    replacement is worked out on its first lookup and kept."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        if ch in DIACRITICS:
            out = ""
        else:
            ch = LETTER_FOLD.get(ch, ch)
            major = unicodedata.category(ch)[0]
            if major in ("P", "S", "Z"):
                # punctuation (incl. '#', '_'), symbols (incl. emoji), separators
                out = " "
            elif major == "C":
                # kept controls become spaces; zero-width joiners, BOM,
                # surrogates, etc. are dropped
                out = " " if ch in _KEPT_CONTROLS else ""
            else:
                out = ch
        self[code] = out
        return out


_NORMAL_TABLE = _NormalTable()


def normalize_arabic(raw: str) -> NormalizedText:
    """Normalize arbitrary Unicode text into the comparison form.

    Total function: any Python string is accepted, including lone surrogates
    from lenient decoding (they are dropped with the other control characters).
    """
    if not raw:
        return ""
    text = _MENTION.sub(" ", _URL.sub(" ", raw))
    return " ".join(text.translate(_NORMAL_TABLE).split())


# Quote-introduction phrases commonly prepended to a canonical quote. They are
# interchangeable and carry no content, so matching strips them. Stored raw;
# PhraseLexicon normalizes them on construction.
DEFAULT_PREFIX_PATTERNS = (
    "قال رسول الله صلى الله عليه وآله وسلم",
    "قال رسول الله صلى الله عليه وسلم",
    "قال النبي صلى الله عليه وسلم",
    "قال محمد صلى الله عليه وسلم",
    "قال محمد عليه الصلاة والسلام",
    "قال عليه الصلاة والسلام",
    "قال رسول الله",
    "قال النبي",
    "سمعت رسول الله صلى الله عليه وسلم يقول",
    "سمعت النبي صلى الله عليه وسلم يقول",
    "سمعت رسول الله يقول",
    "سمعت النبي يقول",
    "عن النبي صلى الله عليه وسلم قال",
    "عن رسول الله صلى الله عليه وسلم قال",
)


@dataclass(frozen=True)
class PhraseLexicon:
    """Phrases as normalized token tuples, longest first, then in string order,
    so the most specific quote introduction is stripped first. Matching tries
    only the phrases that start with the token at hand."""

    phrases: tuple[tuple[str, ...], ...]

    @classmethod
    def from_phrases(cls, phrases: Iterable[str]) -> "PhraseLexicon":
        toks = {tuple(normalize_arabic(p).split()) for p in phrases}
        toks.discard(())
        if not toks:
            raise ValueError("lexicon is empty")
        return cls(tuple(sorted(toks, key=lambda t: (-len(t), t))))

    @classmethod
    def from_file(cls, path: str | Path) -> "PhraseLexicon":
        """One phrase per line; an empty lexicon raises ``ValueError`` naming the file."""
        lines = read_lines(path)
        try:
            return cls.from_phrases(lines)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def __len__(self) -> int:
        return len(self.phrases)

    @cached_property
    def _by_first(self) -> dict[str, list[tuple[str, ...]]]:
        """The phrases grouped by first token, each group in ``phrases`` order."""
        groups: dict[str, list[tuple[str, ...]]] = {}
        for phrase in self.phrases:
            groups.setdefault(phrase[0], []).append(phrase)
        return groups

    def leading(self, tokens: Sequence[str]) -> int:
        """Length of the longest phrase that ``tokens`` start with; 0 if none."""
        if not tokens:
            return 0
        for phrase in self._by_first.get(tokens[0], ()):
            if tuple(tokens[: len(phrase)]) == phrase:
                return len(phrase)
        return 0

    def occurs_in(self, tokens: Sequence[str]) -> bool:
        """True iff some phrase occurs as consecutive tokens."""
        by_first = self._by_first
        for i, token in enumerate(tokens):
            for phrase in by_first.get(token, ()):
                if tuple(tokens[i : i + len(phrase)]) == phrase:
                    return True
        return False


DEFAULT_PREFIXES = PhraseLexicon.from_phrases(DEFAULT_PREFIX_PATTERNS)


def strip_quote_prefix(
    text: NormalizedText, lexicon: PhraseLexicon = DEFAULT_PREFIXES
) -> NormalizedText:
    """Remove one leading quote-introduction phrase, longest match first.

    Operates on normalized text, where quote marks have already been folded to
    whitespace, so a pattern right after an opening quote mark still sits at
    the start of the token sequence. Non-matching text is returned unchanged.
    """
    tokens = text.split()
    k = lexicon.leading(tokens)
    return " ".join(tokens[k:]) if k else text


def shingle(text: NormalizedText, n: int = 1) -> frozenset[str]:
    """All consecutive n-token windows of a normalized string, as a set.

    For n=1 this is the token set. Texts with fewer than n tokens yield the
    empty set.
    """
    if n < 1:
        raise ValueError(f"shingle size must be >= 1, got {n}")
    tokens = text.split()
    if n == 1:
        return frozenset(tokens)
    return frozenset(" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
