import os
import re
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quotematch.textnorm import (
    DEFAULT_PREFIXES,
    DIACRITICS,
    LETTER_FOLD,
    PhraseLexicon,
    normalize_arabic,
    shingle,
    strip_quote_prefix,
)


def test_diacritics_removed():
    assert normalize_arabic("مُحَمَّدٌ") == "محمد"


def test_alef_and_ya_folding():
    assert normalize_arabic("إلى") == "الي"
    assert normalize_arabic("أَآٱ") == "ااا"
    assert normalize_arabic("مدرسة") == "مدرسه"
    assert normalize_arabic("مؤمن سائل") == "مومن سايل"


def test_empty_input():
    assert normalize_arabic("") == ""


def test_tatweel_removed():
    assert normalize_arabic("مـــرحبا") == "مرحبا"


def test_urls_and_mentions_dropped_hashtag_body_kept():
    assert normalize_arabic("@user شيء https://t.co/xyz") == "شيء"
    assert normalize_arabic("#يوم_الجمعة") == "يوم الجمعه"
    assert normalize_arabic("www.example.com/page نص") == "نص"


def test_punctuation_maps_to_space_and_collapses():
    assert normalize_arabic("قال: «نعم»، ثم  سكت!") == "قال نعم ثم سكت"
    assert normalize_arabic("كلمه 😀🔥 اخري") == "كلمه اخري"


def test_digits_and_latin_kept():
    assert normalize_arabic("Surah 36 يس") == "Surah 36 يس"


def test_zero_width_chars_dropped():
    assert normalize_arabic("كل​مه") == "كلمه"
    assert normalize_arabic("﻿نص") == "نص"


_MIXED_ALPHABET = (
    "ابتثجحخدذرزسشصضطظعغفقكلمنهويأإآةىؤئء"
    + "".join(sorted(DIACRITICS))
    + "abcXYZ019 .,!؟،#_@:/​😀🔥\t\n\"'«»-"
)


@given(st.text(alphabet=_MIXED_ALPHABET, max_size=120))
def test_normalize_idempotent(raw):
    once = normalize_arabic(raw)
    assert normalize_arabic(once) == once


@given(st.text(alphabet=_MIXED_ALPHABET, max_size=120))
def test_normalize_never_grows_and_is_clean(raw):
    out = normalize_arabic(raw)
    assert len(out) <= len(raw)
    assert not set(out) & DIACRITICS
    assert "  " not in out
    assert out == out.strip()


def _normalize_restated(raw):
    """The normalization rules one character at a time, as first written."""
    text = re.sub(r"(?:https?://|www\.)\S+", " ", raw, flags=re.IGNORECASE)
    text = re.sub(r"@[A-Za-z0-9_]+", " ", text)
    out = []
    for ch in text:
        if ch in DIACRITICS:
            continue
        ch = LETTER_FOLD.get(ch, ch)
        major = unicodedata.category(ch)[0]
        if major in ("P", "S", "Z"):
            out.append(" ")
        elif major == "C":
            if ch in "\t\n\r\x0b\x0c":
                out.append(" ")
        else:
            out.append(ch)
    return " ".join("".join(out).split())


_ASCII_WORD = st.text(alphabet="abcXYZ019_./-", max_size=8)
_NORMALIZER_PIECE = st.one_of(
    st.characters(min_codepoint=0x0600, max_codepoint=0x06FF),
    st.sampled_from(sorted(DIACRITICS) + sorted(LETTER_FOLD) + sorted(LETTER_FOLD.values())),
    st.integers(0xD800, 0xDFFF).map(chr),  # lone surrogates
    st.sampled_from("\x00\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x7f\x85\xa0\u200b\u200d\u2028"
                    "\u2029\u3000\ufeff"),
    st.characters(categories=("Zs", "Zl", "Zp", "Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po",
                              "Sm", "Sc", "Sk", "So")),
    st.sampled_from(["😀", "🔥", "👍🏽", "👨\u200d👩", "🇸🇦"]),
    st.builds("{}{}".format, st.sampled_from(["https://", "HTTP://", "www.", "WWW."]),
              _ASCII_WORD),
    st.builds("@{}".format, _ASCII_WORD),
)
# Pieces alternate with letters, so a dropped character and one that becomes
# a space give different outputs.
_NORMALIZER_INPUT = st.lists(
    st.tuples(_NORMALIZER_PIECE, st.sampled_from(["", "ب", "z9", " ", "قال"])), max_size=30
).map(lambda pairs: "".join(piece + letters for piece, letters in pairs))


@settings(max_examples=300)
@given(_NORMALIZER_INPUT)
def test_normalize_equals_restatement(raw):
    assert normalize_arabic(raw) == _normalize_restated(raw)


# Every BMP code point (surrogates included) and a few astral ones, each
# between two letters, in an order shuffled by the seed; then URL and mention
# runs around them.
_RESTATEMENT_RUN = """
import random, sys
sys.path.insert(0, sys.argv[1])
from test_textnorm import _normalize_restated
from quotematch.textnorm import normalize_arabic
chars = [chr(c) for c in range(0x10000)] + ["\\U0001F600", "\\U000E0001", "\\U0010FFFF"]
random.Random(int(sys.argv[2])).shuffle(chars)
texts = ["ب" + ch + "x" for ch in chars]
texts += ["@user_1 https://t.co/" + "".join(chars[i : i + 5]) + " www.a.b/c" for i in range(500)]
for text in texts:
    assert normalize_arabic(text) == _normalize_restated(text), repr(text)
"""


@pytest.mark.parametrize("hash_seed", ["0", "7"])
def test_normalize_equals_restatement_in_fresh_process(hash_seed):
    # A new process fills the table from empty, in another order per seed.
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run(
        [sys.executable, "-c", _RESTATEMENT_RUN, str(Path(__file__).parent), hash_seed],
        env=env, check=True, timeout=120,
    )


def test_fold_table_is_pinned():
    # The comparison space depends on these exact mappings; changing them
    # silently would invalidate every stored normalized corpus.
    assert LETTER_FOLD["أ"] == "ا"
    assert LETTER_FOLD["ة"] == "ه"
    assert LETTER_FOLD["ى"] == "ي"
    assert "ـ" in DIACRITICS and "ٰ" in DIACRITICS
    assert all(chr(c) in DIACRITICS for c in range(0x064B, 0x0653))


def test_strip_prefix_default_lexicon():
    text = normalize_arabic("قال رسول الله صلى الله عليه وسلم من كذب علي متعمدا")
    assert strip_quote_prefix(text) == "من كذب علي متعمدا"


def test_strip_prefix_longest_match_wins():
    # "قال رسول الله" alone is also a pattern; the long form must win.
    text = normalize_arabic("قال رسول الله صلى الله عليه وسلم نص")
    assert strip_quote_prefix(text) == "نص"
    short = normalize_arabic("قال رسول الله نص")
    assert strip_quote_prefix(short) == "نص"


def test_strip_prefix_no_match_unchanged():
    text = normalize_arabic("نص لا يبدا بمقدمه")
    assert strip_quote_prefix(text) == text


def test_strip_prefix_whole_text_is_prefix():
    text = normalize_arabic("قال رسول الله")
    assert strip_quote_prefix(text) == ""


def test_strip_prefix_after_leading_quote_mark():
    text = normalize_arabic('"قال النبي صلى الله عليه وسلم كلام"')
    assert strip_quote_prefix(text) == "كلام"


def test_strip_prefix_mid_text_not_removed():
    text = normalize_arabic("اولا قال رسول الله شيء")
    assert strip_quote_prefix(text) == text


def test_default_lexicon_patterns_are_normalized():
    for pattern in DEFAULT_PREFIXES.phrases:
        joined = " ".join(pattern)
        assert normalize_arabic(joined) == joined


@given(st.lists(st.sampled_from("abcdefgh"), min_size=0, max_size=12))
def test_strip_prefix_idempotent_prefix_free_lexicon(tokens):
    lex = PhraseLexicon.from_phrases(["qq ww", "zz"])
    text = " ".join(tokens)
    once = strip_quote_prefix(text, lex)
    assert strip_quote_prefix(once, lex) == once


NESTED = ("a", "a b", "a b c", "b c")


@given(st.lists(st.sampled_from("abcd"), max_size=8))
def test_phrase_lexicon_matching_equals_restatement(tokens):
    lex = PhraseLexicon.from_phrases(NESTED)
    phrases = [tuple(p.split()) for p in NESTED]
    longest_first = sorted(phrases, key=len, reverse=True)
    leading = next((len(p) for p in longest_first if tuple(tokens[: len(p)]) == p), 0)
    n = len(tokens)
    windows = {tuple(tokens[i:j]) for i in range(n) for j in range(i + 1, n + 1)}
    assert lex.leading(tokens) == leading
    assert lex.occurs_in(tokens) == any(p in windows for p in phrases)
    assert strip_quote_prefix(" ".join(tokens), lex) == " ".join(tokens[leading:])


def test_prefix_lexicon_file_roundtrip(tmp_path):
    path = tmp_path / "prefixes.txt"
    path.write_text("قال فلان\n\nعن فلان قال\n", encoding="utf-8")
    lex = PhraseLexicon.from_file(path)
    assert len(lex) == 2
    assert strip_quote_prefix(normalize_arabic("قال فلان شيء"), lex) == "شيء"


def test_prefix_lexicon_rejects_empty():
    with pytest.raises(ValueError):
        PhraseLexicon.from_phrases([])


def test_shingle_unigrams():
    assert shingle("a b c") == frozenset({"a", "b", "c"})


@given(st.permutations(["aa", "bb", "cc", "dd"]))
def test_unigram_shingles_order_insensitive(tokens):
    assert shingle(" ".join(tokens)) == shingle("aa bb cc dd")
