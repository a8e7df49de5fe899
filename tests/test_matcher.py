import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quotematch.artifacts import VersionMismatchError
from quotematch.corpus import AuthenticityLevel, build_corpus
from quotematch.matcher import (
    DEFAULT_REFUTE_PHRASES,
    DEFAULT_REFUTES,
    INDEX_MAGIC,
    MatcherError,
    MatchKind,
    MinHashParams,
    build_index,
    contains_refute_term,
    estimate_jaccard,
    exact_jaccard,
    load_index,
    match_post,
    minhash_signature,
    query_candidates,
    save_index,
)
from quotematch.textnorm import PhraseLexicon, shingle

PARAMS = MinHashParams(seed=123)


def _sset(*tokens):
    return frozenset(tokens)


def _corpus(rows):
    return build_corpus(rows)[0]


FIXTURE_ROWS = [
    ("q01", "fabricated", "t", "alpha beta gamma delta epsilon zeta eta theta"),
    ("q02", "authentic", "t", "one two three four five six seven eight nine"),
    ("q03", "fabricated", "t", "red green blue yellow purple orange cyan magenta"),
]


def test_params_validation():
    with pytest.raises(MatcherError):
        MinHashParams(k=8)
    with pytest.raises(MatcherError):
        MinHashParams(seed=-1)


def test_signature_deterministic():
    s = _sset("a", "b", "c")
    sig1 = minhash_signature(s, PARAMS)
    sig2 = minhash_signature(s, PARAMS)
    assert np.array_equal(sig1.values, sig2.values)


def test_signature_insertion_order_independent():
    a = shingle("aa bb cc dd")
    b = shingle("dd cc bb aa")
    assert np.array_equal(minhash_signature(a, PARAMS).values, minhash_signature(b, PARAMS).values)


def test_empty_set_sentinel():
    sig = minhash_signature(_sset(), PARAMS)
    assert sig.is_sentinel()
    nonempty = minhash_signature(_sset("a"), PARAMS)
    # Non-empty signatures are clamped below the sentinel in every component,
    # so the empty set's signature agrees with no non-empty one anywhere.
    assert not np.any(nonempty.values == np.uint64(0xFFFFFFFFFFFFFFFF))


def test_estimate_on_known_pair_over_many_seeds():
    # A={a,b,c,d}, B={b,c,d,e}: exact Jaccard 3/5 by hand. With k=256 the
    # estimate stays within 0.15 across 1000 fixed seeds.
    a = _sset("a", "b", "c", "d")
    b = _sset("b", "c", "d", "e")
    worst = 0.0
    for seed in range(1000):
        p = MinHashParams(seed=seed)
        est = estimate_jaccard(minhash_signature(a, p), minhash_signature(b, p))
        worst = max(worst, abs(est - 0.6))
    assert worst <= 0.15


def test_estimate_identical_signatures():
    sig = minhash_signature(_sset("a", "b"), PARAMS)
    assert estimate_jaccard(sig, sig) == 1.0


def test_estimate_disjoint_sets_near_zero():
    rng = np.random.default_rng(5)
    a = _sset(*(f"a{i}" for i in range(200)))
    b = _sset(*(f"b{i}" for i in range(200)))
    est = estimate_jaccard(minhash_signature(a, PARAMS), minhash_signature(b, PARAMS))
    assert est <= 0.1


def test_estimate_mismatched_params_error():
    a = minhash_signature(_sset("a"), MinHashParams(k=256))
    b = minhash_signature(_sset("a"), MinHashParams(k=64))
    with pytest.raises(MatcherError):
        estimate_jaccard(a, b)
    c = minhash_signature(_sset("a"), MinHashParams(seed=1))
    d = minhash_signature(_sset("a"), MinHashParams(seed=2))
    with pytest.raises(MatcherError):
        estimate_jaccard(c, d)


def test_exact_jaccard_values():
    assert exact_jaccard(_sset("a", "b", "c"), _sset("a", "b", "c")) == 1.0
    assert exact_jaccard(_sset("a", "b"), _sset("c", "d")) == 0.0
    assert exact_jaccard(_sset("a", "b", "c", "d"), _sset("b", "c", "d", "e")) == 0.6
    assert exact_jaccard(_sset(), _sset()) == 0.0


@given(
    st.sets(st.sampled_from("abcdefghij"), max_size=10),
    st.sets(st.sampled_from("abcdefghij"), max_size=10),
)
def test_exact_jaccard_symmetric_in_range(xs, ys):
    a, b = frozenset(xs), frozenset(ys)
    sim = exact_jaccard(a, b)
    assert 0.0 <= sim <= 1.0
    assert sim == exact_jaccard(b, a)


def test_build_index_single_quote():
    corpus = _corpus(FIXTURE_ROWS[:1])
    ix = build_index(corpus)
    assert len(ix) == 1
    assert ix.vocabulary == tuple(sorted(corpus.quotes[0].normalized_text.split()))
    assert ix.columns.tolist() == list(range(8)) and ix.indptr.tolist() == [0, 8]
    candidates = query_candidates(ix, shingle(corpus.quotes[0].normalized_text))
    assert candidates.tolist() == [[0, 8]]


def test_build_index_empty_corpus_error():
    from quotematch.corpus import ReferenceCorpus

    with pytest.raises(MatcherError):
        build_index(ReferenceCorpus([]))


def test_query_disjoint_vocabulary_empty():
    corpus = _corpus(FIXTURE_ROWS)
    ix = build_index(corpus)
    assert query_candidates(ix, _sset("zz1", "zz2", "zz3")).shape == (0, 2)


def test_query_empty_shingles_empty():
    corpus = _corpus(FIXTURE_ROWS)
    ix = build_index(corpus)
    assert query_candidates(ix, _sset()).shape == (0, 2)


def test_match_verbatim_fabricated_is_circulation():
    corpus = _corpus(FIXTURE_ROWS)
    ix = build_index(corpus)
    r = match_post(FIXTURE_ROWS[0][3], ix, post_id="p")
    assert r is not None
    assert r.quote_id == "q01" and r.similarity == 1.0
    assert r.kind is MatchKind.CIRCULATION
    assert r.authenticity is AuthenticityLevel.FABRICATED


def test_match_refute_term_overrides_circulation():
    corpus = _corpus(FIXTURE_ROWS)
    ix = build_index(corpus)
    r = match_post(FIXTURE_ROWS[0][3] + " حديث موضوع", ix)
    assert r is not None and r.kind is MatchKind.REFUTE


def test_match_non_fabricated_share_even_with_term():
    corpus = _corpus(FIXTURE_ROWS)
    ix = build_index(corpus)
    r = match_post(FIXTURE_ROWS[1][3] + " حديث موضوع", ix)
    assert r is not None and r.kind is MatchKind.NON_FABRICATED_SHARE


def test_match_partial_overlap_just_above_threshold():
    # Post shares 4 of 10 quote tokens and nothing else: J = 4/10 = 0.40.
    corpus = _corpus([("q", "fabricated", "t", "t1 t2 t3 t4 t5 t6 t7 t8 t9 t10")])
    ix = build_index(corpus)
    post = "t1 t2 t3 t4"
    qset = set("t1 t2 t3 t4 t5 t6 t7 t8 t9 t10".split())
    pset = set(post.split())
    assert len(pset & qset) / len(pset | qset) == 0.40  # brute-force check
    r = match_post(post, ix)
    assert r is not None and r.kind is MatchKind.CIRCULATION
    assert abs(r.similarity - 0.40) < 1e-12


def test_match_exactly_at_threshold_is_rejected():
    # J = 7/20 = 0.35 must NOT match: the rule is strictly greater than.
    tokens = [f"t{i}" for i in range(20)]
    corpus = _corpus([("q", "fabricated", "t", " ".join(tokens))])
    ix = build_index(corpus)
    assert match_post(" ".join(tokens[:7]), ix) is None


def test_match_tie_breaks_to_lowest_quote_id():
    corpus = _corpus([
        ("qa", "fabricated", "t", "shared uniqueA"),
        ("qb", "fabricated", "t", "shared uniqueB"),
    ])
    ix = build_index(corpus)
    # J = 1/2 against both quotes.
    r = match_post("shared", ix)
    assert r is not None and r.quote_id == "qa"


def test_match_threshold_validation():
    corpus = _corpus(FIXTURE_ROWS)
    ix = build_index(corpus)
    with pytest.raises(MatcherError):
        match_post("x", ix, threshold=0.0)


def test_refute_lexicon_defaults():
    assert len(DEFAULT_REFUTES) == 14
    assert contains_refute_term("هذا حديث موضوع لا تنشروه")
    assert not contains_refute_term("هذا حديث صحيح")
    assert not contains_refute_term("")


def test_refute_term_diacritized_variant_detected():
    assert contains_refute_term("حَدِيثٌ مَوْضُوعٌ")


def test_refute_term_requires_contiguous_tokens():
    # Both words present but separated: not a phrase occurrence.
    assert not contains_refute_term("حديث جديد موضوع قديم")


def test_refute_term_with_degree_colon():
    assert contains_refute_term("الدرجة: لا يصح")


def test_all_default_phrases_detected():
    for phrase in DEFAULT_REFUTE_PHRASES:
        assert contains_refute_term(f"كلام قبل {phrase} كلام بعد")


def test_refute_lexicon_file(tmp_path):
    path = tmp_path / "refutes.txt"
    path.write_text("خبر ملفق\n", encoding="utf-8")
    lex = PhraseLexicon.from_file(path)
    assert contains_refute_term("هذا خبر ملفق", lex)
    assert not contains_refute_term("هذا حديث موضوع", lex)


@given(st.integers(0, 2**32 - 1))
def test_refute_dominance_never_circulation(seed):
    rng = np.random.default_rng(seed)
    corpus = _corpus(FIXTURE_ROWS)
    ix = build_index(corpus)
    base = FIXTURE_ROWS[0][3].split()
    take = rng.integers(1, len(base) + 1)
    words = list(rng.choice(base, size=take, replace=False))
    phrase = DEFAULT_REFUTE_PHRASES[int(rng.integers(0, len(DEFAULT_REFUTE_PHRASES)))]
    r = match_post(" ".join(words) + " " + phrase, ix)
    assert r is None or r.kind is not MatchKind.CIRCULATION


def _saved(tmp_path, corpus=None, **kwargs):
    ix = build_index(corpus or _corpus(FIXTURE_ROWS), **kwargs)
    path = tmp_path / "index.bin"
    save_index(ix, path)
    return ix, path


def test_index_save_load_roundtrip(tmp_path):
    ix, path = _saved(tmp_path, corpus_hash="deadbeef")
    loaded = load_index(path, corpus_hash="deadbeef")
    assert loaded.quote_ids == ix.quote_ids == ("q01", "q02", "q03")
    assert loaded.authenticity == ix.authenticity
    assert loaded.vocabulary == ix.vocabulary
    assert loaded.corpus_hash == "deadbeef"
    assert np.array_equal(loaded.indptr, ix.indptr)
    assert np.array_equal(loaded.columns, ix.columns)
    query = shingle(_corpus(FIXTURE_ROWS).quotes[2].normalized_text + " zz")
    assert np.array_equal(query_candidates(loaded, query), query_candidates(ix, query))


def test_index_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOTANIDX" + b"\x00" * 16)
    with pytest.raises(VersionMismatchError, match="bogus.bin"):
        load_index(path)


def test_index_load_rejects_version_1(tmp_path):
    path = tmp_path / "v1.bin"
    path.write_bytes(b"QMIDX001" + b"\x00" * 16)
    with pytest.raises(VersionMismatchError, match=r"v1\.bin: format version 1"):
        load_index(path)


def test_index_load_rejects_truncation(tmp_path):
    _, path = _saved(tmp_path)
    data = path.read_bytes()
    for size in (0, 3, len(INDEX_MAGIC) + 2, len(INDEX_MAGIC) + 40, len(data) - 1):
        path.write_bytes(data[:size])
        with pytest.raises(MatcherError, match=r"index\.bin: truncated"):
            load_index(path)


def test_index_load_rejects_wrong_corpus(tmp_path):
    _, path = _saved(tmp_path, corpus_hash="deadbeef")
    with pytest.raises(VersionMismatchError, match="different corpus"):
        load_index(path, corpus_hash="other")


def test_index_load_rejects_version_2(tmp_path):
    _, path = _saved(tmp_path)
    path.write_bytes(b"QMIDX002" + path.read_bytes()[len(INDEX_MAGIC) :])
    with pytest.raises(VersionMismatchError, match=r"index\.bin: format version 2 index, expected"):
        load_index(path)


@pytest.mark.parametrize(
    "prefixes",
    [[], [[]], "قال", [["قال", 5]], [["قال"], ["قال", "النبي"]], [["قالَ"]], [["قال النبي"]]],
    ids=["empty", "empty-phrase", "string", "non-string-token", "shortest-first",
         "not-normalized", "space-in-token"],
)
def test_index_load_rejects_malformed_prefixes(tmp_path, prefixes):
    _, path = _saved(tmp_path)
    data = path.read_bytes()
    start = len(INDEX_MAGIC) + 4
    end = start + int.from_bytes(data[len(INDEX_MAGIC) : start], "little")
    header = json.loads(data[start:end]) | {"prefixes": prefixes}
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(INDEX_MAGIC + len(blob).to_bytes(4, "little") + blob + data[end:])
    with pytest.raises(MatcherError, match=r"index\.bin: truncated or malformed index header"):
        load_index(path)


def test_index_load_rejects_unsorted_or_repeated_row_columns(tmp_path):
    ix = build_index(_corpus(FIXTURE_ROWS))
    assert ix.sizes[0] >= 2
    a, b = int(ix.columns[0]), int(ix.columns[1])
    for first, second in ((a, a), (b, a)):
        columns = ix.columns.copy()
        columns[0], columns[1] = first, second
        path = tmp_path / "index.bin"
        save_index(dataclasses.replace(ix, columns=columns), path)
        with pytest.raises(MatcherError, match=r"index\.bin: malformed index: a row's columns"):
            load_index(path)



def test_index_bytes_independent_of_corpus_order(tmp_path):
    rows = FIXTURE_ROWS + [("q10", "weak", "t", "alpha one red"), ("q9", "good", "t", "beta two")]
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_index(build_index(_corpus(rows)), a)
    save_index(build_index(_corpus(rows[::-1])), b)
    assert a.read_bytes() == b.read_bytes()


@given(
    st.lists(st.sets(st.sampled_from("abcdefghij"), min_size=1, max_size=6), min_size=1,
             max_size=12, unique_by=frozenset),
    st.sets(st.sampled_from("abcdefghijxyz"), max_size=8),
)
def test_query_candidates_equal_brute_force_counts(quote_sets, post):
    rows = [(f"q{i}", "weak", "t", " ".join(sorted(q))) for i, q in enumerate(quote_sets)]
    ix = build_index(_corpus(rows))
    want = [
        [row, len(ix.quote_shingles(row) & post)]
        for row in range(len(ix))
        if ix.quote_shingles(row) & post
    ]
    assert query_candidates(ix, _sset(*post)).tolist() == want


def test_match_tie_breaks_in_string_order_not_corpus_order():
    # J = 3/4 against both; "q10" sorts before "q9".
    corpus = _corpus([("q9", "fabricated", "t", "a b c d"), ("q10", "authentic", "t", "a b c e")])
    r = match_post("a b c", build_index(corpus))
    assert r is not None and r.quote_id == "q10" and r.kind is MatchKind.NON_FABRICATED_SHARE


def test_match_union_counts_out_of_vocabulary_post_tokens():
    # 4 of 10 quote tokens: 4/10 alone, but two unknown tokens make it 4/12 <= 0.35.
    corpus = _corpus([("q", "fabricated", "t", "t1 t2 t3 t4 t5 t6 t7 t8 t9 t10")])
    ix = build_index(corpus)
    assert match_post("t1 t2 t3 t4", ix).similarity == 0.4
    assert match_post("t1 t2 t3 t4 zz1 zz2", ix) is None
