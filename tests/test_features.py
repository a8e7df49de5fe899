import pytest
from hypothesis import given, strategies as st

from quotematch.features import (
    FeatureVector,
    TieKind,
    build_feature_space,
    encode_users,
    kind_counts,
    load_space,
    load_vectors,
    read_ties_csv,
    save_space,
    save_vectors,
    tie_table,
    to_csr,
    write_ties_csv,
)


def _tie(user, target, kind=TieKind.FOLLOW):
    return (user, target, kind)


def _space(ties):
    return build_feature_space(tie_table(ties))


def _encode(ties, space=None):
    table = tie_table(ties)
    return encode_users(table, space or build_feature_space(table))


def test_same_target_different_kinds_two_columns():
    ties = [_tie("u", "page"), _tie("u", "page", TieKind.LIKE_AUTHOR)]
    space = _space(ties)
    assert space.n_columns == 2
    assert ("page", TieKind.FOLLOW) in space.column_of
    assert ("page", TieKind.LIKE_AUTHOR) in space.column_of


def test_empty_ties_zero_columns():
    space = _space([])
    assert space.n_columns == 0


def test_duplicate_records_collapse_support_once():
    ties = [_tie("u", "page"), _tie("u", "page"), _tie("v", "page")]
    space = _space(ties)
    assert space.n_columns == 1
    assert space.support == (2,)


def test_self_ties_dropped():
    space = _space([_tie("u", "u"), _tie("u", "p")])
    assert space.n_columns == 1
    assert space.columns[0][0] == "p"


def test_column_order_deterministic():
    ties = [
        _tie("u", "b", TieKind.RETWEET_AUTHOR),
        _tie("u", "a", TieKind.LIKE_AUTHOR),
        _tie("u", "a", TieKind.FOLLOW),
    ]
    space = _space(ties)
    assert space.columns == (
        ("a", TieKind.FOLLOW),
        ("a", TieKind.LIKE_AUTHOR),
        ("b", TieKind.RETWEET_AUTHOR),
    )


def test_encode_user_basic():
    ties = [_tie("u", "a"), _tie("u", "b"), _tie("u", "c", TieKind.LIKE_AUTHOR)]
    (vec,), dropped = _encode(ties)
    assert vec.user_id == "u"
    assert len(vec.columns) == 3
    assert dropped == 0
    assert list(vec.columns) == sorted(vec.columns)


def test_encode_user_no_ties():
    space = _space([_tie("v", "a")])
    assert _encode([], space) == ([], 0)
    assert _encode([_tie("u", "u")], space) == ([], 0)


def test_encode_user_unknown_pair_dropped():
    space = _space([_tie("u", "a")])
    (vec,), dropped = _encode([_tie("u", "a"), _tie("u", "unseen")], space)
    assert vec.columns == (0,)
    assert dropped == 1
    (vec,), dropped = _encode([_tie("u", "unseen")], space)
    assert vec == FeatureVector("u", ()) and dropped == 1


def test_encode_input_order_invariance():
    ties = [_tie("u", "a"), _tie("u", "b", TieKind.LIKE_AUTHOR), _tie("u", "c"), _tie("v", "a")]
    space = _space(ties)
    assert _encode(ties, space) == _encode(list(reversed(ties)), space)


@given(
    st.sets(
        st.tuples(
            st.sampled_from(["t1", "t2", "t3", "t4"]),
            st.sampled_from(list(TieKind)),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_encode_round_trip(pairs):
    ties = [_tie("u", t, k) for t, k in pairs]
    space = _space(ties)
    (vec,), dropped = _encode(ties, space)
    assert dropped == 0
    decoded = {space.pair_of(c) for c in vec.columns}
    assert decoded == pairs


def _reference(ties, space):
    """Per-record encoding: distinct non-self pairs per user, looked up one by one."""
    per_user = {}
    for user, target, kind in ties:
        if user != target:
            per_user.setdefault(user, set()).add((target, kind))
    support = {}
    for pairs in per_user.values():
        for pair in pairs:
            support[pair] = support.get(pair, 0) + 1
    columns = sorted(support, key=lambda p: (p[0], p[1].value))
    vectors = [
        FeatureVector(u, tuple(sorted(space.column_of[p] for p in pairs if p in space.column_of)))
        for u, pairs in sorted(per_user.items())
    ]
    dropped = sum(1 for u in per_user for p in per_user[u] if p not in space.column_of)
    return tuple(columns), tuple(support[p] for p in columns), vectors, dropped


_IDS = st.sampled_from(["u", "v", "w", "a", "b", "\x00", "a\x00", "é", "ب", "a,b", ""])


@given(
    st.lists(st.tuples(_IDS, _IDS, st.sampled_from(list(TieKind))), max_size=40),
    st.lists(st.tuples(_IDS, _IDS, st.sampled_from(list(TieKind))), max_size=10),
)
def test_array_encoding_matches_per_record_reference(ties, foreign):
    space = _space(ties)
    columns, support, _, _ = _reference(ties, space)
    assert (space.columns, space.support) == (columns, support)
    other = _space(foreign)
    _, _, vectors, dropped = _reference(ties, other)
    assert _encode(ties, other) == (vectors, dropped)


def test_table_keeps_ids_distinct_by_trailing_nul():
    table = tie_table([_tie("u", "t"), _tie("u", "t\x00"), _tie("u\x00", "t")])
    assert table.users == ("u", "u\x00")
    assert [pair[0] for pair in table.pairs] == ["t", "t\x00"]
    assert set(table) == {_tie("u", "t"), _tie("u", "t\x00"), _tie("u\x00", "t")}


def test_kind_counts_distinct_ties_self_ties_included():
    ties = [
        _tie("u", "a"),
        _tie("u", "a"),
        _tie("u", "u"),
        _tie("u", "a", TieKind.LIKE_AUTHOR),
        _tie("v", "b", TieKind.RETWEET_AUTHOR),
    ]
    assert kind_counts(tie_table(ties)) == {"u": (2, 0, 1), "v": (0, 1, 0)}


def test_column_count_equals_distinct_pairs():
    ties = [
        _tie("u1", "a"),
        _tie("u2", "a"),
        _tie("u1", "b", TieKind.RETWEET_AUTHOR),
        _tie("u2", "b", TieKind.LIKE_AUTHOR),
    ]
    assert _space(ties).n_columns == 3


def test_to_csr_shape_and_values():
    vectors = [FeatureVector("u", (0, 2)), FeatureVector("v", (1,))]
    X = to_csr(vectors, 3)
    assert X.shape == (2, 3)
    assert X.toarray().tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]


def test_ties_csv_roundtrip(tmp_path):
    ties = [_tie("u", "a"), _tie("v", "b", TieKind.RETWEET_AUTHOR)]
    path = tmp_path / "ties.csv"
    write_ties_csv(ties, path)
    loaded = read_ties_csv(path)
    assert set(loaded) == set(ties)


def test_ties_csv_roundtrip_awkward_ids(tmp_path):
    ids = ("7,3", 'say "hi"', "صفحة،١,٢", "line\nbreak", " padded ")
    ties = [_tie(u, t, TieKind.LIKE_AUTHOR) for u in ids for t in ids]
    path = tmp_path / "ties.csv"
    write_ties_csv(ties, path)
    assert set(read_ties_csv(path)) == set(ties)


_ANY_ID = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)


@given(st.lists(st.tuples(_ANY_ID, _ANY_ID), max_size=8))
def test_ties_csv_roundtrip_any_unicode_id(tmp_path_factory, pairs):
    ties = [_tie(u, t) for u, t in pairs]
    path = tmp_path_factory.mktemp("ties") / "ties.csv"
    write_ties_csv(ties, path)
    assert set(read_ties_csv(path)) == set(ties)


def test_ties_csv_plain_ids_bytes(tmp_path):
    path = tmp_path / "ties.csv"
    write_ties_csv([_tie("v", "b", TieKind.RETWEET_AUTHOR), _tie("u", "a")], path)
    assert path.read_bytes() == b"user_id,target_id,kind\nu,a,follow\nv,b,retweet\n"


def test_ties_csv_bad_kind(tmp_path):
    path = tmp_path / "ties.csv"
    path.write_text("user_id,target_id,kind\nu,a,block\n", encoding="utf-8")
    with pytest.raises(ValueError, match="block"):
        read_ties_csv(path)


def test_ties_csv_duplicates_collapse(tmp_path):
    path = tmp_path / "ties.csv"
    path.write_text("user_id,target_id,kind\nu,a,follow\nu,a,follow\n", encoding="utf-8")
    assert len(read_ties_csv(path)) == 1


def test_ties_csv_restrict_still_validates_every_row(tmp_path):
    path = tmp_path / "ties.csv"
    path.write_text("user_id,target_id,kind\nu,a,follow\nv,b, Like\n", encoding="utf-8")
    assert set(read_ties_csv(path).restrict({"v"})) == {_tie("v", "b", TieKind.LIKE_AUTHOR)}
    path.write_text("u,a,follow\nv,b,block\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"ties\.csv: line 2: unknown tie kind 'block'"):
        read_ties_csv(path).restrict({"u"})
    path.write_text("u,a,follow\n\nv,b\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"ties\.csv: line 3: expected 3 columns, got 2"):
        read_ties_csv(path).restrict({"u"})


@given(
    st.lists(st.tuples(_IDS, _IDS, st.sampled_from(list(TieKind))), max_size=40),
    st.sets(_IDS),
)
def test_restrict_equals_coding_only_those_users(ties, users):
    restricted = tie_table(ties).restrict(users)
    alone = tie_table(t for t in ties if t[0] in users)
    assert list(restricted) == list(alone)
    space = build_feature_space(restricted)
    assert space == build_feature_space(alone)
    assert encode_users(restricted, space) == encode_users(alone, space)


def test_space_json_roundtrip(tmp_path):
    ties = [_tie("u", "a"), _tie("v", "b", TieKind.LIKE_AUTHOR)]
    space = _space(ties)
    path = tmp_path / "space.json"
    save_space(space, path, ties_hash="abc")
    loaded = load_space(path)
    assert loaded.columns == space.columns
    assert loaded.support == space.support
    assert loaded.manifest_hash == space.manifest_hash


def test_vectors_jsonl_roundtrip(tmp_path):
    vectors = [
        FeatureVector("u", (0, 1)), FeatureVector("v", ()), FeatureVector("مستخدم\u2028", (2,))
    ]
    space = _space([_tie("u", "a"), _tie("u", "b"), _tie("u", "c")])
    path = tmp_path / "vectors.jsonl"
    save_vectors(vectors, path, space.manifest_hash)
    assert load_vectors(path, space) == vectors
    # Non-ASCII ids are written raw, as in matches.jsonl.
    assert '"user_id": "مستخدم\u2028"'.encode() in path.read_bytes()


@given(st.lists(st.tuples(_ANY_ID, _ANY_ID), min_size=1, max_size=8))
def test_space_and_vectors_roundtrip_any_unicode_id(tmp_path_factory, pairs):
    table = tie_table(_tie(u, t) for u, t in pairs)
    space = build_feature_space(table)
    vectors, _ = encode_users(table, space)
    out = tmp_path_factory.mktemp("space")
    save_space(space, out / "space.json")
    save_vectors(vectors, out / "vectors.jsonl", space.manifest_hash)
    assert load_space(out / "space.json") == space
    assert load_vectors(out / "vectors.jsonl", space) == vectors


def test_manifest_hash_changes_with_columns():
    s1 = _space([_tie("u", "a")])
    s2 = _space([_tie("u", "b")])
    assert s1.manifest_hash != s2.manifest_hash
