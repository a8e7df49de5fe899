import numpy as np
import pytest
from hypothesis import given, strategies as st

from quotematch.behavior import (
    BehaviorLabel,
    LabelThresholds,
    SUMMARY_METRICS,
    Post,
    UserStats,
    build_labeled_dataset,
    interaction_summary,
    label_user,
    read_stats_csv,
    read_timeline,
    scan_timeline,
    write_stats_csv,
    write_timeline,
)
from quotematch.corpus import build_corpus
from quotematch.matcher import MatchKind, build_index

FABRICATED = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
AUTHENTIC = "one two three four five six seven eight nine ten"

CORPUS = build_corpus([
    ("qf", "fabricated", "t", FABRICATED),
    ("qa", "authentic", "t", AUTHENTIC),
])[0]
INDEX = build_index(CORPUS)


def _stats(fabricated, total, refutes, user_id="u", rt=0.0):
    return UserStats(user_id, total, fabricated, refutes, rt)


def test_scan_counts_shares_by_kind():
    posts = [
        Post("p1", "u1", FABRICATED),
        Post("p2", "u1", AUTHENTIC),
        Post("p3", "u1", "nothing related at all"),
    ]
    stats, matches = scan_timeline(posts, INDEX)
    assert stats.total_hadith == 2
    assert stats.fabricated == 1
    assert stats.refutes == 0
    assert {m.post_id for m in matches} == {"p1", "p2"}


def test_scan_refute_term_in_matched_post():
    posts = [Post("p1", "u1", FABRICATED + " حديث موضوع")]
    stats, matches = scan_timeline(posts, INDEX)
    assert stats.fabricated == 0
    assert stats.refutes == 1
    assert stats.total_hadith == 0
    assert matches[0].kind is MatchKind.REFUTE


def test_scan_empty_timeline():
    stats, matches = scan_timeline([], INDEX, user_id="u9")
    assert stats == UserStats("u9", 0, 0, 0, 0.0)
    assert matches == []


def test_scan_mixed_user_ids_error():
    posts = [Post("p1", "u1", "x"), Post("p2", "u2", "y")]
    with pytest.raises(ValueError, match="mixes user ids"):
        scan_timeline(posts, INDEX)


def test_scan_retweet_fraction_counts_all_posts():
    posts = [
        Post("p1", "u1", FABRICATED, is_retweet=True),
        Post("p2", "u1", "", is_retweet=True),  # empty text still a post
        Post("p3", "u1", "noise words", is_retweet=False),
        Post("p4", "u1", "more noise", is_retweet=False),
    ]
    stats, _ = scan_timeline(posts, INDEX)
    assert stats.retweet_fraction == 0.5


def test_scan_parent_context_refute():
    posts = [
        Post("p1", "u1", FABRICATED),
        Post("p2", "u1", "هذا حديث موضوع", parent_id="p1"),
        Post("p3", "u1", "هذا حديث موضوع", parent_id="missing"),
        Post("p4", "u1", "هذا حديث موضوع"),  # no parent, no own match
    ]
    stats, matches = scan_timeline(posts, INDEX)
    assert stats.fabricated == 1
    assert stats.refutes == 1  # only the reply whose parent matched
    # Conservation: every post lands in exactly one bucket.
    unmatched = len(posts) - stats.total_hadith - stats.refutes
    assert unmatched == 2


def test_scan_parent_refute_requires_fabricated_parent():
    posts = [
        Post("p1", "u1", AUTHENTIC),
        Post("p2", "u1", "هذا حديث موضوع", parent_id="p1"),
    ]
    stats, _ = scan_timeline(posts, INDEX)
    assert stats.refutes == 0


def test_scan_count_conservation_random():
    rng = np.random.default_rng(11)
    fab_tokens = FABRICATED.split()
    for trial in range(10):
        posts = []
        for i in range(30):
            roll = rng.random()
            if roll < 0.3:
                text = FABRICATED
            elif roll < 0.45:
                text = FABRICATED + " حديث موضوع"
            elif roll < 0.6:
                text = AUTHENTIC
            elif roll < 0.7:
                text = ""
            else:
                text = " ".join(rng.choice(["zz", "yy", "xx", "ww", "vv"], size=4, replace=False))
            posts.append(Post(f"p{i}", "u1", text, is_retweet=bool(rng.random() < 0.5)))
        stats, matches = scan_timeline(posts, INDEX)
        non_fab = stats.total_hadith - stats.fabricated
        unmatched = len(posts) - stats.fabricated - non_fab - stats.refutes
        assert stats.fabricated + non_fab + stats.refutes + unmatched == len(posts)
        assert unmatched >= 0


def test_user_stats_invariants():
    with pytest.raises(ValueError):
        UserStats("u", 1, 2, 0, 0.0)  # fabricated > total
    with pytest.raises(ValueError):
        UserStats("u", 0, 0, 0, 1.5)


def test_label_circulator():
    assert label_user(_stats(3, 10, 0)) is BehaviorLabel.CIRCULATOR


def test_label_debunker_strict():
    assert label_user(_stats(0, 5, 3)) is BehaviorLabel.DEBUNKER


def test_label_neither_below_fraction():
    # 2 fabricated of 100 shares is 2% <= 5%: not a circulator.
    assert label_user(_stats(2, 100, 0)) is BehaviorLabel.NEITHER


def test_label_five_percent_boundary_is_strict():
    # Exactly 5% (2/40) must NOT qualify; strictly-over does.
    assert label_user(_stats(2, 40, 0)) is BehaviorLabel.NEITHER
    assert label_user(_stats(2, 39, 0)) is BehaviorLabel.CIRCULATOR


def test_label_balance_mode_lowers_refute_bar():
    two_refutes = _stats(0, 5, 2)
    assert label_user(two_refutes, mode="strict") is BehaviorLabel.NEITHER
    assert label_user(two_refutes, mode="balance") is BehaviorLabel.DEBUNKER


def test_label_unknown_mode():
    with pytest.raises(ValueError):
        label_user(_stats(0, 1, 0), mode="loose")


@given(
    st.integers(0, 10), st.integers(0, 100), st.integers(0, 10),
    st.sampled_from(["strict", "balance"]),
)
def test_label_mutual_exclusion(fabricated, extra, refutes, mode):
    total = fabricated + extra
    if total == 0 and fabricated > 0:
        return
    stats = _stats(fabricated, total, refutes)
    label = label_user(stats, mode=mode)
    is_circ = label is BehaviorLabel.CIRCULATOR
    is_deb = label is BehaviorLabel.DEBUNKER
    assert not (is_circ and is_deb)
    if is_deb:
        assert stats.fabricated == 0


@given(st.integers(2, 10), st.integers(0, 50), st.integers(0, 10))
def test_label_monotonic_in_circulations(fabricated, extra, refutes):
    total = fabricated + extra
    if label_user(_stats(fabricated, total, refutes)) is BehaviorLabel.CIRCULATOR:
        assert label_user(_stats(fabricated + 1, total + 1, refutes)) is BehaviorLabel.CIRCULATOR


@given(st.integers(0, 50), st.integers(3, 10))
def test_label_monotonic_in_refutes(extra, refutes):
    if label_user(_stats(0, extra, refutes)) is BehaviorLabel.DEBUNKER:
        assert label_user(_stats(0, extra, refutes + 1)) is BehaviorLabel.DEBUNKER


def test_build_dataset_paper_scale_balancing():
    # 559 circulators, 343 strict debunkers, 260 two-refute users:
    # balancing adds exactly 216 (ordered by user id) for 559/559.
    stats = (
        [_stats(3, 10, 0, user_id=f"c{i:04d}") for i in range(559)]
        + [_stats(0, 5, 3 + i % 3, user_id=f"d{i:04d}") for i in range(343)]
        + [_stats(0, 5, 2, user_id=f"t{i:04d}") for i in range(260)]
    )
    labeled, report = build_labeled_dataset(stats)
    assert report.n_circulators == 559
    assert report.n_strict_debunkers == 343
    assert report.n_balance_added == 216
    assert report.n_debunkers == 559
    assert report.balanced
    added_ids = {
        s.user_id for s, lbl in labeled if lbl is BehaviorLabel.DEBUNKER and s.refutes == 2
    }
    assert added_ids == {f"t{i:04d}" for i in range(216)}


def test_build_dataset_no_balancing_when_debunkers_lead():
    stats = [_stats(3, 10, 0, user_id=f"c{i}") for i in range(5)] + [
        _stats(0, 5, 4, user_id=f"d{i}") for i in range(10)
    ] + [_stats(0, 5, 2, user_id=f"t{i}") for i in range(7)]
    labeled, report = build_labeled_dataset(stats)
    assert report.n_circulators == 5
    assert report.n_debunkers == 10
    assert report.n_balance_added == 0


def test_build_dataset_pool_exhaustion_reported():
    stats = [_stats(3, 10, 0, user_id=f"c{i}") for i in range(4)] + [
        _stats(0, 5, 2, user_id="t0")
    ]
    labeled, report = build_labeled_dataset(stats)
    assert report.n_circulators == 4
    assert report.n_debunkers == 1
    assert not report.balanced


def test_build_dataset_balance_pool_under_custom_thresholds():
    # Strict debunkers refute at least 4 times. The pool is the users with no
    # fabricated share and 2 or 3 refutes, taken by refutes descending.
    thresholds = LabelThresholds(min_refutes_strict=4, min_refutes_balance=2)
    grid = [
        _stats(fabricated, 10, refutes, user_id=f"g{fabricated}{refutes}")
        for fabricated in (0, 1)
        for refutes in range(6)
    ]
    for n_circulators, added in ((2, []), (3, ["g03"]), (4, ["g03", "g02"]), (5, ["g03", "g02"])):
        circulators = [_stats(3, 10, 0, user_id=f"c{i}") for i in range(n_circulators)]
        labeled, report = build_labeled_dataset(grid + circulators, thresholds)
        debunkers = [s.user_id for s, label in labeled if label is BehaviorLabel.DEBUNKER]
        assert debunkers == sorted(["g04", "g05"] + added)
        assert report.n_circulators == n_circulators
        assert (report.n_strict_debunkers, report.n_balance_added) == (2, len(added))


def test_build_dataset_empty():
    labeled, report = build_labeled_dataset([_stats(0, 1, 0, user_id="u")])
    assert labeled == []
    assert report.n_circulators == 0 and report.n_debunkers == 0


def test_build_dataset_balance_can_be_disabled():
    stats = [_stats(3, 10, 0, user_id="c0"), _stats(0, 5, 2, user_id="t0")]
    _, report = build_labeled_dataset(stats, balance=False)
    assert report.n_balance_added == 0


def test_build_dataset_duplicate_user_error():
    with pytest.raises(ValueError, match="duplicate"):
        build_labeled_dataset([_stats(0, 1, 0, user_id="u"), _stats(0, 2, 0, user_id="u")])


def test_interaction_summary_single_user():
    summary = interaction_summary({BehaviorLabel.CIRCULATOR: [(5, 10, 3, 0.25)]})
    circ = summary[BehaviorLabel.CIRCULATOR]
    assert circ.shape == (len(SUMMARY_METRICS), 4)
    assert circ[SUMMARY_METRICS.index("retweet_fraction"), 0] == 0.25
    assert circ[SUMMARY_METRICS.index("retweets"), 0] == 10


def test_interaction_summary_identical_classes_identical():
    rows = [(5, 7, 3, 0.4), (9, 2, 1, 0.1)]
    summary = interaction_summary({BehaviorLabel.CIRCULATOR: rows, BehaviorLabel.DEBUNKER: rows})
    assert np.array_equal(summary[BehaviorLabel.CIRCULATOR], summary[BehaviorLabel.DEBUNKER])


def test_interaction_summary_planted_retweet_contrast():
    summary = interaction_summary({
        BehaviorLabel.CIRCULATOR: [(10, 20, 5, 0.758)] * 50,
        BehaviorLabel.DEBUNKER: [(10, 20, 5, 0.279)] * 50,
    })
    i = SUMMARY_METRICS.index("retweet_fraction")
    assert summary[BehaviorLabel.CIRCULATOR][i, 0] == pytest.approx(0.758)
    assert summary[BehaviorLabel.DEBUNKER][i, 0] == pytest.approx(0.279)


def test_interaction_summary_columns_match_one_dimensional_reductions():
    rng = np.random.default_rng(9)
    rows = {
        label: [tuple(rng.random(4).tolist()) for _ in range(n)]
        for label, n in ((BehaviorLabel.CIRCULATOR, 9), (BehaviorLabel.DEBUNKER, 37))
    }
    summary = interaction_summary(rows)
    for label, users in rows.items():
        for i in range(len(SUMMARY_METRICS)):
            values = [u[i] for u in users]
            # Bit for bit: a mean over axis 0 of the user table adds in another order.
            assert summary[label][i].tolist() == [
                float(np.mean(values)), float(np.median(values)),
                float(np.percentile(values, 25)), float(np.percentile(values, 75)),
            ]


def test_timeline_jsonl_roundtrip(tmp_path):
    posts = [
        Post("p1", "u1", "نص", is_retweet=True, created_at="2023-03-01T00:00:00Z"),
        Post("p2", "u1", "reply", parent_id="p1"),
    ]
    path = tmp_path / "u1.jsonl"
    write_timeline(posts, path)
    assert read_timeline(path) == posts


def test_timeline_bad_line_reports_number(tmp_path):
    path = tmp_path / "u.jsonl"
    path.write_text('{"id": "p1", "user_id": "u", "text": "x"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        read_timeline(path)
    path.write_text('{"id": "p1", "user_id": "u", "text": "x"}\n\n["p2"]\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"u\.jsonl: bad post on line 3"):
        read_timeline(path)


_ANY_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=10)


@given(st.lists(st.tuples(_ANY_TEXT, _ANY_TEXT, st.none() | _ANY_TEXT), max_size=5))
def test_timeline_roundtrip_any_unicode(tmp_path_factory, fields):
    posts = [Post(pid, "ユーザー,1", text, parent_id=parent) for pid, text, parent in fields]
    path = tmp_path_factory.mktemp("timeline") / "u.jsonl"
    write_timeline(posts, path)
    assert read_timeline(path) == posts


def test_timeline_is_retweet_must_be_boolean(tmp_path):
    path = tmp_path / "u1.jsonl"
    path.write_text(
        '{"id":"p1","user_id":"u1","text":"x","is_retweet":"false"}\n', encoding="utf-8"
    )
    with pytest.raises(ValueError, match=r"u1\.jsonl: bad post on line 1: is_retweet"):
        read_timeline(path)
    path.write_text(
        '{"id":"p1","user_id":"u1","text":"x"}\n'
        '{"id":"p2","user_id":"u1","text":"x","is_retweet":true}\n',
        encoding="utf-8",
    )
    assert [post.is_retweet for post in read_timeline(path)] == [False, True]


@pytest.mark.parametrize("text", ["null", "5", '["x"]'], ids=["null", "number", "list"])
def test_timeline_text_must_be_a_string(tmp_path, text):
    path = tmp_path / "u1.jsonl"
    path.write_text(
        '{"id":"p1","user_id":"u1"}\n' + f'{{"id":"p2","user_id":"u1","text":{text}}}\n',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"u1\.jsonl: bad post on line 2: text must be a string"):
        read_timeline(path)


def test_stats_csv_roundtrip(tmp_path):
    rows = [
        (_stats(1, 3, 0, user_id="a", rt=0.5), BehaviorLabel.NEITHER),
        (_stats(0, 2, 4, user_id="b", rt=0.25), BehaviorLabel.DEBUNKER),
    ]
    path = tmp_path / "stats.csv"
    write_stats_csv(rows, path)
    loaded = read_stats_csv(path)
    assert loaded == rows


AWKWARD_IDS = ("7,3", 'say "hi"', "مستخدم،١,٢", "line\nbreak", " padded ", "")


def test_stats_csv_roundtrip_awkward_ids(tmp_path):
    rows = [
        (_stats(1, 3, 0, user_id=uid, rt=0.5), BehaviorLabel.CIRCULATOR if i % 2 else None)
        for i, uid in enumerate(AWKWARD_IDS)
    ]
    path = tmp_path / "stats.csv"
    write_stats_csv(rows, path)
    assert read_stats_csv(path) == rows


@given(st.lists(st.text(st.characters(exclude_categories=("Cs",))), unique=True, max_size=8))
def test_stats_csv_roundtrip_any_unicode_id(tmp_path_factory, user_ids):
    rows = [(_stats(0, 1, 2, user_id=uid, rt=1 / 3), None) for uid in user_ids]
    path = tmp_path_factory.mktemp("stats") / "stats.csv"
    write_stats_csv(rows, path)
    assert read_stats_csv(path) == rows


def test_stats_csv_plain_ids_bytes(tmp_path):
    rows = [
        (_stats(1, 3, 0, user_id="a", rt=0.5), BehaviorLabel.NEITHER),
        (_stats(0, 2, 4, user_id="b", rt=0.1), None),
    ]
    path = tmp_path / "stats.csv"
    write_stats_csv(rows, path)
    assert path.read_bytes() == (
        b"user_id,total_hadith,fabricated,refutes,retweet_fraction,label\n"
        b"a,3,1,0,0.5,neither\nb,2,0,4,0.1,\n"
    )


def test_stats_csv_bad_count_names_file_and_line(tmp_path):
    path = tmp_path / "stats.csv"
    path.write_text(
        "user_id,total_hadith,fabricated,refutes,retweet_fraction,label\n"
        "a,3,1,0,0.5,\nb,x,0,0,0.0,\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"stats\.csv: line 3: invalid literal"):
        read_stats_csv(path)


def test_thresholds_validation():
    with pytest.raises(ValueError):
        LabelThresholds(min_refutes_balance=5, min_refutes_strict=3)
    with pytest.raises(ValueError):
        LabelThresholds(min_fabricated=0)
