import re

import numpy as np
import pytest

from quotematch.corpus import (
    AuthenticityLevel,
    CorpusParseError,
    CorpusValidationError,
    ReferenceCorpus,
    TSV_HEADER,
    build_corpus,
    filter_corpus,
    load_corpus,
    load_exclusion_list,
    merge_corpora,
    save_corpus,
)


def _write_tsv(path, rows):
    lines = [TSV_HEADER] + [f"{r[0]}\t{r[1]}\t{r[2]}\t{r[3]}" for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _mini_corpus(texts, level="fabricated", prefix="q"):
    rows = [(f"{prefix}{i}", level, "test", t) for i, t in enumerate(texts)]
    return build_corpus(rows)[0]


def test_load_collapses_duplicate_normalized_texts(tmp_path):
    path = tmp_path / "c.tsv"
    # Same text modulo diacritics: collapses to one quote, first id wins.
    _write_tsv(path, [
        ("a", "fabricated", "s1", "مُحَمَّدٌ رسول"),
        ("b", "fabricated", "s1", "محمد رسول"),
    ])
    corpus, report = load_corpus(path)
    assert len(corpus) == 1
    assert corpus.quotes[0].id == "a"
    assert report.collapsed == 1


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    corpus, report = load_corpus(path)
    assert len(corpus) == 0 and report.rows == 0

    header_only = tmp_path / "header.tsv"
    header_only.write_text(TSV_HEADER + "\n", encoding="utf-8")
    corpus2, _ = load_corpus(header_only)
    assert len(corpus2) == 0


def test_load_preserves_levels_and_queries(tmp_path):
    path = tmp_path / "c.tsv"
    _write_tsv(path, [
        ("a", "fabricated", "s", "نص اول"),
        ("b", "authentic", "s", "نص ثاني"),
    ])
    corpus, _ = load_corpus(path)
    levels = [q.authenticity for q in corpus.quotes]
    assert levels.count(AuthenticityLevel.FABRICATED) == 1
    assert levels.count(AuthenticityLevel.AUTHENTIC) == 1
    assert {q.id: q for q in corpus.quotes}["b"].authenticity is AuthenticityLevel.AUTHENTIC


def test_load_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(TSV_HEADER + "\nonly-two\tcolumns\n", encoding="utf-8")
    with pytest.raises(CorpusParseError, match="line 2"):
        load_corpus(path)


def test_load_unknown_label_is_validation_error(tmp_path):
    path = tmp_path / "bad.tsv"
    _write_tsv(path, [("a", "sahih", "s", "نص")])
    with pytest.raises(CorpusValidationError, match="sahih"):
        load_corpus(path)


def test_load_empty_text_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(TSV_HEADER + "\na\tfabricated\ts\t \n", encoding="utf-8")
    with pytest.raises(CorpusParseError, match="line 2"):
        load_corpus(path)


def test_load_bom_tolerated(tmp_path):
    path = tmp_path / "bom.tsv"
    content = TSV_HEADER + "\na\tfabricated\ts\tنص\n"
    path.write_bytes(b"\xef\xbb\xbf" + content.encode("utf-8"))
    corpus, _ = load_corpus(path)
    assert len(corpus) == 1


def test_load_wrong_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("col1\tcol2\n", encoding="utf-8")
    with pytest.raises(CorpusParseError, match="line 1"):
        load_corpus(path)


def test_text_with_embedded_tab_roundtrips(tmp_path):
    path = tmp_path / "tab.tsv"
    path.write_text(TSV_HEADER + "\na\tfabricated\ts\tنص\tبه تاب\n", encoding="utf-8")
    corpus, _ = load_corpus(path)
    assert corpus.quotes[0].raw_text == "نص\tبه تاب"
    out = tmp_path / "out.tsv"
    save_corpus(corpus, out)
    corpus2, _ = load_corpus(out)
    assert corpus2.quotes[0].normalized_text == corpus.quotes[0].normalized_text


def test_merge_paper_scale_counts():
    # 2452 + 1113 quotes sharing exactly 39 normalized texts -> 3526 and 39.
    a = _mini_corpus([f"a{i} نص {i}" for i in range(2452)], prefix="a")
    b_texts = [f"a{i} نص {i}" for i in range(39)] + [
        f"b{i} اخر {i}" for i in range(1113 - 39)
    ]
    b = _mini_corpus(b_texts, prefix="b")
    merged, report = merge_corpora(a, b)
    assert len(merged) == 3526
    assert report.collisions == 39


def test_merge_with_empty_identity():
    c = _mini_corpus(["نص اول", "نص ثاني"])
    empty = ReferenceCorpus([], [])
    merged, report = merge_corpora(c, empty)
    assert [q.id for q in merged.quotes] == [q.id for q in c.quotes]
    assert report.collisions == 0


def test_merge_disjoint_sizes_add():
    a = _mini_corpus([f"نص {i}" for i in range(3)], prefix="a")
    b = _mini_corpus([f"اخر {i}" for i in range(4)], prefix="b")
    merged, report = merge_corpora(a, b)
    assert len(merged) == 7 and report.collisions == 0


def test_merge_first_argument_wins_collision():
    a = build_corpus([("a1", "fabricated", "sa", "نفس النص")])[0]
    b = build_corpus([("b1", "authentic", "sb", "نفس النص")])[0]
    merged, report = merge_corpora(a, b)
    assert len(merged) == 1
    assert merged.quotes[0].id == "a1"
    assert merged.quotes[0].authenticity is AuthenticityLevel.FABRICATED
    assert report.collisions == 1


def test_merge_id_collision_renamespaced():
    a = build_corpus([("x", "fabricated", "sa", "نص اول")])[0]
    b = build_corpus([("x", "fabricated", "sb", "نص ثاني")])[0]
    merged, report = merge_corpora(a, b)
    assert len(merged) == 2
    assert merged.ids() == {"x", "sb:x"}
    assert report.renamespaced_ids == ("x",)


def test_merge_idempotent():
    c = _mini_corpus(["نص اول", "نص ثاني", "نص ثالث"])
    merged, report = merge_corpora(c, c)
    assert len(merged) == len(c)
    assert merged.ids() == c.ids()
    assert report.collisions == len(c)


def test_merge_size_law_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pool = [f"نص مشترك {i}" for i in range(40)]
        a_texts = list(rng.choice(pool, size=rng.integers(5, 25), replace=False))
        b_texts = list(rng.choice(pool, size=rng.integers(5, 25), replace=False))
        a = _mini_corpus(a_texts, prefix="a")
        b = _mini_corpus(b_texts, prefix="b")
        merged, report = merge_corpora(a, b)
        shared = {q.normalized_text for q in a.quotes} & {q.normalized_text for q in b.quotes}
        assert report.collisions == len(shared)
        assert len(merged) == len(a) + len(b) - len(shared)


def test_merge_provenance_union():
    a = build_corpus([("a", "fabricated", "s1", "نص اول")])[0]
    b = build_corpus([("b", "fabricated", "s2", "نص ثاني")])[0]
    merged, _ = merge_corpora(a, b)
    assert merged.provenance == ["s1", "s2"]


def test_filter_paper_counts():
    c = _mini_corpus([f"نص {i}" for i in range(62)])
    filtered, report = filter_corpus(c, {f"q{i}" for i in range(15)})
    assert len(filtered) == 47
    assert report.removed == 15
    assert report.unknown_ids == ()


def test_filter_empty_exclusion_identity():
    c = _mini_corpus(["نص اول", "نص ثاني"])
    filtered, report = filter_corpus(c, set())
    assert len(filtered) == 2 and report.removed == 0


def test_filter_everything():
    c = _mini_corpus(["نص اول", "نص ثاني"])
    filtered, _ = filter_corpus(c, c.ids())
    assert len(filtered) == 0


def test_filter_unknown_ids_reported_not_fatal():
    c = _mini_corpus(["نص اول"])
    filtered, report = filter_corpus(c, {"q0", "nope", "missing"})
    assert len(filtered) == 0
    assert report.unknown_ids == ("missing", "nope")


def test_filter_then_merge_recovers_texts():
    c = _mini_corpus([f"نص {i}" for i in range(10)])
    excluded_ids = {"q2", "q5"}
    kept, _ = filter_corpus(c, excluded_ids)
    excluded = ReferenceCorpus(
        [q for q in c.quotes if q.id in excluded_ids], list(c.provenance)
    )
    merged, _ = merge_corpora(kept, excluded)
    assert {q.normalized_text for q in merged.quotes} == {q.normalized_text for q in c.quotes}


def test_corpus_invariants_enforced():
    with pytest.raises(CorpusValidationError):
        build_corpus([
            ("a", "fabricated", "s", "نص"),
            ("a", "fabricated", "s", "نص اخر"),
        ])


def test_exclusion_list_io(tmp_path):
    path = tmp_path / "exclude.txt"
    path.write_text("id1\n\nid2\n", encoding="utf-8")
    assert load_exclusion_list(path) == {"id1", "id2"}


def test_save_rejects_tab_or_line_break_in_id_or_source(tmp_path):
    for row in (("a\tb", "weak", "s", "نص"), ("q2", "weak", "x\ny", "نص"),
                ("q3\u2028", "weak", "s", "نص")):
        with pytest.raises(CorpusValidationError, match=re.escape(f"quote {row[0]!r}:")):
            save_corpus(build_corpus([row])[0], tmp_path / "c.tsv")


def test_save_load_roundtrip(tmp_path):
    c = _mini_corpus(["نص اول", "نص ثاني"], level="weak")
    path = tmp_path / "c.tsv"
    save_corpus(c, path)
    loaded, _ = load_corpus(path)
    assert loaded.ids() == c.ids()
    assert {q.normalized_text for q in loaded.quotes} == {q.normalized_text for q in c.quotes}
    assert all(q.authenticity is AuthenticityLevel.WEAK for q in loaded.quotes)

    # A text's line breaks become spaces, or go where normalization drops them.
    breaks = "\n\r\x0b\x0c\u2028\u2029\x1c\x1d\x1e\x85"
    texts = [f"نص {i} a{brk}b" for i, brk in enumerate(breaks)]
    c = _mini_corpus(texts, level="weak")
    save_corpus(c, path)
    loaded, _ = load_corpus(path)
    assert [q.normalized_text for q in loaded.quotes] == [q.normalized_text for q in c.quotes]
