"""Command-line pipeline: corpus build -> index -> scan -> label -> features ->
train -> report, plus a synthetic fixture generator.

Exit codes: 0 ok, 2 missing input file, 3 artifact version/hash mismatch,
4 contract violation (bad data or parameters). Stage artifacts embed content
hashes so a scan cannot silently run against the wrong index, nor a report
against the wrong feature space or ties file. ``index`` compiles the corpus
once; ``scan`` reads that compiled index, checks it against the corpus file's
hash, strips quote introductions with the prefix lexicon the index records,
scans with the index's shingle size, and parses no corpus. ``features`` reads
the ties file once and records its per-user tie counts in the space, so
``report`` only hashes the ties file.
Every JSON, JSONL and CSV artifact is read and written through ``quotematch.artifacts``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import behavior, corpus as corpus_mod, features as features_mod, matcher, model as model_mod, synth
from .artifacts import VersionMismatchError, read_csv, write_csv, write_json, write_jsonl
from .behavior import BehaviorLabel, DEFAULT_THRESHOLDS, LabelThresholds
from .model import LogitHyperparams
from .textnorm import DEFAULT_PREFIXES, PhraseLexicon


class MissingInputError(Exception):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _require(path: str | Path) -> Path:
    p = Path(path)
    if not p.exists():
        raise MissingInputError(str(p))
    return p


def _lexicon(path: str | None, default: PhraseLexicon) -> PhraseLexicon:
    return PhraseLexicon.from_file(_require(path)) if path else default


# ---------------------------------------------------------------------------
# corpus build | merge | filter


def _write_report(args, **fields) -> None:
    write_json(args.report or str(args.out) + ".report.json", fields)


def cmd_corpus_build(args) -> None:
    lexicon = _lexicon(args.prefixes, DEFAULT_PREFIXES)
    built, report = corpus_mod.load_corpus(_require(args.input), lexicon)
    corpus_mod.save_corpus(built, args.out)
    _write_report(args, rows=report.rows, collapsed=report.collapsed, quotes=len(built))
    print(f"built corpus: {len(built)} quotes, {report.collapsed} duplicates collapsed")


def cmd_corpus_merge(args) -> None:
    lexicon = _lexicon(args.prefixes, DEFAULT_PREFIXES)
    a, _ = corpus_mod.load_corpus(_require(args.a), lexicon)
    b, _ = corpus_mod.load_corpus(_require(args.b), lexicon)
    merged, report = corpus_mod.merge_corpora(a, b)
    corpus_mod.save_corpus(merged, args.out)
    _write_report(
        args, collisions=report.collisions, renamespaced_ids=list(report.renamespaced_ids),
        quotes=len(merged),
    )
    print(f"merged corpus: {len(merged)} quotes, {report.collisions} collisions")


def cmd_corpus_filter(args) -> None:
    lexicon = _lexicon(args.prefixes, DEFAULT_PREFIXES)
    base, _ = corpus_mod.load_corpus(_require(args.corpus), lexicon)
    exclude = corpus_mod.load_exclusion_list(_require(args.exclude))
    filtered, report = corpus_mod.filter_corpus(base, exclude)
    corpus_mod.save_corpus(filtered, args.out)
    _write_report(
        args, removed=report.removed, unknown_ids=list(report.unknown_ids), quotes=len(filtered)
    )
    print(f"filtered corpus: {len(filtered)} quotes, {report.removed} removed")
    if report.unknown_ids:
        print(f"warning: {len(report.unknown_ids)} unknown exclusion ids", file=sys.stderr)


# ---------------------------------------------------------------------------
# index


def cmd_index(args) -> None:
    corpus_path = _require(args.corpus)
    lexicon = _lexicon(args.prefixes, DEFAULT_PREFIXES)
    built, _ = corpus_mod.load_corpus(corpus_path, lexicon)
    index = matcher.build_index(
        built, args.shingle_n, corpus_hash=_sha256(corpus_path), prefix_lexicon=lexicon
    )
    matcher.save_index(index, args.out)
    print(f"indexed {len(index)} quotes over {len(index.vocabulary)} distinct shingles")


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args) -> None:
    if args.max_posts < 1:
        raise ValueError(f"--max-posts must be >= 1, got {args.max_posts}")
    if not 0.0 < args.threshold < 1.0:
        raise ValueError(f"--threshold must be in (0, 1), got {args.threshold}")
    corpus_path = _require(args.corpus)
    index_path = _require(args.index)
    timelines_dir = _require(args.timelines)
    index = matcher.load_index(index_path, corpus_hash=_sha256(corpus_path))
    refutes = _lexicon(args.refutes, matcher.DEFAULT_REFUTES)

    files = sorted(Path(timelines_dir).glob("*.jsonl"))
    scanned = [
        behavior.scan_timeline(
            behavior.read_timeline(path)[: args.max_posts], index, refutes, args.threshold,
            user_id=path.stem,
        )
        for path in files
    ]
    rows = sorted(
        ((stats, None) for stats, _ in scanned), key=lambda pair: pair[0].user_id
    )
    behavior.write_stats_csv(rows, args.out_stats)
    all_matches = sorted(
        (
            (stats.user_id, match)
            for (stats, matches) in scanned
            for match in matches
        ),
        key=lambda pair: (pair[0], pair[1].post_id),
    )
    write_jsonl(args.out_matches, (
        {"user_id": user_id, "post_id": m.post_id, "quote_id": m.quote_id,
         "similarity": m.similarity, "authenticity": m.authenticity.value, "kind": m.kind.value}
        for user_id, m in all_matches
    ))
    print(f"scanned {len(files)} timelines, {len(all_matches)} matches")


# ---------------------------------------------------------------------------
# label


def cmd_label(args) -> None:
    rows = behavior.read_stats_csv(_require(args.stats))
    thresholds = LabelThresholds(
        min_fabricated=args.min_fabricated,
        min_fabricated_fraction=args.min_fraction,
        min_refutes_strict=args.min_refutes,
        min_refutes_balance=args.min_refutes_balance,
    )
    all_stats = [stats for stats, _ in rows]
    labeled, report = behavior.build_labeled_dataset(
        all_stats, thresholds, balance=args.balance
    )
    label_of = {stats.user_id: label for stats, label in labeled}
    out_rows = [
        (stats, label_of.get(stats.user_id, BehaviorLabel.NEITHER)) for stats in all_stats
    ]
    out_rows.sort(key=lambda pair: pair[0].user_id)
    behavior.write_stats_csv(out_rows, args.out)
    print(
        f"labeled dataset: {report.n_circulators} circulators, "
        f"{report.n_debunkers} debunkers "
        f"({report.n_balance_added} added by balancing)"
    )


# ---------------------------------------------------------------------------
# features


def cmd_features(args) -> None:
    ties_path = _require(args.ties)
    ties = features_mod.read_ties_csv(ties_path)
    # Counted over the whole file: report's class summary covers every labeled user.
    per_user = features_mod.kind_counts(ties)
    if args.labeled:
        rows = behavior.read_stats_csv(_require(args.labeled))
        ties = ties.restrict({
            stats.user_id
            for stats, label in rows
            if label in (BehaviorLabel.CIRCULATOR, BehaviorLabel.DEBUNKER)
        })
    space = features_mod.build_feature_space(ties)
    # The space holds every tie of ``ties``, so none is dropped.
    vectors, _ = features_mod.encode_users(ties, space)
    features_mod.save_space(space, args.out_space, _sha256(ties_path), per_user)
    features_mod.save_vectors(vectors, args.out_vectors, space.manifest_hash)
    print(f"feature space: {space.n_columns} columns, {len(vectors)} users encoded")


# ---------------------------------------------------------------------------
# train


def _load_xy(args) -> tuple:
    """The space's manifest hash, the tie matrix of the labeled users and their
    labels (+1 circulator, -1 debunker); the loaded objects die on return."""
    space = features_mod.load_space(_require(args.space))
    vectors = features_mod.load_vectors(_require(args.vectors), space)
    labels = {
        stats.user_id: label for stats, label in behavior.read_stats_csv(_require(args.labeled))
    }
    keep = [
        v
        for v in vectors
        if labels.get(v.user_id) in (BehaviorLabel.CIRCULATOR, BehaviorLabel.DEBUNKER)
    ]
    y = np.array(
        [1.0 if labels[v.user_id] is BehaviorLabel.CIRCULATOR else -1.0 for v in keep]
    )
    X = features_mod.to_csr(keep, space.n_columns)
    return space.manifest_hash, X, y


def _write_metrics(metrics, path: str) -> None:
    def cells(*values: float) -> list[str]:
        return [f"{v:.6f}" for v in values]

    c, d = metrics.per_class[1], metrics.per_class[-1]
    write_csv(path, ("group", "accuracy", "precision", "recall", "f1"), [
        ["Circulators", ""] + cells(c.precision, c.recall, c.f1),
        ["Debunkers", ""] + cells(d.precision, d.recall, d.f1),
        ["Macro"] + cells(metrics.accuracy, metrics.macro_precision, metrics.macro_recall,
                          metrics.macro_f1),
    ])


def cmd_train(args) -> None:
    space_hash, X, y = _load_xy(args)
    design = model_mod.distinct_columns(X)
    del X  # the fits need only the distinct columns
    hp = LogitHyperparams(
        l2_strength=args.l2, max_iters=args.max_iters, tolerance=args.tol, seed=args.seed
    )
    final, metrics = model_mod.train_and_validate(design, y, hp, repeats=args.repeats)
    model_mod.save_model(final, args.out_model, space_hash)
    _write_metrics(metrics, args.out_metrics)
    print(
        f"trained on {len(y)} users x {len(design.group)} features; "
        f"cv accuracy {metrics.accuracy:.3f}"
    )


# ---------------------------------------------------------------------------
# report


def _read_category_map(path: Path) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for line_no, row in read_csv(path):
        if line_no == 1 and row == ["target_id", "category"]:
            continue
        if len(row) != 2:
            raise ValueError(
                f"{path}: line {line_no}: expected 2 fields target_id,category, got {len(row)}"
            )
        mapping[row[0]] = row[1]
    return mapping


def cmd_report(args) -> None:
    space = features_mod.load_space(_require(args.space))
    fitted, space_hash = model_mod.load_model(_require(args.model))
    if space_hash != space.manifest_hash:
        raise VersionMismatchError(
            f"model {args.model} was trained against a different feature space"
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    k = min(args.top_k, space.n_columns)
    report = model_mod.top_coefficients(fitted, space, k)
    sides = (("positive", report.top_positive), ("negative", report.top_negative))
    write_csv(out_dir / "top_coefficients.csv", ("side", "rank", "target_id", "kind", "weight"), (
        (side, str(rank), target, kind.value, f"{weight:.8f}")
        for side, entries in sides
        for rank, ((target, kind), weight) in enumerate(entries, start=1)
    ))

    category_map = _read_category_map(_require(args.category_map)) if args.category_map else {}
    counts = model_mod.categorize_report(report, category_map)
    write_csv(out_dir / "category_counts.csv", ("side", "category", "count"), (
        (side, category, str(counts[side][category]))
        for side in ("positive", "negative")
        for category in sorted(counts[side])
    ))

    if args.ties and _sha256(_require(args.ties)) != space.ties_hash:
        raise VersionMismatchError(
            f"ties {args.ties} differ from the ties file {args.space} was built from"
        )
    if args.labeled:
        counts_map, labels_map = {}, {}
        for stats, label in behavior.read_stats_csv(_require(args.labeled)):
            if label is None:
                continue
            # kind_counts is in TieKind order: follow, retweet, like.
            counts_map[stats.user_id] = behavior.InteractionCounts(
                *space.kind_counts.get(stats.user_id, (0, 0, 0)), stats.retweet_fraction
            )
            labels_map[stats.user_id] = label
        summary = behavior.interaction_summary(counts_map, labels_map)
        columns = ("mean", "median", "q1", "q3")
        write_csv(out_dir / "class_summary.csv", ("label", "metric") + columns, (
            [label.value, metric] + [f"{summary[label][metric][q]:.6f}" for q in columns]
            for label in sorted(summary, key=lambda l: l.value)
            for metric in ("follows", "retweets", "likes", "retweet_fraction")
        ))
    print(f"report written to {out_dir}")


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> None:
    two_refute = args.two_refute
    if two_refute is None:
        two_refute = min(synth.SyntheticSpec.two_refute_debunkers, args.n_per_class)
    elif not 0 <= two_refute <= args.n_per_class:
        raise ValueError(
            f"--two-refute must be within the class size 0..{args.n_per_class} "
            f"(--n-per-class), got {two_refute}"
        )
    spec = synth.SyntheticSpec(
        n_per_class=args.n_per_class,
        planted_per_class=args.planted,
        timeline_len=args.timeline_len,
        label_noise=args.noise,
        seed=args.seed,
        two_refute_debunkers=two_refute,
    )
    paths = synth.generate(spec, args.out_dir)
    print(
        f"synthetic fixture: {2 * spec.n_per_class} users under {args.out_dir} "
        f"(corpus={paths.corpus.name}, ties={paths.ties.name})"
    )


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quotematch",
        description="Detect near-duplicate canonical quotes and model sharer behavior.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    corpus_p = sub.add_parser("corpus", help="build, merge, or filter reference corpora")
    corpus_sub = corpus_p.add_subparsers(dest="subcommand", required=True)

    build_p = corpus_sub.add_parser("build", help="normalize and deduplicate a corpus TSV")
    build_p.add_argument("--input", required=True)
    build_p.add_argument("--out", required=True)
    build_p.add_argument("--report")
    build_p.add_argument("--prefixes", help="prefix lexicon file, one pattern per line")
    build_p.set_defaults(func=cmd_corpus_build)

    merge_p = corpus_sub.add_parser("merge", help="union two corpora by normalized text")
    merge_p.add_argument("--a", required=True)
    merge_p.add_argument("--b", required=True)
    merge_p.add_argument("--out", required=True)
    merge_p.add_argument("--report")
    merge_p.add_argument("--prefixes")
    merge_p.set_defaults(func=cmd_corpus_merge)

    filter_p = corpus_sub.add_parser("filter", help="drop quotes listed in an exclusion file")
    filter_p.add_argument("--corpus", required=True)
    filter_p.add_argument("--exclude", required=True)
    filter_p.add_argument("--out", required=True)
    filter_p.add_argument("--report")
    filter_p.add_argument("--prefixes")
    filter_p.set_defaults(func=cmd_corpus_filter)

    index_p = sub.add_parser(
        "index", help="compile a corpus into the exact-matching index that scan reads"
    )
    index_p.add_argument("--corpus", required=True)
    index_p.add_argument("--out", required=True)
    index_p.add_argument("--shingle-n", type=int, default=1, help="tokens per shingle")
    index_p.add_argument("--prefixes")
    index_p.set_defaults(func=cmd_index)

    scan_p = sub.add_parser("scan", help="scan timeline files against the index")
    scan_p.add_argument("--index", required=True)
    scan_p.add_argument(
        "--corpus", required=True, help="corpus file the index was built from (hashed, not parsed)"
    )
    scan_p.add_argument("--timelines", required=True, help="directory of <user_id>.jsonl files")
    scan_p.add_argument("--out-stats", required=True)
    scan_p.add_argument("--out-matches", required=True)
    scan_p.add_argument("--threshold", type=float, default=0.35)
    scan_p.add_argument("--max-posts", type=int, default=3200)
    scan_p.add_argument("--refutes", help="refute lexicon file, one phrase per line")
    scan_p.set_defaults(func=cmd_scan)

    label_p = sub.add_parser("label", help="label users and balance the dataset")
    label_p.add_argument("--stats", required=True)
    label_p.add_argument("--out", required=True)
    label_p.add_argument("--min-fabricated", type=int, default=DEFAULT_THRESHOLDS.min_fabricated)
    label_p.add_argument(
        "--min-fraction", type=float, default=DEFAULT_THRESHOLDS.min_fabricated_fraction
    )
    label_p.add_argument("--min-refutes", type=int, default=DEFAULT_THRESHOLDS.min_refutes_strict)
    label_p.add_argument(
        "--min-refutes-balance", type=int, default=DEFAULT_THRESHOLDS.min_refutes_balance
    )
    label_p.add_argument(
        "--balance", action=argparse.BooleanOptionalAction, default=True,
        help="top up the debunker side with balance-level refuters",
    )
    label_p.set_defaults(func=cmd_label)

    features_p = sub.add_parser("features", help="build the tie feature space and encodings")
    features_p.add_argument("--ties", required=True)
    features_p.add_argument("--out-space", required=True)
    features_p.add_argument("--out-vectors", required=True)
    features_p.add_argument("--labeled", help="restrict to circulator/debunker users")
    features_p.set_defaults(func=cmd_features)

    train_p = sub.add_parser("train", help="cross-validate and fit the tie classifier")
    train_p.add_argument("--space", required=True)
    train_p.add_argument("--vectors", required=True)
    train_p.add_argument("--labeled", required=True)
    train_p.add_argument("--out-model", required=True)
    train_p.add_argument("--out-metrics", required=True)
    train_p.add_argument("--l2", type=float, default=1.0)
    train_p.add_argument("--max-iters", type=int, default=5000)
    train_p.add_argument("--tol", type=float, default=1e-6)
    train_p.add_argument("--seed", type=int, default=0)
    train_p.add_argument("--repeats", type=int, default=10)
    train_p.set_defaults(func=cmd_train)

    report_p = sub.add_parser("report", help="coefficient, category, and class reports")
    report_p.add_argument("--model", required=True)
    report_p.add_argument("--space", required=True)
    report_p.add_argument("--out-dir", required=True)
    report_p.add_argument("--category-map", help="CSV target_id,category")
    report_p.add_argument("--top-k", type=int, default=100)
    report_p.add_argument("--labeled", help="labeled stats CSV; writes class_summary.csv")
    report_p.add_argument("--ties", help="optional: ties CSV the space was built from (hashed)")
    report_p.set_defaults(func=cmd_report)

    synth_p = sub.add_parser("synth", help="generate a deterministic synthetic fixture")
    synth_p.add_argument("--out-dir", required=True)
    synth_p.add_argument("--n-per-class", type=int, default=559)
    synth_p.add_argument("--planted", type=int, default=20)
    synth_p.add_argument("--timeline-len", type=int, default=40)
    synth_p.add_argument("--noise", type=float, default=0.05)
    synth_p.add_argument("--seed", type=int, default=0)
    synth_p.add_argument(
        "--two-refute", type=int,
        help="debunkers with exactly two refutes (default: 216, or the class size if smaller)",
    )
    synth_p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except MissingInputError as exc:
        print(f"error: missing input: {exc}", file=sys.stderr)
        return 2
    except VersionMismatchError as exc:
        print(f"error: version mismatch: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
