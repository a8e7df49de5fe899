"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria that depend on
randomness use fixed seeds, so every run is deterministic.
"""

import time
from pathlib import Path

import numpy as np

from quotematch.behavior import (
    BehaviorLabel,
    LabelThresholds,
    UserStats,
    label_user,
)
from quotematch.cli import main
from quotematch.corpus import build_corpus
from quotematch.features import build_feature_space, encode_users, read_ties_csv, to_csr
from quotematch.matcher import (
    DEFAULT_REFUTE_PHRASES,
    MatchKind,
    MinHashParams,
    build_index,
    estimate_jaccard,
    match_post,
    minhash_signature,
)
from quotematch.model import (
    LogitHyperparams,
    _logistic_objective,
    cross_validate,
    top_coefficients,
    train_logit,
)
from quotematch.synth import SyntheticSpec, generate
from quotematch.textnorm import DIACRITICS, normalize_arabic

from synthdata import brute_force_best, random_match_fixture, zipf_match_fixture

N_FIXTURES = 20
THRESHOLD = 0.35


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def _matching_cases():
    """(name, fixture, shingle size): 20 random fixtures with disjoint noise
    words, and Zipf fixtures with shared words and planted edge cases."""
    for seed in range(N_FIXTURES):
        yield f"random seed {seed}", random_match_fixture(seed), 1
    for seed in range(3):
        fx = zipf_match_fixture(seed)
        yield f"zipf seed {seed}", fx, 1
        yield f"zipf seed {seed}, shingle-n 2", fx, 2


def test_matching_oracle_equivalence():
    """Pipeline matches == brute-force all-pairs: quote, kind and similarity bit for bit."""
    slowest = 0.0
    total_matches = 0
    for name, fx, shingle_n in _matching_cases():
        oracle = brute_force_best(fx, THRESHOLD, shingle_n)
        start = time.perf_counter()
        index = build_index(fx.corpus, shingle_n)
        got = {}
        for post_id, text in fx.posts:
            result = match_post(text, index, threshold=THRESHOLD, post_id=post_id)
            if result is not None:
                got[post_id] = (result.quote_id, result.kind.value, result.similarity)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        differing = {k for k in got.keys() | oracle.keys() if got.get(k) != oracle.get(k)}
        assert not differing, f"{name}: {len(differing)} differing matches, e.g. " + ", ".join(
            f"{k}: {got.get(k)} != {oracle.get(k)}" for k in sorted(differing)[:3]
        )
        assert oracle, f"{name}: the fixture plants no match"
        assert elapsed < 10.0, f"{name} took {elapsed:.1f}s (budget 10s)"
        total_matches += len(oracle)
    zipf = brute_force_best(zipf_match_fixture(0), THRESHOLD)
    planted = {p: zipf.get(p) for p in ("p00000", "p00001", "p00002", "p00003", "p00004")}
    assert planted == {
        "p00000": None,  # 7 of 20 words: exactly 0.35
        "p00001": ("q8", "circulation", 0.4),  # 8 of 20
        "p00002": None,  # 8 of 20 plus 3 unknown words: 8/23
        "p00003": ("q10", "non_fabricated_share", 0.875),  # ties with q9
        "p00004": None,  # no corpus word
    }, planted
    _report(
        "matching-oracle-equivalence",
        True,
        f"{N_FIXTURES} random and 3 Zipf fixtures (shingle-n 1 and 2) identical in quote, "
        f"kind and similarity, {total_matches} matches, slowest {slowest:.2f}s < 10s",
    )


def test_minhash_calibration():
    """Mean |estimate - exact| <= 2/sqrt(k); error spread within the 1/sqrt(k) bound."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    params = MinHashParams(seed=7)
    universe = [f"u{i:04d}" for i in range(2000)]
    errors = []
    for _ in range(1000):
        size_a = int(rng.integers(20, 300))
        size_b = int(rng.integers(20, 300))
        overlap = int(rng.integers(0, min(size_a, size_b) + 1))
        picks = rng.choice(universe, size=size_a + size_b - overlap, replace=False)
        a = frozenset(picks[:size_a])
        b = frozenset(picks[size_a - overlap :])
        exact = len(a & b) / len(a | b)
        est = estimate_jaccard(minhash_signature(a, params), minhash_signature(b, params))
        errors.append(est - exact)
    errors = np.asarray(errors)
    mean_abs = float(np.mean(np.abs(errors)))
    spread = float(np.std(errors))
    elapsed = time.perf_counter() - start
    ok = mean_abs <= 2 / 16 and spread <= 1.2 * (1 / 16) and elapsed < 30.0
    _report(
        "minhash-calibration",
        ok,
        f"mean|err|={mean_abs:.4f} (<=0.125), sd={spread:.4f} (<=0.075), {elapsed:.1f}s < 30s",
    )


def test_refute_rule_exhaustive_grid():
    """Every refute-term post matching a fabricated quote counts as a refute."""
    rng = np.random.default_rng(4)
    vocab = [f"g{i:03d}" for i in range(400)]
    rows = []
    for i in range(20):
        tokens = rng.choice(vocab, size=15, replace=False)
        rows.append((f"q{i:02d}", "fabricated", "grid", " ".join(tokens)))
    corpus, _ = build_corpus(rows)
    index = build_index(corpus)
    checked = 0
    for quote in corpus.quotes:
        for phrase in DEFAULT_REFUTE_PHRASES:
            result = match_post(quote.raw_text + " " + phrase, index, post_id="p")
            assert result is not None, (quote.id, phrase)
            assert result.kind is MatchKind.REFUTE, (quote.id, phrase, result.kind)
            assert result.kind is not MatchKind.CIRCULATION
            checked += 1
    _report("refute-rule", checked == 14 * 20, f"{checked}/280 grid posts counted as refutes")


def test_labeling_exhaustive_grid():
    """label_user reproduces the threshold rules over the whole grid."""
    thresholds = LabelThresholds()
    checked = 0
    for fabricated in range(0, 6):
        for total in range(1, 101):
            if fabricated > total:
                continue
            for refutes in range(0, 6):
                stats = UserStats("u", total, fabricated, refutes, 0.0)
                for mode, min_refutes in (("strict", 3), ("balance", 2)):
                    # Literal restatement of the shortlisting rules.
                    if fabricated >= 2 and fabricated / total > 0.05:
                        expected = BehaviorLabel.CIRCULATOR
                    elif fabricated == 0 and refutes >= min_refutes:
                        expected = BehaviorLabel.DEBUNKER
                    else:
                        expected = BehaviorLabel.NEITHER
                    got = label_user(stats, thresholds, mode=mode)
                    assert got is expected, (fabricated, total, refutes, mode, got)
                    checked += 1
    # Spot-check the 5% boundary is strict: 2/40 == 0.05 exactly.
    assert label_user(UserStats("u", 40, 2, 0, 0.0)) is BehaviorLabel.NEITHER
    _report("labeling-grid", True, f"{checked} grid cells match the rules exactly")


def test_model_recovery_on_planted_synthetic():
    """CV accuracy >= 0.95 and >= 8/10 top coefficients planted, per sign."""
    start = time.perf_counter()
    spec = SyntheticSpec(seed=17)  # 559 per class, 20 planted, 5% label noise
    out = Path("/tmp/qm_accept_recovery")
    paths = generate(spec, out)
    ties = read_ties_csv(paths.ties)
    truth = dict(
        line.split(",")
        for line in paths.truth.read_text(encoding="utf-8").splitlines()[1:]
    )
    space = build_feature_space(ties)
    vectors, _ = encode_users(ties, space)
    X = to_csr(vectors, space.n_columns)
    y = np.array([1.0 if truth[v.user_id] == "circulator" else -1.0 for v in vectors])

    hp = LogitHyperparams(seed=17)
    metrics = cross_validate(X, y, hp, repeats=10)
    model = train_logit(X, y, hp)
    report = top_coefficients(model, space, k=10)
    planted_circ = {f"circ_hub_{i:03d}" for i in range(spec.planted_per_class)}
    planted_deb = {f"deb_hub_{i:03d}" for i in range(spec.planted_per_class)}
    pos_hits = sum(1 for (target, _), _ in report.top_positive if target in planted_circ)
    neg_hits = sum(1 for (target, _), _ in report.top_negative if target in planted_deb)
    elapsed = time.perf_counter() - start
    ok = metrics.accuracy >= 0.95 and pos_hits >= 8 and neg_hits >= 8 and elapsed < 60.0
    _report(
        "model-recovery",
        ok,
        f"cv accuracy={metrics.accuracy:.4f} (>=0.95), planted in top-10: "
        f"+{pos_hits}/10, -{neg_hits}/10 (>=8), {elapsed:.1f}s < 60s",
    )


def test_gradient_matches_finite_differences_50_instances():
    rng = np.random.default_rng(123)
    worst = 0.0
    instances = 0
    while instances < 50:
        n, d = int(rng.integers(4, 25)), int(rng.integers(2, 10))
        X = rng.normal(size=(n, d))
        y = rng.choice([-1.0, 1.0], size=n)
        if len(np.unique(y)) < 2:
            continue
        w = rng.normal(size=d)
        b = float(rng.normal())
        l2 = float(rng.uniform(0.0, 3.0))
        objective = _logistic_objective(X, y, l2)

        def loss(w_, b_):
            return objective(np.append(w_, b_))[0]

        eps = 1e-6
        fd = np.empty(d + 1)
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            fd[j] = (loss(wp, b) - loss(wm, b)) / (2 * eps)
        fd[d] = (loss(w, b + eps) - loss(w, b - eps)) / (2 * eps)
        analytic = objective(np.append(w, b))[1]
        rel = float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12))
        worst = max(worst, rel)
        instances += 1
    _report(
        "gradient-check", worst <= 1e-5, f"50 instances, worst relative error {worst:.2e} <= 1e-5"
    )


def _fuzz_corpus(n: int = 1000) -> list[str]:
    rng = np.random.default_rng(55)
    arabic = "ابتثجحخدذرزسشصضطظعغفقكلمنهويءأإآةىؤئ"
    pieces = (
        [c for c in arabic]
        + sorted(DIACRITICS)
        + ["كلمة", "النبي", "text", "Latin", "123", "٤٥٦", "😀", "🔥", "🙏", "​", "﻿"]
        + [" ", "  ", "\t", "\n", ".", "،", "؟", "!", "#وسم_طويل", "@someone",
           "https://example.com/x?y=1", "www.site.org/path", "_", '"', "«", "»", "ـ"]
    )
    corpus = []
    for _ in range(n):
        k = int(rng.integers(0, 60))
        corpus.append("".join(rng.choice(pieces, size=k)))
    return corpus


def test_normalization_fuzz_invariants():
    corpus = _fuzz_corpus(1000)
    for raw in corpus:
        once = normalize_arabic(raw)
        assert normalize_arabic(once) == once, repr(raw)
        assert not set(once) & DIACRITICS, repr(raw)
        assert "ـ" not in once
        assert len(once) <= len(raw), repr(raw)
        assert once == once.strip() and "  " not in once
    _report("normalization-fuzz", True, "1000 mixed strings idempotent and diacritic-free")


def _run_cli_pipeline(
    root: Path, seed: int, n_per_class: int, timeline_len: int = 24, two_refute: int | None = None
) -> Path:
    fixture = root / "fixture"
    work = root / "work"
    work.mkdir(parents=True, exist_ok=True)
    if two_refute is None:
        two_refute = min(216, max(1, n_per_class // 3))
    steps = [
        ["synth", "--out-dir", str(fixture), "--n-per-class", str(n_per_class),
         "--timeline-len", str(timeline_len), "--seed", str(seed),
         "--two-refute", str(two_refute)],
        ["corpus", "build", "--input", str(fixture / "corpus.tsv"),
         "--out", str(work / "corpus.tsv")],
        ["index", "--corpus", str(work / "corpus.tsv"), "--out", str(work / "index.bin")],
        ["scan", "--index", str(work / "index.bin"), "--corpus", str(work / "corpus.tsv"),
         "--timelines", str(fixture / "timelines"), "--out-stats", str(work / "stats.csv"),
         "--out-matches", str(work / "matches.jsonl")],
        ["label", "--stats", str(work / "stats.csv"), "--out", str(work / "labeled.csv")],
        ["features", "--ties", str(fixture / "ties.csv"), "--labeled", str(work / "labeled.csv"),
         "--out-space", str(work / "space.json"), "--out-vectors", str(work / "vectors.jsonl")],
        ["train", "--space", str(work / "space.json"), "--vectors", str(work / "vectors.jsonl"),
         "--labeled", str(work / "labeled.csv"), "--out-model", str(work / "model.json"),
         "--out-metrics", str(work / "metrics.csv"), "--seed", str(seed), "--repeats", "5"],
        ["report", "--model", str(work / "model.json"), "--space", str(work / "space.json"),
         "--out-dir", str(work / "report"), "--labeled", str(work / "labeled.csv"),
         "--ties", str(fixture / "ties.csv")],
    ]
    for argv in steps:
        rc = main(argv)
        assert rc == 0, f"step {argv[0]} exited {rc}"
    return work


def test_synthetic_replica_at_paper_scale(tmp_path):
    """Full pipeline at 1,118 users emits a class/macro-shaped metrics report."""
    work = _run_cli_pipeline(tmp_path, seed=23, n_per_class=559, two_refute=216)
    labeled_lines = (work / "labeled.csv").read_text().splitlines()[1:]
    n_circ = sum(1 for line in labeled_lines if line.endswith(",circulator"))
    n_deb = sum(1 for line in labeled_lines if line.endswith(",debunker"))
    assert (n_circ, n_deb) == (559, 559), f"got {n_circ}/{n_deb}"
    # The debunker side decomposes as 343 strict refuters topped up by 216
    # two-refute users, mirroring the shortlisting narrative.
    strict = balance = 0
    for line in labeled_lines:
        parts = line.split(",")
        if parts[5] == "debunker":
            strict += int(parts[3]) >= 3
            balance += int(parts[3]) == 2
    assert (strict, balance) == (343, 216), f"got {strict}/{balance}"

    metrics_lines = (work / "metrics.csv").read_text().splitlines()
    assert metrics_lines[0] == "group,accuracy,precision,recall,f1"
    groups = [line.split(",")[0] for line in metrics_lines[1:]]
    assert groups == ["Circulators", "Debunkers", "Macro"]
    macro = metrics_lines[3].split(",")
    values = [float(v) for v in macro[1:]]
    assert all(0.0 <= v <= 1.0 for v in values)
    _report(
        "synthetic-replica",
        True,
        f"559/559 labeled; macro accuracy {values[0]:.3f}; metrics report emitted",
    )


def test_pipeline_determinism_byte_identical(tmp_path):
    """Two runs with identical seeds produce byte-identical artifacts."""

    def tree(root: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    run_a = _run_cli_pipeline(tmp_path / "a", seed=77, n_per_class=40)
    run_b = _run_cli_pipeline(tmp_path / "b", seed=77, n_per_class=40)
    tree_a, tree_b = tree(run_a.parent), tree(run_b.parent)
    assert tree_a.keys() == tree_b.keys()
    differing = [name for name in tree_a if tree_a[name] != tree_b[name]]
    assert not differing, f"artifacts differ: {differing}"
    _report(
        "pipeline-determinism",
        True,
        f"{len(tree_a)} artifacts byte-identical across two seeded runs",
    )
