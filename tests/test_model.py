import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import minimize, rosen, rosen_der, rosen_hess_prod

from quotematch.features import (
    TieKind, build_feature_space, encode_users, read_ties_csv, tie_table, to_csr,
)
from quotematch.model import (
    CoefficientReport,
    LogitHyperparams,
    categorize_report,
    compute_metrics,
    cross_validate,
    distinct_columns,
    evaluate,
    hessian_product,
    load_model,
    loss_and_grad,
    predict_labels,
    save_model,
    top_coefficients,
    train_and_validate,
    train_logit,
    _trust_ncg,
)
from quotematch.synth import SyntheticSpec, generate


def loss(w, b, X, y, l2):
    return loss_and_grad(w, b, X, y, l2)[0]


HP = LogitHyperparams(l2_strength=0.1, max_iters=2000, tolerance=1e-8, seed=0)


def _separable(n=40, seed=0):
    rng = np.random.default_rng(seed)
    y = np.array([1.0] * (n // 2) + [-1.0] * (n // 2))
    X = np.zeros((n, 3))
    X[:, 0] = (y > 0).astype(float)
    X[:, 1] = (y < 0).astype(float)
    X[:, 2] = rng.random(n)
    return X, y


def _space(n):
    return build_feature_space(tie_table(("u", f"t{i:03d}", TieKind.FOLLOW) for i in range(n)))


def test_train_separable_single_feature():
    y = np.array([1.0, 1.0, -1.0, -1.0])
    X = np.array([[1.0], [1.0], [0.0], [0.0]])
    model = train_logit(X, y, HP)
    assert model.weights[0] > 0
    assert evaluate(model, X, y).accuracy == 1.0


def test_train_label_flip_negates_weights():
    X, y = _separable()
    m1 = train_logit(X, y, HP)
    m2 = train_logit(X, -y, HP)
    assert np.allclose(m1.weights, -m2.weights, atol=1e-9)
    assert m1.bias == pytest.approx(-m2.bias, abs=1e-9)


def test_train_deterministic():
    X, y = _separable()
    m1 = train_logit(X, y, HP)
    m2 = train_logit(X, y, HP)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias


def test_train_loss_monotonically_decreases():
    X, y = _separable(seed=3)
    model = train_logit(X, y, HP)
    hist = model.loss_history
    assert len(hist) > 2
    assert all(b <= a for a, b in zip(hist, hist[1:]))


def test_train_single_class_error():
    X = np.ones((4, 2))
    with pytest.raises(ValueError, match="single class"):
        train_logit(X, np.ones(4), HP)


def test_train_bad_labels_error():
    X = np.ones((4, 2))
    with pytest.raises(ValueError):
        train_logit(X, np.array([0.0, 1.0, 0.0, 1.0]), HP)


def test_train_nonconvergence_warns():
    X, y = _separable()
    with pytest.warns(RuntimeWarning, match="gradient norm"):
        train_logit(X, y, LogitHyperparams(max_iters=1, tolerance=1e-14))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n, d = int(rng.integers(5, 20)), int(rng.integers(2, 8))
        X = rng.normal(size=(n, d))
        y = rng.choice([-1.0, 1.0], size=n)
        if len(np.unique(y)) < 2:
            continue
        w = rng.normal(size=d)
        b = float(rng.normal())
        l2 = float(rng.uniform(0.0, 2.0))
        _, gw, gb = loss_and_grad(w, b, X, y, l2)
        eps = 1e-6
        fd = np.empty(d + 1)
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            fd[j] = (loss(wp, b, X, y, l2) - loss(wm, b, X, y, l2)) / (2 * eps)
        fd[d] = (loss(w, b + eps, X, y, l2) - loss(w, b - eps, X, y, l2)) / (2 * eps)
        analytic = np.append(gw, gb)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12)
        assert rel <= 1e-5


def test_hessian_product_matches_gradient_differences():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n, d = int(rng.integers(5, 20)), int(rng.integers(2, 8))
        X = rng.normal(size=(n, d))
        y = rng.choice([-1.0, 1.0], size=n)
        w, b = rng.normal(size=d), float(rng.normal())
        v_w, v_b = rng.normal(size=d), float(rng.normal())
        l2 = float(rng.uniform(0.0, 2.0))
        eps = 1e-6
        _, gw_p, gb_p = loss_and_grad(w + eps * v_w, b + eps * v_b, X, y, l2)
        _, gw_m, gb_m = loss_and_grad(w - eps * v_w, b - eps * v_b, X, y, l2)
        fd = np.append(gw_p - gw_m, gb_p - gb_m) / (2 * eps)
        analytic = hessian_product(w, b, X, y, l2, np.append(v_w, v_b))
        assert np.linalg.norm(analytic - fd) <= 1e-6 * max(np.linalg.norm(analytic), 1.0)


def test_train_sparse_and_dense_agree_and_converge():
    X, y = _separable(seed=2)
    dense = train_logit(X, y, HP)
    packed = train_logit(sparse.csr_matrix(X), y, HP)
    assert dense.converged and packed.converged
    assert dense.final_grad_norm <= HP.tolerance
    assert np.allclose(dense.weights, packed.weights, atol=1e-10)
    assert dense.bias == pytest.approx(packed.bias, abs=1e-10)
    _, gw, gb = loss_and_grad(dense.weights, dense.bias, X, y, HP.l2_strength)
    assert np.sqrt(gw @ gw + gb * gb) <= HP.tolerance


def test_duplicating_example_never_flips_predictions():
    X, y = _separable(seed=1)
    X_test = np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.7], [1.0, 0.0, 0.9]])
    base = predict_labels(train_logit(X, y, HP), X_test)
    X_dup = np.vstack([X, X[0]])
    y_dup = np.append(y, y[0])
    dup = predict_labels(train_logit(X_dup, y_dup, HP), X_test)
    assert np.array_equal(base, dup)


def test_evaluate_all_correct():
    y = np.array([1.0, -1.0, 1.0, -1.0])
    m = compute_metrics(y, y)
    assert m.accuracy == 1.0
    assert m.per_class[1].f1 == 1.0 and m.per_class[-1].f1 == 1.0


def test_evaluate_single_class_predictions_on_balanced():
    y_true = np.array([1.0, 1.0, -1.0, -1.0])
    y_pred = np.ones(4)
    m = compute_metrics(y_true, y_pred)
    assert m.accuracy == 0.5
    assert m.per_class[1].recall == 1.0
    assert m.per_class[1].precision == 0.5
    assert m.per_class[-1].precision == 0.0 and m.per_class[-1].recall == 0.0


def test_metrics_identities_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(4, 60))
        y_true = rng.choice([-1.0, 1.0], size=n)
        y_pred = rng.choice([-1.0, 1.0], size=n)
        m = compute_metrics(y_true, y_pred)
        assert m.macro_f1 == pytest.approx(
            (m.per_class[1].f1 + m.per_class[-1].f1) / 2
        )
        # accuracy == trace of the confusion matrix over total
        tp = np.sum((y_true == 1) & (y_pred == 1))
        tn = np.sum((y_true == -1) & (y_pred == -1))
        assert m.accuracy == pytest.approx((tp + tn) / n)


def test_evaluate_dimension_mismatch():
    X, y = _separable()
    model = train_logit(X, y, HP)
    with pytest.raises(ValueError, match="columns"):
        predict_labels(model, np.ones((3, 5)))


def test_cross_validate_separable_high_accuracy():
    X, y = _separable(n=100, seed=2)
    metrics = cross_validate(X, y, HP, repeats=5)
    assert metrics.accuracy >= 0.99


def test_cross_validate_permuted_labels_chance_level():
    rng = np.random.default_rng(7)
    X, y = _separable(n=100, seed=2)
    y_perm = rng.permutation(y)
    metrics = cross_validate(X, y_perm, LogitHyperparams(seed=7), repeats=20)
    assert abs(metrics.accuracy - 0.5) <= 0.1


def test_cross_validate_too_small_to_stratify():
    X = np.ones((3, 2))
    y = np.array([1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="stratify"):
        cross_validate(X, y, HP)


def test_top_coefficients_example():
    space = _space(3)
    model = train_logit(np.eye(3)[np.array([0, 1, 0, 1]) % 3],
                        np.array([1.0, -1.0, 1.0, -1.0]), HP)
    model.weights = np.array([3.0, -2.0, 1.0])
    report = top_coefficients(model, space, k=3)
    assert [w for _, w in report.top_positive] == [3.0, 1.0]
    assert [w for _, w in report.top_negative] == [-2.0]
    assert report.top_positive[0][0] == ("t000", TieKind.FOLLOW)


def test_top_coefficients_equal_weights_break_ties_by_column():
    space = _space(7)
    model = train_logit(np.eye(7)[np.arange(8) % 7], np.array([1.0, -1.0] * 4), HP)
    model.weights = np.array([0.5, -1.0, 2.0, 0.5, -1.0, 0.0, 0.5])
    report = top_coefficients(model, space, k=3)
    assert [(t, w) for (t, _), w in report.top_positive] == [
        ("t002", 2.0), ("t000", 0.5), ("t003", 0.5)]
    assert [(t, w) for (t, _), w in report.top_negative] == [("t001", -1.0), ("t004", -1.0)]


def test_top_coefficients_k_zero():
    space = _space(2)
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    model = train_logit(X, np.array([1.0, -1.0, 1.0, -1.0]), HP)
    report = top_coefficients(model, space, k=0)
    assert report.top_positive == () and report.top_negative == ()


def test_top_coefficients_k_too_large():
    space = _space(2)
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    model = train_logit(X, np.array([1.0, -1.0, 1.0, -1.0]), HP)
    with pytest.raises(ValueError, match="exceeds"):
        top_coefficients(model, space, k=5)


def test_categorize_empty_map_all_unlabeled():
    report = CoefficientReport(
        top_positive=((("a", TieKind.FOLLOW), 1.0), (("b", TieKind.FOLLOW), 0.5)),
        top_negative=((("c", TieKind.FOLLOW), -0.5),),
    )
    counts = categorize_report(report, {})
    assert counts == {"positive": {"Unlabeled": 2}, "negative": {"Unlabeled": 1}}


def test_categorize_single_category():
    report = CoefficientReport(
        top_positive=tuple(((f"t{i}", TieKind.FOLLOW), 1.0) for i in range(5)),
        top_negative=(),
    )
    counts = categorize_report(report, {f"t{i}": "Pages" for i in range(5)})
    assert counts["positive"] == {"Pages": 5}


def test_categorize_counts_conserved():
    report = CoefficientReport(
        top_positive=tuple(((f"p{i}", TieKind.FOLLOW), 1.0) for i in range(7)),
        top_negative=tuple(((f"n{i}", TieKind.FOLLOW), -1.0) for i in range(4)),
    )
    counts = categorize_report(report, {"p0": "A", "p1": "A", "n0": "B"})
    assert sum(counts["positive"].values()) == 7
    assert sum(counts["negative"].values()) == 4


def test_model_save_load_roundtrip(tmp_path):
    X, y = _separable()
    model = train_logit(X, y, HP)
    path = tmp_path / "model.json"
    save_model(model, path, space_hash="h1")
    loaded, space_hash = load_model(path)
    assert np.allclose(loaded.weights, model.weights)
    assert loaded.bias == pytest.approx(model.bias)
    assert loaded.hyperparams == model.hyperparams
    assert space_hash == "h1"


# ---------------------------------------------------------------------------
# Distinct columns and warm starts


def _theta(model):
    return np.append(model.weights, model.bias)


def _noisy(n=80, d=4, seed=0):
    """Dense features with labels that no hyperplane separates."""
    rng = np.random.default_rng(seed)
    X = (rng.random((n, d)) < 0.4).astype(float)
    y = np.where(X[:, 0] - X[:, 1] + rng.normal(0, 1, n) > 0, 1.0, -1.0)
    return X, y


def test_copied_column_fits_as_that_column_scaled_by_sqrt_k():
    X, y = _noisy()
    k = 3
    copied = np.hstack([np.repeat(X[:, :1], k, axis=1), X[:, 1:]])
    scaled = X.copy()
    scaled[:, 0] *= np.sqrt(k)
    m_copied = train_logit(copied, y, HP)
    m_scaled = train_logit(scaled, y, HP)
    assert np.allclose(m_copied.weights[:k], m_scaled.weights[0] / np.sqrt(k), atol=1e-7)
    assert np.allclose(m_copied.weights[k:], m_scaled.weights[1:], atol=1e-7)
    assert m_copied.bias == pytest.approx(m_scaled.bias, abs=1e-7)
    design = distinct_columns(copied)
    assert np.array_equal(design.X.toarray(), scaled)
    assert design.group.tolist() == [0] * k + [1, 2, 3]


def _duplicated_sparse(seed):
    """A random binary design of 60 columns drawn from 12 distinct ones."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(70) < 0.5, 1.0, -1.0)
    base = (rng.random((70, 12)) < 0.15).astype(float)
    base[:, 0] = y > 0  # one informative column, so the fit is not trivial
    X = base[:, rng.integers(0, 12, size=60)]
    return X, y


@pytest.mark.parametrize("as_matrix", [np.asarray, sparse.csr_matrix], ids=["dense", "csr"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_on_distinct_columns_equals_fit_on_all(as_matrix, seed):
    X, y = _duplicated_sparse(seed)
    full = train_logit(as_matrix(X), y, HP)
    design = distinct_columns(as_matrix(X))
    collapsed = design.expand(train_logit(design.X, y, HP))
    n_groups = design.X.shape[1]
    assert n_groups < X.shape[1]
    # Groups are numbered by first column and hold exactly the equal columns.
    firsts = [int(np.flatnonzero(design.group == g)[0]) for g in range(n_groups)]
    assert firsts == sorted(firsts)
    for i in range(X.shape[1]):
        for j in range(X.shape[1]):
            assert (design.group[i] == design.group[j]) == np.array_equal(X[:, i], X[:, j])
    assert np.allclose(collapsed.weights, full.weights, atol=1e-7)
    assert collapsed.bias == pytest.approx(full.bias, abs=1e-7)
    assert collapsed.final_grad_norm <= HP.tolerance


def test_distinct_columns_compare_values_not_only_pattern():
    X = sparse.csr_matrix(np.array([[1.0, 2.0, 1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]]))
    assert distinct_columns(X).group.tolist() == [0, 1, 0]


def test_permuting_columns_permutes_expanded_weights():
    X, y = _duplicated_sparse(3)
    perm = np.random.default_rng(9).permutation(X.shape[1])
    design, design_p = distinct_columns(sparse.csr_matrix(X)), distinct_columns(X[:, perm])
    m = design.expand(train_logit(design.X, y, HP))
    m_p = design_p.expand(train_logit(design_p.X, y, HP))
    assert np.allclose(m_p.weights, m.weights[perm], atol=1e-9)
    assert m_p.bias == pytest.approx(m.bias, abs=1e-9)
    assert sorted(design_p.scale) == sorted(design.scale)
    assert len(m_p.loss_history) == len(m.loss_history)
    assert np.allclose(m_p.loss_history, m.loss_history, rtol=1e-12)


def test_zero_l2_gives_the_group_equal_minimizer():
    X, y = _noisy(n=200, d=3, seed=4)
    X = X[:, [0, 1, 0, 2, 1, 0]]
    hp = LogitHyperparams(l2_strength=0.0, tolerance=1e-9)
    full = train_logit(X, y, hp)
    design = distinct_columns(X)
    collapsed = design.expand(train_logit(design.X, y, hp))
    w = collapsed.weights
    assert w[0] == w[2] == w[5] and w[1] == w[4]
    assert loss(w, collapsed.bias, X, y, 0.0) == pytest.approx(
        loss(full.weights, full.bias, X, y, 0.0), abs=1e-9
    )


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """Tie matrix and true labels of a small planted synthetic fixture."""
    paths = generate(
        SyntheticSpec(n_per_class=30, seed=11, two_refute_debunkers=10),
        tmp_path_factory.mktemp("planted"),
    )
    truth = dict(
        line.split(",") for line in paths.truth.read_text(encoding="utf-8").splitlines()[1:]
    )
    ties = read_ties_csv(paths.ties)
    space = build_feature_space(ties)
    vectors, _ = encode_users(ties, space)
    y = np.array([1.0 if truth[v.user_id] == "circulator" else -1.0 for v in vectors])
    return to_csr(vectors, space.n_columns), y


def test_warm_started_folds_equal_cold_started_folds(planted):
    X, y = planted
    hp = LogitHyperparams(seed=5)
    design = distinct_columns(X)
    assert design.X.shape[1] < X.shape[1]
    final, warm = train_and_validate(design, y, hp, repeats=10)
    cold = cross_validate(design.X, y, hp, repeats=10)
    assert warm == cold
    assert cross_validate(X, y, hp, repeats=10) == cold
    assert np.allclose(final.weights, train_logit(X, y, hp).weights, atol=1e-6)


def test_train_rejects_start_of_wrong_length():
    X, y = _separable()
    with pytest.raises(ValueError, match="start has shape"):
        train_logit(X, y, HP, start=np.zeros(X.shape[1]))
    with pytest.raises(ValueError, match="start has shape"):
        cross_validate(X, y, HP, repeats=1, start=np.zeros(X.shape[1] + 2))


def test_loss_history_starts_at_the_start():
    X, y = _noisy(seed=6)
    cold = train_logit(X, y, HP)
    assert cold.loss_history[0] == loss(np.zeros(X.shape[1]), 0.0, X, y, HP.l2_strength)
    start = _theta(cold) + 0.3
    warm = train_logit(X, y, HP, start=start)
    assert warm.loss_history[0] == loss(start[:-1], start[-1], X, y, HP.l2_strength)
    assert all(b < a for a, b in zip(warm.loss_history, warm.loss_history[1:]))
    assert 1 <= len(warm.loss_history) - 1 < len(cold.loss_history) - 1
    # From the optimum itself the fit takes no step, even when allowed one.
    again = train_logit(X, y, LogitHyperparams(l2_strength=0.1, tolerance=1e-8, max_iters=1),
                        start=_theta(cold))
    assert again.converged and len(again.loss_history) == 1
    assert np.array_equal(_theta(again), _theta(cold))


# ---------------------------------------------------------------------------
# The solver against scipy's trust-ncg, which it ports


def _scipy_trust_ncg(fun_and_grad, hessp, x0, gtol, maxiter):
    """scipy's ``minimize(method="trust-ncg")``: its result and the value at
    the start followed by the value after each accepted step."""
    values = [fun_and_grad(x0)[0]]

    def record(intermediate_result):
        # Called after every iteration; a rejected step leaves the value as is.
        if intermediate_result.fun < values[-1]:
            values.append(intermediate_result.fun)

    result = minimize(fun_and_grad, x0, method="trust-ncg", jac=True, hessp=hessp,
                      callback=record, options={"gtol": gtol, "maxiter": maxiter})
    return result, values


def _logistic_problem(seed, separable=False):
    rng = np.random.default_rng(seed)
    n, d = 60, 25
    X = (rng.random((n, d)) < 0.3) * rng.uniform(0.5, 2.0, (n, d))
    if separable:
        y = np.where(X[:, 0] > X[:, 1], 1.0, -1.0)
        X[:, 0], X[:, 1] = (y > 0) * 1.5, (y < 0) * 0.8
    else:
        y = np.where(X[:, :5].sum(axis=1) + rng.normal(0, 1, n) > 1.5, 1.0, -1.0)
    return X, y


@pytest.mark.parametrize(
    "as_matrix,l2,separable,warm,max_iters",
    [
        (np.asarray, 1.0, False, False, 5000),
        (sparse.csr_matrix, 1.0, False, False, 5000),
        (np.asarray, 0.0, True, False, 5000),
        (sparse.csr_matrix, 0.0, True, False, 5000),
        (np.asarray, 1.0, False, True, 5000),
        (sparse.csr_matrix, 0.1, False, True, 5000),
        (np.asarray, 1.0, False, False, 1),
        (sparse.csr_matrix, 0.0, True, True, 1),
    ],
    ids=["dense", "csr", "dense-l2-0", "csr-l2-0", "warm", "csr-warm", "one-iter", "csr-one-iter"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_train_logit_takes_scipys_trust_ncg_steps(as_matrix, l2, separable, warm, max_iters, seed):
    X, y = _logistic_problem(seed, separable)
    X = as_matrix(X)
    hp = LogitHyperparams(l2_strength=l2, max_iters=max_iters, tolerance=1e-6)
    start = None
    if warm:
        start = np.random.default_rng(seed + 100).normal(0.0, 0.5, X.shape[1] + 1)

    def fun_and_grad(theta):
        value, grad_w, grad_b = loss_and_grad(theta[:-1], theta[-1], X, y, l2)
        return value, np.append(grad_w, grad_b)

    def hessp(theta, v):
        return hessian_product(theta[:-1], theta[-1], X, y, l2, v)

    x0 = np.zeros(X.shape[1] + 1) if start is None else start.copy()
    expected, values = _scipy_trust_ncg(fun_and_grad, hessp, x0, hp.tolerance, max_iters)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = train_logit(X, y, hp, start)
    assert len(model.loss_history) == len(values) > 1
    np.testing.assert_allclose(model.loss_history, values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(_theta(model), expected.x, rtol=0, atol=1e-12)
    assert model.converged == expected.success
    warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(warned) == (not model.converged)
    if max_iters == 1:
        assert not model.converged and "gradient norm" in str(warned[0].message)


@pytest.mark.parametrize("x0", [[-1.2, 1.0], [0.0, 2.0], [-0.5, 1.5, 0.7, -1.0], [1.3, 0.7, 0.8, 1.9]])
def test_trust_ncg_matches_scipy_on_an_indefinite_hessian(x0):
    """Rosenbrock's Hessian is indefinite away from the valley, so the CG
    steps meet non-positive curvature as well as the region's boundary."""
    x0 = np.array(x0)
    expected, values = _scipy_trust_ncg(lambda x: (rosen(x), rosen_der(x)), rosen_hess_prod,
                                        x0, 1e-8, 200)
    x, grad, ours = _trust_ncg(lambda x: (rosen(x), rosen_der(x)), rosen_hess_prod,
                               x0.copy(), 1e-8, 200)
    assert len(ours) == len(values) > 1
    np.testing.assert_allclose(ours, values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(x, expected.x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grad, expected.jac, rtol=0, atol=1e-12)
