import numpy as np
import pytest
from scipy import sparse

from quotematch.features import TieKind, build_feature_space, tie_table
from quotematch.model import (
    CoefficientReport,
    LogitHyperparams,
    categorize_report,
    compute_metrics,
    cross_validate,
    evaluate,
    hessian_product,
    load_model,
    loss_and_grad,
    predict_labels,
    save_model,
    top_coefficients,
    train_logit,
)


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
