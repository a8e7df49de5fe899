"""Logistic-regression tie classifier, evaluation and coefficient reports.

Training minimizes the L2-regularized logistic loss with LIBLINEAR's
trust-region Newton method (Lin, Weng & Keerthi, JMLR 2008) on exact
Hessian-vector products. The solver, :func:`_trust_ncg`, is this module's port
of scipy's ``trust-ncg`` (its trust-region driver and Steihaug CG subproblem,
scipy 1.17) and takes the same steps, so no stage imports ``scipy.optimize``.
Its objective, :func:`_logistic_objective`, maps a point to its loss, its
gradient and ``hessp``, the Hessian there times a vector. The Hessian depends
on the point only through the curvature weights p(1 - p) of its margins, so
each point computes them once and every CG step of the subproblem solved at
that point reuses them. Reproducible coefficients are the point; there is no
stochastic path.

The ``train`` stage fits on distinct columns (:func:`distinct_columns`): each
group of k identical columns becomes one column scaled by √k, and a weight v
fitted there expands to v/√k on every column of its group. Under an L2 penalty
identical columns get identical weights at the optimum (the grouping effect:
Zou & Hastie, JRSS-B 2005), and on such weights the map is an isometry that
keeps the loss and the gradient norm, so the optimum does not move. With
``l2_strength`` 0 the optimum is not unique and the fit returns the one that
is equal within each group. The stage fits the final model from zero, then
starts each cross-validation fold from it (:func:`train_and_validate`). For
``l2_strength`` > 0 each fold's objective is strictly convex, so its optimum
does not depend on the start; only where the fit stops within the gradient-norm
tolerance moves. Cross-validation is the paper's 10 seeded, stratified 90/10
splits; the 90/10 fraction is fixed, only the number of splits is a setting.
Each fold scores its test rows with ten numbers (per-class precision, recall
and F1, accuracy, and the macro averages: :class:`Metrics`), and
cross-validation reports the mean of each over the folds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .artifacts import read_json, write_json
from .features import FeatureSpace, TieKind

if TYPE_CHECKING:
    from scipy import sparse


@dataclass(frozen=True)
class LogitHyperparams:
    l2_strength: float = 1.0
    max_iters: int = 5000
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.l2_strength < 0:
            raise ValueError("l2_strength must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


DEFAULT_HYPERPARAMS = LogitHyperparams()

_TEST_FRACTION = 0.1  # each fold tests on this share of each class


@dataclass
class LogitModel:
    weights: np.ndarray
    bias: float
    hyperparams: LogitHyperparams
    converged: bool
    final_grad_norm: float
    loss_history: list[float]

    @property
    def n_columns(self) -> int:
        return len(self.weights)


def _logistic_objective(X, y: np.ndarray, l2_strength: float):
    """The mean logistic loss of labels ``y`` in {+1, -1} plus (l2/2N)||w||^2,
    as ``objective(theta) -> (loss, gradient, hessp)`` with theta the weights
    then the bias (unregularized).

    At the margins ``m = y (X w + b)``, ``hessp(v)`` for ``v = (v_w, v_b)`` is
    ``(X^T u + (l2/N) v_w, sum(u))`` with ``u = p(1 - p) (X v_w + v_b) / N`` and
    ``p = sigmoid(m)``; the weights ``p(1 - p)`` are computed once per point."""
    # Local scipy import: of the CLI stages only `train` needs it (~0.2 s to import).
    from scipy.special import expit

    n = X.shape[0]

    def objective(theta: np.ndarray):
        w = theta[:-1]
        m = y * (np.asarray(X @ w).ravel() + theta[-1])
        loss = float(np.logaddexp(0.0, -m).sum() / n + 0.5 * l2_strength * float(w @ w) / n)
        r = y * expit(-m)  # d/dz of log(1+exp(-y z)) is -y*sigmoid(-y z)
        grad = np.append(
            -np.asarray(X.T @ r).ravel() / n + (l2_strength / n) * w, -float(r.sum()) / n
        )
        p = expit(m)
        curvature = p * (1.0 - p)

        def hessp(v: np.ndarray) -> np.ndarray:
            u = curvature * (np.asarray(X @ v[:-1]).ravel() + v[-1]) / n
            return np.append(np.asarray(X.T @ u).ravel() + (l2_strength / n) * v[:-1], u.sum())

        return loss, grad, hessp

    return objective


def _boundary_steps(z: np.ndarray, d: np.ndarray, radius: float) -> list[float]:
    """Both t with ||z + t d|| = radius, low to high (the cancellation-free root pair)."""
    a = np.dot(d, d)
    b = 2 * np.dot(z, d)
    c = np.dot(z, z) - radius**2
    aux = b + math.copysign(math.sqrt(b * b - 4 * a * c), b)
    return sorted([-aux / (2 * a), -2 * c / aux])


def _steihaug_cg(g: np.ndarray, g_norm: float, hessp, model, radius: float):
    """A step p with ||p|| <= radius that lowers ``model(p)``, the quadratic
    model f + g.p + p.Hp/2 with ``hessp(v)`` = Hv: Steihaug's conjugate
    gradients (Nocedal & Wright, 2nd ed., Alg. 7.2). Returns the step and
    whether it ends on the boundary."""
    tolerance = min(0.5, math.sqrt(g_norm)) * g_norm
    # scipy's early return for ||g|| < tolerance is left out: it cannot fire for ||g|| > 0.
    z, r, d = np.zeros_like(g), g, -g
    while True:
        Bd = hessp(d)
        dBd = np.dot(d, Bd)
        if dBd <= 0:
            # Non-positive curvature: of the two boundary points along d, the lower model.
            ta, tb = _boundary_steps(z, d, radius)
            pa, pb = z + ta * d, z + tb * d
            return (pa if model(pa) < model(pb) else pb), True
        r_squared = np.dot(r, r)
        alpha = r_squared / dBd
        z_next = z + alpha * d
        if np.linalg.norm(z_next) >= radius:
            return z + _boundary_steps(z, d, radius)[1] * d, True
        r_next = r + alpha * Bd
        r_next_squared = np.dot(r_next, r_next)
        if math.sqrt(r_next_squared) < tolerance:
            return z_next, False
        d = -r_next + (r_next_squared / r_squared) * d
        z, r = z_next, r_next


def _trust_ncg(fun, x: np.ndarray, gtol: float, maxiter: int):
    """Minimize ``fun(x) -> (value, gradient, hessp)`` by trust-region
    Newton-CG, where ``hessp(v)`` is the Hessian at x times v.

    Each subproblem is solved at the last accepted point with that point's
    ``hessp``, and a rejected trial point's ``hessp`` is never called, so
    ``hessp`` may hold what the curvature at its own point needs. A port of
    scipy's ``_minimize_trust_region`` driver with its
    ``CGSteihaugSubproblem`` (scipy 1.17, ``method="trust-ncg"``), in the same
    arithmetic and branch order: radius 1 at the start and at most 1000, a
    step accepted when its actual/predicted reduction exceeds 0.15. Returns the
    last accepted point, its gradient, and the value at the start followed by
    the value after each accepted step."""
    radius = 1.0
    f, g, hessp = fun(x)
    g_norm = np.linalg.norm(g)
    values = [f]
    k = 0
    while g_norm >= gtol and k < maxiter:
        def model(p: np.ndarray) -> float:
            return f + np.dot(g, p) + 0.5 * np.dot(p, hessp(p))

        p, on_boundary = _steihaug_cg(g, g_norm, hessp, model, radius)
        predicted_reduction = f - model(p)
        if predicted_reduction <= 0:
            break
        x_next = x + p
        f_next, g_next, hessp_next = fun(x_next)
        rho = (f - f_next) / predicted_reduction
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and on_boundary:
            radius = min(2 * radius, 1000.0)
        if rho > 0.15:
            x, f, g, hessp = x_next, f_next, g_next, hessp_next
            g_norm = np.linalg.norm(g)
            values.append(f)
        k += 1
    return x, g, values


def train_logit(
    X, y, hyperparams: LogitHyperparams = DEFAULT_HYPERPARAMS, start: np.ndarray | None = None
) -> LogitModel:
    """Fit the classifier on labels in {+1, -1}; deterministic given the data.

    ``start`` holds the weights then the bias to start from (zeros by default);
    ``loss_history`` begins with the loss there and gains one entry per
    accepted step."""
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    if n != len(y):
        raise ValueError(f"X has {n} rows but y has {len(y)} labels")
    if n < 2:
        raise ValueError("need at least 2 training examples")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    if len(np.unique(y)) < 2:
        raise ValueError("training data contains a single class")

    theta0 = np.zeros(d + 1) if start is None else np.array(start, dtype=np.float64)
    if theta0.shape != (d + 1,):
        raise ValueError(f"start has shape {theta0.shape}, expected ({d + 1},): weights then bias")

    theta, grad, history = _trust_ncg(
        _logistic_objective(X, y, hyperparams.l2_strength),
        theta0,
        hyperparams.tolerance,
        hyperparams.max_iters,
    )
    w, b = theta[:-1], float(theta[-1])
    grad_norm = float(np.linalg.norm(grad))
    converged = grad_norm <= hyperparams.tolerance

    if not converged:
        warnings.warn(
            f"optimizer stopped before convergence: gradient norm {grad_norm:.3e} "
            f"> tolerance {hyperparams.tolerance:.1e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return LogitModel(
        weights=w,
        bias=b,
        hyperparams=hyperparams,
        converged=converged,
        final_grad_norm=grad_norm,
        loss_history=history,
    )


@dataclass(frozen=True)
class Metrics:
    """Scores in the order ``metrics.csv`` prints them; circulators are the
    positive class (+1), debunkers the negative one (-1)."""

    circulator_precision: float
    circulator_recall: float
    circulator_f1: float
    debunker_precision: float
    debunker_recall: float
    debunker_f1: float
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float


def _fold_scores(model: LogitModel, X, y: np.ndarray) -> tuple[float, ...]:
    """One fold's ten scores in :class:`Metrics` order, predicting +1 where
    the sigmoid of the margin is >= 0.5."""
    from scipy.special import expit

    y_pred = np.where(expit(np.asarray(X @ model.weights).ravel() + model.bias) >= 0.5, 1.0, -1.0)
    prf = []
    for cls in (1.0, -1.0):
        tp = int(np.sum((y_pred == cls) & (y == cls)))
        fp = int(np.sum((y_pred == cls) & (y != cls)))
        fn = int(np.sum((y_pred != cls) & (y == cls)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        prf.append((precision, recall, f1))
    macro = (float(np.mean([c, d])) for c, d in zip(*prf))
    return (*prf[0], *prf[1], float(np.mean(y == y_pred)), *macro)


def cross_validate(
    X,
    y,
    hyperparams: LogitHyperparams = DEFAULT_HYPERPARAMS,
    repeats: int = 10,
    start: np.ndarray | None = None,
) -> Metrics:
    """Each score's mean over repeated, seeded, stratified 90/10 train/test
    splits; every fold's fit starts from ``start`` (see :func:`train_logit`)."""
    y = np.asarray(y, dtype=np.float64)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    class_indices = [np.flatnonzero(y == c) for c in (1.0, -1.0)]
    if any(len(idx) < 2 for idx in class_indices):
        raise ValueError("each class needs at least 2 samples to stratify")
    rng = np.random.default_rng(hyperparams.seed)
    folds = []
    for _ in range(repeats):
        test_parts, train_parts = [], []
        for idx in class_indices:
            perm = rng.permutation(idx)
            n_test = min(max(1, round(_TEST_FRACTION * len(idx))), len(idx) - 1)
            test_parts.append(perm[:n_test])
            train_parts.append(perm[n_test:])
        train_idx = np.sort(np.concatenate(train_parts))
        test_idx = np.sort(np.concatenate(test_parts))
        model = train_logit(X[train_idx], y[train_idx], hyperparams, start)
        folds.append(_fold_scores(model, X[test_idx], y[test_idx]))
    return Metrics(*(float(np.mean(f)) for f in zip(*folds)))


@dataclass(frozen=True)
class DistinctColumns:
    """A design with each group of k identical columns stored once, scaled by √k.

    ``X`` holds one column per group, in the order of each group's first
    column; ``group[j]`` is the group of original column j and ``scale[g]``
    is √k of group g."""

    X: sparse.csr_matrix
    group: np.ndarray
    scale: np.ndarray

    def expand(self, model: LogitModel) -> LogitModel:
        """``model`` fitted on ``X``, on the original columns: w_j = v_g / √k."""
        return replace(model, weights=(model.weights / self.scale)[self.group])


def distinct_columns(X) -> DistinctColumns:
    """Group the identical columns of a dense or sparse ``X``; the design is CSR.

    Columns are compared exactly, by the rows and values of their stored
    entries (duplicate entries summed); groups are numbered in the order of
    their first columns, so the grouping does not depend on hashing."""
    from scipy import sparse

    X = sparse.csc_matrix(X, dtype=np.float64, copy=True)
    X.sum_duplicates()
    # Each column's (row, value bits) pairs, 16 bytes per stored entry.
    buf = np.column_stack((X.indices.astype(np.int64), X.data.view(np.int64))).tobytes()
    ends = (16 * X.indptr).tolist()
    group_of: dict[bytes, int] = {}
    group = np.fromiter(
        (group_of.setdefault(buf[a:b], len(group_of)) for a, b in zip(ends, ends[1:])),
        dtype=np.int64, count=X.shape[1],
    )
    first = np.unique(group, return_index=True)[1]
    scale = np.sqrt(np.bincount(group))
    kept = X[:, first]
    kept.data *= np.repeat(scale, np.diff(kept.indptr))
    return DistinctColumns(kept.tocsr(), group, scale)


def train_and_validate(
    design: DistinctColumns,
    y,
    hyperparams: LogitHyperparams = DEFAULT_HYPERPARAMS,
    repeats: int = 10,
) -> tuple[LogitModel, Metrics]:
    """The final model, fitted from zero, and the CV metrics of folds started
    from it, all fitted on ``design``'s distinct columns; the model is
    returned on the original columns."""
    final = train_logit(design.X, y, hyperparams)
    metrics = cross_validate(
        design.X, y, hyperparams, repeats, np.append(final.weights, final.bias)
    )
    return design.expand(final), metrics


@dataclass(frozen=True)
class CoefficientReport:
    """Highest-magnitude coefficients per sign; positive identifies circulators."""

    top_positive: tuple[tuple[tuple[str, TieKind], float], ...]
    top_negative: tuple[tuple[tuple[str, TieKind], float], ...]


def top_coefficients(model: LogitModel, space: FeatureSpace, k: int = 100) -> CoefficientReport:
    """The k strongest positive and k strongest negative coefficients."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > space.n_columns:
        raise ValueError(f"k={k} exceeds the {space.n_columns}-column feature space")
    if model.n_columns != space.n_columns:
        raise ValueError("model and feature space have different column counts")
    w = model.weights
    # Strongest first, ties by column index: lexsort's last key is the primary one.
    pos = np.flatnonzero(w > 0)
    pos = pos[np.lexsort((pos, -w[pos]))][:k].tolist()
    neg = np.flatnonzero(w < 0)
    neg = neg[np.lexsort((neg, w[neg]))][:k].tolist()
    return CoefficientReport(
        top_positive=tuple((space.pair_of(i), float(w[i])) for i in pos),
        top_negative=tuple((space.pair_of(i), float(w[i])) for i in neg),
    )


def categorize_report(
    report: CoefficientReport, category_map: Mapping[str, str]
) -> dict[str, dict[str, int]]:
    """Category counts per coefficient sign; unmapped targets are 'Unlabeled'."""
    out: dict[str, dict[str, int]] = {"positive": {}, "negative": {}}
    for side, entries in (("positive", report.top_positive), ("negative", report.top_negative)):
        for (target, _kind), _weight in entries:
            category = category_map.get(target, "Unlabeled")
            out[side][category] = out[side].get(category, 0) + 1
    return out


def save_model(model: LogitModel, path: str | Path, space_hash: str) -> None:
    payload = {
        "format_version": 1,
        "space_hash": space_hash,
        "weights": [float(w) for w in model.weights],
        "bias": model.bias,
        "hyperparams": asdict(model.hyperparams),
        "converged": model.converged,
        "final_grad_norm": model.final_grad_norm,
    }
    write_json(path, payload)


def load_model(path: str | Path) -> tuple[LogitModel, str]:
    """Load a model; returns it plus the feature-space hash it was trained on."""
    keys = ("weights", "bias", "hyperparams", "converged", "final_grad_norm", "space_hash")
    payload = read_json(path, keys + ("format_version",), 1)
    try:
        model = LogitModel(
            weights=np.asarray(payload["weights"], dtype=np.float64),
            bias=float(payload["bias"]),
            hyperparams=LogitHyperparams(**payload["hyperparams"]),
            converged=bool(payload["converged"]),
            final_grad_norm=float(payload["final_grad_norm"]),
            loss_history=[],
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model, payload["space_hash"]
