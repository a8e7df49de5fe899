"""Correctness checks of one pipeline run, computed apart from the program.

Each check takes the workload's inputs and a directory of stage outputs and
returns a list of failures (empty when the outputs are correct). References
are recomputed from the inputs on every run, never read from a stored copy of
earlier output:

- matches: brute-force all-pairs exact Jaccard over ``textnorm`` token sets
  (plain set arithmetic, or a scipy sparse product for large corpora);
- labels: the generator's planted truth;
- features: the distinct (target, kind) ties of each user;
- model: the gradient norm at the fitted weights, and agreement with an
  independent L-BFGS minimiser of the same L2 logistic objective;
- model quality (planted workloads): CV accuracy and planted hubs among the
  strongest coefficients.
"""

from __future__ import annotations

import csv
import functools
import json
from pathlib import Path

import numpy as np
from scipy import optimize, sparse
from scipy.special import expit

from quotematch.textnorm import normalize_arabic, strip_quote_prefix

THRESHOLD = 0.35

# The paper's 14 refuting phrases, kept apart from the program's lexicon.
REFUTE_PHRASES = (
    "حديث موضوع", "حديث مفبرك", "حديث مفترى", "حديث غير صحيح", "حديث مكذوب",
    "حديث كذب على رسول الله", "حديث لا يصح", "حديث لا أصل له", "الدرجة: لا يصح",
    "حديث ضعيف", "الدرجة: موضوع", "حديث ليس صحيح", "حديث لم يرد", "حديث مختلق",
)

# Largest tolerated difference, in any weight or the bias, between the
# program's fit and the L-BFGS optimum. Both stop at a gradient norm of 1e-6
# or less, but the unregularized bias is weakly determined when columns far
# outnumber users: on ties-wide (~60k columns, 1,118 users) the bias of two
# such fits differs by up to 0.03. The gradient-norm check is the sharp test.
WEIGHT_TOLERANCE = 0.1
CV_ACCURACY_MIN = 0.95
HUBS_IN_TOP10_MIN = 8


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _read_corpus(path: Path) -> list[tuple[str, str, frozenset[str]]]:
    """(id, authenticity, token set) per quote, sorted by id, first id per text."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    seen, quotes = set(), []
    for line in lines:
        qid, level, _source, text = line.split("\t", 3)
        normal = strip_quote_prefix(normalize_arabic(text))
        if normal and normal not in seen:
            seen.add(normal)
            quotes.append((qid, level, frozenset(normal.split())))
    return sorted(quotes)


def _read_posts(timelines: Path):
    for path in sorted(timelines.glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                post = json.loads(line)
                yield post["id"], post.get("text", "")


_REFUTES = [tuple(normalize_arabic(p).split()) for p in REFUTE_PHRASES]
_REFUTE_FIRST = {phrase[0] for phrase in _REFUTES}


def _has_refute(tokens: list[str]) -> bool:
    """True iff a refute phrase occurs as consecutive tokens."""
    return any(
        tuple(tokens[i : i + len(phrase)]) == phrase
        for i, token in enumerate(tokens)
        if token in _REFUTE_FIRST
        for phrase in _REFUTES
    )


def expected_matches(inputs, use_sparse: bool) -> dict[str, tuple[str, str, float]]:
    """post id -> (quote id, kind, similarity) of every post that matches."""
    quotes = _read_corpus(inputs.corpus)
    posts = []
    for post_id, text in _read_posts(inputs.timelines):
        if not text.strip():
            continue
        normal = normalize_arabic(text)
        tokens = frozenset(strip_quote_prefix(normal).split())
        if tokens:
            posts.append((post_id, tokens, _has_refute(normal.split())))

    if use_sparse:
        best, sims = _best_sparse(quotes, [t for _, t, _ in posts])
    else:
        best, sims = _best_sets(quotes, [t for _, t, _ in posts])

    out = {}
    for (post_id, _, refuted), qi, sim in zip(posts, best, sims):
        if sim > THRESHOLD:
            qid, level, _ = quotes[qi]
            if level == "fabricated":
                kind = "refute" if refuted else "circulation"
            else:
                kind = "non_fabricated_share"
            out[post_id] = (qid, kind, sim)
    return out


def _best_sets(quotes, posts):
    q_sets = [q for _, _, q in quotes]  # ids ascending: ties keep the lowest
    q_sizes = [len(q) for q in q_sets]
    best, sims = [], []
    for p in posts:
        top, top_sim, size = 0, -1.0, len(p)
        for qi, q in enumerate(q_sets):
            inter = 0 if p.isdisjoint(q) else len(p & q)
            sim = inter / (size + q_sizes[qi] - inter)
            if sim > top_sim:
                top, top_sim = qi, sim
        best.append(top)
        sims.append(top_sim)
    return best, sims


def _best_sparse(quotes, posts, batch: int = 256):
    vocab: dict[str, int] = {}

    def matrix(sets):
        indptr, indices = [0], []
        for s in sets:
            indices.extend(vocab.setdefault(t, len(vocab)) for t in s)
            indptr.append(len(indices))
        return indptr, indices

    q_ptr, q_idx = matrix([q for _, _, q in quotes])
    p_ptr, p_idx = matrix(posts)
    Q = sparse.csr_matrix((np.ones(len(q_idx)), q_idx, q_ptr), shape=(len(quotes), len(vocab)))
    P = sparse.csr_matrix((np.ones(len(p_idx)), p_idx, p_ptr), shape=(len(posts), len(vocab)))
    QT = Q.T.tocsr()
    q_sizes = np.diff(q_ptr).astype(np.float64)
    p_sizes = np.diff(p_ptr).astype(np.float64)
    best, sims = [], []
    for lo in range(0, len(posts), batch):
        inter = (P[lo : lo + batch] @ QT).toarray()
        jac = inter / (p_sizes[lo : lo + batch, None] + q_sizes[None, :] - inter)
        top = jac.argmax(axis=1)  # first maximum: the lowest quote id
        best.extend(top.tolist())
        sims.extend(jac[np.arange(len(top)), top].tolist())
    return best, sims


def check_matches(expected: dict, out: Path) -> list[str]:
    got = {}
    for line in (out / "matches.jsonl").read_text(encoding="utf-8").splitlines():
        m = json.loads(line)
        got[m["post_id"]] = (m["quote_id"], m["kind"], m["similarity"])
    failures = []
    for post_id in sorted(set(expected) | set(got)):
        e, g = expected.get(post_id), got.get(post_id)
        if e is None or g is None or e[:2] != g[:2] or abs(e[2] - g[2]) > 1e-12:
            failures.append(f"match of post {post_id}: expected {e}, got {g}")
    return failures[:10] + ([f"... {len(failures)} match differences"] if len(failures) > 10 else [])


def check_labels(inputs, out: Path) -> list[str]:
    truth = {r["user_id"]: r["label"] for r in _read_csv(inputs.truth)}
    got = {r["user_id"]: r["label"] or "neither" for r in _read_csv(out / "labeled.csv")}
    wrong = [u for u in truth if got.get(u) != truth[u]]
    if wrong or set(got) != set(truth):
        return [f"labels: {len(wrong)} of {len(truth)} users differ from the planted truth, "
                f"e.g. {wrong[:3]}"]
    return []


@functools.lru_cache(maxsize=1)
def _tie_sets(inputs) -> dict[str, set[tuple[str, str]]]:
    ties: dict[str, set[tuple[str, str]]] = {}
    with open(inputs.ties, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for user, target, kind in rows:
            if user != target:
                ties.setdefault(user, set()).add((target, kind))
    return ties


def _labeled_users(out: Path) -> dict[str, float]:
    """user id -> +1 (circulator) / -1 (debunker) for the labeled dataset."""
    sign = {"circulator": 1.0, "debunker": -1.0}
    return {r["user_id"]: sign[r["label"]] for r in _read_csv(out / "labeled.csv") if r["label"] in sign}


def check_features(inputs, out: Path) -> list[str]:
    space = json.loads((out / "space.json").read_text(encoding="utf-8"))
    columns = [tuple(c) for c in space["columns"]]
    lines = (out / "vectors.jsonl").read_text(encoding="utf-8").splitlines()[1:]
    got = {}
    for line in lines:
        v = json.loads(line)
        got[v["user_id"]] = {columns[c] for c in v["columns"]}
    ties = _tie_sets(inputs)
    labeled = _labeled_users(out)
    expected = {u: ties[u] for u in labeled if u in ties}
    if got == expected:
        return []
    wrong = sorted(u for u in set(got) | set(expected) if got.get(u) != expected.get(u))
    return [f"feature vectors: {len(wrong)} users differ from their ties, e.g. {wrong[:3]}"]


def _design(inputs, out: Path):
    """X (users x columns, binary) and y from the ties and the labeled users."""
    space = json.loads((out / "space.json").read_text(encoding="utf-8"))
    col_of = {tuple(c): i for i, c in enumerate(space["columns"])}
    ties = _tie_sets(inputs)
    labeled = _labeled_users(out)
    users = sorted(labeled)
    rows, cols = [], []
    for r, u in enumerate(users):
        for pair in ties.get(u, ()):
            if pair in col_of:  # a missing column is check_features' failure
                rows.append(r)
                cols.append(col_of[pair])
    X = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(len(users), len(col_of))
    )
    return X, np.array([labeled[u] for u in users])


def _objective(theta: np.ndarray, X, y: np.ndarray, l2: float):
    """Mean logistic loss + (l2/2N)||w||^2 and its gradient; theta = (w, b)."""
    n = X.shape[0]
    w, b = theta[:-1], theta[-1]
    m = y * (X @ w + b)
    loss = np.logaddexp(0.0, -m).sum() / n + 0.5 * l2 * (w @ w) / n
    r = y * expit(-m)
    grad = np.append(-(X.T @ r) / n + (l2 / n) * w, -r.sum() / n)
    return loss, grad


def check_model(inputs, out: Path) -> list[str]:
    model = json.loads((out / "model.json").read_text(encoding="utf-8"))
    X, y = _design(inputs, out)
    l2, tol = model["hyperparams"]["l2_strength"], model["hyperparams"]["tolerance"]
    theta = np.append(np.asarray(model["weights"], dtype=np.float64), model["bias"])
    failures = []
    if len(theta) != X.shape[1] + 1:
        return [f"model: {len(theta) - 1} weights for {X.shape[1]} feature columns"]
    grad_norm = float(np.linalg.norm(_objective(theta, X, y, l2)[1]))
    # Summation order differs from the program's; allow a sliver above tol.
    if not model["converged"] or grad_norm > 1.01 * tol:
        failures.append(f"model: gradient norm {grad_norm:.3e} exceeds tolerance {tol:.1e}")
    ref = optimize.minimize(
        _objective, np.zeros_like(theta), args=(X, y, l2), jac=True, method="L-BFGS-B",
        options={"gtol": 1e-10, "ftol": 0.0, "maxiter": 20_000},
    )
    gap = float(np.abs(ref.x - theta).max())
    if gap > WEIGHT_TOLERANCE:
        failures.append(f"model: weights differ from the L-BFGS optimum by {gap:.3e} "
                        f"> {WEIGHT_TOLERANCE:.0e}")
    return failures


def check_model_quality(out: Path) -> list[str]:
    failures = []
    macro = [r for r in _read_csv(out / "metrics.csv") if r["group"] == "Macro"][0]
    if float(macro["accuracy"]) < CV_ACCURACY_MIN:
        failures.append(f"cv accuracy {macro['accuracy']} < {CV_ACCURACY_MIN}")
    coefs = _read_csv(out / "report" / "top_coefficients.csv")
    for side, hub in (("positive", "circ_hub_"), ("negative", "deb_hub_")):
        top = [r["target_id"] for r in coefs if r["side"] == side and int(r["rank"]) <= 10]
        hubs = sum(t.startswith(hub) for t in top)
        if hubs < HUBS_IN_TOP10_MIN:
            failures.append(f"{side} top-10 coefficients hold {hubs} planted hubs "
                            f"< {HUBS_IN_TOP10_MIN}")
    return failures


def check_all(inputs, out: Path, expected: dict, model_quality: bool) -> list[str]:
    failures = check_matches(expected, out) + check_labels(inputs, out)
    failures += check_features(inputs, out) + check_model(inputs, out)
    if model_quality:
        failures += check_model_quality(out)
    return failures
