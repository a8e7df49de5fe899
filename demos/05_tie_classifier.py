"""Multi-hot tie features, the logistic classifier, and coefficient reports.

Run: python demos/05_tie_classifier.py
"""

import numpy as np

from quotematch.features import (
    Tie,
    TieKind,
    build_feature_space,
    encode_users,
    kind_counts,
    tie_table,
    to_csr,
)
from quotematch.model import (
    LogitHyperparams,
    categorize_report,
    distinct_columns,
    top_coefficients,
    train_and_validate,
    welch_t_test,
)

rng = np.random.default_rng(3)

# Build two user groups with partly-exclusive tie patterns. Following a page
# and liking its tweets are separate columns: the encoding is kind-qualified.
ties: list[Tie] = []
labels: dict[str, float] = {}
kinds = list(TieKind)
for i in range(120):
    user = f"u{i:03d}"
    group_pages = ["quran_daily", "hadith_hub", "gulf_scholar"] if i % 2 == 0 else [
        "fact_check", "charity_kw", "news_desk",
    ]
    labels[user] = 1.0 if i % 2 == 0 else -1.0
    for page in group_pages:
        if rng.random() < 0.8:
            ties.append((user, page, kinds[int(rng.integers(0, 3))]))
    for _ in range(int(rng.integers(2, 6))):
        ties.append((user, f"misc_{int(rng.integers(0, 40)):02d}", kinds[int(rng.integers(0, 3))]))
    if i % 4 == 0:  # a page only this user follows and likes: two identical columns
        ties += [(user, f"fan_page_{i:03d}", TieKind.FOLLOW),
                 (user, f"fan_page_{i:03d}", TieKind.LIKE_AUTHOR)]

# The encoders work on a table of integer codes: duplicates collapse there.
table = tie_table(ties)
space = build_feature_space(table)
vectors, _ = encode_users(table, space)
X = to_csr(vectors, space.n_columns)
y = np.array([labels[v.user_id] for v in vectors])
print(f"feature space: {space.n_columns} (target, kind) columns over {len(vectors)} users")

# As the `train` stage does: group identical columns once, fit the final model
# from zero on the distinct ones, then start each CV fold from it.
design = distinct_columns(X)
print(f"distinct columns: {design.X.shape[1]} of {space.n_columns}")
hp = LogitHyperparams(seed=0)
model, metrics = train_and_validate(design, y, hp, repeats=10)
print(f"90-10 cross-validation accuracy: {metrics.accuracy:.3f}")
print(f"macro F1: {metrics.macro_f1:.3f}")

report = top_coefficients(model, space, k=5)
print("\nstrongest positive (group +1) coefficients:")
for (target, kind), weight in report.top_positive:
    print(f"  {weight:+.3f}  {target} ({kind.value})")
print("strongest negative (group -1) coefficients:")
for (target, kind), weight in report.top_negative:
    print(f"  {weight:+.3f}  {target} ({kind.value})")

category_map = {
    "quran_daily": "Religious Pages", "hadith_hub": "Religious Pages",
    "gulf_scholar": "Scholars", "fact_check": "Fact Checking",
    "charity_kw": "Charity", "news_desk": "News",
}
print("\ncategory distribution of top coefficients:")
for side, counts in categorize_report(report, category_map).items():
    print(f"  {side}: {dict(sorted(counts.items()))}")

# Welch's t-test contrasts interaction volumes between the groups.
per_user = kind_counts(table)  # distinct ties per kind
pos_ties = [sum(per_user[v.user_id]) for v in vectors if labels[v.user_id] > 0]
neg_ties = [sum(per_user[v.user_id]) for v in vectors if labels[v.user_id] < 0]
result = welch_t_test(pos_ties, neg_ties)
print(
    f"\nWelch's t-test on tie counts: t={result.t_statistic:.3f}, "
    f"df={result.degrees_of_freedom:.1f}, p={result.p_value:.4f}"
)
