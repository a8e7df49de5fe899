"""From timelines to user statistics to circulator/debunker labels.

Run: python demos/04_timeline_labeling.py
"""

from quotematch.behavior import (
    Post,
    UserStats,
    build_labeled_dataset,
    label_user,
    scan_timeline,
)
from quotematch.corpus import build_corpus
from quotematch.matcher import build_index

fabricated = "من قرا هذا الدعاء غفر له ما تقدم من ذنبه وما تاخر"
authentic = "انما الاعمال بالنيات وانما لكل امرئ ما نوي"
corpus, _ = build_corpus([
    ("f1", "fabricated", "demo", fabricated),
    ("a1", "authentic", "demo", authentic),
])
index = build_index(corpus)

timeline = [
    Post("p1", "user_a", fabricated),                         # circulation
    Post("p2", "user_a", "قال رسول الله " + fabricated),       # circulation, prefixed
    Post("p3", "user_a", authentic, is_retweet=True),          # non-fabricated share
    Post("p4", "user_a", fabricated + " هذا حديث موضوع"),      # refute, not circulation
    Post("p5", "user_a", "تغريده عاديه عن الطقس اليوم", is_retweet=True),
    Post("p6", "user_a", "رد بسيط هذا حديث مكذوب", parent_id="p1"),  # refute via parent
]
stats, matches = scan_timeline(timeline, index)
print("per-post matches:")
for m in matches:
    print(f"  {m.post_id}: {m.quote_id} sim={m.similarity:.2f} -> {m.kind.value}")
print(f"\nstats: {stats}")
print(f"label: {label_user(stats).value}  (2 fabricated of 3 shares = 67% > 5%)")

# The labeled dataset takes every circulator and strict debunker, then tops
# up the smaller debunker side with two-refute users, deterministically.
population = (
    [UserStats(f"c{i:02d}", 10, 3, 0, 0.8) for i in range(6)]      # circulators
    + [UserStats(f"d{i:02d}", 5, 0, 4, 0.2) for i in range(3)]     # strict debunkers
    + [UserStats(f"t{i:02d}", 5, 0, 2, 0.3) for i in range(5)]     # two-refute pool
    + [UserStats(f"n{i:02d}", 8, 1, 0, 0.5) for i in range(4)]     # neither
)
labeled, report = build_labeled_dataset(population)
print(
    f"\ndataset: {report.n_circulators} circulators / {report.n_debunkers} debunkers "
    f"({report.n_balance_added} added by balancing, balanced={report.balanced})"
)
for s, label in labeled:
    if label.value == "debunker":
        print(f"  {s.user_id}: refutes={s.refutes} -> {label.value}")
