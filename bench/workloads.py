"""Input generators for the two benchmark workloads.

Every generator is a pure function of its seed and writes the same layout:
``corpus.tsv``, ``timelines/<user>.jsonl``, ``ties.csv`` and ``truth.csv``
(the planted label of every user). The program under test only ever sees
these files.

- ``zipf-20k``: generated here. 20,000 quotes over one shared Zipf vocabulary,
  so frequent words are shared and LSH keeps a large share of the corpus as
  candidates.
- ``ties-wide``: ``synth`` with short timelines, plus ~250 heavy-tailed ties
  per user, so feature encoding and training dominate.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import sparse

from run import Inputs

# Tokens of the default refute and prefix lexicons (normalized). Generated
# vocabulary avoids them, so only planted refutes and planted prefixes occur.
RESERVED_TOKENS = frozenset(
    """حديث موضوع مفبرك مفتري غير صحيح مكذوب كذب علي رسول الله لا يصح اصل له الدرجه
    ضعيف ليس لم يرد مختلق قال صلي عليه وسلم واله النبي محمد الصلاه والسلام سمعت يقول
    عن""".split()
)
_LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"

# Refute phrases appended to planted refutes, already in normal form.
REFUTE_SUFFIXES = ("حديث موضوع", "حديث لا يصح", "حديث مكذوب", "حديث ضعيف", "حديث مختلق")
PREFIX = "قال رسول الله صلى الله عليه وسلم"


def _synth(python_env: dict, out: Path, seed: int, extra: list[str]) -> None:
    subprocess.run(
        [sys.executable, "-m", "quotematch.cli", "synth", "--out-dir", str(out), "--seed", str(seed)]
        + extra,
        env=python_env,
        check=True,
        stdout=subprocess.DEVNULL,
    )


def _write_ties(rows: set[tuple[str, str, str]], path: Path) -> None:
    lines = ["user_id,target_id,kind"] + [",".join(r) for r in sorted(rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_ties(path: Path) -> set[tuple[str, str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return {tuple(r) for r in rows[1:] if r}


def ties_wide(out: Path, seed: int, env: dict) -> Inputs:
    """1,118 short timelines; ~250 ties per user over a 50k-target heavy tail."""
    _synth(env, out, seed, ["--timeline-len", "12"])
    inputs = Inputs.at(out)
    rng = np.random.default_rng([seed, 2])
    rows = read_ties(inputs.ties)
    users = sorted({u for u, _, _ in rows})
    draw = _sampler(rng, 50_000, 1.0)
    kinds = np.array(["follow", "retweet", "like"])
    for user in users:
        n = int(rng.integers(200, 301))
        targets = draw(n)
        for t, k in zip(targets, kinds[rng.integers(0, 3, size=n)]):
            rows.add((user, f"wide_{t:05d}", str(k)))
    _write_ties(rows, inputs.ties)
    return inputs


def _vocab(size: int) -> list[str]:
    """Distinct Arabic-letter tokens of 3+ letters, none of them a lexicon token."""
    words = []
    n = len(_LETTERS) ** 2
    while len(words) < size:
        digits, word = n, ""
        while digits:
            digits, d = divmod(digits, len(_LETTERS))
            word += _LETTERS[d]
        n += 1
        if word not in RESERVED_TOKENS:
            words.append(word)
    return words


def _sampler(rng: np.random.Generator, size: int, exponent: float):
    """Draws of ranks 0..size-1 with p proportional to (rank+1)^-exponent."""
    cdf = np.cumsum(1.0 / np.arange(1, size + 1) ** exponent)
    cdf /= cdf[-1]
    return lambda n: np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), size - 1)


def _jaccard_rows(posts: list[list[str]], quotes_t, col_of: dict[str, int], q_sizes) -> np.ndarray:
    """Dense (posts x quotes) exact Jaccard of token sets; ``quotes_t`` is tokens x quotes."""
    indptr, indices = [0], []
    for toks in posts:
        cols = sorted({col_of[t] for t in toks if t in col_of})
        indices.extend(cols)
        indptr.append(len(indices))
    p_sizes = np.array([len(set(t)) for t in posts], dtype=np.float64)
    P = sparse.csr_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(len(posts), quotes_t.shape[0])
    )
    inter = (P @ quotes_t).toarray()
    return inter / (p_sizes[:, None] + q_sizes[None, :] - inter)


def zipf_20k(out: Path, seed: int, env: dict) -> Inputs:
    """20k Zipf quotes; 20 users x 10 posts, half noisy shares, half unrelated."""
    rng = np.random.default_rng([seed, 20_000])
    vocab_size, n_quotes = 30_000, 20_000
    vocab = _vocab(vocab_size)
    draw = _sampler(rng, vocab_size, 1.05)

    texts: list[list[str]] = []
    seen: set[str] = set()
    while len(texts) < n_quotes:
        toks = [vocab[i] for i in draw(int(rng.integers(8, 41)))]
        key = " ".join(toks)
        if key not in seen:
            seen.add(key)
            texts.append(toks)
    # Every fourth quote is fabricated; the rest cycle the other levels.
    levels = ["fabricated", "authentic", "good", "weak"]
    level_of = [levels[i % 4] for i in range(n_quotes)]
    out.mkdir(parents=True, exist_ok=True)
    (out / "corpus.tsv").write_text(
        "id\tauthenticity\tsource\ttext\n"
        + "".join(f"q{i:05d}\t{level_of[i]}\tzipf\t{' '.join(t)}\n" for i, t in enumerate(texts)),
        encoding="utf-8",
    )

    col_of = {w: i for i, w in enumerate(vocab)}
    q_sets = [sorted({col_of[t] for t in toks}) for toks in texts]
    q_ptr = np.cumsum([0] + [len(s) for s in q_sets])
    Q = sparse.csr_matrix(
        (np.ones(q_ptr[-1]), np.concatenate(q_sets), q_ptr), shape=(n_quotes, vocab_size)
    ).T.tocsr()
    q_sizes = np.diff(q_ptr).astype(np.float64)
    fabricated = [i for i in range(n_quotes) if level_of[i] == "fabricated"]
    others = [i for i in range(n_quotes) if level_of[i] != "fabricated"]

    def share(qi: int, suffix: list[str]) -> list[str] | None:
        """A noisy share of quote ``qi`` whose best match is ``qi``, clearly over 0.35."""
        toks = texts[qi]
        keep = [t for t in toks if rng.random() < 0.7] or toks[:1]
        extra = [vocab[i] for i in draw(int(rng.integers(0, 5)))]
        post = keep + extra + suffix
        sims = _jaccard_rows([post], Q, col_of, q_sizes)[0]
        best = int(np.argmax(sims))
        return post if best == qi and sims[qi] > 0.4 else None

    def unrelated() -> list[str]:
        while True:
            post = [vocab[i] for i in draw(int(rng.integers(6, 25)))]
            if _jaccard_rows([post], Q, col_of, q_sizes)[0].max() < 0.3:
                return post

    def planted(pool: list[int], suffix: list[str]) -> str:
        while True:
            post = share(pool[int(rng.integers(0, len(pool)))], suffix)
            if post is not None:
                text = " ".join(post)
                return PREFIX + " " + text if rng.random() < 0.3 else text

    timelines = out / "timelines"
    timelines.mkdir(exist_ok=True)
    truth, ties = [], set()
    classes = [("circulator", 8), ("debunker", 8), ("neither", 4)]
    kinds = ("follow", "retweet", "like")
    for label, count in classes:
        for u in range(count):
            user = f"{label[:4]}_{u:03d}"
            truth.append((user, label))
            posts = []
            if label == "circulator":
                posts += [planted(fabricated, []) for _ in range(int(rng.integers(2, 5)))]
                posts += [planted(others, []) for _ in range(int(rng.integers(1, 4)))]
            elif label == "debunker":
                for _ in range(int(rng.integers(3, 6))):
                    refute = REFUTE_SUFFIXES[int(rng.integers(0, len(REFUTE_SUFFIXES)))]
                    posts.append(planted(fabricated, refute.split()))
                posts += [planted(others, []) for _ in range(int(rng.integers(0, 3)))]
            else:
                posts += [planted(others, []) for _ in range(int(rng.integers(3, 8)))]
            while len(posts) < 10:
                posts.append(" ".join(unrelated()))
            order = rng.permutation(len(posts))
            with open(timelines / f"{user}.jsonl", "w", encoding="utf-8") as fh:
                for i, j in enumerate(order):
                    fh.write(json.dumps({
                        "id": f"{user}_p{i:02d}", "user_id": user, "text": posts[j],
                        "is_retweet": bool(rng.random() < 0.5), "created_at": "2023-03-01T00:00:00Z",
                    }, ensure_ascii=False) + "\n")
            hub = {"circulator": "circ_hub", "debunker": "deb_hub"}.get(label)
            for h in range(10):
                if hub and rng.random() < 0.6:
                    ties.add((user, f"{hub}_{h:03d}", kinds[h % 3]))
            for t in rng.choice(500, size=15, replace=False):
                ties.add((user, f"bg_{t:04d}", kinds[int(rng.integers(0, 3))]))
    _write_ties(ties, out / "ties.csv")
    (out / "truth.csv").write_text(
        "user_id,label\n" + "".join(f"{u},{l}\n" for u, l in sorted(truth)), encoding="utf-8"
    )
    return Inputs.at(out)


GENERATORS = {"zipf-20k": zipf_20k, "ties-wide": ties_wide}


if __name__ == "__main__":
    # python3 bench/workloads.py WORKLOAD SEED OUT_DIR, with src on the path.
    import os

    GENERATORS[sys.argv[1]](Path(sys.argv[3]), int(sys.argv[2]), dict(os.environ))
