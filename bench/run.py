"""Benchmark of the quotematch batch pipeline, one named workload per run.

Run from the repository root:

    python3 bench/run.py --workload ties-wide --seed 1 --seconds 20 --trace 0

The benchmark generates the workload's inputs from ``--seed`` (untimed), then
runs whole rounds of the CLI stages, each stage in its own process as a user
runs it, for about ``--seconds``: a new round starts only if it should end in
time, and the first round always runs. A round is one or more set-ups
(``corpus build`` + ``index``), one pipeline (``scan`` -> ``label`` ->
``features`` -> ``train`` -> ``report``) and, on some workloads, a repeated
``scan`` (see ``REPEATS``). Outputs are checked
against references computed apart from the program (see ``checks.py``).
With ``--trace 1`` it also runs the traced in-process pipeline of
``trace.py`` and prints the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP = ("corpus_build", "index")
PIPELINE = ("scan", "label", "features", "train", "report")

# (set-ups, scans) per round. On ties-wide's 60-quote corpus a set-up is
# mostly two interpreter starts, so it is repeated for a steadier median; at
# 20k quotes one set-up already takes 10-14 s. Two zipf-20k scans of the same
# inputs a minute apart differ by 10-20 %, so each round scans twice; the
# scans of one ties-wide run agree to within 10 % while its runs drift with
# the machine over minutes, so a second scan there would only lengthen the run.
REPEATS = {"zipf-20k": (1, 2), "ties-wide": (3, 1)}

# Files a round writes; every round must write them byte-identically.
OUTPUTS = (
    "corpus.tsv", "index.bin", "stats.csv", "matches.jsonl", "labeled.csv", "space.json",
    "vectors.jsonl", "model.json", "metrics.csv", "report/top_coefficients.csv",
    "report/category_counts.csv", "report/class_summary.csv",
)


@dataclass(frozen=True)
class Inputs:
    """Where a workload's generated inputs live."""

    root: Path
    corpus: Path
    timelines: Path
    ties: Path
    truth: Path

    @classmethod
    def at(cls, root: Path) -> "Inputs":
        return cls(root, root / "corpus.tsv", root / "timelines", root / "ties.csv", root / "truth.csv")


def stage_argv(stage: str, inputs, out: Path) -> list[str]:
    """``quotematch`` arguments of one stage, reading ``inputs`` and writing under ``out``."""
    o = {name: str(out / name) for name in OUTPUTS}
    return {
        "corpus_build": ["corpus", "build", "--input", str(inputs.corpus), "--out", o["corpus.tsv"]],
        "index": ["index", "--corpus", o["corpus.tsv"], "--out", o["index.bin"]],
        "scan": [
            "scan", "--index", o["index.bin"], "--corpus", o["corpus.tsv"],
            "--timelines", str(inputs.timelines),
            "--out-stats", o["stats.csv"], "--out-matches", o["matches.jsonl"],
        ],
        "label": ["label", "--stats", o["stats.csv"], "--out", o["labeled.csv"]],
        "features": [
            "features", "--ties", str(inputs.ties), "--labeled", o["labeled.csv"],
            "--out-space", o["space.json"], "--out-vectors", o["vectors.jsonl"],
        ],
        "train": [
            "train", "--space", o["space.json"], "--vectors", o["vectors.jsonl"],
            "--labeled", o["labeled.csv"], "--out-model", o["model.json"],
            "--out-metrics", o["metrics.csv"],
        ],
        "report": [
            "report", "--model", o["model.json"], "--space", o["space.json"],
            "--out-dir", str(out / "report"), "--labeled", o["labeled.csv"],
            "--ties", str(inputs.ties),
        ],
    }[stage]


def program_env() -> dict:
    """Environment of every program process: the source tree on the path and
    ``QUOTEMATCH_THREADS`` unset, so ``scan`` uses its default thread count."""
    env = dict(os.environ)
    env.pop("QUOTEMATCH_THREADS", None)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class StageFailed(Exception):
    pass


def run_stage(argv: list[str], env: dict, log: Path) -> tuple[float, float]:
    """Run one CLI stage to its end; returns (wall seconds, peak RSS in MB)."""
    with open(log, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "quotematch.cli", *argv],
            env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise StageFailed(f"{argv[0]} exited {proc.returncode}: {err.read()[-2000:]}")
    return wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in OUTPUTS:
        h.update(name.encode() + b"\0" + (out / name).read_bytes())
    return h.hexdigest()


def count_posts(timelines: Path) -> int:
    return sum(
        sum(1 for line in p.read_text(encoding="utf-8").splitlines() if line.strip())
        for p in timelines.glob("*.jsonl")
    )


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def measure(workload: str, inputs, out: Path, seconds: float, env: dict):
    """Whole rounds for about ``seconds``, at least one.

    Returns the samples (seconds per stage and per set-up, and the peak RSS
    of each round), the digest of each round's outputs, and the number of
    stage processes run. The first round's outputs are kept in
    ``out/../first`` for the correctness checks."""
    samples: dict[str, list[float]] = {s: [] for s in SETUP + PIPELINE}
    samples.update(setup_s=[], peak_rss_mb=[])
    setups, scans = REPEATS[workload]
    digests: list[str] = []
    rss: list[float] = []

    def run_all(stages: tuple[str, ...]) -> float:
        walls = []
        for stage in stages:
            wall, peak = run_stage(stage_argv(stage, inputs, out), env, out / "stderr.log")
            samples[stage].append(wall)
            walls.append(wall)
            rss.append(peak)
        return sum(walls)

    start = time.perf_counter()
    while True:
        rss.clear()
        for _ in range(setups):
            samples["setup_s"].append(run_all(SETUP))
        run_all(PIPELINE)
        for _ in range(scans - 1):
            run_all(PIPELINE[:1])
        samples["peak_rss_mb"].append(max(rss))
        digests.append(digest(out))
        if len(digests) == 1:
            shutil.copytree(out, out.parent / "first", ignore=shutil.ignore_patterns("*.log"))
        # Start another round only if it should end within ``seconds``, so a
        # run never measures much more than asked.
        rounds = len(digests)
        if (time.perf_counter() - start) * (rounds + 1) / rounds > seconds:
            break
    stages = len(digests) * (setups * len(SETUP) + len(PIPELINE) + scans - 1)
    return samples, digests, stages


# Units of the per-layer metrics that are not seconds.
COUNT_UNITS = {
    "matcher.candidates_per_post": "count", "matcher.candidate_fraction": "fraction",
    "matcher.verify_yield": "ratio", "features.columns": "count", "features.nnz": "count",
    "model.iterations": "count",
}


def traced_run(inputs, run_dir: Path, env: dict) -> dict:
    """The traced in-process run of ``trace.py``, single-threaded."""
    result = run_dir / "trace.json"
    subprocess.run(
        [sys.executable, str(HERE / "trace.py"), str(inputs.root),
         str(run_dir / "traced"), str(result)],
        env=dict(env, QUOTEMATCH_THREADS="1"), check=True, stdout=subprocess.DEVNULL,
    )
    return json.loads(result.read_text(encoding="utf-8"))


def _phase(name: str, since: float) -> float:
    now = time.perf_counter()
    print(f"{name}: {now - since:.1f} s", file=sys.stderr)
    return now


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(REPEATS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quotematch" / "cli.py").is_file():
        print(f"error: no quotematch source tree under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    env = program_env()
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        # Inputs are generated in a child process: a stage process reports the
        # resident set it was forked with as part of its peak, so this process
        # stays small (no numpy) until the timed rounds are over.
        clock = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), args.workload, str(args.seed),
             str(run_dir / "inputs")],
            env=env, check=True,
        )
        clock = _phase("generate", clock)
        inputs = Inputs.at(run_dir / "inputs")
        out = run_dir / "out"
        out.mkdir(parents=True)
        try:
            samples, digests, stages = measure(args.workload, inputs, out, args.seconds, env)
        except StageFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        clock = _phase(f"measure ({len(digests)} rounds)", clock)
        for stage in SETUP + PIPELINE:
            print(f"  {stage}: " + " ".join(f"{w:.2f}" for w in samples[stage]), file=sys.stderr)
        sys.path.insert(0, str(SRC))
        import checks

        expected = checks.expected_matches(inputs, use_sparse=args.workload == "zipf-20k")
        try:
            failures = checks.check_all(
                inputs, run_dir / "first", expected, model_quality=args.workload != "zipf-20k"
            )
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures = [f"unreadable output: {exc!r}"]
        if len(set(digests)) != 1:
            failures.append(f"rounds wrote differing outputs: {len(set(digests))} distinct")
        clock = _phase("check", clock)

        if args.trace:
            traced = traced_run(inputs, run_dir, env)
            stages += len(SETUP + PIPELINE)
            _phase(f"traced run ({traced['spans']} spans, stages {traced['wall_s']:.1f} s)", clock)
            if digest(run_dir / "traced") != digests[0]:
                failures.append("the traced run wrote other outputs than the untraced run")
            for label in traced["absent"]:
                print(f"absent: {label}", file=sys.stderr)
            metrics = {f"cli.{s}_s": (median(samples[s]), "s") for s in SETUP + PIPELINE}
            metrics.update(
                (k, (v, COUNT_UNITS.get(k, "s"))) for k, v in traced["metrics"].items()
            )
        else:
            n_posts = count_posts(inputs.timelines)
            metrics = {
                "setup_s": (median(samples["setup_s"]), "s"),
                # Each stage's median over the run, summed: the pipeline's
                # wall time, with a repeated scan counted once.
                "pipeline_s": (sum(median(samples[s]) for s in PIPELINE), "s"),
                "scan_posts_per_s": (median([n_posts / s for s in samples["scan"]]), "posts/s"),
                "peak_rss_mb": (median(samples["peak_rss_mb"]), "MB"),
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for failure in failures:
        print(f"incorrect: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": stages,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
