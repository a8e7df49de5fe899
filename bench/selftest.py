"""Fast self-test of the benchmark's correctness checks.

    python3 bench/selftest.py        # from the repository root, ~10 s

Runs the pipeline once on a small ``synth`` fixture and shows that the checks
accept its outputs, then that each check rejects a corrupted copy: one match
dropped, one label flipped, one feature column removed, one weight perturbed.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import PIPELINE, SETUP, SRC, WORK, Inputs, StageFailed, program_env, run_stage, stage_argv


def _drop_match(out):
    path = out / "matches.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[1:]), encoding="utf-8")


def _flip_label(out):
    path = out / "labeled.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.rstrip().endswith(",circulator"))
    lines[i] = lines[i].replace(",circulator", ",debunker")
    path.write_text("".join(lines), encoding="utf-8")


def _drop_feature(out):
    path = out / "vectors.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    vector = json.loads(lines[1])
    vector["columns"] = vector["columns"][1:]
    lines[1] = json.dumps(vector) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _perturb_weight(out):
    path = out / "model.json"
    model = json.loads(path.read_text(encoding="utf-8"))
    model["weights"][0] += 0.05
    path.write_text(json.dumps(model), encoding="utf-8")


CORRUPTIONS = {
    "one match dropped": (_drop_match, "check_matches"),
    "one label flipped": (_flip_label, "check_labels"),
    "one feature column removed": (_drop_feature, "check_features"),
    "one weight perturbed": (_perturb_weight, "check_model"),
}


def main() -> int:
    if not (SRC / "quotematch" / "cli.py").is_file():
        print(f"error: no quotematch source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    env = program_env()
    root = WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    try:
        subprocess.run(
            [sys.executable, "-m", "quotematch.cli", "synth", "--out-dir", str(root / "inputs"),
             "--n-per-class", "40", "--two-refute", "15", "--seed", "3"],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        inputs = Inputs.at(root / "inputs")
        out = root / "out"
        out.mkdir()
        try:
            for stage in SETUP + PIPELINE:
                run_stage(stage_argv(stage, inputs, out), env, root / "stderr.log")
        except StageFailed as exc:
            print(f"FAIL: {exc}")
            return 1
        expected = checks.expected_matches(inputs, use_sparse=False)
        ok = checks.expected_matches(inputs, use_sparse=True) == expected
        print(("ok" if ok else "FAIL") + ": set-arithmetic and sparse references agree")
        clean = checks.check_all(inputs, out, expected, model_quality=True)
        print(("FAIL" if clean else "ok") + f": clean outputs pass ({len(expected)} matches)"
              + "".join(f"\n  {f}" for f in clean))
        ok = ok and not clean
        for name, (corrupt, check_name) in CORRUPTIONS.items():
            bad = root / "bad"
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(out, bad)
            corrupt(bad)
            check = getattr(checks, check_name)
            args = (expected, bad) if check_name == "check_matches" else (inputs, bad)
            found = check(*args)
            print(("ok" if found else "FAIL") + f": {check_name} rejects {name}"
                  + (f": {found[0]}" if found else ""))
            ok = ok and bool(found)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
