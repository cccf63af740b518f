"""Fast self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Runs every workload at the tiny scale on the default seed and checks that:

* a clean run is correct, with no failures;
* a corrupted output byte is counted as a failure and makes the run incorrect;
* an operation that raises is counted as one failure, however many passes
  the run makes, and makes the run incorrect (only a non-converging
  ``reduce`` is a known defect);
* a ``reduce`` whose converged output is in ``references.json`` and that
  raises ``ReductionError`` makes the run incorrect;
* a traced run reports every per-layer metric of BENCHMARK.json, and its
  outputs are byte-identical to the untraced run;
* the traced counts do not depend on the number of passes, and precision
  doublings are never negative;
* in a directory holding only BENCHMARK.json and the benchmark, the command
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from common import HERE, OUT_DIR, ROOT, WORKLOADS


def run(*extra: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seed", "0", "--seconds", "0.2",
            "--scale", "tiny", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(ok: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def main() -> int:
    failures: list[str] = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    for workload in WORKLOADS:
        clean = result(run("--workload", workload, "--trace", "0"))
        expect(clean["correct"] and clean["failed"] == 0, f"{workload}: clean run is correct", failures)
        expect(set(clean["metrics"]) == end_to_end, f"{workload}: every end-to-end metric", failures)
        bad = result(run("--workload", workload, "--trace", "0", "--inject", "corrupt"))
        expect(not bad["correct"] and bad["failed"] >= 1, f"{workload}: corrupted byte is a failure", failures)
        raised = result(run("--workload", workload, "--trace", "0", "--inject", "raise", "--passes", "3"))
        expect(not raised["correct"] and raised["failed"] == 1,
               f"{workload}: raised exception is one failure over 3 passes", failures)
    reduce_error = result(run("--workload", "certify_sweep", "--trace", "0", "--inject", "reduce_error"))
    expect(not reduce_error["correct"] and reduce_error["failed"] >= 1,
           "certify_sweep: ReductionError on a referenced reduce is a failure", failures)
    traced = {}
    for passes in (2, 3):
        traced[passes] = result(run("--workload", "certify_sweep", "--trace", "1", "--passes", str(passes)))
        expect(traced[passes]["correct"], f"{passes} passes: traced stdout identical to untraced", failures)
        expect(set(traced[passes]["metrics"]) == per_layer, f"{passes} passes: every per-layer metric", failures)
    rounds = [traced[p]["metrics"]["certificates.interval.rounds"]["value"] for p in (2, 3)]
    expect(min(rounds) >= 0, f"precision doublings {rounds} not negative", failures)
    counts = [{k: m["value"] for k, m in traced[p]["metrics"].items() if m["unit"] == "count"} for p in (2, 3)]
    expect(counts[0] == counts[1], "traced counts equal for 2 and 3 passes", failures)

    os.makedirs(OUT_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT_DIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "dense_kfold", "--trace", "0", cwd=bare)
        expect(proc.returncode != 0 and "correct" not in proc.stdout, "bare directory exits non-zero", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
