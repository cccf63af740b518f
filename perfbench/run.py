"""sumsetlab benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sumsetlab is imported from ``src/``.
Each measurement happens in a fresh interpreter (``worker.py``), because a CLI
user pays the import cost and starts with sympy's process-wide caches empty.
All load comes from that one single-threaded process, with default settings
and no ``--jobs``.

With ``--trace 0`` the last line of stdout is a JSON object with every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric of a
traced run and its tracing overhead, and the run is correct only if every
output is byte-identical to an untraced run of the same inputs.  The line before it records the machine: nproc, Python and sympy
versions, whether numpy is present, the git sha when there is one, and the
host-speed calibration ``calib_ms``.  The full record of the run, with the
sha256 of every operation's output, is written to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from common import HERE, OUT_DIR, ROOT, WORKLOADS

SETUP_REPEATS = 7
DEADLINE_S = 170.0


class RunError(Exception):
    """The run cannot produce a result."""


def git_sha(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts(calib_ms: float | None) -> dict:
    try:
        sympy_version = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sympy": sympy_version,
        "numpy_present": importlib.util.find_spec("numpy") is not None,
        "git_sha": git_sha(ROOT),
        "calib_ms": calib_ms,
    }


class Worker:
    """Starts ``worker.py`` children within the run's deadline."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.env.pop("SUMSETLAB_PRECISION_CAP", None)

    def run(self, *extra: str, trace: int = 0) -> tuple[float, str]:
        """Run one child to completion; returns (wall seconds, stdout)."""
        argv = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds), "--trace", str(trace), "--scale", self.args.scale, *extra,
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunError("out of time before starting a worker")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise RunError("worker did not finish before the deadline") from exc
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RunError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return wall, proc.stdout

    def measure(self, trace: int, *extra: str) -> dict:
        _, stdout = self.run(*extra, trace=trace)
        return json.loads(stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) with linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(record: dict, setup_times: list[float]) -> dict:
    """Each timing is a median over passes of that pass's statistic, so a
    burst of host slowness moves one pass, not the result."""
    lat, n = record["latencies_ms"], record["ops_per_pass"]
    passes = [lat[i : i + n] for i in range(0, len(lat), n)]
    return {
        "ops_per_s": {"value": statistics.median(record["pass_rates"]), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(percentile(p, 50) for p in passes), "unit": "ms"},
        "op_p90_ms": {"value": statistics.median(percentile(p, 90) for p in passes), "unit": "ms"},
        "ok_rate": {"value": 1 - record["failed"] / record["attempted"], "unit": "ratio"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one sumsetlab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: self-test sizes")
    parser.add_argument("--inject", choices=("none", "corrupt", "raise", "reduce_error"), default="none",
                        help="self-test only")
    parser.add_argument("--passes", type=int, default=0, help="self-test only: exact number of passes")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sumsetlab", "__init__.py")):
        print(f"error: no sumsetlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    worker = Worker(args)
    inject = ("--inject", args.inject, "--passes", str(args.passes))
    try:
        if args.trace == 0:
            setup_times = [worker.run("--setup-only")[0] for _ in range(SETUP_REPEATS)]
            record = worker.measure(0, *inject)
            metrics = end_to_end(record, setup_times)
            correct = record["wrong"] == 0
            runs = {"untraced": record, "setup_s": setup_times}
        else:
            plain = worker.measure(0, *inject)
            record = worker.measure(1, *inject)
            metrics = dict(
                record["layers"],
                **{
                    "trace.overhead": {"value": record["trace_overhead"], "unit": "ratio"},
                    "host.calib_ms": {"value": record["calib_ms"], "unit": "ms"},
                },
            )
            identical = all(record["digests"].get(name, d) == d for name, d in plain["digests"].items())
            correct = plain["wrong"] == 0 and record["wrong"] == 0 and identical
            runs = {"untraced": plain, "traced": record, "traced_stdout_identical": identical}
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    facts = machine_facts(record["calib_ms"])
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "machine": facts, "metrics": metrics, **runs}, fh)
    for line in record["errors"]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"machine": facts}))
    print(json.dumps({"correct": correct, "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
