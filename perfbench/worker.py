"""One benchmark run in a fresh interpreter, started by ``run.py``.

Builds the workload's inputs, then runs whole passes over its operations
until ``--seconds`` have elapsed, timing each operation and checking its
output outside the timed region.  Prints one JSON object on stdout.  With
``--setup-only`` it exits right after building the inputs, so the parent can
time start-up, import and input generation on their own.

With ``--trace 1`` the spans of ``tracer.py`` are installed before sumsetlab
is used.  Passes then alternate between untraced passes, which run with the
original functions bound again, and recording passes, starting untraced, so
the tracing overhead is measured within one process, free of the host-speed
drift between two runs; per-layer values come from the recording passes.  The
output checks always run with tracing paused.

``attempted`` and ``failed`` count each operation once, with the most units
it attempted and failed in any pass, so two runs on the same seed report the
same counts however many passes they made.

``--inject corrupt`` flips one byte of the first operation's output,
``--inject raise`` makes the first operation raise, and ``--inject
reduce_error`` makes the first ``reduce`` with a reference digest raise
``ReductionError``, the known defect; ``selftest.py`` uses them to show that
all three are counted as failures that make the run incorrect.  ``--passes``
fixes the number of passes, for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

from common import HERE, OUT_DIR

REFERENCES = os.path.join(HERE, "references.json")
MAX_ERRORS = 20


def calibrate(samples: list[float]) -> None:
    """Time a fixed pure-Python loop three times, in milliseconds.  Samples
    taken before and after every pass read the host's speed over the run;
    their median is reported beside the results and never divided into them."""
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        samples.append((time.perf_counter() - t0) * 1000)


def load_references(scale: str, workload: str) -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh).get(scale, {}).get(workload, {})


def tally(outcomes: dict[str, tuple[int, int]], name: str, units: int, units_failed: int) -> None:
    seen_units, seen_failed = outcomes.get(name, (0, 0))
    outcomes[name] = (max(seen_units, units), max(seen_failed, units_failed))


def corrupt(text: str) -> str:
    i = len(text) // 2
    return text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1 :]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject", choices=("none", "corrupt", "raise", "reduce_error"), default="none")
    parser.add_argument("--passes", type=int, default=0, help="exact number of passes; 0: until --seconds")
    parser.add_argument("--ignore-references", action="store_true", help="used by record.py")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    try:
        ops = workloads.BUILDERS[args.workload](args.seed, args.scale, workdir)
        if args.setup_only:
            return 0
        setup_trace = tracer.take() if tracer else None
        calib: list[float] = []
        calibrate(calib)
        references = {}
        if args.seed == workloads.DEFAULT_SEED and not args.ignore_references:
            references = load_references(args.scale, args.workload)

        if args.inject == "raise":
            def injected():
                raise RuntimeError("injected failure")

            ops[0].call = injected
        elif args.inject == "reduce_error":
            target = next(op for op in ops if op.known_defects and op.name in references)

            def injected(defect=target.known_defects[0]):
                raise defect("injected non-convergence")

            target.call = injected

        digests: dict[str, str] = {}
        errors: list[str] = []
        latencies: list[float] = []
        # op name -> (units attempted, units failed), the most of each over
        # the passes, so the counts depend on the seed but not on how many
        # passes the run's time allowed
        outcomes: dict[str, tuple[int, int]] = {}
        wrong = units_done = 0
        op_seconds = 0.0
        pass_rates: list[float] = []
        pass_seconds: list[float] = []
        stdout_bytes = 0
        passes = 0
        started = time.perf_counter()
        while True:
            pass_start_seconds, pass_start_units = op_seconds, units_done
            recording = tracer is not None and passes % 2 == 1
            if tracer:
                tracer.record(recording)
            for index, op in enumerate(ops):
                t0 = time.perf_counter()
                try:
                    result = op.call()
                except Exception as exc:  # a failing operation is counted, not fatal
                    elapsed = time.perf_counter() - t0
                    op_seconds += elapsed
                    latencies.append(elapsed * 1000)
                    tally(outcomes, op.name, 1, 1)
                    # a known defect only where no correct output was ever recorded
                    known = isinstance(exc, op.known_defects) and op.name not in references
                    wrong += not known
                    if passes == 0 and len(errors) < MAX_ERRORS:
                        kind = "known defect" if known else "unexpected error"
                        errors.append(f"{op.name}: {kind}: {type(exc).__name__}: {exc}")
                    continue
                elapsed = time.perf_counter() - t0
                op_seconds += elapsed
                latencies.append(elapsed * 1000)
                if tracer:
                    tracer.paused = True
                try:
                    text = op.render(result)
                    if args.inject == "corrupt" and passes == 0 and index == 0:
                        text = corrupt(text)
                    if passes == 0 and isinstance(result, workloads.CliResult):
                        stdout_bytes += len(text.encode())
                    digest = workloads.sha256(text)
                    expected = digests.get(op.name) or workloads.GOLDEN.get(op.name) or references.get(op.name)
                    if expected is not None and digest != expected:
                        raise workloads.CheckError(f"output sha256 {digest[:12]} != reference {expected[:12]}")
                    digests[op.name] = digest
                    units, units_failed = op.check(result, text)
                except Exception as exc:  # any error while checking means a wrong output
                    tally(outcomes, op.name, 1, 1)
                    wrong += 1
                    if len(errors) < MAX_ERRORS:
                        errors.append(f"pass {passes} {op.name}: wrong output: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    if tracer:
                        tracer.paused = not recording
                tally(outcomes, op.name, units, units_failed)
                units_done += units - units_failed
            pass_seconds.append(op_seconds - pass_start_seconds)
            pass_rates.append((units_done - pass_start_units) / pass_seconds[-1])
            passes += 1
            calibrate(calib)
            if args.passes:
                if passes >= args.passes:
                    break
            elif time.perf_counter() - started >= args.seconds and (tracer is None or passes >= 2):
                break

        record = {
            "passes": passes,
            "ops_per_pass": len(ops),
            "op_seconds": op_seconds,
            "units_done": units_done,
            "pass_rates": pass_rates,
            "pass_seconds": pass_seconds,
            "attempted": sum(units for units, _ in outcomes.values()),
            "failed": sum(units_failed for _, units_failed in outcomes.values()),
            "wrong": wrong,
            "latencies_ms": latencies,
            "digests": digests,
            "errors": errors,
            "calib_ms": statistics.median(calib),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "stdout_bytes": stdout_bytes,
        }
        if tracer:
            record["layers"] = layer_metrics(setup_trace, tracer.take(), passes // 2, stdout_bytes)
            paused, recorded = pass_seconds[0::2], pass_seconds[1::2]
            record["trace_overhead"] = statistics.median(recorded) / statistics.median(paused) - 1
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
