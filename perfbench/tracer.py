"""Per-layer spans for the traced benchmark run, installed from outside sumsetlab.

Each public entry point of a layer is wrapped in a span, and every
``sumsetlab.*`` module attribute (and module-level registry dict value) that
refers to the original function is rebound to the wrapper.  The rebinding is
what makes spans see intra-package calls: modules import each other with
``from .core import ...``, so patching ``sumsetlab.core`` alone would miss
them.  Nothing under ``src/`` changes.

A span's self time is its duration minus the time of the spans it caused.
Bookkeeping done after a span closes (counting points, bounding boxes) is
charged to no span, so it shows only in the traced-run overhead.
"""

from __future__ import annotations

import functools
import re
import statistics
import sys
from collections import Counter
from time import perf_counter

from sumsetlab import (
    bounds,
    certificates,
    cli,
    compression,
    core,
    generators,
    serialization,
    structure,
    suites,
)

_MOVES = re.compile(r"after (\d+) moves")

# span name -> (module, public functions that make up the layer)
LAYERS = {
    "core.sumset": (core, ("minkowski_sum", "iterated_sumset")),
    "core.project": (core, ("project",)),
    "core.linear_image": (core, ("linear_image",)),
    "core.affine_dimension": (core, ("affine_dimension",)),
    "compression.compress": (compression, ("compress",)),
    "compression.check": (compression, ("check_sum_monotone", "check_projection_monotone")),
    "compression.reduce": (compression, ("reduce_to_simplex",)),
    "bounds.check": (bounds, tuple(n for n in vars(bounds) if n.startswith("check_"))),
    "bounds.probe": (bounds, ("main_term_probe", "det_main_term_probe", "khovanskii_probe")),
    "certificates.digest": (certificates, ("digest",)),
    "certificates.interval": (certificates, ("interval_certificate",)),
    "structure.decide": (structure, ("decide_irreducible",)),
    "serialization.encode": (
        serialization,
        ("pointset_to_dict", "matrix_to_dict", "system_to_dict", "basis_to_dict", "dumps_canonical"),
    ),
    "serialization.decode": (
        serialization,
        ("pointset_from_dict", "matrix_from_dict", "system_from_dict", "basis_from_dict"),
    ),
    "cli": (cli, ("run",)),
    "generators": (
        generators,
        (
            "long_simplex",
            "long_simplex_summands",
            "long_simplex_sumset_form",
            "cube",
            "grid",
            "interval_set",
            "rotation_system",
            "shear_system",
            "shear_counterexample",
            "random_set",
            "random_full_dim_set",
            "random_system",
        ),
    ),
}

# per-layer metric -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "core.sumset.calls": "count",
    "core.sumset.self_s": "s",
    "core.sumset.points_out": "count",
    "core.sumset.box_fill_p50": "ratio",
    "core.sumset.rational_share": "ratio",
    "core.project.calls": "count",
    "core.project.self_s": "s",
    "core.linear_image.self_s": "s",
    "core.affine_dimension.calls": "count",
    "core.affine_dimension.self_s": "s",
    "compression.compress.calls": "count",
    "compression.compress.self_s": "s",
    "compression.check.self_s": "s",
    "compression.reduce.self_s": "s",
    "compression.reduce.moves": "count",
    "compression.reduce.fire_ratio": "ratio",
    "bounds.check.calls": "count",
    "bounds.check.self_s": "s",
    "bounds.probe.self_s": "s",
    "certificates.digest.calls": "count",
    "certificates.digest.self_s": "s",
    "certificates.interval.certs": "count",
    "certificates.interval.rounds": "count",
    "certificates.indeterminate": "count",
    "structure.decide.calls": "count",
    "structure.decide.self_s": "s",
    "structure.decide.unknown": "count",
    "serialization.encode.self_s": "s",
    "serialization.decode.self_s": "s",
    "serialization.stdout_bytes": "bytes",
    "cli.self_s": "s",
    "generators.self_s": "s",
    **{f"suites.{name}.s": "s" for name in suites.FULL_SUITE},
}


class Tracer:
    """Counters and span timers for one process.  ``record(False)`` binds the
    original functions again, so untraced passes run without the wrappers;
    ``paused`` lets the benchmark's own output checks call into sumsetlab
    through the wrappers without being counted."""

    def __init__(self) -> None:
        self.raw: Counter = Counter()
        self.box_fill: list[float] = []
        self.paused = False
        self._stack: list[list[float]] = []
        self._active: Counter = Counter()
        self._pairs: list[tuple] = []  # (original, wrapper)
        self._recording = True

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        stack, active, raw = self._stack, self._active, self.raw

        def close(t0: float, frame: list[float], args, result, exc) -> None:
            t1 = perf_counter()
            stack.pop()
            active[name] -= 1
            own = t1 - t0 - frame[0]
            raw[name + ".self_s"] += own
            raw[name + ".total_s"] += t1 - t0
            raw[name + ".calls"] += 1
            if observe is not None:
                observe(args, result, exc, own)
            if stack:
                stack[-1][0] += perf_counter() - t0

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                close(t0, frame, args, None, exc)
                raise
            close(t0, frame, args, result, None)
            return result

        return span

    def install(self) -> None:
        """Wrap every layer entry point and rebind all references to it."""
        observers = {
            "core.sumset": self._observe_sumset,
            "compression.compress": self._observe_compress,
            "compression.reduce": self._observe_reduce,
            "certificates.interval": self._observe_interval,
            "structure.decide": self._observe_decide,
        }
        for name, (module, attrs) in LAYERS.items():
            for attr in attrs:
                original = getattr(module, attr)
                target = original
                if name == "certificates.interval":
                    target = self._counting_interval(original)
                self._pairs.append((original, self._wrap(name, target, observers.get(name))))
        for criterion, original in list(suites.FULL_SUITE.items()):
            self._pairs.append((original, self._wrap(f"suites.{criterion}", original)))
        for original, wrapper in self._pairs:
            _rebind(original, wrapper)

    def record(self, on: bool) -> None:
        """Bind the wrappers and count (``on``), or bind the originals and pause."""
        self.paused = not on
        if on != self._recording:
            for original, wrapper in self._pairs:
                if on:
                    _rebind(original, wrapper)
                else:
                    _rebind(wrapper, original)
            self._recording = on

    # -- observers: counts taken where the work happens -------------------------

    def _observe_sumset(self, args, result, exc, own: float) -> None:
        if exc is not None:
            return
        self.raw["core.sumset.points_out"] += len(result)
        if not result.is_integral:
            self.raw["core.sumset.rational_self_s"] += own
            return
        volume = 1
        for i in range(result.dim):
            coords = [p[i] for p in result.points]
            volume *= max(coords) - min(coords) + 1
        self.box_fill.append(len(result) / volume)

    def _observe_compress(self, args, result, exc, own: float) -> None:
        if self._active["compression.reduce"]:
            self.raw["compression.reduce.compress_calls"] += 1

    def _observe_reduce(self, args, result, exc, own: float) -> None:
        if exc is None:
            self.raw["compression.reduce.moves"] += len(result[1].steps)
            return
        match = _MOVES.search(str(exc))
        if match:
            self.raw["compression.reduce.moves"] += int(match.group(1))

    def _observe_interval(self, args, result, exc, own: float) -> None:
        if exc is None:
            self.raw["certificates.interval.certs"] += 1
            if result.verdict == certificates.INDETERMINATE:
                self.raw["certificates.indeterminate"] += 1

    def _observe_decide(self, args, result, exc, own: float) -> None:
        if exc is None and result.status == structure.UNKNOWN:
            self.raw["structure.decide.unknown"] += 1

    def _counting_interval(self, original):
        """interval_certificate with its ``make_sides`` callback counted, so
        precision doublings are evaluations minus certificates."""
        raw = self.raw

        @functools.wraps(original)
        def interval_certificate(statement_id, make_sides, **kwargs):
            def counted(bits):
                if not self.paused:
                    raw["certificates.interval.evaluations"] += 1
                return make_sides(bits)

            return original(statement_id, counted, **kwargs)

        return interval_certificate

    # -- results ---------------------------------------------------------------

    def take(self) -> dict:
        """Return the raw counters gathered so far and start afresh."""
        snapshot = {"raw": dict(self.raw), "box_fill": list(self.box_fill)}
        self.raw.clear()
        self.box_fill.clear()
        return snapshot


def _rebind(old, new) -> None:
    """Point every ``sumsetlab.*`` module attribute and registry dict value
    that refers to ``old`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "sumsetlab" or name.startswith("sumsetlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is old:
                        value[key] = new


def layer_metrics(setup: dict, ops: dict, passes: int, stdout_bytes: float) -> dict:
    """Per-layer metrics for one pass over the workload's operations, plus the
    set-up once: ``setup + ops / passes`` for every additive counter."""
    raw: Counter = Counter(setup["raw"])
    for key, value in ops["raw"].items():
        raw[key] += value / passes
    fill = setup["box_fill"] + ops["box_fill"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {
        "core.sumset.box_fill_p50": statistics.median(fill) if fill else 0.0,
        "core.sumset.rational_share": ratio(
            raw["core.sumset.rational_self_s"], raw["core.sumset.self_s"]
        ),
        "compression.reduce.fire_ratio": ratio(
            raw["compression.reduce.moves"], raw["compression.reduce.compress_calls"]
        ),
        "certificates.interval.rounds": raw["certificates.interval.evaluations"]
        - raw["certificates.interval.certs"],
        "serialization.stdout_bytes": stdout_bytes,
    }
    for metric in METRICS:
        if metric in values:
            continue
        if metric.startswith("suites."):
            values[metric] = raw[metric[: -len(".s")] + ".total_s"]
        else:
            values[metric] = raw[metric]
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
