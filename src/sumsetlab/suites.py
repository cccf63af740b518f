"""Verification suites: each runner exercises one family of statements end
to end and reports pass/fail with the measured quantities.

The same runners back the test suite and the ``sumsetlab suite`` command, so
a green CI run and a green CLI run are literally the same computation.  All
randomness is drawn from fixed seeds through splitmix64, so a suite is a
deterministic function of its knobs; reports carry wall-clock timing for the
operator but exclude it from the serialized form to keep reports
byte-identical across runs.  Each criterion draws from its own stream, so
:func:`run_suite` runs them in forked worker processes, one per available
CPU, and its report does not depend on the CPU count.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from typing import Callable, Iterable

from .bounds import (
    _weighted_size,
    check_discrete_bm,
    check_freiman_kfold,
    check_gs_kfold,
    check_iterated_pr,
    check_linear_pr,
    check_plunnecke_ruzsa,
    check_ruzsa_triangle,
    check_simplex_formula,
    fit_deficit_exponent,
    khovanskii_probe,
    main_term_probe,
)
from .certificates import _PRECISION_CAP, HOLDS, INDETERMINATE, VIOLATED, Certificate, precision_limit
from .compression import (
    CompressionSpec,
    check_projection_monotone,
    check_sum_monotone,
    compress,
    reduce_to_simplex,
)
from .core import (
    _SUM_LIMIT,
    LinearSystem,
    RationalMatrix,
    sum_limit,
    sumset_size,
    vec_dot,
)
from .generators import (
    _uniform_draws,
    cube,
    grid,
    long_simplex,
    random_full_dim_set,
    random_set,
    random_system,
    rotation_system,
    shear_counterexample,
    splitmix64_stream,
)
from .structure import COPRIME, IRREDUCIBLE, coprime_sufficient, decide_irreducible

_MAX_RECORDED_FAILURES = 8


class _Params:
    """Deterministic fixture parameters drawn from one splitmix64 stream."""

    def __init__(self, seed: int):
        self._words = splitmix64_stream(seed)

    def word(self) -> int:
        return next(self._words)

    def below(self, n: int) -> int:
        return next(_uniform_draws(self._words, n))

    def range(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def choice(self, seq):
        return seq[self.below(len(seq))]


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one suite runner.

    ``checked`` counts individual assertions; ``failures`` records the first
    few failing labels (the count of all failures is ``checked_failed``).
    ``seconds`` is informational only and deliberately left out of
    :meth:`to_dict` so serialized reports are reproducible byte for byte.
    """

    name: str
    passed: bool
    checked: int
    checked_failed: int
    failures: tuple[str, ...]
    details: dict
    seconds: float

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.name}: {self.checked} checks"
        if self.checked_failed:
            line += f", {self.checked_failed} failed"
        return line + f" ({self.seconds:.1f}s)"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "failed": self.checked_failed,
            "failures": list(self.failures),
            "details": self.details,
        }


class _Recorder:
    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.checked = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, label: str) -> bool:
        self.checked += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < _MAX_RECORDED_FAILURES:
                self.failures.append(label)
        return ok

    def certificate(
        self, cert: Certificate, label: str, *, want_slack_zero: bool = False
    ) -> bool:
        ok = cert.verdict == HOLDS
        if want_slack_zero:
            ok = ok and cert.slack == 0
        return self.check(ok, f"{label}: verdict={cert.verdict} slack={cert.slack}")

    def report(self, name: str, details: dict) -> CriterionReport:
        return CriterionReport(
            name=name,
            passed=self.failed == 0,
            checked=self.checked,
            checked_failed=self.failed,
            failures=tuple(self.failures),
            details=details,
            seconds=time.perf_counter() - self.started,
        )


def _simplex_grid(d_max: int, n_max: int, k_max: int) -> Iterable[tuple[int, int, int]]:
    for d in range(1, d_max + 1):
        for N in range(d + 1, n_max + 1):
            for k in range(1, k_max + 1):
                yield d, N, k


def exact_formula_grid(d_max: int = 4, n_max: int = 12, k_max: int = 6) -> CriterionReport:
    """closed-form |k A_{d,N}| equals brute force on the whole (d, N, k) grid."""
    rec = _Recorder()
    cases = 0
    for d, N, k in _simplex_grid(d_max, n_max, k_max):
        cases += 1
        cert = check_simplex_formula(d, N, k)
        rec.certificate(cert, f"simplex_formula d={d} N={N} k={k}", want_slack_zero=True)
    return rec.report(
        "exact_formula_grid",
        {"cases": cases, "d_max": d_max, "n_max": n_max, "k_max": k_max},
    )


def kfold_lower_bound_equality_family(
    d_max: int = 4, n_max: int = 12, k_max: int = 6, samples: int = 500
) -> CriterionReport:
    """k-fold lower bound: slack 0 on every long simplex, Holds on random sets."""
    rec = _Recorder()
    for d, N, k in _simplex_grid(d_max, n_max, k_max):
        cert = check_freiman_kfold(long_simplex(d, N), k)
        rec.certificate(cert, f"freiman_kfold simplex d={d} N={N} k={k}", want_slack_zero=True)
    params = _Params(0x1F6E_0001)
    for i in range(samples):
        d = params.range(1, 3)
        size = params.range(d + 1, 20)
        bound = max(params.range(4, 9), (size + 2) // 2 if d == 1 else 0)
        k = params.range(1, 4)
        A = random_full_dim_set(d, size, (-bound, bound), params.word())
        cert = check_freiman_kfold(A, k)
        rec.certificate(cert, f"freiman_kfold random #{i} d={d} size={size} k={k}")
    return rec.report(
        "kfold_lower_bound_equality_family",
        {"grid_cases": sum(1 for _ in _simplex_grid(d_max, n_max, k_max)), "samples": samples},
    )


_PLANAR_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, -2)]


def planar_bound_grids(side_max: int = 4, k_max: int = 4, samples: int = 1000) -> CriterionReport:
    """Planar k-fold bound: slack 0 on grid families, Holds on random planar sets.

    The statement is symmetric in the summands, so the grid sweep checks one
    representative per multiset of grid shapes.
    """
    rec = _Recorder()
    shapes = [(n, m) for n in range(1, side_max + 1) for m in range(1, side_max + 1)]
    grid_cases = 0
    for k in range(2, k_max + 1):
        for combo in combinations_with_replacement(shapes, k):
            grid_cases += 1
            sets = grid(list(combo))
            cert = check_gs_kfold(sets, (1, 0))
            rec.certificate(cert, f"gs_kfold grids {combo}", want_slack_zero=True)
    params = _Params(0x1F6E_0002)
    for i in range(samples):
        k = params.range(2, k_max)
        sets = [
            random_set(2, params.range(1, 15), (0, 8), params.word()) for _ in range(k)
        ]
        direction = params.choice(_PLANAR_DIRECTIONS)
        cert = check_gs_kfold(sets, direction)
        rec.certificate(cert, f"gs_kfold random #{i} k={k} v={direction}")
    return rec.report(
        "planar_bound_grids",
        {"grid_cases": grid_cases, "samples": samples, "side_max": side_max},
    )


def _random_spec(params: _Params, d: int) -> CompressionSpec:
    if params.below(2) == 0:
        return CompressionSpec.axis(params.range(1, d), d)
    while True:
        normal = tuple(params.range(-2, 2) for _ in range(d))
        direction = tuple(params.range(-2, 2) for _ in range(d))
        if any(normal) and any(direction) and vec_dot(normal, direction) != 0:
            return CompressionSpec(normal=normal, offset=params.range(-3, 3), direction=direction)


def compression_laws(samples: int = 1000) -> CriterionReport:
    """Compression preserves cardinality, never grows sumsets or projections."""
    rec = _Recorder()
    params = _Params(0x1F6E_0003)
    for i in range(samples):
        d = params.range(1, 3)
        k = params.range(1, 3)
        sets = [
            random_set(d, params.range(1, 12), (-6, 6), params.word()) for _ in range(k)
        ]
        spec = _random_spec(params, d)
        for j, A in enumerate(sets):
            rec.check(len(compress(A, spec)) == len(A), f"cardinality #{i}.{j}")
        cert = check_sum_monotone(sets, spec)
        rec.certificate(cert, f"sum_monotone #{i} d={d} k={k}")
        if d >= 2:
            axis = params.range(1, d)
            size = params.range(1, d - 1)
            coords = sorted(params.choice(list(combinations(range(1, d + 1), size))))
            cert = check_projection_monotone(sets, axis, coords)
            rec.certificate(cert, f"projection_monotone #{i} axis={axis} I={coords}")
    return rec.report("compression_laws", {"samples": samples})


def rotation_reproduction(n_max: int = 5) -> CriterionReport:
    """Rotation systems: exact sumset size (2dN+1)^d, irreducible, coprime."""
    rec = _Recorder()
    for d in (2, 3):
        system = rotation_system(d)
        rec.check(
            decide_irreducible(system).status == IRREDUCIBLE, f"irreducible d={d}"
        )
        rec.check(coprime_sufficient(system) == COPRIME, f"coprime d={d}")
        for N in range(1, n_max + 1):
            got = _weighted_size(system, cube(d, N))
            want = (2 * d * N + 1) ** d
            rec.check(got == want, f"rotation d={d} N={N}: {got} != {want}")
    return rec.report("rotation_reproduction", {"n_max": n_max})


def shear_regression(n_max: int = 50) -> CriterionReport:
    """Shear pair: |X| = 2N-1 while the weighted sumset fills (2N-1)^2."""
    rec = _Recorder()
    for N in range(1, n_max + 1):
        system, X = shear_counterexample(N)
        rec.check(len(X) == 2 * N - 1, f"|X| N={N}")
        got = _weighted_size(system, X)
        rec.check(got == (2 * N - 1) ** 2, f"|L1X + L2X| N={N}: {got}")
    return rec.report("shear_regression", {"n_max": n_max})


def sumset_ratio_family(samples: int = 1000) -> CriterionReport:
    """Ruzsa triangle, Plünnecke-Ruzsa, iterated and linear variants hold on
    seeded random instances within their preconditions."""
    rec = _Recorder()
    params = _Params(0x1F6E_0007)
    for i in range(samples):
        U, V, W = (
            random_set(2, params.range(1, 6), (0, 5), params.word()) for _ in range(3)
        )
        rec.certificate(check_ruzsa_triangle(U, V, W), f"ruzsa_triangle #{i}")
    for i in range(samples):
        A = random_set(2, params.range(1, 6), (0, 5), params.word())
        B = random_set(2, params.range(1, 6), (0, 5), params.word())
        m, n = params.range(0, 2), params.range(0, 2)
        rec.certificate(check_plunnecke_ruzsa(A, B, m, n), f"plunnecke_ruzsa #{i} m={m} n={n}")
    for i in range(samples):
        k = params.range(2, 4)
        N = params.range(1, 6)
        sets = [random_set(2, N, (0, 5), params.word()) for _ in range(k)]
        rec.certificate(check_iterated_pr(sets), f"iterated_pr #{i} k={k} N={N}")
    identity = RationalMatrix.identity(2)
    for i in range(samples):
        k = 2 if params.below(4) else 3
        size_cap, box_hi = (6, 5) if k == 2 else (4, 3)
        tail = random_system(2, k - 1, 2, params.word())
        system = LinearSystem([identity, *tail.maps])
        A = random_set(2, params.range(1, size_cap), (0, box_hi), params.word())
        rec.certificate(check_linear_pr(system, A), f"linear_pr #{i} k={k}")
    return rec.report("sumset_ratio_family", {"samples_per_family": samples})


def brunn_minkowski_family(samples: int = 500) -> CriterionReport:
    """Discrete Brunn-Minkowski: never Violated, never Indeterminate at the
    default precision, and exact equality on equal 3x3 grids."""
    rec = _Recorder()
    square = grid([(3, 3)])[0]
    cert = check_discrete_bm([square, square])
    rec.certificate(cert, "equality 3x3 grids", want_slack_zero=True)
    rec.check(cert.precision_bits is None, "equality case decided exactly")
    rec.check(cert.lhs == 25 and cert.rhs == 25, f"equality sides {cert.lhs}={cert.rhs}")
    indeterminate = 0
    params = _Params(0x1F6E_0008)
    for i in range(samples):
        d = params.range(1, 3)
        k = params.range(1, 3)
        box = (0, 15) if d == 1 else (0, 7)
        sets = [
            random_set(d, params.range(1, 12), box, params.word()) for _ in range(k)
        ]
        cert = check_discrete_bm(sets)
        if cert.verdict == INDETERMINATE:
            indeterminate += 1
        rec.check(cert.verdict == HOLDS, f"discrete_bm #{i} d={d} k={k}: {cert.verdict}")
    rec.check(indeterminate == 0, f"indeterminate rate {indeterminate}/{samples}")
    return rec.report(
        "brunn_minkowski_family",
        {"samples": samples, "indeterminate": indeterminate},
    )


def main_term_deficit(n_max: int = 20) -> CriterionReport:
    """Planar rotation sweep: deficit exactly 8N+3, fitted exponent near 1/2,
    and the probe never reports Violated."""
    rec = _Recorder()
    system = rotation_system(2)
    pairs = []
    for N in range(1, n_max + 1):
        A = cube(2, N)
        cert = main_term_probe(system, A)
        rec.check(cert.verdict != VIOLATED, f"probe verdict N={N}: {cert.verdict}")
        deficit = cert.params["deficit"]
        rec.check(deficit == 8 * N + 3, f"deficit N={N}: {deficit} != {8 * N + 3}")
        pairs.append((len(A), deficit))
    slope = fit_deficit_exponent(pairs)
    rec.check(abs(slope - 0.5) <= 0.1, f"fitted exponent {slope:.4f} not within 0.1 of 0.5")
    return rec.report(
        "main_term_deficit",
        {"n_max": n_max, "fitted_exponent": f"{slope:.6f}"},
    )


def growth_polynomial_fit(k_max: int = 6) -> CriterionReport:
    """Growth of k A_{2,4} is (k+1)^2 and matches the reference polynomial."""
    rec = _Recorder()
    report = khovanskii_probe(long_simplex(2, 4), k_max)
    rec.check(list(report.polynomial) == [1, 2, 1], f"polynomial {report.polynomial}")
    rec.check(report.equals_reference, "fitted polynomial equals reference")
    rec.check(report.observed_threshold == 1, f"observed threshold {report.observed_threshold}")
    expected = tuple((k + 1) ** 2 for k in range(1, k_max + 1))
    rec.check(report.values == expected, f"values {report.values}")
    return rec.report(
        "growth_polynomial_fit",
        {"k_max": k_max, "values": list(report.values)},
    )


def reduction_pipeline(samples: int = 200) -> CriterionReport:
    """Random planar sets reduce to the long simplex with non-increasing
    doubling along the replayed trace."""
    rec = _Recorder()
    params = _Params(0x1F6E_000B)
    for i in range(samples):
        size = params.range(3, 12)
        A = random_full_dim_set(2, size, (-5, 5), params.word())
        final, trace = reduce_to_simplex(A)
        rec.check(final == long_simplex(2, size), f"final shape #{i} size={size}")
        rec.check(trace.replay() == final, f"trace replay #{i}")
        doublings = [sumset_size([S, S]) for S in trace.intermediates()]
        rec.check(
            all(a >= b for a, b in zip(doublings, doublings[1:])),
            f"doubling not monotone #{i}: {doublings}",
        )
    return rec.report("reduction_pipeline", {"samples": samples})


FULL_SUITE: dict[str, Callable[[], CriterionReport]] = {
    "exact_formula_grid": exact_formula_grid,
    "kfold_lower_bound_equality_family": kfold_lower_bound_equality_family,
    "planar_bound_grids": planar_bound_grids,
    "compression_laws": compression_laws,
    "rotation_reproduction": rotation_reproduction,
    "shear_regression": shear_regression,
    "sumset_ratio_family": sumset_ratio_family,
    "brunn_minkowski_family": brunn_minkowski_family,
    "main_term_deficit": main_term_deficit,
    "growth_polynomial_fit": growth_polynomial_fit,
    "reduction_pipeline": reduction_pipeline,
}

SMOKE_SUITE: dict[str, Callable[[], CriterionReport]] = {
    "exact_formula_grid": lambda: exact_formula_grid(3, 7, 4),
    "kfold_lower_bound_equality_family": lambda: kfold_lower_bound_equality_family(3, 7, 4, samples=40),
    "planar_bound_grids": lambda: planar_bound_grids(3, 3, samples=60),
    "compression_laws": lambda: compression_laws(samples=60),
    "rotation_reproduction": lambda: rotation_reproduction(3),
    "shear_regression": lambda: shear_regression(12),
    "sumset_ratio_family": lambda: sumset_ratio_family(samples=50),
    "brunn_minkowski_family": lambda: brunn_minkowski_family(samples=40),
    "main_term_deficit": lambda: main_term_deficit(8),
    "growth_polynomial_fit": growth_polynomial_fit,
    "reduction_pipeline": lambda: reduction_pipeline(samples=25),
}


@dataclass(frozen=True)
class SuiteReport:
    name: str
    reports: tuple[CriterionReport, ...]
    seconds: float = field(compare=False, default=0.0)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "criteria": [r.to_dict() for r in self.reports],
        }


_SUITES = {"smoke": SMOKE_SUITE, "full": FULL_SUITE}


def _run_criterion(suite: str, criterion: str, budget: int | None, precision_cap: int) -> CriterionReport:
    """One criterion of ``suite``, under the limits of the caller of
    :func:`run_suite`; a worker gets names and values, never a runner."""
    with sum_limit(budget), precision_limit(precision_cap):
        return _SUITES[suite][criterion]()


def run_suite(name: str) -> SuiteReport:
    """Runs the named suite ('smoke' or 'full') in forked worker processes,
    one per available CPU and at most one per criterion.  The criteria are
    submitted and their reports collected in registry order, so the report
    does not depend on the CPU count; an exception of a criterion is raised
    here."""
    # imported here: no other command pays for them at start
    import concurrent.futures
    import multiprocessing

    registry = _SUITES.get(name)
    if registry is None:
        raise ValueError(f"unknown suite {name!r} (expected 'smoke' or 'full')")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        cpus = os.cpu_count() or 1
    limits = (_SUM_LIMIT.get(), _PRECISION_CAP.get())
    started = time.perf_counter()
    # fork: a worker starts without importing the package again, and no
    # forkserver or resource tracker outlives the call.  The pool forks all
    # its workers at the first submit, before it starts its own thread.
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=min(cpus, len(registry)), mp_context=multiprocessing.get_context("fork")
    ) as pool:
        futures = [pool.submit(_run_criterion, name, criterion, *limits) for criterion in registry]
        reports = tuple(future.result() for future in futures)
    return SuiteReport(name=name, reports=reports, seconds=time.perf_counter() - started)
