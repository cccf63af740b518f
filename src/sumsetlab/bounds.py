"""Certified checks of the sumset growth bounds, and asymptotic probes.

Every ``check_*`` returns a :class:`~sumsetlab.certificates.Certificate`
oriented as ``lhs <= rhs`` with ``slack = rhs - lhs`` (lower bounds put the
bound on the left, upper bounds put the bounded quantity on the left).  The
two probes never report Violated: their statements involve non-effective
constants, so an unfavourable instance is only ever Indeterminate.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from operator import ge, sub

from .certificates import (
    HOLDS,
    INDETERMINATE,
    VIOLATED,
    Certificate,
    Interval,
    exact_certificate,
    int_nth_root,
    int_nth_root_interval,
    interval_certificate,
)
from .core import (
    Basis,
    DimensionMismatchError,
    LinearSystem,
    PointSet,
    Subspace,
    _canon,
    affine_dimension,
    as_vec,
    covering_number,
    ensure,
    linear_image,
    max_fiber,
    project,
    rref,
    sumset_size,
    sumset_sizes,
    weighted_sumset,
)
from .generators import long_simplex
from .serialization import basis_to_dict, encode_coord, encode_point, system_to_dict
from .structure import IRREDUCIBLE, decide_irreducible


def _weighted_size(system: LinearSystem, A: PointSet) -> int:
    """|L_1(A) + ... + L_k(A)|, counted without building the sum."""
    return sumset_size([linear_image(M, A) for M in system.maps])


# ---------------------------------------------------------------------------
# exact lower bounds
# ---------------------------------------------------------------------------


def check_elementary(sets: list[PointSet]) -> Certificate:
    """|A_1 + ... + A_k| >= |A_1| + ... + |A_k| - (k - 1)."""
    if not sets:
        raise ValueError("need at least one set")
    k = len(sets)
    lhs = sum(len(A) for A in sets) - (k - 1)
    rhs = sumset_size(sets)
    return exact_certificate(
        "elementary",
        lhs,
        rhs,
        params={"k": k, "sizes": [len(A) for A in sets]},
        inputs=sets,
    )


def check_gs_kfold(sets: list[PointSet], direction) -> Certificate:
    """Planar k-fold bound with covering numbers along a line direction:
    |sum A_i| >= (sum |A_i|/r_i - (k-1)) (sum r_i - (k-1)), where r_i is the
    number of lines parallel to ``direction`` needed to cover A_i."""
    if len(sets) < 2:
        raise ValueError("the planar k-fold bound needs k >= 2")
    if any(A.dim != 2 for A in sets):
        raise DimensionMismatchError("planar sets required")
    v = as_vec(direction, 2)
    k = len(sets)
    rs = [covering_number(A, v) for A in sets]
    # (sum |A_i|/r_i - (k-1)) (sum r_i - (k-1)) over the common denominator
    # lcm(r_i), so at most one Fraction is built
    common = math.lcm(*rs)
    density = sum(len(A) * (common // r) for A, r in zip(sets, rs)) - (k - 1) * common
    product = density * (sum(rs) - (k - 1))
    lhs = product // common if product % common == 0 else Fraction(product, common)
    rhs = sumset_size(sets)
    return exact_certificate(
        "gs_kfold",
        lhs,
        rhs,
        params={
            "k": k,
            "sizes": [len(A) for A in sets],
            "covering_numbers": rs,
            "direction": encode_point(v),
        },
        inputs=[*sets, v],
    )


def check_freiman_kfold(A: PointSet, k: int) -> Certificate:
    """|kA| >= C(k+d-1, d)|A| - (k-1) C(k+d-1, d-1) for full-dimensional A.

    The long simplex of |A| points attains the bound, so the bound is
    ``simplex_cardinality(d, |A|, k)``.  It is checked against the rewritten
    form C(k+d-1, d-1) (k(|A|-d)/d + 1), times d to stay in integers; the two
    agree identically because C(k+d-1, d) = (k/d) C(k+d-1, d-1).
    """
    d = A.dim
    if k < 1:
        raise ValueError("k must be >= 1")
    if affine_dimension(A) != d:
        raise ValueError("the k-fold lower bound needs a full-dimensional set")
    n = len(A)
    bound = simplex_cardinality(d, n, k)
    ensure(
        d * bound == math.comb(k + d - 1, d - 1) * (k * (n - d) + d),
        "the two closed forms of the bound must agree",
    )
    rhs = sumset_size({A: k})
    return exact_certificate(
        "freiman_kfold",
        bound,
        rhs,
        params={"k": k, "d": d, "size": n},
        inputs=[A, {"k": k}],
    )


def check_freiman_lemma(A: PointSet) -> Certificate:
    """|2A| >= (d+1)|A| - d(d+1)/2, the classical doubling form: the
    certificate of :func:`check_freiman_kfold` at k = 2, relabelled."""
    cert = check_freiman_kfold(A, 2)
    return replace(cert, statement_id="freiman_lemma", params={"d": A.dim, "size": len(A)}, inputs=[A])


def simplex_cardinality(d: int, N: int, k: int) -> int:
    """|k A_{d,N}| = C(k+d-1, d)(N-d) + C(k+d-1, d-1), exactly."""
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    if N <= d:
        raise ValueError("need N >= d + 1")
    return math.comb(k + d - 1, d) * (N - d) + math.comb(k + d - 1, d - 1)


def check_simplex_formula(d: int, N: int, k: int) -> Certificate:
    """Dual-route equality check: the closed form against brute-force
    enumeration of |k A_{d,N}|.  Holds only on exact agreement (slack 0)."""
    lhs = simplex_cardinality(d, N, k)
    rhs = sumset_size({long_simplex(d, N): k})
    slack = rhs - lhs
    return Certificate(
        statement_id="simplex_formula",
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        verdict=HOLDS if slack == 0 else VIOLATED,
        params={"d": d, "N": N, "k": k},
        inputs={"d": d, "N": N, "k": k},
    )


# ---------------------------------------------------------------------------
# discrete Brunn-Minkowski
# ---------------------------------------------------------------------------


def _root_sum_power_exact(values, d: int) -> int | Fraction | None:
    """(sum x^{1/d})^d over non-negative rationals x when it is rational,
    else None.

    Zeros add nothing; let x_1 be the first non-zero x.  The power is
    rational iff every x / x_1 is the d-th power of a rational r, and then
    it is x_1 (sum r)^d.  (The real d-th roots of distinct d-th-power-free
    integers are linearly independent over Q, so a sum of two or more
    radicals with positive coefficients is no rational multiple of one
    radical, and its d-th power is irrational.)  Each ratio is tested by
    :func:`int_nth_root` on its numerator and denominator: no factoring."""
    if any(x < 0 for x in values):
        raise ValueError("need non-negative values")
    nonzero = [Fraction(x) for x in values if x]
    if not nonzero:
        return 0
    first = nonzero[0]
    total = Fraction(0)
    for x in nonzero:
        ratio = x / first
        top, top_exact = int_nth_root(ratio.numerator, d)
        bottom, bottom_exact = int_nth_root(ratio.denominator, d)
        if not (top_exact and bottom_exact):
            return None
        total += Fraction(top, bottom)
    return _canon(first * total ** d)


def _root_sum_power(values, d: int, bits: int) -> Interval:
    """Certified enclosure of (sum x^{1/d})^d over non-negative rationals x.
    Each x = n/q is enclosed as (n q^{d-1})^{1/d} / q, each root to within
    2**-bits / q."""
    root_sum = Interval.point(0)
    for x in values:
        n, q = x.numerator, x.denominator
        root = int_nth_root_interval(n * q ** (d - 1), d, bits)
        root_sum = root_sum + Interval(root.lo / q, root.hi / q)
    return root_sum.power(d)


def check_discrete_bm(sets: list[PointSet], basis: Basis | None = None) -> Certificate:
    """Discrete Brunn-Minkowski:
    |sum A_i| >= (sum |A_i|^{1/d})^d - sum_{I proper subset of [d]}
    (k-1)^{d-|I|} |pi_I(sum A_i)|.

    Every projection pi_I is linear, so pi_I(A_1 + ... + A_k) =
    pi_I(A_1) + ... + pi_I(A_k): each correction term is counted by
    :func:`sumset_size` on the projected summands, and no sum is decoded.
    When k = 1 every factor (k-1)^{d-|I|} is 0 and nothing is projected.

    The root-power term is computed exactly whenever it is rational
    (perfect powers, equal sizes, common radical); otherwise by certified
    interval arithmetic with precision escalating up to the cap of
    :func:`~sumsetlab.certificates.precision_limit`.
    """
    if not sets:
        raise ValueError("need at least one set")
    d = sets[0].dim
    if any(A.dim != d for A in sets):
        raise DimensionMismatchError("mixed dimensions")
    if basis is None:
        basis = Basis.standard(d)
    if basis.dim != d:
        raise DimensionMismatchError("basis dimension mismatch")
    k = len(sets)
    rhs = sumset_size(sets)
    correction = 0
    if k > 1:
        for size in range(d):
            for I in combinations(range(1, d + 1), size):
                projected = [project(A, basis, I) for A in sets]
                correction += (k - 1) ** (d - size) * sumset_size(projected)
    sizes = [len(A) for A in sets]
    params = {
        "k": k,
        "d": d,
        "sizes": sizes,
        "correction": correction,
        "basis": basis_to_dict(basis),
    }
    inputs = [*sets, params["basis"]]
    exact_power = _root_sum_power_exact(sizes, d)
    if exact_power is not None:
        return exact_certificate(
            "discrete_bm", exact_power - correction, rhs,
            params=params, inputs=inputs,
        )

    def make_sides(bits: int) -> tuple[Interval, Interval]:
        lhs = _root_sum_power(sizes, d, bits) - Interval.point(correction)
        return lhs, Interval.point(rhs)

    return interval_certificate("discrete_bm", make_sides, params=params, inputs=inputs)


# ---------------------------------------------------------------------------
# Plunnecke-Ruzsa family
# ---------------------------------------------------------------------------


def check_ruzsa_triangle(U: PointSet, V: PointSet, W: PointSet) -> Certificate:
    """|U| |V + W| <= |V + U| |U + W|."""
    lhs = len(U) * sumset_size([V, W])
    rhs = sumset_size([V, U]) * sumset_size([U, W])
    return exact_certificate(
        "ruzsa_triangle",
        lhs,
        rhs,
        params={"sizes": [len(U), len(V), len(W)]},
        inputs=[U, V, W],
    )


def check_plunnecke_ruzsa(A: PointSet, B: PointSet, m: int, n: int) -> Certificate:
    """|mA - nA| <= K^{m+n} |B| with K = |A + B| / |B| (the sharpest
    admissible doubling ratio for the hypothesis).

    mA - nA is the sum of A with multiplicity m and -A with multiplicity n,
    counted by :func:`sumset_size`; when A = -A the two are one summand of
    multiplicity m + n.  For m = n = 0 it is {0}, of size 1."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    if A.dim != B.dim:
        raise DimensionMismatchError("mixed dimensions")
    K = Fraction(sumset_size([A, B]), len(B))
    # a Counter sum, not a dict literal: A and -A are one key when A = -A
    summands = Counter({A: m}) + Counter({A.negate(): n})
    lhs = sumset_size(summands) if summands else 1
    rhs = _canon(K ** (m + n) * len(B))
    return exact_certificate(
        "plunnecke_ruzsa",
        lhs,
        rhs,
        params={"m": m, "n": n, "K": K, "sizes": [len(A), len(B)]},
        inputs=[A, B, {"m": m, "n": n}],
    )


def check_iterated_pr(sets: list[PointSet]) -> Certificate:
    """|X + X| <= K^7 N for X = A_1 + ... + A_k with all |A_i| = N and
    K = |X| / N.  The hypothesis needs k >= 2: for a single summand K = 1
    and the conclusion |A + A| <= |A| is generally false.

    X + X is the sum of every summand twice, so both sizes are counted by
    :func:`sumset_size` and X is never built."""
    k = len(sets)
    if k < 2:
        raise ValueError("the iterated bound needs at least two summands")
    sizes = {len(A) for A in sets}
    if len(sizes) != 1:
        raise ValueError("all summands must have equal size")
    N = sizes.pop()
    K = Fraction(sumset_size(sets), N)
    lhs = sumset_size(sets + sets)
    rhs = _canon(K ** 7 * N)
    return exact_certificate(
        "iterated_pr",
        lhs,
        rhs,
        params={"k": k, "N": N, "K": K},
        inputs=sets,
    )


def check_linear_pr(system: LinearSystem, A: PointSet) -> Certificate:
    """|X + L_2(X) + ... + L_k(X)| <= K^{7k+1} |A| for X = A + L_2(A) + ...
    + L_k(A) and K = |X| / |A|.

    The leading map must be the identity: the planar shear pair
    (L_1, L_2) with L_1 != I sends a vertical progression A to a diagonal X
    with |L_1(X) + L_2(X)| = |X|^2, so no power of K = |X|/|A| controls the
    growth and the precondition is essential.
    """
    if not system.maps[0].is_identity():
        raise ValueError("the leading map must be the identity")
    if system.dim != A.dim:
        raise DimensionMismatchError("system and set dimensions differ")
    k = system.k
    X = weighted_sumset(system, A)
    K = Fraction(len(X), len(A))
    lhs = _weighted_size(system, X)
    rhs = _canon(K ** (7 * k + 1) * len(A))
    return exact_certificate(
        "linear_pr",
        lhs,
        rhs,
        params={"k": k, "K": K, "size": len(A)},
        inputs=[A, system_to_dict(system)],
    )


def check_fiber_bound(system: LinearSystem, A: PointSet, U: Subspace) -> Certificate:
    """max_fiber(A, U)^{2^r} <= (K|A|)^{2^r - 1} for r = dim U < d and
    K = |sum L_i(A)| / |A|; requires a certified irreducible system.

    Raising both sides to the 2^r power clears the fractional exponent of
    the usual form f <= (K|A|)^{1 - 2^{-r}}, keeping the comparison exact.
    """
    if U.ambient_dim != A.dim or system.dim != A.dim:
        raise DimensionMismatchError("system, set and subspace dimensions differ")
    if decide_irreducible(system).status != IRREDUCIBLE:
        raise ValueError("fiber bound requires a certified irreducible system")
    r = U.dim
    if r >= A.dim:
        raise ValueError("subspace must be proper")
    fiber = max_fiber(A, U)
    K = Fraction(_weighted_size(system, A), len(A))
    lhs = fiber ** (2 ** r)
    rhs = _canon((K * len(A)) ** (2 ** r - 1))
    return exact_certificate(
        "fiber_bound",
        lhs,
        rhs,
        params={"r": r, "K": K, "max_fiber": fiber, "size": len(A)},
        inputs=[A, system_to_dict(system), U.rows],
    )


# ---------------------------------------------------------------------------
# probes (informational; never Violated)
# ---------------------------------------------------------------------------


def _never_violated(cert: Certificate, **changes) -> Certificate:
    """``cert`` with ``changes`` applied, under the probes' rule of the module
    docstring: an instance provably short of the main term is Indeterminate,
    never Violated."""
    if cert.verdict == VIOLATED:
        changes["verdict"] = INDETERMINATE
    return replace(cert, **changes) if changes else cert


def main_term_probe(system: LinearSystem, A: PointSet) -> Certificate:
    """Reports the deficit k^d |A| - |sum L_i(A)| against the conjectured
    main term.  Holds when the weighted sumset reaches the main term; a
    positive deficit is Indeterminate (the error term's constant is
    non-effective), annotated with the observed exponent
    log(deficit) / log |A|."""
    if system.dim != A.dim:
        raise DimensionMismatchError("system and set dimensions differ")
    if decide_irreducible(system).status != IRREDUCIBLE:
        raise ValueError("main-term probe requires a certified irreducible system")
    k, d = system.k, system.dim
    lhs = k ** d * len(A)
    rhs = _weighted_size(system, A)
    deficit = lhs - rhs
    exponent = None
    if deficit > 0 and len(A) >= 2:
        exponent = f"{math.log(deficit) / math.log(len(A)):.6f}"
    return _never_violated(exact_certificate(
        "main_term",
        lhs,
        rhs,
        params={"k": k, "d": d, "size": len(A), "deficit": deficit, "exponent": exponent},
        inputs=[A, system_to_dict(system)],
    ))


def det_main_term_probe(system: LinearSystem, A: PointSet) -> Certificate:
    """Like :func:`main_term_probe` but against the determinant main term
    Lambda = (sum |det L_i|^{1/d})^d, interval-certified, and exact (a point
    interval) when it is rational.  Holds when |sum L_i(A)| provably reaches
    Lambda |A|; otherwise Indeterminate."""
    if system.dim != A.dim:
        raise DimensionMismatchError("system and set dimensions differ")
    d = system.dim
    rhs = _weighted_size(system, A)
    dets = [abs(Fraction(M.det())) for M in system.maps]
    exact = _root_sum_power_exact(dets, d)

    def make_sides(bits: int) -> tuple[Interval, Interval]:
        lam = Interval.point(exact) if exact is not None else _root_sum_power(dets, d, bits)
        return Interval(lam.lo * len(A), lam.hi * len(A)), Interval.point(rhs)

    cert = interval_certificate(
        "det_main_term",
        make_sides,
        params={"k": system.k, "d": d, "size": len(A)},
        inputs=[A, system_to_dict(system)],
    )
    return _never_violated(cert, rhs=rhs)


# ---------------------------------------------------------------------------
# polynomial growth probe
# ---------------------------------------------------------------------------


def _interpolate(nodes: list[int], values: list[int]) -> tuple[Fraction, ...]:
    """Exact coefficients (low to high) of the unique polynomial of degree
    < len(nodes) through the given points, trailing zeros dropped.  The
    Vandermonde rows [x^0, ..., x^(n-1), y] have full rank for distinct
    nodes, so their :func:`~sumsetlab.core.rref` is [I | c]."""
    n = len(nodes)
    red, _ = rref([[x**i for i in range(n)] + [y] for x, y in zip(nodes, values)], n + 1)
    coeffs = [Fraction(row[n]) for row in red]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class GrowthFitReport:
    """Observed |kA| growth against the minimal lower-bound polynomial.

    ``observed_threshold`` is the least k from which the computed values
    agree with the polynomial fitted at k_max - d, ..., k_max.  It is only
    observed inside k_max, not a certified Khovanskii threshold, so the JSON
    carries ``"certified": false`` beside it."""

    dim: int
    size: int
    k_max: int
    values: tuple[int, ...]
    degree: int
    observed_threshold: int
    polynomial: tuple[Fraction, ...]
    reference: tuple[Fraction, ...]
    equals_reference: bool
    dominates_reference: bool

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "size": self.size,
            "k_max": self.k_max,
            "values": list(self.values),
            "degree": self.degree,
            "observed_threshold": self.observed_threshold,
            "certified": False,
            "polynomial": [encode_coord(c) for c in self.polynomial],
            "reference": [encode_coord(c) for c in self.reference],
            "equals_reference": self.equals_reference,
            "dominates_reference": self.dominates_reference,
        }


def khovanskii_probe(A: PointSet, k_max: int) -> GrowthFitReport:
    """Computes |kA| for k = 1..k_max, interpolates the degree-d tail
    polynomial exactly, finds the least k from which the values agree with
    it (the observed threshold), and compares against the reference
    lower-bound polynomial Q (the k-fold bound).

    |kA| agrees with a polynomial of degree d = dim(A) for k large; the
    last d+1 computed values pin that polynomial down exactly when k_max is
    past the stabilization point.

    The values |A|, ..., |k_max A| are read from one fold of {A: k_max} by
    :func:`~sumsetlab.core.sumset_sizes`, so no kA is decoded into a point
    set.  The fitted and the reference polynomial are each solved exactly
    from their d + 1 values at the nodes k_max - d, ..., k_max, as the
    Vandermonde system that :func:`~sumsetlab.core.rref` reduces.

    Both decisions are made on the integer values, and no polynomial is
    evaluated:

    * *Threshold.*  The fitted P has degree at most d, so its (d+1)-th
      forward difference vanishes.  If |jA| = P(j) for k < j <= k + d + 1,
      the (d+1)-th difference of the values starting at k is
      +-(|kA| - P(k)), so |kA| = P(k) exactly when it is 0.  The values
      agree with P at the fit nodes; going down from there, the observed
      threshold is 2 + the largest 0-based index whose (d+1)-th difference
      is nonzero, or 1 when there is none.
    * *Dominance.*  Q interpolates ``simplex_cardinality(d, |A|, k)`` at
      d + 1 nodes, and at every k >= 1 C(k+d-1, d) and C(k+d-1, d-1) agree
      with polynomials in k of degree d and d - 1.  So Q(k) is that integer
      at every k >= 1, and the values are compared with it directly.

    Inside a :func:`~sumsetlab.core.sum_limit` block the probe is refused
    exactly when :func:`~sumsetlab.core.sumset_sizes` refuses its levels."""
    d = affine_dimension(A)
    if d != A.dim:
        raise ValueError("growth probe expects a full-dimensional set")
    if k_max < d + 2:
        raise ValueError(f"need k_max >= {d + 2} to fit a degree-{d} polynomial")
    values = sumset_sizes(A, k_max)
    nodes = list(range(k_max - d, k_max + 1))
    poly = _interpolate(nodes, values[k_max - d - 1 :])
    diffs = values
    for _ in range(d + 1):
        diffs = list(map(sub, diffs[1:], diffs))
    observed_threshold = max((i + 2 for i, x in enumerate(diffs) if x), default=1)
    bound = [simplex_cardinality(d, len(A), k) for k in range(1, k_max + 1)]
    reference = _interpolate(nodes, bound[k_max - d - 1 :])
    return GrowthFitReport(
        dim=d,
        size=len(A),
        k_max=k_max,
        values=tuple(values),
        degree=len(poly) - 1,
        observed_threshold=observed_threshold,
        polynomial=poly,
        reference=reference,
        equals_reference=poly == reference,
        dominates_reference=all(map(ge, values, bound)),
    )


def fit_deficit_exponent(pairs: list[tuple[int, int]]) -> float:
    """Least-squares slope of log(deficit) against log(size).

    ``pairs`` holds (size, deficit) observations; deficits are clamped to 1
    so a zero-deficit instance contributes log 1 = 0 instead of blowing up.
    """
    xs = [math.log(size) for size, _ in pairs]
    ys = [math.log(max(deficit, 1)) for _, deficit in pairs]
    if len(set(xs)) < 2:
        raise ValueError("need at least two distinct sizes")
    fit = statistics.linear_regression(xs, ys)
    return fit.slope
