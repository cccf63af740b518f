"""Constructors for the standard fixtures: extremal families, structured
linear systems, and seeded random instances.

Randomness is deterministic and reproducible across platforms: everything is
driven by a splitmix64 counter stream keyed only by the caller's seed, never
by global state.

Every point set is built from canonical ``int`` tuples, so it is handed to the
trusted :meth:`PointSet._raw` as integral instead of being re-validated point
by point.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator

from .core import (
    LinearSystem,
    PointSet,
    RationalMatrix,
    affine_dimension,
    weighted_sumset,
)

MASK64 = (1 << 64) - 1


def _lattice_set(d: int, points: Iterable[tuple[int, ...]]) -> PointSet:
    """The integral set of ``points``: non-empty tuples of ``int`` of length d,
    repeats allowed.  Nothing is re-validated."""
    return PointSet._raw(d, frozenset(points), True)


def splitmix64_stream(seed: int) -> Iterator[int]:
    """Infinite stream of 64-bit words from the splitmix64 generator.

    Chosen over ``random.Random`` because the output for a given seed is a
    portable spec (three multiplies and three xor-shifts), so fixtures frozen
    in tests stay byte-identical under any Python version.
    """
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def _uniform_draws(stream: Iterator[int], n: int) -> Iterator[int]:
    """Infinite stream of uniform draws from range(n), by rejection (no
    modulo bias).  The rejection limit is computed once; each draw reads the
    words of ``stream`` only when it is taken.  A draw takes one 64-bit
    word, so n above 2**64 (whose limit would be 0) is refused."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n > 1 << 64:
        raise ValueError(f"cannot draw uniformly from {n} values: the limit is 2**64")
    limit = (1 << 64) - ((1 << 64) % n)
    for word in stream:
        if word < limit:
            yield word % n


# ---------------------------------------------------------------------------
# extremal families
# ---------------------------------------------------------------------------


def long_simplex(d: int, N: int) -> PointSet:
    """The N-point set {0, e_2, ..., e_d} u {e_1, 2e_1, ..., (N-d)e_1}.

    For every k the k-fold sumset has cardinality
    C(k+d-1, d) (N-d) + C(k+d-1, d-1), which is the exact minimum among
    full-dimensional N-point sets in Z^d; this family is the equality case of
    the k-fold lower bound.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if N < d + 1:
        raise ValueError("need N >= d + 1 for a full-dimensional simplex")
    points = [tuple(0 for _ in range(d))]
    for i in range(1, d):
        points.append(tuple(1 if j == i else 0 for j in range(d)))
    for j in range(1, N - d + 1):
        points.append(tuple(j if i == 0 else 0 for i in range(d)))
    return _lattice_set(d, points)


def long_simplex_summands(d: int, N: int) -> tuple[PointSet, PointSet]:
    """The pair ({0, e_2, ..., e_d}, {e_1, ..., (N-d)e_1})."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if N < d + 1:
        raise ValueError("need N >= d + 1")
    head = [tuple(0 for _ in range(d))]
    for i in range(1, d):
        head.append(tuple(1 if j == i else 0 for j in range(d)))
    tail = [tuple(j if i == 0 else 0 for i in range(d)) for j in range(1, N - d + 1)]
    return _lattice_set(d, head), _lattice_set(d, tail)


def long_simplex_sumset_form(d: int, N: int) -> PointSet:
    """{0, e_2, ..., e_d} + {e_1, ..., (N-d)e_1}, enumerated directly.

    A *different* fixture from :func:`long_simplex`: it has d(N-d) points
    (e.g. it omits the origin but contains every e_i + j e_1).  Both arise as
    extremal configurations and they must not be conflated.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if N < d + 1:
        raise ValueError("need N >= d + 1")
    points = []
    for j in range(1, N - d + 1):
        points.append(tuple(j if i == 0 else 0 for i in range(d)))
        for axis in range(1, d):
            points.append(tuple(j if i == 0 else (1 if i == axis else 0) for i in range(d)))
    return _lattice_set(d, points)


def cube(d: int, N: int) -> PointSet:
    """The centered lattice cube {-N, ..., N}^d."""
    if d < 1 or N < 0:
        raise ValueError("need d >= 1 and N >= 0")
    rng = range(-N, N + 1)
    points = [()]
    for _ in range(d):
        points = [p + (c,) for p in points for c in rng]
    return _lattice_set(d, points)


def grid(dims: list[tuple[int, int]]) -> list[PointSet]:
    """Planar grids [{1..n_i} x {1..m_i}]: the equality family for the
    planar k-fold bound with axis-parallel covering lines."""
    if not dims:
        raise ValueError("need at least one (n, m) pair")
    out = []
    for n, m in dims:
        if n < 1 or m < 1:
            raise ValueError("grid sides must be >= 1")
        out.append(_lattice_set(2, [(x, y) for x in range(1, n + 1) for y in range(1, m + 1)]))
    return out


def interval_set(lo: int, hi: int) -> PointSet:
    """The 1-dimensional arithmetic progression {lo, lo+1, ..., hi}."""
    if hi < lo:
        raise ValueError("need hi >= lo")
    return _lattice_set(1, [(c,) for c in range(lo, hi + 1)])


# ---------------------------------------------------------------------------
# structured linear systems
# ---------------------------------------------------------------------------


def rotation_system(d: int) -> LinearSystem:
    """(L_1, ..., L_d) with L_1 = I and L_j the rotation e_1 -> e_j,
    e_j -> -e_1 fixing the other axes.

    Each map fixes the centered cube setwise, so the weighted sumset of the
    cube under the system is again a cube: |sum_j L_j({-N..N}^d)| = (2dN+1)^d,
    the full main term with zero deficit.
    """
    if d < 2:
        raise ValueError("the rotation family needs d >= 2")
    maps = [RationalMatrix.identity(d)]
    for j in range(1, d):
        rows = [[0] * d for _ in range(d)]
        for i in range(d):
            rows[i][i] = 1
        rows[0][0] = 0
        rows[j][j] = 0
        rows[j][0] = 1   # e_1 -> e_j
        rows[0][j] = -1  # e_j -> -e_1
        maps.append(RationalMatrix(rows))
    return LinearSystem(maps)


def shear_system() -> LinearSystem:
    """The planar pair L_1 = [[1,1],[0,1]], L_2 = [[1,1],[-1,1]].

    Applied to a vertical progression A = {(0, i) : 1 <= i <= N} the weighted
    sumset collapses to the diagonal X = {(i, i) : 2 <= i <= 2N} of size
    2N - 1, while |L_1(X) + L_2(X)| = (2N-1)^2: the single-scale doubling of X
    under the system is maximal, so no polynomial bound in |X| / |A| alone can
    control the growth and any usable bound must see the original set A.
    """
    return LinearSystem(
        [
            RationalMatrix([[1, 1], [0, 1]]),
            RationalMatrix([[1, 1], [-1, 1]]),
        ]
    )


def shear_counterexample(N: int) -> tuple[LinearSystem, PointSet]:
    """The shear system together with X = L_1(A) + L_2(A) for the vertical
    progression A = {(0, i) : 1 <= i <= N}.

    Both maps send A to the diagonal {(i, i) : i in [N]}, so X is the
    diagonal {(i, i) : 2 <= i <= 2N} of size 2N - 1 while |L_1(X) + L_2(X)|
    blows up to |X|^2.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    system = shear_system()
    progression = _lattice_set(2, [(0, i) for i in range(1, N + 1)])
    return system, weighted_sumset(system, progression)


# ---------------------------------------------------------------------------
# seeded random instances
# ---------------------------------------------------------------------------


def random_set(d: int, size: int, box: tuple[int, int], seed: int) -> PointSet:
    """``size`` distinct points drawn uniformly from box^d, deterministically.
    The ends of ``box`` are integers.

    Points are drawn by decoding a uniform index into the box and rejecting
    duplicates, so the result depends only on (d, size, box, seed).
    """
    lo, hi = map(operator.index, box)
    side = hi - lo + 1
    if d < 1 or size < 1:
        raise ValueError("need d >= 1 and size >= 1")
    if side < 1 or side ** d < size:
        raise ValueError("box too small for the requested size")
    chosen: set = set()
    for index in _uniform_draws(splitmix64_stream(seed), side ** d):
        point = []
        for _ in range(d):
            index, r = divmod(index, side)
            point.append(lo + r)
        chosen.add(tuple(point))
        if len(chosen) == size:
            return _lattice_set(d, chosen)


def random_full_dim_set(d: int, size: int, box: tuple[int, int], seed: int) -> PointSet:
    """Like :func:`random_set` but rejected until the affine hull is all of Q^d."""
    if size < d + 1:
        raise ValueError("a full-dimensional set needs at least d + 1 points")
    attempt_seed = seed
    for _ in range(1000):
        A = random_set(d, size, box, attempt_seed)
        if affine_dimension(A) == d:
            return A
        attempt_seed = (attempt_seed * 0x9E3779B97F4A7C15 + 1) & MASK64
    raise RuntimeError("could not draw a full-dimensional set (box too thin?)")


def random_system(d: int, k: int, entry_bound: int, seed: int) -> LinearSystem:
    """k invertible integer d x d maps with entries in [-entry_bound, entry_bound]."""
    if k < 1 or entry_bound < 1:
        raise ValueError("need k >= 1 and entry_bound >= 1")
    draws = _uniform_draws(splitmix64_stream(seed), 2 * entry_bound + 1)
    maps = []
    while len(maps) < k:
        rows = [[next(draws) - entry_bound for _ in range(d)] for _ in range(d)]
        M = RationalMatrix(rows)
        if M.det() != 0:
            maps.append(M)
    return LinearSystem(maps)
