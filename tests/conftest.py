"""Shared strategies and oracles for the test suite.

``naive_sumset`` recomputes Minkowski sums by direct enumeration over raw
coordinate tuples — deliberately independent of every path of the library's
sumset engine (the ``int`` bitmap fold, the packed pair-set fold, and the
scaling by the lcm of the denominators that sends rational sums to them), so
each of them is cross-checked against it.  ``naive_compress`` recomputes a
compression from its definition in ``sumsetlab.compression`` with
``Fraction`` arithmetic, sharing no code with the library's integral path.
``naive_rref`` is textbook Gauss-Jordan elimination in ``Fraction``
arithmetic, the reference for the library's fraction-free elimination.
``naive_image`` and ``naive_project`` map points by their definitions in
``Fraction`` arithmetic, the references for ``linear_image`` and ``project``,
which work on the integer form (q, qA) of a set.
``naive_spin`` grows an invariant subspace one ``Subspace`` (one full
``rref``) per vector, the reference for ``structure._spin``.
``naive_charpoly_factors`` factors a characteristic polynomial with sympy,
the reference for ``sumsetlab.polynomials``.
``naive_growth_decisions`` makes the Khovanskii probe's two decisions by
evaluating Lagrange interpolants in ``Fraction`` arithmetic at every k, the
reference for the probe's integer differences and bound comparison.

``point_sets`` draws distinct points by construction: each point is an index
into the finite grid ``coords^dim``, drawn without replacement, so no draw
is rejected for repeating a point.

The ``built_sums`` fixture records every sum a test makes the library build,
so a check that only counts can be shown to build none.
"""

import math
import os
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from sumsetlab import PointSet, compression, core
from sumsetlab.core import Subspace, is_zero_vec

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("quick", deadline=None, max_examples=25)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def naive_sumset(sets):
    """Brute-force fold of A_1 + ... + A_k as a set of coordinate tuples."""
    acc = {tuple(p) for p in sets[0].points}
    for B in sets[1:]:
        acc = {
            tuple(x + y for x, y in zip(p, q)) for p in acc for q in B.points
        }
    return acc


def typed(points):
    """The points with the type of each coordinate, so that 2 and Fraction(2, 1)
    differ."""
    return {tuple((type(c), c) for c in p) for p in points}


def naive_compress(points, normal, offset, direction):
    """The compression along ``direction`` onto the hyperplane
    {x : <normal, x> = offset}: the points of each line parallel to the
    direction become the first steps u, u + v, ... out of the point u where
    the line meets the hyperplane.  Integral coordinates come back as ``int``,
    as the library stores them."""
    n = [Fraction(x) for x in normal]
    v = [Fraction(x) for x in direction]
    nv = sum(a * b for a, b in zip(n, v))
    lines = {}
    for p in points:
        p = [Fraction(x) for x in p]
        s = (Fraction(offset) - sum(a * b for a, b in zip(n, p))) / nv
        u = tuple(x + s * y for x, y in zip(p, v))
        lines[u] = lines.get(u, 0) + 1
    out = set()
    for u, count in lines.items():
        for j in range(count):
            point = (x + j * y for x, y in zip(u, v))
            out.add(tuple(x.numerator if x.denominator == 1 else x for x in point))
    return out


def naive_rref(rows, width):
    """Reduced row echelon form over Q by Gauss-Jordan elimination in
    ``Fraction`` arithmetic: (nonzero rows, pivot columns), integral entries
    as ``int``."""
    canon = lambda x: x.numerator if type(x) is Fraction and x.denominator == 1 else x
    mat = [list(r) for r in rows]
    pivots = []
    row = 0
    for col in range(width):
        pivot_row = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        inv = Fraction(1, 1) / mat[row][col]
        mat[row] = [canon(inv * x) for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [canon(x - factor * y) for x, y in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return mat[:row], pivots


def naive_image(rows, points):
    """{M p : p in points} in ``Fraction`` arithmetic, for the matrix M with
    the given rows.  Integral coordinates come back as ``int``."""
    canon = lambda x: x.numerator if x.denominator == 1 else x
    return {tuple(canon(sum(Fraction(a) * Fraction(x) for a, x in zip(row, p))) for row in rows) for p in points}


def naive_project(points, vectors, coords):
    """The projection onto span{b_i : i in coords} (1-based) that kills the
    other basis vectors b_i: each point's coordinates in the basis, solved by
    ``naive_rref``, with the others set to 0.  Integral coordinates come back
    as ``int``."""
    d = len(vectors)
    kept = [[Fraction(x) if i + 1 in coords else Fraction(0) for x in b] for i, b in enumerate(vectors)]
    out = set()
    for p in points:
        red, _ = naive_rref([[b[j] for b in vectors] + [p[j]] for j in range(d)], d + 1)
        image = (sum(row[d] * b[j] for row, b in zip(red, kept)) for j in range(d))
        out.add(tuple(x.numerator if x.denominator == 1 else x for x in image))
    return out


def naive_spin(seeds, mats, d):
    """Smallest subspace containing the seeds and invariant under the maps:
    each vector is reduced modulo the subspace found so far, and a nonzero
    remainder makes a new ``Subspace`` with one more row."""
    space = Subspace.zero(d)
    pending = list(seeds)
    while pending:
        r = space.reduce(pending.pop())
        if is_zero_vec(r):
            continue
        space = Subspace(d, [*space.rows, r])
        for M in mats:
            pending.append(M.mat_vec(r))
    return space


def naive_charpoly_factors(M):
    """The irreducible factors of charpoly(M) over Q, as (coefficients,
    degree) in the order of sympy's ``factor_list``, computed by sympy."""
    from sympy import Matrix, Poly, Rational, Symbol

    x = Symbol("x")
    poly = Matrix(
        M.dim, M.dim, lambda i, j: Rational(M.rows[i][j].numerator, M.rows[i][j].denominator)
    ).charpoly(x)
    _, factors = Poly(poly.as_expr(), x).factor_list()
    out = []
    for fac, _mult in factors:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in Poly(fac, x).all_coeffs()]
        out.append((coeffs, len(coeffs) - 1))
    return out


def naive_growth_decisions(values, d, size):
    """(observed threshold, dominates) for the sizes ``values`` = |A|, ...,
    |k_max A| of a d-dimensional set of ``size`` points: the least k from
    which the values equal the polynomial through them at k_max - d, ...,
    k_max, and whether every value is at least the polynomial through the
    k-fold bound C(k+d-1, d) size - (k-1) C(k+d-1, d-1) at those nodes.
    Both polynomials are evaluated at every k by Lagrange's formula."""
    k_max = len(values)
    nodes = range(k_max - d, k_max + 1)

    def interpolant(ys):
        def at(k):
            return sum(
                y * math.prod(Fraction(k - x, xi - x) for x in nodes if x != xi)
                for xi, y in zip(nodes, ys)
            )
        return at

    fit = interpolant(values[k_max - d - 1 :])
    threshold = k_max
    for k in range(k_max, 0, -1):
        if fit(k) != values[k - 1]:
            break
        threshold = k
    bound = [math.comb(k + d - 1, d) * size - (k - 1) * math.comb(k + d - 1, d - 1) for k in nodes]
    reference = interpolant(bound)
    return threshold, all(values[k - 1] >= reference(k) for k in range(1, k_max + 1))


def values(low, high, max_denominator=1):
    """Every rational in [low, high] with denominator at most
    ``max_denominator``, integral ones as ``int``, simplest first: by
    denominator, then by size, positive before negative."""
    found = {Fraction(a, b) for b in range(1, max_denominator + 1) for a in range(low * b, high * b + 1)}
    ordered = sorted(found, key=lambda x: (x.denominator, abs(x), x < 0))
    return tuple(x.numerator if x.denominator == 1 else x for x in ordered)


int_coords = st.integers(min_value=-6, max_value=6)
rational_coords = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
)
# the value domains of the two strategies above
INT_VALUES = values(-6, 6)
RATIONAL_VALUES = values(-4, 4, max_denominator=3)
MIXED_VALUES = tuple(dict.fromkeys(INT_VALUES + RATIONAL_VALUES))
# negative and zero coordinates with denominators up to 12
TWELFTHS = values(-2, 2, max_denominator=12)


def point_sets(dim, min_size=1, max_size=8, coords=INT_VALUES):
    """Sets of ``min_size`` to ``max_size`` points with coordinates in the
    sequence ``coords``.  Point i of the grid takes its coordinates from the
    base-len(coords) digits of i.  The indices are drawn without replacement,
    so no point repeats and no draw is rejected; they shrink toward 0, the
    point with every coordinate ``coords[0]``."""
    coords = tuple(coords)

    def point(i):
        out = []
        for _ in range(dim):
            i, r = divmod(i, len(coords))
            out.append(coords[r])
        return tuple(out)

    indices = st.lists(
        st.sampled_from(range(len(coords) ** dim)), min_size=min_size, max_size=max_size, unique=True
    )
    return indices.map(lambda ids: PointSet(dim, [point(i) for i in ids]))


@st.composite
def set_families(draw, max_dim=3, max_k=3, max_size=8, coords=INT_VALUES):
    """A list of 1..max_k point sets sharing one ambient dimension."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    k = draw(st.integers(min_value=1, max_value=max_k))
    return [draw(point_sets(dim, 1, max_size, coords)) for _ in range(k)]


@pytest.fixture
def built_sums(monkeypatch):
    """The names of the sum builders called while the test runs, in order:
    ``minkowski_sum`` wherever the checks bind it, and the engine's
    ``core._decode``, which every built sum passes through.  Each is wrapped
    to record its call and then run as before."""
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def recorded(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)

    for module in (core, compression):
        spy(module, "minkowski_sum")
    spy(core, "_decode")
    return calls
