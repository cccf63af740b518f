"""Point sets, exact linear algebra, and sumset computations."""

import contextlib
import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    INT_VALUES,
    MIXED_VALUES,
    RATIONAL_VALUES,
    TWELFTHS,
    int_coords,
    naive_compress,
    naive_image,
    naive_project,
    naive_rref,
    naive_sumset,
    point_sets,
    set_families,
    typed,
    values,
)
from sumsetlab import core
from sumsetlab import (
    Basis,
    BudgetError,
    CompressionSpec,
    DimensionMismatchError,
    EmptySetError,
    LinearSystem,
    PointSet,
    RationalMatrix,
    SingularMatrixError,
    Subspace,
    affine_dimension,
    compress,
    covering_number,
    iterated_sumset,
    linear_image,
    long_simplex,
    max_fiber,
    minkowski_sum,
    project,
    random_system,
    rotation_system,
    sum_limit,
    sumset_size,
    sumset_sizes,
    weighted_sumset,
)

ROT90 = RationalMatrix([[0, -1], [1, 0]])


class TestPointSet:
    def test_deduplicates(self):
        A = PointSet(2, [(0, 0), (0, 0), (1, 2)])
        assert len(A) == 2

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            PointSet(2, [])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            PointSet(2, [(0, 0, 0)])

    @pytest.mark.parametrize("dim, point", [(True, (0,)), (2.0, (0, 0)), (0, ())])
    def test_dimension_that_no_reader_accepts_rejected(self, dim, point):
        # "dim": true or 2.0 would be written, and refused when read back
        with pytest.raises(ValueError, match="'dim' must be a positive integer"):
            PointSet(dim, [point])

    def test_float_coordinates_rejected(self):
        with pytest.raises(TypeError):
            PointSet(1, [(0.5,)])

    def test_integer_valued_fractions_canonicalized(self):
        A = PointSet(1, [(Fraction(2, 1),)])
        (p,) = A.sorted_points()
        assert p == (2,) and isinstance(p[0], int)

    def test_sorted_points_lexicographic(self):
        A = PointSet(2, [(1, 0), (0, 2), (0, 1)])
        assert A.sorted_points() == [(0, 1), (0, 2), (1, 0)]

    def test_equality_and_hash_ignore_order(self):
        A = PointSet(1, [(0,), (1,)])
        B = PointSet(1, [(1,), (0,)])
        assert A == B and hash(A) == hash(B)

    def test_translate_and_negate(self):
        A = PointSet(2, [(0, 0), (1, 2)])
        assert A.translate((1, 1)) == PointSet(2, [(1, 1), (2, 3)])
        assert A.negate() == PointSet(2, [(0, 0), (-1, -2)])

    def test_is_integral(self):
        assert PointSet(1, [(3,)]).is_integral
        assert not PointSet(1, [(Fraction(1, 2),)]).is_integral


class TestMinkowskiSum:
    def test_singleton_list_is_identity(self):
        A = PointSet(1, [(0,)])
        assert minkowski_sum([A]) == A

    def test_two_segments(self):
        A = PointSet(2, [(0, 0), (1, 0)])
        B = PointSet(2, [(0, 0), (0, 1)])
        assert minkowski_sum([A, B]) == PointSet(
            2, [(0, 0), (1, 0), (0, 1), (1, 1)]
        )

    def test_long_simplex_doubling(self):
        A = long_simplex(2, 4)
        assert len(minkowski_sum([A, A])) == 9

    def test_empty_list_rejected(self):
        with pytest.raises(EmptySetError):
            minkowski_sum([])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            minkowski_sum([PointSet(1, [(0,)]), PointSet(2, [(0, 0)])])

    @given(set_families(max_size=6))
    def test_matches_naive_enumeration(self, sets):
        expected = naive_sumset(sets)
        got = minkowski_sum(sets)
        assert {tuple(p) for p in got.points} == expected

    @given(set_families(max_size=6, coords=RATIONAL_VALUES))
    def test_matches_naive_enumeration_rational(self, sets):
        expected = naive_sumset(sets)
        assert {tuple(p) for p in minkowski_sum(sets).points} == expected

    @given(point_sets(2), point_sets(2))
    def test_commutative(self, A, B):
        assert minkowski_sum([A, B]) == minkowski_sum([B, A])

    @given(point_sets(2), point_sets(2, max_size=1))
    def test_adding_singleton_translates(self, A, s):
        (t,) = s.points
        assert minkowski_sum([A, s]) == A.translate(t)

    @given(set_families())
    def test_elementary_lower_bound(self, sets):
        total = minkowski_sum(sets)
        assert len(total) >= sum(len(A) for A in sets) - (len(sets) - 1)


@contextlib.contextmanager
def engine_folds():
    """Record, in order, the fold each integral sum inside the block runs."""
    seen = []

    def spy(name, fold):
        def recorded(*args):
            seen.append(name)
            return fold(*args)

        return recorded

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_bitmap_fold", spy("bitmap", core._bitmap_fold))
        mp.setattr(core, "_pair_fold", spy("pairs", core._pair_fold))
        yield seen


@contextlib.contextmanager
def fractions_built():
    """Count the ``Fraction`` objects constructed inside the block."""
    built = [0]
    construct = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return construct(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", staticmethod(counted))
        yield built


@st.composite
def dense_sets(draw, dim):
    """At least half of a box with sides 1..3 and its low corner in [-3, 3]^d.
    A sum of up to three such sets has at most 2^3 = 8 box cells per point of
    the bound min(|A_1| ... |A_k|, cells), so it takes the bitmap fold."""
    low = draw(st.tuples(*[st.integers(-3, 3)] * dim))
    sides = draw(st.tuples(*[st.integers(1, 3)] * dim))
    cells = list(itertools.product(*(range(a, a + s) for a, s in zip(low, sides))))
    return PointSet(dim, draw(st.lists(st.sampled_from(cells), min_size=(len(cells) + 1) // 2, unique=True)))


WIDE = 10**5


@st.composite
def wide_sets(draw, dim):
    """1 to 8 small points plus one at distance 10^5 along the first axis: a
    sum of up to three such sets has over a hundred box cells per point of
    the bound min(|A_1| ... |A_k|, cells), so it takes the pair-set fold."""
    far = (draw(st.sampled_from((-WIDE, WIDE))),) + (0,) * (dim - 1)
    near = draw(st.lists(st.tuples(*[int_coords] * dim), min_size=1, max_size=8))
    return PointSet(dim, near + [far])


FOLDS = [
    pytest.param(dense_sets, "bitmap", id="bitmap"),
    pytest.param(wide_sets, "pairs", id="pairs"),
]


class TestSumsetEngine:
    """Both folds of the integral engine against ``naive_sumset``, on inputs
    built to take each fold: d = 1..3, negative coordinates, singletons and
    k = 1 included."""

    @pytest.mark.parametrize("make_set, fold", FOLDS)
    @given(data=st.data())
    def test_minkowski_sum(self, make_set, fold, data):
        dim = data.draw(st.integers(1, 3))
        sets = [data.draw(make_set(dim)) for _ in range(data.draw(st.integers(1, 3)))]
        with engine_folds() as seen:
            got = minkowski_sum(sets)
        assert set(got.points) == naive_sumset(sets)
        assert seen == [fold] * (len(sets) > 1)

    @pytest.mark.parametrize("make_set, fold", FOLDS)
    @given(data=st.data())
    def test_iterated_sumset(self, make_set, fold, data):
        A = data.draw(make_set(data.draw(st.integers(1, 3))))
        k = data.draw(st.integers(1, 3))
        with engine_folds() as seen:
            got = iterated_sumset(A, k)
        assert set(got.points) == naive_sumset([A] * k)
        assert seen == [fold] * (k > 1)

    @given(data=st.data())
    def test_weighted_sumset_bitmap(self, data):
        # rotations map a dense set onto a dense set
        dim = data.draw(st.integers(2, 3))
        A = data.draw(dense_sets(dim))
        system = rotation_system(dim)
        with engine_folds() as seen:
            got = weighted_sumset(system, A)
        assert set(got.points) == naive_sumset([linear_image(M, A) for M in system.maps])
        assert seen == ["bitmap"]

    @given(data=st.data())
    def test_weighted_sumset_pairs(self, data):
        dim = data.draw(st.integers(1, 3))
        A = data.draw(wide_sets(dim))
        system = random_system(dim, data.draw(st.integers(2, 3)), 2, data.draw(st.integers(0, 2**32)))
        with engine_folds() as seen:
            got = weighted_sumset(system, A)
        assert set(got.points) == naive_sumset([linear_image(M, A) for M in system.maps])
        assert seen == ["pairs"]

    @given(set_families(max_dim=4, max_k=4, max_size=10))
    def test_either_fold_matches_naive(self, sets):
        assert set(minkowski_sum(sets).points) == naive_sumset(sets)

    @pytest.mark.parametrize(
        "big, fold",
        [
            (PointSet(2, itertools.product(range(-2, 2), range(3))), "bitmap"),
            (PointSet(2, [(0, 0), (WIDE, -1)]), "pairs"),
        ],
    )
    def test_singleton_summands(self, big, fold):
        point = PointSet(2, [(-4, 7)])
        for sets in ([point, big], [big, point], [point, point, big]):
            with engine_folds() as seen:
                got = minkowski_sum(sets)
            assert set(got.points) == naive_sumset(sets)
            assert seen == [fold]
        assert iterated_sumset(point, 3) == PointSet(2, [(-12, 21)])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_density_threshold(self, dim):
        # for m != 0, {0, m e_1} + {0, e_d} adds 4 pairs in a box of |m| + 2
        # cells (d = 1) or 2(|m| + 1) cells (d = 2)
        limit = core._BITMAP_DENSITY * 4
        folds = {}
        for m in range(-limit, limit):
            A = PointSet(dim, [(0,) * dim, (m,) + (0,) * (dim - 1)])
            B = PointSet(dim, [(0,) * (dim - 1) + (1,), (0,) * dim])
            with engine_folds() as seen:
                got = minkowski_sum([A, B])
            assert set(got.points) == naive_sumset([A, B])
            cells = (abs(m) + 2) if dim == 1 else 2 * (abs(m) + 1)
            folds[cells] = seen
        assert folds[limit] == ["bitmap"]
        assert folds[limit + dim] == ["pairs"]
        assert all(seen == (["bitmap"] if cells <= limit else ["pairs"]) for cells, seen in folds.items())


def canonical(points):
    """The points with every integral coordinate an ``int``, as the library
    stores them; ``naive_sumset`` leaves a sum of fractions such as
    Fraction(1, 2) + Fraction(1, 2) a Fraction."""
    return {tuple(c.numerator if c.denominator == 1 else c for c in p) for p in points}


# denominators 1009, 1013 and 1019 put q near 2 * 10^9: the scaled box of
# A + B + A has more than 2^64 cells, so the pair-set fold adds big integers
BIG_Q = [
    PointSet(3, [(0, 0, 0), (Fraction(1, 1009), Fraction(5, 1013), 7),
                 (2, Fraction(-3, 1019), Fraction(1, 2))]),
    PointSet(3, [(Fraction(1, 1013), 0, Fraction(-1, 1009)), (1, 1, 1)]),
]


class TestRationalSums:
    """Rational sums scaled to the integral engine, against ``naive_sumset``:
    the points, the type of every coordinate and ``is_integral``, and the fold
    each sum of two or more summands runs."""

    @staticmethod
    def check(sets, got):
        assert typed(got.points) == typed(canonical(naive_sumset(sets)))
        # the flag follows the points, also when a rational sum has only
        # integral points
        assert got.is_integral == all(type(c) is int for p in got for c in p)

    @given(data=st.data())
    def test_mixed_summands(self, data):
        dim = data.draw(st.integers(1, 3))
        coords = st.sampled_from([INT_VALUES, RATIONAL_VALUES, MIXED_VALUES])
        k = data.draw(st.integers(1, 4))
        sets = [data.draw(point_sets(dim, max_size=5, coords=data.draw(coords))) for _ in range(k)]
        with engine_folds() as seen:
            got = minkowski_sum(sets)
        self.check(sets, got)
        assert len(seen) == (len(sets) > 1)

    @given(data=st.data())
    def test_iterated_sumset(self, data):
        A = data.draw(point_sets(data.draw(st.integers(1, 3)), max_size=6, coords=RATIONAL_VALUES))
        k = data.draw(st.integers(1, 4))
        with engine_folds() as seen:
            got = iterated_sumset(A, k)
        self.check([A] * k, got)
        assert len(seen) == (k > 1)

    @pytest.mark.parametrize(
        "sets, expected",
        [
            ([PointSet(1, [(Fraction(1, 2),), (Fraction(3, 2),)]),
              PointSet(1, [(Fraction(1, 2),), (Fraction(-1, 2),)])],
             [(0,), (1,), (2,)]),
            # the two points differ by an integral vector, so 3A is integral
            ([PointSet(2, [(Fraction(1, 3), Fraction(2, 3)), (Fraction(4, 3), Fraction(-1, 3))])] * 3,
             [(1, 2), (2, 1), (3, 0), (4, -1)]),
            ([PointSet(2, [(Fraction(1, 2), 3)]), PointSet(2, [(Fraction(-1, 2), Fraction(1, 4))]),
              PointSet(2, [(7, Fraction(3, 4))])],
             [(7, 4)]),
        ],
    )
    def test_integral_result(self, sets, expected):
        got = minkowski_sum(sets)
        self.check(sets, got)
        assert got == PointSet(sets[0].dim, expected)
        assert all(type(c) is int for p in got for c in p)

    @pytest.mark.parametrize(
        "sets, fold",
        [
            pytest.param([PointSet(1, [(Fraction(j, 2),) for j in range(-3, 4)])] * 3, "bitmap", id="halves"),
            pytest.param([BIG_Q[0], BIG_Q[1], BIG_Q[0]], "pairs", id="large-lcm"),
        ],
    )
    def test_fold_on_scaled_box(self, sets, fold):
        q = math.lcm(*(c.denominator for A in sets for p in A for c in p))
        cells = math.prod(
            q * sum(max(p[i] for p in A) - min(p[i] for p in A) for A in sets) + 1 for i in range(sets[0].dim)
        )
        assert (cells > 2**64) == (fold == "pairs")
        with engine_folds() as seen:
            got = minkowski_sum(sets)
        self.check(sets, got)
        assert seen == [fold]


class TestScaledSumset:
    """``core.packed_sumset`` is the engine's public entry: it checks the
    summands and returns (d, q, fold, lows, sides), whose fold decodes to
    q(A_1 + ... + A_k) with q the lcm of every coordinate denominator,
    integral points and no ``Fraction``."""

    @given(data=st.data())
    def test_scaled_points(self, data):
        dim = data.draw(st.integers(1, 3))
        coords = st.sampled_from([INT_VALUES, RATIONAL_VALUES, MIXED_VALUES])
        k = data.draw(st.integers(1, 4))
        sets = [data.draw(point_sets(dim, max_size=5, coords=data.draw(coords))) for _ in range(k)]
        d, q, *fold = core.packed_sumset(sets)
        points = core._decode(*fold)
        assert d == dim
        assert q == math.lcm(*(c.denominator for A in sets for p in A for c in p))
        assert all(type(c) is int for p in points for c in p)
        assert {tuple(Fraction(c, q) for c in p) for p in points} == naive_sumset(sets)

    def test_summands_checked(self):
        with pytest.raises(EmptySetError):
            core.packed_sumset([])
        with pytest.raises(DimensionMismatchError):
            core.packed_sumset([PointSet(1, [(0,)]), PointSet(2, [(0, 0)])])


class TestUnscaled:
    """``PointSet.points`` decodes (q, qA) converting each distinct coordinate
    once; it must give the points, and the type of every coordinate, of the
    per-point division of qA by q."""

    @staticmethod
    def per_point(points, q):
        return frozenset(tuple(c // q if c % q == 0 else Fraction(c, q) for c in p) for p in points)

    @given(data=st.data())
    def test_matches_per_point_division(self, data):
        dim = data.draw(st.integers(1, 4))
        q = data.draw(st.integers(1, 60))
        coord = st.integers(-3 * q, 3 * q) | st.just(0)
        points = data.draw(st.frozensets(st.tuples(*[coord] * dim), min_size=1, max_size=40))
        got = PointSet._raw(dim, q, points).points
        assert typed(got) == typed(self.per_point(points, q))

    def test_shared_coordinates_and_signs(self):
        points = frozenset({(-6, 0, 3), (3, -3, 0), (0, 5, -4), (-1, 6, 9)})
        got = PointSet._raw(3, 6, points).points
        assert got == {(-1, 0, Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2), 0),
                       (0, Fraction(5, 6), Fraction(-2, 3)), (Fraction(-1, 6), 1, Fraction(3, 2))}
        assert typed(got) == typed(self.per_point(points, 6))


class TestSumsetSize:
    """``sumset_size`` counts the folds of the engine without decoding them:
    against ``len(naive_sumset)`` on both folds and on rational sums, and
    against ``len(minkowski_sum)``."""

    @pytest.mark.parametrize("make_set, fold", FOLDS)
    @given(data=st.data())
    def test_both_folds(self, make_set, fold, data):
        dim = data.draw(st.integers(1, 3))
        sets = [data.draw(make_set(dim)) for _ in range(data.draw(st.integers(1, 3)))]
        with engine_folds() as seen:
            got = sumset_size(sets)
        assert got == len(naive_sumset(sets))
        assert seen == [fold] * (len(sets) > 1)

    @given(data=st.data())
    def test_rational_sums(self, data):
        dim = data.draw(st.integers(1, 3))
        coords = st.sampled_from([INT_VALUES, RATIONAL_VALUES, MIXED_VALUES])
        sets = [data.draw(point_sets(dim, max_size=5, coords=data.draw(coords)))
                for _ in range(data.draw(st.integers(1, 4)))]
        with engine_folds() as seen:
            got = sumset_size(sets)
        assert got == len(naive_sumset(sets)) == len(minkowski_sum(sets))
        assert len(seen) == (len(sets) > 1)

    @given(point_sets(2, max_size=6, coords=RATIONAL_VALUES), st.integers(1, 4))
    def test_iterated(self, A, k):
        assert sumset_size([A] * k) == len(iterated_sumset(A, k))

    @pytest.mark.parametrize("sets", [BIG_Q, [BIG_Q[0]] * 3, [PointSet(2, [(0, 0)])] * 2])
    def test_fixed_cases(self, sets):
        assert sumset_size(sets) == len(naive_sumset(sets))

    def test_rejects_empty_and_mixed(self):
        with pytest.raises(EmptySetError):
            sumset_size([])
        with pytest.raises(DimensionMismatchError):
            sumset_size([PointSet(1, [(0,)]), PointSet(2, [(0, 0)])])


class TestSumsetSizes:
    """``sumset_sizes(A, k)`` reads |A|, ..., |kA| from the one fold of
    {A: k}: each level against ``sumset_size({A: j})`` and
    ``len(naive_sumset([A] * j))``, on both folds, integral and rational
    sets, a one-point set, k = 1 and a sparse set whose pair fold builds its
    levels in ``core._multiple``."""

    @staticmethod
    def check(A, k):
        with engine_folds() as seen:
            sizes = sumset_sizes(A, k)
        assert len(sizes) == k
        for j, size in enumerate(sizes, 1):
            assert size == sumset_size({A: j}) == len(naive_sumset([A] * j)), j
        return seen

    @pytest.mark.parametrize("make_set, fold", FOLDS)
    @given(data=st.data())
    def test_both_folds(self, make_set, fold, data):
        A = data.draw(make_set(data.draw(st.integers(1, 3))))
        k = data.draw(st.integers(1, 3))
        assert self.check(A, k) == [fold] * (k > 1 and len(A) > 1)

    @pytest.mark.parametrize("density, fold", [(0, "pairs"), (10**9, "bitmap")])
    @given(data=st.data())
    def test_each_fold_forced(self, density, fold, data):
        # a density of 0 leaves every box to the pair fold, and 10^9 gives
        # every box of at most _BITMAP_MAX_CELLS cells to the bitmap
        dim = data.draw(st.integers(1, 3))
        coords = data.draw(st.sampled_from([INT_VALUES, RATIONAL_VALUES, MIXED_VALUES]))
        A = data.draw(point_sets(dim, min_size=2, max_size=5, coords=coords))
        k = data.draw(st.integers(2, 4))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BITMAP_DENSITY", density)
            assert self.check(A, k) == [fold]

    def test_one_point_and_k1(self):
        P = PointSet(2, [(Fraction(1, 3), -4)])
        assert self.check(P, 5) == []
        A = PointSet(2, [(0, 0), (Fraction(1, 2), 7), (5, -1)])
        assert self.check(A, 1) == []
        assert sumset_sizes(A, 1) == [3]

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_sparse_levels_from_multiple(self, k):
        # the pair fold builds every level of a sparse set in one _multiple
        A = TestFoldChoice.SPARSE
        calls = []

        def multiple(a, m, sizes=None):
            calls.append(m)
            return real(a, m, sizes)

        real = core._multiple
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_multiple", multiple)
            sumset_sizes(A, k)
        assert calls == [k]
        assert self.check(A, k) == ["pairs"]

    def test_rejects_bad_k(self):
        A = PointSet(1, [(0,), (1,)])
        for k in (0, -1, 2.0, True):
            with pytest.raises(ValueError):
                sumset_sizes(A, k)

    @pytest.mark.parametrize("k", [2, 5, 30])
    def test_budget_bounds_the_total_of_the_levels(self, k):
        # jA of {0, 1/2, 1} has 2j + 1 points, so levels 2..k total k^2 + 2k - 3
        A = PointSet(1, [(0,), (Fraction(1, 2),), (1,)])
        total = k * k + 2 * k - 3
        with sum_limit(total):
            assert sumset_sizes(A, k) == [2 * j + 1 for j in range(1, k + 1)]
        with sum_limit(total - 1), pytest.raises(
            BudgetError, match=f"the sums kA for k = 2..{k} could have more points in total than the budget of {total - 1}"
        ):
            sumset_sizes(A, k)

    @pytest.mark.parametrize("A", [PointSet(1, [(0,)]), PointSet(2, [(Fraction(1, 3), -4)])])
    def test_one_point_total_in_closed_form(self, monkeypatch, A):
        # every level of a one-point set is one point, so levels 2..k total
        # k - 1, refused at once when it passes the limit: no level is
        # bounded one by one
        calls = []

        def point_bound(*args):
            calls.append(args)
            return real(*args)

        real = core._point_bound
        monkeypatch.setattr(core, "_point_bound", point_bound)
        with sum_limit(10**7), pytest.raises(
            BudgetError, match="the sums kA for k = 2..100000000 could have more points in total than the budget of 10000000"
        ):
            sumset_sizes(A, 10**8)
        with sum_limit(5):
            assert sumset_sizes(A, 6) == [1] * 6
        with sum_limit(4), pytest.raises(BudgetError):
            sumset_sizes(A, 6)
        assert calls == []


def expected_fold(sets):
    """The fold the engine must choose for integral ``sets``, recomputed from
    the points: the bitmap runs when the box of the sum has at most
    ``_BITMAP_DENSITY`` cells per point of min(|A_1| ... |A_k|, cells) and
    at most ``_BITMAP_MAX_CELLS`` cells."""
    cells = math.prod(
        sum(max(p[i] for p in A) - min(p[i] for p in A) for A in sets) + 1
        for i in range(sets[0].dim)
    )
    bound = min(math.prod(len(A) for A in sets), cells)
    if cells <= core._BITMAP_MAX_CELLS and cells <= core._BITMAP_DENSITY * bound:
        return "bitmap"
    return "pairs"


class TestFoldChoice:
    """The engine's fold choice against :func:`expected_fold`, whose box and
    bound are rebuilt from the points."""

    @given(data=st.data())
    def test_random_families(self, data):
        dim = data.draw(st.integers(1, 3))
        coords = data.draw(st.sampled_from([values(-2, 2), INT_VALUES, values(-40, 40)]))
        sets = [data.draw(point_sets(dim, max_size=data.draw(st.integers(1, 12)), coords=coords))
                for _ in range(data.draw(st.integers(2, 4)))]
        with engine_folds() as seen:
            got = sumset_size(sets)
        assert seen == [expected_fold(sets)]
        assert got == len(naive_sumset(sets))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("far_first", [False, True])
    def test_threshold_with_prefix_boxes(self, dim, far_first):
        # {0, m e_1} with two 3 x ... x 3 cubes, the far summand first or last
        # and then in the middle: the cubes' prefix box (5 cells a side after
        # two of them) is below their product of sizes, so a choice that read
        # the boxes of the partial sums would tell these orders apart
        cube3 = PointSet(dim, itertools.product(range(3), repeat=dim))
        crossed = set()
        for m in range(600):
            far = PointSet(dim, [(0,) * dim, (m,) + (0,) * (dim - 1)])
            end = [far, cube3, cube3] if far_first else [cube3, cube3, far]
            folds = set()
            for sets in (end, [cube3, far, cube3]):
                with engine_folds() as seen:
                    got = minkowski_sum(sets)
                assert seen == [expected_fold(sets)], m
                assert set(got.points) == naive_sumset(sets)
                folds.update(seen)
            assert len(folds) == 1, m
            crossed |= folds
        assert crossed == {"bitmap", "pairs"}

    def test_exact_threshold(self):
        # cube3 + cube3 + {0, m}: the bound is min(3 * 3 * 2, m + 5) = 18 for
        # m >= 13, and the box has m + 5 cells
        cube3 = PointSet(1, [(0,), (1,), (2,)])
        limit = core._BITMAP_DENSITY * 18
        for m, fold in [(limit - 5, "bitmap"), (limit - 4, "pairs")]:
            sets = [cube3, cube3, PointSet(1, [(0,), (m,)])]
            with engine_folds() as seen:
                sumset_size(sets)
            assert seen == [fold] == [expected_fold(sets)]

    LINE3 = PointSet(1, [(0,), (1,), (2,)])
    TRI = PointSet(2, [(0, 0), (1, 0), (0, 1)])
    CUBE3 = PointSet(2, itertools.product(range(3), repeat=2))
    POINT = PointSet(2, [(4, -1)])
    SPARSE = PointSet(2, [(0, 0), (97, 3), (-40, 250), (13, -77)])
    FAR = PointSet(2, [(0, 0), (700, 0)])

    @pytest.mark.parametrize("sets, fold", [
        ([LINE3] * 2, "bitmap"),
        ([LINE3] * 40, "bitmap"),
        ([TRI] * 3, "bitmap"),
        ([TRI] * 25, "bitmap"),
        ([CUBE3] * 12, "bitmap"),
        ([POINT] * 30, "bitmap"),
        ([SPARSE] * 6, "pairs"),
        ([SPARSE] * 30, "pairs"),  # over _BITMAP_MAX_CELLS
        ([CUBE3] * 8 + [FAR], "bitmap"),
        ([FAR] + [CUBE3] * 8, "bitmap"),
        ([FAR] + [POINT] * 20, "pairs"),
        ([POINT] * 10 + [TRI] + [POINT] * 10, "bitmap"),
    ])
    def test_many_summands(self, sets, fold):
        # long families: in most, the running product of the sizes reaches
        # the box's cells and is capped there; in the last two it never does
        with engine_folds() as seen:
            got = sumset_size(sets)
        assert seen == [fold] == [expected_fold(sets)]
        assert got == len(minkowski_sum(sets))


def refused(sets, limit):
    """Whether the engine refuses the sum of ``sets`` under ``limit``; a sum
    it builds must be the naive one."""
    try:
        with sum_limit(limit):
            got = minkowski_sum(sets)
    except BudgetError as exc:
        assert "budget" in str(exc)
        return True
    assert got.points == naive_sumset(sets)
    return False


@st.composite
def twelfths_case(draw, max_size=6):
    """(d, a set with coordinates in TWELFTHS, a strategy for vectors of
    length d over TWELFTHS), for d = 1..3."""
    dim = draw(st.integers(1, 3))
    vectors = st.tuples(*[st.sampled_from(TWELFTHS)] * dim)
    return dim, draw(point_sets(dim, max_size=max_size, coords=TWELFTHS)), vectors


class TestOneForm:
    """Every operation builds its result in the one form (q, qA).  Against a
    naive ``Fraction`` oracle: ``.points`` with the type of every coordinate,
    ``is_integral``, q the lcm of the oracle's denominators and ``scaled``
    the oracle's points times q."""

    @staticmethod
    def check(got, want):
        want = canonical(want)
        q = math.lcm(*(Fraction(c).denominator for p in want for c in p))
        assert (got.q, got.scaled) == (q, {tuple(int(c * q) for c in p) for p in want})
        assert typed(got.points) == typed(want)
        assert got.is_integral == (q == 1)

    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.tuples(*[st.fractions(-2, 2, max_denominator=12)] * d), min_size=1, max_size=8)))
    def test_constructor(self, raw):
        # Fraction coordinates, integral ones among them, and repeated points
        self.check(PointSet(len(raw[0]), raw), {tuple(p) for p in raw})

    @given(twelfths_case(), st.data())
    def test_translate_and_negate(self, case, data):
        _, A, vectors = case
        v = data.draw(vectors)
        self.check(A.translate(v), {tuple(x + y for x, y in zip(p, v)) for p in A.points})
        self.check(A.negate(), {tuple(-x for x in p) for p in A.points})

    @given(twelfths_case(), st.data())
    def test_linear_image(self, case, data):
        dim, A, vectors = case
        rows = [data.draw(vectors) for _ in range(dim)]
        self.check(linear_image(RationalMatrix(rows), A), naive_image(rows, A.points))

    @given(twelfths_case(), st.data())
    def test_project(self, case, data):
        dim, A, vectors = case
        coords = data.draw(st.sets(st.integers(1, dim)))
        standard = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        self.check(project(A, None, coords), naive_project(A.points, standard, coords))
        vectors = [data.draw(vectors) for _ in range(dim)]
        assume(RationalMatrix(vectors).det() != 0)
        self.check(project(A, Basis(vectors), coords), naive_project(A.points, vectors, coords))

    @given(twelfths_case(), st.data())
    def test_compress(self, case, data):
        _, A, vectors = case
        normal, direction = data.draw(vectors), data.draw(vectors)
        assume(sum(a * b for a, b in zip(normal, direction)) != 0)
        offset = data.draw(st.sampled_from(TWELFTHS))
        spec = CompressionSpec(normal=normal, offset=offset, direction=direction)
        self.check(compress(A, spec), naive_compress(A.points, normal, offset, direction))

    @given(twelfths_case(max_size=4), st.data())
    def test_sums(self, case, data):
        dim, A, _ = case
        others = data.draw(st.lists(point_sets(dim, max_size=4, coords=TWELFTHS), max_size=2))
        sets = [A, *others]
        self.check(minkowski_sum(sets), naive_sumset(sets))
        k = data.draw(st.integers(1, 3))
        self.check(iterated_sumset(A, k), naive_sumset([A] * k))

    @given(twelfths_case())
    def test_raw_form_is_reduced(self, case):
        # the trusted constructor divides out a common factor of q and qA
        dim, A, _ = case
        doubled = PointSet._raw(dim, 2 * A.q, frozenset(tuple(2 * c for c in p) for p in A.scaled))
        assert doubled == A and hash(doubled) == hash(A)
        assert (doubled.q, doubled.scaled) == (A.q, A.scaled)

    def test_halves_sum_to_an_integer(self):
        half = PointSet(1, [(Fraction(1, 2),)])
        assert minkowski_sum([half, half]) == PointSet(1, [(1,)])
        assert hash(iterated_sumset(half, 4)) == hash(PointSet(1, [(2,)]))


class TestSumLimit:
    @given(data=st.data())
    def test_refuses_below_true_size(self, data):
        # the bound is at least the size of the sum; one summand is no sum
        dim = data.draw(st.integers(1, 3))
        coords = st.sampled_from([INT_VALUES, RATIONAL_VALUES, MIXED_VALUES])
        sets = [data.draw(point_sets(dim, max_size=6, coords=data.draw(coords)))
                for _ in range(data.draw(st.integers(1, 4)))]
        assert refused(sets, len(naive_sumset(sets)) - 1) == (len(sets) > 1)

    def test_scaled_box(self):
        # 21 halves in [0, 10]: 3H lies in the 61 multiples of 1/2 in [0, 30]
        H = PointSet(1, [(Fraction(j, 2),) for j in range(21)])
        assert len(iterated_sumset(H, 3)) == 61
        assert not refused([H] * 3, 61) and refused([H] * 3, 60)
        # the product bound is smaller for a sparse set
        S = PointSet(1, [(0,), (Fraction(100, 3),)])
        assert not refused([S, S], 4) and refused([S, S], 3)

    @pytest.mark.parametrize("k", [2, 7, 40])
    def test_bound_of_long_sums(self, k):
        # the bound is min(|A|^k, cells of the box of kA), exactly
        A = PointSet(2, [(0, 0), (1, 0), (0, 1), (5, 2)])
        bound = min(4**k, (5 * k + 1) * (2 * k + 1))
        size = len(iterated_sumset(A, k))
        with sum_limit(bound):
            assert sumset_size([A] * k) == size
        with sum_limit(bound - 1), pytest.raises(BudgetError, match=f"up to {bound} points"):
            sumset_size([A] * k)

    def test_million_fold_refused_quickly(self):
        # the bound's product of sizes is capped at the box's cells; uncapped
        # it grows to 3^k, and each of its k products costs time linear in k
        tri = PointSet(2, [(0, 0), (1, 0), (0, 1)])
        start = time.perf_counter()
        with sum_limit(10**7), pytest.raises(BudgetError, match=f"up to {(10**6 + 1) ** 2}"):
            iterated_sumset(tri, 10**6)
        assert time.perf_counter() - start < 20

    def test_huge_multiplicity_refused_at_once(self):
        # one summand of multiplicity 10^18: the bound is taken in O(1) per
        # distinct summand, and no list of 10^18 entries is built
        tri = PointSet(2, [(0, 0), (1, 0), (0, 1)])
        start = time.perf_counter()
        with sum_limit(10**7), pytest.raises(BudgetError, match=f"up to {(10**18 + 1) ** 2}"):
            iterated_sumset(tri, 10**18)
        assert time.perf_counter() - start < 0.1

    def test_refused_before_packing(self, monkeypatch):
        def packed(*args):
            raise AssertionError("a refused sum was packed")

        for name in ("_pack", "_bitmap_fold", "_pair_fold"):
            monkeypatch.setattr(core, name, packed)
        H = PointSet(1, [(Fraction(j, 2),) for j in range(21)])
        for build in (minkowski_sum, sumset_size):
            with sum_limit(60), pytest.raises(BudgetError):
                build([H] * 3)

    def test_one_summand_never_refused(self):
        A = PointSet(2, [(0, 0), (Fraction(1, 2), 7), (5, -1)])
        with sum_limit(1):
            assert minkowski_sum([A]) == iterated_sumset(A, 1) == A
            assert sumset_size([A]) == 3

    def test_limit_ends_with_its_block(self):
        A = PointSet(1, [(0,), (1,), (2,)])
        with sum_limit(10):
            with sum_limit(4):
                with pytest.raises(BudgetError):
                    iterated_sumset(A, 2)
            assert len(iterated_sumset(A, 2)) == 5
        with pytest.raises(BudgetError), sum_limit(4):
            iterated_sumset(A, 2)
        assert len(iterated_sumset(A, 4)) == 9


class TestMultiset:
    """The engine reads its summands as a multiset: a sequence whose equal
    entries count as one summand repeated, or a mapping from summand to a
    positive ``int`` multiplicity."""

    @pytest.mark.parametrize(
        "points, fold",
        [(list(itertools.product(range(3), range(2))), "bitmap"), ([(0, 0), (WIDE, -1), (3, 7)], "pairs")],
    )
    def test_equal_sets_as_distinct_objects(self, monkeypatch, points, fold):
        # three equal sets, built apart, are one summand of multiplicity 3,
        # packed once, whichever fold runs
        pack, packs = core._pack, []
        monkeypatch.setattr(core, "_pack", lambda *args: packs.append(1) or pack(*args))
        sets = [PointSet(2, points), PointSet(2, points), PointSet(2, points[::-1])]
        with engine_folds() as seen:
            got = minkowski_sum(sets)
        assert set(got.points) == naive_sumset(sets)
        assert (seen, len(packs)) == ([fold], 1)
        assert sumset_size(sets) == len(got)

    @given(data=st.data())
    def test_mapping_equals_repeated_sequence(self, data):
        dim = data.draw(st.integers(1, 3))
        coords = st.sampled_from([INT_VALUES, RATIONAL_VALUES, MIXED_VALUES])
        sets = [data.draw(point_sets(dim, max_size=4, coords=data.draw(coords))) for _ in range(data.draw(st.integers(1, 3)))]
        counts = {A: data.draw(st.integers(1, 3)) for A in sets}
        repeated = [A for A, m in counts.items() for _ in range(m)]
        got = minkowski_sum(counts)
        assert set(got.points) == naive_sumset(repeated)
        assert sumset_size(counts) == len(got)
        assert core.packed_sumset(counts) == core.packed_sumset(repeated)

    def test_one_point_summands_move_the_box(self):
        point, two = PointSet(2, [(3, -1)]), PointSet(2, [(0, 0), (1, 2)])
        assert iterated_sumset(point, 10**18) == PointSet(2, [(3 * 10**18, -(10**18))])
        assert minkowski_sum({point: 5, two: 2}) == PointSet(2, [(15, -5), (16, -3), (17, -1)])

    @pytest.mark.parametrize("count", [0, -1, True, False, 1.0])
    def test_bad_multiplicity_rejected(self, count):
        A = PointSet(1, [(0,), (1,)])
        for build in (minkowski_sum, sumset_size, core.packed_sumset):
            with pytest.raises(ValueError, match="multiplicity"):
                build({A: count})
            with pytest.raises(ValueError, match="multiplicity"):
                build({A: 2, PointSet(1, [(5,)]): count})


@st.composite
def sparse_sets(draw, dim, q):
    """Up to 5 points with coordinates c / q, c in [-10^6, 10^6], plus the two
    points with first coordinate -10^6 / q and 10^6 / q and every other 0: a
    sum of up to four summands has far more than ``_BITMAP_DENSITY`` box
    cells per point of its bound, so it takes the pair-set fold."""
    coord = st.integers(-(10**6), 10**6).map(lambda c: Fraction(c, q))
    ends = [(Fraction(s * 10**6, q),) + (0,) * (dim - 1) for s in (-1, 1)]
    return PointSet(dim, draw(st.lists(st.tuples(*[coord] * dim), max_size=5)) + ends)


@st.composite
def progression_and_far_point(draw, dim):
    """An arithmetic progression of 2 to 8 points, whose sums collide, plus
    one point at distance 10^5 along the first axis, so that its sums take
    the pair-set fold."""
    start = draw(st.tuples(*[int_coords] * dim))
    step = (draw(st.integers(1, 3)),) + draw(st.tuples(*[st.integers(-3, 3)] * (dim - 1)))
    terms = [tuple(a + i * b for a, b in zip(start, step)) for i in range(draw(st.integers(2, 8)))]
    return PointSet(dim, terms + [(draw(st.sampled_from((-WIDE, WIDE))),) + (0,) * (dim - 1)])


class TestMultisetPairFold:
    """The pair-set fold adds a summand of multiplicity m >= 2 over multisets
    (``core._multiple``).  Checked against ``naive_sumset`` on sums that take
    that fold: multiplicities 1 to 4, sparse and rational sets, arithmetic
    progressions whose sums collide, and mixed multisets."""

    @staticmethod
    def check(counts):
        with engine_folds() as seen:
            got = minkowski_sum(counts)
        assert seen == ["pairs"]
        assert set(got.points) == naive_sumset([A for A, m in counts.items() for _ in range(m)])
        assert sumset_size(counts) == len(got)

    @staticmethod
    def draw_set(data):
        dim = data.draw(st.integers(1, 3))
        q = data.draw(st.sampled_from([1, 2, 6]))
        return data.draw(st.one_of(sparse_sets(dim, q), progression_and_far_point(dim)))

    @given(data=st.data())
    def test_repeated_summand(self, data):
        self.check({self.draw_set(data): data.draw(st.integers(2, 4))})

    @given(data=st.data())
    def test_mixed_multisets(self, data):
        A = self.draw_set(data)
        B = data.draw(point_sets(A.dim, max_size=4, coords=MIXED_VALUES))
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 4 - m))
        first, second = data.draw(st.sampled_from([(A, A.negate()), (A, B), (B, A)]))
        # a symmetric A is its own negative: one summand of multiplicity m + n
        counts = {first: m}
        counts[second] = counts.get(second, 0) + n
        self.check(counts)

    @given(st.lists(st.integers(0, 60), min_size=1, max_size=8, unique=True), st.integers(2, 6))
    def test_multiple_is_every_multiset_sum(self, points, m):
        want = {sum(c) for c in itertools.combinations_with_replacement(points, m)}
        assert core._multiple(points, m) == want

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=7, unique=True), st.integers(2, 5))
    def test_multiple_extends_each_sum_from_its_least_last_index(self, points, m):
        # the additions are sum_s (n - t(s)) over the sums s of each level
        # j < m, t(s) the least last index of s over its ways of being written
        added = []

        class Counted(int):
            def __add__(self, other):
                added.append(1)
                return Counted(int(self) + other)

        core._multiple([Counted(p) for p in points], m)
        n, want = len(points), 0
        for j in range(1, m):
            least = {}
            for indices in itertools.combinations_with_replacement(range(n), j):
                s = sum(points[i] for i in indices)
                least[s] = min(least.get(s, n), indices[-1])
            want += sum(n - t for t in least.values())
        assert len(added) == want


class TestIteratedSumset:
    def test_k1_is_identity(self):
        A = PointSet(1, [(0,), (1,)])
        assert iterated_sumset(A, 1) == A

    def test_interval_triples(self):
        A = PointSet(1, [(0,), (1,)])
        assert iterated_sumset(A, 3) == PointSet(1, [(0,), (1,), (2,), (3,)])

    def test_unit_square_doubles_to_nine(self):
        A = PointSet(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert len(iterated_sumset(A, 2)) == 9

    def test_zero_folds_rejected(self):
        with pytest.raises(ValueError):
            iterated_sumset(PointSet(1, [(0,)]), 0)


class TestLinearImage:
    def test_identity(self):
        A = PointSet(2, [(1, 2), (3, 4)])
        assert linear_image(RationalMatrix.identity(2), A) == A

    def test_rot90(self):
        assert linear_image(ROT90, PointSet(2, [(1, 0)])) == PointSet(2, [(0, 1)])

    def test_scaling(self):
        M = RationalMatrix([[2, 0], [0, 2]])
        A = PointSet(2, [(0, 0), (1, 1)])
        assert linear_image(M, A) == PointSet(2, [(0, 0), (2, 2)])

    @given(point_sets(2), st.integers(0, 2**32))
    def test_invertible_images_preserve_cardinality(self, A, seed):
        system = random_system(2, 1, 3, seed)
        assert len(linear_image(system.maps[0], A)) == len(A)

    @given(data=st.data())
    def test_matches_fraction_products(self, data):
        dim = data.draw(st.integers(1, 3))
        entries = data.draw(st.sampled_from([INT_VALUES, RATIONAL_VALUES, MIXED_VALUES]))
        coords = data.draw(st.sampled_from([INT_VALUES, RATIONAL_VALUES, MIXED_VALUES]))
        M = RationalMatrix(data.draw(st.lists(
            st.lists(st.sampled_from(entries), min_size=dim, max_size=dim), min_size=dim, max_size=dim)))
        A = data.draw(point_sets(dim, coords=coords))
        with fractions_built() as built:
            got = linear_image(M, A)
        # the image is built in integers, before any read of its points
        assert built == [0]
        expected = {
            tuple(sum(Fraction(a) * Fraction(x) for a, x in zip(row, p)) for row in M.rows)
            for p in A.points
        }
        assert typed(got.points) == typed(canonical(expected))
        assert got.is_integral == all(type(c) is int for p in got for c in p)

    def test_typed_coordinates(self):
        half = Fraction(1, 2)
        cases = [
            # integral matrix, integral set: ints, flagged integral
            (RationalMatrix([[2, 1], [0, -1]]), PointSet(2, [(1, 1)]), {(3, -1)}, True),
            # integral matrix, rational set with an integral image
            (RationalMatrix([[2, 0], [0, 2]]), PointSet(2, [(half, 1)]), {(1, 2)}, True),
            (RationalMatrix([[1, 0], [0, 1]]), PointSet(2, [(half, 1)]), {(half, 1)}, False),
            # rational matrix, integral set
            (RationalMatrix([[half, 0], [0, 1]]), PointSet(2, [(4, 1), (1, 1)]), {(2, 1), (half, 1)}, False),
            (RationalMatrix([[Fraction(2, 1), half], [0, 1]]), PointSet(2, [(1, 2)]), {(3, 2)}, True),
        ]
        for M, A, points, integral in cases:
            got = linear_image(M, A)
            assert typed(got.points) == typed(points)
            assert got.is_integral is integral


class TestWeightedSumset:
    @given(point_sets(2, max_size=5), st.integers(0, 2**32))
    def test_equals_sum_of_images(self, A, seed):
        system = random_system(2, 2, 2, seed)
        images = [linear_image(M, A) for M in system.maps]
        assert weighted_sumset(system, A) == minkowski_sum(images)

    def test_dimension_mismatch(self):
        system = LinearSystem([RationalMatrix.identity(2)])
        with pytest.raises(DimensionMismatchError):
            weighted_sumset(system, PointSet(1, [(0,)]))


class TestRationalMatrix:
    def test_det(self):
        assert RationalMatrix([[1, 1], [-1, 1]]).det() == 2

    def test_det_singular(self):
        assert RationalMatrix([[1, 2], [2, 4]]).det() == 0

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_det_matches_sympy(self, d):
        # seeded rational matrices, a third with a zero corner (a row swap when
        # invertible) and a fifth with a dependent last row
        rng = random.Random(d)
        kinds = {"singular": 0, "swap": 0}
        for i in range(120):
            den = rng.choice((1, 1, 2, 6, 35))
            rows = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, den)) if rng.random() < 0.8 else 0 for _ in range(d)]
                for _ in range(d)
            ]
            if i % 3 == 0:
                rows[0][0] = 0
            if i % 5 == 0:
                a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-2, 2)
                rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[d // 2])]
            expected = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]).det()
            expected = Fraction(int(expected.p), int(expected.q))
            got = RationalMatrix(rows).det()
            assert got == expected
            assert type(got) is (int if expected.denominator == 1 else Fraction)
            kinds["singular"] += expected == 0
            kinds["swap"] += expected != 0 and rows[0][0] == 0
        assert kinds["singular"] >= 20 and (d == 1 or kinds["swap"] >= 20)

    def test_inverse_round_trip(self):
        M = RationalMatrix([[1, 1], [0, 1]])
        assert (M @ M.inverse()).is_identity()

    def test_inverse_of_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            RationalMatrix([[1, 2], [2, 4]]).inverse()

    def test_is_integral(self):
        assert RationalMatrix([[1, 0], [0, 1]]).is_integral()
        assert not RationalMatrix([[Fraction(1, 2), 0], [0, 1]]).is_integral()

    @given(st.integers(0, 2**32))
    def test_random_inverse_round_trip(self, seed):
        M = random_system(3, 1, 3, seed).maps[0]
        assert (M @ M.inverse()).is_identity()

    def test_linear_system_requires_invertible_maps(self):
        with pytest.raises(SingularMatrixError):
            LinearSystem([RationalMatrix([[0, 0], [0, 0]])])

    @staticmethod
    def naive_poly(coeffs, rows):
        """sum_i c_i M^(n-i) for coefficients c_0, ..., c_n highest-first, with
        each power built by repeated list products and summed entrywise."""
        d = len(rows)
        total = [[Fraction(0)] * d for _ in range(d)]
        power = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        for c in reversed(coeffs):
            total = [[t + c * p for t, p in zip(rt, rp)] for rt, rp in zip(total, power)]
            power = [[sum(power[i][m] * rows[m][j] for m in range(d)) for j in range(d)] for i in range(d)]
        return total

    @given(data=st.data())
    def test_sum_scalar_multiple_and_poly_match_naive(self, data):
        d = data.draw(st.integers(1, 4))
        entries = st.lists(st.sampled_from(RATIONAL_VALUES), min_size=d * d, max_size=d * d)
        A_rows, B_rows = ([e[i * d : (i + 1) * d] for i in range(d)] for e in (data.draw(entries), data.draw(entries)))
        A, B = RationalMatrix(A_rows), RationalMatrix(B_rows)
        c = data.draw(st.sampled_from(RATIONAL_VALUES))
        coeffs = data.draw(st.lists(st.sampled_from(RATIONAL_VALUES), max_size=5))
        assert (A + B).rows == tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(A_rows, B_rows))
        assert (c * A).rows == tuple(tuple(c * x for x in row) for row in A_rows)
        assert A.poly(coeffs) == RationalMatrix(self.naive_poly(coeffs, A_rows))

    def test_scalar_multiple_by_int_and_fraction(self):
        M = RationalMatrix([[1, Fraction(1, 2)], [0, -3]])
        assert 2 * M == RationalMatrix([[2, 1], [0, -6]])
        assert Fraction(2, 3) * M == RationalMatrix([[Fraction(2, 3), Fraction(1, 3)], [0, -2]])
        assert all(type(x) is int for row in (2 * M).rows for x in row)
        with pytest.raises(TypeError):
            0.5 * M
        with pytest.raises(TypeError):
            True * M

    def test_poly_of_no_coefficients_is_zero(self):
        M = RationalMatrix([[1, 2], [3, 4]])
        assert M.poly([]) == RationalMatrix([[0, 0], [0, 0]])
        assert M.poly([1, -5]) == RationalMatrix([[-4, 2], [3, -1]])
        # Cayley-Hamilton: x^2 - 5x - 2 is the characteristic polynomial of M
        assert M.poly([1, -5, -2]) == RationalMatrix([[0, 0], [0, 0]])

    def test_sum_of_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            RationalMatrix.identity(2) + RationalMatrix.identity(3)


@st.composite
def low_rank_matrices(draw, square=False):
    """(rows, width): 1..6 rows of width 1..7 (n x n when ``square``), each a
    rational combination of the same ``rank`` rational rows, so the rank is at
    most ``rank`` and most matrices are rank-deficient."""
    width = draw(st.integers(1, 7 if not square else 5))
    n = width if square else draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(n, width)))
    entries = st.sampled_from(RATIONAL_VALUES)
    gens = draw(st.lists(st.lists(entries, min_size=width, max_size=width), min_size=rank, max_size=rank))
    coeffs = draw(st.lists(st.lists(entries, min_size=rank, max_size=rank), min_size=n, max_size=n))
    rows = [[core.as_coord(Fraction(sum(c * g[j] for c, g in zip(cs, gens)))) for j in range(width)] for cs in coeffs]
    return rows, width


def typed_rows(rows):
    return [[(type(x), x) for x in row] for row in rows]


class TestElimination:
    """The fraction-free elimination against Gauss-Jordan in ``Fraction``
    arithmetic (``naive_rref``), on rank-deficient rational matrices."""

    @given(low_rank_matrices())
    def test_rref_matches_fraction_elimination(self, matrix):
        rows, width = matrix
        red, pivots = core.rref(rows, width)
        want_red, want_pivots = naive_rref(rows, width)
        assert pivots == want_pivots
        assert typed_rows(red) == typed_rows(want_red)

    @given(low_rank_matrices())
    def test_kernel_basis_is_killed_by_rows(self, matrix):
        rows, width = matrix
        rank = len(naive_rref(rows, width)[1])
        basis = core.kernel_basis(rows, width)
        assert len(basis) == width - rank
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for v in basis for row in rows)
        assert len(naive_rref(basis, width)[1]) == len(basis)

    @given(low_rank_matrices(square=True))
    def test_inverse_round_trips(self, matrix):
        rows, _ = matrix
        M = RationalMatrix(rows)
        if M.det() == 0:
            with pytest.raises(SingularMatrixError):
                M.inverse()
        else:
            assert (M @ M.inverse()).is_identity() and (M.inverse() @ M).is_identity()
            assert M.inverse().inverse() == M

    @given(low_rank_matrices())
    def test_pivot_entries_equal_the_last_pivot(self, matrix):
        rows, width = matrix
        mat = [core._integer_row(r)[1] for r in rows]
        pivots, last = core._eliminate(mat, width)
        assert pivots == naive_rref(rows, width)[1]
        rank = len(pivots)
        # the last pivot up to the sign of the row swaps
        p = mat[0][pivots[0]] if pivots else 1
        assert last in (p, -p)
        for i, row in enumerate(mat[:rank]):
            assert [row[c] for c in pivots] == [p if j == i else 0 for j in range(rank)]
        assert all(x == 0 for row in mat[rank:] for x in row)


class TestSubspace:
    def test_span_membership(self):
        U = Subspace.span([(1, 0)], 2)
        assert U.contains_vector((2, 0))
        assert not U.contains_vector((0, 1))

    def test_zero_subspace(self):
        U = Subspace.zero(2)
        assert U.dim == 0
        assert U.contains_vector((0, 0))

    def test_annihilator_of_line(self):
        U = Subspace.span([(1, 0)], 2)
        W = U.annihilator()
        assert W.dim == 1 and W.contains_vector((0, 1))

    def test_reduce_canonical_coset_keys(self):
        U = Subspace.span([(1, 0)], 2)
        assert U.reduce((5, 3)) == U.reduce((-2, 3))
        assert U.reduce((5, 3)) != U.reduce((5, 4))


@st.composite
def lattice_sets(draw):
    """Integral sets in Z^1..Z^5 whose differences span at most ``rank``
    generators, some repeated or doubled, with coordinates up to 2^70."""
    dim = draw(st.integers(1, 5))
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    gens = draw(st.lists(vec, max_size=dim))
    if gens and draw(st.booleans()):
        gens.append(tuple(2 * x for x in draw(st.sampled_from(gens))))
    scale = draw(st.sampled_from([1, 1, 2**64 + 13, 3**44]))
    base = draw(st.tuples(*[st.integers(-(2**70), 2**70)] * dim))
    coeffs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * len(gens)), min_size=1, max_size=10))
    return PointSet(dim, [
        tuple(b + scale * sum(c * g[i] for c, g in zip(cs, gens)) for i, b in enumerate(base))
        for cs in coeffs
    ])


def rref_rank(A):
    """Affine dimension by the Fraction rref of the differences to one point."""
    anchor, *rest = A.points
    rows = [[Fraction(x - y) for x, y in zip(p, anchor)] for p in rest]
    return len(naive_rref(rows, A.dim)[1]) if rows else 0


@st.composite
def affine_subspace_sets(draw):
    """Sets in Q^1..Q^5 inside an affine subspace of every dimension 0..d: a
    base point plus integer combinations of ``rank`` directions, one of them
    sometimes a combination of the others.  Coordinates are integral,
    rational, or a mix of both."""
    dim = draw(st.integers(1, 5))
    rank = draw(st.integers(0, dim))
    integral = st.integers(-4, 4)
    rational = st.builds(Fraction, st.integers(-20, 20), st.integers(2, 7))
    coord = draw(st.sampled_from([integral, rational, integral | rational]))
    vec = st.tuples(*[coord] * dim)
    base = draw(vec)
    dirs = draw(st.lists(vec, min_size=rank, max_size=rank))
    if len(dirs) >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        dirs[-1] = tuple(a * x + b * y for x, y in zip(dirs[0], dirs[1]))
    coeffs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * rank), min_size=1, max_size=12))
    return rank, PointSet(dim, [
        tuple(b + sum(c * v[i] for c, v in zip(cs, dirs)) for i, b in enumerate(base))
        for cs in coeffs
    ])


class CountedPoints(frozenset):
    """A frozenset of points that counts the points its iterators yield."""

    def __init__(self, points):
        self.taken = 0

    def __iter__(self):
        for p in super().__iter__():
            self.taken += 1
            yield p


class TestAffineDimension:
    def test_singleton(self):
        assert affine_dimension(PointSet(3, [(1, 2, 3)])) == 0

    def test_collinear(self):
        assert affine_dimension(PointSet(2, [(0, 0), (1, 0), (2, 0)])) == 1

    @pytest.mark.parametrize("d,N", [(1, 3), (2, 4), (3, 5), (4, 8)])
    def test_long_simplex_is_full_dimensional(self, d, N):
        assert affine_dimension(long_simplex(d, N)) == d

    @given(lattice_sets())
    def test_integral_matches_rref(self, A):
        with fractions_built() as built:
            got = affine_dimension(A)
        assert got == rref_rank(A)
        assert built == [0]

    @given(lattice_sets(), st.integers(2, 12))
    def test_rational_set_matches_rref(self, A, q):
        # A / q is scaled back to integral points, and no Fraction is built
        shrunk = PointSet(A.dim, [tuple(Fraction(c, q) for c in p) for p in A.points])
        with fractions_built() as built:
            got = affine_dimension(shrunk)
        assert got == rref_rank(shrunk) == affine_dimension(A)
        assert built == [0]

    @pytest.mark.parametrize(
        "points, dim",
        [
            ([(2**64 + 1, 0, 0), (0, 2**64 + 1, 0), (0, 0, 2**64 + 1), (0, 0, 0)], 3),
            ([(2**80, 3 * 2**80), (2**81, 6 * 2**80), (-(2**79), -3 * 2**79)], 1),
            ([(1, 2, 3, 4, 5)], 0),
            ([(0, 0, 0, 0, 0), (1, 1, 0, 0, 0), (2, 2, 0, 0, 0), (0, 0, 1, 0, 1), (1, 1, 1, 0, 1)], 2),
        ],
    )
    def test_fixed_integral_cases(self, points, dim):
        assert affine_dimension(PointSet(len(points[0]), points)) == dim

    @given(affine_subspace_sets())
    def test_matches_rref_in_affine_subspaces(self, case):
        rank, A = case
        with fractions_built() as built:
            got = affine_dimension(A)
        assert got == rref_rank(A) <= rank
        assert built == [0]

    def test_scan_stops_at_full_rank(self, monkeypatch):
        # 10,648 points of a cube: the rank reaches 3 within the first few
        # differences, and no elimination over all of them runs
        def no_elimination(*args):
            raise AssertionError("affine_dimension ran a full elimination")

        monkeypatch.setattr(core, "_eliminate", no_elimination)
        points = CountedPoints(itertools.product(range(22), repeat=3))
        assert affine_dimension(PointSet._raw(3, 1, points)) == 3
        assert 4 <= points.taken <= 10

    def test_deficient_set_is_scanned_to_the_end(self):
        points = CountedPoints((i, 2 * i, j, 0) for i in range(30) for j in range(30))
        assert affine_dimension(PointSet._raw(4, 1, points)) == 2
        assert points.taken == 900


class TestEchelonExtend:
    """``_echelon_extend`` keeps primitive integer rows in echelon order and
    stops at its rank cap."""

    @given(
        st.integers(1, 5).flatmap(
            lambda d: st.lists(st.lists(st.integers(-5, 5), min_size=d, max_size=d), max_size=8)
        ),
        st.integers(0, 5),
    )
    def test_rows_span_the_vectors_read(self, vectors, cap):
        width = len(vectors[0]) if vectors else 1
        rows, read = [], []

        def reading():
            for v in vectors:
                read.append(v)
                yield list(v)

        kept = list(core._echelon_extend(rows, reading(), cap))
        assert kept == [row for _, row in rows]
        assert len(rows) == min(cap, len(naive_rref(vectors, width)[1]))
        assert naive_rref(read, width)[0] == naive_rref(kept, width)[0]
        # reading stops right after the vector that brought the rank to the cap
        if len(read) < len(vectors):
            assert len(rows) == cap
            assert not read or len(naive_rref(read[:-1], width)[1]) == cap - 1
        for i, (pivot, row) in enumerate(rows):
            assert math.gcd(*row) == 1 and row[pivot] and not any(row[:pivot])
            assert all(row[c] == 0 for c, _ in rows[:i])


class TestProject:
    A = PointSet(2, [(0, 0), (0, 3), (1, 7)])

    def test_full_index_set_is_identity(self):
        assert project(self.A, None, [1, 2]) == self.A

    def test_empty_index_set_is_origin(self):
        assert project(self.A, None, []) == PointSet(2, [(0, 0)])

    def test_first_coordinate(self):
        assert len(project(self.A, None, [1])) == 2

    def test_out_of_range_coordinate_rejected(self):
        with pytest.raises(ValueError):
            project(self.A, None, [3])

    def test_nonstandard_basis(self):
        # b_1 = (1,1), b_2 = (0,1): (2,2) = 2 b_1, (0,1) = b_2.
        B = Basis([(1, 1), (0, 1)])
        assert project(PointSet(2, [(2, 2)]), B, [1]) == PointSet(2, [(2, 2)])
        assert project(PointSet(2, [(0, 1)]), B, [1]) == PointSet(2, [(0, 0)])

    @given(point_sets(3), st.data())
    def test_monotone_in_index_set(self, A, data):
        J = sorted(data.draw(st.sets(st.integers(1, 3), min_size=1)))
        I = sorted(data.draw(st.sets(st.sampled_from(J))))
        assert len(project(A, None, I)) <= len(project(A, None, J))


    @given(
        st.integers(1, 4).flatmap(
            lambda d: point_sets(d, coords=MIXED_VALUES)
        )
    )
    def test_standard_basis_matches_matrix_path(self, A):
        d = A.dim
        typed = lambda S: {tuple((type(c), c) for c in p) for p in S.points}
        for r in range(d + 1):
            for I in itertools.combinations(range(1, d + 1), r):
                mask = RationalMatrix(
                    [[int(i == j and i + 1 in I) for j in range(d)] for i in range(d)]
                )
                assert typed(project(A, None, I)) == typed(linear_image(mask, A))

    @given(st.integers(1, 4).flatmap(lambda d: point_sets(d, coords=MIXED_VALUES)), st.data())
    def test_integral_flag(self, A, data):
        I = data.draw(st.sets(st.integers(1, A.dim)))
        with fractions_built() as built:
            got = project(A, None, I)
        # the projection is built in integers, before any read of its points
        assert built == [0]
        assert got.is_integral == all(type(c) is int for p in got for c in p)

    def test_rational_set_with_integral_projection(self):
        A = PointSet(2, [(Fraction(1, 2), 1), (Fraction(3, 2), 2)])
        assert not A.is_integral
        assert project(A, None, [2]).is_integral
        assert project(A, None, []).is_integral
        B = PointSet(1, [(Fraction(1, 2),)])
        assert B.is_integral is False
        assert project(B, None, []).is_integral

    def test_nonstandard_basis_values_pinned(self):
        A = PointSet(3, [(0, 0, 0), (1, 2, 3), (-2, 1, 0), (3, -1, 2), (1, 1, 1), (0, 2, -1)])
        B = Basis([(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        out = [
            (I, project(A, B, I).sorted_points())
            for r in range(4)
            for I in itertools.combinations((1, 2, 3), r)
        ]
        assert [len(points) for _, points in out] == [1, 4, 5, 5, 6, 6, 6, 6]
        assert out[1] == (
            (1,),
            [(Fraction(-1, 2), Fraction(-1, 2), 0), (0, 0, 0), (Fraction(1, 2), Fraction(1, 2), 0),
             (Fraction(3, 2), Fraction(3, 2), 0)],
        )
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == "cae84cac74a8f1b9ce173842a865e20e8302c6b65c86ddd01cb96cc46ec58bd9"


class TestMaxFiber:
    def test_zero_subspace(self):
        A = PointSet(2, [(0, 0), (1, 1), (2, 2)])
        assert max_fiber(A, Subspace.zero(2)) == 1

    def test_full_space(self):
        A = PointSet(2, [(0, 0), (1, 1), (2, 2)])
        assert max_fiber(A, Subspace.span([(1, 0), (0, 1)], 2)) == 3

    def test_horizontal_lines_in_grid(self):
        grid = PointSet(2, [(x, y) for x in range(-2, 3) for y in range(-2, 3)])
        assert max_fiber(grid, Subspace.span([(1, 0)], 2)) == 5

    @given(point_sets(2))
    def test_fiber_times_coset_count_covers(self, A):
        U = Subspace.span([(1, 1)], 2)
        cosets = {U.reduce(p) for p in A.points}
        assert max_fiber(A, U) * len(cosets) >= len(A)


class TestCoveringNumber:
    def test_grid_columns(self):
        grid = PointSet(2, [(x, y) for x in range(1, 4) for y in range(1, 3)])
        assert covering_number(grid, (0, 1)) == 3

    def test_singleton(self):
        assert covering_number(PointSet(2, [(5, 5)]), (1, 2)) == 1

    def test_collinear_along_direction(self):
        A = PointSet(2, [(0, 0), (1, 1), (2, 2)])
        assert covering_number(A, (1, 1)) == 1

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            covering_number(PointSet(2, [(0, 0)]), (0, 0))

    @given(st.data())
    def test_matches_line_grouping(self, data):
        # two points share a line parallel to v iff their difference is
        # parallel to v: group greedily, with no functional at all
        domain = data.draw(st.sampled_from([INT_VALUES, RATIONAL_VALUES, MIXED_VALUES]))
        A = data.draw(point_sets(2, coords=domain))
        v = data.draw(st.sampled_from([(a, b) for a in domain[:9] for b in domain[:9] if a or b]))
        representatives = []
        for p in A.points:
            if not any((p[0] - q[0]) * v[1] == (p[1] - q[1]) * v[0] for q in representatives):
                representatives.append(p)
        assert covering_number(A, v) == len(representatives)

    def test_non_planar_rejected(self):
        with pytest.raises(DimensionMismatchError):
            covering_number(PointSet(3, [(0, 0, 0)]), (1, 0, 0))
