"""Point sets, exact linear algebra, and sumset computations."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import naive_sumset, point_sets, set_families
from sumsetlab import (
    Basis,
    DimensionMismatchError,
    EmptySetError,
    LinearSystem,
    PointSet,
    RationalMatrix,
    SingularMatrixError,
    Subspace,
    affine_dimension,
    covering_number,
    iterated_sumset,
    linear_image,
    long_simplex,
    max_fiber,
    minkowski_sum,
    project,
    random_system,
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

    @given(set_families(max_size=6, coords=st.fractions(min_value=-4, max_value=4, max_denominator=3)))
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


class TestAffineDimension:
    def test_singleton(self):
        assert affine_dimension(PointSet(3, [(1, 2, 3)])) == 0

    def test_collinear(self):
        assert affine_dimension(PointSet(2, [(0, 0), (1, 0), (2, 0)])) == 1

    @pytest.mark.parametrize("d,N", [(1, 3), (2, 4), (3, 5), (4, 8)])
    def test_long_simplex_is_full_dimensional(self, d, N):
        assert affine_dimension(long_simplex(d, N)) == d


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

    def test_non_planar_rejected(self):
        with pytest.raises(DimensionMismatchError):
            covering_number(PointSet(3, [(0, 0, 0)]), (1, 0, 0))
