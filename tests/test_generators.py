"""Deterministic instance families and the seeded random generators."""

import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    PointSet,
    affine_dimension,
    cube,
    grid,
    interval_set,
    is_down_set,
    iterated_sumset,
    linear_image,
    long_simplex,
    long_simplex_summands,
    long_simplex_sumset_form,
    minkowski_sum,
    random_full_dim_set,
    random_set,
    random_system,
    rotation_system,
    shear_counterexample,
    shear_system,
    splitmix64_stream,
)
from sumsetlab.generators import _uniform_draws


class TestLongSimplex:
    def test_one_dimensional_is_interval(self):
        assert long_simplex(1, 5) == interval_set(0, 4)

    def test_planar_four_points(self):
        assert long_simplex(2, 4) == PointSet(2, [(0, 0), (0, 1), (1, 0), (2, 0)])

    def test_size_is_N(self):
        for d, N in [(1, 3), (2, 5), (3, 5), (4, 9)]:
            assert len(long_simplex(d, N)) == N

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            long_simplex(2, 2)

    @given(st.integers(1, 4), st.integers(0, 5))
    def test_down_set_and_full_dimensional(self, d, extra):
        N = d + 1 + extra
        A = long_simplex(d, N)
        assert is_down_set(A)
        assert affine_dimension(A) == d

    @given(st.integers(1, 3), st.integers(0, 4), st.integers(1, 4))
    @settings(max_examples=40)
    def test_growth_is_polynomial_of_low_degree(self, d, extra, k):
        # |kA| <= (d+1)^{k-1} |A| for the long simplex: sharply sub-Freiman.
        A = long_simplex(d, d + 1 + extra)
        assert len(iterated_sumset(A, k)) <= (d + 1) ** (k - 1) * len(A)


class TestLongSimplexForms:
    def test_summands_sum_to_sumset_form(self):
        # j e_1 and j e_1 + e_i for 1 <= j <= N - d and 2 <= i <= d
        for d, N in [(1, 4), (2, 5), (3, 6), (2, 7)]:
            points = []
            for j in range(1, N - d + 1):
                points.append((j,) + (0,) * (d - 1))
                points += [tuple(j if a == 0 else int(a == i) for a in range(d)) for i in range(1, d)]
            assert long_simplex_sumset_form(d, N) == PointSet(d, points)
            assert len(points) == d * (N - d)

    @pytest.mark.parametrize("make", [long_simplex, long_simplex_summands, long_simplex_sumset_form])
    def test_too_few_points_rejected_by_every_form(self, make):
        with pytest.raises(ValueError, match=r"need N >= d \+ 1"):
            make(3, 3)

    def test_summand_sizes(self):
        B, C = long_simplex_summands(2, 5)
        assert B == PointSet(2, [(0, 0), (0, 1)])
        assert C == PointSet(2, [(1, 0), (2, 0), (3, 0)])

    def test_forms_differ_as_sets(self):
        # The sumset form repeats the simplex shape but is not the union form.
        assert long_simplex_sumset_form(2, 5) != long_simplex(2, 5)

    @given(st.integers(2, 3), st.integers(0, 3), st.integers(1, 3))
    @settings(max_examples=30)
    def test_sumset_form_growth(self, d, extra, k):
        A = long_simplex_sumset_form(d, d + 2 + extra)
        assert len(iterated_sumset(A, k)) <= (d + 1) ** (k - 1) * len(A)


class TestCubeAndGrid:
    def test_cube_is_symmetric_box(self):
        assert cube(1, 1) == PointSet(1, [(-1,), (0,), (1,)])
        assert len(cube(2, 2)) == 25 and len(cube(3, 1)) == 27

    def test_grid_is_one_based_box(self):
        (G,) = grid([(2, 3)])
        assert G == PointSet(2, [(x, y) for x in (1, 2) for y in (1, 2, 3)])

    def test_grid_multiple_shapes(self):
        shapes = grid([(2, 2), (3, 1)])
        assert [len(G) for G in shapes] == [4, 3]

    def test_interval_set(self):
        assert interval_set(-1, 2) == PointSet(1, [(-1,), (0,), (1,), (2,)])
        with pytest.raises(ValueError):
            interval_set(2, 1)


class TestRotationSystem:
    def test_planar_maps(self):
        maps = rotation_system(2).maps
        assert maps[0].rows == ((1, 0), (0, 1))
        assert maps[1].rows == ((0, -1), (1, 0))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_special_orthogonal_shape(self, d):
        system = rotation_system(d)
        assert all(M.det() == 1 for M in system.maps)
        assert all(M.is_integral() for M in system.maps)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_setwise_fixes_cube(self, d):
        C = cube(d, 2)
        for M in rotation_system(d).maps:
            assert linear_image(M, C) == C


class TestShearFamily:
    def test_system_maps(self):
        maps = shear_system().maps
        assert maps[0].rows == ((1, 1), (0, 1))
        assert maps[1].rows == ((1, 1), (-1, 1))

    def test_counterexample_diagonal(self):
        system, X = shear_counterexample(2)
        assert X == PointSet(2, [(2, 2), (3, 3), (4, 4)])
        progression = PointSet(2, [(0, 1), (0, 2)])
        diag = PointSet(2, [(1, 1), (2, 2)])
        assert linear_image(system.maps[0], progression) == diag
        assert linear_image(system.maps[1], progression) == diag

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_quadratic_blowup(self, N):
        # |X| = 2N - 1 but the weighted sumset of X squares it: no
        # Plunnecke-Ruzsa exponent can hold without the identity-map condition.
        system, X = shear_counterexample(N)
        assert len(X) == 2 * N - 1
        images = [linear_image(M, X) for M in system.maps]
        assert len(minkowski_sum(images)) == (2 * N - 1) ** 2


class TestSplitmix64:
    def test_reference_values(self):
        stream = splitmix64_stream(0)
        assert next(stream) == 0xE220A8397B1DCDAF

    def test_matches_inline_reference(self):
        def reference(seed, count):
            out = []
            state = seed & 0xFFFFFFFFFFFFFFFF
            for _ in range(count):
                state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
                z = state
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
                out.append(z ^ (z >> 31))
            return out

        stream = splitmix64_stream(12345)
        assert [next(stream) for _ in range(8)] == reference(12345, 8)

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=30)
    def test_streams_are_reproducible(self, seed):
        a = splitmix64_stream(seed)
        b = splitmix64_stream(seed)
        assert [next(a) for _ in range(4)] == [next(b) for _ in range(4)]


def _draw_below(stream, n):
    """One uniform draw from range(n), its rejection limit computed anew."""
    limit = (1 << 64) - (1 << 64) % n
    while True:
        word = next(stream)
        if word < limit:
            return word % n


class TestUniformDraws:
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 3**40, 2**63 + 1, 2**64 - 1, 2**64])
    def test_match_draws_one_at_a_time(self, n):
        # 2**63 + 1 rejects almost half of all words
        draws, words = _uniform_draws(splitmix64_stream(n), n), splitmix64_stream(n)
        assert [next(draws) for _ in range(64)] == [_draw_below(words, n) for _ in range(64)]

    def test_fresh_draws_share_a_stream(self):
        # a stream abandoned after one draw has read no word beyond it
        sizes = [5, 2**63 + 1, 7, 2**63 + 1, 1, 3] * 8
        shared, words = splitmix64_stream(9), splitmix64_stream(9)
        assert [next(_uniform_draws(shared, n)) for n in sizes] == [_draw_below(words, n) for n in sizes]

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError):
            next(_uniform_draws(splitmix64_stream(0), 0))

    @pytest.mark.parametrize("n", [2**64 + 1, 3 * 2**64, 200001**4])
    def test_bound_beyond_one_word_rejected(self, n):
        # every word would be rejected: the rejection limit is 0
        with pytest.raises(ValueError, match=r"the limit is 2\*\*64"):
            next(_uniform_draws(splitmix64_stream(0), n))

    def test_random_set_in_too_large_a_box_rejected(self):
        with pytest.raises(ValueError, match=r"2\*\*64"):
            random_set(4, 3, (-100000, 100000), 1)

    @pytest.mark.parametrize("d, box", [(65, (0, 1)), (10**8, (0, 4))], ids=["2^65", "5^(10^8)"])
    def test_random_set_in_a_box_of_huge_dimension_rejected(self, d, box):
        # refused at once, without the power side ** d of 10^8 digits
        with pytest.raises(ValueError, match=r"2\*\*64"):
            random_set(d, 3, box, 1)

    @pytest.mark.parametrize("d, box, name", [(4, (-100000, 100000), "1600032000240000800001"),
                                              (65, (0, 1), "2^65"), (10**8, (0, 4), "5^100000000")])
    def test_random_set_refusal_names_the_box(self, d, box, name):
        # the count of cells is exact: computed up to d = 64, and above it
        # named as side^d, not as the value of a smaller power
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^cannot draw uniformly from {re.escape(name)} values: "):
            random_set(d, 3, box, 1)
        assert time.perf_counter() - start < 0.1

    def test_random_set_in_a_box_of_2_to_the_64_cells(self):
        A = random_set(64, 3, (0, 1), 1)
        assert len(A) == 3 and A.dim == 64


class TestRandomGenerators:
    def test_random_set_frozen(self):
        A = random_set(2, 5, (-3, 3), 42)
        assert A == PointSet(2, [(-3, 2), (-1, 2), (1, 0), (2, 3), (3, -1)])

    @given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 8))
    @settings(max_examples=40)
    def test_random_set_contract(self, seed, d, size):
        A = random_set(d, size, (-4, 4), seed)
        assert len(A) == size and A.dim == d
        assert all(-4 <= c <= 4 for p in A.points for c in p)
        assert A == random_set(d, size, (-4, 4), seed)

    def test_box_too_small_rejected(self):
        with pytest.raises(ValueError):
            random_set(1, 10, (0, 3), 1)

    @given(st.integers(0, 2**32), st.integers(1, 3))
    @settings(max_examples=30)
    def test_random_full_dim_set(self, seed, d):
        A = random_full_dim_set(d, d + 3, (-5, 5), seed)
        assert affine_dimension(A) == d

    @given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_random_system_invertible(self, seed, d, k):
        system = random_system(d, k, 3, seed)
        assert system.k == k and system.dim == d
        for M in system.maps:
            assert M.det() != 0
            assert all(abs(c) <= 3 for row in M.rows for c in row)


GENERATED = {
    "long_simplex": lambda: [long_simplex(d, N) for d, N in [(1, 2), (2, 5), (4, 9)]],
    "long_simplex_summands": lambda: [*long_simplex_summands(1, 3), *long_simplex_summands(3, 7)],
    "long_simplex_sumset_form": lambda: [long_simplex_sumset_form(d, 6) for d in (1, 2, 3)],
    "cube": lambda: [cube(1, 0), cube(2, 3), cube(3, 1)],
    "grid": lambda: grid([(1, 1), (2, 3), (4, 2)]),
    "interval_set": lambda: [interval_set(-3, -3), interval_set(-2, 5)],
    "shear_counterexample": lambda: [shear_counterexample(N)[1] for N in (1, 4)],
    "random_set": lambda: [random_set(d, 6, (-4, 4), seed) for d in (1, 2, 3) for seed in (0, 7)]
    + [random_set(2, 3, (2**70, 2**70 + 2), 5)],
    "random_full_dim_set": lambda: [random_full_dim_set(d, d + 2, (-3, 3), 11) for d in (1, 2, 3)],
}


class TestGeneratedSets:
    """Generators build their sets with the trusted constructor: each one must
    equal the same points validated by ``PointSet``, hold ``int`` tuples only,
    and be stored with q = 1, its points the integral form itself."""

    @pytest.mark.parametrize("make", GENERATED.values(), ids=GENERATED.keys())
    def test_contract(self, make):
        for out in make():
            assert out == PointSet(out.dim, list(out.points))
            assert type(out.points) is frozenset
            assert all(type(p) is tuple and len(p) == out.dim for p in out.points)
            assert all(type(c) is int for p in out.points for c in p)
            assert out.q == 1 and out.scaled is out.points and out.is_integral is True

    def test_box_ends_become_int(self):
        # any integer type with __index__, numpy's included, gives int points
        class Int:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        A = random_set(2, 4, (Int(-1), Int(1)), 3)
        assert A == random_set(2, 4, (-1, 1), 3)
        assert all(type(c) is int for p in A.points for c in p)

    def test_non_integer_box_rejected(self):
        with pytest.raises(TypeError):
            random_set(1, 2, (0.0, 5.0), 1)
