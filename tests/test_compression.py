"""Compression operators, sum-monotonicity checks, and the reduction pipeline."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    INT_VALUES,
    MIXED_VALUES,
    RATIONAL_VALUES,
    naive_compress,
    naive_sumset,
    point_sets,
    set_families,
    typed,
    values,
)
from sumsetlab import (
    CompressionSpec,
    PointSet,
    ReductionError,
    check_projection_monotone,
    check_sum_monotone,
    compress,
    is_down_set,
    iterated_sumset,
    long_simplex,
    minkowski_sum,
    project,
    random_full_dim_set,
    random_set,
    reduce_to_simplex,
)
from sumsetlab import compression
from sumsetlab.core import vec_sub


def axis_spec(i, d):
    return CompressionSpec.axis(i, d)


_SMALL_PAIRS = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]


@st.composite
def _general_spec(draw):
    """A nonzero normal, then only directions transversal to it: no draw is
    rejected."""
    normal = draw(st.sampled_from([n for n in _SMALL_PAIRS if any(n)]))
    offset = draw(
        st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=3))
    )
    direction = draw(
        st.sampled_from([v for v in _SMALL_PAIRS if normal[0] * v[0] + normal[1] * v[1] != 0])
    )
    return CompressionSpec(normal=normal, offset=offset, direction=direction)


general_specs = _general_spec()

_SPEC_ENTRIES = values(-2, 2, max_denominator=2)


@st.composite
def compression_cases(draw):
    """An integral or rational set in dimension 1 to 3 and a spec whose normal
    and direction have entries in [-2, 2] with denominators 1 or 2 (so
    |<n, v>| > 1 is common) and whose offset has denominator at most 3."""
    dim = draw(st.integers(1, 3))
    A = draw(point_sets(dim, coords=draw(st.sampled_from([INT_VALUES, RATIONAL_VALUES]))))
    vectors = list(itertools.product(_SPEC_ENTRIES, repeat=dim))
    normal = draw(st.sampled_from([n for n in vectors if any(n)]))
    direction = draw(st.sampled_from([v for v in vectors if sum(a * b for a, b in zip(normal, v))]))
    offset = draw(st.sampled_from(values(-3, 3, max_denominator=3)))
    return A, CompressionSpec(normal=normal, offset=offset, direction=direction)


class TestCompress:
    def test_stacks_fibers_from_hyperplane(self):
        A = PointSet(2, [(0, 0), (0, 3), (1, 7)])
        assert compress(A, axis_spec(2, 2)) == PointSet(2, [(0, 0), (0, 1), (1, 0)])

    def test_down_sets_are_fixed(self):
        A = long_simplex(2, 4)
        for i in (1, 2):
            assert compress(A, axis_spec(i, 2)) == A

    def test_moves_points_not_down(self):
        A = PointSet(2, [(1, 1)])
        assert compress(A, axis_spec(2, 2)) == PointSet(2, [(1, 0)])

    def test_offset_shift_translates_image(self):
        A = PointSet(2, [(0, 0), (0, 3), (1, 7)])
        # offset moved by mu <n, v> = 2: every image point moves by 2v
        spec = axis_spec(2, 2)
        shifted = CompressionSpec(normal=(0, 1), offset=2, direction=(0, 1))
        moved = compress(A, shifted)
        expected = compress(A, spec).translate((0, 2))
        assert moved == expected

    def test_transversality_required(self):
        with pytest.raises(ValueError):
            CompressionSpec(normal=(0, 1), offset=0, direction=(1, 0))

    @pytest.mark.parametrize("offset", [0.5, 1.0, True, "1/2", None])
    def test_offset_must_be_int_or_fraction(self, offset):
        # the offset is validated like the normal and the direction
        with pytest.raises(TypeError):
            CompressionSpec(normal=(1, 0), offset=offset, direction=(1, 0))
        with pytest.raises(TypeError):
            CompressionSpec(normal=(1, 0), offset=0, direction=(offset, 1))

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            CompressionSpec(normal=(0, 0), offset=0, direction=(1, 0))

    def test_axis_index_round_trip(self):
        assert axis_spec(2, 3).axis_index() == 2
        assert CompressionSpec(normal=(1, 1), offset=0, direction=(1, 1)).axis_index() is None

    @given(point_sets(2), general_specs)
    def test_preserves_cardinality(self, A, spec):
        assert len(compress(A, spec)) == len(A)

    @given(point_sets(2), general_specs)
    def test_idempotent(self, A, spec):
        once = compress(A, spec)
        assert compress(once, spec) == once

    @given(point_sets(2, coords=values(-3, 3, max_denominator=2)))
    def test_rational_sets_supported(self, A):
        spec = CompressionSpec(normal=(1, 0), offset=Fraction(1, 2), direction=(1, 0))
        assert len(compress(A, spec)) == len(A)


class TestCompressOracle:
    """``compress`` against ``naive_compress``, the definition in
    ``Fraction`` arithmetic: the points, the type of every coordinate, and
    ``is_integral``."""

    @staticmethod
    def check(A, spec):
        got = compress(A, spec)
        want = naive_compress(A.points, spec.normal, spec.offset, spec.direction)
        assert typed(got.points) == typed(want)
        assert got.is_integral == all(type(c) is int for p in want for c in p)

    @given(compression_cases())
    def test_matches_naive(self, case):
        self.check(*case)

    @pytest.mark.parametrize(
        "points, spec",
        [
            # <n, v> = 2: an integral set with a rational image
            ([(1, 0), (3, 0), (3, 1)], CompressionSpec(normal=(2, 0), offset=1, direction=(1, 1))),
            # <n, v> = -3 and a rational normal, offset and direction
            ([(0, 0), (1, 2), (2, 4), (Fraction(1, 2), 0)],
             CompressionSpec(normal=(Fraction(3, 2), 0), offset=Fraction(1, 3), direction=(-2, Fraction(1, 2)))),
            # a rational set with an integral image
            ([(Fraction(1, 2), 0), (Fraction(1, 2), 5)], CompressionSpec(normal=(1, 0), offset=0, direction=(1, 0))),
        ],
    )
    def test_fixed_cases(self, points, spec):
        self.check(PointSet(2, points), spec)


class TestIsDownSet:
    def test_examples(self):
        assert is_down_set(long_simplex(2, 4))
        assert not is_down_set(PointSet(2, [(1, 1)]))
        assert is_down_set(PointSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)]))

    def test_non_integral_is_not_down(self):
        assert not is_down_set(PointSet(1, [(Fraction(1, 2),)]))
        assert not is_down_set(PointSet(1, [(-1,)]))


class TestSumMonotone:
    def test_pair_example(self):
        A = PointSet(2, [(0, 0), (0, 3), (1, 7)])
        cert = check_sum_monotone([A, A], axis_spec(2, 2))
        assert cert.holds()
        assert cert.lhs == 6 and cert.rhs == 6 and cert.slack == 0

    def test_statement_id(self):
        A = PointSet(1, [(0,), (2,)])
        cert = check_sum_monotone([A], axis_spec(1, 1))
        assert cert.to_dict()["statement_id"] == "sum_monotone"

    def test_violation_names_the_least_missing_point(self, monkeypatch):
        # compress is replaced so that the compressed sum misses points of
        # the sum of the compressed sets: the check must report them
        A = PointSet(1, [(0,), (Fraction(1, 3),), (Fraction(1, 2),)])
        target = PointSet(1, [(0,), (Fraction(2, 3),), (Fraction(5, 6),), (1,)])
        monkeypatch.setattr(compression, "compress", lambda X, spec: X if X == A else target)
        cert = check_sum_monotone([A, A], axis_spec(1, 1))
        assert cert.verdict == "Violated"
        assert cert.lhs == cert.rhs == 6 and cert.slack == 0
        # 1/3 and 1/2 are missing; canonical order puts 1/2 first
        assert cert.witnesses == {"point_outside_compressed_sumset": ["1/2"]}

    @given(st.lists(point_sets(2, max_size=5), min_size=1, max_size=3), general_specs)
    @settings(max_examples=60)
    def test_never_violated(self, sets, spec):
        cert = check_sum_monotone(sets, spec)
        assert cert.holds()
        assert cert.lhs == len(minkowski_sum([compress(A, spec) for A in sets]))


class TestProjectionMonotone:
    def test_untouched_coordinates_have_zero_slack(self):
        A = PointSet(2, [(0, 0), (0, 3), (1, 7)])
        cert = check_projection_monotone([A, A], axis=2, coords=[1])
        assert cert.holds() and cert.slack == 0

    def test_full_coordinate_list(self):
        A = PointSet(2, [(0, 0), (1, 2)])
        cert = check_projection_monotone([A], axis=1, coords=[1, 2])
        assert cert.holds()

    @given(st.lists(point_sets(3, max_size=4), min_size=1, max_size=2), st.data())
    @settings(max_examples=40)
    def test_never_violated(self, sets, data):
        axis = data.draw(st.integers(1, 3))
        coords = sorted(data.draw(st.sets(st.integers(1, 3), min_size=1, max_size=2)))
        cert = check_projection_monotone(sets, axis=axis, coords=coords)
        assert cert.holds()
        projected = [project(compress(A, axis_spec(axis, 3)), None, coords) for A in sets]
        assert cert.lhs == len(minkowski_sum(projected))

    @given(st.data())
    @settings(max_examples=80)
    def test_counts_match_projected_naive_sums(self, data):
        # both sides, counted from projected summands, against the enumerated
        # sums projected as a whole, for every subset of the coordinates
        domain = data.draw(st.sampled_from([INT_VALUES, RATIONAL_VALUES, MIXED_VALUES]))
        sets = data.draw(set_families(max_dim=3, max_k=3, max_size=5, coords=domain))
        d = sets[0].dim
        axis = data.draw(st.integers(1, d))
        spec = axis_spec(axis, d)
        compressed = [PointSet(d, naive_compress(A.points, spec.normal, spec.offset, spec.direction)) for A in sets]
        full = PointSet(d, naive_sumset(sets))
        squashed = PointSet(d, naive_sumset(compressed))
        for size in range(d + 1):
            for coords in itertools.combinations(range(1, d + 1), size):
                cert = check_projection_monotone(sets, axis, list(coords))
                assert cert.lhs == len(project(squashed, None, coords))
                assert cert.rhs == len(project(full, None, coords))

    def test_builds_no_sum(self, built_sums):
        sets = [random_set(3, n, (0, 4), seed) for n, seed in [(11, 1), (14, 2), (17, 3)]]
        check_projection_monotone(sets, 1, [1, 2])
        check_projection_monotone(sets[:1], 3, [])
        assert built_sums == []
        # the containment witness needs the points, so the spy sees this one
        check_sum_monotone(sets, axis_spec(1, 3))
        assert {"minkowski_sum", "_decode"} <= set(built_sums)


class TestReduceToSimplex:
    def test_long_simplex_is_already_reduced(self):
        A = long_simplex(2, 4)
        final, trace = reduce_to_simplex(A)
        assert final == A and trace.steps == ()

    def test_unit_square(self):
        A = PointSet(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        final, trace = reduce_to_simplex(A)
        assert final == long_simplex(2, 4)
        assert trace.replay() == final
        # The reduction never increases doubling.
        assert len(minkowski_sum([final, final])) <= len(minkowski_sum([A, A]))

    def test_seeded_random_set(self):
        A = random_set(2, 8, (-5, 5), seed=11)
        final, trace = reduce_to_simplex(A)
        assert final == long_simplex(2, 8)
        assert trace.replay() == final
        for k in range(1, 5):
            assert len(iterated_sumset(A, k)) >= len(iterated_sumset(final, k))

    def test_doubling_monotone_along_trace(self):
        A = random_set(2, 7, (-4, 4), seed=3)
        final, trace = reduce_to_simplex(A)
        doublings = [len(iterated_sumset(S, 2)) for S in trace.intermediates()]
        assert all(x >= y for x, y in zip(doublings, doublings[1:]))
        assert doublings[-1] == len(iterated_sumset(final, 2))

    def test_down_sets_read_from_axis_trials(self, monkeypatch):
        # the input of the golden reduce trace: each state's down-set test
        # reads the axis compressions it has tried, so the 6 moves take 17
        # compressions; a second pass of axis compressions made them 25
        calls = []

        def counted(A, spec):
            calls.append(spec)
            return compress(A, spec)

        monkeypatch.setattr(compression, "compress", counted)
        _, trace = reduce_to_simplex(random_full_dim_set(3, 6, (0, 6), 34))
        assert len(trace.steps) == 6 and len(calls) == 17

    @given(point_sets(3, max_size=7, coords=values(-1, 2, max_denominator=2)))
    @example(long_simplex(3, 5))
    @example(PointSet(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]))
    @example(PointSet(3, [(0, 0, 0), (0, 1, 0), (0, 0, 1)]))
    def test_shears_follow_down_sets(self, A):
        # after the axis compressions come the shears on a down set and the
        # pair alignments elsewhere, as is_down_set decides
        d = A.dim
        moves = list(compression._moves(A, d))
        assert [spec for spec, _ in moves[:d]] == [axis_spec(i, d) for i in range(1, d + 1)]
        assert all(image == compress(A, spec) for spec, image in moves)
        if is_down_set(A):
            w = max(p[0] for p in A.points)
            rest = [compression._shear_spec(j, w, d) for j in range(2, d + 1)]
        else:
            pairs = itertools.combinations(A.sorted_points(), 2)
            rest = [compression._alignment_spec(vec_sub(b, a), d) for a, b in pairs]
        assert [spec for spec, _ in moves[d:]] == rest

    def test_dimension_deficient_rejected(self):
        collinear = PointSet(2, [(0, 0), (1, 1), (2, 2)])
        with pytest.raises(ValueError):
            reduce_to_simplex(collinear)

    def test_step_budget_enforced(self):
        A = PointSet(2, [(0, 0), (2, 1), (1, 3), (3, 3)])
        with pytest.raises(ReductionError):
            reduce_to_simplex(A, max_steps=0)

    def test_negative_step_budget_rejected(self):
        # a usage error, not a failed reduction; 0 steps still fit the simplex
        with pytest.raises(ValueError, match="max_steps must be >= 0"):
            reduce_to_simplex(PointSet(2, [(0, 0), (2, 1), (1, 3), (3, 3)]), max_steps=-3)
        final, trace = reduce_to_simplex(long_simplex(2, 4), max_steps=0)
        assert final == long_simplex(2, 4) and trace.steps == ()

    def test_tampered_trace_fails_replay(self):
        A = PointSet(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        final, trace = reduce_to_simplex(A)
        forged = type(trace)(
            initial=trace.initial,
            steps=trace.steps,
            final=final.translate((1, 0)),
            translation=trace.translation,
        )
        with pytest.raises(ReductionError):
            forged.replay()

    def test_trace_serialization_keys(self):
        A = PointSet(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        _, trace = reduce_to_simplex(A)
        doc = trace.to_dict()
        assert set(doc) == {"initial", "translation", "steps", "final"}

    @given(point_sets(2, min_size=3, max_size=7, coords=values(-4, 4)))
    @settings(max_examples=40, deadline=None)
    def test_random_full_dim_sets_reach_long_simplex(self, A):
        from sumsetlab import affine_dimension

        if affine_dimension(A) < 2:
            with pytest.raises(ValueError):
                reduce_to_simplex(A)
            return
        final, trace = reduce_to_simplex(A)
        assert final == long_simplex(2, len(A))
        assert len(minkowski_sum([final, final])) <= len(minkowski_sum([A, A]))
