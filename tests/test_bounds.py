"""Cardinality inequalities, exact formulas, and growth probes.

Expected values in this module were frozen from brute-force enumeration
(naive sumsets over small instances) before the checkers were written.
"""

import hashlib
import math
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    INT_VALUES,
    MIXED_VALUES,
    RATIONAL_VALUES,
    naive_sumset,
    point_sets,
    set_families,
    values,
)
from sumsetlab import (
    Basis,
    DimensionMismatchError,
    affine_dimension,
    LinearSystem,
    PointSet,
    RationalMatrix,
    Subspace,
    check_discrete_bm,
    check_elementary,
    check_fiber_bound,
    check_freiman_kfold,
    check_freiman_lemma,
    check_gs_kfold,
    check_iterated_pr,
    check_linear_pr,
    check_plunnecke_ruzsa,
    check_ruzsa_triangle,
    check_simplex_formula,
    covering_number,
    cube,
    det_main_term_probe,
    fit_deficit_exponent,
    grid,
    interval_set,
    iterated_sumset,
    khovanskii_probe,
    long_simplex,
    main_term_probe,
    minkowski_sum,
    project,
    random_set,
    rotation_system,
    shear_system,
    simplex_cardinality,
)
from sumsetlab.bounds import _root_sum_power_exact
from sumsetlab.certificates import Interval, canonical_json

# per dimension: the standard basis, an integral shear, and a basis with
# rational entries
BM_BASES = {
    1: [None, Basis([(-1,)]), Basis([(Fraction(2, 3),)])],
    2: [
        None,
        Basis([(1, 1), (0, 1)]),
        Basis([(Fraction(1, 2), 1), (Fraction(-1, 3), Fraction(2, 5))]),
    ],
    3: [
        None,
        Basis([(1, 1, 0), (0, 1, 1), (0, 0, 1)]),
        Basis([(Fraction(1, 2), 0, 1), (0, Fraction(2, 3), 1), (1, 1, Fraction(-1, 4))]),
    ],
}


class TestElementary:
    def test_interval_pair_is_tight(self):
        A = interval_set(0, 2)
        B = interval_set(0, 1)
        cert = check_elementary([A, B])
        assert (cert.lhs, cert.rhs, cert.slack) == (4, 4, 0)
        assert cert.holds()

    @given(st.lists(point_sets(2, max_size=6), min_size=1, max_size=3))
    def test_never_violated(self, sets):
        cert = check_elementary(sets)
        assert cert.holds()
        assert cert.lhs == sum(len(A) for A in sets) - (len(sets) - 1)
        assert cert.rhs == len(minkowski_sum(sets))


class TestPlanarKfold:
    def test_three_grids_equality(self):
        G = grid([(2, 2)])[0]
        cert = check_gs_kfold([G, G, G], (1, 0))
        assert (cert.lhs, cert.rhs, cert.slack) == (16, 16, 0)
        assert cert.params["covering_numbers"] == [2, 2, 2]

    def test_needs_two_summands(self):
        with pytest.raises(ValueError):
            check_gs_kfold([cube(2, 1)], (1, 0))

    def test_planar_only(self):
        with pytest.raises(DimensionMismatchError):
            check_gs_kfold([cube(3, 1), cube(3, 1)], (1, 0, 0))

    @given(st.data())
    @settings(max_examples=80)
    def test_bound_matches_fraction_formula(self, data):
        domain = data.draw(st.sampled_from([INT_VALUES, RATIONAL_VALUES, MIXED_VALUES]))
        sets = data.draw(st.lists(point_sets(2, max_size=6, coords=domain), min_size=2, max_size=3))
        v = data.draw(st.sampled_from([(a, b) for a in domain[:9] for b in domain[:9] if a or b]))
        cert = check_gs_kfold(sets, v)
        k, rs = len(sets), [covering_number(A, v) for A in sets]
        expected = (sum(Fraction(len(A), r) for A, r in zip(sets, rs)) - (k - 1)) * (sum(rs) - (k - 1))
        assert cert.lhs == expected
        # an integral bound is an int, as canonical coordinates are
        assert type(cert.lhs) is (int if expected.denominator == 1 else Fraction)

    @given(
        st.lists(point_sets(2, max_size=5), min_size=2, max_size=3),
        st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]),
    )
    @settings(max_examples=60)
    def test_never_violated(self, sets, direction):
        assert check_gs_kfold(sets, direction).holds()


class TestFreimanKfold:
    def test_unit_square_doubling(self):
        A = PointSet(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        cert = check_freiman_kfold(A, 2)
        assert (cert.lhs, cert.rhs, cert.slack) == (9, 9, 0)

    def test_one_dimensional_equality(self):
        cert = check_freiman_kfold(interval_set(0, 4), 3)
        # k(N - 1) + 1 = 13 on an arithmetic progression, and the bound is tight.
        assert (cert.lhs, cert.rhs, cert.slack) == (13, 13, 0)

    def test_lemma_agrees_at_k2(self):
        A = long_simplex(2, 6)
        assert check_freiman_kfold(A, 2).rhs == check_freiman_lemma(A).rhs

    def test_degenerate_set_rejected(self):
        with pytest.raises(ValueError):
            check_freiman_kfold(PointSet(2, [(0, -1), (0, 0), (0, 1)]), 2)

    @given(point_sets(2, min_size=3), st.integers(2, 4))
    @settings(max_examples=50)
    def test_never_violated(self, A, k):
        if affine_dimension(A) < A.dim:
            with pytest.raises(ValueError):
                check_freiman_kfold(A, k)
            return
        cert = check_freiman_kfold(A, k)
        assert cert.holds()
        assert cert.rhs == len(iterated_sumset(A, k))


class TestFreimanLemma:
    def test_planar_simplex_is_tight(self):
        cert = check_freiman_lemma(long_simplex(2, 5))
        assert (cert.lhs, cert.rhs, cert.slack) == (12, 12, 0)

    def test_three_dimensional_simplex_is_tight(self):
        cert = check_freiman_lemma(long_simplex(3, 4))
        assert (cert.lhs, cert.rhs, cert.slack) == (10, 10, 0)

    def test_minimal_simplex_value(self):
        # The (d+1)-point simplex doubles to exactly (d+1)(d+2)/2 points.
        for d in (1, 2, 3):
            cert = check_freiman_lemma(long_simplex(d, d + 1))
            assert cert.lhs == cert.rhs == (d + 1) * (d + 2) // 2

    @given(point_sets(3, min_size=4, max_size=8))
    @settings(max_examples=50)
    def test_never_violated(self, A):
        if affine_dimension(A) < A.dim:
            with pytest.raises(ValueError):
                check_freiman_lemma(A)
            return
        assert check_freiman_lemma(A).holds()


class TestSimplexFormula:
    @pytest.mark.parametrize(
        "d,N,k,expected",
        [(1, 6, 4, 21), (2, 4, 2, 9), (3, 6, 3, 40), (4, 5, 6, 210)],
    )
    def test_frozen_values(self, d, N, k, expected):
        cert = check_simplex_formula(d, N, k)
        assert cert.lhs == cert.rhs == expected and cert.slack == 0
        assert simplex_cardinality(d, N, k) == expected

    def test_one_dimensional_closed_form(self):
        for N in range(2, 8):
            for k in range(1, 5):
                assert simplex_cardinality(1, N, k) == k * (N - 1) + 1

    def test_recurrence(self):
        # |k A_{d,N}| = 1 + sum_{i<=k} |i A_{d-1,N-1}|
        for d in (2, 3):
            for N in range(d + 1, d + 4):
                for k in range(1, 4):
                    lhs = simplex_cardinality(d, N, k)
                    rhs = 1 + sum(simplex_cardinality(d - 1, N - 1, i) for i in range(1, k + 1))
                    assert lhs == rhs

    def test_small_simplex_rejected(self):
        with pytest.raises(ValueError):
            check_simplex_formula(2, 2, 1)

    @given(st.integers(1, 3), st.integers(0, 6), st.integers(1, 4))
    @settings(max_examples=40)
    def test_matches_enumeration(self, d, extra, k):
        N = d + 1 + extra
        assert simplex_cardinality(d, N, k) == len(iterated_sumset(long_simplex(d, N), k))


class TestDiscreteBrunnMinkowski:
    def test_equal_squares_exact_equality(self):
        G = grid([(3, 3)])[0]
        cert = check_discrete_bm([G, G])
        assert (cert.lhs, cert.rhs, cert.slack) == (25, 25, 0)
        assert cert.precision_bits is None  # equal sizes: no radicals needed

    def test_mixed_grids_common_radical(self):
        # |A| = |B| = 6, d = 2: root sum 2*sqrt(6) squares to the integer 24,
        # so the certificate stays on the exact path.
        cert = check_discrete_bm([grid([(2, 3)])[0], grid([(3, 2)])[0]])
        assert (cert.lhs, cert.rhs) == (15, 16)
        assert cert.precision_bits is None and cert.holds()

    def test_incommensurable_sizes_use_intervals(self):
        # sqrt(2) + sqrt(3) has no common radical, so the root-power term
        # needs certified enclosures.
        A = PointSet(2, [(0, 0), (1, 0)])
        B = PointSet(2, [(0, 0), (0, 1), (1, 1)])
        cert = check_discrete_bm([A, B])
        assert cert.holds() and cert.precision_bits is not None

    @given(st.lists(point_sets(2, max_size=6), min_size=2, max_size=3))
    @settings(max_examples=40)
    def test_never_violated(self, sets):
        assert check_discrete_bm(sets).verdict in ("Holds", "Indeterminate")

    @given(st.data())
    @settings(max_examples=120)
    def test_counts_match_projected_naive_sum(self, data):
        # the sizes the check counts from projected summands, against the
        # enumerated sum projected as a whole
        domain = data.draw(st.sampled_from([INT_VALUES, RATIONAL_VALUES, MIXED_VALUES]))
        sets = data.draw(set_families(max_dim=3, max_k=3, max_size=5, coords=domain))
        d, k = sets[0].dim, len(sets)
        basis = data.draw(st.sampled_from(BM_BASES[d]))
        total = PointSet(d, naive_sumset(sets))
        correction = sum(
            (k - 1) ** (d - size) * len(project(total, basis, I))
            for size in range(d)
            for I in combinations(range(1, d + 1), size)
        )
        cert = check_discrete_bm(sets, basis)
        assert cert.params["correction"] == correction
        assert cert.rhs == (len(total) if cert.precision_bits is None else Interval.point(len(total)))

    def test_builds_no_sum(self, built_sums):
        A, B, C = (random_set(3, n, (0, 4), seed) for n, seed in [(11, 1), (14, 2), (17, 3)])
        check_discrete_bm([A, B, C])
        check_discrete_bm([A, B], BM_BASES[3][2])
        check_discrete_bm([C])
        assert built_sums == []


def factorint_root_sum_power(values, d):
    """(sum x^{1/d})^d when it is rational, else None, read from sympy's
    prime factorization: the reference for ``_root_sum_power_exact``.  Each
    x = a/b > 0 has x^{1/d} = (c/b) m^{1/d} with a b^{d-1} = c^d m and m free
    of d-th powers; the power is rational iff one m remains."""
    radicals = {}
    for x in map(Fraction, values):
        if x == 0:
            continue
        c, m = 1, 1
        for p, e in sympy.factorint(x.numerator * x.denominator ** (d - 1)).items():
            c *= p ** (e // d)
            m *= p ** (e % d)
        radicals[m] = radicals.get(m, 0) + Fraction(c, x.denominator)
    if not radicals:
        return 0
    if len(radicals) > 1:
        return None
    (m, total), = radicals.items()
    return total ** d * m


class TestExtractDthPower:
    """``_root_sum_power_exact`` decides whether (sum x^{1/d})^d is rational
    by extracting d-th roots of the ratios x / x_1, against sympy."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_small_sizes(self, d):
        for n in range(1, 3000):
            for other in (1, 12, 4 * n, 2**d * n):
                assert _root_sum_power_exact([n, other], d) == factorint_root_sum_power([n, other], d)

    @given(st.lists(st.integers(0, 10**5) | st.fractions(0, 1000, max_denominator=30), min_size=1, max_size=4),
           st.integers(1, 6))
    @settings(max_examples=300)
    def test_matches_factorint(self, values, d):
        assert _root_sum_power_exact(values, d) == factorint_root_sum_power(values, d)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 30)), min_size=1, max_size=4),
           st.sampled_from([1, 2, 3, 6, 12]), st.integers(1, 6))
    @settings(max_examples=200)
    def test_powers_times_small_factors(self, pairs, m, d):
        # every x = (c/b)^d m shares the radical m^{1/d}, so the power is
        # rational: (sum c/b)^d m
        values = [Fraction(c, b) ** d * m for c, b in pairs]
        expected = sum(Fraction(c, b) for c, b in pairs) ** d * m
        assert _root_sum_power_exact(values, d) == factorint_root_sum_power(values, d) == expected

    @pytest.mark.parametrize("d", range(1, 7))
    def test_trial_division_steps_at_most_sqrt(self, d):
        # no trial division is left: the roots are integer Newton steps, so
        # a 127-bit prime, which division up to its square root could not
        # finish, is decided at once
        p = 2**127 - 1
        assert _root_sum_power_exact([p, 2**d * p], d) == 3**d * p
        assert _root_sum_power_exact([p, 2 * p], d) == (3 * p if d == 1 else None)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _root_sum_power_exact([2, -1], 2)
        assert _root_sum_power_exact([0, 0], 3) == 0


class TestRuzsaTriangle:
    def test_interval_triple(self):
        I = interval_set(0, 1)
        cert = check_ruzsa_triangle(I, I, I)
        assert (cert.lhs, cert.rhs, cert.slack) == (6, 9, 3)

    @given(point_sets(1, max_size=6), point_sets(1, max_size=6), point_sets(1, max_size=6))
    @settings(max_examples=50)
    def test_never_violated(self, U, V, W):
        assert check_ruzsa_triangle(U, V, W).holds()


class TestPlunneckeRuzsa:
    def test_interval_example(self):
        A = interval_set(0, 9)
        cert = check_plunnecke_ruzsa(A, A, 2, 1)
        assert cert.lhs == 28
        assert cert.rhs == Fraction(6859, 100)
        assert cert.params["K"] == Fraction(19, 10)

    def test_m_n_zero_is_trivial(self):
        # 0A - 0A = {0} whatever A is: |{0}| = 1 and K^0 |B| = |B|
        for A, B in [
            (interval_set(0, 4), interval_set(0, 4)),
            (PointSet(2, [(Fraction(1, 2), 0), (1, Fraction(2, 3))]), PointSet(2, [(0, 0), (1, 1), (2, 5)])),
        ]:
            cert = check_plunnecke_ruzsa(A, B, 0, 0)
            assert (cert.lhs, cert.rhs, cert.slack) == (1, len(B), len(B) - 1)
            assert type(cert.lhs) is int and cert.holds()

    @pytest.mark.parametrize("m, n", [(0, 2), (2, 0), (1, 1), (2, 1)])
    def test_counts_m_copies_minus_n_copies(self, m, n):
        A = PointSet(2, [(0, 0), (1, 0), (0, 2), (3, 1)])
        minus = {tuple(-c for c in p) for p in A.points}
        points = {(0, 0)}
        for summand in [A.points] * m + [minus] * n:
            points = {tuple(x + y for x, y in zip(p, a)) for p in points for a in summand}
        assert check_plunnecke_ruzsa(A, A, m, n).lhs == len(points)

    def test_symmetric_set(self):
        # A = -A: A - A is 2A = {-2, ..., 2}, not A counted once
        A = PointSet(1, [(-1,), (0,), (1,)])
        assert check_plunnecke_ruzsa(A, A, 1, 1).lhs == 5

    def test_builds_no_sum(self, built_sums):
        A, B = random_set(2, 6, (0, 5), 1), random_set(2, 5, (0, 5), 2)
        for m, n in [(0, 0), (2, 0), (0, 2), (2, 1)]:
            check_plunnecke_ruzsa(A, B, m, n)
        assert built_sums == []

    @given(point_sets(1, max_size=8), point_sets(1, max_size=8), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=50)
    def test_never_violated(self, A, B, m, n):
        assert check_plunnecke_ruzsa(A, B, m, n).holds()


class TestIteratedPR:
    def test_interval_pair(self):
        A = interval_set(0, 9)
        cert = check_iterated_pr([A, A])
        assert cert.lhs == 37
        assert cert.rhs == Fraction(19**7, 10**6)
        assert cert.params == {"k": 2, "N": 10, "K": Fraction(19, 10)}

    def test_single_summand_rejected(self):
        with pytest.raises(ValueError):
            check_iterated_pr([interval_set(0, 3)])

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError):
            check_iterated_pr([interval_set(0, 3), interval_set(0, 4)])

    @given(st.integers(1, 6), st.integers(2, 4))
    @settings(max_examples=30)
    def test_progressions_never_violated(self, N, k):
        sets = [interval_set(0, N - 1)] * k
        assert check_iterated_pr(sets).holds()

    def test_builds_no_sum(self, built_sums):
        check_iterated_pr([random_set(2, 5, (0, 4), seed) for seed in (1, 2, 3)])
        check_iterated_pr([interval_set(0, 3)] * 2)
        assert built_sums == []


class TestLinearPR:
    def test_single_identity_map_is_degenerate(self):
        system = LinearSystem([RationalMatrix.identity(1)])
        cert = check_linear_pr(system, interval_set(0, 5))
        assert cert.lhs == cert.rhs == 6 and cert.params["K"] == 1

    def test_rotation_pair_holds(self):
        cert = check_linear_pr(rotation_system(2), cube(2, 2))
        assert cert.holds()
        assert cert.lhs == 289  # |X + L_2 X| for X the 17x17 diamond hull
        assert cert.params["K"] == Fraction(81, 25)

    def test_non_identity_leading_map_rejected(self):
        with pytest.raises(ValueError):
            check_linear_pr(shear_system(), cube(2, 1))
        with pytest.raises(ValueError):
            check_linear_pr(
                LinearSystem([RationalMatrix([[2]]), RationalMatrix([[1]])]),
                interval_set(0, 3),
            )


class TestFiberBound:
    def test_zero_subspace(self):
        cert = check_fiber_bound(rotation_system(2), cube(2, 1), Subspace.zero(2))
        assert (cert.lhs, cert.rhs, cert.slack) == (1, 1, 0)

    def test_rotation_on_cube(self):
        # max fiber over lines: (2N+1)^2 <= the full sumset (4N+1)^2 at N=1 is
        # 9 <= 25 for the horizontal line.
        cert = check_fiber_bound(rotation_system(2), cube(2, 1), Subspace.span([(1, 0)], 2))
        assert (cert.lhs, cert.rhs) == (9, 25)
        assert cert.holds()

    def test_proper_subspace_required(self):
        with pytest.raises(ValueError):
            check_fiber_bound(
                rotation_system(2), cube(2, 1), Subspace.span([(1, 0), (0, 1)], 2)
            )

    def test_reducible_system_rejected(self):
        with pytest.raises(ValueError):
            check_fiber_bound(shear_system(), cube(2, 1), Subspace.zero(2))


class TestMainTermProbe:
    def test_identity_system_meets_main_term(self):
        system = LinearSystem([RationalMatrix([[1]])])
        cert = main_term_probe(system, interval_set(0, 4))
        assert cert.holds()
        assert cert.params["deficit"] == 0 and cert.params["exponent"] is None

    def test_rotation_unit_cube_deficit(self):
        cert = main_term_probe(rotation_system(2), cube(2, 1))
        assert cert.verdict == "Indeterminate"  # finite size below the main term
        assert (cert.lhs, cert.rhs) == (36, 25)
        assert cert.params["deficit"] == 11

    def test_reducible_system_rejected(self):
        with pytest.raises(ValueError):
            main_term_probe(LinearSystem([RationalMatrix.identity(2)]), cube(2, 1))

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_rotation_deficit_grows_linearly(self, N):
        cert = main_term_probe(rotation_system(2), cube(2, N))
        assert cert.params["deficit"] == 8 * N + 3


class TestDetMainTermProbe:
    def test_dilate_pair_is_tight(self):
        system = LinearSystem([RationalMatrix([[1]]), RationalMatrix([[2]])])
        A = PointSet(1, [(0,), (1,), (10,)])
        cert = det_main_term_probe(system, A)
        assert cert.holds()
        assert cert.lhs.is_point and cert.lhs.lo == 9
        assert cert.slack.is_point and cert.slack.lo == 0

    def test_common_radical_is_exact(self):
        # |det| = 2 and 8: (sqrt 2 + sqrt 8)^2 = 18, so Lambda |A| = 18 * 18
        # equals |L_1(A) + L_2(A)| = 324, which no enclosure of the two roots
        # can decide; the exact power is a point interval, decided at once
        system = LinearSystem([RationalMatrix([[1, 0], [0, 2]]), RationalMatrix([[2, 0], [0, 4]])])
        A = PointSet(2, [(0, 3**i) for i in range(18)])
        cert = det_main_term_probe(system, A)
        assert cert.verdict == "Holds" and cert.rhs == 324
        assert cert.slack == Interval.point(0) and cert.precision_bits == 128

    def test_rotation_below_main_term_is_indeterminate(self):
        cert = det_main_term_probe(rotation_system(2), cube(2, 1))
        assert cert.verdict == "Indeterminate"
        # The comparison fails at the first precision, so escalation stops there.
        assert cert.precision_bits == 128

    @pytest.mark.parametrize(
        "system, A, expected",
        [
            (
                LinearSystem([RationalMatrix([[1]]), RationalMatrix([[2]])]),
                PointSet(1, [(0,), (1,), (10,)]),
                "0c10c1309c74ea4a",
            ),
            (rotation_system(2), cube(2, 1), "ef65e827cf10e5c2"),
            (rotation_system(2), cube(2, 4), "6d77c4ba02396068"),
            (shear_system(), cube(2, 2), "c562212dac97a9c7"),
        ],
    )
    def test_certificate_bytes_pinned(self, system, A, expected):
        doc = canonical_json(det_main_term_probe(system, A).to_dict())
        assert hashlib.sha256(doc.encode()).hexdigest()[:16] == expected


class TestKhovanskiiProbe:
    def test_planar_simplex_growth(self):
        rep = khovanskii_probe(long_simplex(2, 4), 6)
        assert rep.values == (4, 9, 16, 25, 36, 49)
        assert rep.polynomial == (1, 2, 1)
        assert rep.observed_threshold == 1 and rep.degree == 2
        assert rep.equals_reference and rep.dominates_reference

    def test_json_marks_threshold_uncertified(self):
        doc = khovanskii_probe(long_simplex(2, 4), 6).to_dict()
        assert doc["observed_threshold"] == 1 and doc["certified"] is False
        assert "threshold" not in doc

    def test_progression_growth(self):
        rep = khovanskii_probe(interval_set(0, 1), 4)
        assert rep.polynomial == (1, 1) and rep.values == (2, 3, 4, 5)

    def test_gapped_progression_beats_reference(self):
        # |k{0,1,3}| = 3k for every k >= 1 (3k - 1 is never a sum), so the
        # fitted polynomial dominates but does not equal the reference 2k + 1.
        rep = khovanskii_probe(PointSet(1, [(0,), (1,), (3,)]), 6)
        assert rep.values == (3, 6, 9, 12, 15, 18)
        assert rep.polynomial == (0, 3) and rep.observed_threshold == 1
        assert rep.reference == (1, 2)
        assert rep.dominates_reference and not rep.equals_reference

    def test_k_max_too_small_rejected(self):
        with pytest.raises(ValueError):
            khovanskii_probe(interval_set(0, 2), 1)

    @pytest.mark.parametrize("d, N, k_max", [(1, 3, 3), (2, 5, 4), (3, 6, 7), (4, 6, 6)])
    def test_reference_is_the_kfold_bound(self, d, N, k_max):
        # Q(k) = C(k+d-1, d)|A| - (k-1) C(k+d-1, d-1) at every k, not only at
        # the fit nodes
        rep = khovanskii_probe(long_simplex(d, N), k_max)
        for k in range(0, 12):
            expected = math.comb(k + d - 1, d) * N - (k - 1) * math.comb(k + d - 1, d - 1)
            assert sum(c * k**i for i, c in enumerate(rep.reference)) == expected
        assert len(rep.reference) == d + 1 and all(type(c) is Fraction for c in rep.reference)

    @given(point_sets(1, min_size=2, max_size=5, coords=values(0, 6)))
    @settings(max_examples=30)
    def test_fitted_polynomial_reproduces_values(self, A):
        rep = khovanskii_probe(A, 5)
        for k in range(rep.observed_threshold, 6):
            value = sum(c * k**i for i, c in enumerate(rep.polynomial))
            assert value == len(iterated_sumset(A, k))


class TestFitDeficitExponent:
    def test_exact_quadratic(self):
        assert fit_deficit_exponent([(2, 4), (3, 9), (5, 25), (8, 64)]) == pytest.approx(2.0)

    def test_single_size_rejected(self):
        with pytest.raises(ValueError):
            fit_deficit_exponent([(3, 5)])

    def test_zero_deficits_clamped(self):
        # Exact instances contribute log 1 = 0 rather than failing.
        assert fit_deficit_exponent([(2, 0), (4, 0)]) == pytest.approx(0.0)
