"""Interval arithmetic, canonical serialization, and certificate semantics."""

import hashlib
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    Basis,
    CompressionSpec,
    PointSet,
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
    check_projection_monotone,
    check_ruzsa_triangle,
    check_simplex_formula,
    check_sum_monotone,
    cube,
    det_main_term_probe,
    grid,
    interval_set,
    khovanskii_probe,
    long_simplex,
    main_term_probe,
    rotation_system,
)
from sumsetlab.certificates import (
    DEFAULT_PRECISION_CAP,
    HOLDS,
    INDETERMINATE,
    VIOLATED,
    Interval,
    canonical_json,
    digest,
    exact_certificate,
    int_nth_root,
    int_nth_root_interval,
    interval_certificate,
    precision_limit,
    precision_schedule,
)
from sumsetlab import bounds, certificates
from sumsetlab.serialization import pointset_to_dict
from sumsetlab.suites import compression_laws, planar_bound_grids

fractions_small = st.fractions(min_value=-50, max_value=50, max_denominator=20)


class TestInterval:
    def test_point(self):
        iv = Interval.point(3)
        assert iv.is_point and iv.lo == iv.hi == 3

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            Interval(Fraction(2), Fraction(1))

    def test_add_sub(self):
        a = Interval(Fraction(1), Fraction(2))
        b = Interval(Fraction(3), Fraction(4))
        assert (a + b) == Interval(Fraction(4), Fraction(6))
        assert (a - b) == Interval(Fraction(-3), Fraction(-1))

    def test_power(self):
        a = Interval(Fraction(1), Fraction(2))
        assert a.power(2) == Interval(Fraction(1), Fraction(4))
        assert a.power(0) == Interval.point(1)

    def test_le_is_three_valued(self):
        assert Interval(Fraction(1), Fraction(2)).le(Interval(Fraction(3), Fraction(4))) is True
        assert Interval(Fraction(3), Fraction(4)).le(Interval(Fraction(1), Fraction(2))) is False
        # Overlap: the comparison cannot be decided from the enclosures.
        assert Interval(Fraction(1), Fraction(3)).le(Interval(Fraction(2), Fraction(4))) is None

    def test_le_touching_endpoints_holds(self):
        assert Interval.point(2).le(Interval.point(2)) is True

    @given(fractions_small, fractions_small, fractions_small, fractions_small)
    def test_sum_encloses_pointwise_sums(self, a, b, c, d):
        x = Interval(min(a, b), max(a, b))
        y = Interval(min(c, d), max(c, d))
        s = x + y
        assert s.lo <= a + c <= s.hi and s.lo <= b + d <= s.hi


class TestNthRootEnclosure:
    def test_perfect_power_collapses_to_point(self):
        iv = int_nth_root_interval(8, 3, 128)
        assert iv.is_point and iv.lo == 2

    def test_sqrt2_enclosure(self):
        iv = int_nth_root_interval(2, 2, 128)
        assert iv.lo ** 2 <= 2 <= iv.hi ** 2
        assert not iv.is_point

    def test_width_shrinks_with_precision(self):
        w64 = int_nth_root_interval(2, 2, 64).width()
        w128 = int_nth_root_interval(2, 2, 128).width()
        assert w128 < w64

    @given(st.integers(1, 10_000), st.integers(1, 5))
    def test_enclosure_is_sound(self, n, d):
        iv = int_nth_root_interval(n, d, 96)
        assert iv.lo ** d <= n <= iv.hi ** d


class TestIntegerRoot:
    """``int_nth_root`` against the reference ``sympy.integer_nthroot``:
    (floor(n ** (1/d)), whether n is a perfect d-th power)."""

    @pytest.mark.parametrize("d", range(1, 13))
    def test_small_radicands(self, d):
        for n in range(2000):
            assert int_nth_root(n, d) == sympy.integer_nthroot(n, d)

    @given(st.integers(0, 2**2000), st.integers(1, 12))
    def test_matches_sympy(self, n, d):
        assert int_nth_root(n, d) == sympy.integer_nthroot(n, d)

    @pytest.mark.parametrize("d", range(1, 13))
    @given(data=st.data(), offset=st.sampled_from([-1, 0, 1]))
    @settings(max_examples=40)
    def test_perfect_powers_and_neighbours(self, d, data, offset):
        root = data.draw(st.integers(1, 2 ** (2000 // d)))
        n = root**d + offset
        assert int_nth_root(n, d) == sympy.integer_nthroot(n, d)

    @given(st.integers(1, 10**6), st.integers(1, 12), st.integers(1, 256))
    def test_interval_encloses_with_width(self, n, d, bits):
        iv = int_nth_root_interval(n, d, bits)
        assert iv.lo ** d <= n <= iv.hi ** d
        assert iv.width() <= Fraction(1, 2**bits)
        assert iv.is_point == sympy.integer_nthroot(n, d)[1]


class TestCanonicalJson:
    def test_sorted_compact(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'

    def test_digest_is_stable(self):
        doc = pointset_to_dict(PointSet(2, [(0, 0), (0, 3), (1, 7)]))
        assert canonical_json(doc) == '{"dim":2,"points":[["0","0"],["0","3"],["1","7"]]}'
        assert (
            digest(doc)
            == "cb6ebc1a2314bd4416358da0372ac2b087a04c366dcbc9c01afcd164d054ba44"
        )

    def test_pointset_digested_as_its_dict(self):
        A = PointSet(2, [(F(1, 2), -3), (0, 0), (2, F(-5, 4))])
        assert digest([A, {"k": 2}]) == digest([pointset_to_dict(A), {"k": 2}])

    def test_rational_inputs_digest_pinned(self):
        # recorded before point sets were encoded from their scaled integer
        # form; T has coordinates whose key order is not numeric order
        T = PointSet(3, [(0, 0, 0), (F(1, 2), 1, F(-2, 3)), (F(1, 2), 2, 0), (F(1, 2), F(5, 2), 0),
                         (2, F(1, 4), 1), (-1, F(3, 4), F(5, 6)), (-1, F(3, 4), F(1, 6))])
        assert check_elementary([_RATIONAL, cube(2, 1)]).inputs_digest == (
            "aae45e96a187cbe7d0e8b3f1de864d9dea0f1eb97bd0aa5b4dbf38f798abc572"
        )
        assert check_elementary([T, T]).inputs_digest == (
            "7409fc5db23cabc9d3050ddde9415fde15ab32b67f96f58be614b71a804ccfd5"
        )

    def test_digest_independent_of_key_order(self):
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})


class TestExactCertificate:
    def test_holds_with_slack(self):
        cert = exact_certificate("demo", 3, 5, params={"k": 2})
        assert cert.verdict == HOLDS and cert.holds() and cert.slack == 2

    def test_violated_orientation(self):
        cert = exact_certificate("demo", Fraction(7, 2), 3)
        assert cert.verdict == VIOLATED and not cert.holds()
        assert cert.slack == Fraction(-1, 2)

    def test_equality_has_zero_slack_and_holds(self):
        cert = exact_certificate("demo", 4, 4)
        assert cert.verdict == HOLDS and cert.slack == 0

    def test_to_dict_keys_and_string_values(self):
        cert = exact_certificate("demo", Fraction(7, 2), 3, params={"k": 2})
        doc = cert.to_dict()
        assert set(doc) == {"statement_id", "lhs", "rhs", "slack", "verdict", "params"}
        assert doc["lhs"] == "7/2" and doc["slack"] == "-1/2"
        assert doc["params"] == {"k": "2"}
        canonical_json(doc)  # every value JSON-serializable

    def test_witnesses_dropped_when_holding(self):
        cert = exact_certificate("demo", 1, 2, witnesses={"pair": (0, 1)})
        assert cert.witnesses is None

    def test_witnesses_kept_when_violated(self):
        cert = exact_certificate("demo", 2, 1, witnesses={"pair": (0, 1)})
        assert cert.witnesses == {"pair": (0, 1)}


class TestIntervalCertificate:
    def test_exact_sides_decide_at_first_precision(self):
        cert = interval_certificate(
            "demo", lambda bits: (Interval.point(2), Interval.point(3))
        )
        assert cert.verdict == HOLDS and cert.precision_bits == 128

    def test_violated_side(self):
        cert = interval_certificate(
            "demo", lambda bits: (Interval.point(3), Interval.point(2))
        )
        assert cert.verdict == VIOLATED and cert.slack == Interval.point(-1)

    def test_escalates_until_decided(self):
        # sqrt(2) vs 1.41421: undecidable at 128 bits only if the gap is
        # below the enclosure width; here the gap is ~1e-6 so 128 bits decide.
        target = Interval.point(Fraction(141421, 100000))
        cert = interval_certificate(
            "demo", lambda bits: (target, int_nth_root_interval(2, 2, bits))
        )
        assert cert.verdict == HOLDS and cert.precision_bits == 128

    def test_indeterminate_at_cap(self):
        # Overlapping enclosures at every precision: never decided.
        wobble = lambda bits: (
            Interval(Fraction(0), Fraction(2)),
            Interval(Fraction(1), Fraction(3)),
        )
        with precision_limit(256):
            cert = interval_certificate("demo", wobble)
        assert cert.verdict == INDETERMINATE and cert.precision_bits == 256

    def test_precision_schedule_doubles_to_cap(self):
        with precision_limit(512):
            assert list(precision_schedule()) == [128, 256, 512]
        with precision_limit(300):
            assert list(precision_schedule()) == [128, 256, 300]

    def test_default_cap(self):
        assert DEFAULT_PRECISION_CAP == 4096
        assert list(precision_schedule())[-1] == 4096
        wobble = lambda bits: (Interval(Fraction(0), Fraction(2)), Interval(Fraction(1), Fraction(3)))
        assert interval_certificate("demo", wobble).precision_bits == 4096

    @pytest.mark.parametrize("cap", [8, 127])
    def test_cap_below_128_rejected(self, cap):
        # The cap is refused on entry, so no check in the block runs.
        checks = [
            lambda: interval_certificate("demo", lambda bits: (Interval.point(2), Interval.point(3))),
            lambda: check_discrete_bm([PointSet(1, [(0,), (1,)])]),
            lambda: det_main_term_probe(rotation_system(2), cube(2, 1)),
        ]
        for check in checks:
            with pytest.raises(ValueError, match="at least 128"):
                with precision_limit(cap):
                    check()
                    pytest.fail("the block ran under a cap below 128")
        assert list(precision_schedule())[-1] == DEFAULT_PRECISION_CAP

    def test_nested_limits_restore_the_outer_cap(self):
        def cap():
            return list(precision_schedule())[-1]

        with precision_limit(1024):
            with precision_limit(256):
                assert cap() == 256
            assert cap() == 1024
            with pytest.raises(RuntimeError):
                with precision_limit(512):
                    assert cap() == 512
                    raise RuntimeError
            assert cap() == 1024
        assert cap() == DEFAULT_PRECISION_CAP

    def test_cap_below_128_rejected_before_any_sum(self, monkeypatch):
        built = []
        monkeypatch.setattr(bounds, "sumset_size", lambda sets: built.append(sets))
        monkeypatch.setattr(bounds, "project", lambda *args: built.append(args))
        sets = [PointSet(2, [(0, 0), (1, 0)]), PointSet(2, [(0, 0), (0, 1), (1, 1)])]
        with pytest.raises(ValueError, match="at least 128"):
            with precision_limit(127):
                check_discrete_bm(sets)
        assert built == []


F = Fraction
_RATIONAL = PointSet(2, [(0, 0), (F(1, 2), 0), (0, F(-3, 4)), (1, 1)])
_SPARSE = PointSet(2, [(0, 0), (1, 0), (0, 1), (3, 2), (-1, 4)])
_LINE = PointSet(1, [(0,), (1,), (F(5, 2),)])
_PAIR = PointSet(2, [(0, 0), (1, 0)])
_TRIPLE = PointSet(2, [(0, 0), (0, 1), (1, 1)])

# sha256 of canonical_json(cert.to_dict()), recorded before the number format
# and the digest recipe moved behind encode_coord and digest
PINNED_CERTIFICATES = {
    "elementary": (
        lambda: check_elementary([_RATIONAL, cube(2, 1)]),
        "dd4cfc8f47f930c56a58338889bcd4c76a73c82e2026ef254ac75051d5d8c8f1",
    ),
    "gs_kfold": (
        lambda: check_gs_kfold(grid([(2, 3), (3, 2), (2, 2)]), (1, -1)),
        "96ff6308475bde84ba504cea453346006c950710fac3b99c9979df644c60c254",
    ),
    "freiman_kfold": (
        lambda: check_freiman_kfold(_SPARSE, 3),
        "42b965d9fbc96c4f76e5ed79be1e9995ef5f25e98325480428c8842e0ea1a02b",
    ),
    "freiman_lemma": (
        lambda: check_freiman_lemma(_SPARSE),
        "e10b8f63ed160d9fb7c5be477b58ef63102f0f03e0a810cbc0997e0d86c62d29",
    ),
    "simplex_formula": (
        lambda: check_simplex_formula(2, 5, 3),
        "7c1012d22d4267ea4d0cc90dff254c49c53ee49732dd52a8c59b2ef3a7dcd6eb",
    ),
    "discrete_bm_exact": (
        lambda: check_discrete_bm([cube(2, 1), cube(2, 1)]),
        "97b45399c87cff42ea51d18deb6faebf4e9938b49acb555be5391872683c06ce",
    ),
    "discrete_bm_interval": (
        lambda: check_discrete_bm([_PAIR, _TRIPLE], Basis([(1, 1), (0, 1)])),
        "9a0730b7ccf4cab590c7e8de617590eff844f8a43294e92da39366c9ae7ab380",
    ),
    "ruzsa_triangle": (
        lambda: check_ruzsa_triangle(_LINE, interval_set(0, 2), _LINE.negate()),
        "5a0cf7af19b8538d0fba8dd8815b996650548502258dcb0571c688750334aec1",
    ),
    "plunnecke_ruzsa": (
        lambda: check_plunnecke_ruzsa(_LINE, interval_set(0, 2), 2, 1),
        "d2d40e7ee35c85f88953aa1f576f81ccf3ccd4a09507b666a2f1cf6154330bc3",
    ),
    "iterated_pr": (
        lambda: check_iterated_pr([_LINE, interval_set(-1, 1)]),
        "5835e663dc7a0521f546d4a20333855bb542713d7473f331108920f18c0b9f61",
    ),
    "linear_pr": (
        lambda: check_linear_pr(rotation_system(2), cube(2, 1)),
        "2a14204046c239f246959b4cd829f0a43c60d88dcab60e31c59aff917e8a66c8",
    ),
    "fiber_bound": (
        lambda: check_fiber_bound(rotation_system(2), cube(2, 1), Subspace.span([(2, 1)], 2)),
        "62a04e572933929e85d89445e146fbf8345dce48a76b2039bb89221414392255",
    ),
    "main_term": (
        lambda: main_term_probe(rotation_system(2), cube(2, 2)),
        "699ebeab9296acdb82c944f03d06bb3905708d357d8e7673a78e50455b4f9d0c",
    ),
    "sum_monotone_axis": (
        lambda: check_sum_monotone([_SPARSE, long_simplex(2, 4)], CompressionSpec.axis(1, 2)),
        "92ab7fd017e1f4f9d0a8b392b936d3c47362b5198da0f99b57e420fb87736b41",
    ),
    "sum_monotone_hyperplane": (
        lambda: check_sum_monotone(
            [_RATIONAL, _SPARSE],
            CompressionSpec(normal=(1, 1), offset=F(1, 2), direction=(0, 1)),
        ),
        "9234b379098420c9db2fa8e31a9fee1494e5c8adbb30e56b88274900290838fc",
    ),
    "projection_monotone": (
        lambda: check_projection_monotone([_SPARSE, _RATIONAL], 2, [1]),
        "ca4b6a6ea6f1ef25b807073b0bd1258daaa48a6a0c488bf71fe73bcd0b3a1038",
    ),
}


class TestDigestWhenRead:
    """Checks hand their inputs to the certificate; the digest is computed
    when ``inputs_digest`` is first read, once, from the inputs as they were
    at construction."""

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        original = getattr(certificates, name)

        def recorded(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(certificates, name, recorded)
        return calls

    @pytest.mark.parametrize(
        "suite", [lambda: compression_laws(samples=20), lambda: planar_bound_grids(2, 2, samples=10)]
    )
    def test_suites_encode_nothing(self, monkeypatch, suite):
        calls = self.spy(monkeypatch, "_encode_value")
        assert suite().passed
        assert calls == []

    def test_digest_computed_once(self, monkeypatch):
        A = long_simplex(2, 5)
        cert = check_freiman_kfold(A, 3)
        calls = self.spy(monkeypatch, "digest")
        first, second = cert.to_dict(), cert.to_dict()
        assert len(calls) == 1
        assert first == second
        assert cert.inputs_digest == first["inputs_digest"] == digest([A, {"k": 3}])
        assert type(cert.inputs_digest) is str

    def test_inputs_taken_at_construction(self):
        sets = [_SPARSE, _RATIONAL]
        sum_cert = check_sum_monotone(sets, CompressionSpec.axis(1, 2))
        projection_cert = check_projection_monotone(sets, 2, [1])
        sum_cert.params["spec"]["axis"] = 2
        projection_cert.params["coords"].append(2)
        projection_cert.params["k"] = 5
        assert sum_cert.inputs_digest == digest([*sets, {"axis": 1}])
        assert projection_cert.inputs_digest == digest(
            [*sets, {"axis": 2, "coords": [1], "k": 2, "sizes": [len(_SPARSE), len(_RATIONAL)]}]
        )


class TestCertificateBytesPinned:
    @pytest.mark.parametrize("name", sorted(PINNED_CERTIFICATES))
    def test_certificate_bytes(self, name):
        build, expected = PINNED_CERTIFICATES[name]
        doc = canonical_json(build().to_dict())
        assert hashlib.sha256(doc.encode()).hexdigest() == expected

    def test_growth_report_with_fractional_reference(self):
        # the k-fold reference polynomial of a planar set has coefficients 1/2
        doc = khovanskii_probe(long_simplex(2, 5), 6).to_dict()
        assert any("/" in c for c in doc["reference"])
        assert hashlib.sha256(canonical_json(doc).encode()).hexdigest() == (
            "07c9c553c335cdf84e1bbf216e6ed0bd7e38d183822df86147ea166a36e6f563"
        )
