"""Interval arithmetic, canonical serialization, and certificate semantics."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumsetlab import PointSet, check_discrete_bm, cube, det_main_term_probe, rotation_system
from sumsetlab.certificates import (
    DEFAULT_PRECISION_CAP,
    HOLDS,
    INDETERMINATE,
    VIOLATED,
    Interval,
    canonical_json,
    digest,
    exact_certificate,
    int_nth_root_interval,
    interval_certificate,
    precision_schedule,
)
from sumsetlab.serialization import pointset_to_dict

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
        cert = interval_certificate("demo", wobble, precision_cap=256)
        assert cert.verdict == INDETERMINATE and cert.precision_bits == 256

    def test_precision_schedule_doubles_to_cap(self):
        assert list(precision_schedule(512)) == [128, 256, 512]

    def test_default_cap(self):
        assert DEFAULT_PRECISION_CAP == 4096
        assert list(precision_schedule())[-1] == 4096
        wobble = lambda bits: (Interval(Fraction(0), Fraction(2)), Interval(Fraction(1), Fraction(3)))
        assert interval_certificate("demo", wobble).precision_bits == 4096

    @pytest.mark.parametrize("cap", [8, 127])
    def test_cap_below_128_rejected(self, cap):
        sides = lambda bits: (Interval.point(2), Interval.point(3))
        with pytest.raises(ValueError, match="at least 128"):
            interval_certificate("demo", sides, precision_cap=cap)
        with pytest.raises(ValueError, match="at least 128"):
            check_discrete_bm([PointSet(1, [(0,), (1,)])], precision_cap=cap)
        with pytest.raises(ValueError, match="at least 128"):
            det_main_term_probe(rotation_system(2), cube(2, 1), precision_cap=cap)
