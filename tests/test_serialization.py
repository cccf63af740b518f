"""JSON encoding of coordinates, point sets, matrices, and specs."""

import json
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import INT_VALUES, MIXED_VALUES, RATIONAL_VALUES, TWELFTHS, point_sets, rational_coords
from sumsetlab import Basis, CompressionSpec, EmptySetError, LinearSystem, PointSet, RationalMatrix
from sumsetlab import serialization
from sumsetlab.core import _decode, as_coord, packed_sumset, point_sort_key
from sumsetlab.serialization import (
    basis_from_dict,
    basis_to_dict,
    decode_coord,
    dumps_canonical,
    dumps_packed,
    encode_coord,
    encode_point,
    encode_points,
    matrix_from_dict,
    matrix_from_rows,
    matrix_to_dict,
    matrix_to_rows,
    pointset_from_dict,
    pointset_to_dict,
    system_from_dict,
    system_to_dict,
)


class TestCoordCodec:
    def test_integers_stay_bare(self):
        assert encode_coord(5) == "5" and decode_coord("5") == 5

    def test_fractions_use_slash(self):
        assert encode_coord(Fraction(-3, 7)) == "-3/7"
        assert decode_coord("-3/7") == Fraction(-3, 7)

    def test_unreduced_fraction_canonicalized_to_int(self):
        v = decode_coord("4/2")
        assert v == 2 and isinstance(v, int)

    def test_bare_ints_accepted(self):
        assert decode_coord(7) == 7

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            decode_coord(1.5)

    def test_bools_rejected(self):
        with pytest.raises(ValueError):
            decode_coord(True)

    def test_decimal_strings_parse_exactly(self):
        assert decode_coord("1.5") == Fraction(3, 2)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            decode_coord("abc")

    @given(rational_coords)
    def test_round_trip(self, c):
        assert decode_coord(encode_coord(c)) == c


# the decimal exponent at the end of a string, as Fraction reads it
TRAILING_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")


def fraction_reference(raw):
    """What earlier versions decoded a string to: ``as_coord(Fraction(raw))``,
    or None where ``Fraction`` rejects it or, without calling it, where the
    decimal exponent exceeds ``MAX_EXPONENT`` in magnitude."""
    exponent = TRAILING_EXPONENT.search(raw)
    if exponent and abs(int(exponent[1].replace("_", ""))) > serialization.MAX_EXPONENT:
        return None
    try:
        return as_coord(Fraction(raw))
    except (ValueError, ZeroDivisionError):
        return None


class TestDecodeCoordStrings:
    """A string is tried with ``int`` before ``Fraction``; both paths together
    accept the strings ``Fraction`` accepts, with the same values, types and
    error messages, except a decimal exponent beyond ``MAX_EXPONENT``, which
    is refused before ``Fraction`` expands it."""

    @given(st.text(alphabet="0123456789+- _/.e", max_size=12))
    @example("1_0")
    @example(" -3/4 ")
    @example("-0/5")
    @example("1e4300")
    @example("501e65046295")
    def test_matches_fraction(self, raw):
        expected = fraction_reference(raw)
        if expected is None:
            with pytest.raises(ValueError) as err:
                decode_coord(raw)
            assert str(err.value) == f"bad coordinate {raw!r}"
        else:
            got = decode_coord(raw)
            assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("raw, value", [
        (" 5 ", 5),
        ("+5", 5),
        ("-0", 0),
        ("007", 7),
        pytest.param("1_000", 1000, marks=pytest.mark.skipif(
            sys.version_info < (3, 11), reason="Fraction takes underscores from Python 3.11")),
        ("\u0663", 3),  # ARABIC-INDIC DIGIT THREE
    ])
    def test_integer_strings(self, raw, value):
        got = decode_coord(raw)
        assert got == value == fraction_reference(raw) and type(got) is int

    @pytest.mark.parametrize("raw, value", [
        ("3/4", Fraction(3, 4)),
        ("6/8", Fraction(3, 4)),
        ("1.5", Fraction(3, 2)),
        ("1e3", 1000),
    ])
    def test_fraction_only_strings(self, raw, value):
        got = decode_coord(raw)
        assert got == value == fraction_reference(raw) and type(got) is type(value)

    @pytest.mark.parametrize("raw", [
        "",
        "abc",
        "1/0",
        "0x10",
        "-3/-4",
        pytest.param(" -3 / 4 ", marks=pytest.mark.skipif(
            sys.version_info >= (3, 12), reason="Fraction takes spaces around '/' from Python 3.12")),
        "nan",
        "1e4301",
        "2.5E-99999999",
        "74e26_085785",
        pytest.param("7" * 5000, marks=pytest.mark.skipif(
            not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer string digits")),
    ])
    def test_rejected_strings(self, raw):
        with pytest.raises(ValueError) as err:
            decode_coord(raw)
        assert str(err.value) == f"bad coordinate {raw!r}"

    def test_integer_strings_skip_the_fraction_parser(self, monkeypatch):
        def no_fraction(raw):
            raise AssertionError(f"Fraction parsed {raw!r}")

        monkeypatch.setattr(serialization, "Fraction", no_fraction)
        doc = {"dim": 3, "points": [["-5", " 7", "0"], ["12", "-40", "+3"]]}
        assert pointset_from_dict(doc) == PointSet(3, [(-5, 7, 0), (12, -40, 3)])

    def test_large_exponents_skip_the_fraction_parser(self, monkeypatch):
        def no_fraction(raw):
            raise AssertionError(f"Fraction parsed {raw!r}")

        monkeypatch.setattr(serialization, "Fraction", no_fraction)
        for raw in ("1e99999999", " -3.5e+4301 ", "1E-1_000_000"):
            with pytest.raises(ValueError) as err:
                decode_coord(raw)
            assert str(err.value) == f"bad coordinate {raw!r}"


class TestPointSetCodec:
    def test_points_emitted_sorted(self):
        A = PointSet(2, [(1, 0), (0, 1), (0, 0)])
        assert pointset_to_dict(A)["points"] == [["0", "0"], ["0", "1"], ["1", "0"]]

    def test_extra_keys_tolerated(self):
        doc = {"dim": 1, "points": [["0"]], "size": 1}
        assert pointset_from_dict(doc) == PointSet(1, [(0,)])

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError):
            pointset_from_dict({"dim": 2})

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            pointset_from_dict({"dim": 2, "points": [["1"]]})

    @given(point_sets(2, coords=RATIONAL_VALUES))
    def test_round_trip(self, A):
        assert pointset_from_dict(pointset_to_dict(A)) == A

    def test_decoded_coordinates_are_canonical(self):
        A = pointset_from_dict({"dim": 2, "points": [["4/2", "1/3"], [5, "-6/4"], ["2", "2/6"]]})
        assert A == PointSet(2, [(2, Fraction(1, 3)), (5, Fraction(-3, 2))])
        assert {type(c) for p in A for c in p} == {int, Fraction}
        assert {p[0] for p in A} == {2, 5} and all(type(p[0]) is int for p in A)
        assert not A.is_integral and pointset_from_dict({"dim": 1, "points": [["3/3"]]}).is_integral

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError, match="point set must be non-empty"):
            pointset_from_dict({"dim": 2, "points": []})


def old_recipe(A):
    """The point encoding of earlier versions: ``Fraction`` coordinates sorted by
    ``point_sort_key`` and written one at a time by ``encode_point``."""
    return [encode_point(p) for p in sorted(A.points, key=point_sort_key)]


class TestEncodePoints:
    """``encode_points`` writes (q, integral points) without building a
    ``Fraction``; ``pointset_to_dict`` and certificate digests go through it."""

    @given(data=st.data())
    def test_matches_old_recipe(self, data):
        dim = data.draw(st.integers(1, 4))
        coords = data.draw(st.sampled_from([INT_VALUES, RATIONAL_VALUES, MIXED_VALUES, TWELFTHS]))
        A = data.draw(point_sets(dim, max_size=30, coords=coords))
        assert encode_points(A.q, A.scaled) == old_recipe(A)
        assert pointset_to_dict(A) == {"dim": dim, "points": old_recipe(A)}

    @given(data=st.data())
    def test_any_scale(self, data):
        # a sum keeps the lcm q of its summands, also when q divides every point
        dim = data.draw(st.integers(1, 4))
        q = data.draw(st.integers(1, 60))
        coord = st.integers(-3 * q, 3 * q) | st.sampled_from([0, q, -q])
        points = data.draw(st.frozensets(st.tuples(*[coord] * dim), min_size=1, max_size=30))
        A = PointSet(dim, [[Fraction(c, q) for c in p] for p in points])
        assert encode_points(q, points) == old_recipe(A)

    def test_order_is_by_numerator_then_denominator(self):
        # 1/2, 1/3, 1/4 are keyed (1, 2) < (1, 3) < (1, 4): not numeric order
        assert encode_points(12, {(3,), (4,), (6,)}) == [["1/2"], ["1/3"], ["1/4"]]
        assert encode_points(12, {(3, -12), (3, 0), (-6, 24)}) == [["-1/2", "2"], ["1/4", "-1"], ["1/4", "0"]]

    def test_integral_points_sort_as_tuples(self):
        assert encode_points(1, {(2, -1), (-3, 5), (2, -7)}) == [["-3", "5"], ["2", "-7"], ["2", "-1"]]


def packed_recipe(dim, q, folded, lows, sides):
    """The document of a packed set as ``json`` writes it from the decoded
    points and ``encode_points``."""
    points = _decode(folded, lows, sides)
    doc = {"dim": dim, "points": encode_points(q, points), "size": len(points)}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@st.composite
def packed_boxes(draw):
    """(dim, q, lows, sides, packed points): a box with sides of 1 to 6
    cells, lows from -20 to 20, and a non-empty set of its cells."""
    dim = draw(st.integers(1, 4))
    q = draw(st.sampled_from([1, 2, 6, 7, 12]))
    lows = draw(st.lists(st.integers(-20, 20), min_size=dim, max_size=dim))
    sides = draw(st.lists(st.sampled_from([1, 1, 2, 3, 6]), min_size=dim, max_size=dim))
    cells = draw(st.lists(st.integers(0, math.prod(sides) - 1), min_size=1, max_size=40, unique=True))
    return dim, q, lows, sides, set(cells)


class TestDumpsPacked:
    """``dumps_packed`` writes the document of a packed set itself; its bytes
    must be those of ``json.dumps(..., sort_keys=True, indent=2)`` over the
    decoded points."""

    @given(packed_boxes())
    @example((1, 6, [0], [1], {0}))
    @example((3, 12, [-20, 0, 5], [6, 1, 3], {0, 4, 17}))
    def test_both_forms_match_dumps_canonical(self, box):
        # the same points as a bitmap and as a set of packed integers
        dim, q, lows, sides, cells = box
        bitmap = sum(1 << v for v in cells)
        expected = packed_recipe(dim, q, bitmap, lows, sides)
        assert expected == packed_recipe(dim, q, cells, lows, sides)
        assert dumps_packed(dim, q, bitmap, lows, sides) == expected
        assert dumps_packed(dim, q, cells, lows, sides) == expected

    @given(data=st.data())
    def test_engine_sums_match_dumps_canonical(self, data):
        # spreads up to 10**6 / 12 send some sums to the pair-set fold
        dim = data.draw(st.integers(1, 4))
        q = data.draw(st.sampled_from([1, 2, 6, 7, 12]))
        spread = data.draw(st.sampled_from([0, 3, 10**6]))
        coords = st.builds(Fraction, st.integers(-spread, spread), st.just(q))
        point = st.tuples(*[coords] * dim)
        sets = [PointSet(dim, data.draw(st.lists(point, min_size=1, max_size=8)))
                for _ in range(data.draw(st.integers(1, 3)))]
        packed = packed_sumset(sets)
        assert dumps_packed(*packed) == packed_recipe(*packed)

    @pytest.mark.parametrize("dim, raw, k", [
        (2, [["1/2", "0"], ["0", "1/3"], ["1", "1"], ["3/2", "2/3"], ["1/3", "1/2"], ["2", "0"]], 3),
        (3, [["0", "0", "0"], ["1/2", "0", "1"], ["0", "1/2", "1/2"], ["1", "1", "0"],
             ["1/2", "1", "1/2"], ["0", "1", "1"], ["1", "0", "1/2"]], 2),
    ])
    def test_golden_rational_sums_are_bitmaps(self, dim, raw, k):
        # the inputs of the rational_bitmap_d2 and _d3 golden stdout rows in
        # CI, which pin the bytes of the q > 1 bitmap writer: their sums must
        # stay bitmaps for the rows to cover it
        A = pointset_from_dict({"dim": dim, "points": raw})
        packed = packed_sumset({A: k})
        assert packed[1] > 1 and type(packed[2]) is int
        assert dumps_packed(*packed) == packed_recipe(*packed)


class TestMatrixCodec:
    M = RationalMatrix([[1, 2], [3, 4]])

    def test_dict_shape(self):
        assert matrix_to_dict(self.M) == {"dim": 2, "entries": [["1", "2"], ["3", "4"]]}

    def test_rows_round_trip(self):
        assert matrix_from_rows(matrix_to_rows(self.M), 2) == self.M

    def test_dict_round_trip(self):
        assert matrix_from_dict(matrix_to_dict(self.M)) == self.M

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_rows([["1", "2"], ["3"]], 2)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_dict({"rows": [["1", "0"], ["0", "1"]]})


class TestSystemAndBasisCodec:
    def test_system_round_trip(self):
        system = LinearSystem([RationalMatrix([[1, 2], [3, 4]]), RationalMatrix.identity(2)])
        assert system_from_dict(system_to_dict(system)) == system

    def test_system_dict_shape(self):
        system = LinearSystem([RationalMatrix([[1, 2], [3, 4]])])
        assert system_to_dict(system) == {"dim": 2, "maps": [[["1", "2"], ["3", "4"]]]}

    def test_basis_round_trip(self):
        basis = Basis([(1, 0), (1, 1)])
        assert basis_from_dict(basis_to_dict(basis)) == basis

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            basis_from_dict({"dim": 2, "vectors": [["1", "0"], ["2", "0"]]})


class TestMalformedInput:
    """A matrix row or basis vector must be a list of ``dim`` coordinates, and
    ``dim`` a positive ``int``, not a bool.  Earlier versions read a string
    row one character at a time and took ``true`` for dimension 1."""

    def test_string_rows_rejected(self):
        with pytest.raises(ValueError, match="matrix row '12' does not have 2 entries"):
            matrix_from_rows(["12", "34"], 2)
        with pytest.raises(ValueError, match="matrix row '12' does not have 2 entries"):
            system_from_dict({"dim": 2, "maps": [["12", "34"], ["10", "01"]]})
        with pytest.raises(ValueError, match="matrix row '10' does not have 2 entries"):
            matrix_from_dict({"dim": 2, "entries": ["10", "01"]})

    def test_string_basis_vectors_rejected(self):
        with pytest.raises(ValueError, match="does not have 2 coordinates"):
            basis_from_dict({"dim": 2, "vectors": ["10", "01"]})

    @pytest.mark.parametrize("decode, doc", [
        (pointset_from_dict, {"dim": True, "points": [["1"]]}),
        (matrix_from_dict, {"dim": True, "entries": [["1"]]}),
        (system_from_dict, {"dim": True, "maps": [[["1"]]]}),
        (basis_from_dict, {"dim": True, "vectors": [["1"]]}),
        (pointset_from_dict, {"dim": 0, "points": [[]]}),
        (system_from_dict, {"dim": "2", "maps": [[["1", "0"], ["0", "1"]]]}),
        (basis_from_dict, {"dim": 1.0, "vectors": [["1"]]}),
    ])
    def test_non_integer_dims_rejected(self, decode, doc):
        with pytest.raises(ValueError, match="'dim' must be a positive integer"):
            decode(doc)

    def test_bool_dim_rejected_by_matrix_rows(self):
        with pytest.raises(ValueError, match="'dim' must be a positive integer"):
            matrix_from_rows([["1"]], True)


class TestCompressionSpecCodec:
    def test_axis_shorthand(self):
        spec = CompressionSpec.axis(2, 2)
        assert spec.to_dict() == {"axis": 2}
        assert CompressionSpec.from_dict({"axis": 2}, 2) == spec

    def test_general_round_trip(self):
        spec = CompressionSpec(normal=(1, 2), offset=Fraction(1, 2), direction=(0, 1))
        doc = spec.to_dict()
        assert doc == {
            "hyperplane": {"normal": ["1", "2"], "offset": "1/2"},
            "direction": ["0", "1"],
        }
        assert CompressionSpec.from_dict(doc, 2) == spec

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            CompressionSpec.from_dict({"normal": ["1", "0"]}, 2)


class TestDumpsCanonical:
    def test_sorted_indented_with_trailing_newline(self):
        assert dumps_canonical({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_byte_determinism(self):
        doc = pointset_to_dict(PointSet(2, [(0, 1), (1, 0)]))
        assert dumps_canonical(doc) == dumps_canonical(dict(reversed(list(doc.items()))))

    @given(point_sets(2))
    def test_stable_across_construction_order(self, A):
        B = PointSet(A.dim, list(reversed(A.sorted_points())))
        assert dumps_canonical(pointset_to_dict(A)) == dumps_canonical(pointset_to_dict(B))
