"""JSON encoding of coordinates, point sets, matrices, and specs."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import INT_VALUES, MIXED_VALUES, RATIONAL_VALUES, point_sets, rational_coords, values
from sumsetlab import Basis, CompressionSpec, LinearSystem, PointSet, RationalMatrix
from sumsetlab.core import _scaled, point_sort_key
from sumsetlab.serialization import (
    basis_from_dict,
    basis_to_dict,
    decode_coord,
    dumps_canonical,
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


def old_recipe(A):
    """The point encoding of earlier versions: ``Fraction`` coordinates sorted by
    ``point_sort_key`` and written one at a time by ``encode_point``."""
    return [encode_point(p) for p in sorted(A.points, key=point_sort_key)]


# negative and zero coordinates with denominators up to 12
TWELFTHS = values(-2, 2, max_denominator=12)


class TestEncodePoints:
    """``encode_points`` writes (q, integral points) without building a
    ``Fraction``; ``pointset_to_dict`` and certificate digests go through it."""

    @given(data=st.data())
    def test_matches_old_recipe(self, data):
        dim = data.draw(st.integers(1, 4))
        coords = data.draw(st.sampled_from([INT_VALUES, RATIONAL_VALUES, MIXED_VALUES, TWELFTHS]))
        A = data.draw(point_sets(dim, max_size=30, coords=coords))
        q, (points,) = _scaled([A])
        assert encode_points(q, points) == old_recipe(A)
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
