"""JSON encoding of point sets, matrices, and systems.

Coordinates are written as decimal strings ("5", "-3/4") rather than floats:
round-tripping must be exact.  All emitters sort keys and order points
canonically so identical mathematical objects serialize to identical bytes.

A point set is encoded from the integer form it is stored in, (q, qA)
(:class:`core.PointSet`), which is also the form the sumset engine computes,
so no ``Fraction`` is built to print a point.  :func:`_canonical_order`
reduces each distinct coordinate c to (c/g, q/g) with g = gcd(c, q) once, and
writes it with the same formatter as :func:`encode_coord`.  Canonical order
is lexicographic on (numerator, denominator) per coordinate, which is not
numeric order: 1/2 comes before 1/3.  For q = 1 every key is (c, 1), so
integral points sort as they are.  :func:`encode_points` writes a point set nested in a larger
document; :func:`dumps_packed` writes the whole {"dim", "points", "size"}
document of the ``sumset``, ``compress`` and ``project`` commands from the
engine's packed form (:func:`core.packed_sumset`), without decoding it.

:func:`dumps_canonical` writes any other document as ``json.dumps(obj,
sort_keys=True, indent=2)`` does.  :func:`dumps_packed` writes the same bytes
for a set document, pinned to ``json``'s by a differential test; it is the one
hand-written writer, since a sum can hold far more points than any other
document.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from operator import add, itemgetter
from typing import Collection, Iterable, Iterator, Sequence

from .core import (
    Basis,
    Coord,
    LinearSystem,
    PointSet,
    RationalMatrix,
    Vec,
    _columns,
    _dimension,
    _form,
    _selectors,
    _size,
    as_coord,
)

MAX_EXPONENT = 4300  # Python's default limit on the digits of an integer string


def _ratio_text(numerator: int, denominator: int) -> str:
    """The one text form of an exact number in lowest terms: "7" or "-3/7".
    An integer is its ``str``."""
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


def encode_coord(c: Coord) -> str:
    if isinstance(c, Fraction):
        return _ratio_text(c.numerator, c.denominator)
    return str(int(c))


def decode_coord(raw) -> Coord:
    """A coordinate read from JSON: an ``int``, or a string that ``Fraction``
    accepts with an exponent of at most ``MAX_EXPONENT``, returned canonical
    (``int`` when integral).  A string is first tried with ``int``, which
    parses an integer without ``Fraction``'s regular expression, and otherwise
    with ``Fraction``.  ``int`` accepts a subset of the strings ``Fraction``
    accepts, with the same values, except that ``Fraction`` takes underscores
    only from Python 3.11 on: a string with one always goes to ``Fraction``,
    so every version accepts what its ``Fraction`` accepts."""
    if isinstance(raw, str):
        if "_" not in raw:
            try:
                return int(raw)
            except ValueError:
                pass
        _, e, exponent = raw.lower().partition("e")
        try:
            if e and abs(int(exponent.replace("_", ""))) > MAX_EXPONENT:
                raise ValueError("exponent too large")
            return as_coord(Fraction(raw))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad coordinate {raw!r}") from exc
    if isinstance(raw, bool):
        raise ValueError("coordinates must be integers or fraction strings")
    if isinstance(raw, int):
        return int(raw)
    raise ValueError(f"bad coordinate {raw!r} (floats are not accepted)")


def encode_point(p: Vec) -> list[str]:
    return [encode_coord(c) for c in p]


def decode_point(raw, dim: int) -> Vec:
    if not isinstance(raw, (list, tuple)) or len(raw) != dim:
        raise ValueError(f"point {raw!r} does not have {dim} coordinates")
    return tuple(map(decode_coord, raw))


def _canonical_order(q: int, values: Iterable[int]) -> tuple[list[int], list[str]]:
    """The distinct integers c of ``values`` in the canonical order of the
    numbers c / q, and the text of each.  Each c is reduced once to its key
    (c/g, q/g), g = gcd(c, q): the order is lexicographic on (numerator,
    denominator), which is not numeric order (1/2 comes before 1/3).  For
    q = 1 every key is (c, 1), so the integers sort as they are."""
    if q == 1:
        order = sorted(set(values))
        return order, list(map(str, order))
    keys = {}
    for c in set(values):
        g = math.gcd(c, q)
        keys[c] = (c // g, q // g)
    order = sorted(keys, key=keys.__getitem__)
    return order, [_ratio_text(*keys[c]) for c in order]


def _canonical_rows(q: int, columns: Sequence[Sequence[int]]) -> Iterator[tuple[str, ...]]:
    """The points p / q, for integral points p given by their coordinate
    columns, as tuples of coordinate texts in canonical order: the distinct
    coordinates are ranked once by :func:`_canonical_order`, and the points
    sort as tuples of ranks."""
    order, texts = _canonical_order(q, itertools.chain.from_iterable(columns))
    rank = {c: i for i, c in enumerate(order)}
    # Rank, sort and write column by column, so that every lookup runs inside
    # map and zip.  On the 16 rational sums of one certify_sweep pass (32,432
    # points; 2 cores, Python 3.11.7) this took 48-54 ms, where sorting on a
    # per-point tuple of keys took 87-93 ms and on a tuple of ranks 70 ms.
    ranked = sorted(zip(*[map(rank.__getitem__, column) for column in columns]))
    return zip(*[map(texts.__getitem__, column) for column in zip(*ranked)])


def encode_points(q: int, points: Collection[tuple[int, ...]]) -> list[list[str]]:
    """The points p / q, for integral points p, as coordinate strings in
    canonical order (:func:`_canonical_rows`), for a point set nested in a
    larger document."""
    if q == 1:
        return [list(map(str, p)) for p in sorted(points)]
    return list(map(list, _canonical_rows(q, list(zip(*points)))))


def dumps_packed(dim: int, q: int, folded: int | set[int], lows: list[int], sides: list[int]) -> str:
    """``dumps_canonical({"dim": dim, "points": ..., "size": ...})`` for the
    point set q^-1 S, with S as :func:`core.packed_sumset` returns it: a
    bitmap or a set of packed integers over the box with lower corner
    ``lows`` and side lengths ``sides``.  The text is written here, not by
    :func:`dumps_canonical`, and no point is decoded to a tuple.

    For a bitmap, each coordinate's box values are sorted once by
    :func:`_canonical_order`, and the bitmap's cells are permuted into that
    order: the rows along the last coordinate are taken in the order of the
    others, and each row is permuted by one ``itemgetter``.  Then
    ``itertools.compress`` picks the points' texts from the product of the
    coordinates' texts, already in canonical order.  For q = 1 the box order
    is the canonical order.  A set of packed integers is sorted, which is
    box order, and split into its coordinate columns; for q > 1 they are
    sorted again by :func:`_canonical_rows`."""
    size = _size(folded)
    if type(folded) is int:
        orders = [_canonical_order(q, range(low, low + side)) for low, side in zip(lows, sides)]
        cells = _selectors(folded, math.prod(sides))
        if q != 1:
            # the first cell of each row, in the canonical order of the rows
            starts, stride = [0], math.prod(sides)
            for (order, _), low, side in zip(orders[:-1], lows, sides):
                stride //= side
                starts = [start + (c - low) * stride for start in starts for c in order]
            width = sides[-1]
            rows = map(cells.__getitem__, map(slice, starts, map(add, starts, itertools.repeat(width))))
            if width > 1:  # an itemgetter of one index returns the item itself
                order, _ = orders[-1]
                rows = map(itemgetter(*[c - lows[-1] for c in order]), rows)
            cells = itertools.chain.from_iterable(rows)
        points = itertools.compress(itertools.product(*[texts for _, texts in orders]), cells)
    else:
        # packed order is box order, which is the canonical order for q = 1
        columns = _columns(sorted(folded), lows, sides)
        points = zip(*[map(str, column) for column in columns]) if q == 1 else _canonical_rows(q, columns)
    # every coordinate text is digits, "-" and "/", so its JSON string is
    # the text in quotes
    body = '"\n    ],\n    [\n      "'.join(map('",\n      "'.join, points))
    return f'{{\n  "dim": {dim},\n  "points": [\n    [\n      "{body}"\n    ]\n  ],\n  "size": {size}\n}}\n'


def pointset_to_dict(A: PointSet) -> dict:
    return {"dim": A.dim, "points": encode_points(A.q, A.scaled)}


def pointset_from_dict(data: dict) -> PointSet:
    if not isinstance(data, dict) or "dim" not in data or "points" not in data:
        raise ValueError("point set JSON needs keys 'dim' and 'points'")
    dim = _dimension(data["dim"])
    # decoded coordinates are canonical already: PointSet's checks are skipped
    return PointSet._raw(dim, *_form(frozenset([decode_point(p, dim) for p in data["points"]])))


def matrix_to_rows(M: RationalMatrix) -> list[list[str]]:
    return [[encode_coord(c) for c in row] for row in M.rows]


def matrix_from_rows(raw, dim: int) -> RationalMatrix:
    dim = _dimension(dim)
    if not isinstance(raw, (list, tuple)) or len(raw) != dim:
        raise ValueError(f"matrix must have {dim} rows")
    for row in raw:
        if not isinstance(row, (list, tuple)) or len(row) != dim:
            raise ValueError(f"matrix row {row!r} does not have {dim} entries")
    return RationalMatrix([map(decode_coord, row) for row in raw])


def matrix_to_dict(M: RationalMatrix) -> dict:
    return {"dim": M.dim, "entries": matrix_to_rows(M)}


def matrix_from_dict(data: dict) -> RationalMatrix:
    if not isinstance(data, dict) or "dim" not in data or "entries" not in data:
        raise ValueError("matrix JSON needs keys 'dim' and 'entries'")
    return matrix_from_rows(data["entries"], data["dim"])


def system_to_dict(system: LinearSystem) -> dict:
    return {
        "dim": system.dim,
        "maps": [matrix_to_rows(M) for M in system.maps],
    }


def system_from_dict(data: dict) -> LinearSystem:
    if not isinstance(data, dict) or "dim" not in data or "maps" not in data:
        raise ValueError("system JSON needs keys 'dim' and 'maps'")
    dim = data["dim"]
    return LinearSystem([matrix_from_rows(raw, dim) for raw in data["maps"]])


def basis_to_dict(basis: Basis) -> dict:
    return {"dim": basis.dim, "vectors": [encode_point(v) for v in basis.vectors]}


def basis_from_dict(data: dict) -> Basis:
    if not isinstance(data, dict) or "dim" not in data or "vectors" not in data:
        raise ValueError("basis JSON needs keys 'dim' and 'vectors'")
    dim = _dimension(data["dim"])
    return Basis([decode_point(v, dim) for v in data["vectors"]])


def dumps_canonical(obj) -> str:
    """Pretty, key-sorted JSON with a trailing newline: byte-stable output."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
