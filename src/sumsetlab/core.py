"""Exact rational geometry of finite point sets.

Everything here is computed over Q with no floating point.  A coordinate
read by a caller is a plain ``int`` when it is integral and a
``fractions.Fraction`` (always in lowest terms) otherwise; the two mix freely
because Python guarantees ``hash(Fraction(2, 1)) == hash(2)``.

One integer form
----------------
A :class:`PointSet` A is stored as (q, qA): q, the lcm of its coordinate
denominators, and the integral points qA.  Every operation on point sets
reads and builds that form and no other, so none rescales its inputs or
divides its result back: an integral set has q = 1 and its points are qA
itself, and a rational set decodes its points to ``Fraction`` only when
``.points`` is read.  :meth:`PointSet._raw` divides q and qA by their gcd, so
the form of a set is unique.

Sumsets
-------
Every sumset (:func:`minkowski_sum`, :func:`iterated_sumset`,
:func:`weighted_sumset`) and every count of one (:func:`sumset_size`,
:func:`sumset_sizes`) goes through one engine, :func:`packed_sumset`.  It
reads its summands as a multiset, once, as ``Counter(sets)``
(:func:`_summands`): a sequence of sets, whose equal entries are one summand
repeated, or a mapping from set to a positive ``int`` multiplicity, so kA is
``{A: k}``.  It brings the distinct summands to one q, the lcm of theirs
(:func:`_scaled`), packs each once into integers in the mixed radix of the
final sum's bounding box and folds it as often as its multiplicity;
:func:`minkowski_sum` decodes the fold once, to the integral points of the
sum's form.  The box of m_1 A_1 + ... + m_k A_k is the sums of m_i times the
summands' minima and maxima, and the sum has at most
min(|A_1|^m_1 ... |A_k|^m_k, cells of the box) points, a bound taken in
O(k) whatever the multiplicities.  A one-point summand only moves the box and
is not folded.  The fold is an ``int`` bitmap (one shift and OR per summand
point) when the box has at most ``_BITMAP_DENSITY`` cells per point of that
bound, and at most ``_BITMAP_MAX_CELLS`` cells; otherwise it is a set of
packed integers that adds every pair, but adds a repeated summand over
multisets, each sum of its points once (:func:`_multiple`).  The choice
depends only on the summands' sizes and bounding boxes, not on their order,
and both folds return the same set.  The ``sumset``, ``compress`` and
``project`` commands write the fold itself, still packed and scaled, in box
order (:func:`serialization.dumps_packed`).  :func:`sumset_size` runs the
same folds and counts the result without decoding it: the bitmap's set
bits, or the size of the packed set.  :func:`sumset_sizes` runs the one
fold of kA and counts every level on the way, |A|, |2A|, ..., |kA|: the
bitmap's set bits after each round, or the size of each level of
:func:`_multiple`.

Inside a :func:`sum_limit` block, the engine refuses with
:class:`BudgetError`, before packing anything, every sum of two or more
summands, counted with multiplicity, whose bound exceeds the limit: the same
bound, taken on the scaled summands.  :func:`sumset_sizes` refuses the
levels 2A, ..., kA together when their bounds, added up, exceed the limit.
The limit is a context variable, so it ends with its block; library calls
outside any block have none.  The command line enters one block per command
with ``--budget``, in the same ``with`` as
:func:`~sumsetlab.certificates.precision_limit`.

Integral inputs
---------------
Outside the engine, the operations on point sets work in integers as well.
:func:`linear_image` multiplies the matrix by r, the lcm of its
denominators, and takes ``int`` dot products with the points of qA; the
image has the form (qr, (rM)(qA)).  :meth:`PointSet.translate` shifts qA by
an integral vector, :func:`project` onto standard coordinates drops
coordinates of qA, and :func:`~sumsetlab.compression.compress` slides the
points of qA.  Two fraction-free routines do the linear algebra.  For
reduced forms and determinants, one Gauss-Jordan elimination,
:func:`_eliminate`: :func:`rref` (so :func:`kernel_basis`,
:meth:`RationalMatrix.inverse` and :class:`Subspace`) runs it on rows scaled
to integers and divides each pivot row once at the end;
:meth:`RationalMatrix.det` runs it on the scaled rows and divides the last
pivot by the product of the scales.  For ranks and spins, one incremental
echelon reduction, :func:`_echelon_extend`, which adds integer vectors one
at a time to primitive pivot rows and stops at rank d:
:func:`affine_dimension` feeds it the differences of qA, and ``structure``
spins subspaces under a system's maps with it.

The engine is pure Python on purpose: importing numpy would add about 10 MB
of resident memory and 0.13-0.16 s to every CLI start, while big-int shifts
already run the bitmap at C speed.

Conventions
-----------
* points are tuples, sets of points are :class:`PointSet`
* indices exposed to callers (projection coordinates, compression axes) are
  1-based, matching the usual ``[d] = {1, ..., d}`` convention; internals are
  0-based
* all set-valued results are plain sets; canonical *ordering* (used for
  serialization and witnesses) sorts coordinates by ``(numerator,
  denominator)`` pairs so output is deterministic
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import add, floordiv, itemgetter, mod, mul, sub
from typing import Collection, Iterable, Iterator, Mapping, Sequence

Coord = int | Fraction
Vec = tuple[Coord, ...]


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class EmptySetError(ValueError):
    """A non-empty point set was required."""


class SingularMatrixError(ValueError):
    """A matrix that must be invertible is not."""


class BudgetError(ValueError):
    """A sum could have more points than the limit of :func:`sum_limit`."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, never a verdict."""


def ensure(ok: bool, message: str) -> None:
    """Raise InvariantError unless ``ok``; unlike ``assert``, runs under -O."""
    if not ok:
        raise InvariantError(message)


# ---------------------------------------------------------------------------
# coordinates and raw vectors
# ---------------------------------------------------------------------------


def _canon(x: Coord) -> Coord:
    """Collapse integral Fractions to int; leave everything else alone."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def as_coord(value) -> Coord:
    """Validate and canonicalize a single coordinate (int or Fraction only)."""
    if type(value) is int or type(value) is Fraction:
        return _canon(value)
    if isinstance(value, int):  # bool is rejected below, numpy ints land here
        if isinstance(value, bool):
            raise TypeError("bool is not a coordinate")
        return int(value)
    if isinstance(value, Fraction):
        return _canon(value)
    raise TypeError(f"coordinate must be int or Fraction, got {type(value).__name__}")


def as_vec(point: Sequence, dim: int) -> Vec:
    p = tuple(as_coord(c) for c in point)
    if len(p) != dim:
        raise DimensionMismatchError(f"point of length {len(p)} in dimension {dim}")
    return p


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(_canon(x - y) for x, y in zip(a, b))


def vec_dot(a: Vec, b: Vec) -> Coord:
    return _canon(sum(x * y for x, y in zip(a, b)))


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def point_sort_key(p: Vec):
    """Deterministic total order: lexicographic on (numerator, denominator)."""
    return tuple((c.numerator, c.denominator) for c in p)


# ---------------------------------------------------------------------------
# point sets
# ---------------------------------------------------------------------------


def _dimension(dim) -> int:
    """``dim`` if it is a positive ``int``; a bool is no dimension."""
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError("'dim' must be a positive integer")
    return dim


def _form(points: frozenset) -> tuple[int, frozenset]:
    """(q, qA) for a set A of canonical points: q, the lcm of the coordinate
    denominators, and the integral points qA (A itself for q = 1).  An empty
    A raises :class:`EmptySetError`."""
    if not points:
        raise EmptySetError("point set must be non-empty")
    q = math.lcm(*{c.denominator for p in points for c in p})
    if q > 1:
        points = frozenset(tuple([c.numerator * (q // c.denominator) for c in p]) for p in points)
    return q, points


class PointSet:
    """A finite, non-empty, deduplicated set A of points in Q^d.

    A is stored in the one integer form that every layer computes with:
    ``q``, the lcm of its coordinate denominators in lowest terms, and
    ``scaled``, the frozenset of integral points qA.  Equality and hashing
    compare (d, q, qA), which determines A.  ``points`` is A itself:
    ``scaled`` when q = 1, and otherwise decoded on its first read and kept."""

    __slots__ = ("dim", "q", "scaled", "_points")

    def __init__(self, dim: int, points: Iterable[Sequence]):
        self.dim = _dimension(dim)
        pts = frozenset(as_vec(p, dim) for p in points)
        self.q, self.scaled = _form(pts)
        self._points = pts

    @classmethod
    def _raw(cls, dim: int, q: int, scaled: frozenset) -> "PointSet":
        """Trusted constructor of the set q^-1 ``scaled``, for ``scaled`` a
        non-empty frozenset of ``int`` tuples of length ``dim``.  For q > 1,
        q and every coordinate are divided by g, their gcd, so that equal sets
        have equal (dim, q, scaled): 1/2 + 1/2 is stored as 1, not 2/2."""
        if q > 1:
            g = math.gcd(q, *itertools.chain.from_iterable(scaled))
            if g > 1:
                q //= g
                scaled = frozenset(tuple([c // g for c in p]) for p in scaled)
        self = object.__new__(cls)
        self.dim = dim
        self.q = q
        self.scaled = scaled
        self._points = scaled if q == 1 else None
        return self

    @property
    def points(self) -> frozenset:
        """The points of the set, each coordinate an ``int`` or a
        ``Fraction`` in lowest terms.  For q > 1 they are decoded from
        ``scaled`` on the first read: each distinct coordinate c becomes
        ``c // q``, or ``Fraction(c, q)`` if q does not divide c, once."""
        if self._points is None:
            q = self.q
            table = {c: c // q if c % q == 0 else Fraction(c, q)
                     for c in set(itertools.chain.from_iterable(self.scaled))}
            self._points = frozenset(tuple(map(table.__getitem__, p)) for p in self.scaled)
        return self._points

    @property
    def is_integral(self) -> bool:
        return self.q == 1

    def sorted_points(self) -> list[Vec]:
        return sorted(self.points, key=point_sort_key)

    def translate(self, v: Sequence) -> "PointSet":
        """A + v: the points and the shift brought to one q by :func:`_scaled`,
        then added in integers.  It is no sum of two summands, so no
        :func:`sum_limit` applies."""
        q, (points, (shift,)) = _scaled([self, PointSet(self.dim, [v])])
        return PointSet._raw(self.dim, q, frozenset(tuple(map(add, p, shift)) for p in points))

    def negate(self) -> "PointSet":
        return PointSet._raw(self.dim, self.q, frozenset(tuple([-x for x in p]) for p in self.scaled))

    def __len__(self) -> int:
        return len(self.scaled)

    def __iter__(self) -> Iterator[Vec]:
        return iter(self.points)

    def __contains__(self, p) -> bool:
        return tuple(p) in self.points

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.dim == other.dim and self.q == other.q and self.scaled == other.scaled

    def __hash__(self) -> int:
        return hash((self.dim, self.q, self.scaled))

    def __repr__(self) -> str:
        pts = self.sorted_points()
        shown = ", ".join(repr(p) for p in pts[:6])
        more = "" if len(pts) <= 6 else f", ... ({len(pts)} total)"
        return f"PointSet(dim={self.dim}, {{{shown}{more}}})"


# the summands of a sum: a sequence of sets, or a mapping from set to multiplicity
Summands = Sequence[PointSet] | Mapping[PointSet, int]


# The integral engine picks one of two folds over the same packed integers.
# The bitmap fold costs about one box cell per shift of a summand point, plus
# the decode of every cell; the pair-set fold costs one set insertion per pair
# (fewer for a repeated summand, folded over multisets), plus a divmod decode
# of every output point.  The bitmap runs when the box has at most this many
# cells per point of the bound min(|A_1| ... |A_k|, cells); for k = 2 that is
# the choice per pair added.  Both folds timed on random integral inputs
# (d = 1..4, 2 to 300 points, box sides 2 to 1000; pairs not yet folded over
# multisets), a limit of 8 lost 4.2 ms against the faster fold of each on 321
# inputs with k = 2..4 counted per pair (no fold over 1.5x slower; limits 2
# and 32 lost 152 and 32 ms).  Timed again on 800 inputs with k = 3, 4
# (d = 1..4, 2 to 40 points for k = 3 and 18 for k = 4, at most 2^22 cells,
# box sides set for 0.25 to 2000 cells per point of the bound), it lost 48 of
# 474 ms (none over 3.5x slower; limits 2, 16 and 32 lost 121, 29 and 60 ms):
# 3 of 84 ms on kA, where 4 did best, and 45 of 389 ms on k distinct
# summands, where 32 did best.
_BITMAP_DENSITY = 8
# The bitmap's decode buffers take about 4 bytes per cell, so boxes above
# 4M cells always take the pair-set fold.
_BITMAP_MAX_CELLS = 1 << 22
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
# The most points a sum may have, or None for no limit; see sum_limit.
_SUM_LIMIT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "sum_limit", default=None
)


@contextlib.contextmanager
def sum_limit(limit: int | None) -> Iterator[None]:
    """Within the block, refuse with :class:`BudgetError` every sum of two or
    more summands, counted with multiplicity, whose bound exceeds ``limit``
    points: the product of size^multiplicity over the distinct summands,
    capped by the cells of the (scaled) sum's bounding box.
    The sum is refused before it is built.  On exit the previous limit is
    restored; outside any block there is none."""
    token = _SUM_LIMIT.set(limit)
    try:
        yield
    finally:
        _SUM_LIMIT.reset(token)


def _pack(cols: list[tuple], mins: list[int], weights: list[int]) -> list[int]:
    """Each point as sum_i (p_i - min_i) * weights_i; ``weights[-1]`` is 1."""
    packed = map(sub, cols[-1], itertools.repeat(sum(map(mul, mins, weights))))
    for col, weight in zip(cols, weights[:-1]):
        packed = map(add, packed, map(mul, col, itertools.repeat(weight)))
    return list(packed)


def _bitmap_fold(packed: list[tuple[list[int], int]], cells: int, sizes: list[int] | None = None) -> int:
    """Sum of packed summands, given as (packed points, multiplicity) pairs,
    as an ``int`` bitmap over the box: bit v is set for each packed point v,
    and adding a summand ORs one shifted copy of the partial sum per summand
    point, once per unit of its multiplicity.  Given a list ``sizes``, each
    round appends the partial sum's set bits to it."""
    folds = []
    for points, count in packed:
        folds += [points] * count
    # start from the largest summand: every other point costs one shift
    folds.sort(key=len, reverse=True)
    bits = bytearray(b"0") * cells
    for v in folds[0]:
        bits[cells - 1 - v] = 49  # ord("1")
    acc = int(bits, 2)
    for summand in folds[1:]:
        folded = 0
        for v in summand:
            folded |= acc << v
        acc = folded
        if sizes is not None:
            sizes.append(acc.bit_count())
    return acc


def _multiple(a: list[int], m: int, sizes: list[int] | None = None) -> set[int]:
    """mA, for m >= 2 and a set A = {a_0, ..., a_{n-1}} of packed integers,
    folded over multisets: each sum of j points is kept once, so it is
    extended once and not once per ordering of its points.  Given a list
    ``sizes``, |2A|, ..., |mA| are appended to it, one per level.

    Every partial sum s in jA keeps t(s), the least last index over its ways
    of being written, s = a_{i_1} + ... + a_{i_j} with i_1 <= ... <= i_j.
    The next level extends s only by a_u for u >= t(s), and keeps for each
    new sum the least u it was reached by.  That is t of the new sum, by
    induction on j: each s + a_u is written with last index u, and if x in
    (j + 1)A has least last index u, then x = s' + a_u for a sum s' of j
    points of index at most u, so t(s') <= u and s' is extended by a_u.  A
    level thus takes sum_s (n - t(s)) <= |jA| n additions, never more than
    adding A to jA pair by pair.  Running u downward, a dict comprehension
    keeps the least u of each sum; sorted by t, the sums that a_u extends
    are a prefix, ``order[:ends[u]]``, whose length ``itertools.accumulate``
    takes from the counts of each t.  In A itself t(a_i) = i, so the first
    level needs no sort."""
    n = len(a)
    order, ends = a, range(1, n + 1)
    for _ in range(m - 2):
        level = {s + a[u]: u for u in range(n - 1, -1, -1) for s in order[:ends[u]]}
        if sizes is not None:
            sizes.append(len(level))
        order = sorted(level, key=level.__getitem__)
        counts = Counter(level.values())
        ends = list(itertools.accumulate(counts[t] for t in range(n)))
    last = {s + a[u] for u in range(n) for s in order[:ends[u]]}
    if sizes is not None:
        sizes.append(len(last))
    return last


def _pair_fold(packed: list[tuple[list[int], int]], sizes: list[int] | None = None) -> set[int]:
    """Sum of packed summands, given as (packed points, multiplicity) pairs,
    as a set of packed integers.  A summand of multiplicity m >= 2 is folded
    over multisets by :func:`_multiple`, which appends its level sizes to
    ``sizes``; the parts of the distinct summands are then added pair by
    pair."""
    parts = [points if count == 1 else _multiple(points, count, sizes) for points, count in packed]
    sums = set(parts[0])
    for part in parts[1:]:
        sums = {a + b for a in sums for b in part}
    return sums


def _point_bound(summands: Iterable[tuple[Collection, int]], cells: int) -> int:
    """min(|A_1|^m_1 ... |A_k|^m_k, cells): the most points the sum of the
    distinct summands A_i, given as (points, multiplicity) pairs, can have in
    a bounding box of ``cells`` cells, taken in O(k) whatever the
    multiplicities."""
    # capped at the cells, the product of the sizes never grows to |A|^k: a
    # factor of two or more points taken bit_length(cells) times exceeds it
    bound = 1
    for points, count in summands:
        bound = min(bound * len(points) ** min(count, cells.bit_length()), cells)
    return bound


def _integral_fold(
    summands: Sequence[tuple[Collection[Vec], int]], sizes: list[int] | None = None
) -> tuple[int | set[int], list[int], list[int]]:
    """m_1 A_1 + ... + m_k A_k for distinct sets of integral points, given as
    (points, multiplicity) pairs, packed once in the sum's box and not yet
    decoded: the bitmap of :func:`_bitmap_fold` or the set of
    :func:`_pair_fold`, with the box's lower corner and side lengths.

    Every point becomes one integer in the mixed radix of the final sum's
    bounding box, first coordinate most significant, so a sum of points is a
    sum of integers with no carry between coordinates, and packed order is
    ``itertools.product`` order over the box.  The box is the sums of m_i
    times the summands' minima and maxima, and the sum has at most ``bound``
    = min(|A_1|^m_1 ... |A_k|^m_k, cells of the box) points, taken by
    :func:`_point_bound`.  For two or more summands, counted with
    multiplicity, that one bound is checked against :func:`sum_limit` in
    O(k), before anything is packed, and it picks the fold:
    :func:`_bitmap_fold` runs when the box has at most ``_BITMAP_DENSITY``
    cells per point of the bound and at most ``_BITMAP_MAX_CELLS`` cells.
    Neither depends on the order of the summands.  Each summand of two or
    more points is then packed once and passed to the fold with its
    multiplicity m_i: the bitmap ORs it in m_i times, and the pair fold
    builds m_i A_i over multisets (:func:`_multiple`).  A one-point summand
    packs to [0], so it only moves the box and is not folded.  For the one
    summand A of multiplicity m >= 2 of :func:`sumset_sizes`, either fold
    appends |2A|, ..., |mA| to ``sizes`` as it builds them.
    """
    columns, lows, highs = [], [], []
    for points, count in summands:
        cols = list(zip(*points))
        mins = [min(c) for c in cols]
        columns.append((cols, mins))
        lows.append([count * low for low in mins])
        highs.append([count * max(c) for c in cols])
    lows, highs = list(map(sum, zip(*lows))), list(map(sum, zip(*highs)))
    sides = [high - low + 1 for low, high in zip(lows, highs)]
    cells = math.prod(sides)
    bound = _point_bound(summands, cells)
    limit = _SUM_LIMIT.get()
    if limit is not None and bound > limit and sum(count for _, count in summands) > 1:
        raise BudgetError(f"a sum of up to {bound} points exceeds the budget of {limit}")
    weights = [1] * len(sides)
    for i in range(len(sides) - 1, 0, -1):
        weights[i - 1] = weights[i] * sides[i]
    packed = [(_pack(cols, mins, weights), count)
              for (cols, mins), (points, count) in zip(columns, summands) if len(points) > 1]
    # a sum of points alone is the one cell of its box
    packed = packed or [([0], 1)]
    if cells <= _BITMAP_MAX_CELLS and cells <= _BITMAP_DENSITY * bound:
        return _bitmap_fold(packed, cells, sizes), lows, sides
    return _pair_fold(packed, sizes), lows, sides


def _size(folded: int | set[int]) -> int:
    """The number of points of an :func:`_integral_fold` result."""
    return folded.bit_count() if type(folded) is int else len(folded)


def _selectors(bitmap: int, cells: int) -> bytes:
    """The box cells of a bitmap, one byte each in packed order: 1 where the
    bit is set, 0 elsewhere."""
    return format(bitmap, f"0{cells}b")[::-1].encode().translate(_BIT_BYTES)


def _columns(packed: list[int], lows: list[int], sides: list[int]) -> list[list[int]]:
    """The coordinate columns of packed points, first coordinate first: one
    pass of ``map`` per coordinate, least significant first."""
    columns = []
    for low, side in zip(lows[:0:-1], sides[:0:-1]):
        columns.append(list(map(add, map(mod, packed, itertools.repeat(side)), itertools.repeat(low))))
        packed = list(map(floordiv, packed, itertools.repeat(side)))
    columns.append(list(map(add, packed, itertools.repeat(lows[0]))))
    return columns[::-1]


def _decode(folded: int | set[int], lows: list[int], sides: list[int]) -> frozenset:
    """The points of an :func:`_integral_fold` result.  A bitmap selects the box
    cells of its set bits from ``itertools.product`` with
    ``itertools.compress``; a set of packed integers is split into its
    coordinate columns by :func:`_columns`."""
    if type(folded) is int:
        box = itertools.product(*map(range, lows, map(add, lows, sides)))
        return frozenset(itertools.compress(box, _selectors(folded, math.prod(sides))))
    return frozenset(zip(*_columns(list(folded), lows, sides)))


def _scaled(sets: Sequence[PointSet], q: int = 1) -> tuple[int, list[frozenset]]:
    """(q, the points of each set times q), where q becomes the lcm of the
    given q and the sets' own.  A set whose q is that lcm gives its
    ``scaled`` as it is; any other is scaled by the integer q // A.q.
    Scaling is one-to-one, so it keeps the size of every sum."""
    q = math.lcm(q, *{A.q for A in sets})
    return q, [A.scaled if A.q == q else frozenset(tuple([q // A.q * c for c in p]) for p in A.scaled)
               for A in sets]


def _summands(sets: Summands, caller: str) -> tuple[int, int, list[tuple[frozenset, int]]]:
    """(d, q, [(qA, m) for each distinct summand A of multiplicity m]): the
    multiset of summands read once, as ``Counter(sets)``.  ``sets`` is a
    sequence, whose equal entries count as one summand repeated, or a mapping
    from summand to multiplicity.  The summands must be non-empty and share
    the dimension d, every multiplicity is a positive ``int``, and
    :func:`_scaled` brings the distinct summands to one q."""
    counts = Counter(sets)
    if not counts:
        raise EmptySetError(f"{caller} needs at least one set")
    if not all(type(m) is int and m > 0 for m in counts.values()):
        raise ValueError(f"{caller}: every multiplicity must be a positive int")
    dims = {A.dim for A in counts}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed dimensions {sorted(dims)}")
    q, scaled = _scaled(list(counts))
    return dims.pop(), q, list(zip(scaled, counts.values()))


def packed_sumset(sets: Summands) -> tuple[int, int, int | set[int], list[int], list[int]]:
    """(d, q, fold, lows, sides): the one engine behind every sumset, with
    q(A_1 + ... + A_k) as :func:`_integral_fold` leaves it, packed in the
    sum's box and not decoded.  ``sets`` is the multiset of summands of
    :func:`_summands`.  One summand taken once is packed alone, as a bitmap
    when it is dense in its box, and no :func:`sum_limit` applies to it.  A
    writer reads the points in box order from this form
    (:func:`serialization.dumps_packed`)."""
    dim, q, summands = _summands(sets, "a sumset")
    return (dim, q, *_integral_fold(summands))


def sumset_size(sets: Summands) -> int:
    """|A_1 + ... + A_k|, from the same summands and folds as
    :func:`packed_sumset` but without decoding the sum: the bitmap's set bits
    or the packed set's size are counted."""
    _, _, summands = _summands(sets, "sumset_size")
    if summands[0][1] == len(summands) == 1:
        return len(summands[0][0])
    return _size(_integral_fold(summands)[0])


def sumset_sizes(A: PointSet, k: int) -> list[int]:
    """[|A|, |2A|, ..., |kA|], read level by level from the one fold of
    ``{A: k}``: the bitmap's set bits after each round, or the size of each
    level of :func:`_multiple`.  A k other than a positive ``int`` raises
    ``ValueError``.

    Inside a :func:`sum_limit` block the levels are refused together, with
    :class:`BudgetError` before anything is packed, when the engine's point
    bounds of jA, min(|A|^j, cells of the box of jA), added up over
    j = 2..k, exceed the limit: each level may fit it while the k - 1 of
    them together do not."""
    _, _, ((points, k),) = _summands({A: k}, "sumset_sizes")
    limit = _SUM_LIMIT.get()
    if limit is not None:
        # every jA of a one-point A is one point, k - 1 in all; otherwise jA
        # has at least j + 1 points, so the total passes the limit within
        # about sqrt(2 limit) terms, however large k is
        if len(points) == 1:
            total = k - 1
        else:
            spans = [max(c) - min(c) for c in zip(*points)]
            total = 0
            for j in range(2, k + 1):
                total += _point_bound([(points, j)], math.prod(j * span + 1 for span in spans))
                if total > limit:
                    break
        if total > limit:
            raise BudgetError(f"the sums kA for k = 2..{k} could have more points"
                              f" in total than the budget of {limit}")
    if k == 1 or len(points) == 1:
        return [len(points)] * k
    sizes = [len(points)]
    _integral_fold([(points, k)], sizes)
    return sizes


def minkowski_sum(sets: Summands) -> PointSet:
    """A_1 + ... + A_k = {a_1 + ... + a_k}, for a sequence of summands or a
    mapping from summand to multiplicity: the form (q, q(A_1 + ... + A_k))
    of :func:`packed_sumset`, decoded, with no ``Fraction`` built.  One
    summand taken once is not packed."""
    dim, q, summands = _summands(sets, "a sumset")
    if summands[0][1] == len(summands) == 1:
        return PointSet._raw(dim, q, summands[0][0])
    return PointSet._raw(dim, q, _decode(*_integral_fold(summands)))


def iterated_sumset(A: PointSet, k: int) -> PointSet:
    """kA = A + ... + A (k summands): the summand A of multiplicity k, so a k
    other than a positive ``int`` raises ``ValueError``."""
    return minkowski_sum({A: k})


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def _integer_row(v: Sequence[Coord]) -> tuple[int, list[int]]:
    """(q, q v) for q the lcm of the denominators of v: the smallest positive
    multiple of v with integral entries."""
    q = math.lcm(*(c.denominator for c in v))
    return q, [c.numerator * (q // c.denominator) for c in v]


def _echelon_extend(
    rows: list[tuple[int, list[int]]], vectors: Iterable[list[int]], cap: int
) -> Iterator[list[int]]:
    """Add integer vectors to the echelon basis ``rows``, one at a time, and
    yield each row kept; stop once ``rows`` holds ``cap`` rows, without
    reading another vector.

    ``rows`` holds (pivot column, primitive integer row) pairs in echelon
    order: every row is zero at the pivots of the rows before it.  Each
    vector w is reduced against them in one pass, in that order, by
    p w - w[c] row for the pivot p = row[c], so it ends zero at every kept
    pivot and no ``Fraction`` is built.  A nonzero remainder is divided by
    the gcd of its entries and kept, with its first nonzero column as pivot.
    ``vectors`` is read lazily, so a caller may append to the list it
    iterates while the rows are yielded."""
    if len(rows) == cap:
        return
    for w in vectors:
        for c, row in rows:
            f = w[c]
            if f:
                p = row[c]
                w = [p * x - f * y for x, y in zip(w, row)]
        if any(w):
            g = math.gcd(*w)
            if g != 1:
                w = [x // g for x in w]
            rows.append((next(itertools.compress(itertools.count(), w)), w))
            yield w
            if len(rows) == cap:
                return


def _eliminate(rows: list[list[int]], width: int) -> tuple[list[int], int]:
    """(pivot columns, signed last pivot) of an integer matrix by fraction-free
    Gauss-Jordan elimination (Bareiss), done in place on ``rows``.

    The step on a pivot p in column c replaces every other row r by
    (p r - r[c] pivot_row) / p', for p' the previous pivot (1 at the start).
    After each step every entry is a minor of the input, so the division is
    exact (Sylvester's identity), entries grow only polynomially and no
    ``Fraction`` is built.  At the end the pivot rows come first, in pivot
    order, the other rows are zero, and every pivot row holds the last pivot
    at its pivot column and 0 at the others.  The last pivot is the leading
    minor of the pivot rows and columns; its sign is flipped once per row
    swap, so for a square matrix of full rank it is the determinant."""
    pivots: list[int] = []
    rank, previous, sign = 0, 1, 1
    for col in range(width):
        if rank == len(rows):
            break
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            sign = -sign
        pivot_vals = rows[rank]
        pivot = pivot_vals[col]
        for r, row in enumerate(rows):
            if r != rank:
                factor = row[col]
                rows[r] = [(pivot * x - factor * y) // previous for x, y in zip(row, pivot_vals)]
        pivots.append(col)
        previous = pivot
        rank += 1
    return pivots, sign * previous


def rref(rows: Iterable[Sequence[Coord]], width: int) -> tuple[list[list[Coord]], list[int]]:
    """Reduced row echelon form over Q. Returns (nonzero rows, pivot columns).

    Each row is scaled to integers on its own, which keeps the row space, and
    so the RREF, which is unique; :func:`_eliminate` reduces the scaled rows,
    and each pivot row is divided once by its own pivot entry.  Integral
    entries come back as ``int``."""
    mat = [_integer_row(r)[1] for r in rows]
    pivots, _ = _eliminate(mat, width)
    out = []
    for row, col in zip(mat, pivots):
        p = row[col]
        out.append([x // p if x % p == 0 else Fraction(x, p) for x in row])
    return out, pivots


def kernel_basis(rows: Iterable[Sequence[Coord]], width: int) -> list[Vec]:
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    red, pivots = rref(rows, width)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * width
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = _canon(-red[r][f])
        basis.append(tuple(v))
    return basis


class RationalMatrix:
    """Square matrix over Q (rows of canonical coordinates)."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows: Iterable[Sequence]):
        rows = tuple(tuple(as_coord(c) for c in r) for r in rows)
        if not rows:
            raise ValueError("matrix needs at least one row")
        d = len(rows)
        if any(len(r) != d for r in rows):
            raise DimensionMismatchError("matrix must be square")
        self.dim = d
        self.rows = rows

    @classmethod
    def identity(cls, d: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(d)] for i in range(d)])

    def mat_vec(self, v: Vec) -> Vec:
        return tuple(_canon(sum(a * x for a, x in zip(row, v))) for row in self.rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.dim != other.dim:
            raise DimensionMismatchError("matrix dimensions differ")
        cols = list(zip(*other.rows))
        return RationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.dim != other.dim:
            raise DimensionMismatchError("matrix dimensions differ")
        return RationalMatrix([[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __rmul__(self, c) -> "RationalMatrix":
        """The scalar multiple c M, for an int or Fraction c."""
        c = as_coord(c)
        return RationalMatrix([[c * x for x in row] for row in self.rows])

    def poly(self, coeffs: Sequence) -> "RationalMatrix":
        """p(M) by Horner's rule, for p with ``coeffs`` highest-first (no
        coefficients: the zero polynomial)."""
        identity = RationalMatrix.identity(self.dim)
        acc = 0 * identity
        for c in coeffs:
            acc = acc @ self + c * identity
        return acc

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(list(zip(*self.rows)))

    def det(self) -> Coord:
        """The determinant, by :func:`_eliminate` on the matrix with row i
        scaled to integers by q_i (:func:`_integer_row`): the signed last
        pivot is q_1 ... q_d det M."""
        qs, scaled = zip(*map(_integer_row, self.rows))
        pivots, pivot = _eliminate(list(scaled), self.dim)
        if len(pivots) < self.dim:
            return 0
        q = math.prod(qs)
        return pivot if q == 1 else _canon(Fraction(pivot, q))

    def inverse(self) -> "RationalMatrix":
        d = self.dim
        aug = [list(row) + [1 if i == j else 0 for j in range(d)] for i, row in enumerate(self.rows)]
        red, pivots = rref(aug, 2 * d)
        if len(red) < d or pivots[:d] != list(range(d)):
            raise SingularMatrixError("matrix is singular")
        return RationalMatrix([row[d:] for row in red[:d]])

    def is_identity(self) -> bool:
        return all(
            self.rows[i][j] == (1 if i == j else 0)
            for i in range(self.dim)
            for j in range(self.dim)
        )

    def is_integral(self) -> bool:
        return all(type(c) is int for row in self.rows for c in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"RationalMatrix({list(list(r) for r in self.rows)!r})"


def linear_image(M: RationalMatrix, A: PointSet) -> PointSet:
    """M(A) = {M p : p in A}, in integers: with r the lcm of the denominators
    of M, the image is (q r)^-1 {(r M) p : p in qA}, taken with ``int`` dot
    products."""
    if M.dim != A.dim:
        raise DimensionMismatchError("matrix and set dimensions differ")
    r = math.lcm(*(c.denominator for row in M.rows for c in row))
    rows = [[c.numerator * (r // c.denominator) for c in row] for row in M.rows]
    return PointSet._raw(
        A.dim, A.q * r, frozenset(tuple([sum(map(mul, row, p)) for row in rows]) for p in A.scaled)
    )


class LinearSystem:
    """An ordered family (L_1, ..., L_k) of invertible rational d x d maps."""

    __slots__ = ("dim", "maps")

    def __init__(self, maps: Iterable[RationalMatrix]):
        maps = tuple(maps)
        if not maps:
            raise ValueError("a linear system needs at least one map")
        dims = {M.dim for M in maps}
        if len(dims) != 1:
            raise DimensionMismatchError("maps of mixed dimension")
        for i, M in enumerate(maps):
            if M.det() == 0:
                raise SingularMatrixError(f"map {i + 1} is singular")
        self.dim = dims.pop()
        self.maps = maps

    @property
    def k(self) -> int:
        return len(self.maps)

    def normalized_tail(self) -> list[RationalMatrix]:
        """[L_1^{-1} L_j for j >= 2]: the family whose common invariant
        subspaces are exactly the (U, L_1(U)) witnesses of reducibility."""
        inv = self.maps[0].inverse()
        return [inv @ M for M in self.maps[1:]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearSystem):
            return NotImplemented
        return self.maps == other.maps

    def __repr__(self) -> str:
        return f"LinearSystem(dim={self.dim}, k={self.k})"


def weighted_sumset(system: LinearSystem, A: PointSet) -> PointSet:
    """L_1(A) + L_2(A) + ... + L_k(A)."""
    if system.dim != A.dim:
        raise DimensionMismatchError("system and set dimensions differ")
    return minkowski_sum([linear_image(M, A) for M in system.maps])


class Basis:
    """An ordered basis (b_1, ..., b_d) of Q^d."""

    __slots__ = ("dim", "vectors", "matrix", "_inv")

    def __init__(self, vectors: Iterable[Sequence]):
        vecs = tuple(tuple(as_coord(c) for c in v) for v in vectors)
        d = len(vecs)
        if d == 0 or any(len(v) != d for v in vecs):
            raise DimensionMismatchError("need d vectors of length d")
        self.dim = d
        self.vectors = vecs
        # columns of the change-of-basis matrix are the basis vectors
        self.matrix = RationalMatrix(list(zip(*vecs)))
        if self.matrix.det() == 0:
            raise SingularMatrixError("basis vectors are dependent")
        self._inv = None

    @classmethod
    def standard(cls, d: int) -> "Basis":
        return cls([[1 if i == j else 0 for j in range(d)] for i in range(d)])

    @property
    def inverse_matrix(self) -> RationalMatrix:
        if self._inv is None:
            self._inv = self.matrix.inverse()
        return self._inv

    def is_standard(self) -> bool:
        return self.matrix.is_identity()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Basis):
            return NotImplemented
        return self.vectors == other.vectors

    def __repr__(self) -> str:
        return f"Basis({[list(v) for v in self.vectors]!r})"


class Subspace:
    """A linear subspace of Q^d in canonical reduced-row-echelon form."""

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, rows: Iterable[Sequence]):
        rows = [as_vec(r, ambient_dim) for r in rows]
        red, _ = rref(rows, ambient_dim)
        self.ambient_dim = ambient_dim
        self.rows = tuple(map(tuple, red))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [])

    @classmethod
    def span(cls, vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, vectors)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence) -> Vec:
        """Canonical coset representative of v modulo this subspace."""
        w = list(as_vec(v, self.ambient_dim))
        for row in self.rows:
            pc = next(i for i, x in enumerate(row) if x != 0)
            coeff = w[pc]
            if coeff != 0:
                for i, x in enumerate(row):
                    if x != 0:
                        w[i] = _canon(w[i] - coeff * x)
        return tuple(w)

    def contains_vector(self, v: Sequence) -> bool:
        return is_zero_vec(self.reduce(v))

    def annihilator(self) -> "Subspace":
        """{x : <u, x> = 0 for all u in this subspace}."""
        return Subspace(self.ambient_dim, kernel_basis(self.rows, self.ambient_dim))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} in Q^{self.ambient_dim})"


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------


def affine_dimension(A: PointSet) -> int:
    """Dimension of the affine hull of A (0 for a single point): the rank of
    the differences to one point.  Each difference is added to an echelon
    basis by :func:`_echelon_extend`, which stops as soon as the
    rank reaches d, so a full-dimensional set is usually decided by its first
    d + 1 points.  The differences are taken in qA, which has the affine
    dimension of A."""
    pts = iter(A.scaled)
    anchor = next(pts)
    differences = (list(map(sub, p, anchor)) for p in pts)
    return sum(1 for _ in _echelon_extend([], differences, A.dim))


def project(A: PointSet, basis: Basis | None, coords: Iterable[int]) -> PointSet:
    """Image of A under the projection onto span{b_i : i in coords} that kills
    the complementary basis vectors.  ``coords`` is 1-based; the result keeps
    ambient dimension d (projection of everything to 0 when coords is empty).
    """
    d = A.dim
    if basis is not None and basis.dim != d:
        raise DimensionMismatchError("basis and set dimensions differ")
    index_set = set(coords)
    if not index_set <= set(range(1, d + 1)):
        raise ValueError(f"projection coordinates must lie in 1..{d}")
    if basis is None or basis.is_standard():
        if d == 1:  # itemgetter of one index returns the item, not a 1-tuple
            return A if index_set else PointSet._raw(d, 1, frozenset({(0,)}))
        # index d picks the 0 appended to each point of qA
        keep = itemgetter(*(i if i + 1 in index_set else d for i in range(d)))
        return PointSet._raw(d, A.q, frozenset(map(keep, map(add, A.scaled, itertools.repeat((0,))))))
    mask = [1 if (i + 1) in index_set else 0 for i in range(d)]
    D = RationalMatrix([[mask[i] if i == j else 0 for j in range(d)] for i in range(d)])
    return linear_image(basis.matrix @ D @ basis.inverse_matrix, A)


def max_fiber(A: PointSet, U: Subspace) -> int:
    """Largest intersection of A with a single coset x + U."""
    if U.ambient_dim != A.dim:
        raise DimensionMismatchError("subspace and set dimensions differ")
    counts: dict[Vec, int] = {}
    for p in A.points:
        key = U.reduce(p)
        counts[key] = counts.get(key, 0) + 1
    return max(counts.values())


def covering_number(A: PointSet, direction: Sequence) -> int:
    """Number of lines parallel to ``direction`` needed to cover a planar set."""
    if A.dim != 2:
        raise DimensionMismatchError("covering_number is defined for dimension 2")
    v = as_vec(direction, 2)
    if is_zero_vec(v):
        raise ValueError("direction must be nonzero")
    # the functional (-v2, v1) is constant exactly on lines parallel to v;
    # equal values collide in the set whatever their type, since
    # Fraction(2, 1) == 2 and hashes alike, so none is canonicalised
    a, b = -v[1], v[0]
    return len({a * x + b * y for x, y in A.points})
