"""Hyperplane compressions, down sets, and reduction to the long simplex.

A compression is specified by a hyperplane H = {x : <n, x> = c} and a
direction v transversal to it (<n, v> != 0).  It slides each fiber of A along
a line parallel to v so the fiber becomes the first |fiber| lattice steps
u, u + v, ..., u + (m-1)v out of its base point u on H.  Compressions
preserve cardinality, never increase sumset sizes, and drive every
full-dimensional finite subset of Z^d toward the extremal long simplex.

``compress`` runs in integers: the set, the offset and the direction are
multiplied by the lcm q of their denominators, the normal and the offset by
the lcm of the normal's, and the fibers are keyed by |<n, v>| times their
base points.  The result is the point set in the form (q |<n, v>|, the
compressed integral points), so no ``Fraction`` is built.

Caution on dimensions: a single compression can *collapse* the affine hull
(e.g. {(0,0), (0,1), (1,2)} drops to a line under the x-axis compression
because all the y-values are distinct), but once a set has collapsed no
compression re-inflates it.  The reduction loop below therefore fires a move
only after checking the image is still full-dimensional.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Iterator

from .certificates import (
    HOLDS,
    VIOLATED,
    Certificate,
    exact_certificate,
)
from .core import (
    PointSet,
    Vec,
    affine_dimension,
    as_coord,
    as_vec,
    ensure,
    is_zero_vec,
    minkowski_sum,
    point_sort_key,
    project,
    sumset_size,
    vec_dot,
    vec_sub,
    _canon,
    _integer_row,
    _scaled,
)
from .generators import long_simplex
from .serialization import (
    decode_coord,
    decode_point,
    encode_coord,
    encode_point,
    pointset_to_dict,
)


class ReductionError(RuntimeError):
    """The reduction loop could not reach the long simplex."""


@dataclass(frozen=True)
class CompressionSpec:
    """Compression data: hyperplane {<normal, x> = offset} and direction.

    The direction must be transversal to the hyperplane.  The compression
    determined by (normal, offset, direction) only depends on the hyperplane
    up to translation along the direction: shifting the offset by
    mu * <normal, direction> shifts every output point by mu * direction.
    """

    normal: Vec
    offset: int | Fraction
    direction: Vec

    def __post_init__(self):
        d = len(self.normal)
        object.__setattr__(self, "normal", as_vec(self.normal, d))
        object.__setattr__(self, "offset", as_coord(self.offset))
        object.__setattr__(self, "direction", as_vec(self.direction, d))
        if is_zero_vec(self.normal):
            raise ValueError("normal must be nonzero")
        if vec_dot(self.normal, self.direction) == 0:
            raise ValueError("direction must be transversal to the hyperplane")

    @classmethod
    def axis(cls, i: int, d: int) -> "CompressionSpec":
        """The standard i-th axis compression (1-based): push fibers parallel
        to e_i down onto the coordinate hyperplane {x_i = 0}.  A bool or any
        other non-``int`` is no axis."""
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= d:
            raise ValueError(f"axis must be in 1..{d}")
        e = tuple(1 if j == i - 1 else 0 for j in range(d))
        return cls(normal=e, offset=0, direction=e)

    @property
    def dim(self) -> int:
        return len(self.normal)

    def axis_index(self) -> int | None:
        """1-based axis if this is exactly an axis compression, else None."""
        if self.offset != 0 or self.normal != self.direction:
            return None
        nonzero = [i for i, c in enumerate(self.normal) if c != 0]
        if len(nonzero) == 1 and self.normal[nonzero[0]] == 1:
            return nonzero[0] + 1
        return None

    def to_dict(self) -> dict:
        axis = self.axis_index()
        if axis is not None:
            return {"axis": axis}
        return {
            "hyperplane": {
                "normal": encode_point(self.normal),
                "offset": encode_coord(self.offset),
            },
            "direction": encode_point(self.direction),
        }

    @classmethod
    def from_dict(cls, data: dict, dim: int) -> "CompressionSpec":
        if "axis" in data:
            return cls.axis(data["axis"], dim)
        try:
            hyp = data["hyperplane"]
            return cls(
                normal=decode_point(hyp["normal"], dim),
                offset=decode_coord(hyp["offset"]),
                direction=decode_point(data["direction"], dim),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad compression spec {data!r}") from exc


def compress(A: PointSet, spec: CompressionSpec) -> PointSet:
    """Apply the compression to A.  Cardinality is always preserved.

    The work is done in integers.  With q the lcm of the denominators of A,
    the offset c and the direction v, compress(qA, (n, qc, qv)) =
    q compress(A, (n, c, v)), and scaling the normal n to integers together
    with the offset keeps the hyperplane.  On the scaled data a point a lies
    in the fiber whose key is |nv| a + sign(nv)(c - <n, a>) v, which is |nv|
    times the fiber's base point on the hyperplane, and the j-th point of the
    fiber is key + j |nv| v.  The result is stored as these points over
    q |nv|: no coordinate is divided.
    """
    if spec.dim != A.dim:
        raise ValueError("compression and set dimensions differ")
    c, v = spec.offset, spec.direction
    q, (points,) = _scaled([A], math.lcm(c.denominator, *(x.denominator for x in v)))
    r, n = _integer_row(spec.normal)
    c = c.numerator * (q * r // c.denominator)
    v = [x.numerator * (q // x.denominator) for x in v]
    nv = sum(map(mul, n, v))
    m = abs(nv)
    sv = v if nv > 0 else [-x for x in v]
    fibers: dict[Vec, int] = {}
    for a in points:
        t = c - sum(map(mul, n, a))
        key = tuple([m * x + t * y for x, y in zip(a, sv)])
        fibers[key] = fibers.get(key, 0) + 1
    step = [m * x for x in v]
    out = set()
    for point, count in fibers.items():
        out.add(point)
        for _ in range(count - 1):
            point = tuple(map(add, point, step))
            out.add(point)
    ensure(len(out) == len(A), "compression must preserve cardinality")
    return PointSet._raw(A.dim, q * m, frozenset(out))


def is_down_set(A: PointSet) -> bool:
    """True iff A is a finite order ideal of N^d (every axis fiber is an
    initial segment; equivalently A is fixed by all axis compressions)."""
    if not A.is_integral:
        return False
    if any(c < 0 for p in A.points for c in p):
        return False
    return all(
        compress(A, CompressionSpec.axis(i, A.dim)) == A for i in range(1, A.dim + 1)
    )


@dataclass(frozen=True)
class CompressionTrace:
    """Replayable record of a compression run: initial set, fired moves,
    final set.  ``translation`` is the shift applied to the caller's set
    before the first move (traces always start at a translated copy whose
    coordinatewise minima are zero)."""

    initial: PointSet
    steps: tuple[CompressionSpec, ...]
    final: PointSet
    translation: Vec

    def intermediates(self) -> list[PointSet]:
        """All states [initial, ..., final]; length = len(steps) + 1."""
        states = [self.initial]
        for spec in self.steps:
            states.append(compress(states[-1], spec))
        return states

    def replay(self) -> PointSet:
        """Re-run the recorded moves and verify the endpoint."""
        state = self.intermediates()[-1]
        if state != self.final:
            raise ReductionError("trace replay does not reproduce the final set")
        return state

    def to_dict(self) -> dict:
        return {
            "initial": pointset_to_dict(self.initial),
            "translation": encode_point(self.translation),
            "steps": [s.to_dict() for s in self.steps],
            "final": pointset_to_dict(self.final),
        }


# ---------------------------------------------------------------------------
# compression laws as certificates
# ---------------------------------------------------------------------------


def check_sum_monotone(sets: list[PointSet], spec: CompressionSpec) -> Certificate:
    """sum C(A_i) is contained in the compressed sumset, so its size cannot
    exceed |sum A_i|.  (The compression of the k-fold sum lives over the
    hyperplane with offset k * c, by the offset-shift rule.)"""
    if len(sets) < 1:
        raise ValueError("need at least one set")
    k = len(sets)
    compressed_sum = minkowski_sum([compress(A, spec) for A in sets])
    full_sum = minkowski_sum(sets)
    target_spec = spec if spec.offset == 0 or k == 1 else CompressionSpec(
        normal=spec.normal, offset=_canon(k * spec.offset), direction=spec.direction
    )
    compressed_target = compress(full_sum, target_spec)
    missing = compressed_sum.points - compressed_target.points
    lhs = len(compressed_sum)
    rhs = len(full_sum)
    params = {
        "k": k,
        "sizes": [len(A) for A in sets],
        "spec": spec.to_dict(),
    }
    inputs = [*sets, params["spec"]]
    if missing:
        witness = min(missing, key=point_sort_key)
        return Certificate(
            statement_id="sum_monotone",
            lhs=lhs,
            rhs=rhs,
            slack=rhs - lhs,
            verdict=VIOLATED,
            params=params,
            witnesses={"point_outside_compressed_sumset": encode_point(witness)},
            inputs=inputs,
        )
    cert = exact_certificate(
        "sum_monotone", lhs, rhs, params=params, inputs=inputs
    )
    # containment holds, and compression preserves cardinality, so slack >= 0
    ensure(cert.verdict == HOLDS, "a contained compressed sumset cannot be larger")
    return cert


def check_projection_monotone(sets: list[PointSet], axis: int, coords: list[int]) -> Certificate:
    """Coordinate projections of sums never grow under a shared axis
    compression: |pi_I(C_i(A_1) + ... + C_i(A_k))| <= |pi_I(A_1 + ... + A_k)|.

    Proof shape: pi_I(C_i(A)) sits inside C_i(pi_I(A)) fiberwise, sums of
    compressions sit inside the compression of the sum, and compression
    preserves cardinality.  When i is not in I both sides are equal.

    pi_I is linear, so pi_I(A_1 + ... + A_k) = pi_I(A_1) + ... + pi_I(A_k):
    both sides are counted by :func:`sumset_size` on the projected summands,
    and no sum is decoded.
    """
    if len(sets) < 1:
        raise ValueError("need at least one set")
    dim = sets[0].dim
    spec = CompressionSpec.axis(axis, dim)
    lhs = sumset_size([project(compress(A, spec), None, coords) for A in sets])
    rhs = sumset_size([project(A, None, coords) for A in sets])
    params = {
        "axis": axis,
        "coords": sorted(coords),
        "k": len(sets),
        "sizes": [len(A) for A in sets],
    }
    return exact_certificate(
        "projection_monotone", lhs, rhs, params=params, inputs=[*sets, params]
    )


# ---------------------------------------------------------------------------
# reduction to the long simplex
# ---------------------------------------------------------------------------


def _primitive_integer_direction(delta: Vec) -> Vec:
    """Scale a nonzero rational vector to a primitive integer vector."""
    _, scaled = _integer_row(delta)
    g = math.gcd(*scaled)
    return tuple(c // g for c in scaled)


def _alignment_spec(delta: Vec, d: int) -> CompressionSpec:
    """Compression along the primitive direction of ``delta``, anchored on the
    last coordinate hyperplane the direction crosses, oriented positively."""
    v = _primitive_integer_direction(delta)
    j = max(i for i, c in enumerate(v) if c != 0)
    if v[j] < 0:
        v = tuple(-c for c in v)
    normal = tuple(1 if i == j else 0 for i in range(d))
    return CompressionSpec(normal=normal, offset=0, direction=v)


def _shear_spec(j: int, w: int, d: int) -> CompressionSpec:
    """Compression with normal e_j and direction e_j - w e_1 (1-based j >= 2):
    on a down set with maximal first coordinate w it steepens the set toward
    the simplex without leaving N^d."""
    normal = tuple(1 if i == j - 1 else 0 for i in range(d))
    direction = tuple(
        1 if i == j - 1 else (-w if i == 0 else 0) for i in range(d)
    )
    return CompressionSpec(normal=normal, offset=0, direction=direction)


def _moves(state: PointSet, d: int) -> Iterator[tuple[CompressionSpec, PointSet]]:
    """The candidate moves of :func:`reduce_to_simplex` at ``state`` with
    their images, in schedule order: the axis compressions, then the shears
    if ``state`` is a down set and the pair alignments otherwise.  Each is
    built only when the previous one did not fire.  The down-set test of
    :func:`is_down_set` reads the axis images already computed: a down set
    is an integral, non-negative state fixed by every axis compression."""
    fixed = True
    for i in range(1, d + 1):
        spec = CompressionSpec.axis(i, d)
        image = compress(state, spec)
        fixed = fixed and image == state
        yield spec, image
    if fixed and state.is_integral and all(c >= 0 for p in state.points for c in p):
        w = max(p[0] for p in state.points)
        specs = (_shear_spec(j, w, d) for j in range(2, d + 1))
    else:
        pts = state.sorted_points()
        specs = (_alignment_spec(vec_sub(b, a), d) for a, b in itertools.combinations(pts, 2))
    for spec in specs:
        yield spec, compress(state, spec)


def reduce_to_simplex(A: PointSet, max_steps: int | None = None) -> tuple[PointSet, CompressionTrace]:
    """Drive a full-dimensional finite subset of Z^d to the long simplex on
    |A| points by dimension-preserving compressions.

    Move schedule, re-scanned from the top after every fired move (see
    :func:`_moves`); a move fires when it changes the set and keeps it
    full-dimensional:

    1. the first axis compression that fires;
    2. if the set is a down set: the first shear (normal e_j, direction
       e_j - w e_1 with w the maximal first coordinate) that fires;
    3. otherwise: the first pair-alignment compression (direction = primitive
       integer vector of a pairwise difference) that fires.  These may pass
       through rational intermediate states; the subsequent axis
       compressions restore integrality coordinate by coordinate.

    Every move preserves cardinality and never increases any sumset size, so
    the trace certifies |k * final| <= |k * A| step by step.  Raises
    :class:`ReductionError` if no move fires before reaching the target.
    """
    d = A.dim
    if max_steps is not None and max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    if not A.is_integral:
        raise ValueError("reduction needs an integral set")
    if affine_dimension(A) != d:
        raise ValueError("reduction needs a full-dimensional set")
    mins = tuple(min(p[i] for p in A.points) for i in range(d))
    translation = tuple(-m for m in mins)
    current = A.translate(translation)
    initial = current
    target = long_simplex(d, len(A))
    steps: list[CompressionSpec] = []
    if max_steps is None:
        max_steps = 200 * (len(A) + d) ** 2

    while current != target:
        if len(steps) >= max_steps:
            raise ReductionError(
                f"no convergence after {len(steps)} moves (|A|={len(A)}, d={d})"
            )
        for spec, nxt in _moves(current, d):
            if nxt != current and affine_dimension(nxt) == d:
                steps.append(spec)
                current = nxt
                break
        else:
            raise ReductionError(
                f"stalled after {len(steps)} moves at a non-simplex state "
                f"(|A|={len(A)}, d={d})"
            )
    trace = CompressionTrace(
        initial=initial, steps=tuple(steps), final=current, translation=translation
    )
    return current, trace
