"""Verifiable certificates for inequalities between exact quantities.

Every check in the package returns a :class:`Certificate` oriented the same
way: the claim is ``lhs <= rhs`` and ``slack = rhs - lhs``, so the claim holds
iff the slack is non-negative.  Both sides are exact rationals or, when an
irrational quantity such as ``n**(1/d)`` is involved, a rational interval
guaranteed to contain the true value.  The verdict is

* ``Holds``          -- slack is provably >= 0,
* ``Violated``       -- slack is provably  < 0,
* ``Indeterminate``  -- the enclosing intervals still overlap zero at the
  precision cap (or the check declines to decide, e.g. an asymptotic probe
  at a single instance size).

The cap is the scoped limit :func:`precision_limit`, shaped like
:func:`~sumsetlab.core.sum_limit`; the command line enters one block per
command with ``--precision-cap``.

Interval endpoints are Fractions with power-of-two denominators produced by
the integer d-th root :func:`int_nth_root` (``math.isqrt`` and integer
Newton), so a certificate can be replayed and re-verified with integer
arithmetic only.

A certificate also pins its inputs by ``inputs_digest``, the sha256 of their
canonical JSON (:func:`digest`).  Checks hand over the inputs themselves, and
the hash is computed the first time ``inputs_digest`` is read (by
:meth:`Certificate.to_dict`, and so by every JSON or CSV output), at most once
per certificate.  A suite that only reads verdicts never hashes.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator

from .core import PointSet
from .serialization import encode_coord, pointset_to_dict

HOLDS = "Holds"
VIOLATED = "Violated"
INDETERMINATE = "Indeterminate"

DEFAULT_PRECISION_CAP = 4096
MIN_PRECISION_CAP = 128
# The precision cap of interval escalation, in bits; see precision_limit.
_PRECISION_CAP: contextvars.ContextVar[int] = contextvars.ContextVar(
    "precision_limit", default=DEFAULT_PRECISION_CAP
)


@contextlib.contextmanager
def precision_limit(bits: int) -> Iterator[None]:
    """Within the block, interval escalation stops at ``bits`` bits.  A cap
    below 128 raises ValueError on entry.  On exit the previous cap is
    restored; outside any block it is ``DEFAULT_PRECISION_CAP``."""
    if bits < MIN_PRECISION_CAP:
        raise ValueError(f"precision cap must be at least {MIN_PRECISION_CAP} bits, got {bits}")
    token = _PRECISION_CAP.set(bits)
    try:
        yield
    finally:
        _PRECISION_CAP.reset(token)


def precision_schedule() -> Iterator[int]:
    """Yield 128, 256, 512, ... up to and including the cap of the enclosing
    :func:`precision_limit` block."""
    cap = _PRECISION_CAP.get()
    bits = MIN_PRECISION_CAP
    while True:
        yield bits
        if bits >= cap:
            return
        bits = min(bits * 2, cap)


@dataclass(frozen=True)
class Interval:
    """Closed rational interval [lo, hi] containing an exact real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> "Interval":
        f = Fraction(x)
        return cls(f, f)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def power(self, n: int) -> "Interval":
        """[lo, hi]^n for non-negative intervals and n >= 0."""
        if self.lo < 0:
            raise ValueError("power is only implemented for non-negative intervals")
        if n < 0:
            raise ValueError("exponent must be non-negative")
        return Interval(self.lo ** n, self.hi ** n)

    def le(self, other: "Interval") -> bool | None:
        """Three-valued ``self <= other``: True / False / None (undecided)."""
        if self.hi <= other.lo:
            return True
        if self.lo > other.hi:
            return False
        return None

    def width(self) -> Fraction:
        return self.hi - self.lo


def int_nth_root(n: int, d: int) -> tuple[int, bool]:
    """(floor(n ** (1/d)), whether n is a perfect d-th power) for n >= 0 and
    d >= 1, in integer arithmetic.

    d = 2 is ``math.isqrt``.  For d >= 3, integer Newton starts at
    x = 2**ceil(bitlen(n) / d), which exceeds n ** (1/d), and steps to
    ((d-1) x + n // x**(d-1)) // d while that decreases.  Each step is at
    least floor(n ** (1/d)) by the AM-GM inequality, and it decreases
    whenever x ** d > n, so the last x is the floor.
    """
    if d == 1 or n < 2:
        return n, True
    if d == 2:
        root = math.isqrt(n)
    else:
        root = 1 << -(-n.bit_length() // d)
        while True:
            step = ((d - 1) * root + n // root ** (d - 1)) // d
            if step >= root:
                break
            root = step
    return root, root ** d == n


def int_nth_root_interval(n: int, d: int, bits: int) -> Interval:
    """Certified enclosure of n**(1/d) with width at most 2**-bits.

    Perfect d-th powers yield a degenerate (point) interval.  Otherwise the
    lower endpoint is floor((n * 2**(bits*d)) ** (1/d)) / 2**bits, which is
    exact integer arithmetic via :func:`int_nth_root`.
    """
    if n < 0:
        raise ValueError("radicand must be non-negative")
    if d < 1:
        raise ValueError("root degree must be >= 1")
    if n == 0:
        return Interval.point(0)
    root, exact = int_nth_root(n, d)
    if exact:
        return Interval.point(root)
    scaled, _ = int_nth_root(n << (bits * d), d)
    lo = Fraction(scaled, 1 << bits)
    return Interval(lo, lo + Fraction(1, 1 << bits))


def _encode_value(v) -> object:
    """JSON form of a certificate value: numbers as ``encode_coord`` strings,
    a PointSet as ``{"dim": "<d>", "points": [...]}`` in canonical order."""
    if isinstance(v, Interval):
        return {
            "lo": _encode_value(v.lo),
            "hi": _encode_value(v.hi),
        }
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, Fraction)):
        return encode_coord(v)
    if isinstance(v, str):
        return v
    if isinstance(v, PointSet):
        return {"dim": encode_coord(v.dim), "points": pointset_to_dict(v)["points"]}
    if isinstance(v, (list, tuple)):
        return [_encode_value(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _encode_value(x) for k, x in v.items()}
    if v is None:
        return None
    raise TypeError(f"cannot encode {type(v).__name__} in a certificate")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    """sha256 of the canonical JSON encoding; used to pin certificate inputs.
    Checks pass their inputs as they are, e.g. ``inputs=[A, {"k": k}]``."""
    return hashlib.sha256(canonical_json(_encode_value(obj)).encode()).hexdigest()


def _snapshot(obj):
    """A copy of the dicts, lists and tuples in ``obj``, sharing every other
    value, so later changes to a caller's containers cannot change a digest;
    point sets, numbers and strings are not changed in place."""
    if isinstance(obj, dict):
        return {k: _snapshot(x) for k, x in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_snapshot(x) for x in obj]
    return obj


@dataclass(frozen=True)
class Certificate:
    """A checked instance of an inequality ``lhs <= rhs``.

    ``lhs``/``rhs``/``slack`` are ints, Fractions, or Intervals.  ``params``
    records the instance (sizes, exponents, ...) so the certificate is
    self-describing; ``witnesses`` carries counterexample data on violation.
    ``inputs`` holds what the check was applied to, as taken at construction;
    ``inputs_digest`` is its :func:`digest`, computed when first read.
    """

    statement_id: str
    lhs: object
    rhs: object
    slack: object
    verdict: str
    params: dict | None = None
    witnesses: dict | None = None
    precision_bits: int | None = None
    inputs: object = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", _snapshot(self.inputs))

    @cached_property
    def inputs_digest(self) -> str | None:
        return None if self.inputs is None else digest(self.inputs)

    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_dict(self) -> dict:
        out = {
            "statement_id": self.statement_id,
            "lhs": _encode_value(self.lhs),
            "rhs": _encode_value(self.rhs),
            "slack": _encode_value(self.slack),
            "verdict": self.verdict,
        }
        if self.params is not None:
            out["params"] = _encode_value(self.params)
        if self.witnesses is not None:
            out["witnesses"] = _encode_value(self.witnesses)
        if self.precision_bits is not None:
            out["precision_bits"] = self.precision_bits
        if self.inputs_digest is not None:
            out["inputs_digest"] = self.inputs_digest
        return out


def exact_certificate(
    statement_id: str,
    lhs,
    rhs,
    *,
    params: dict | None = None,
    witnesses: dict | None = None,
    inputs: object = None,
) -> Certificate:
    """Certificate for exact rational lhs and rhs (no intervals involved)."""
    slack = rhs - lhs
    verdict = HOLDS if slack >= 0 else VIOLATED
    return Certificate(
        statement_id=statement_id,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        verdict=verdict,
        params=params,
        witnesses=None if verdict == HOLDS else witnesses,
        inputs=inputs,
    )


def interval_certificate(
    statement_id: str,
    make_sides,
    *,
    params: dict | None = None,
    witnesses: dict | None = None,
    inputs: object = None,
) -> Certificate:
    """Certificate for sides needing root enclosures, with escalation.

    ``make_sides(bits)`` must return ``(lhs, rhs)`` as Intervals computed at
    the given precision.  Precision doubles from 128 bits until the comparison
    is decided or the cap of :func:`precision_limit` is reached; an undecided
    comparison at the cap is reported as ``Indeterminate`` (never guessed).
    """
    for bits in precision_schedule():
        lhs, rhs = make_sides(bits)
        decided = lhs.le(rhs)
        if decided is not None:
            break
    verdict = INDETERMINATE if decided is None else HOLDS if decided else VIOLATED
    return Certificate(
        statement_id=statement_id,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        verdict=verdict,
        params=params,
        witnesses=witnesses if verdict == VIOLATED else None,
        precision_bits=bits,
        inputs=inputs,
    )
