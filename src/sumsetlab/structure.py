"""Invariant-subspace structure of linear systems.

Q-irreducibility
----------------
A system (L_1, ..., L_k) of invertible maps is reducible when there are
nontrivial subspaces U, V of equal dimension with L_i(U) <= V for all i.
Since the L_i are invertible this forces V = L_1(U) and reduces to: U is a
common invariant subspace of the normalized family M_j = L_1^{-1} L_j.  The
decision runs the same stages for every d >= 2, in order:

1. *Invariant line.*  span(u) is invariant iff u is a common eigenvector,
   whose eigenvalues are then rational, so enumerating tuples of rational
   eigenvalues and intersecting the stacked kernels ker(M_j - t_j I) finds
   every invariant line.  A map without a rational eigenvalue ends it.
2. *Invariant hyperplane* (d >= 3).  U is invariant under the M_j iff its
   annihilator is invariant under the transposes: the line search on the
   transposes, with the maps' eigenvalues (M^tr has M's charpoly).
3. *Irreducible if d <= 3:* every proper subspace is a line or hyperplane.
4. *Norton's criterion,* over a fixed schedule of algebra elements T.
   Shortcut: if T has irreducible characteristic polynomial, the module is
   irreducible, since an invariant U would give charpoly(T|_U) | charpoly(T)
   of degree dim U, impossible.  Otherwise, for an irreducible factor p of
   charpoly(T) with nullity(p(T)) = deg(p):  pick any 0 != v in ker p(T) and
   0 != w in ker p(T^tr).  Let Z(u) be the smallest invariant subspace
   containing u.  If Z(v) is proper, reducible.  Else if the
   transpose-spin Z*(w) is proper, its annihilator is a proper invariant
   subspace, reducible.  Else the module is irreducible.  Completeness: let
   U be a proper nontrivial invariant subspace; T preserves U.  Either p
   divides charpoly(T|_U) -- then N = ker p(T) meets U, and N is a
   1-dimensional vector space over F[x]/(p) (its F-dimension equals deg p),
   so the nonzero T-invariant subspace N n U is all of N, giving
   v in N <= U and Z(v) <= U proper; or p does not divide charpoly(T|_U) --
   then p divides the characteristic polynomial of T on the quotient, and
   dually p(T^tr) kills a nonzero vector of the invariant subspace
   U^perp, forcing w in U^perp and Z*(w) <= U^perp proper.  Either way one
   of the two spins detects U.
5. *Cyclic scan, when no schedule element admits a factor with nullity =
   degree.*  Spin candidate vectors u (standard basis, rational
   eigenvectors of each M_j, seeded pseudorandom vectors) to Z(u); any
   proper Z(u) is a witness.
6. *Unknown* when the scan finds none (reported, never silent).

Every Reducible verdict is re-validated through :func:`is_reducible_witness`
before it is returned.

Characteristic polynomials and their factors over Q come from
:mod:`sumsetlab.polynomials`: Berkowitz's division-free algorithm on the
integer matrix qM, then Zassenhaus factoring (a squarefree decomposition,
Cantor-Zassenhaus modulo a small prime, Hensel lifting and recombination by
exact division), at most once per matrix and decision.  Rational
eigenvalues are the roots of the linear factors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Iterable, Iterator

from .core import (
    Coord,
    DimensionMismatchError,
    LinearSystem,
    RationalMatrix,
    Subspace,
    Vec,
    ensure,
    is_zero_vec,
    kernel_basis,
    _canon,
    _echelon_extend,
    _integer_row,
)
from .generators import splitmix64_stream, _uniform_draws
from .polynomials import charpoly, factor
from .serialization import encode_point

IRREDUCIBLE = "Irreducible"
REDUCIBLE = "Reducible"
UNKNOWN = "Unknown"
COPRIME = "Coprime"


@dataclass(frozen=True)
class IrreducibilityVerdict:
    status: str
    witness: Subspace | None = None

    def to_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.witness is not None:
            out["witness"] = {
                "ambient_dim": self.witness.ambient_dim,
                "echelon_basis": [encode_point(r) for r in self.witness.rows],
            }
        return out


def is_reducible_witness(system: LinearSystem, U: Subspace) -> bool:
    """True iff U is invariant under every M_j = L_1^{-1} L_j.

    Such a U witnesses reducibility of (L_1, ..., L_k): take V = L_1(U); then
    L_j(U) = L_1(M_j(U)) <= L_1(U) = V for all j, with dim V = dim U.
    """
    if U.ambient_dim != system.dim:
        raise DimensionMismatchError("subspace and system dimensions differ")
    if not 1 <= U.dim < system.dim:
        raise ValueError("witness must be a nontrivial proper subspace")
    for M in system.normalized_tail():
        for row in U.rows:
            if not U.contains_vector(M.mat_vec(row)):
                return False
    return True


# ---------------------------------------------------------------------------
# spinning and algebra elements
# ---------------------------------------------------------------------------


def _spin(seeds: list[Vec], mats: list[RationalMatrix], d: int) -> Subspace:
    """Smallest subspace containing the seeds and invariant under the maps.

    The seeds, scaled to integers, go through :func:`core._echelon_extend`,
    the reduction that :func:`core.affine_dimension` runs, and the images of
    each row it keeps are queued behind them; the scan ends when the queue
    does or the rank reaches d.  The :class:`Subspace` (one rref) is built
    once, at the end; the subspace is unique, so its rref does not depend on
    the order in which the vectors were reduced."""
    rows: list[tuple[int, list[int]]] = []
    pending = [_integer_row(v)[1] for v in seeds]
    for w in _echelon_extend(rows, pending, d):
        pending.extend(_integer_row(M.mat_vec(w))[1] for M in mats)
    return Subspace(d, [row for _, row in rows])


def _charpoly_factors(M: RationalMatrix) -> list[tuple[list[int], int]]:
    """Irreducible factors of charpoly(M) over Q as (coefficients, degree),
    coefficients primitive integers, highest-first, in the order of
    :func:`polynomials.factor`."""
    return [(coeffs, len(coeffs) - 1) for coeffs, _ in factor(charpoly(M.rows))]


def _candidate_vectors(maps: Iterable[tuple[RationalMatrix, list[Coord]]], d: int) -> list[Vec]:
    cands: list[Vec] = [
        tuple(1 if j == i else 0 for j in range(d)) for i in range(d)
    ]
    for M, evs in maps:
        for lam in evs:
            cands.extend(kernel_basis(M.poly([1, -lam]).rows, d))
    draws = _uniform_draws(splitmix64_stream(0x5EED5E7), 7)
    for _ in range(64):
        v = tuple(next(draws) - 3 for _ in range(d))
        if not is_zero_vec(v):
            cands.append(v)
    return cands


def _random_element(mats: list[RationalMatrix], draws: Iterator[int], d: int) -> RationalMatrix:
    """c_0 I + c_1 M_1 + ... + c_k M_k with each c_i drawn from -2..2."""
    acc = (next(draws) - 2) * RationalMatrix.identity(d)
    for M in mats:
        c = next(draws) - 2
        if c:
            acc = acc + c * M
    return acc


def _element_schedule(mats: list[RationalMatrix], d: int) -> Iterator[RationalMatrix]:
    """Algebra elements tried by the Norton test, in a deterministic order and
    without repeats.  Each is built only when the next one is asked for."""
    products = (A @ B for i, A in enumerate(mats) for j, B in enumerate(mats) if i != j)
    sums = (A + B for i, A in enumerate(mats) for B in mats[i + 1 :])
    draws = _uniform_draws(splitmix64_stream(0xA16EB8A), 5)
    combinations = (_random_element(mats, draws, d) for _ in range(24))
    seen = set()
    for T in chain(mats, products, sums, combinations):
        if T.rows not in seen:
            seen.add(T.rows)
            yield T


def _norton_attempt(
    T: RationalMatrix, factors: list, mats: list[RationalMatrix], tmats: list[RationalMatrix], d: int
) -> IrreducibilityVerdict | None:
    """Run Norton's criterion with algebra element T, whose characteristic
    polynomial has the irreducible ``factors``; None if T is unusable."""
    for coeffs, deg in factors:
        if deg == d:
            # irreducible characteristic polynomial: no invariant subspace
            # can exist (its restricted charpoly would be a proper factor)
            return IrreducibilityVerdict(IRREDUCIBLE)
        pT = T.poly(coeffs)
        ker = kernel_basis(pT.rows, d)
        if len(ker) != deg:
            continue
        Z = _spin([ker[0]], mats, d)
        if Z.dim < d:
            return IrreducibilityVerdict(REDUCIBLE, Z)
        ker_t = kernel_basis(pT.transpose().rows, d)
        Zt = _spin([ker_t[0]], tmats, d)
        if Zt.dim < d:
            return IrreducibilityVerdict(REDUCIBLE, Zt.annihilator())
        return IrreducibilityVerdict(IRREDUCIBLE)
    return None


def _invariant_line(maps: Iterable[tuple[RationalMatrix, list[Coord]]], d: int) -> Subspace | None:
    """A line invariant under every map, or None; complete over Q.

    ``maps`` yields each map with its rational eigenvalues, and is read only
    up to the first map that has none.  Enumerates tuples of eigenvalues and
    intersects the stacked kernels of the M - lam I.
    """
    shifted = []
    for M, evs in maps:
        if not evs:
            return None
        shifted.append([M.poly([1, -lam]).rows for lam in evs])
    for combo in product(*shifted):
        ker = kernel_basis([row for rows in combo for row in rows], d)
        if ker:
            return Subspace(d, [ker[0]])
    return None


def _reducible(system: LinearSystem, witness: Subspace) -> IrreducibilityVerdict:
    """A Reducible verdict, after re-validating its witness."""
    ensure(is_reducible_witness(system, witness), "a Reducible witness failed re-validation")
    return IrreducibilityVerdict(REDUCIBLE, witness)


def decide_irreducible(system: LinearSystem) -> IrreducibilityVerdict:
    """Decide whether the system has a common nontrivial invariant rational
    subspace (after the L_1^{-1} normalization), by the stages of the module
    docstring.  Complete for d <= 3; for d >= 4 it can report Unknown."""
    d = system.dim
    if d == 1:
        return IrreducibilityVerdict(IRREDUCIBLE)
    mats = system.normalized_tail()
    if not mats:
        # a single invertible map: every line is invariant under the empty
        # normalized family, so (L_1) alone is always reducible for d >= 2
        return _reducible(system, Subspace(d, [tuple(1 if j == 0 else 0 for j in range(d))]))
    factors = functools.cache(_charpoly_factors)

    def eigenvalues(M: RationalMatrix) -> list[Coord]:
        return [_canon(Fraction(-c[1], c[0])) for c, deg in factors(M) if deg == 1]

    line = _invariant_line(zip(mats, map(eigenvalues, mats)), d)
    if line is not None:
        return _reducible(system, line)
    tmats = [M.transpose() for M in mats]
    if d > 2:
        dual_line = _invariant_line(zip(tmats, map(eigenvalues, mats)), d)
        if dual_line is not None:
            return _reducible(system, dual_line.annihilator())
    if d <= 3:
        return IrreducibilityVerdict(IRREDUCIBLE)
    for T in _element_schedule(mats, d):
        verdict = _norton_attempt(T, factors(T), mats, tmats, d)
        if verdict is not None:
            if verdict.status == REDUCIBLE:
                return _reducible(system, verdict.witness)
            return verdict
    for u in _candidate_vectors(zip(mats, map(eigenvalues, mats)), d):
        Z = _spin([u], mats, d)
        if 0 < Z.dim < d:
            return _reducible(system, Z)
    return IrreducibilityVerdict(UNKNOWN)


def coprime_sufficient(system: LinearSystem) -> str:
    """``Coprime`` if some |det L_i| = 1, else ``Unknown``.

    If |det L_i| = 1 then for any P, R with PL_iR integral,
    |det(P L_i R)| >= 1 gives |det P det R| >= 1, so the defining strict
    inequality 0 < |det P det R| < 1 is impossible.  The converse is not
    decided here: determinant larger than one does not certify
    non-coprimality.
    """
    for M in system.maps:
        if not M.is_integral():
            raise ValueError("coprimality criterion applies to integral systems only")
    if any(abs(M.det()) == 1 for M in system.maps):
        return COPRIME
    return UNKNOWN
