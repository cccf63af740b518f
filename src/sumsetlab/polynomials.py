"""Characteristic polynomials and factoring over Q, in exact integer arithmetic.

A polynomial is a list of ``int`` coefficients, highest degree first, with no
leading zeros; the zero polynomial is ``[]``.  Modular helpers take the
modulus m and return coefficients in range(m).

* :func:`charpoly` runs Berkowitz's division-free algorithm (1984) on the
  integer matrix qM, for q the lcm of M's denominators.
* :func:`factor` factors a polynomial over Z, and so over Q, by the
  Zassenhaus method (1969): Yun's squarefree decomposition; for each
  squarefree part, a factoring modulo a small prime p (distinct-degree
  factoring, then Cantor-Zassenhaus (1981) splitting, drawn from a fixed
  splitmix64 stream so it is deterministic); Hensel lifting of that factoring
  to p^l past twice the Mignotte bound; and recombination of the lifted
  factors by subsets of increasing size, each candidate kept only if it
  divides exactly.  No integer is ever factored.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, count
from operator import mul
from typing import Iterator, Sequence

from .generators import _uniform_draws, splitmix64_stream

Poly = list[int]


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------


def charpoly(rows: Sequence[Sequence[int | Fraction]]) -> Poly:
    """q^d charpoly_M(x) for the d x d rational matrix M with the given rows,
    q the lcm of its denominators: an integer polynomial with the factors of
    charpoly_M and leading coefficient q^d.

    Berkowitz: for the bottom-right block [[a, R], [C, A]] of qM, the
    characteristic polynomial is the Toeplitz product of the column
    (1, -a, -R C, -R A C, ..., -R A^(m-1) C), m = dim A, with that of A.  If
    c_i is the coefficient of x^(d-i) in charpoly_qM, then c_i q^(d-i) is the
    coefficient of x^(d-i) here."""
    d = len(rows)
    q = math.lcm(*(c.denominator for row in rows for c in row))
    A = [[c.numerator * (q // c.denominator) for c in row] for row in rows]
    poly = [1]
    for k in range(d - 1, -1, -1):
        R, sub = A[k][k + 1 :], [row[k + 1 :] for row in A[k + 1 :]]
        col, v = [1, -A[k][k]], [row[k] for row in A[k + 1 :]]
        for _ in range(d - 1 - k):
            col.append(-sum(map(mul, R, v)))
            v = [sum(map(mul, row, v)) for row in sub]
        poly = [sum(col[i - j] * poly[j] for j in range(min(i + 1, len(poly)))) for i in range(len(col))]
    return [c * q ** (d - i) for i, c in enumerate(poly)]


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------


def _strip(f: Poly) -> Poly:
    i = 0
    while i < len(f) and f[i] == 0:
        i += 1
    return f[i:]


def _add(f: Poly, g: Poly) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    n = len(f) - len(g)
    return _strip(f[:n] + [a + b for a, b in zip(f[n:], g)])


def _sub(f: Poly, g: Poly) -> Poly:
    return _add(f, [-c for c in g])


def _mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _derivative(f: Poly) -> Poly:
    n = len(f) - 1
    return _strip([c * (n - i) for i, c in enumerate(f[:-1])])


def _primitive(f: Poly) -> Poly:
    """f divided by its content, with a positive leading coefficient."""
    if not f:
        return f
    g = math.gcd(*f)
    if f[0] < 0:
        g = -g
    return [c // g for c in f]


def _exact_quotient(f: Poly, g: Poly) -> Poly | None:
    """The quotient f / g in Z[x] when g divides f there, else None."""
    r, n, q = list(f), len(g), []
    while len(r) >= n:
        c, rem = divmod(r[0], g[0])
        if rem:
            return None
        q.append(c)
        r = [x - c * y for x, y in zip(r[1:n], g[1:])] + r[n:]
    return None if any(r) else q


def _gcd(f: Poly, g: Poly) -> Poly:
    """The primitive gcd of two nonzero polynomials, with a positive leading
    coefficient, by primitive pseudo-remainder sequences."""
    f, g = _primitive(f), _primitive(g)
    while g:
        r, n, lc = f, len(g), g[0]
        while len(r) >= n:
            r = _strip([lc * x - r[0] * y for x, y in zip(r, g + [0] * (len(r) - n))][1:])
        f, g = g, _primitive(r)
    return f


def _squarefree_parts(f: Poly) -> list[tuple[Poly, int]]:
    """Yun's decomposition of a primitive f with positive leading coefficient:
    the nonconstant (a_i, i) with f = prod a_i^i, each a_i squarefree,
    primitive, with a positive leading coefficient, and pairwise coprime.

    Over Q: with a = gcd(f, f'), b = f / a and c = f' / a, each round takes
    a_i = gcd(b, c - b'), then b <- b / a_i and c <- (c - b') / a_i.  Every
    gcd is primitive, so by Gauss's lemma every quotient is integral."""
    df = _derivative(f)
    a = _gcd(f, df)
    b, c = _exact_quotient(f, a), _exact_quotient(df, a)
    parts, i = [], 1
    while len(b) > 1:
        d = _sub(c, _derivative(b))
        a = _gcd(b, d)
        if len(a) > 1:
            parts.append((a, i))
        b, c = _exact_quotient(b, a), _exact_quotient(d, a)
        i += 1
    return parts


# ---------------------------------------------------------------------------
# polynomials modulo m (a prime p, or a power of p during lifting); every
# leading coefficient divided by is a unit mod m
# ---------------------------------------------------------------------------


def _mod(f: Poly, m: int) -> Poly:
    return _strip([c % m for c in f])


def _divmod(f: Poly, g: Poly, m: int) -> tuple[Poly, Poly]:
    inv, n = pow(g[0], -1, m), len(g)
    r, q = list(f), []
    while len(r) >= n:
        c = r[0] * inv % m
        q.append(c)
        r = [(x - c * y) % m for x, y in zip(r[1:n], g[1:])] + r[n:]
    return q, _strip(r)


def _monic(f: Poly, m: int) -> Poly:
    inv = pow(f[0], -1, m)
    return [c * inv % m for c in f]


def _gcd_mod(f: Poly, g: Poly, p: int) -> Poly:
    """The monic gcd mod p (f nonzero)."""
    while g:
        f, g = g, _divmod(f, g, p)[1]
    return _monic(f, p)


def _gcdex_mod(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    """(s, t) with s f + t g = 1 mod p, for coprime f and g."""
    r0, r1, s0, s1, t0, t1 = f, g, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_sub(s0, _mul(q, s1)), p)
        t0, t1 = t1, _mod(_sub(t0, _mul(q, t1)), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _powmod(a: Poly, e: int, f: Poly, p: int) -> Poly:
    """a^e mod (f, p), by repeated squaring."""
    out, a = [1], _divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a), f, p)[1]
        e >>= 1
        if e:
            a = _divmod(_mul(a, a), f, p)[1]
    return out


def _distinct_degree(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """(g_k, k) with g_k the product of the irreducible factors of degree k
    of a monic squarefree f mod p; g_k = gcd(f, x^(p^k) - x) once the
    factors of lower degree are divided out."""
    out, h, k = [], [1, 0], 0
    while len(f) - 1 >= 2 * (k + 1):
        k += 1
        h = _powmod(h, p, f, p)
        g = _gcd_mod(f, _mod(_sub(h, [1, 0]), p), p)
        if len(g) > 1:
            out.append((g, k))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f: Poly, k: int, p: int, draws: Iterator[int]) -> list[Poly]:
    """The irreducible factors of a monic squarefree f mod p whose irreducible
    factors all have degree k (Cantor-Zassenhaus).  For a random a,
    b = a^((p^k - 1)/2) - 1 (for p = 2 the trace a + a^2 + ... + a^(2^(k-1)))
    vanishes modulo about half of the factors, so gcd(f, b) splits f."""
    n = len(f) - 1
    if n == k:
        return [f]
    while True:
        a = _strip([next(draws) for _ in range(n)])
        if len(a) < 2:
            continue
        if p == 2:
            b = t = a
            for _ in range(k - 1):
                t = _divmod(_mul(t, t), f, 2)[1]
                b = _mod(_sub(b, t), 2)
        else:
            b = _mod(_sub(_powmod(a, (p**k - 1) // 2, f, p), [1]), p)
        g = _gcd_mod(f, b, p)
        if 1 < len(g) < len(f):
            rest = _divmod(f, g, p)[0]
            return _equal_degree(g, k, p, draws) + _equal_degree(rest, k, p, draws)


# ---------------------------------------------------------------------------
# Hensel lifting and recombination
# ---------------------------------------------------------------------------


def _hensel_step(f: Poly, g: Poly, h: Poly, s: Poly, t: Poly, m: int):
    """From f = g h and s g + t h = 1 mod m, with h monic, the same mod m^2
    (von zur Gathen and Gerhard, Algorithm 15.10)."""
    M = m * m
    e = _mod(_sub(f, _mul(g, h)), M)
    q, r = _divmod(_mul(s, e), h, M)
    g = _mod(_add(_add(g, _mul(t, e)), _mul(q, g)), M)
    h = _mod(_add(h, r), M)
    b = _mod(_sub(_add(_mul(s, g), _mul(t, h)), [1]), M)
    c, d = _divmod(_mul(s, b), h, M)
    s = _mod(_sub(s, d), M)
    t = _mod(_sub(_sub(t, _mul(t, b)), _mul(c, g)), M)
    return g, h, s, t


def _hensel_lift(f: Poly, factors: list[Poly], p: int, l: int) -> list[Poly]:
    """Monic lifts mod p^l of the monic factors mod p of f, where
    f = lc(f) prod(factors) mod p and the factors are pairwise coprime: split
    the list in halves, lift that pair quadratically, then each half."""
    if len(factors) == 1:
        return [_monic(_mod(f, p**l), p**l)]
    k = len(factors) // 2
    g = [f[0] % p]
    for F in factors[:k]:
        g = _mod(_mul(g, F), p)
    h = [1]
    for F in factors[k:]:
        h = _mod(_mul(h, F), p)
    s, t = _gcdex_mod(g, h, p)
    m = p
    for _ in range((l - 1).bit_length()):
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _hensel_lift(g, factors[:k], p, l) + _hensel_lift(h, factors[k:], p, l)


def _recombine(f: Poly, lifted: list[Poly], modulus: int) -> list[Poly]:
    """The irreducible factors of f from its lifted factors: a subset S, in
    increasing size, gives the candidate lc(f) prod(S) in symmetric residues,
    kept when its primitive part divides f.  Once no subset of at most half
    the remaining factors does, the rest of f is irreducible."""
    found, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            cand = [f[0]]
            for i in subset:
                cand = _mod(_mul(cand, lifted[i]), modulus)
            cand = _primitive([c - modulus if 2 * c > modulus else c for c in cand])
            quotient = _exact_quotient(f, cand)
            if quotient is not None:
                found.append(cand)
                f = quotient
                lifted = [F for i, F in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def _primes() -> Iterator[int]:
    found: list[int] = []
    for n in count(2):
        if all(n % q for q in found):
            found.append(n)
            yield n


def _zassenhaus(f: Poly) -> list[Poly]:
    """The irreducible factors over Z of a squarefree primitive f with a
    positive leading coefficient.

    p is the smallest prime not dividing lc(f) that keeps f squarefree mod p.
    A single factor mod p proves f irreducible.  Otherwise the factors are
    lifted to p^l > 2 B, with B = |lc(f)| 2^n sqrt(n+1) max|f_i| bounding the
    coefficients of lc(f)/lc(g) g for every factor g of f (Mignotte), so a
    candidate's symmetric residues are its true coefficients."""
    n = len(f) - 1
    if n == 1:
        return [f]
    df = _derivative(f)
    p = next(p for p in _primes() if f[0] % p and len(_gcd_mod(_mod(f, p), _mod(df, p), p)) == 1)
    modular = []
    draws = _uniform_draws(splitmix64_stream(0xFAC70125), p)
    for g, k in _distinct_degree(_monic(_mod(f, p), p), p):
        modular += _equal_degree(g, k, p, draws)
    if len(modular) == 1:
        return [f]
    bound = 2 * abs(f[0]) * 2**n * (math.isqrt(n + 1) + 1) * max(map(abs, f))
    l = 1
    while p**l <= bound:
        l += 1
    return _recombine(f, _hensel_lift(f, modular, p, l), p**l)


def factor(f: Sequence[int]) -> list[tuple[Poly, int]]:
    """The irreducible factors over Q of a nonzero integer polynomial, as
    (primitive integer coefficients with a positive leading coefficient,
    multiplicity), sorted by (degree, multiplicity, coefficients).  A
    constant has none."""
    f = _primitive(_strip(list(f)))
    if len(f) < 2:
        return []
    out = [(g, i) for part, i in _squarefree_parts(f) for g in _zassenhaus(part)]
    return sorted(out, key=lambda gi: (len(gi[0]), gi[1], gi[0]))
