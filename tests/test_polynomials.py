"""Characteristic polynomials and factoring over Q against sympy, and the
irreducibility decision against the sympy-backed oracle
``naive_charpoly_factors``."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from conftest import naive_charpoly_factors
from sumsetlab import decide_irreducible, random_system, structure
from sumsetlab.polynomials import charpoly, factor

x = sympy.Symbol("x")


def sympy_factor(coeffs):
    """``factor``'s answer as sympy gives it: ``Poly.factor_list()``'s factors
    and multiplicities, in its order."""
    _, factors = sympy.Poly(coeffs, x).factor_list()
    return [([int(c) for c in sympy.Poly(g, x).all_coeffs()], m) for g, m in factors]


def coefficients(expr):
    return [int(c) for c in sympy.Poly(sympy.expand(expr), x).all_coeffs()]


def random_matrix(rng, d):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)] for _ in range(d)]


class TestCharpoly:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_sympy(self, d):
        rng = random.Random(d)
        for _ in range(6):
            M = random_matrix(rng, d)
            q = math.lcm(*(c.denominator for row in M for c in row))
            expected = sympy.Matrix(d, d, lambda i, j: sympy.Rational(M[i][j].numerator, M[i][j].denominator))
            assert charpoly(M) == [c * q**d for c in expected.charpoly(x).all_coeffs()]

    def test_integral_matrix_gives_monic_polynomial(self):
        assert charpoly([[2, 1], [1, 2]]) == [1, -4, 3]
        assert charpoly([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == [36, -30, 6]


CRAFTED = {
    "mixed": (x - 2) * (2 * x + 1) * (x + 5) ** 2 * (x**2 + 1),
    "repeated": (x**2 + 1) ** 2 * (x - 3) ** 3,
    "non-monic linear": (3 * x - 2) * (5 * x + 7) * (2 * x + 9) * (2 * x - 9),
    "zero root": x**3 * (x - 1) * (2 * x + 3),
    # irreducible over Q, and a product of linear and quadratic factors
    # modulo every prime, so only recombination proves it irreducible
    "x^4 - 10x^2 + 1": x**4 - 10 * x**2 + 1,
    "Swinnerton-Dyer degree 8": x**8 - 40 * x**6 + 352 * x**4 - 960 * x**2 + 576,
    "three quadratics": (x**2 - 2) * (x**2 - 3) * (x**2 - 5),
    "content and sign": -6 * x**2 + 3,
    "cyclotomic": x**12 - 1,
    # squarefree mod 2 with two cubic factors there: the trace split
    "two cubics mod 2": (x**3 + x + 1) * (x**3 + x**2 + 1),
    "large coefficients": (10**12 * x - 7) * (x**2 + 10**9 * x + 3) * (x**3 - 999983),
}


class TestFactor:
    def test_order_of_factor_list(self):
        # (degree, multiplicity, coefficients), as sympy's factor_list
        assert factor(coefficients(CRAFTED["mixed"])) == [
            ([1, -2], 1), ([2, 1], 1), ([1, 5], 2), ([1, 0, 1], 1),
        ]

    @pytest.mark.parametrize("name", sorted(CRAFTED))
    def test_crafted_matches_sympy(self, name):
        coeffs = coefficients(CRAFTED[name])
        assert factor(coeffs) == sympy_factor(coeffs)

    def test_constants_have_no_factors(self):
        assert factor([5]) == [] and factor([-3]) == [] and factor([0, 0, 4]) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_products_match_sympy(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            expr = rng.choice((1, -1, 2, -3, 6))
            for _ in range(rng.randint(1, 4)):
                deg = rng.randint(1, 4)
                g = rng.randint(1, 4) * x**deg + sum(rng.randint(-5, 5) * x**i for i in range(deg))
                expr *= g ** rng.randint(1, 3)
            coeffs = coefficients(expr)
            if len(coeffs) > 1:
                assert factor(coeffs) == sympy_factor(coeffs)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_characteristic_polynomials_match_sympy(self, d):
        rng = random.Random(100 + d)
        for _ in range(4):
            M = random_matrix(rng, d)
            f = charpoly(M)
            assert factor(f) == sympy_factor(f)


class TestDecideIrreducibleAgainstSympy:
    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize("k", [2, 3])
    def test_status_and_witness(self, d, k, monkeypatch):
        systems = [random_system(d, k, 2, seed) for seed in range(8 if d < 5 else 4)]
        got = [decide_irreducible(s).to_dict() for s in systems]
        for s in systems:
            for M in s.normalized_tail():
                assert structure._charpoly_factors(M) == naive_charpoly_factors(M)
        monkeypatch.setattr(structure, "_charpoly_factors", naive_charpoly_factors)
        assert got == [decide_irreducible(s).to_dict() for s in systems]
