"""Irreducibility decisions and coprimality."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumsetlab
from sumsetlab import (
    LinearSystem,
    RationalMatrix,
    Subspace,
    coprime_sufficient,
    cube,
    decide_irreducible,
    is_reducible_witness,
    random_system,
    rotation_system,
    shear_system,
)
from sumsetlab import structure
from conftest import naive_spin

DIAG_23 = LinearSystem([RationalMatrix.identity(2), RationalMatrix([[2, 0], [0, 3]])])


class TestReducibleWitness:
    def test_shear_vertical_axis(self):
        # The normalized map L_1^{-1} L_2 fixes the vertical axis.
        assert is_reducible_witness(shear_system(), Subspace.span([(0, 1)], 2))
        assert not is_reducible_witness(shear_system(), Subspace.span([(1, 0)], 2))

    def test_rotation_has_no_line_witness(self):
        rot = rotation_system(2)
        for v in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]:
            assert not is_reducible_witness(rot, Subspace.span([v], 2))

    def test_diagonal_eigenvector(self):
        assert is_reducible_witness(DIAG_23, Subspace.span([(1, 0)], 2))
        assert is_reducible_witness(DIAG_23, Subspace.span([(0, 1)], 2))
        assert not is_reducible_witness(DIAG_23, Subspace.span([(1, 1)], 2))

    def test_trivial_subspaces_rejected(self):
        with pytest.raises(ValueError):
            is_reducible_witness(shear_system(), Subspace.zero(2))
        with pytest.raises(ValueError):
            is_reducible_witness(shear_system(), Subspace.span([(1, 0), (0, 1)], 2))


class TestDecideIrreducible:
    def test_shear_reducible_with_witness(self):
        verdict = decide_irreducible(shear_system())
        assert verdict.status == "Reducible"
        assert is_reducible_witness(shear_system(), verdict.witness)

    def test_witness_revalidation_runs_under_python_O(self):
        # python -O strips asserts; the re-validation of a Reducible witness
        # must still reject a witness that fails the invariance check.
        script = (
            "import sys\n"
            "from sumsetlab import InvariantError, decide_irreducible, shear_system, structure\n"
            "structure.is_reducible_witness = lambda system, U: False\n"
            "try:\n"
            "    decide_irreducible(shear_system())\n"
            "except InvariantError:\n"
            "    print('raised', sys.flags.optimize)\n"
        )
        src = os.path.dirname(os.path.dirname(sumsetlab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["raised", "1"]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rotation_irreducible(self, d):
        assert decide_irreducible(rotation_system(d)).status == "Irreducible"

    def test_single_identity_map_reducible(self):
        assert decide_irreducible(LinearSystem([RationalMatrix.identity(2)])).status == "Reducible"

    def test_one_dimensional_always_irreducible(self):
        system = LinearSystem([RationalMatrix([[1]]), RationalMatrix([[3]])])
        assert decide_irreducible(system).status == "Irreducible"

    def test_diagonal_pair_reducible(self):
        verdict = decide_irreducible(DIAG_23)
        assert verdict.status == "Reducible"
        assert verdict.witness.dim == 1

    def test_invariant_plane_without_invariant_line(self):
        # the plane x_3 = 0 is invariant, but no line is: only the line search
        # on the transposes finds it, as the annihilator of e_3
        system = LinearSystem([
            RationalMatrix.identity(3),
            RationalMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
            RationalMatrix([[1, 1, 1], [0, 1, 0], [0, 0, 3]]),
        ])
        verdict = decide_irreducible(system)
        assert verdict.status == "Reducible" and verdict.witness.dim == 2
        assert is_reducible_witness(system, verdict.witness)

    def test_scalar_family_decided_by_cyclic_scan(self):
        # every algebra element of (I, 2I) is scalar, so no Norton attempt is
        # usable and only the cyclic scan can find an invariant subspace
        two = RationalMatrix([[2 if i == j else 0 for j in range(4)] for i in range(4)])
        system = LinearSystem([RationalMatrix.identity(4), two])
        verdict = decide_irreducible(system)
        assert verdict.status == "Reducible"
        assert is_reducible_witness(system, verdict.witness)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rotation_decided_without_cyclic_scan(self, d, monkeypatch):
        def no_scan(*args):
            raise AssertionError("the cyclic scan ran")

        monkeypatch.setattr(structure, "_candidate_vectors", no_scan)
        assert decide_irreducible(rotation_system(d)).status == "Irreducible"

    def test_reducible_d4_decided_by_norton(self, monkeypatch):
        # B = P diag(R_1, R_2) P^-1, R_i of characteristic polynomial x^2 + i:
        # the factor x^2 + 1 has nullity 2, and its kernel spins to a plane
        def no_scan(*args):
            raise AssertionError("the cyclic scan ran")

        monkeypatch.setattr(structure, "_candidate_vectors", no_scan)
        B = RationalMatrix([[1, -2, 2, -2], [1, -1, 1, -3], [0, 0, 1, -3], [0, 0, 1, -1]])
        system = LinearSystem([RationalMatrix.identity(4), B])
        verdict = decide_irreducible(system)
        assert verdict.status == "Reducible" and verdict.witness == Subspace.span([(1, 0, 0, 0), (0, 1, 0, 0)], 4)

    def test_to_dict_includes_witness(self):
        doc = decide_irreducible(shear_system()).to_dict()
        assert doc["status"] == "Reducible" and "witness" in doc
        assert decide_irreducible(rotation_system(2)).to_dict() == {"status": "Irreducible"}

    @given(st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_planar_systems_always_decided(self, seed):
        system = random_system(2, 2, 3, seed)
        verdict = decide_irreducible(system)
        assert verdict.status in ("Irreducible", "Reducible")
        if verdict.status == "Reducible":
            assert is_reducible_witness(system, verdict.witness)

    @given(st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_three_dimensional_systems_always_decided(self, seed):
        system = random_system(3, 2, 2, seed)
        verdict = decide_irreducible(system)
        assert verdict.status in ("Irreducible", "Reducible")
        if verdict.status == "Reducible":
            assert is_reducible_witness(system, verdict.witness)

    @given(st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_conjugation_invariance(self, seed):
        system = random_system(2, 2, 2, seed)
        S = random_system(2, 1, 3, seed ^ 0xC0FFEE).maps[0]
        conjugated = LinearSystem([S.inverse() @ M @ S for M in system.maps])
        assert decide_irreducible(system).status == decide_irreducible(conjugated).status

    @given(st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_normalization_invariance(self, seed):
        system = random_system(2, 3, 2, seed)
        L1_inv = system.maps[0].inverse()
        normalized = LinearSystem([L1_inv @ M for M in system.maps])
        assert decide_irreducible(system).status == decide_irreducible(normalized).status


def eager_schedule(mats, d):
    """The Norton schedule built in full and then deduplicated: the maps, the
    products A B (A != B), the sums A + B, and 24 seeded combinations
    c_0 I + c_1 M_1 + ... with each term c_i M_i built as (c_i I) M_i."""
    schedule = list(mats)
    schedule += [A @ B for i, A in enumerate(mats) for j, B in enumerate(mats) if i != j]
    schedule += [structure._mat_add(A, B) for i, A in enumerate(mats) for B in mats[i + 1 :]]
    draws = structure._uniform_draws(structure.splitmix64_stream(0xA16EB8A), 5)
    for _ in range(24):
        acc = structure._scaled_identity(next(draws) - 2, d)
        for M in mats:
            c = next(draws) - 2
            if c:
                acc = structure._mat_add(acc, structure._scaled_identity(c, d) @ M)
        schedule.append(acc)
    unique = {}
    for T in schedule:
        unique.setdefault(T.rows, T)
    return list(unique.values())


class TestElementSchedule:
    @pytest.mark.parametrize("d", [4, 5, 6])
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_eager_reference(self, d, k):
        for seed in range(4):
            mats = random_system(d, k, 2, seed).normalized_tail()
            got = list(structure._element_schedule(mats, d))
            assert got == eager_schedule(mats, d)

    def test_builds_nothing_before_it_is_asked(self, monkeypatch):
        mats = random_system(4, 3, 2, 0).normalized_tail()
        products = []
        matmul = RationalMatrix.__matmul__
        monkeypatch.setattr(RationalMatrix, "__matmul__", lambda A, B: products.append(1) or matmul(A, B))
        schedule = structure._element_schedule(mats, 4)
        assert next(schedule) is mats[0] and products == []


class TestSpin:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_naive_spin(self, d, k):
        draws = structure._uniform_draws(structure.splitmix64_stream(d * 10 + k), 7)
        for seed in range(6):
            mats = random_system(d, k + 1, 2, seed).normalized_tail()
            units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
            vectors = [tuple(next(draws) - 3 for _ in range(d)) for _ in range(3)]
            for seeds in [[u] for u in units] + [[v] for v in vectors] + [vectors[:2], [(0,) * d]]:
                assert structure._spin(seeds, mats, d) == naive_spin(seeds, mats, d)

    def test_rational_maps(self):
        half = RationalMatrix([[Fraction(1, 2), 1, 0], [0, Fraction(1, 2), 0], [0, 0, Fraction(-2, 3)]])
        for seeds in ([(1, 0, 0)], [(0, 1, 0)], [(Fraction(1, 3), 1, 5)]):
            assert structure._spin(seeds, [half], 3) == naive_spin(seeds, [half], 3)


class TestCoprimeSufficient:
    def test_rotation_pair(self):
        assert coprime_sufficient(rotation_system(2)) == "Coprime"

    def test_common_factor_is_unknown(self):
        system = LinearSystem([RationalMatrix([[2]]), RationalMatrix([[2]])])
        assert coprime_sufficient(system) == "Unknown"

    def test_identity_in_system(self):
        system = LinearSystem([RationalMatrix([[2]]), RationalMatrix([[1]])])
        assert coprime_sufficient(system) == "Coprime"

    def test_non_integral_rejected(self):
        system = LinearSystem([RationalMatrix([[Fraction(1, 2)]])])
        with pytest.raises(ValueError):
            coprime_sufficient(system)
