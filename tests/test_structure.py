"""Irreducibility decisions and coprimality."""

import os
import subprocess
import sys
from collections import Counter
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


def no_stage(name):
    def fail(*args):
        raise AssertionError(f"{name} ran")

    return fail


def spy(monkeypatch, name):
    """The arguments of each call of ``structure.<name>``, which still runs."""
    calls = []
    real = getattr(structure, name)
    monkeypatch.setattr(structure, name, lambda *args: calls.append(args) or real(*args))
    return calls


def factored_rows(system):
    """The matrices, as rows, whose characteristic polynomials one decision
    on the system factors."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = spy(monkeypatch, "_charpoly_factors")
        decide_irreducible(system)
    return [M.rows for M, in calls]


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

    def test_scalar_family_decided_by_line_stage(self, monkeypatch):
        # every vector of Q^4 is a common eigenvector of (I, 2I), so the first
        # stage finds an invariant line before the Norton test runs
        monkeypatch.setattr(structure, "_element_schedule", no_stage("the Norton test"))
        two = 2 * RationalMatrix.identity(4)
        system = LinearSystem([RationalMatrix.identity(4), two])
        verdict = decide_irreducible(system)
        assert verdict.status == "Reducible" and verdict.witness.dim == 1
        assert is_reducible_witness(system, verdict.witness)

    def test_scalar_family_decided_by_cyclic_scan(self, monkeypatch):
        # (I, R (+) R) with R the quarter turn: R has no rational eigenvalue,
        # so no line or hyperplane is invariant.  Every algebra element
        # T = a I + b (R (+) R) has one irreducible factor p, and p(T) = 0, so
        # the nullity 4 never equals deg p and no Norton attempt is usable;
        # only the cyclic scan finds the plane span(e_1, e_2)
        spied = spy(monkeypatch, "_candidate_vectors")
        R = [[0, -1], [1, 0]]
        rr = RationalMatrix([row + [0, 0] for row in R] + [[0, 0] + row for row in R])
        system = LinearSystem([RationalMatrix.identity(4), rr])
        verdict = decide_irreducible(system)
        assert len(spied) == 1
        assert verdict.status == "Reducible"
        assert verdict.witness == Subspace.span([(1, 0, 0, 0), (0, 1, 0, 0)], 4)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rotation_decided_without_cyclic_scan(self, d, monkeypatch):
        monkeypatch.setattr(structure, "_candidate_vectors", no_stage("the cyclic scan"))
        assert decide_irreducible(rotation_system(d)).status == "Irreducible"

    def test_reducible_d4_decided_by_norton(self, monkeypatch):
        # B = P diag(R_1, R_2) P^-1, R_i of characteristic polynomial x^2 + i:
        # the factor x^2 + 1 has nullity 2, and its kernel spins to a plane
        monkeypatch.setattr(structure, "_candidate_vectors", no_stage("the cyclic scan"))
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


def quaternion_system(a, b):
    """(I, L_i, L_j): left multiplication by i and j on the quaternion
    algebra (a, b) over Q, in the basis 1, i, j, ij."""
    Li = RationalMatrix([[0, a, 0, 0], [1, 0, 0, 0], [0, 0, 0, a], [0, 0, 1, 0]])
    Lj = RationalMatrix([[0, 0, b, 0], [0, 0, 0, -b], [1, 0, 0, 0], [0, -1, 0, 0]])
    return LinearSystem([RationalMatrix.identity(4), Li, Lj])


def census_draws():
    """The 300 ``random_system(d, k, 2, seed)`` draws of the census: d = 2..6,
    k = 2, 3, seeds 0-39 for d <= 4 and 0-14 for d >= 5."""
    return [
        random_system(d, k, 2, seed)
        for d in range(2, 7)
        for k in (2, 3)
        for seed in range(40 if d <= 4 else 15)
    ]


class TestFactoringOncePerDecision:
    def test_census_status_counts(self):
        counts = Counter(decide_irreducible(s).status for s in census_draws())
        assert counts == {"Irreducible": 262, "Reducible": 38}

    def test_no_matrix_factored_twice(self):
        systems = census_draws()[::7] + [quaternion_system(-1, -1), quaternion_system(-1, 5)]
        for system in systems + [rotation_system(d) for d in range(2, 6)]:
            factored = factored_rows(system)
            assert len(factored) == len(set(factored))

    def test_no_transpose_factored(self):
        # for d <= 3 the line and hyperplane stages decide; the hyperplane
        # stage searches the transposes with the maps' eigenvalues.  (For
        # d >= 4 a Norton element may equal a transpose, e.g. -L_i = L_i^tr
        # for the quaternions, and is then factored as an element.)
        systems = [s for s in census_draws() if s.dim <= 3] + [rotation_system(3)]
        for system in systems:
            factored = factored_rows(system)
            mats = system.normalized_tail()
            transposes = {M.transpose().rows for M in mats} - {M.rows for M in mats}
            assert factored and not transposes & set(factored)

    def test_d3_census_factors_each_map_once(self):
        # the hyperplane stage reuses the maps' eigenvalues: 40 factorings
        # for the 40 draws, not 64 with the transposes factored again
        assert sum(len(factored_rows(random_system(3, 2, 2, seed))) for seed in range(40)) == 40

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_first_map_without_eigenvalue_stops_the_line_stages(self, d):
        # L_1^{-1} L_2 is the companion matrix of x^d - 2, irreducible by
        # Eisenstein: no line or hyperplane, and the Norton test decides on
        # that same matrix, so only it is factored
        C = RationalMatrix([[2 if (i, j) == (0, d - 1) else int(i == j + 1) for j in range(d)] for i in range(d)])
        system = LinearSystem([RationalMatrix.identity(d), C, 3 * RationalMatrix.identity(d) + C])
        assert decide_irreducible(system).status == "Irreducible"
        assert factored_rows(system) == [C.rows]


def eager_schedule(mats, d):
    """The Norton schedule built in full and then deduplicated: the maps, the
    products A B (A != B), the sums A + B, and 24 seeded combinations
    c_0 I + c_1 M_1 + ... with each term c_i M_i built as (c_i I) M_i.  Sums
    and scalar matrices are built entrywise on lists of rows."""

    def add(A, B):
        return RationalMatrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A.rows, B.rows)])

    def scalar(c):
        return RationalMatrix([[c if i == j else 0 for j in range(d)] for i in range(d)])

    schedule = list(mats)
    schedule += [A @ B for i, A in enumerate(mats) for j, B in enumerate(mats) if i != j]
    schedule += [add(A, B) for i, A in enumerate(mats) for B in mats[i + 1 :]]
    draws = structure._uniform_draws(structure.splitmix64_stream(0xA16EB8A), 5)
    for _ in range(24):
        acc = scalar(next(draws) - 2)
        for M in mats:
            c = next(draws) - 2
            if c:
                acc = add(acc, scalar(c) @ M)
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
