"""The benchmark's seeded workloads: inputs, operations and output checks.

Every workload is a list of operations built from ``--seed``.  The seed
chooses the random contents (random sets, rational sets, linear systems) and
the order of the operations; the sizes and parameters are fixed lists, so the
cost of a pass barely depends on the seed.  The program under test only ever
sees the generated inputs.

Every operation's output is checked:

* at any seed, by self-checks that need no reference (closed-form sizes,
  theorems that must Hold, probes that must not be Violated, reductions that
  must end at the long simplex with a trace that replays);
* at :data:`DEFAULT_SEED`, by the sha256 of its output against
  ``references.json``, recorded from the same workload at that seed;
* the two golden commands of the ROADMAP are checked against their hashes at
  every seed, since their inputs do not depend on it.

CLI operations run in process through ``sumsetlab.cli.run`` and never pass
``--precision-cap``: ``cli.run`` writes the cap into ``os.environ``, where it
would leak into every later operation of the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import sumsetlab as sl
from sumsetlab import cli
from sumsetlab.compression import CompressionSpec, CompressionTrace
from sumsetlab.serialization import (
    dumps_canonical,
    pointset_from_dict,
    pointset_to_dict,
    system_to_dict,
)

DEFAULT_SEED = 0
SCALES = ("full", "tiny")

# sha256 of stdout for the ROADMAP's golden commands; their inputs do not
# depend on the seed, so they are checked on every run
GOLDEN = {
    "suite full": "0befbb7bc0f61c4ee0499a961df2b4023d83da0503030a5a15cea5f0c1b8032c",
    "golden simplex_formula": "20192382712f86d7e041cf70a6f5bbcbd261c5f7140c896254f94017f4b04096",
}
# Every converging seeded 3-D input seen needed at most 6 moves (153 of 220
# sampled); the other 67 did not converge within 300.
REDUCE_MAX_STEPS = 20


class CheckError(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    """One timed operation.  ``call`` is the timed work; ``render`` turns its
    result into the text whose sha256 is the output digest; ``check`` returns
    the number of units the operation attempted and how many of them failed (a
    suite check is a unit, as is a library call or a CLI invocation).  Any
    exception from ``render`` or ``check`` marks the output wrong.  An
    exception from ``call`` is a failure; it makes the run incorrect unless it
    is one of ``known_defects``."""

    name: str
    call: Callable[[], object]
    render: Callable[[object], str]
    check: Callable[[object, str], tuple[int, int]]
    known_defects: tuple[type[Exception], ...] = ()


@dataclass
class CliResult:
    code: int
    stdout: str


def run_cli(argv: list[str]) -> CliResult:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return CliResult(code, out.getvalue())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _points_text(A) -> str:
    return repr(sorted(A.points))


def _cert_lines(result: CliResult, text: str, expect_codes=(0,)) -> list[dict]:
    _require(result.code in expect_codes, f"exit status {result.code}")
    return [json.loads(line) for line in text.splitlines()]


def _doc(result: CliResult, text: str, expect_codes=(0,)) -> dict:
    _require(result.code in expect_codes, f"exit status {result.code}")
    return json.loads(text)


def _write(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(doc))
    return path


# ---------------------------------------------------------------------------
# dense_kfold: large dense integral library calls
# ---------------------------------------------------------------------------

# (d, N, k, calls) for iterated_sumset(cube(d, N), k).  The full list has a
# plateau of 30 calls of about the same cost (the middle block) with about as
# many cheaper and dearer calls around it, so the median latency of a pass
# falls inside the plateau and not on a gap between two cost classes, where
# small jitter would make it jump.
_CUBES = {
    "full": [(2, 6, 2, 3), (2, 8, 2, 3), (2, 10, 2, 3), (2, 4, 3, 3), (2, 5, 3, 3), (2, 6, 3, 3),
             (2, 3, 4, 3), (2, 4, 4, 3), (3, 2, 2, 2), (3, 3, 2, 2), (3, 1, 3, 2), (3, 2, 3, 2), (3, 1, 4, 2),
             (2, 12, 2, 6), (2, 8, 3, 6), (2, 6, 4, 6), (3, 4, 2, 6), (3, 2, 4, 6),
             (2, 14, 2, 2), (2, 16, 2, 2), (2, 10, 3, 2), (3, 3, 3, 2)],
    "tiny": [(2, 2, 2, 1), (2, 3, 2, 1), (2, 2, 3, 1), (2, 1, 4, 1), (3, 1, 2, 1), (3, 1, 3, 1)],
}
_PLANAR = {"full": (14, 200, 40), "tiny": (2, 20, 8)}  # (calls, points, box side)
_ROTATION = {"full": (1, 2, 1, 2, 3, 3, 3), "tiny": (1,)}
_BM4 = {"full": (10, 12, 14, 16) * 2 + (12,), "tiny": (5,)}  # |A_i| per call


def _kfold_check(expected_size: int, bound: int):
    def check(A, text: str) -> tuple[int, int]:
        _require(len(A) == expected_size, f"size {len(A)} != {expected_size}")
        _require(
            all(abs(c) <= bound for p in A.points for c in p), "point outside the dilated box"
        )
        return 1, 0

    return check


def _planar_check(A, k: int):
    lower = math.comb(k + 1, 2) * len(A) - (k - 1) * math.comb(k + 1, 1)
    dilates = [tuple(k * c for c in p) for p in A.points]

    def check(S, text: str) -> tuple[int, int]:
        _require(len(S) >= lower, f"|{k}A| = {len(S)} below the Freiman bound {lower}")
        _require(len(S) <= math.comb(len(A) + k - 1, k), "sumset larger than C(|A|+k-1, k)")
        _require(all(p in S for p in dilates), "a dilate k*a is missing from kA")
        return 1, 0

    return check


def _holds_check(cert, text: str) -> tuple[int, int]:
    _require(cert.verdict == sl.HOLDS, f"verdict {cert.verdict}")
    return 1, 0


def dense_kfold(seed: int, scale: str, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for d, N, k, calls in _CUBES[scale]:
        for i in range(calls):
            A = sl.cube(d, N)
            ops.append(
                Op(
                    f"cube{d} N={N} k={k} #{i}",
                    lambda A=A, k=k: sl.iterated_sumset(A, k),
                    _points_text,
                    _kfold_check((2 * k * N + 1) ** d, k * N),
                )
            )
    calls, size, side = _PLANAR[scale]
    for i in range(calls):
        A = sl.random_set(2, size, (0, side - 1), rng.getrandbits(32))
        ops.append(
            Op(f"planar{size} k=3 #{i}", lambda A=A: sl.iterated_sumset(A, 3), _points_text, _planar_check(A, 3))
        )
    system = sl.rotation_system(3)
    for i, N in enumerate(_ROTATION[scale]):
        A = sl.cube(3, N)
        ops.append(
            Op(
                f"rotation3 N={N} #{i}",
                lambda A=A: sl.weighted_sumset(system, A),
                _points_text,
                _kfold_check((2 * 3 * N + 1) ** 3, 3 * N),
            )
        )
    for i, size in enumerate(_BM4[scale]):
        sets = [sl.random_set(4, size, (0, 4), rng.getrandbits(32)) for _ in range(3)]
        ops.append(
            Op(
                f"discrete_bm d=4 |A|={size} #{i}",
                lambda sets=sets: sl.check_discrete_bm(sets),
                lambda cert: sl.certificates.canonical_json(cert.to_dict()),
                _holds_check,
            )
        )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# suite_full: the acceptance suite through the CLI
# ---------------------------------------------------------------------------


def _suite_check(result: CliResult, text: str) -> tuple[int, int]:
    doc = _doc(result, text, expect_codes=(0, 1))
    checked = sum(c["checked"] for c in doc["criteria"])
    failed = sum(c["failed"] for c in doc["criteria"])
    _require(checked > 0, "the suite made no checks")
    return checked, failed


def suite_full(seed: int, scale: str, workdir: str) -> list[Op]:
    name = "full" if scale == "full" else "smoke"
    return [Op(f"suite {name}", lambda: run_cli(["suite", name]), lambda r: r.stdout, _suite_check)]


# ---------------------------------------------------------------------------
# certify_sweep: CLI invocations that emit certificates or traces
# ---------------------------------------------------------------------------

_FREIMAN = {  # (dimension, size, k) per invocation; each covers two seeds
    "full": [(d, size, k) for d in (2, 3) for size in (10, 14, 18, 22, 26, 30) for k in (2, 3)] * 2
    + [(2, 40, 2)] * 6,
    "tiny": [(2, 6, 2)],
}
_RATIONAL = {"full": (16, 20, 24, 28) * 4, "tiny": (6,)}  # |A| per `sumset --k 3`
_BM_SIZES = {  # summand sizes: distinct primes, so the root sum is irrational
    "full": [((5, 7), 2), ((7, 11), 2), ((5, 7, 11), 2), ((11, 13), 2), ((5, 7, 11, 13), 2),
             ((5, 11), 3), ((7, 11, 13), 3), ((13, 17), 3)] * 2,
    "tiny": [((2, 3), 2)],
}
_PROBES = {"full": [(d, k) for d in (2, 3, 4, 5) for k in (2, 3)] * 2 + [(2, 2), (3, 2), (4, 2), (5, 2)],
           "tiny": [(2, 2)]}
_REDUCE = {  # (dimension, size, coordinate bound)
    "full": [(2, size, 5) for size in (6, 8, 10, 12, 14, 16)] * 2 + [(3, size, 20) for size in (8, 10, 12)] * 3
    + [(3, 9, 20)],
    "tiny": [(2, 4, 3), (3, 5, 20)],
}


def _unimodular(rng: random.Random, d: int) -> list[list[int]]:
    M = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        for col in range(d):
            M[i][col] += c * M[j][col]
    return M


def _matmul(A, B):
    return [[sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0]))] for i in range(len(A))]


def irreducible_system(rng: random.Random, d: int, k: int) -> sl.LinearSystem:
    """(P, P C, P U_3, ...): C is the companion matrix of an Eisenstein
    polynomial at 2, whose characteristic polynomial is irreducible over Q, so
    L_1^{-1} L_2 = C alone leaves no proper rational subspace invariant."""
    coeffs = [2 * rng.choice((-1, 1)) * rng.choice((1, 3))] + [2 * rng.randint(-1, 1) for _ in range(d - 1)]
    C = [[0] * d for _ in range(d)]
    for i in range(1, d):
        C[i][i - 1] = 1
    for i in range(d):
        C[i][d - 1] = -coeffs[i]
    P = _unimodular(rng, d)
    maps = [P, _matmul(P, C)]
    while len(maps) < k:
        maps.append(_matmul(P, _unimodular(rng, d)))
    return sl.LinearSystem([sl.RationalMatrix(M) for M in maps])


def _freiman_check(cases: int):
    def check(result: CliResult, text: str) -> tuple[int, int]:
        certs = _cert_lines(result, text)
        _require(len(certs) == cases, f"{len(certs)} certificates, expected {cases}")
        _require(all(c["verdict"] == sl.HOLDS for c in certs), "a Freiman bound is not Holds")
        return 1, 0

    return check


def _golden_check(result: CliResult, text: str) -> tuple[int, int]:
    certs = _cert_lines(result, text)
    _require(len(certs) == 45, f"{len(certs)} certificates, expected 45")
    _require(all(c["verdict"] == sl.HOLDS and c["slack"] == "0" for c in certs), "simplex formula not exact")
    return 1, 0


def _rational_check(B, q: int):
    def check(result: CliResult, text: str) -> tuple[int, int]:
        doc = _doc(result, text)
        expected = {tuple(Fraction(c, q) for c in p) for p in sl.iterated_sumset(B, 3).points}
        got = {tuple(Fraction(c) for c in p) for p in doc["points"]}
        _require(doc["size"] == len(doc["points"]) == len(got), "size disagrees with the points")
        _require(got == expected, "3A differs from 3(qA)/q computed on the integral path")
        return 1, 0

    return check


def _bm_check(result: CliResult, text: str) -> tuple[int, int]:
    certs = _cert_lines(result, text)
    _require(len(certs) == 1 and certs[0]["verdict"] == sl.HOLDS, "discrete Brunn-Minkowski not Holds")
    _require("precision_bits" in certs[0], "the interval path was not taken")
    return 1, 0


def _probe_check(result: CliResult, text: str) -> tuple[int, int]:
    certs = _cert_lines(result, text, expect_codes=(0, 3))
    _require(len(certs) == 1, "probe emitted no certificate")
    _require(certs[0]["verdict"] in (sl.HOLDS, sl.INDETERMINATE), f"probe verdict {certs[0]['verdict']}")
    return 1, 0


def _reduce_check(A):
    def check(result: CliResult, text: str) -> tuple[int, int]:
        doc = _doc(result, text)
        d = A.dim
        initial = pointset_from_dict(doc["initial"])
        final = pointset_from_dict(doc["final"])
        shift = tuple(int(c) for c in doc["translation"])
        steps = tuple(CompressionSpec.from_dict(s, d) for s in doc["steps"])
        _require(initial == A.translate(shift), "trace does not start at the translated input")
        _require(final == sl.long_simplex(d, len(A)), "reduction did not end at the long simplex")
        CompressionTrace(initial=initial, steps=steps, final=final, translation=shift).replay()
        return 1, 0

    return check


def certify_sweep(seed: int, scale: str, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = [
        Op("golden simplex_formula", lambda: run_cli(["verify", "simplex_formula", "--d", "1-3", "--N", "4-8", "--k", "2-4"]), lambda r: r.stdout, _golden_check)
    ]
    for i, (d, size, k) in enumerate(_FREIMAN[scale]):
        first = rng.getrandbits(31)
        argv = ["verify", "freiman_kfold", "--set", "random", "--seed", f"{first}-{first + 1}",
                "--size", str(size), "--k", str(k), "--random-dim", str(d), "--box=-100000,100000"]
        ops.append(Op(f"freiman d={d} |A|={size} k={k} #{i}", lambda a=argv: run_cli(a), lambda r: r.stdout,
                      _freiman_check(2)))
    for i, size in enumerate(_RATIONAL[scale]):
        q = rng.choice((2, 3, 5, 7))
        B = sl.random_set(2, size, (-30, 30), rng.getrandbits(32))
        A = sl.PointSet(2, [tuple(Fraction(c, q) for c in p) for p in B.points])
        path = _write(os.path.join(workdir, f"rational{i}.json"), pointset_to_dict(A))
        ops.append(Op(f"rational sumset |A|={size} #{i}", lambda p=path: run_cli(["sumset", "--set", p, "--k", "3"]),
                      lambda r: r.stdout, _rational_check(B, q)))
    for i, (sizes, d) in enumerate(_BM_SIZES[scale]):
        paths = [
            _write(os.path.join(workdir, f"bm{i}_{j}.json"),
                   pointset_to_dict(sl.random_set(d, n, (-6, 6), rng.getrandbits(32))))
            for j, n in enumerate(sizes)
        ]
        ops.append(Op(f"discrete_bm d={d} sizes={sizes} #{i}", lambda p=paths: run_cli(["verify", "discrete_bm", "--sets", *p]),
                      lambda r: r.stdout, _bm_check))
    for i, (d, k) in enumerate(_PROBES[scale]):
        system = irreducible_system(rng, d, k)
        A = sl.random_full_dim_set(d, 8 if d < 4 else 6, (-3, 3), rng.getrandbits(32))
        sys_path = _write(os.path.join(workdir, f"system{i}.json"), system_to_dict(system))
        set_path = _write(os.path.join(workdir, f"probe_set{i}.json"), pointset_to_dict(A))
        argv = ["probe", "main-term", "--system", sys_path, "--set", set_path]
        ops.append(Op(f"probe main-term d={d} k={k} #{i}", lambda a=argv: run_cli(a), lambda r: r.stdout, _probe_check))
    for i, (d, size, bound) in enumerate(_REDUCE[scale]):
        A = sl.random_full_dim_set(d, size, (-bound, bound), rng.getrandbits(32))
        path = _write(os.path.join(workdir, f"reduce{i}.json"), pointset_to_dict(A))
        argv = ["reduce", "--set", path, "--max-steps", str(REDUCE_MAX_STEPS)]
        # cli.run lets ReductionError escape when a reduction does not converge
        ops.append(Op(f"reduce d={d} |A|={size} #{i}", lambda a=argv: run_cli(a), lambda r: r.stdout, _reduce_check(A),
                      known_defects=(sl.ReductionError,)))
    rng.shuffle(ops)
    return ops


BUILDERS = {"dense_kfold": dense_kfold, "suite_full": suite_full, "certify_sweep": certify_sweep}
