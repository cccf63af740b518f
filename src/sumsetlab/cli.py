"""Command-line surface: dataset generation, single-shot computations,
certificate verification, suites, and probes.

Exit codes: 0 when every emitted certificate Holds, 1 when any is Violated,
2 on usage or input errors, 3 when some are Indeterminate and none Violated,
4 when the run fails with an exception that is no input error (a bug, or
running out of memory), whose traceback goes to stderr.
All stdout output is canonical JSON, or CSV with ``--format csv`` where
certificates are written (``verify`` and the certificate probes), and is a
deterministic function of the run configuration; human-oriented progress
lines go to stderr.  Each ``verify`` statement and each ``gen`` or ``probe``
kind is its own subcommand, which accepts its own flags and no other.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback
from typing import Callable, Sequence

from .bounds import (
    check_discrete_bm,
    check_elementary,
    check_fiber_bound,
    check_freiman_kfold,
    check_freiman_lemma,
    check_gs_kfold,
    check_iterated_pr,
    check_linear_pr,
    check_plunnecke_ruzsa,
    check_ruzsa_triangle,
    check_simplex_formula,
    det_main_term_probe,
    khovanskii_probe,
    main_term_probe,
)
from .certificates import (
    DEFAULT_PRECISION_CAP,
    INDETERMINATE,
    VIOLATED,
    Certificate,
    canonical_json,
    precision_limit,
)
from .compression import (
    CompressionSpec,
    check_projection_monotone,
    check_sum_monotone,
    compress,
    reduce_to_simplex,
)
from .core import (
    LinearSystem,
    PointSet,
    Subspace,
    Summands,
    _size,
    linear_image,
    packed_sumset,
    project,
    sum_limit,
)
from .generators import (
    cube,
    grid,
    interval_set,
    long_simplex,
    long_simplex_summands,
    long_simplex_sumset_form,
    random_full_dim_set,
    random_set,
    random_system,
    rotation_system,
    shear_counterexample,
    shear_system,
)
from .serialization import (
    basis_from_dict,
    dumps_canonical,
    dumps_packed,
    pointset_from_dict,
    pointset_to_dict,
    system_from_dict,
    system_to_dict,
)
from .suites import run_suite

DEFAULT_POINT_BUDGET = 10**7


class CliError(Exception):
    """Usage or input problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# input parsing helpers
# ---------------------------------------------------------------------------


def _load(decode, path: str):
    """``decode`` applied to the JSON in ``path``; every failure is a CliError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the decoder goes
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return decode(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _parse_range(text: str, label: str, budget: int) -> list[int]:
    """Parses sweep ranges: '4', '1-4', '1,3-5' (inclusive ends).  More than
    ``budget`` values are refused before they are listed."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        try:
            if "-" in part[1:]:
                split_at = part.index("-", 1)
                lo, hi = int(part[:split_at]), int(part[split_at + 1 :])
                if hi < lo:
                    raise CliError(f"{label}: empty range {part!r}")
            else:
                lo = hi = int(part)
        except ValueError as exc:
            raise CliError(f"{label}: cannot parse {part!r}") from exc
        if len(values) + hi - lo + 1 > budget:
            raise CliError(f"{label}: {text!r} lists more values than the budget of {budget}")
        values.extend(range(lo, hi + 1))
    return values


def _parse_dims(text: str) -> list[tuple[int, int]]:
    dims = []
    for part in text.split(","):
        try:
            n, m = part.strip().split("x")
            dims.append((int(n), int(m)))
        except ValueError as exc:
            raise CliError(f"--grids: cannot parse {part!r} (expected NxM)") from exc
    return dims


def _parse_ints(text: str, label: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise CliError(f"{label}: cannot parse {text!r}") from exc


def _parse_box(text: str) -> tuple[int, int]:
    parts = _parse_ints(text, "--box")
    if len(parts) != 2 or parts[0] > parts[1]:
        raise CliError(f"--box: expected LO,HI with LO <= HI, got {text!r}")
    return parts[0], parts[1]


def _parse_vectors(text: str, label: str) -> list[list[int]]:
    return [_parse_ints(part, label) for part in text.split(";")]


def _system_and_set(args: argparse.Namespace) -> tuple[LinearSystem, PointSet]:
    return _load(system_from_dict, args.system), _load(pointset_from_dict, args.set)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write(text: str, args: argparse.Namespace) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_doc(doc, args: argparse.Namespace) -> None:
    _write(dumps_canonical(doc), args)


def _emit_set(sets: Summands, args: argparse.Namespace) -> int:
    """The sum of the multiset ``sets`` (one set: the set itself) as the
    document {"dim", "points", "size"}, written from the engine's packed form
    by ``dumps_packed``; returns the size."""
    packed = packed_sumset(sets)
    _write(dumps_packed(*packed), args)
    return _size(packed[2])


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        return canonical_json(value)
    return str(value)


_CSV_COLUMNS = ("statement_id", "verdict", "lhs", "rhs", "slack", "precision_bits", "inputs_digest", "params")


def _emit_certificates(certs: Sequence[Certificate], args: argparse.Namespace) -> int:
    docs = [cert.to_dict() for cert in certs]
    if args.fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for doc in docs:
            writer.writerow([_csv_cell(doc.get(col)) for col in _CSV_COLUMNS])
        text = buf.getvalue()
    else:
        text = "".join(canonical_json(doc) + "\n" for doc in docs)
    _write(text, args)
    for doc in docs:
        print(
            f"{doc['statement_id']}: {doc['verdict']}"
            f" lhs={doc['lhs']} rhs={doc['rhs']} slack={doc['slack']}",
            file=sys.stderr,
        )
    return _exit_for(certs)


def _exit_for(certs: Sequence[Certificate]) -> int:
    verdicts = {cert.verdict for cert in certs}
    if VIOLATED in verdicts:
        return 1
    if INDETERMINATE in verdicts:
        return 3
    return 0


# ---------------------------------------------------------------------------
# flags: each command, statement and kind declares its own, and argparse
# refuses any other flag and any missing required one
# ---------------------------------------------------------------------------


def _flag(name: str, **kwargs) -> tuple[str, dict]:
    """One flag: the arguments of ``add_argument``."""
    return name, kwargs


def _add_flags(parser, flags) -> None:
    """Declares ``flags`` on ``parser``: each a :func:`_flag`, or a list of
    them of which exactly one must be given."""
    for flag in flags:
        if isinstance(flag, list):
            _add_flags(parser.add_mutually_exclusive_group(required=True), flag)
        else:
            parser.add_argument(flag[0], **flag[1])


_SET = _flag("--set", required=True, metavar="FILE")
_SETS = _flag("--sets", nargs="+", required=True, metavar="FILE")
_SYSTEM = _flag("--system", required=True, metavar="FILE")
_BASIS = _flag("--basis", metavar="FILE")
_AXIS_OR_SPEC = [_flag("--axis", type=int), _flag("--spec", help="compression spec file")]
_FORMAT = _flag("--format", choices=("json", "csv"), default="json", dest="fmt")
_D = _flag("--d", type=int, required=True)
_N = _flag("--N", type=int, required=True)
_SEED = _flag("--seed", type=int, default=0)
_RANDOM_SET = (
    _D,
    _flag("--size", type=int, required=True),
    _flag("--box", default="-5,5", help="coordinate box LO,HI"),
    _SEED,
)
# --set of freiman_kfold and freiman_lemma: a file, or seeded random sets
_FILE_OR_RANDOM = (
    _flag("--set", required=True, help="file, or 'random' with --seed"),
    _flag("--seed", dest="seed_range", default="0", help="seed range for --set random"),
    _flag("--size", type=int, default=8, help="size for --set random"),
    _flag("--box", default="-5,5", help="box for --set random"),
    _flag("--random-dim", dest="d_int", type=int, default=2, help="dimension for --set random"),
)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _gen_grid(args: argparse.Namespace):
    sets = grid(_parse_dims(args.dims))
    return pointset_to_dict(sets[0]) if len(sets) == 1 else [pointset_to_dict(A) for A in sets]


def _gen_shear_counterexample(args: argparse.Namespace):
    system, X = shear_counterexample(args.N)
    return {"system": system_to_dict(system), "set": pointset_to_dict(X)}


def _cube_size(args: argparse.Namespace) -> int:
    # (2N+1)^d points of d coordinates; past bit_length(budget) + 1 factors of
    # at least 2 it exceeds the budget anyway, so a huge d costs no huge power
    return (2 * args.N + 1) ** min(args.d, args.budget.bit_length() + 1) * args.d


# kind -> (the document it writes, its flags, the number of coordinates and
# matrix entries it writes, found before anything is built)
_GEN_KINDS: dict[
    str, tuple[Callable[[argparse.Namespace], object], tuple, Callable[[argparse.Namespace], int]]
] = {
    "simplex": (
        lambda args: pointset_to_dict(long_simplex(args.d, args.N)),
        (_D, _N),
        lambda args: args.N * args.d,
    ),
    "simplex-summands": (
        lambda args: list(map(pointset_to_dict, long_simplex_summands(args.d, args.N))),
        (_D, _N),
        lambda args: args.N * args.d,
    ),
    "simplex-sumset-form": (
        lambda args: pointset_to_dict(long_simplex_sumset_form(args.d, args.N)),
        (_D, _N),
        lambda args: args.d * (args.N - args.d) * args.d,
    ),
    "cube": (lambda args: pointset_to_dict(cube(args.d, args.N)), (_D, _N), _cube_size),
    "interval": (
        lambda args: pointset_to_dict(interval_set(args.lo, args.hi)),
        (_flag("--lo", type=int, required=True), _flag("--hi", type=int, required=True)),
        lambda args: args.hi - args.lo + 1,
    ),
    "grid": (
        _gen_grid,
        (_flag("--dims", required=True, help="grid shapes, e.g. 2x2,3x4"),),
        lambda args: 2 * sum(n * m for n, m in _parse_dims(args.dims)),
    ),
    "rotation": (lambda args: system_to_dict(rotation_system(args.d)), (_D,), lambda args: args.d**3),
    "shear": (lambda args: system_to_dict(shear_system()), (), lambda args: 8),
    "shear-counterexample": (_gen_shear_counterexample, (_N,), lambda args: 8 + 2 * (2 * args.N - 1)),
    "random": (
        lambda args: pointset_to_dict(random_set(args.d, args.size, _parse_box(args.box), args.seed)),
        _RANDOM_SET,
        lambda args: args.size * args.d,
    ),
    "random-full-dim": (
        lambda args: pointset_to_dict(random_full_dim_set(args.d, args.size, _parse_box(args.box), args.seed)),
        _RANDOM_SET,
        lambda args: args.size * args.d,
    ),
    "random-system": (
        lambda args: system_to_dict(random_system(args.d, args.k, args.entry_bound, args.seed)),
        (_D, _flag("--k", type=int, required=True), _flag("--entry-bound", type=int, default=2), _SEED),
        lambda args: args.k * args.d**2,
    ),
}


def _cmd_gen(args: argparse.Namespace) -> int:
    document, _, size = _GEN_KINDS[args.kind]
    if size(args) > args.budget:
        raise CliError(f"gen {args.kind} writes more coordinates and matrix entries"
                       f" than the budget of {args.budget}")
    _emit_doc(document(args), args)
    return 0


# ---------------------------------------------------------------------------
# sumset / compress / reduce / project
# ---------------------------------------------------------------------------


def _cmd_sumset(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise CliError("--k must be >= 1")
    if args.k != 1 and (args.sets or args.system):
        raise CliError("--k folds --set alone; it excludes --sets and --system")
    if args.sets:
        if args.system:
            raise CliError("--sets excludes --system")
        summands = [_load(pointset_from_dict, path) for path in args.sets]
    else:
        A = _load(pointset_from_dict, args.set)
        if args.system:
            system = _load(system_from_dict, args.system)
            if system.dim != A.dim:
                raise CliError("system and set dimensions differ")
            summands = [linear_image(M, A) for M in system.maps]
        else:
            summands = {A: args.k}
    # the sum is written from its packed, scaled form: no point is decoded
    size = _emit_set(summands, args)
    print(f"size {size}", file=sys.stderr)
    return 0


def _spec_arg(args: argparse.Namespace, dim: int) -> CompressionSpec:
    """The compression of ``--spec`` or of ``--axis``."""
    if args.spec is not None:
        return _load(lambda data: CompressionSpec.from_dict(data, dim), args.spec)
    if not 1 <= args.axis <= dim:
        raise CliError(f"--axis must be in 1..{dim}")
    return CompressionSpec.axis(args.axis, dim)


def _cmd_compress(args: argparse.Namespace) -> int:
    A = _load(pointset_from_dict, args.set)
    _emit_set([compress(A, _spec_arg(args, A.dim))], args)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    A = _load(pointset_from_dict, args.set)
    final, trace = reduce_to_simplex(A, max_steps=args.max_steps)
    doc = trace.to_dict()
    doc["steps_taken"] = len(trace.steps)
    _emit_doc(doc, args)
    print(f"reduced in {len(trace.steps)} steps to {len(final)} points", file=sys.stderr)
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    A = _load(pointset_from_dict, args.set)
    coords = _parse_ints(args.coords, "--coords")
    basis = _load(basis_from_dict, args.basis) if args.basis else None
    _emit_set([project(A, basis, coords)], args)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _sets_arg(args: argparse.Namespace) -> list[PointSet]:
    return [_load(pointset_from_dict, path) for path in args.sets]


def _two_or_more_sets(args: argparse.Namespace) -> list[PointSet]:
    """``--sets`` of a statement about a sum of two or more sets."""
    if len(args.sets) < 2:
        raise CliError(f"verify {args.statement} needs --sets with at least 2 files")
    return _sets_arg(args)


def _refuse_sweep(args: argparse.Namespace, *counts: int) -> None:
    """Refuses a sweep whose number of cases, the product of ``counts``,
    exceeds the budget: before the cases are listed."""
    cases = math.prod(counts)
    if cases > args.budget:
        raise CliError(f"verify {args.statement}: {cases} cases exceed the budget of {args.budget}")


def _random_or_file_sets(args: argparse.Namespace, folds: int = 1) -> list[PointSet]:
    """One set per sweep case: a file, or seeded random full-dimensional
    sets when ``--set random`` is given.  With ``folds`` cases per set, a
    sweep of more cases than the budget is refused before a set is drawn."""
    if args.set != "random":
        return [_load(pointset_from_dict, args.set)]
    box = _parse_box(args.box)
    seeds = _parse_range(args.seed_range, "--seed", args.budget)
    _refuse_sweep(args, len(seeds), folds)
    return [random_full_dim_set(args.d_int, args.size, box, seed) for seed in seeds]


def _v_gs_kfold(args) -> list[Certificate]:
    sets = grid(_parse_dims(args.grids)) if args.grids is not None else _two_or_more_sets(args)
    return [check_gs_kfold(sets, tuple(_parse_ints(args.direction, "--direction")))]


def _v_freiman_kfold(args) -> list[Certificate]:
    ks = _parse_range(args.k, "--k", args.budget)
    cases = [(A, k) for A in _random_or_file_sets(args, len(ks)) for k in ks]
    return [check_freiman_kfold(A, k) for A, k in cases]


def _v_simplex_formula(args) -> list[Certificate]:
    ds = _parse_range(args.d, "--d", args.budget)
    ns = _parse_range(args.N, "--N", args.budget)
    ks = _parse_range(args.k, "--k", args.budget)
    _refuse_sweep(args, len(ds), len(ns), len(ks))
    cases = [(d, N, k) for d in ds for N in ns if N >= d + 1 for k in ks]
    if not cases:
        raise CliError("no valid (d, N, k) combinations (need N >= d+1)")
    return [check_simplex_formula(d, N, k) for d, N, k in cases]


def _v_discrete_bm(args) -> list[Certificate]:
    sets = _sets_arg(args)
    return [check_discrete_bm(sets, _load(basis_from_dict, args.basis) if args.basis else None)]


def _v_fiber_bound(args) -> list[Certificate]:
    system, A = _system_and_set(args)
    U = Subspace.span(_parse_vectors(args.subspace, "--subspace"), system.dim)
    return [check_fiber_bound(system, A, U)]


def _v_sum_monotone(args) -> list[Certificate]:
    sets = _sets_arg(args)
    return [check_sum_monotone(sets, _spec_arg(args, sets[0].dim))]


# statement -> (its certificates, its flags); every statement also takes --format
_VERIFY_BUILDERS: dict[str, tuple[Callable[[argparse.Namespace], list[Certificate]], tuple]] = {
    "elementary": (lambda args: [check_elementary(_sets_arg(args))], (_SETS,)),
    "gs_kfold": (
        _v_gs_kfold,
        (
            [_flag("--grids", help="grid shapes, e.g. 2x2,2x2,2x2"), _flag("--sets", nargs="+", metavar="FILE")],
            _flag("--direction", default="1,0", help="line direction, e.g. 1,0"),
        ),
    ),
    "freiman_kfold": (_v_freiman_kfold, (*_FILE_OR_RANDOM, _flag("--k", default="2", help="fold range"))),
    "freiman_lemma": (lambda args: [check_freiman_lemma(A) for A in _random_or_file_sets(args)], _FILE_OR_RANDOM),
    "simplex_formula": (
        _v_simplex_formula,
        (
            _flag("--d", required=True, help="dimension range, e.g. 2 or 2-4"),
            _flag("--N", required=True, help="size range"),
            _flag("--k", required=True, help="fold range"),
        ),
    ),
    "discrete_bm": (_v_discrete_bm, (_SETS, _BASIS)),
    "ruzsa_triangle": (
        lambda args: [check_ruzsa_triangle(*_sets_arg(args))],
        (_flag("--sets", nargs=3, required=True, metavar=("U", "V", "W")),),
    ),
    "plunnecke_ruzsa": (
        lambda args: [check_plunnecke_ruzsa(*_sets_arg(args), args.m, args.n)],
        (
            _flag("--sets", nargs=2, required=True, metavar=("A", "B")),
            _flag("--m", type=int, default=1),
            _flag("--n", type=int, default=1),
        ),
    ),
    "iterated_pr": (lambda args: [check_iterated_pr(_two_or_more_sets(args))], (_SETS,)),
    "linear_pr": (lambda args: [check_linear_pr(*_system_and_set(args))], (_SYSTEM, _SET)),
    "fiber_bound": (
        _v_fiber_bound,
        (_SYSTEM, _SET, _flag("--subspace", required=True, help="basis vectors, e.g. 1,0;0,1")),
    ),
    "sum_monotone": (_v_sum_monotone, (_SETS, _AXIS_OR_SPEC)),
    "projection_monotone": (
        lambda args: [check_projection_monotone(_sets_arg(args), args.axis, _parse_ints(args.coords, "--coords"))],
        (_SETS, _flag("--axis", type=int, required=True), _flag("--coords", required=True)),
    ),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    return _emit_certificates(_VERIFY_BUILDERS[args.statement][0](args), args)


# ---------------------------------------------------------------------------
# suite / probe
# ---------------------------------------------------------------------------


def _cmd_suite(args: argparse.Namespace) -> int:
    report = run_suite(args.name)
    for criterion in report.reports:
        print(criterion.summary_line(), file=sys.stderr)
        for failure in criterion.failures:
            print(f"    {failure}", file=sys.stderr)
    _emit_doc(report.to_dict(), args)
    return 0 if report.passed else 1


def _p_khovanskii(args: argparse.Namespace) -> int:
    _emit_doc(khovanskii_probe(_load(pointset_from_dict, args.set), args.k_max).to_dict(), args)
    return 0


# kind -> (its run, returning the exit code, its flags)
_PROBE_KINDS: dict[str, tuple[Callable[[argparse.Namespace], int], tuple]] = {
    "main-term": (
        lambda args: _emit_certificates([main_term_probe(*_system_and_set(args))], args),
        (_SYSTEM, _SET, _FORMAT),
    ),
    "det-main-term": (
        lambda args: _emit_certificates([det_main_term_probe(*_system_and_set(args))], args),
        (_SYSTEM, _SET, _FORMAT),
    ),
    "khovanskii": (_p_khovanskii, (_SET, _flag("--k-max", type=int, default=6))),
}


def _cmd_probe(args: argparse.Namespace) -> int:
    return _PROBE_KINDS[args.kind][0](args)


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser that refuses an argument it does not take itself, so the
    usage printed is that of the subcommand given, not of the root."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser tree of the process, built on first use: building it
    costs a few milliseconds, and a caller of :func:`run` may make many runs.
    Reuse is safe because ``parse_args`` returns a fresh namespace and no
    option has a mutable default.  No parser takes abbreviated flags, so no
    flag is read as one of the same prefix."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_POINT_BUDGET,
        help=f"refuse any sum that could exceed this many points (default {DEFAULT_POINT_BUDGET})",
    )
    common.add_argument(
        "--precision-cap",
        type=int,
        default=DEFAULT_PRECISION_CAP,
        help=f"interval-arithmetic precision cap in bits (>= 128, default {DEFAULT_PRECISION_CAP})",
    )
    common.add_argument("-o", "--out", default=None, help="write the report to a file")

    def leaf(subparsers, name: str, flags, help: str | None = None) -> None:
        # the common flags go on the leaves alone: on an intermediate parser
        # the leaf's defaults would overwrite the values given there
        _add_flags(subparsers.add_parser(name, parents=[common], help=help, allow_abbrev=False), flags)

    # subparsers take the class of their parent: every parser is a _Parser
    parser = _Parser(
        prog="sumsetlab",
        description="Exact sumset computations with verifiable certificates.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def nested(command: str, help: str, dest: str, table: dict, extra: tuple = ()) -> None:
        kinds = sub.add_parser(command, help=help, allow_abbrev=False).add_subparsers(
            dest=dest, required=True, metavar=dest.upper()
        )
        for name, (_, flags, *_) in table.items():
            leaf(kinds, name, (*flags, *extra))

    nested("gen", "emit generator families as JSON", "kind", _GEN_KINDS)
    leaf(
        sub,
        "sumset",
        (
            [_flag("--sets", nargs="+", help="summand files"), _flag("--set", help="single summand file")],
            _flag("--k", type=int, default=1, help="fold count for --set"),
            _flag("--system", help="linear system file for --set"),
        ),
        "Minkowski, iterated, or weighted sums",
    )
    leaf(sub, "compress", (_SET, _AXIS_OR_SPEC), "apply one compression")
    leaf(sub, "reduce", (_SET, _flag("--max-steps", type=int)), "reduce to the long simplex, emit the trace")
    leaf(
        sub,
        "project",
        (_SET, _flag("--coords", required=True, help="1-based coordinates, e.g. 1,3"), _BASIS),
        "project onto coordinates",
    )
    # only certificates have a CSV form: every statement takes --format
    nested("verify", "emit certificates for one statement", "statement", _VERIFY_BUILDERS, (_FORMAT,))
    leaf(sub, "suite", (_flag("name", choices=("smoke", "full")),), "run a verification suite")
    nested("probe", "asymptotic probes", "kind", _PROBE_KINDS)
    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "sumset": _cmd_sumset,
    "compress": _cmd_compress,
    "reduce": _cmd_reduce,
    "project": _cmd_project,
    "verify": _cmd_verify,
    "suite": _cmd_suite,
    "probe": _cmd_probe,
}


def run(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.budget < 1:
            raise CliError("--budget must be >= 1")
        with sum_limit(args.budget), precision_limit(args.precision_cap):
            return _COMMANDS[args.command](args)
    except (CliError, ValueError, KeyError, ZeroDivisionError) as exc:
        # the one place where an input error of the library becomes exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    """:func:`run` as a process: its exit code, or 4, with the traceback on
    stderr, when an exception escapes it (a bug, or ``MemoryError``), so that
    no crash exits 1, the code of a Violated verdict."""
    try:
        sys.exit(run())
    except Exception:
        traceback.print_exc()
        sys.exit(4)


if __name__ == "__main__":
    main()
