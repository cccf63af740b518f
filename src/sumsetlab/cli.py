"""Command-line surface: dataset generation, single-shot computations,
certificate verification, suites, and probes.

Exit codes: 0 when every emitted certificate Holds, 1 when any is Violated,
2 on usage or input errors, 3 when some are Indeterminate and none Violated.
All stdout output is canonical JSON, or CSV with ``--format csv`` where
certificates are written (``verify`` and the certificate probes), and is a
deterministic function of the run configuration; human-oriented progress
lines go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
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
    PointSet,
    Subspace,
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
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return decode(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _parse_range(text: str, label: str) -> list[int]:
    """Parses sweep ranges: '4', '1-4', '1,3-5' (inclusive ends)."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        try:
            if "-" in part[1:]:
                split_at = part.index("-", 1)
                lo, hi = int(part[:split_at]), int(part[split_at + 1 :])
                if hi < lo:
                    raise CliError(f"{label}: empty range {part!r}")
                values.extend(range(lo, hi + 1))
            else:
                values.append(int(part))
        except ValueError as exc:
            raise CliError(f"{label}: cannot parse {part!r}") from exc
    if not values:
        raise CliError(f"{label}: empty range")
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


def _emit_set(sets: Sequence[PointSet], args: argparse.Namespace) -> int:
    """The sum of ``sets`` (one set: the set itself) as the document
    {"dim", "points", "size"}, written from the engine's packed form by
    ``dumps_packed``; returns the size."""
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
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    kind = args.kind
    need = lambda name: _require(args, name, f"gen {kind}")
    if kind == "simplex":
        doc = pointset_to_dict(long_simplex(need("d"), need("N")))
    elif kind == "simplex-summands":
        head, tail = long_simplex_summands(need("d"), need("N"))
        doc = [pointset_to_dict(head), pointset_to_dict(tail)]
    elif kind == "simplex-sumset-form":
        doc = pointset_to_dict(long_simplex_sumset_form(need("d"), need("N")))
    elif kind == "cube":
        doc = pointset_to_dict(cube(need("d"), need("N")))
    elif kind == "interval":
        doc = pointset_to_dict(interval_set(need("lo"), need("hi")))
    elif kind == "grid":
        sets = grid(_parse_dims(need("dims")))
        doc = pointset_to_dict(sets[0]) if len(sets) == 1 else [pointset_to_dict(A) for A in sets]
    elif kind == "rotation":
        doc = system_to_dict(rotation_system(need("d")))
    elif kind == "shear":
        doc = system_to_dict(shear_system())
    elif kind == "shear-counterexample":
        system, X = shear_counterexample(need("N"))
        doc = {"system": system_to_dict(system), "set": pointset_to_dict(X)}
    elif kind == "random":
        box = _parse_box(args.box or "-5,5")
        doc = pointset_to_dict(random_set(need("d"), need("size"), box, args.seed))
    elif kind == "random-full-dim":
        box = _parse_box(args.box or "-5,5")
        doc = pointset_to_dict(random_full_dim_set(need("d"), need("size"), box, args.seed))
    elif kind == "random-system":
        doc = system_to_dict(random_system(need("d"), need("k"), args.entry_bound, args.seed))
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown generator {kind!r}")
    _emit_doc(doc, args)
    return 0


def _require(args: argparse.Namespace, name: str, context: str):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise CliError(f"{context} requires --{name}")
    return value


# ---------------------------------------------------------------------------
# sumset / compress / reduce / project
# ---------------------------------------------------------------------------


def _cmd_sumset(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise CliError("--k must be >= 1")
    if args.k != 1 and (args.sets or args.system):
        raise CliError("--k folds --set alone; it excludes --sets and --system")
    if args.sets:
        if args.set or args.system:
            raise CliError("--sets excludes --set/--system")
        summands = [_load(pointset_from_dict, path) for path in args.sets]
    elif args.set:
        A = _load(pointset_from_dict, args.set)
        if args.system:
            system = _load(system_from_dict, args.system)
            if system.dim != A.dim:
                raise CliError("system and set dimensions differ")
            summands = [linear_image(M, A) for M in system.maps]
        else:
            summands = [A] * args.k
    else:
        raise CliError("sumset needs --sets or --set")
    # the sum is written from its packed, scaled form: no point is decoded
    size = _emit_set(summands, args)
    print(f"size {size}", file=sys.stderr)
    return 0


def _spec_arg(args: argparse.Namespace, dim: int, context: str) -> CompressionSpec:
    """The compression of ``--axis`` or ``--spec``, exactly one of them given."""
    if (args.axis is None) == (args.spec is None):
        raise CliError(f"{context} needs exactly one of --axis or --spec")
    if args.axis is None:
        return _load(lambda data: CompressionSpec.from_dict(data, dim), args.spec)
    if not 1 <= args.axis <= dim:
        raise CliError(f"--axis must be in 1..{dim}")
    return CompressionSpec.axis(args.axis, dim)


def _cmd_compress(args: argparse.Namespace) -> int:
    A = _load(pointset_from_dict, args.set)
    _emit_set([compress(A, _spec_arg(args, A.dim, "compress"))], args)
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


def _sets_arg(args: argparse.Namespace, minimum: int, statement: str) -> list[PointSet]:
    if not args.sets or len(args.sets) < minimum:
        raise CliError(f"verify {statement} needs --sets with at least {minimum} file(s)")
    return [_load(pointset_from_dict, path) for path in args.sets]


def _random_or_file_sets(args: argparse.Namespace, statement: str) -> list[PointSet]:
    """One set per sweep case: a file, or seeded random full-dimensional
    sets when ``--set random`` is given."""
    if not args.set:
        raise CliError(f"verify {statement} needs --set FILE or --set random")
    if args.set != "random":
        return [_load(pointset_from_dict, args.set)]
    d = args.d_int
    size = args.size
    box = _parse_box(args.box or "-5,5")
    seeds = _parse_range(args.seed_range, "--seed")
    return [random_full_dim_set(d, size, box, seed) for seed in seeds]


def _v_elementary(args) -> list[Certificate]:
    sets = _sets_arg(args, 1, "elementary")
    return [check_elementary(sets)]


def _v_gs_kfold(args) -> list[Certificate]:
    if args.grids:
        sets = grid(_parse_dims(args.grids))
    else:
        sets = _sets_arg(args, 2, "gs_kfold")
    direction = tuple(_parse_ints(args.direction or "1,0", "--direction"))
    return [check_gs_kfold(sets, direction)]


def _v_freiman_kfold(args) -> list[Certificate]:
    ks = _parse_range(args.k or "2", "--k")
    cases = [(A, k) for A in _random_or_file_sets(args, "freiman_kfold") for k in ks]
    return [check_freiman_kfold(A, k) for A, k in cases]


def _v_freiman_lemma(args) -> list[Certificate]:
    sets = _random_or_file_sets(args, "freiman_lemma")
    return [check_freiman_lemma(A) for A in sets]


def _v_simplex_formula(args) -> list[Certificate]:
    if not (args.d and args.N and args.k):
        raise CliError("verify simplex_formula needs --d, --N and --k (ranges allowed)")
    ds = _parse_range(args.d, "--d")
    ns = _parse_range(args.N, "--N")
    ks = _parse_range(args.k, "--k")
    cases = [(d, N, k) for d in ds for N in ns if N >= d + 1 for k in ks]
    if not cases:
        raise CliError("no valid (d, N, k) combinations (need N >= d+1)")
    return [check_simplex_formula(d, N, k) for d, N, k in cases]


def _v_discrete_bm(args) -> list[Certificate]:
    sets = _sets_arg(args, 1, "discrete_bm")
    basis = _load(basis_from_dict, args.basis) if args.basis else None
    return [check_discrete_bm(sets, basis)]


def _v_ruzsa_triangle(args) -> list[Certificate]:
    sets = _sets_arg(args, 3, "ruzsa_triangle")
    if len(sets) != 3:
        raise CliError("verify ruzsa_triangle needs exactly three sets U V W")
    U, V, W = sets
    return [check_ruzsa_triangle(U, V, W)]


def _v_plunnecke_ruzsa(args) -> list[Certificate]:
    sets = _sets_arg(args, 2, "plunnecke_ruzsa")
    if len(sets) != 2:
        raise CliError("verify plunnecke_ruzsa needs exactly two sets A B")
    m = args.m if args.m is not None else 1
    n = args.n if args.n is not None else 1
    A, B = sets
    return [check_plunnecke_ruzsa(A, B, m, n)]


def _v_iterated_pr(args) -> list[Certificate]:
    sets = _sets_arg(args, 2, "iterated_pr")
    return [check_iterated_pr(sets)]


def _v_linear_pr(args) -> list[Certificate]:
    if not args.system or not args.set:
        raise CliError("verify linear_pr needs --system and --set")
    system = _load(system_from_dict, args.system)
    A = _load(pointset_from_dict, args.set)
    return [check_linear_pr(system, A)]


def _v_fiber_bound(args) -> list[Certificate]:
    if not args.system or not args.set or not args.subspace:
        raise CliError("verify fiber_bound needs --system, --set and --subspace")
    system = _load(system_from_dict, args.system)
    A = _load(pointset_from_dict, args.set)
    vectors = _parse_vectors(args.subspace, "--subspace")
    U = Subspace.span(vectors, system.dim)
    return [check_fiber_bound(system, A, U)]


def _v_sum_monotone(args) -> list[Certificate]:
    sets = _sets_arg(args, 1, "sum_monotone")
    spec = _spec_arg(args, sets[0].dim, "verify sum_monotone")
    return [check_sum_monotone(sets, spec)]


def _v_projection_monotone(args) -> list[Certificate]:
    sets = _sets_arg(args, 1, "projection_monotone")
    if args.axis is None or not args.coords:
        raise CliError("verify projection_monotone needs --axis and --coords")
    coords = _parse_ints(args.coords, "--coords")
    return [check_projection_monotone(sets, args.axis, coords)]


_VERIFY_BUILDERS: dict[str, Callable[[argparse.Namespace], list[Certificate]]] = {
    "elementary": _v_elementary,
    "gs_kfold": _v_gs_kfold,
    "freiman_kfold": _v_freiman_kfold,
    "freiman_lemma": _v_freiman_lemma,
    "simplex_formula": _v_simplex_formula,
    "discrete_bm": _v_discrete_bm,
    "ruzsa_triangle": _v_ruzsa_triangle,
    "plunnecke_ruzsa": _v_plunnecke_ruzsa,
    "iterated_pr": _v_iterated_pr,
    "linear_pr": _v_linear_pr,
    "fiber_bound": _v_fiber_bound,
    "sum_monotone": _v_sum_monotone,
    "projection_monotone": _v_projection_monotone,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    builder = _VERIFY_BUILDERS.get(args.statement)
    if builder is None:
        known = ", ".join(sorted(_VERIFY_BUILDERS))
        raise CliError(f"unknown statement {args.statement!r} (known: {known})")
    return _emit_certificates(builder(args), args)


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


def _cmd_probe(args: argparse.Namespace) -> int:
    if args.kind in ("main-term", "det-main-term"):
        if not args.system or not args.set:
            raise CliError(f"probe {args.kind} needs --system and --set")
        system = _load(system_from_dict, args.system)
        A = _load(pointset_from_dict, args.set)
        if args.kind == "main-term":
            cert = main_term_probe(system, A)
        else:
            cert = det_main_term_probe(system, A)
        return _emit_certificates([cert], args)
    if args.kind == "khovanskii":
        if not args.set:
            raise CliError("probe khovanskii needs --set")
        if args.fmt == "csv":
            raise CliError("probe khovanskii writes JSON only")
        A = _load(pointset_from_dict, args.set)
        _emit_doc(khovanskii_probe(A, args.k_max).to_dict(), args)
        return 0
    raise CliError(f"unknown probe {args.kind!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: building it costs
    about 2.4 ms (2 cores, Python 3.11.7), and a caller of :func:`run` may
    make many runs.  Reuse is safe because ``parse_args`` returns a fresh
    namespace and no option has a mutable default."""
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

    parser = argparse.ArgumentParser(
        prog="sumsetlab",
        description="Exact sumset computations with verifiable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[common], help="emit generator families as JSON")
    p_gen.add_argument(
        "kind",
        choices=(
            "simplex",
            "simplex-summands",
            "simplex-sumset-form",
            "cube",
            "interval",
            "grid",
            "rotation",
            "shear",
            "shear-counterexample",
            "random",
            "random-full-dim",
            "random-system",
        ),
    )
    p_gen.add_argument("--d", type=int, default=None)
    p_gen.add_argument("--N", type=int, default=None)
    p_gen.add_argument("--k", type=int, default=None)
    p_gen.add_argument("--lo", type=int, default=None)
    p_gen.add_argument("--hi", type=int, default=None)
    p_gen.add_argument("--dims", default=None, help="grid shapes, e.g. 2x2,3x4")
    p_gen.add_argument("--size", type=int, default=None)
    p_gen.add_argument("--box", default=None, help="coordinate box LO,HI")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--entry-bound", type=int, default=2)

    p_sum = sub.add_parser("sumset", parents=[common], help="Minkowski, iterated, or weighted sums")
    p_sum.add_argument("--sets", nargs="+", default=None, help="summand files")
    p_sum.add_argument("--set", default=None, help="single summand file")
    p_sum.add_argument("--k", type=int, default=1, help="fold count for --set")
    p_sum.add_argument("--system", default=None, help="linear system file for --set")

    p_comp = sub.add_parser("compress", parents=[common], help="apply one compression")
    p_comp.add_argument("--set", required=True)
    p_comp.add_argument("--axis", type=int, default=None)
    p_comp.add_argument("--spec", default=None, help="compression spec file")

    p_red = sub.add_parser("reduce", parents=[common], help="reduce to the long simplex, emit the trace")
    p_red.add_argument("--set", required=True)
    p_red.add_argument("--max-steps", type=int, default=None)

    p_proj = sub.add_parser("project", parents=[common], help="project onto coordinates")
    p_proj.add_argument("--set", required=True)
    p_proj.add_argument("--coords", required=True, help="1-based coordinates, e.g. 1,3")
    p_proj.add_argument("--basis", default=None)

    p_ver = sub.add_parser("verify", parents=[common], help="emit certificates for one statement")
    p_ver.add_argument("statement", help=", ".join(sorted(_VERIFY_BUILDERS)))
    p_ver.add_argument("--sets", nargs="+", default=None)
    p_ver.add_argument("--set", default=None, help="file, or 'random' with --seed")
    p_ver.add_argument("--system", default=None)
    p_ver.add_argument("--basis", default=None)
    p_ver.add_argument("--grids", default=None, help="grid shapes, e.g. 2x2,2x2,2x2")
    p_ver.add_argument("--direction", default=None, help="line direction, e.g. 1,0")
    p_ver.add_argument("--d", default=None, help="dimension range, e.g. 2 or 2-4")
    p_ver.add_argument("--N", default=None, help="size range")
    p_ver.add_argument("--k", default=None, help="fold range")
    p_ver.add_argument("--m", type=int, default=None)
    p_ver.add_argument("--n", type=int, default=None)
    p_ver.add_argument("--axis", type=int, default=None)
    p_ver.add_argument("--coords", default=None)
    p_ver.add_argument("--spec", default=None)
    p_ver.add_argument("--subspace", default=None, help="basis vectors, e.g. 1,0;0,1")
    p_ver.add_argument("--seed", dest="seed_range", default="0", help="seed range for --set random")
    p_ver.add_argument("--size", type=int, default=8, help="size for --set random")
    p_ver.add_argument("--box", default=None, help="box for --set random")
    p_ver.add_argument(
        "--random-dim",
        dest="d_int",
        type=int,
        default=2,
        help="dimension for --set random",
    )

    p_suite = sub.add_parser("suite", parents=[common], help="run a verification suite")
    p_suite.add_argument("name", choices=("smoke", "full"))

    p_probe = sub.add_parser("probe", parents=[common], help="asymptotic probes")
    p_probe.add_argument("kind", choices=("main-term", "det-main-term", "khovanskii"))
    p_probe.add_argument("--system", default=None)
    p_probe.add_argument("--set", default=None)
    p_probe.add_argument("--k-max", type=int, default=6)

    for p_certs in (p_ver, p_probe):  # only certificates have a CSV form
        p_certs.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")

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
    sys.exit(run())


if __name__ == "__main__":
    main()
