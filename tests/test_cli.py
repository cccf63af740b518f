"""End-to-end command-line behavior: exit codes, formats, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumsetlab
from sumsetlab import cli
from sumsetlab.certificates import precision_schedule
from sumsetlab.cli import run
from conftest import naive_compress, naive_sumset
from sumsetlab.core import point_sort_key
from sumsetlab.serialization import dumps_canonical, encode_point, pointset_to_dict
from sumsetlab import PointSet, bounds, compression, core, iterated_sumset, long_simplex


@pytest.fixture
def call(capsys):
    def _call(*argv):
        try:
            code = run(list(argv))
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _call


@pytest.fixture
def workset(tmp_path):
    def _write(name, doc):
        path = tmp_path / name
        path.write_text(dumps_canonical(doc))
        return str(path)

    return tmp_path, _write


class TestGen:
    def test_cube_written_to_file(self, call, tmp_path):
        out = tmp_path / "cube.json"
        code, _, _ = call("gen", "cube", "--d", "2", "--N", "1", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["dim"] == 2 and len(doc["points"]) == 9

    def test_simplex_to_stdout(self, call):
        code, out, _ = call("gen", "simplex", "--d", "2", "--N", "4")
        assert code == 0
        assert json.loads(out)["points"] == [["0", "0"], ["0", "1"], ["1", "0"], ["2", "0"]]

    def test_random_is_seed_deterministic(self, call):
        a = call("gen", "random", "--d", "2", "--size", "6", "--box=-4,4", "--seed", "9")
        b = call("gen", "random", "--d", "2", "--size", "6", "--box=-4,4", "--seed", "9")
        assert a == b and a[0] == 0

    def test_unwritable_out_is_usage_error(self, call, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = call("gen", "cube", "--d", "2", "--N", "1", "--out", str(path))
        assert code == 2 and out == "" and not path.exists()
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    def test_missing_parameter_is_usage_error(self, call):
        code, _, err = call("gen", "cube", "--d", "2")
        assert code == 2 and "error" in err

    def test_unknown_kind_is_usage_error(self, call):
        code, _, _ = call("gen", "dodecahedron", "--d", "2")
        assert code == 2


def half_integer_set():
    """255 multiples of 1/2 in [0, 10]^2, (0, 0) and (10, 10) among them."""
    grid = [(Fraction(i, 2), Fraction(j, 2)) for i in range(21) for j in range(21)]
    rest = random.Random(4).sample(grid[1:-1], 253)
    return PointSet(2, [grid[0], grid[-1], *rest])


class TestSumset:
    def test_rotation_of_cube(self, call, tmp_path):
        cube = tmp_path / "cube.json"
        rot = tmp_path / "rot.json"
        assert call("gen", "cube", "--d", "2", "--N", "1", "-o", str(cube))[0] == 0
        assert call("gen", "rotation", "--d", "2", "-o", str(rot))[0] == 0
        code, out, err = call("sumset", "--set", str(cube), "--system", str(rot))
        assert code == 0
        assert "size 25" in err
        doc = json.loads(out)
        assert doc["size"] == 25 and len(doc["points"]) == 25

    def test_explicit_summand_files(self, call, workset):
        _, write = workset
        a = write("a.json", pointset_to_dict(PointSet(1, [(0,), (1,), (2,)])))
        b = write("b.json", pointset_to_dict(PointSet(1, [(0,), (1,)])))
        code, out, _ = call("sumset", "--sets", a, b)
        assert code == 0 and json.loads(out)["size"] == 4

    def test_iterated_fold(self, call, workset):
        _, write = workset
        a = write("a.json", pointset_to_dict(PointSet(1, [(0,), (1,)])))
        code, out, _ = call("sumset", "--set", a, "--k", "3")
        assert code == 0 and json.loads(out)["size"] == 4

    def test_rational_iterated_fold_bytes(self, call, workset):
        # denominators 2 to 6: the 56 points of 3R mix ints and fractions
        _, write = workset
        R = PointSet(2, [(0, 0), (Fraction(1, 2), 1), (Fraction(2, 3), Fraction(-1, 3)), (3, Fraction(5, 4)),
                         (-1, Fraction(1, 6)), (Fraction(7, 5), 2)])
        r = write("r.json", pointset_to_dict(R))
        code, out, err = call("sumset", "--set", r, "--k", "3")
        assert code == 0 and "size 56" in err
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7fd4b3e8bb6e36a388f88687b07b227ee3e03df66470d45cc5ecd340d386ab6c"
        )

    def test_rational_budget_is_scaled_box(self, call, workset):
        # 255 halves in [0, 10]^2 with both corners: the estimate for 3H is
        # the 61 x 61 multiples of 1/2 in [0, 30]^2, not 255^3
        _, write = workset
        h = write("h.json", pointset_to_dict(half_integer_set()))
        code, _, err = call("sumset", "--set", h, "--k", "3")
        assert code == 0 and "size" in err
        assert call("sumset", "--set", h, "--k", "3", "--budget", "3721")[0] == 0
        code, out, err = call("sumset", "--set", h, "--k", "3", "--budget", "3720")
        assert code == 2 and "budget" in err and out == ""

    def test_mixed_dimensions_rejected(self, call, workset):
        _, write = workset
        a = write("a.json", pointset_to_dict(PointSet(1, [(0,), (1,)])))
        b = write("b.json", pointset_to_dict(PointSet(2, [(0, 0), (1, 1)])))
        code, out, err = call("sumset", "--sets", a, b)
        assert code == 2 and "mixed dimensions" in err and out == ""

    def test_budget_guard(self, call, workset):
        _, write = workset
        a = write("a.json", pointset_to_dict(long_simplex(2, 12)))
        code, _, err = call("sumset", "--set", a, "--k", "6", "--budget", "10")
        assert code == 2 and "budget" in err

    def test_empty_points_file_rejected(self, call, workset):
        _, write = workset
        bad = write("bad.json", {"dim": 2, "points": []})
        code, _, err = call("sumset", "--set", bad)
        assert code == 2 and "error" in err


class TestRationalOutputPinned:
    """stdout of rational sums, compressions and projections, pinned as the
    sha256 of the bytes written before points were encoded from their scaled
    integer form."""

    R = PointSet(2, [(0, 0), (Fraction(1, 2), 1), (Fraction(2, 3), Fraction(-1, 3)), (3, Fraction(5, 4)),
                     (-1, Fraction(1, 6)), (Fraction(7, 5), 2)])
    # three summands with denominators {2, 3}, {4, 5} and {3, 6}
    SUMMANDS = [
        PointSet(2, [(0, 0), (Fraction(1, 2), 1), (3, Fraction(-1, 3))]),
        PointSet(2, [(Fraction(1, 5), 0), (-2, Fraction(3, 4)), (1, 1)]),
        PointSet(2, [(0, Fraction(1, 6)), (Fraction(7, 3), 2)]),
    ]
    T = PointSet(3, [(0, 0, 0), (Fraction(1, 2), 1, Fraction(-2, 3)), (Fraction(1, 2), 2, 0),
                     (Fraction(1, 2), Fraction(5, 2), 0), (2, Fraction(1, 4), 1),
                     (-1, Fraction(3, 4), Fraction(5, 6)), (-1, Fraction(3, 4), Fraction(1, 6))])

    @staticmethod
    def sha(call, *argv):
        code, out, _ = call(*argv)
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest()

    def test_sets_of_different_denominators(self, call, workset):
        _, write = workset
        paths = [write(f"s{i}.json", pointset_to_dict(A)) for i, A in enumerate(self.SUMMANDS)]
        assert self.sha(call, "sumset", "--sets", *paths) == (
            "2e7ce1102999aa8a83fdf65d529bd2833f4d246a184c4c3e36dd723824513816"
        )

    def test_single_fold(self, call, workset):
        _, write = workset
        r = write("r.json", pointset_to_dict(self.R))
        assert self.sha(call, "sumset", "--set", r, "--k", "1") == (
            "0036d4b09e879e418858860ef04e0d027744f948beeaf597ac5b35fb93ef6d13"
        )

    def test_threefold(self, call, tmp_path):
        # the set of the "Golden rational sumset stdout" CI step, written as there
        path = tmp_path / "rat.json"
        path.write_text('{"dim": 2, "points": [["1/3", "0"], ["1/2", "2/5"], ["-7/6", "3"], ["4", "-1/10"],'
                        ' ["0", "0"], ["5/4", "-3/8"]]}')
        assert self.sha(call, "sumset", "--set", str(path), "--k", "3") == (
            "f2780bd5e1e4ad8aad405bdac16ca0306043fb33456f14a75b3871b892939e10"
        )

    def test_rational_system(self, call, workset):
        _, write = workset
        r = write("r.json", pointset_to_dict(self.R))
        s = write("s.json", {"dim": 2, "maps": [[["1/2", "0"], ["0", "1"]], [["1", "1/3"], ["0", "2"]]]})
        assert self.sha(call, "sumset", "--set", r, "--system", s) == (
            "6207d07815f8ec1022a98755f68f4e25be1355f2b0a2c8975c353ac762f4ab73"
        )

    def test_compress(self, call, workset):
        _, write = workset
        t = write("t.json", pointset_to_dict(self.T))
        assert self.sha(call, "compress", "--set", t, "--axis", "2") == (
            "63e235b545fc7fbf21244bf84eafea4943b91f2680960e862ef8070b7e1d2879"
        )

    def test_project(self, call, workset):
        _, write = workset
        t = write("t.json", pointset_to_dict(self.T))
        assert self.sha(call, "project", "--set", t, "--coords", "1,2") == (
            "bea1dbe33594809036271b35479c8207d90d9f6d3616eb057a9c4ed688d313c9"
        )


class TestCompressReduceProject:
    def test_axis_compression(self, call, workset):
        _, write = workset
        a = write("a.json", pointset_to_dict(PointSet(2, [(0, 0), (0, 3), (1, 7)])))
        code, out, _ = call("compress", "--set", a, "--axis", "2")
        assert code == 0
        assert json.loads(out)["points"] == [["0", "0"], ["0", "1"], ["1", "0"]]

    def test_reduce_square(self, call, workset):
        _, write = workset
        sq = write("sq.json", pointset_to_dict(PointSet(2, [(0, 0), (0, 1), (1, 0), (1, 1)])))
        code, out, _ = call("reduce", "--set", sq)
        assert code == 0
        doc = json.loads(out)
        assert doc["final"]["points"] == [["0", "0"], ["0", "1"], ["1", "0"], ["2", "0"]]
        assert doc["steps_taken"] >= 1

    def test_reduce_simplex_is_noop(self, call, workset):
        _, write = workset
        s = write("s.json", pointset_to_dict(long_simplex(2, 4)))
        code, out, _ = call("reduce", "--set", s)
        assert code == 0 and json.loads(out)["steps_taken"] == 0

    def test_reduce_degenerate_set_rejected(self, call, workset):
        _, write = workset
        line = write("line.json", pointset_to_dict(PointSet(2, [(0, 0), (1, 1), (2, 2)])))
        code, _, err = call("reduce", "--set", line)
        assert code == 2 and "error" in err

    def test_project(self, call, workset):
        _, write = workset
        a = write("a.json", pointset_to_dict(PointSet(2, [(0, 0), (0, 3), (1, 7)])))
        code, out, _ = call("project", "--set", a, "--coords", "1")
        assert code == 0 and json.loads(out)["size"] == 2


def set_document(dim, points):
    """The document of ``sumset``, ``compress`` and ``project`` for a set of
    rational points, written as earlier versions did: ``Fraction``
    coordinates sorted by ``point_sort_key``, one ``encode_point`` each."""
    rows = [encode_point(p) for p in sorted(points, key=point_sort_key)]
    return dumps_canonical({"dim": dim, "points": rows, "size": len(rows)})


@st.composite
def boxed_sets(draw):
    """(dim, q, a set of points p / q): each axis holds one value or a run
    of up to 5 values from a low in -10..10, scaled by 1 or 10**5, so axes
    of side 1, negative lows and sums of both folds are drawn."""
    dim = draw(st.integers(1, 4))
    q = draw(st.sampled_from([1, 2, 6, 7, 12]))
    axes = []
    for _ in range(dim):
        low, side = draw(st.integers(-10, 10)), draw(st.sampled_from([1, 2, 5]))
        scale = draw(st.sampled_from([1, 10**5]))
        axes.append([Fraction(scale * c, q) for c in range(low, low + side)])
    points = draw(st.lists(st.tuples(*map(st.sampled_from, axes)), min_size=1, max_size=8))
    return dim, q, PointSet(dim, points)


class TestSetDocuments:
    """``sumset``, ``compress`` and ``project`` write their set from the
    engine's packed form; the bytes must be those of the naive result
    written point by point, on stdout or through ``--out``."""

    @staticmethod
    def expected(argv, A):
        """The points that the command ``argv`` on the set file A writes."""
        command, d = argv[0], A.dim
        if command == "sumset":
            k = int(argv[argv.index("--k") + 1]) if "--k" in argv else 2
            return naive_sumset([A] * k)
        if command == "compress":
            e = [int(j == int(argv[-1]) - 1) for j in range(d)]
            return naive_compress(A.points, e, 0, e)
        coords = {int(c) for c in argv[-1].split(",")}
        return {tuple(c if j + 1 in coords else 0 for j, c in enumerate(p)) for p in A.points}

    @settings(max_examples=60)
    @given(data=st.data(), drawn=boxed_sets())
    def test_commands_match_naive_documents(self, data, drawn):
        dim, _, A = drawn
        axis = str(data.draw(st.integers(1, dim)))
        coords = ",".join(map(str, data.draw(st.sets(st.integers(1, dim), min_size=1))))
        argv = data.draw(st.sampled_from([
            ["sumset", "--set", "A", "--k", "1", "--budget", "1"],
            ["sumset", "--set", "A", "--k", "2"],
            ["sumset", "--set", "A", "--k", "3"],
            ["sumset", "--sets", "A", "A"],
            ["compress", "--set", "A", "--axis", axis],
            ["project", "--set", "A", "--coords", coords],
        ]))
        to_file = data.draw(st.booleans())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "A")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dumps_canonical(pointset_to_dict(A)))
            out_path = os.path.join(tmp, "out.json")
            full = [path if arg == "A" else arg for arg in argv] + (["--out", out_path] if to_file else [])
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                assert run(full) == 0
            if to_file:
                assert stdout.getvalue() == ""
                with open(out_path, encoding="utf-8") as fh:
                    written = fh.read()
            else:
                written = stdout.getvalue()
        assert written == set_document(dim, self.expected(argv, A))

    @pytest.mark.parametrize(
        "argv",
        [
            ("sumset", "--set", "R", "--k", "3"),
            ("sumset", "--set", "R", "--k", "1", "--budget", "1"),
            ("sumset", "--sets", "R", "W"),
            ("compress", "--set", "R", "--axis", "2"),
            ("project", "--set", "W", "--coords", "2"),
        ],
    )
    def test_same_bytes_under_optimize(self, tmp_path, argv):
        # R is rational and dense in its box (bitmap), W sparse (pair set)
        sets = {"R": TestRationalOutputPinned.R,
                "W": PointSet(2, [(Fraction(i * 99991, 6), -i * i) for i in range(-6, 7)])}
        for name, A in sets.items():
            (tmp_path / name).write_text(dumps_canonical(pointset_to_dict(A)))
        if argv[1] == "--sets":
            expected = naive_sumset([sets[name] for name in argv[2:]])
        else:
            expected = self.expected(argv, sets[argv[2]])
        result = fresh_interpreter("-O", "-m", "sumsetlab.cli", *argv, cwd=tmp_path)
        assert result.returncode == 0 and result.stdout == set_document(2, expected)


# the shear pair is reducible: both maps fix the line spanned by (1, 0)
SHEAR = {"dim": 2, "maps": [[["1", "1"], ["0", "1"]], [["1", "1"], ["-1", "1"]]]}
SQUARE = PointSet(2, [(0, 0), (0, 1), (1, 0), (1, 1)])


class TestLibraryErrors:
    """A library ValueError becomes exit 2 with one ``error:`` line in
    ``cli.run``, and nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("reduce", "--set", "line"), "error: reduction needs a full-dimensional set"),
            (("project", "--set", "square", "--coords", "5"), "error: projection coordinates must lie in 1..2"),
            (("probe", "khovanskii", "--set", "square", "--k-max", "3"),
             "error: need k_max >= 4 to fit a degree-2 polynomial"),
            (("probe", "main-term", "--system", "shear", "--set", "square"),
             "error: main-term probe requires a certified irreducible system"),
            (("compress", "--set", "square", "--axis", "9"), "error: --axis must be in 1..2"),
            (("verify", "sum_monotone", "--sets", "square", "--axis", "9"), "error: --axis must be in 1..2"),
            (("gen", "random", "--d", "4", "--size", "3", "--box=-100000,100000", "--seed", "1"),
             "error: cannot draw uniformly from 1600032000240000800001 values: the limit is 2**64"),
            (("reduce", "--set", "square", "--max-steps", "-3"), "error: max_steps must be >= 0"),
            (("sumset", "--set", "square", "--system", "digits"),
             "error: digits: matrix row '12' does not have 2 entries"),
            (("sumset", "--set", "square", "--system", "shear", "--k", "3"),
             "error: --k folds --set alone; it excludes --sets and --system"),
            (("sumset", "--sets", "square", "square", "--k", "5"),
             "error: --k folds --set alone; it excludes --sets and --system"),
            (("sumset", "--set", "square", "--k", "0"), "error: --k must be >= 1"),
            (("sumset", "--set", "square", "--k", "-2"), "error: --k must be >= 1"),
        ],
    )
    def test_exit_2_with_one_error_line(self, call, tmp_path, monkeypatch, argv, line):
        monkeypatch.chdir(tmp_path)
        # matrix rows written as strings of digits, not lists of coordinates
        (tmp_path / "digits").write_text('{"dim": 2, "maps": [["12", "34"], ["10", "01"]]}')
        (tmp_path / "line").write_text(dumps_canonical(pointset_to_dict(PointSet(2, [(0, 0), (1, 1), (2, 2)]))))
        (tmp_path / "square").write_text(dumps_canonical(pointset_to_dict(SQUARE)))
        (tmp_path / "shear").write_text(dumps_canonical(SHEAR))
        assert call(*argv) == (2, "", line + "\n")


# arguments beyond --sets that a statement needs
SET_FILE_EXTRA = {
    "sum_monotone": ("--axis", "1"),
    "projection_monotone": ("--axis", "1", "--coords", "1,2"),
}


def spy_interval_caps(monkeypatch, tmp_path):
    """A function returning, for every interval certificate the bounds have
    built, the precision cap in effect when it was built.  The caps are
    appended to a file under ``tmp_path``, so the certificates of forked
    worker processes are seen too."""
    log = tmp_path / "precision_caps"
    log.touch()
    original = bounds.interval_certificate

    def spy(statement_id, make_sides, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{list(precision_schedule())[-1]}\n")
        return original(statement_id, make_sides, **kwargs)

    monkeypatch.setattr(bounds, "interval_certificate", spy)
    return lambda: [int(line) for line in log.read_text(encoding="utf-8").split()]


def forbid_sums(monkeypatch, budget):
    """Fail the test if the engine completes a fold whose bound, the product
    of the summand sizes capped by the cells of the sum's box, exceeds
    ``budget``: such a sum must be refused before it is built."""
    fold = core._integral_fold

    def spy(sets):
        folded, lows, sides = fold(sets)
        bound = min(math.prod(map(len, sets)), math.prod(sides))
        if bound > budget:
            raise AssertionError(f"a sum of up to {bound} points was built despite the budget of {budget}")
        return folded, lows, sides

    monkeypatch.setattr(core, "_integral_fold", spy)


class TestVerify:
    def test_elementary_holds(self, call, workset):
        _, write = workset
        a = write("a.json", pointset_to_dict(PointSet(1, [(0,), (1,), (2,)])))
        b = write("b.json", pointset_to_dict(PointSet(1, [(0,), (1,)])))
        code, out, err = call("verify", "elementary", "--sets", a, b)
        assert code == 0
        cert = json.loads(out)
        assert cert["verdict"] == "Holds" and cert["slack"] == "0"
        assert "elementary: Holds" in err

    def test_simplex_formula_sweep_order(self, call):
        code, out, _ = call(
            "verify", "simplex_formula", "--d", "2", "--N", "4-6", "--k", "2"
        )
        assert code == 0
        sizes = [json.loads(line)["params"]["N"] for line in out.splitlines()]
        assert sizes == ["4", "5", "6"]

    def test_gs_kfold_grids(self, call):
        code, out, _ = call(
            "verify", "gs_kfold", "--grids", "2x2,2x2,2x2", "--direction", "1,0"
        )
        assert code == 0
        cert = json.loads(out)
        assert cert["lhs"] == "16" and cert["rhs"] == "16"

    def test_freiman_random_seed_sweep(self, call):
        code, out, _ = call(
            "verify", "freiman_kfold", "--set", "random", "--seed", "1-3", "--size", "6", "--k", "2"
        )
        assert code == 0 and len(out.splitlines()) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("freiman_kfold", "--set", "random", "--seed", "1", "--size", "8", "--k", "4"),
            ("freiman_kfold", "--set", "random", "--seed", "1-2", "--size", "8", "--k", "1-4"),
            ("freiman_lemma", "--set", "random", "--seed", "1", "--size", "8"),
        ],
    )
    def test_budget_guard(self, call, argv):
        code, out, err = call("verify", *argv, "--budget", "10")
        assert code == 2 and "budget" in err and out == ""

    @pytest.mark.parametrize(
        "statement, copies, budget",
        [
            # three copies of the 7x7 cube add up to 361 points, two to 169
            ("elementary", 3, "10"),
            ("discrete_bm", 2, "10"),
            ("gs_kfold", 3, "10"),
            ("elementary", 3, "360"),
            ("elementary", 2, "0"),
            ("iterated_pr", 2, "10"),
            ("plunnecke_ruzsa", 2, "10"),
            ("ruzsa_triangle", 3, "10"),
            ("sum_monotone", 3, "10"),
            ("projection_monotone", 2, "10"),
        ],
    )
    def test_budget_guard_on_set_files(self, call, tmp_path, monkeypatch, statement, copies, budget):
        c = str(tmp_path / "c.json")
        assert call("gen", "cube", "--d", "2", "--N", "3", "-o", c)[0] == 0
        forbid_sums(monkeypatch, int(budget))
        argv = ("verify", statement, "--sets", *[c] * copies, *SET_FILE_EXTRA.get(statement, ()))
        code, out, err = call(*argv, "--budget", budget)
        assert code == 2 and "budget" in err and out == ""

    @pytest.mark.parametrize(
        "statement, sets, extra, bound",
        [
            # X + X for X = C + C is 4C: 25 x 25 points
            ("iterated_pr", "CC", (), 625),
            # 2A - A = 3C is 19 x 19 points; A + B = L + C is 10 x 7
            ("plunnecke_ruzsa", "CL", ("--m", "2", "--n", "1"), 361),
            ("plunnecke_ruzsa", "LC", ("--m", "2", "--n", "1"), 70),
            # sets U V W: the one sum C + C, 13 x 13, is V + W, V + U, U + W
            ("ruzsa_triangle", "LCC", (), 169),
            ("ruzsa_triangle", "CCL", (), 169),
            ("ruzsa_triangle", "CLC", (), 169),
            ("sum_monotone", "CCC", ("--axis", "1"), 361),
            # the diagonal compression moves C into a 7 x 19 box
            ("sum_monotone", "CCC", ("--spec", "diagonal.json"), 703),
            ("projection_monotone", "CC", ("--axis", "1", "--coords", "1,2"), 169),
            # P and its compression both project to {0, 1} on coordinate 2:
            # the counted sums have 3 points, the unprojected ones 1600
            ("projection_monotone", "PP", ("--axis", "1", "--coords", "2"), 3),
            # unprojected, P + P is bounded by 40 x 40 pairs, and its
            # compression, 20 points on each of two lines, by a 39 x 3 box
            ("projection_monotone", "PP", ("--axis", "1", "--coords", "1,2"), 1600),
            # scaled by 2, R + R fills a 3 x 1 box, while the sum of its
            # compression {(0, 1/2), (1, 1/2)} is bounded by its 2 x 2 pairs
            ("projection_monotone", "RR", ("--axis", "1", "--coords", "1,2"), 4),
        ],
    )
    def test_budget_guard_bound_is_tight(self, call, tmp_path, monkeypatch, statement, sets, extra, bound):
        # C is the 7 x 7 cube, L four points on a line, P the 40 points
        # (25i, i mod 2) and R = {(0, 1/2), (1/2, 1/2)}
        monkeypatch.chdir(tmp_path)
        assert call("gen", "cube", "--d", "2", "--N", "3", "-o", "C")[0] == 0
        (tmp_path / "L").write_text(dumps_canonical(pointset_to_dict(PointSet(2, [(j, 0) for j in range(4)]))))
        (tmp_path / "R").write_text(dumps_canonical(pointset_to_dict(PointSet(2, [(0, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))]))))
        (tmp_path / "P").write_text(dumps_canonical(pointset_to_dict(PointSet(2, [(25 * i, i % 2) for i in range(40)]))))
        diagonal = {"hyperplane": {"normal": ["1", "0"], "offset": "0"}, "direction": ["1", "1"]}
        (tmp_path / "diagonal.json").write_text(dumps_canonical(diagonal))
        argv = ("verify", statement, "--sets", *sets, *extra)
        assert call(*argv, "--budget", str(bound))[0] == 0
        forbid_sums(monkeypatch, bound - 1)
        code, out, err = call(*argv, "--budget", str(bound - 1))
        assert code == 2 and "budget" in err and out == ""

    def test_rational_iterated_pr_admitted(self, call, workset):
        # X + X = 4H lies in 81 x 81 multiples of 1/2, far below the default
        # budget; the product bound was 255^4
        _, write = workset
        h = write("h.json", pointset_to_dict(half_integer_set()))
        code, out, _ = call("verify", "iterated_pr", "--sets", h, h)
        assert code == 0 and json.loads(out)["lhs"] == "6489"

    def test_budget_guard_admits_sum_within_budget(self, call, tmp_path):
        c = str(tmp_path / "c.json")
        assert call("gen", "cube", "--d", "2", "--N", "3", "-o", c)[0] == 0
        code, out, _ = call("verify", "elementary", "--sets", c, c, c, "--budget", "361")
        assert code == 0 and json.loads(out)["rhs"] == "361"

    def test_violated_exit_code(self, call, workset):
        # sum_monotone is an inequality family that cannot be violated; use a
        # probe-free statement with a forced violation instead: none exists,
        # so exercise exit 1 through the suite interface on a tampered doc is
        # not possible either -- the CLI reserves exit 1 for Violated
        # certificates, covered by unit tests on _exit_for.
        from sumsetlab.cli import _exit_for
        from sumsetlab.certificates import exact_certificate

        assert _exit_for([exact_certificate("demo", 2, 1)]) == 1
        assert _exit_for([exact_certificate("demo", 1, 2)]) == 0

    def test_indeterminate_exit_code(self, call, workset):
        tmp, write = workset
        rot = str(tmp / "rot.json")
        cube = str(tmp / "cube.json")
        call("gen", "rotation", "--d", "2", "-o", rot)
        call("gen", "cube", "--d", "2", "--N", "1", "-o", cube)
        code, _, err = call("probe", "main-term", "--system", rot, "--set", cube)
        assert code == 3 and "Indeterminate" in err

    def test_unknown_statement_is_usage_error(self, call):
        assert call("verify", "no_such_statement")[0] == 2

    def test_missing_file_is_usage_error(self, call, tmp_path):
        code, _, err = call("verify", "elementary", "--sets", str(tmp_path / "nope.json"))
        assert code == 2 and "error" in err

    def test_precision_cap_validated(self, call, workset):
        _, write = workset
        a = write("a.json", pointset_to_dict(PointSet(1, [(0,), (1,)])))
        code, _, err = call(
            "verify", "elementary", "--sets", a, a, "--precision-cap", "64"
        )
        assert code == 2 and "precision" in err

    def test_precision_cap_not_written_to_environment(self, call, workset, monkeypatch):
        monkeypatch.delenv("SUMSETLAB_PRECISION_CAP", raising=False)
        _, write = workset
        a = write("a.json", pointset_to_dict(PointSet(1, [(0,), (1,)])))
        code, _, _ = call("verify", "elementary", "--sets", a, a, "--precision-cap", "256")
        assert code == 0
        assert "SUMSETLAB_PRECISION_CAP" not in os.environ

    @pytest.mark.parametrize("command", ["verify", "probe"])
    def test_precision_cap_reaches_interval_certificate(self, call, workset, monkeypatch, command):
        tmp, write = workset
        if command == "verify":
            # sizes 2 and 3 in the plane: sqrt 2 + sqrt 3 needs intervals
            a = write("a.json", pointset_to_dict(PointSet(2, [(0, 0), (1, 0)])))
            b = write("b.json", pointset_to_dict(PointSet(2, [(0, 0), (0, 1), (1, 1)])))
            argv = ("verify", "discrete_bm", "--sets", a, b)
        else:
            rot, cube = str(tmp / "rot.json"), str(tmp / "cube.json")
            call("gen", "rotation", "--d", "2", "-o", rot)
            call("gen", "cube", "--d", "2", "--N", "1", "-o", cube)
            argv = ("probe", "det-main-term", "--system", rot, "--set", cube)
        caps = spy_interval_caps(monkeypatch, tmp)
        call(*argv)
        call(*argv, "--precision-cap", "256")
        seen = caps()
        assert seen == [4096, 256]

    def test_csv_format(self, call, workset):
        _, write = workset
        a = write("a.json", pointset_to_dict(PointSet(1, [(0,), (1,)])))
        code, out, _ = call("verify", "elementary", "--sets", a, a, "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert header == "statement_id,verdict,lhs,rhs,slack,precision_bits,inputs_digest,params"
        assert row.startswith("elementary,Holds,3,3,0")

    def test_csv_interval_certificate_bytes(self, call, workset):
        # sqrt 2 + sqrt 3: lhs and slack are intervals, written as JSON cells
        _, write = workset
        a = write("a.json", pointset_to_dict(PointSet(2, [(0, 0), (1, 0)])))
        b = write("b.json", pointset_to_dict(PointSet(2, [(0, 0), (0, 1), (1, 1)])))
        code, out, _ = call("verify", "discrete_bm", "--sets", a, b, "--format", "csv")
        assert code == 0 and '{""hi"":' in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "bbc7401fad278da1be5fcf98905cf24f462f665ca869d5d36fbc3ed5abb2b8a9"
        )

    def test_probe_csv_bytes(self, call, workset):
        tmp, _ = workset
        rot, cube = str(tmp / "rot.json"), str(tmp / "cube.json")
        call("gen", "rotation", "--d", "2", "-o", rot)
        call("gen", "cube", "--d", "2", "--N", "1", "-o", cube)
        code, out, _ = call("probe", "main-term", "--system", rot, "--set", cube, "--format", "csv")
        assert code == 3 and out.startswith("statement_id,")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2c1bfd44df3c098512fb5fd4107d5a26983353fe2997ab25141195b95a7aff24"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "cube", "--d", "1", "--N", "1"),
            ("sumset", "--set", "square", "--k", "2"),
            ("compress", "--set", "square", "--axis", "1"),
            ("reduce", "--set", "square"),
            ("project", "--set", "square", "--coords", "1"),
            ("suite", "smoke"),
            ("probe", "khovanskii", "--set", "square", "--k-max", "4"),
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_csv_refused_without_certificates(self, call, tmp_path, monkeypatch, argv):
        # only certificates have a CSV form; every other report is JSON only
        monkeypatch.chdir(tmp_path)
        (tmp_path / "square").write_text(dumps_canonical(pointset_to_dict(SQUARE)))
        assert call(*argv)[0] == 0
        code, out, err = call(*argv, "--format", "csv")
        assert code == 2 and out == "" and "error" in err

    def test_out_file_matches_stdout(self, call, workset):
        tmp, write = workset
        a = write("a.json", pointset_to_dict(PointSet(2, [(0, 0), (1, 0), (0, 1)])))
        b = write("b.json", pointset_to_dict(PointSet(2, [(0, 0), (2, 1)])))
        target = tmp / "certs.jsonl"
        code, out, err = call("verify", "elementary", "--sets", a, b, a)
        assert code == 0
        assert call("verify", "elementary", "--sets", a, b, a, "-o", str(target)) == (0, "", err)
        assert target.read_text() == out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e2a356fc27af6b84026282a352cb153049aba77e25d29bf904c53a60b35f1982"
        )


class TestSumLimit:
    """``--budget`` is one engine limit, entered by ``cli.run`` around every
    command: C is the 7 x 7 cube, whose sums C + C and C + C + C have 169
    and 361 points, and rot the planar rotation system."""

    @pytest.fixture
    def cube7(self, call, tmp_path, monkeypatch):
        """Writes C and rot to the working directory and returns C."""
        monkeypatch.chdir(tmp_path)
        assert call("gen", "cube", "--d", "2", "--N", "3", "-o", "C")[0] == 0
        assert call("gen", "rotation", "--d", "2", "-o", "rot")[0] == 0
        return PointSet(2, [(i, j) for i in range(-3, 4) for j in range(-3, 4)])

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "linear_pr", "--system", "rot", "--set", "C"),
            ("verify", "fiber_bound", "--system", "rot", "--set", "C", "--subspace", "1,0"),
            ("verify", "simplex_formula", "--d", "2", "--N", "4", "--k", "2"),
            ("probe", "main-term", "--system", "rot", "--set", "C"),
            ("probe", "det-main-term", "--system", "rot", "--set", "C"),
            ("probe", "khovanskii", "--set", "C"),
            ("suite", "smoke"),
        ],
    )
    def test_every_command_refuses(self, call, cube7, argv):
        code, out, err = call(*argv, "--budget", "10")
        assert code == 2 and "budget" in err and out == ""

    def test_one_summand_is_not_a_sum(self, call, cube7):
        code, out, _ = call("sumset", "--set", "C", "--k", "1", "--budget", "1")
        assert code == 0 and json.loads(out)["size"] == 49

    @pytest.mark.parametrize("budget, exit_code", [("169", 0), ("10", 2)])
    def test_no_limit_after_run(self, call, cube7, budget, exit_code):
        assert call("sumset", "--set", "C", "--k", "2", "--budget", budget)[0] == exit_code
        assert len(iterated_sumset(cube7, 3)) == 361

    @pytest.mark.parametrize(
        "argv, counts",
        [
            (("sum_monotone", "--sets", "C", "C", "C", "--axis", "1"), {"compress": 4, "project": 0}),
            (("projection_monotone", "--sets", "C", "C", "--axis", "1", "--coords", "1"),
             {"compress": 2, "project": 4}),
        ],
    )
    def test_sets_compressed_and_projected_once(self, call, cube7, monkeypatch, argv, counts):
        # compress: each set once, and the sum once for sum_monotone; project:
        # each set and each compression once
        seen = {"compress": 0, "project": 0}
        modules = [m for name, m in sys.modules.items() if name.startswith("sumsetlab")]
        for function in (compression.compress, core.project):
            def spy(*args, _function=function, **kwargs):
                seen[_function.__name__] += 1
                return _function(*args, **kwargs)

            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is function:
                        monkeypatch.setattr(module, name, spy)
        assert call("verify", *argv)[0] == 0
        assert seen == counts


class TestDeterminism:
    SWEEP = ("verify", "simplex_formula", "--d", "1-2", "--N", "4-8", "--k", "2-3")

    def test_byte_identical_repeat_runs(self, call):
        first = call(*self.SWEEP)
        second = call(*self.SWEEP)
        assert first == second

    def test_golden_simplex_formula_stdout(self, call):
        # the full certificates of 45 (d, N, k) cases: a change to these bytes
        # is a change of output, never a refactor
        code, out, _ = call("verify", "simplex_formula", "--d", "1-3", "--N", "4-8", "--k", "2-4")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "20192382712f86d7e041cf70a6f5bbcbd261c5f7140c896254f94017f4b04096"
        )

    def test_golden_reduce_stdout(self, call, tmp_path):
        # a trace with axis, alignment and shear moves
        path = str(tmp_path / "a.json")
        gen = ("gen", "random-full-dim", "--d", "3", "--size", "6", "--box", "0,6", "--seed", "34")
        assert call(*gen, "-o", path)[0] == 0
        code, out, err = call("reduce", "--set", path)
        assert code == 0 and err == "reduced in 6 steps to 6 points\n"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5bb0167664018de26bb3a0d6559a2d4dddd1468a31ad73a134624cdef34c2d71"
        )


# the rational set of the golden `sumset --k 3` stdout pinned in CI
RATIONAL_SET = (
    '{"dim": 2, "points": [["1/3", "0"], ["1/2", "2/5"], ["-7/6", "3"], ["4", "-1/10"], '
    '["0", "0"], ["5/4", "-3/8"]]}'
)


def fresh_interpreter(*args, cwd=None):
    """``python args`` in a new interpreter that imports this sumsetlab."""
    src = os.path.dirname(os.path.dirname(sumsetlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=120)


def fresh_process(*argv, cwd=None):
    """The exit code and stdout of ``sumsetlab argv`` in a new interpreter."""
    result = fresh_interpreter("-m", "sumsetlab.cli", *argv, cwd=cwd)
    return result.returncode, result.stdout


# Imports the CLI in a fresh interpreter, counting the ArgumentParsers built,
# and prints the count after the import and after each of two runs.
PARSER_BUILDS_SCRIPT = """
import argparse, contextlib, io, json

built = [0]
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    built[0] += 1
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
from sumsetlab import cli

counts = [built[0]]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(["gen", "simplex", "--d", "2", "--N", "3"])
    counts.append(built[0])
print(json.dumps(counts))
"""


class TestParserReuse:
    """``run`` builds its parser once per process, on the first call, and a run
    leaves nothing in it that changes a later run."""

    SUMSET = ("sumset", "--set", "rational.json", "--k", "3")
    VERIFY = ("verify", "simplex_formula", "--d", "1-2", "--N", "4", "--k", "2")

    @pytest.fixture
    def rational(self, tmp_path, monkeypatch):
        (tmp_path / "rational.json").write_text(RATIONAL_SET)
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_one_parser(self):
        assert cli._build_parser() is cli._build_parser()

    def test_built_on_first_run_not_at_import(self):
        result = fresh_interpreter("-c", PARSER_BUILDS_SCRIPT)
        assert result.returncode == 0, result.stderr
        at_import, first, second = json.loads(result.stdout)
        assert at_import == 0 and first > 0 and second == first

    def test_refusal_leaves_default_budget(self, call, rational):
        fresh = fresh_process(*self.SUMSET, cwd=rational)
        assert fresh[0] == 0
        code, out, err = call(*self.SUMSET, "--budget", "5")
        assert code == 2 and out == "" and "budget of 5" in err
        assert call(*self.SUMSET)[:2] == fresh
        assert hashlib.sha256(fresh[1].encode()).hexdigest() == (
            "f2780bd5e1e4ad8aad405bdac16ca0306043fb33456f14a75b3871b892939e10"
        )

    def test_out_file_then_stdout(self, call, rational):
        fresh = fresh_process(*self.SUMSET, cwd=rational)
        assert call(*self.SUMSET, "-o", "sum.json")[:2] == (0, "")
        assert (rational / "sum.json").read_text() == fresh[1]
        assert call(*self.SUMSET)[:2] == fresh

    def test_csv_then_json(self, call, rational):
        fresh = fresh_process(*self.VERIFY, cwd=rational)
        code, out, _ = call(*self.VERIFY, "--format", "csv")
        assert code == 0 and out.startswith("statement_id,")
        assert call(*self.VERIFY)[:2] == fresh

    def test_usage_error_and_help_then_run(self, call, rational):
        fresh = fresh_process(*self.SUMSET, cwd=rational)
        code, _, err = call("sumset", "--set", "rational.json", "--k", "three")
        assert code == 2 and "invalid int value" in err
        code, out, _ = call("sumset", "--help")
        assert code == 0 and out.startswith("usage:")
        assert call(*self.SUMSET)[:2] == fresh


class TestSuite:
    def test_smoke_suite_passes(self, call):
        code, out, err = call("suite", "smoke")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert [line.split()[0] for line in err.splitlines()] == ["PASS"] * len(doc["criteria"])

    def test_precision_cap_reaches_every_interval_certificate(self, call, monkeypatch, tmp_path):
        # the criteria run in forked workers, which append to the spy's file
        caps = spy_interval_caps(monkeypatch, tmp_path)
        code, out, _ = call("suite", "smoke", "--precision-cap", "256")
        assert code == 0 and json.loads(out)["passed"] is True
        seen = caps()
        assert seen and set(seen) == {256}

    def test_unknown_suite_is_usage_error(self, call):
        assert call("suite", "nightly")[0] == 2


# every flag that some statement or kind of the command takes
FLAGS_OF = {
    "verify": ("--sets", "--set", "--system", "--basis", "--grids", "--direction", "--d", "--N", "--k", "--m",
               "--n", "--axis", "--coords", "--spec", "--subspace", "--seed", "--size", "--box", "--random-dim",
               "--format"),
    "probe": ("--system", "--set", "--k-max", "--format"),
    "gen": ("--d", "--N", "--k", "--lo", "--hi", "--dims", "--size", "--box", "--seed", "--entry-bound"),
}

# (command, statement or kind, a valid invocation as (flag, values) pairs, its
# exit code, the flags it requires, the flags it also takes); C is the 3 x 3
# cube and rot the planar rotation system
SUBCOMMANDS = [
    ("verify", "elementary", [("--sets", "C C")], 0, {"--sets"}, {"--format"}),
    ("verify", "gs_kfold", [("--grids", "2x2,2x2,2x2"), ("--direction", "1,0")], 0, {"--grids"},
     {"--sets", "--format"}),
    ("verify", "freiman_kfold",
     [("--set", "random"), ("--seed", "1-2"), ("--size", "6"), ("--box", "0,6"), ("--random-dim", "2"), ("--k", "2")],
     0, {"--set"}, {"--format"}),
    ("verify", "freiman_lemma",
     [("--set", "random"), ("--seed", "1"), ("--size", "6"), ("--box", "0,6"), ("--random-dim", "2")],
     0, {"--set"}, {"--format"}),
    ("verify", "simplex_formula", [("--d", "2"), ("--N", "4"), ("--k", "2")], 0, {"--d", "--N", "--k"},
     {"--format"}),
    ("verify", "discrete_bm", [("--sets", "C C")], 0, {"--sets"}, {"--basis", "--format"}),
    ("verify", "ruzsa_triangle", [("--sets", "C C C")], 0, {"--sets"}, {"--format"}),
    ("verify", "plunnecke_ruzsa", [("--sets", "C C"), ("--m", "2"), ("--n", "1")], 0, {"--sets"}, {"--format"}),
    ("verify", "iterated_pr", [("--sets", "C C")], 0, {"--sets"}, {"--format"}),
    ("verify", "linear_pr", [("--system", "rot"), ("--set", "C")], 0, {"--system", "--set"}, {"--format"}),
    ("verify", "fiber_bound", [("--system", "rot"), ("--set", "C"), ("--subspace", "1,0")], 0,
     {"--system", "--set", "--subspace"}, {"--format"}),
    ("verify", "sum_monotone", [("--sets", "C C"), ("--axis", "1")], 0, {"--sets", "--axis"},
     {"--spec", "--format"}),
    ("verify", "projection_monotone", [("--sets", "C C"), ("--axis", "1"), ("--coords", "1")], 0,
     {"--sets", "--axis", "--coords"}, {"--format"}),
    ("probe", "main-term", [("--system", "rot"), ("--set", "C")], 3, {"--system", "--set"}, {"--format"}),
    ("probe", "det-main-term", [("--system", "rot"), ("--set", "C")], 3, {"--system", "--set"}, {"--format"}),
    ("probe", "khovanskii", [("--set", "C"), ("--k-max", "4")], 0, {"--set"}, set()),
    *(("gen", kind, [("--d", "2"), ("--N", "3")], 0, {"--d", "--N"}, set())
      for kind in ("simplex", "simplex-summands", "simplex-sumset-form", "cube")),
    ("gen", "interval", [("--lo", "0"), ("--hi", "3")], 0, {"--lo", "--hi"}, set()),
    ("gen", "grid", [("--dims", "2x2")], 0, {"--dims"}, set()),
    ("gen", "rotation", [("--d", "2")], 0, {"--d"}, set()),
    ("gen", "shear", [], 0, set(), set()),
    ("gen", "shear-counterexample", [("--N", "3")], 0, {"--N"}, set()),
    *(("gen", kind, [("--d", "2"), ("--size", "3"), ("--box", "0,4"), ("--seed", "1")], 0, {"--d", "--size"}, set())
      for kind in ("random", "random-full-dim")),
    ("gen", "random-system", [("--d", "2"), ("--k", "2"), ("--entry-bound", "2"), ("--seed", "1")], 0,
     {"--d", "--k"}, set()),
]


SUBCOMMAND_IDS = [f"{command} {kind}" for command, kind, *_ in SUBCOMMANDS]


class TestSubcommandFlags:
    """Each ``verify`` statement and ``gen`` or ``probe`` kind takes its own
    flags: argparse refuses a flag it does not take, or a missing required
    one, with exit 2 and nothing on stdout."""

    @pytest.fixture
    def files(self, call, tmp_path, monkeypatch):
        """C and rot in the working directory."""
        monkeypatch.chdir(tmp_path)
        assert call("gen", "cube", "--d", "2", "--N", "1", "-o", "C")[0] == 0
        assert call("gen", "rotation", "--d", "2", "-o", "rot")[0] == 0

    @pytest.fixture
    def sub_call(self, call, files):
        def _call(command, kind, pairs):
            return call(command, kind, *[token for flag, values in pairs for token in (flag, *values.split())])

        return _call

    def test_table_covers_every_statement_and_kind(self):
        tables = {"verify": cli._VERIFY_BUILDERS, "probe": cli._PROBE_KINDS, "gen": cli._GEN_KINDS}
        for command, table in tables.items():
            assert [kind for c, kind, *_ in SUBCOMMANDS if c == command] == list(table)

    @pytest.mark.parametrize("command, kind, pairs, code, required, other", SUBCOMMANDS, ids=SUBCOMMAND_IDS)
    def test_valid_invocation(self, sub_call, command, kind, pairs, code, required, other):
        result = sub_call(command, kind, pairs)
        assert result[0] == code and result[1] != "", result[2]

    @pytest.mark.parametrize("command, kind, pairs, code, required, other", SUBCOMMANDS, ids=SUBCOMMAND_IDS)
    def test_undeclared_flag_refused(self, sub_call, command, kind, pairs, code, required, other):
        taken = {flag for flag, _ in pairs} | other
        for flag in FLAGS_OF[command]:
            if flag not in taken:
                value = "json" if flag == "--format" else "1"
                code, out, err = sub_call(command, kind, [*pairs, (flag, value)])
                assert (code, out) == (2, ""), flag
                assert err.startswith(f"usage: sumsetlab {command} {kind} ")
                assert f"unrecognized arguments: {flag} {value}" in err

    def test_stray_flag_refused_with_the_statement_usage(self, files, call):
        code, out, err = call("verify", "freiman_kfold", "--set", "C", "--sets", "C")
        assert (code, out) == (2, "")
        assert err.startswith("usage: sumsetlab verify freiman_kfold")
        assert err.splitlines()[-1] == "sumsetlab verify freiman_kfold: error: unrecognized arguments: --sets C"

    @pytest.mark.parametrize("command, kind, pairs, code, required, other", SUBCOMMANDS, ids=SUBCOMMAND_IDS)
    def test_missing_required_flag_refused(self, sub_call, command, kind, pairs, code, required, other):
        for flag in required:
            code, out, err = sub_call(command, kind, [pair for pair in pairs if pair[0] != flag])
            assert (code, out) == (2, ""), flag
            assert "required" in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "elementary", "--sets", "C", "C", "--system", "SINGULAR", "--k", "7", "--grids", "3x3"),
            ("verify", "freiman_kfold", "--set", "C", "--k", "2", "--sets", "C", "--axis", "1"),
            ("probe", "main-term", "--system", "rot", "--set", "C", "--k-max", "99"),
            ("gen", "rotation", "--d", "2", "--seed", "99", "--size", "4"),
            # the common flags go after the statement
            ("verify", "--budget", "5", "elementary", "--sets", "C", "C"),
            ("verify", "ruzsa_triangle", "--sets", "C", "C"),
            ("verify", "plunnecke_ruzsa", "--sets", "C", "C", "C"),
            ("verify", "gs_kfold", "--grids", "2x2,2x2", "--sets", "C", "C"),
            ("verify", "sum_monotone", "--sets", "C", "--axis", "1", "--spec", "C"),
            ("sumset", "--sets", "C", "--set", "C"),
            ("compress", "--set", "C"),
            ("verify", "no_such_statement"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_once_ignored_flags_refused(self, files, call, argv):
        code, out, err = call(*argv)
        assert (code, out) == (2, "") and err.startswith("usage: sumsetlab")
        assert err.splitlines()[-1].startswith("sumsetlab") and ": error: " in err.splitlines()[-1]

    @pytest.mark.parametrize("statement, sets", [("gs_kfold", 1), ("iterated_pr", 1), ("iterated_pr", 2)])
    def test_two_or_more_sets(self, files, call, statement, sets):
        code, out, err = call("verify", statement, "--sets", *["C"] * sets)
        if sets == 2:
            assert code == 0 and out != ""
        else:
            assert (code, out, err) == (2, "", f"error: verify {statement} needs --sets with at least 2 files\n")

    def test_sets_excludes_system(self, files, call):
        assert call("sumset", "--sets", "C", "C", "--system", "rot") == (2, "", "error: --sets excludes --system\n")


def written_entries(doc) -> int:
    """The points and matrix entries of a ``gen`` document."""
    if isinstance(doc, list):
        return sum(map(written_entries, doc))
    if "points" in doc:
        return len(doc["points"])
    if "maps" in doc:
        return sum(len(row) for matrix in doc["maps"] for row in matrix)
    return sum(map(written_entries, doc.values()))


class TestBudgetBeforeBuilding:
    """``gen`` and the sweeps of ``verify`` compare what they would build with
    ``--budget`` before they build it, and refuse with exit 2."""

    @pytest.mark.parametrize("argv", [("--d", "2", "--N", "100000000"), ("--d", "40", "--N", "3")])
    def test_oversized_cube_refused(self, call, monkeypatch, argv):
        def forbidden(*args):
            raise AssertionError("the cube was built despite the budget")

        monkeypatch.setattr(cli, "cube", forbidden)
        code, out, err = call("gen", "cube", *argv)
        assert (code, out) == (2, "")
        assert err == "error: gen cube writes more points and matrix entries than the budget of 10000000\n"

    @pytest.mark.parametrize(
        "kind, pairs", [pytest.param(kind, pairs, id=kind) for command, kind, pairs, *_ in SUBCOMMANDS if command == "gen"]
    )
    def test_gen_size_is_what_it_writes(self, call, kind, pairs):
        # the closed-form size: accepted at a budget of exactly it, refused below
        argv = ("gen", kind, *[token for flag, values in pairs for token in (flag, *values.split())])
        code, out, _ = call(*argv)
        size = written_entries(json.loads(out))
        assert code == 0 and size > 0
        assert call(*argv, "--budget", str(size)) == (0, out, "")
        code, out, err = call(*argv, "--budget", str(size - 1))
        assert (code, out) == (2, "") and "budget" in err

    def test_product_of_ranges_refused(self, call):
        # each range fits the budget, their 10^9 cases do not
        code, out, err = call("verify", "simplex_formula", "--d", "1-1000", "--N", "1-1000", "--k", "1-1000")
        assert (code, out) == (2, "")
        assert err == "error: verify simplex_formula: 1000000000 cases exceed the budget of 10000000\n"

    @pytest.mark.parametrize(
        "argv, cases",
        [
            (("verify", "simplex_formula", "--d", "1-2", "--N", "3-4", "--k", "1"), 4),
            (("verify", "freiman_kfold", "--set", "random", "--seed", "1-5", "--k", "1-2", "--size", "3"), 10),
        ],
        ids=lambda value: value[1] if isinstance(value, tuple) else str(value),
    )
    def test_cases_refused_past_the_budget(self, call, argv, cases):
        code, out, _ = call(*argv, "--budget", str(cases))
        assert code == 0 and len(out.splitlines()) == cases
        code, out, err = call(*argv, "--budget", str(cases - 1))
        assert (code, out) == (2, "") and f"{cases} cases exceed the budget of {cases - 1}" in err


class TestRefusedBeforeReading:
    """Inputs that once crashed with exit 1, the code of a Violated verdict,
    are refused with exit 2 before they are read in full."""

    def test_deep_json(self, call, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = call("sumset", "--set", str(path), "--k", "2")
        assert (code, out) == (2, "") and err.startswith(f"error: {path} is not valid JSON: ")

    def test_sweep_longer_than_budget(self, call):
        # refused before the 10**8 values of --k are listed
        code, out, err = call("verify", "simplex_formula", "--d", "1-3", "--N", "4-8", "--k", "2-100000000")
        assert (code, out, err) == (2, "", "error: --k: '2-100000000' lists more values than the budget of 10000000\n")

    def test_sweep_at_budget(self, call):
        # a budget of 3 admits three values of --k, and the 3-point sums of
        # these cases, but not four values
        argv = ("verify", "simplex_formula", "--d", "1", "--N", "2", "--budget", "3", "--k")
        assert call(*argv, "2,2,2")[0] == 0
        assert call(*argv, "2,2,2,2") == (2, "", "error: --k: '2,2,2,2' lists more values than the budget of 3\n")

    def test_seed_range_longer_than_budget(self, call):
        argv = ("verify", "freiman_kfold", "--set", "random", "--size", "6", "--seed", "1-4", "--budget", "3")
        assert call(*argv) == (2, "", "error: --seed: '1-4' lists more values than the budget of 3\n")


# Runs CLI commands in one fresh interpreter and prints, as JSON, each
# command's exit code, stdout and stderr and whether sympy was loaded after
# it.  With the argument "block", sympy is blocked first: importing it raises
# ImportError, which no command catches.  The last step imports sympy itself,
# so that an unblocked run can see a load.
START_PATH_SCRIPT = """
import contextlib, io, json, sys
if sys.argv[1:] == ["block"]:
    sys.modules["sympy"] = None
from sumsetlab import cli

def loaded():
    return sys.modules.get("sympy") is not None

steps = [("import", 0, "", "", loaded())]
for line in sys.stdin.read().splitlines():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(line.split())
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    steps.append((line, code, out.getvalue(), err.getvalue(), loaded()))
try:
    import sympy
except ImportError:
    pass
steps.append(("import sympy", 0, "", "", loaded()))
print(json.dumps(steps))
"""

IDENTITY_4 = [[int(i == j) for j in range(4)] for i in range(4)]
START_PATH_SYSTEMS = {
    # companion matrices of the Eisenstein polynomials x^4 + 2x^3 + 2x + 2
    # and x^5 + 2x + 6: irreducible characteristic polynomials
    "eis4.json": [IDENTITY_4, [[0, 0, 0, -2], [1, 0, 0, -2], [0, 1, 0, 0], [0, 0, 1, -2]]],
    "eis5.json": [
        [[int(i == j) for j in range(5)] for i in range(5)],
        [[0, 0, 0, 0, -6], [1, 0, 0, 0, -2], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
        [[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
    ],
    # P diag(R_1, R_2) P^-1 with R_i of characteristic polynomial x^2 + i and
    # P unimodular: Norton finds the invariant plane P(span(e_1, e_2))
    "red4.json": [IDENTITY_4, [[1, -2, 2, -2], [1, -1, 1, -3], [0, 0, 1, -3], [0, 0, 1, -1]]],
}


class TestStartPath:
    """No command loads sympy, and every command runs with sympy blocked.
    pytest has sympy loaded already, so the commands run in a fresh
    interpreter."""

    # (command, exit code)
    COMMANDS = [
        ("gen random --d 2 --size 6 --box 0,4 --seed 1 -o a.json", 0),
        ("gen random --d 2 --size 6 --box 0,4 --seed 2 -o b.json", 0),
        ("gen random --d 2 --size 2 --box 0,4 --seed 3 -o c.json", 0),
        ("gen random --d 2 --size 3 --box 0,4 --seed 4 -o e.json", 0),
        ("gen random-full-dim --d 3 --size 6 --box 0,6 --seed 34 -o f.json", 0),
        ("gen random-full-dim --d 4 --size 6 --box=-3,3 --seed 5 -o s4.json", 0),
        ("gen random-full-dim --d 5 --size 6 --box=-3,3 --seed 6 -o s5.json", 0),
        ("gen rotation --d 2 -o rot.json", 0),
        ("gen cube --d 2 --N 1 -o cube.json", 0),
        ("sumset --sets a.json b.json", 0),
        ("compress --set a.json --axis 1", 0),
        ("project --set a.json --coords 1", 0),
        ("reduce --set f.json", 0),
        ("verify discrete_bm --sets a.json b.json", 0),
        ("verify discrete_bm --sets c.json e.json", 0),
        ("verify freiman_kfold --set a.json --k 2-3", 0),
        ("verify fiber_bound --system rot.json --set a.json --subspace 1,0", 0),
        ("suite smoke", 0),
        ("probe khovanskii --set a.json --k-max 4", 0),
        ("probe det-main-term --system rot.json --set cube.json", 3),
        ("probe main-term --system rot.json --set cube.json", 3),
        ("probe main-term --system eis4.json --set s4.json", 3),
        ("probe main-term --system eis5.json --set s5.json", 3),
        ("probe main-term --system red4.json --set s4.json", 2),
        ("verify elementary", 2),
    ]

    def run_commands(self, tmp_path, flags, block):
        for name, maps in START_PATH_SYSTEMS.items():
            (tmp_path / name).write_text(json.dumps({"dim": len(maps[0]), "maps": maps}))
        src = os.path.dirname(os.path.dirname(sumsetlab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, *flags, "-c", START_PATH_SCRIPT, *(["block"] if block else [])],
            input="\n".join(line for line, _ in self.COMMANDS),
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        steps = json.loads(result.stdout)
        lines = [line for line, _ in self.COMMANDS]
        assert [line for line, *_ in steps] == ["import", *lines, "import sympy"]
        assert [code for _, code, *_ in steps[1:-1]] == [code for _, code in self.COMMANDS]
        return steps

    @pytest.mark.parametrize("flags", [(), ("-O",)])
    def test_no_command_loads_sympy(self, tmp_path, flags):
        steps = self.run_commands(tmp_path, flags, block=False)
        assert [loaded for *_, loaded in steps[:-1]] == [False] * (len(steps) - 1)
        # the positive control: importing sympy is seen as a load
        assert steps[-1][-1] is True
        # equal sizes take the exact root-sum path, sizes 2 and 3 the interval one
        by_line = {line: out for line, _, out, *_ in steps}
        exact = json.loads(by_line["verify discrete_bm --sets a.json b.json"])
        interval = json.loads(by_line["verify discrete_bm --sets c.json e.json"])
        assert exact["params"]["sizes"] == ["6", "6"] and "precision_bits" not in exact
        assert interval["params"]["sizes"] == ["2", "3"] and interval["precision_bits"] == 128

    @pytest.mark.parametrize("flags", [(), ("-O",)])
    def test_every_command_runs_with_sympy_blocked(self, tmp_path, flags):
        steps = self.run_commands(tmp_path, flags, block=True)
        # blocked throughout: not even the final import loaded it
        assert [loaded for *_, loaded in steps] == [False] * len(steps)
        by_line = {line: (out, err) for line, _, out, err, _ in steps}
        # the Eisenstein systems are certified irreducible in d = 4 and 5,
        # and the reducible system is refused
        for d in (4, 5):
            out, _ = by_line[f"probe main-term --system eis{d}.json --set s{d}.json"]
            assert json.loads(out.splitlines()[0])["params"]["d"] == str(d)
        _, err = by_line["probe main-term --system red4.json --set s4.json"]
        assert "requires a certified irreducible system" in err
        # the nested parsers refuse a missing flag
        out, err = by_line["verify elementary"]
        assert out == "" and err.splitlines()[-1] == (
            "sumsetlab verify elementary: error: the following arguments are required: --sets"
        )
