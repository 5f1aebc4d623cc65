import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from curvejac import cli, incidence, linalg, poly
from curvejac.construction import Fixture
from curvejac.incidence import (CurveParam, IncidenceProblem, quintics_through_curve,
                                random_member)
from curvejac.linalg import IntMatrix
from curvejac.poly import MultiPoly, _curve_monomials, monomial_basis

import oracles
import propcheck

DATA = Path(__file__).parent / "data"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture()
def fixture_a_path(tmp_path):
    rc, out, _ = run_cli(["fixture", "A"])
    assert rc == 0
    path = tmp_path / "fixture_a.json"
    path.write_text(out)
    return str(path)


@pytest.fixture()
def curve_a_path(tmp_path, fixture_a):
    path = tmp_path / "curve_a.json"
    path.write_text(json.dumps(fixture_a.c0.to_obj()))
    return str(path)


@pytest.fixture()
def problem_a_path(tmp_path, fixture_a):
    path = tmp_path / "problem_a.json"
    path.write_text(json.dumps(oracles.problem(fixture_a).to_obj()))
    return str(path)


class TestFixtureCommand:
    def test_emits_valid_bundle(self):
        rc, out, _ = run_cli(["fixture", "A"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["name"] == "A" and obj["d"] == 1
        Fixture.from_obj(obj)  # bundle is structurally valid

    def test_unknown_name_exits_2(self):
        rc, _, err = run_cli(["fixture", "Z"])
        assert rc == 2
        assert "unknown fixture" in err

    def test_round_trip_through_verify(self, fixture_a_path):
        rc, out, err = run_cli(["verify", fixture_a_path, "--seed", "0"])
        assert rc == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert len(report["checks"]) == 10
        assert "PASS" in err


class TestJacobianCommand:
    def test_coefficient_form(self, problem_a_path, curve_a_path):
        rc, out, _ = run_cli(["jacobian", problem_a_path, curve_a_path, "--form", "coeff"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["rank"] == 6
        assert obj["rank_kind"] == "exact"
        assert obj["tangent_dim"] == 4
        assert obj["formal"] is False
        assert obj["matrix"]["rows"] == 6 and obj["matrix"]["cols"] == 10

    def test_toy_problem(self, tmp_path, curve_a_path):
        prob = IncidenceProblem(4, 1, 1, MultiPoly.monomial((0, 0, 0, 0, 1)))
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(prob.to_obj()))
        rc, out, _ = run_cli(["jacobian", str(path), curve_a_path])
        obj = json.loads(out)
        assert rc == 0 and obj["rank"] == 2 and obj["tangent_dim"] == 8

    def test_rank_below_min_certified_by_witnesses(self, tmp_path, monkeypatch):
        # a quintic through the plane conic: its 11 x 9 Jacobian has rank
        # 9 - 4, which the curve's symmetry witnesses certify, with no
        # elimination
        conic = DATA / "curve-conic.json"
        curve = CurveParam.from_obj(json.loads(conic.read_text()))
        mons = monomial_basis(3, 5)
        basis = quintics_through_curve(curve, mons, _curve_monomials(curve.components))
        path = tmp_path / "problem.json"
        prob = IncidenceProblem(2, 2, 5, random_member(basis, 1, mons))
        path.write_text(json.dumps(prob.to_obj()))

        def refuse(m):
            raise AssertionError("Bareiss ran")

        monkeypatch.setattr(linalg, "_bareiss_echelon", refuse)
        rc, out, err = run_cli(["jacobian", str(path), str(conic)])
        assert rc == 0, err
        obj = json.loads(out)
        assert (obj["rank"], obj["tangent_dim"], obj["formal"]) == (5, 4, False)

    def test_eval_form_matches_coeff_rank(self, problem_a_path, curve_a_path):
        rc, out, _ = run_cli(
            ["jacobian", problem_a_path, curve_a_path, "--form", "eval",
             "--points=-1/2,1,2,3,5,7"]
        )
        obj = json.loads(out)
        assert rc == 0 and obj["rank"] == 6 and obj["rank_kind"] == "exact"

    def test_eval_form_complex_points(self, problem_a_path, curve_a_path):
        rc, out, _ = run_cli(
            ["jacobian", problem_a_path, curve_a_path, "--form", "eval",
             "--points", "0,1,-1,2,-2,0.5+0.5i"]
        )
        obj = json.loads(out)
        assert rc == 0
        assert obj["rank"] == 6
        assert obj["rank_kind"].startswith("numeric")
        assert obj["exact"] is False

    def test_eval_form_huge_complex_point(self, problem_a_path, curve_a_path):
        # one huge point leaves the other rows' columns tiny once the matrix
        # is scaled to its largest entry; their Householder reflectors
        # divided by an underflowed norm * (norm + |x0|)
        _, out, _ = run_cli(["jacobian", problem_a_path, curve_a_path, "--form", "coeff"])
        exact = json.loads(out)["rank"]
        for point in ("1e40+1i", "1e34+1i", "1+1e35i"):
            rc, out, err = run_cli(
                ["jacobian", problem_a_path, curve_a_path, "--form", "eval",
                 f"--points=0,1,2,3,4,{point}"]
            )
            assert rc == 0 and "Traceback" not in err, (point, err)
            obj = json.loads(out)
            assert obj["rank_kind"] == "numeric@1e-8" and obj["rank"] <= exact, point

    def test_dimension_mismatch_exits_3(self, tmp_path, problem_a_path):
        bad_curve = {
            "n": 3,
            "d": 1,
            "components": [{"coeffs": ["1"]}, {"coeffs": ["0", "1"]},
                           {"coeffs": []}, {"coeffs": []}],
        }
        path = tmp_path / "bad_curve.json"
        path.write_text(json.dumps(bad_curve))
        rc, _, err = run_cli(["jacobian", problem_a_path, str(path)])
        assert rc == 3
        assert "dimension" in err

    def test_malformed_json_exits_2(self, tmp_path, curve_a_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc, _, err = run_cli(["jacobian", str(path), curve_a_path])
        assert rc == 2
        assert "line 1" in err

    def test_repeated_eval_points_exit_2(self, problem_a_path, curve_a_path):
        rc, _, err = run_cli(
            ["jacobian", problem_a_path, curve_a_path, "--form", "eval",
             "--points", "0,0,1,2,3,4"]
        )
        assert rc == 2
        assert "distinct" in err

    def test_points_belong_to_eval_form(self, problem_a_path, curve_a_path):
        # points given to the coefficient form would be ignored yet echoed in config
        for options in (["--points=0,1"], ["--form", "coeff", "--points", ""],
                        ["--form", "eval"]):
            rc, out, err = run_cli(["jacobian", problem_a_path, curve_a_path, *options])
            assert rc == 2, options
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("input error:"), err
            assert "--form eval" in err and "--points" in err


class TestVerifyCommand:
    def test_structural_error_exits_2(self, tmp_path, fixture_a):
        obj = fixture_a.to_obj()
        obj["q"] = MultiPoly.monomial((4, 0, 0, 0, 0)).to_obj()
        path = tmp_path / "bad_fixture.json"
        path.write_text(json.dumps(obj))
        rc, _, err = run_cli(["verify", str(path)])
        assert rc == 2
        assert "q(c0(t)) == 0" in err

    def test_reports_are_byte_identical(self, fixture_a_path):
        r1 = run_cli(["verify", fixture_a_path, "--seed", "5"])
        r2 = run_cli(["verify", fixture_a_path, "--seed", "5"])
        assert r1 == r2

    def test_failing_checks_exit_nonzero_with_report(self, tmp_path, fixture_a):
        # p restricting to 1 + 2t vanishes at the l-root: checks fail but the
        # fixture is structurally valid, so a full report is still emitted
        obj = fixture_a.to_obj()
        obj["p"] = MultiPoly(5, {(4, 0, 0, 0, 0): 1, (3, 1, 0, 0, 0): 2}).to_obj()
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(obj))
        rc, out, _ = run_cli(["verify", str(path)])
        assert rc == 2
        report = json.loads(out)
        assert report["passed"] is False
        assert len(report["checks"]) == 10


    def test_large_height_roots(self, tmp_path, fixture_b_large_split,
                                fixture_b_large_nonsplit):
        # roots of height 10^60: exact when l(c0(t)) splits, converged
        # complex labels when it does not
        for fx, field, roots in (
            (fixture_b_large_split, "rational",
             ["-100000000000000000000000000000000000000000000000000000000001/7",
              "1000000000000000000000000000000000000000000000000000000000007/3"]),
            (fixture_b_large_nonsplit, "complex",
             ["-1.41421356237e+30+0i", "1.41421356237e+30+0i"]),
        ):
            path = tmp_path / f"{fx.name}.json"
            path.write_text(json.dumps(fx.to_obj()))
            rc, out, err = run_cli(["verify", str(path), "--seed", "0"])
            assert rc == 0, err
            report = json.loads(out)
            assert report["passed"] is True and report["field"] == field
            assert [c["status"] for c in report["checks"]] == ["pass"] * 10
            assert report["points"][:2] == roots

    def test_height_beyond_int_str_cap(self, tmp_path, fixture_b):
        # l's coefficients on z0, z1 and z2 are ratios of 2000-digit
        # integers, the most an input may have, so l(c0(t)) = a + b t + c t^2
        # has a 6000-digit Cauchy height; its digit count once went through
        # str() and failed check 2 with CPython's int-to-str limit (4300)
        rng = random.Random(3)
        parts = [rng.randrange(10**1999, 10**2000) for _ in range(8)]
        exps = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1)]
        l = MultiPoly(5, {e: F(parts[2 * i], parts[2 * i + 1]) for i, e in enumerate(exps)})
        fx = Fixture("B-2000-digit-l", fixture_b.q, l, fixture_b.p, fixture_b.c0, 2)
        with uncapped_int_str():
            den, (lc, *_) = fx.restricted
            assert len(str(poly._integral((den, lc))[1])) == 6000
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(fx.to_obj()))
        rc, out, err = run_cli(["verify", str(path), "--seed", "0"])
        assert "Exceeds the limit" not in out + err
        assert rc == 0, err
        report = json.loads(out)
        assert report["passed"] is True and report["field"] == "complex"
        assert report["points"][:2] == ["-0.354105384767-0.39139533924i",
                                        "-0.354105384767+0.39139533924i"]


@pytest.mark.parametrize("name, complex_labels",
                         [("fixture_b", False), ("fixture_b_nonsplit", True)])
def test_mpmath_loaded_only_for_complex_labels(tmp_path, request, name, complex_labels):
    # rational roots are lifted p-adically and complex labels come from an
    # integer iteration, so verify loads mpmath for neither kind of label
    fx = request.getfixturevalue(name)
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(fx.to_obj()))
    out = tmp_path / "out.json"
    code = ("import sys; from curvejac import cli; "
            f"rc = cli.main(['verify', {str(path)!r}, '--out', {str(out)!r}]); "
            "print(rc, 'mpmath' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert run.stdout.split() == ["0", "False"]
    field = json.loads(out.read_text())["field"]
    assert field == ("complex" if complex_labels else "rational")


def test_mpmath_never_imported(tmp_path, fixture_a_path, problem_a_path, curve_a_path):
    # nor do the complex evaluation points of jacobian, or sample; and no
    # command loads a command-line library (argparse, with the gettext and
    # locale that its messages load) or typing, in an interpreter without
    # site's imports.  Start-up stays lean: neither the import nor any
    # command loads dataclasses or what it imports (inspect, ast, dis), nor
    # fractions, decimal or numbers (a rational is a pair of ints), and
    # only the fixture command, run last, loads the shipped fixtures.
    out = str(tmp_path / "out.json")
    argvs = [["jacobian", problem_a_path, curve_a_path, "--form", "eval",
              "--points=0,1,-1,2,-2,1+2i", "--out", out],
             ["verify", fixture_a_path, "--seed=0", "--out", out],
             ["through", curve_a_path, "--degree", "2", "--out", out],
             ["sample", curve_a_path, "--degree", "5", "--count", "1", "--out", out],
             ["fixture", "A", "--out", out]]
    code = ("import json, sys; from curvejac import cli; "
            "lean = ('dataclasses', 'inspect', 'ast', 'dis', 'fractions', 'decimal', 'numbers', "
            "'curvejac.fixtures'); "
            "loaded = lambda: [m for m in lean if m in sys.modules]; "
            "print(json.dumps([loaded()] + [[cli.main(argv), 'mpmath' in sys.modules, loaded()] "
            "for argv in json.loads(sys.argv[1])] "
            "+ [m for m in ('argparse', 'gettext', 'locale', 'typing') if m in sys.modules]))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-S", "-c", code, json.dumps(argvs)],
                         capture_output=True, text=True, env=env, timeout=120, check=True)
    assert json.loads(run.stdout) == ([[]] + [[0, False, []]] * 4
                                      + [[0, False, ["curvejac.fixtures"]]])


def test_numpy_never_imported(tmp_path, fixture_b_nonsplit, problem_a_path, curve_a_path):
    # the --tol rank of complex evaluation points is computed in pure Python
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(fixture_b_nonsplit.to_obj()))
    out = str(tmp_path / "out.json")
    code = ("import sys; import curvejac; from curvejac import cli; "
            "seen = ['numpy' in sys.modules]; "
            f"rc = [cli.main(['verify', {str(path)!r}, '--out', {out!r}]), "
            f"cli.main(['jacobian', {problem_a_path!r}, {curve_a_path!r}, '--form', 'eval', "
            f"'--points=0,1,-1,2,-2,1+2i', '--out', {out!r}])]; "
            "print(*rc, *seen, 'numpy' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert run.stdout.split() == ["0", "0", "False", "False"]


def test_gc_unfrozen_after_main(monkeypatch):
    # the command runs with the import-time heap frozen; in-process callers
    # get back the collection they had, and a caller's own freeze is not
    # undone (an interpreter may start with objects frozen: 3.12.1 does)
    seen = []

    def record(args, out):
        seen.append(gc.get_freeze_count())
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "cmd_fixture", record)
    before = gc.get_freeze_count()
    for argv in (["fixture", "A"], ["fixture"]):
        run_cli(argv)
        assert gc.get_freeze_count() == before
    assert len(seen) == 1 and seen[0] > 0
    # a caller's own freeze is left as it was, through the command and after
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        run_cli(["fixture", "A"])
        assert seen[1] == gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


@contextlib.contextmanager
def uncapped_int_str():
    """Lifts the interpreter's cap on int-to-str digits (4300 by default)."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def digits_above_cap(values) -> bool:
    cap = sys.get_int_max_str_digits()
    with uncapped_int_str():
        return max(len(str(abs(part))) for x in values
                   for part in (x.numerator, x.denominator)) > cap > 0


class TestThroughCommand:
    def test_hyperplanes(self, curve_a_path):
        rc, out, _ = run_cli(["through", curve_a_path, "--degree", "1"])
        obj = json.loads(out)
        assert rc == 0
        assert obj["dimension"] == 3
        assert obj["ambient_dim"] == 5

    def test_quintics(self, curve_a_path):
        rc, out, _ = run_cli(["through", curve_a_path, "--degree", "5"])
        obj = json.loads(out)
        assert rc == 0
        assert obj["dimension"] == 120
        assert len(obj["basis"]) == 120
        assert len(obj["monomials"]) == 126

    def test_the_kernel_eliminates_only_nonzero_columns(self, tmp_path, fixture_a, fixture_b,
                                                        monkeypatch):
        # both curves lie in z4 = 0, so every quintic with z4 restricts to
        # zero: 120 of the 126 columns on the line A and 105 on the conic B
        # are free columns e_j.  A's other six columns have full rank mod a
        # prime, so nothing is eliminated; Bareiss runs on B's other 21
        shapes = []
        eliminate = linalg._bareiss_echelon

        def spy(m):
            shapes.append((m.rows, m.cols))
            return eliminate(m)

        monkeypatch.setattr(linalg, "_bareiss_echelon", spy)
        for fix, dim in ((fixture_a, 120), (fixture_b, 115)):
            path = tmp_path / f"curve-{fix.name}.json"
            path.write_text(json.dumps(fix.c0.to_obj()))
            rc, out, _ = run_cli(["through", str(path), "--degree", "5"])
            assert rc == 0 and json.loads(out)["dimension"] == dim
        assert shapes == [(11, 21)]

    def test_entries_beyond_the_int_str_cap(self, tmp_path):
        # a line in P^2 whose constant has 2000 digits, the most an input
        # may have: the lead-1 kernel vectors divide by its cube, 6000 digits
        big = "9" * 2000
        line = {"n": 2, "d": 1, "components": [
            {"coeffs": ["1"]}, {"coeffs": ["0", "1"]}, {"coeffs": ["-" + big, "7/3"]}]}
        path = tmp_path / "line.json"
        path.write_text(json.dumps(line))
        rc, out, err = run_cli(["through", str(path), "--degree", "3"])
        assert rc == 0, err
        obj = json.loads(out)
        assert obj["dimension"] == 10 - 4
        curve = CurveParam.from_obj(line)
        basis = quintics_through_curve(curve, monomial_basis(3, 3),
                                       _curve_monomials(curve.components))
        assert digits_above_cap(x for v in oracles.dense_kernel(basis) for x in v)
        with uncapped_int_str():
            assert obj["basis"] == [[str(x) for x in v] for v in oracles.dense_kernel(basis)]
            comps = [[F(c) for c in comp["coeffs"]] for comp in line["components"]]
            for v in obj["basis"]:
                terms = {tuple(m): F(x) for m, x in zip(obj["monomials"], v)}
                assert oracles.naive_compose(terms, comps) == []


# Changes of the curve's parameter, each on a component's coefficient list
# (t**0 first) of a curve of degree d, and a common scale of the components:
# the same curve in P^n, written with 'p/q' coefficients by some of them.
REPARAMETRIZATIONS = {
    "t -> 1/t": lambda cs, d: oracles.padded(cs, d + 1)[::-1],  # t**d c(1/t)
    "t -> 2t": lambda cs, d: [x * 2**i for i, x in enumerate(cs)],
    "t -> t+1": lambda cs, d: oracles.linear_combination(
        *((x, propcheck.unipoly_product(*[[1, 1]] * i)) for i, x in enumerate(cs))),
    "times 3/7": lambda cs, d: [x * F(3, 7) for x in cs],
}


def test_through_and_sample_do_not_depend_on_the_parametrization(tmp_path):
    # the forms through a curve and the ranks of their Jacobians depend on
    # its image only: moved by each map, the degree-3 curve and the conic
    # make `through` and `sample` print the same bytes at degrees 2, 3 and 5
    fractional = 0
    for name in ("curve-d3.json", "curve-conic.json"):
        curve = CurveParam.from_obj(json.loads((DATA / name).read_text()))
        paths = [DATA / name]
        for label, move in REPARAMETRIZATIONS.items():
            comps = [[str(x) for x in move(cs, curve.d)] for cs in oracles.components(curve)]
            fractional += any("/" in x for cs in comps for x in cs)
            paths.append(tmp_path / f"{name}-{len(paths)}.json")
            paths[-1].write_text(json.dumps({"n": curve.n, "d": curve.d, "components": [
                {"coeffs": cs} for cs in comps]}))
        for degree in ("2", "3", "5"):
            for argv in (["through", "--degree", degree],
                         ["sample", "--degree", degree, "--count", "3", "--seed", "7"]):
                runs = [run_cli([argv[0], str(path), *argv[1:]]) for path in paths]
                assert runs[0][0] == 0, (name, argv)
                assert all(run == runs[0] for run in runs), (name, argv)
    assert fractional >= 4


def test_random_curves_keep_through_and_sample_under_shift_and_scale(tmp_path):
    # t -> t+1 and t -> 2t raise the coefficient heights of a curve but not
    # its image: on seeded random integer curves of degree 4, 5 and 6 in
    # P^4, `through` and `sample --count 3` print the same bytes at degrees
    # 3 and 5 as on the curve itself
    for d in (4, 5, 6):
        rng = random.Random(d)
        comps = [[rng.randint(-9, 9) for _ in range(d)] + [rng.randint(1, 9)] for _ in range(5)]
        paths = []
        for move in (lambda cs, d: cs, REPARAMETRIZATIONS["t -> t+1"],
                     REPARAMETRIZATIONS["t -> 2t"]):
            paths.append(tmp_path / f"random-d{d}-{len(paths)}.json")
            paths[-1].write_text(json.dumps({"n": 4, "d": d, "components": [
                {"coeffs": [str(x) for x in move(cs, d)]} for cs in comps]}))
        for degree in ("3", "5"):
            for argv in (["through", "--degree", degree],
                         ["sample", "--degree", degree, "--count", "3"]):
                runs = [run_cli([argv[0], str(path), *argv[1:]]) for path in paths]
                assert runs[0][0] == 0 and json.loads(runs[0][1]), (d, argv)
                assert all(run == runs[0] for run in runs), (d, argv)


class TestSampleCommand:
    def test_sampling_line(self, curve_a_path):
        rc, out, err = run_cli(
            ["sample", curve_a_path, "--degree", "5", "--count", "5", "--seed", "0"]
        )
        obj = json.loads(out)
        assert rc == 0
        assert obj["summary"] == {"samples": 5, "full_rank": 5, "fraction": "5/5"}
        assert len(obj["records"]) == 5
        assert all(r["rank"] == 6 for r in obj["records"])
        assert "5/5" in err

    def test_one_restriction_table_per_command(self, curve_a_path, table_builds):
        # one table of the curve serves the forms through it and every
        # draw's gradient, however many draws
        assert run_cli(["sample", curve_a_path, "--count", "3"])[0] == 0
        assert table_builds == [5]

    def test_deficient_draws_are_certified_by_symmetry_witnesses(self, monkeypatch):
        # on the conic in the plane every quintic member's 11 x 9 Jacobian has
        # rank 5, below min(rows, cols): the curve's four symmetry directions
        # lower the bound to 9 - 4, which a prime meets, so only the kernel
        # of the forms through the conic, which has no zero column, is
        # eliminated
        shapes = []
        eliminate = linalg._bareiss_echelon

        def spy(m):
            shapes.append((m.rows, m.cols))
            return eliminate(m)

        monkeypatch.setattr(linalg, "_bareiss_echelon", spy)
        argv = ["sample", str(DATA / "curve-conic.json"), "--count", "3", "--seed", "1"]
        rc, out, _ = run_cli(argv)
        obj = json.loads(out)
        assert rc == 0 and obj["expected_rank"] == 9 - 4
        assert [(r["rank"], r["full_rank"]) for r in obj["records"]] == [(5, True)] * 3
        assert shapes == [(11, 21)]

    def test_symmetry_witnesses_spare_bareiss(self, tmp_path, monkeypatch):
        # random curves in P^2 and P^3 and form degrees e on both sides of
        # n + 1: every draw's rank is the oracle's, and the rank of a draw of
        # tangent dimension 4, the least, eliminates nothing, also where
        # e*d + 1 > (n + 1)(d + 1) - 4 and only the four symmetry witnesses
        # bound it; the first rank is the witnesses' own, s, and such a draw
        # reaches the expected rank min(e*d + 1, (n + 1)(d + 1) - s), the
        # bound each draw's rank is taken under
        calls, ranks = [], []
        eliminate, certify, bounded = linalg._bareiss_echelon, cli.rank_exact, cli._rank_at_most

        def spy(m):
            calls.append((m.rows, m.cols))
            return eliminate(m)

        def rank(m, witnesses=()):
            before = len(calls)
            r = certify(m, witnesses)
            ranks.append((m, r, len(calls) > before))
            return r

        def rank_at_most(m, bound):
            before = len(calls)
            r = bounded(m, bound)
            ranks.append((m, r, len(calls) > before))
            return r

        monkeypatch.setattr(linalg, "_bareiss_echelon", spy)
        monkeypatch.setattr(cli, "rank_exact", rank)
        monkeypatch.setattr(cli, "_rank_at_most", rank_at_most)
        rng = random.Random(2044)
        path = tmp_path / "curve.json"
        sides, witnessed = set(), 0
        for _ in range(24):
            n, d = rng.choice((2, 3)), rng.randint(1, 3)
            e = rng.randint(1, n + 3)
            path.write_text(json.dumps(propcheck.random_curve(rng, n, d).to_obj()))
            ranks.clear()
            rc, out, _ = run_cli(["sample", str(path), "--degree", str(e), "--count", "2"])
            if rc:
                assert rc in (cli.EXIT_INPUT, cli.EXIT_EMPTY)  # not embedded, or no form
                continue
            sides.add(e > n + 1)
            obj = json.loads(out)
            (sym, s, _), *draws = ranks
            assert sym.rows == 4 and s == oracles.rref_rank(oracles.matrix_rows(sym), sym.cols)
            assert obj["expected_rank"] == min(e * d + 1, (n + 1) * (d + 1) - s)
            for rec, (m, r, eliminated) in zip(obj["records"], draws, strict=True):
                assert r == rec["rank"] == oracles.rref_rank(oracles.matrix_rows(m), m.cols)
                assert rec["full_rank"] == (r == obj["expected_rank"])
                if rec["tangent_dim"] == 4:
                    assert not eliminated and rec["full_rank"], (n, d, e)
                    witnessed += m.cols - 4 < min(m.rows, m.cols)
        assert sides == {False, True} and witnessed

    def test_witness_rank_is_proven_once_per_command(self, monkeypatch):
        # the symmetry witnesses' own rank is proven once, for expected_rank,
        # however many draws; each draw still finds every witness in its
        # kernel by an exact matvec before its rank is taken under the bound
        path = DATA / "curve-d3.json"
        curve = CurveParam.from_obj(json.loads(path.read_text()))
        sym = incidence.symmetry_kernel_vectors(curve)
        witnesses, ranked, products = IntMatrix.from_rows(sym), [], []
        certify, matvec = linalg.rank_exact, IntMatrix.matvec

        def rank(m, w=()):
            ranked.append(m == witnesses)
            return certify(m, w)

        def product(m, v):
            products.append((m.rows, tuple(v)))
            return matvec(m, v)

        monkeypatch.setattr(linalg, "rank_exact", rank)
        monkeypatch.setattr(cli, "rank_exact", rank)
        monkeypatch.setattr(IntMatrix, "matvec", product)
        rc, out, _ = run_cli(["sample", str(path), "--count", "3"])
        assert rc == 0 and [r["full_rank"] for r in json.loads(out)["records"]] == [True] * 3
        assert witnesses.rows == 4 and ranked.count(True) == 1
        assert products == [(16, w) for _ in range(3) for w in sym]

    def test_witnesses_outside_the_kernel_bound_nothing(self, monkeypatch):
        # four independent vectors that lie in no draw's kernel, in place of
        # the conic's symmetry witnesses, lower no draw's bound: each draw's
        # rank 5 is below min(rows, cols) = 9, so no prime meets the bound and
        # each draw is eliminated, to the same rank
        unit = [tuple(int(i == j) for i in range(9)) for j in range(4)]
        monkeypatch.setattr(incidence, "symmetry_kernel_vectors", lambda curve: unit)
        shapes = []
        eliminate = linalg._bareiss_echelon

        def spy(m):
            shapes.append((m.rows, m.cols))
            return eliminate(m)

        monkeypatch.setattr(linalg, "_bareiss_echelon", spy)
        argv = ["sample", str(DATA / "curve-conic.json"), "--count", "3", "--seed", "1"]
        rc, out, _ = run_cli(argv)
        obj = json.loads(out)
        assert rc == 0 and obj["expected_rank"] == 9 - 4
        assert [r["rank"] for r in obj["records"]] == [5] * 3
        assert shapes == [(11, 21)] + [(11, 9)] * 3

    def test_zero_count(self, curve_a_path):
        rc, out, _ = run_cli(["sample", curve_a_path, "--count", "0"])
        obj = json.loads(out)
        assert rc == 0
        assert obj["records"] == []
        assert obj["summary"]["fraction"] == "0/0"

    def test_deterministic(self, curve_a_path):
        r1 = run_cli(["sample", curve_a_path, "--count", "3", "--seed", "9"])
        r2 = run_cli(["sample", curve_a_path, "--count", "3", "--seed", "9"])
        assert r1 == r2

    def test_different_seeds_differ(self, curve_a_path):
        _, out1, _ = run_cli(["sample", curve_a_path, "--count", "3", "--seed", "0"])
        _, out2, _ = run_cli(["sample", curve_a_path, "--count", "3", "--seed", "1"])
        h1 = [r["poly_hash"] for r in json.loads(out1)["records"]]
        h2 = [r["poly_hash"] for r in json.loads(out2)["records"]]
        assert h1 != h2

    def test_empty_system_exits_4(self, tmp_path):
        # the rational normal quartic curve spans P^4: no hyperplane contains it
        curve = {
            "n": 4,
            "d": 4,
            "components": [
                {"coeffs": ["1"]},
                {"coeffs": ["0", "1"]},
                {"coeffs": ["0", "0", "1"]},
                {"coeffs": ["0", "0", "0", "1"]},
                {"coeffs": ["0", "0", "0", "0", "1"]},
            ],
        }
        path = tmp_path / "rnc.json"
        path.write_text(json.dumps(curve))
        rc, _, err = run_cli(["sample", str(path), "--degree", "1", "--count", "2"])
        assert rc == 4

    def test_membership_failure_exits_2(self, tmp_path):
        curve = {
            "n": 4,
            "d": 1,
            "components": [
                {"coeffs": ["0", "1"]},
                {"coeffs": ["0", "1"]},
                {"coeffs": []},
                {"coeffs": []},
                {"coeffs": []},
            ],
        }
        path = tmp_path / "badmember.json"
        path.write_text(json.dumps(curve))
        rc, out, err = run_cli(["sample", str(path), "--degree", "5", "--count", "1"])
        assert rc == 2 and out == ""
        assert err == ("input error: curve fails membership checks: {'base_point_free': False, "
                       "'attains_degree': True, 'nonconstant': True, 'all_pass': False}\n")

    def test_fractional_d16_curve_exits_4(self, tmp_path, no_euclid):
        # base-point-freeness of a curve with 20-digit fractions is decided
        # modulo a prime, with Euclid over Q refused; no linear form
        # contains the curve
        path = tmp_path / "d16.json"
        path.write_text(json.dumps(propcheck.fractional_curve(16, 4, 16, 20).to_obj()))
        rc, out, err = run_cli(["sample", str(path), "--degree", "1", "--count", "1"])
        assert rc == 4 and out == ""
        assert err == "no forms of this degree contain the curve\n"

    def test_empty_kernel_at_the_input_limit(self, tmp_path, monkeypatch, no_euclid):
        # a curve in P^8 of degree 32 whose coefficients are fractions of two
        # numbers of up to 2000 digits, the most an input may have: its 33 x 9
        # matrix of linear forms has rank 9 mod a prime, so the kernel is {0}
        # with no elimination over the integers
        lists = propcheck.fractional_lists(32, 8, 32, 2000)
        path = tmp_path / "d32.json"
        path.write_text(json.dumps({"n": 8, "d": 32, "components": [
            {"coeffs": [str(x) for x in xs]} for xs in lists]}))

        def refuse(m):
            raise AssertionError("Bareiss ran")

        monkeypatch.setattr(linalg, "_bareiss_echelon", refuse)
        rc, out, err = run_cli(["through", str(path), "--degree", "1"])
        assert rc == 0, err
        assert json.loads(out)["dimension"] == 0
        rc, out, err = run_cli(["sample", str(path), "--degree", "1", "--count", "1"])
        assert rc == 4 and out == ""
        assert err == "no forms of this degree contain the curve\n"

    def test_members_of_bounded_height(self, tmp_path):
        # a third coefficient that is a fraction of two 30-digit numbers: the
        # lead-1 basis vectors have large denominators, yet each member is an
        # integer combination of the primitive ones, its height that of one
        # vector times at most 9 * dim, and its hash the sha256 of its document
        curve = json.loads((DATA / "curve-d2x30.json").read_text())
        curve["components"][3]["coeffs"][0] = (
            "-718281828459045235360287471352/314159265358979323846264338327")
        path = tmp_path / "x30.json"
        path.write_text(json.dumps(curve))
        rc, out, err = run_cli(
            ["sample", str(path), "--degree", "5", "--count", "3", "--seed", "100"])
        assert rc == 0, err
        records = json.loads(out)["records"]
        parsed, mons = CurveParam.from_obj(curve), monomial_basis(5, 5)
        basis = quintics_through_curve(parsed, mons, _curve_monomials(parsed.components))
        assert max(terms[0][1] for terms in basis.vectors) > 1
        bound = (max(abs(x).bit_length() for terms in basis.vectors for _, x in terms)
                 + (9 * basis.dim).bit_length())
        assert [r["rank"] for r in records] == [11] * 3
        for r in records:
            member = random_member(basis, 100 * 1_000_003 + r["draw"], mons)
            assert all(type(c) is int and abs(c).bit_length() <= bound
                       for c in member.terms.values())
            terms = sorted(member.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
            doc = {"nvars": 5, "homogeneous_degree": 5,
                   "terms": [{"exp": list(e), "coef": str(c)} for e, c in terms]}
            blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            assert r["poly_hash"] == hashlib.sha256(blob.encode()).hexdigest()[:12]


class TestOutputFiles:
    def test_out_file_replaced_only_by_output(self, tmp_path, curve_a_path):
        target = tmp_path / "result.json"
        target.write_text("x" * 10_000)
        rc, _, _ = run_cli(["through", str(tmp_path / "absent.json"), "--out", str(target)])
        assert rc == 2
        assert target.read_text() == "x" * 10_000  # a failed run leaves it as it was
        rc, _, _ = run_cli(["through", curve_a_path, "--degree", "1", "--out", str(target)])
        assert rc == 0
        assert json.loads(target.read_text())["dimension"] == 3

    def test_out_flag_writes_file(self, tmp_path, curve_a_path):
        target = tmp_path / "result.json"
        rc, out, _ = run_cli(["through", curve_a_path, "--degree", "1", "--out", str(target)])
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["dimension"] == 3

    def test_stdin_input(self, monkeypatch, fixture_a):
        import io as _io

        monkeypatch.setattr("sys.stdin", _io.StringIO(json.dumps(fixture_a.to_obj())))
        rc, out, _ = run_cli(["verify", "-"])
        assert rc == 0
        assert json.loads(out)["passed"] is True


class TestInputFaults:
    def test_unwritable_out_exits_2(self, tmp_path, fixture_a_path):
        # the output is opened before any work, so no report reaches stderr
        target = tmp_path / "missing" / "x.json"
        rc, out, err = run_cli(["verify", fixture_a_path, "--out", str(target)])
        assert rc == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("i/o error") and str(target) in err

    def test_deeply_nested_json_exits_2_in_one_line(self, tmp_path, curve_a_path):
        # json.loads recurses once per bracket, so this used to end in a
        # RecursionError traceback; json.dumps cannot build such a document
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        for argv in (["verify", deep], ["through", deep], ["jacobian", deep, curve_a_path]):
            rc, out, err = run_cli([str(a) for a in argv])
            assert rc == 2, argv
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("input error:"), err

    def test_non_finite_or_negative_tol_exits_2(self, fixture_a_path, problem_a_path,
                                                 curve_a_path):
        for argv in (
            ["verify", fixture_a_path, "--tol", "nan"],
            ["verify", fixture_a_path, "--tol=-1e-8"],
            ["jacobian", problem_a_path, curve_a_path, "--tol", "inf"],
        ):
            rc, out, err = run_cli(argv)
            assert rc == 2, argv
            assert out == ""
            assert len(err.splitlines()) == 1 and "--tol" in err


# Each command's options, as its --help lists them.
OPTIONS = {
    "fixture": {"--out"},
    "jacobian": {"--form", "--points", "--tol", "--out"},
    "verify": {"--seed", "--out"},
    "through": {"--degree", "--out"},
    "sample": {"--degree", "--count", "--seed", "--out"},
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", list(OPTIONS))
def test_help_lists_the_command_options(command, flag):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        cli.main([command, flag])
    assert exc.value.code == 0
    assert len(out.getvalue().splitlines()) == 1
    options = {w.strip("[],") for w in out.getvalue().split() if w.startswith(("[--", "--"))}
    assert options == {"--help"} | OPTIONS[command]


# Command lines that exit 2 with one `input error:` line naming the fault;
# {fixture}, {problem} and {curve} stand for fixture A's documents.
BAD_LINES = {
    "no-command": ([], "command"),
    "unknown-command": (["verfy", "{fixture}"], "command"),
    "unknown-option": (["verify", "{fixture}", "--precision", "12"], "--precision"),
    "option-of-another-command": (["verify", "{fixture}", "--tol", "1e-8"], "--tol"),
    "option-prefix": (["through", "{curve}", "--deg", "5"], "--deg"),
    "option-prefix-with-equals": (["sample", "{curve}", "--cou=2"], "--cou"),
    "single-dash-option": (["verify", "{fixture}", "-s", "0"], "-s"),
    "option-without-value": (["verify", "{fixture}", "--seed"], "--seed"),
    "option-before-option": (["verify", "{fixture}", "--out", "--seed", "0"], "--out"),
    "degree-not-an-integer": (["through", "{curve}", "--degree", "x"], "--degree"),
    "seed-not-an-integer": (["verify", "{fixture}", "--seed", "x"], "--seed"),
    "count-empty": (["sample", "{curve}", "--count="], "--count"),
    "form-not-a-choice": (["jacobian", "{problem}", "{curve}", "--form", "bogus"], "--form"),
    "negative-tol": (["jacobian", "{problem}", "{curve}", "--tol", "-1e-8"], "--tol"),
    "missing-positional": (["jacobian", "{problem}", "--form", "coeff"], "positional"),
    "extra-positional": (["verify", "{fixture}", "{fixture}"], "positional"),
}


@pytest.mark.parametrize("case", list(BAD_LINES))
def test_bad_command_line_exits_2_in_one_line(case, fixture_a_path, problem_a_path,
                                              curve_a_path):
    template, words = BAD_LINES[case]
    paths = {"fixture": fixture_a_path, "problem": problem_a_path, "curve": curve_a_path}
    rc, out, err = run_cli([arg.format(**paths) for arg in template])
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("input error:"), err
    assert words in err, err


# A good command line of each command: its positionals, then its options.
GOOD_LINES = {
    "fixture": (["fixture", "B"], {}),
    "jacobian": (["jacobian", "{problem}", "{curve}"],
                 {"--form": "eval", "--points": "1/2,-1,2,3,5,7", "--tol": "1e-6"}),
    "verify": (["verify", "{fixture}"], {"--seed": "-3"}),
    "through": (["through", "{curve}"], {"--degree": "2"}),
    "sample": (["sample", "{curve}"], {"--degree": "5", "--count": "2", "--seed": "7"}),
}


@pytest.mark.parametrize("command", list(GOOD_LINES))
def test_option_spelling_and_order_keep_stdout(command, fixture_a_path, problem_a_path,
                                               curve_a_path):
    # `--opt value` and `--opt=value`, before, between or after the
    # positionals, give the same stdout bytes
    template, options = GOOD_LINES[command]
    paths = {"fixture": fixture_a_path, "problem": problem_a_path, "curve": curve_a_path}
    head, *positionals = [arg.format(**paths) for arg in template]
    spaced = [word for opt, value in options.items() for word in (opt, value)]
    joined = [f"{opt}={value}" for opt, value in options.items()]
    lines = [[head, *positionals, *joined], [head, *spaced, *positionals],
             [head, *joined, *positionals], [head, positionals[0], *spaced, *positionals[1:]]]
    first = run_cli([head, *positionals, *spaced])
    assert first[0] == 0 and first[1], first[2]
    for argv in lines:
        assert run_cli(argv)[:2] == first[:2], argv


def _points(last: str) -> tuple:
    return (None, "jacobian", (), None, ("--form", "eval", f"--points=0,1,2,3,4,{last}"))


# Each fault replaces one value of fixture A's curve, problem or fixture
# document, is the last of fixture A's six --points, or is an option's value
# below its least.
MALFORMED = {
    "curve-d-string": ("curve", "through", ("d",), "1"),
    "curve-components-scalar": ("curve", "sample", ("components",), 5),
    "curve-coeffs-scalar": ("curve", "through", ("components", 0, "coeffs"), 1),
    "curve-coeffs-string": ("curve", "sample", ("components", 1, "coeffs"), "12"),
    "curve-float-coefficient": ("curve", "through", ("components", 1, "coeffs", 1), 0.1),
    "problem-float-exponent": ("problem", "jacobian", ("f", "terms", 0, "exp", 0), 4.5),
    "problem-exp-string": ("problem", "jacobian", ("f", "terms", 0, "exp"), "40100"),
    # rationals are -?p or -?p/q in decimal digits, at most 2000 per part
    "curve-exponent-coefficient": ("curve", "through", ("components", 1, "coeffs", 1), "1e300"),
    "curve-decimal-coefficient": ("curve", "through", ("components", 1, "coeffs", 1), "0.5"),
    "curve-spaced-coefficient": ("curve", "through", ("components", 1, "coeffs", 1), " 3"),
    "curve-plus-coefficient": ("curve", "through", ("components", 1, "coeffs", 1), "+4"),
    "curve-underscore-coefficient": ("curve", "through", ("components", 1, "coeffs", 1),
                                     "1_000"),
    "curve-2001-digit-coefficient": ("curve", "through", ("components", 1, "coeffs", 1),
                                     "9" * 2001),
    "problem-2001-digit-denominator": ("problem", "jacobian", ("f", "terms", 0, "coef"),
                                       "1/" + "7" * 2001),
    # a point without 'i' is such a rational; one with 'i' a finite complex
    # number of at most 2000 digits
    "points-exponent": _points("1e300"),
    "points-decimal": _points("0.5"),
    "points-infinite": _points("inf"),
    "points-nan-complex": _points("nan+1i"),
    "points-2001-digit-rational": _points("9" * 2001),
    "points-2001-digit-complex": _points("1." + "0" * 2000 + "+1i"),
    # the complex path converts points and coefficients to floats
    "points-huge-rational-with-complex": (None, "jacobian", (), None,
                                          ("--form", "eval",
                                           "--points=0,1,2,3,1" + "0" * 400 + ",1+2i")),
    "problem-huge-coefficient-complex-points": ("problem", "jacobian", ("f", "terms", 0, "coef"),
                                                "1" + "0" * 400,
                                                ("--form", "eval", "--points=0,1,2,3,4,1+2i")),
    "sample-negative-count": (None, "sample", (), None, ("--count", "-1")),
    "through-degree-zero": (None, "through", (), None, ("--degree", "0")),
}

# Each value is one above its documented limit; d = 10**9 must be refused
# before the (e*d+1)-row matrix it implies is allocated.
OVERSIZED = {
    "curve-n": ("curve", "through", ("n",), 9, ()),
    "curve-d": ("curve", "through", ("d",), 33, ()),
    "curve-d-1e9": ("curve", "sample", ("d",), 10**9, ()),
    "problem-n": ("problem", "jacobian", ("n",), 9, ()),
    "problem-d": ("problem", "jacobian", ("d",), 33, ()),
    "problem-e": ("problem", "jacobian", ("e",), 13, ()),
    "problem-d-1e9": ("problem", "jacobian", ("d",), 10**9, ()),
    "fixture-d": ("fixture", "verify", ("d",), 33, ()),
    "fixture-c0-d-1e9": ("fixture", "verify", ("c0", "d"), 10**9, ()),
    "through-degree": (None, "through", (), None, ("--degree", "13")),
    "sample-degree": (None, "sample", (), None, ("--degree", "13")),
    "sample-count": (None, "sample", (), None, ("--count", "1001")),
}


def run_on_faulty_documents(tmp_path, fixture_a, kind, command, path, value, options=()):
    """Run `command` on fixture A's documents, with the value at `path` of
    the `kind` document replaced (kind None: no replacement) and `options`
    appended to the command line."""
    docs = {"curve": fixture_a.c0.to_obj(), "problem": oracles.problem(fixture_a).to_obj(),
            "fixture": fixture_a.to_obj()}
    if kind is not None:
        target = docs[kind]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    argv = {
        "through": ["through", paths["curve"], "--degree", "1"],
        "sample": ["sample", paths["curve"], "--degree", "1", "--count", "1"],
        "jacobian": ["jacobian", paths["problem"], paths["curve"]],
        "verify": ["verify", paths["fixture"]],
    }[command]
    return run_cli([str(a) for a in argv] + list(options))


@pytest.mark.parametrize("fault", sorted(MALFORMED))
def test_malformed_document_exits_2_in_one_line(fault, tmp_path, fixture_a):
    # each of these used to end in a TypeError traceback or to be read as
    # another document (a float's binary value, truncated exponents, the
    # characters of a string, a decimal or exponent string's value)
    rc, out, err = run_on_faulty_documents(tmp_path, fixture_a, *MALFORMED[fault])
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("input error:"), err


@pytest.mark.parametrize("fault", sorted(OVERSIZED))
def test_size_above_limit_exits_2_in_one_line(fault, tmp_path, fixture_a):
    kind, command, path, value, options = OVERSIZED[fault]
    rc, out, err = run_on_faulty_documents(tmp_path, fixture_a, kind, command, path, value,
                                           options)
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("input error:"), err
    assert "must be at most" in err, err
