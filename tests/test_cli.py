import contextlib
import io
import json

import pytest

from curvejac import cli
from curvejac.construction import Fixture
from curvejac.incidence import IncidenceProblem
from curvejac.poly import MultiPoly


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
    path.write_text(json.dumps(fixture_a.problem.to_obj()))
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
        rc, _, err = run_cli(["sample", str(path), "--degree", "5", "--count", "1"])
        assert rc == 2
        assert "membership" in err


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

    def test_verify_help_lists_seed_and_out(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        options = {w.strip("[],") for w in out.getvalue().split() if w.startswith(("[--", "--"))}
        assert options == {"--help", "--seed", "--out"}

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

    def test_bad_command_line_exits_2_in_one_line(self, fixture_a_path, problem_a_path,
                                                  curve_a_path):
        for argv, words in (
            (["jacobian", problem_a_path, curve_a_path, "--tol", "-1e-8"], "--tol"),
            (["verify", fixture_a_path, "--tol", "1e-8"], "--tol"),
            (["verify", fixture_a_path, "--precision", "12"], "--precision"),
            (["verify", fixture_a_path, "--seed", "x"], "--seed"),
            ([], "command"),
        ):
            rc, out, err = run_cli(argv)
            assert rc == 2, argv
            assert out == ""
            assert len(err.splitlines()) == 1 and words in err, err

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


def _points(last: str) -> tuple:
    return (None, "jacobian", (), None, ("--form", "eval", f"--points=0,1,2,3,4,{last}"))


# Each fault replaces one value of fixture A's curve, problem or fixture
# document, or is the last of fixture A's six --points.
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
    docs = {"curve": fixture_a.c0.to_obj(), "problem": fixture_a.problem.to_obj(),
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
