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
        target = tmp_path / "missing" / "x.json"
        rc, out, err = run_cli(["verify", fixture_a_path, "--out", str(target)])
        assert rc == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("i/o error") and str(target) in err

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
