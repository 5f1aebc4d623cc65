"""The benchmark's own tests.

    python3 -m pytest bench/selftest.py

Not named test_*.py, so the package's test suite does not collect it.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen
import oracle
import run

BENCH = Path(__file__).resolve().parent


def _bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic_and_independent(tmp_path):
    for workload in ("verify-degree", "complex-points"):
        for run_dir, hash_seed in (("one", "1"), ("two", "2")):
            subprocess.run(
                [sys.executable, str(BENCH / "gen.py"), "--workload", workload, "--seed", "5",
                 "--out", str(tmp_path / run_dir / workload)],
                env={**os.environ, "PYTHONHASHSEED": hash_seed}, check=True, capture_output=True,
            )
        assert _bytes(tmp_path / "one" / workload) == _bytes(tmp_path / "two" / workload)
    gen.workload_ops("verify-degree", 6, tmp_path / "three")
    assert _bytes(tmp_path / "three") != _bytes(tmp_path / "one" / "verify-degree")
    probe = "import gen, oracle, sys; print(sorted(m for m in sys.modules if 'curvejac' in m))"
    out = subprocess.run([sys.executable, "-c", probe], cwd=BENCH, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_oracle_agrees_on_fixtures_a_and_b(tmp_path):
    ops = {op.name: op for op in gen.workload_ops("complex-points", 0, tmp_path)}
    assert oracle.expect(ops["jacobian-eval-A"])["rank"] == 6
    assert oracle.expect(ops["jacobian-eval-B"])["rank"] == 11
    assert oracle.expect(ops["verify-B-nonsplit"])["field"] == "complex"
    a = gen.fixture_a()
    assert oracle.corner_det(a, [Fraction(-1, 2), Fraction(1)]) == Fraction(-51, 16)
    verify_a = gen._verify(a, 0, tmp_path)
    rep = _child(verify_a.argv)
    assert oracle.check(verify_a, oracle.expect(verify_a), rep["exit"], rep["stdout"]) == []


def _child(argv, spans="-") -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), repr(time.monotonic()), spans, json.dumps(argv)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def test_tracing_leaves_stdout_unchanged(tmp_path):
    ops = gen.workload_ops("verify-degree", 0, tmp_path)[:2]  # fixtures A and B
    for op in ops:
        plain = _child(op.argv)
        traced = _child(op.argv, str(tmp_path / "spans.json"))
        assert traced["stdout"] == plain["stdout"]
        summary = traced["trace"]
        assert summary["calls"]["cli.main"] == 1
        assert abs(sum(summary["self_s"].values()) - summary["root_s"]) < 1e-6
        assert abs(summary["root_s"] - traced["wall_s"]) < 0.01 * traced["wall_s"]
        spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
        assert len(spans) == sum(summary["calls"].values())


def test_wrong_answer_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    bench = run.Run("through-sample", 0, 1, False, {})
    op = bench.ops[0]
    good = _child(op.argv)
    monkeypatch.setattr(bench, "spawn", lambda argv, spans="-": dict(good))
    assert bench.run_op(op, False, 0)["problems"] == []
    obj = json.loads(good["stdout"])
    obj["basis"][3][0] = "12345"
    wrong = dict(good, stdout=json.dumps(obj))
    monkeypatch.setattr(bench, "spawn", lambda argv, spans="-": dict(wrong))
    record = bench.run_op(op, False, 1)
    assert any("not vanishing" in p for p in record["problems"])
    assert any("differs from pass 1" in p for p in record["problems"])
    assert bench.correct is False
