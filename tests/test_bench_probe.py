"""The benchmark's traced child runs the commands it times.

`bench/child.py` runs one CLI command in a fresh interpreter, untraced or
with `bench/tracing.py`'s recorder, which wraps the package's public
functions and probes the first argument of `rank_exact` and `kernel_exact`
through its `rows`, `cols` and `entries`.  Here each command's traced run
must end like its untraced one, with the same stdout, and record every
matrix it ranks, so a change to that interface fails in tier-1 rather than
only in the traced benchmark.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles

ROOT = Path(__file__).resolve().parent.parent
CONIC = str(Path(__file__).parent / "data" / "curve-conic.json")
B_COMPLEX = "-2,-1,-1/2,0,1/3,1/2,1,3/2,2,3,1+2i"


def child(argv, spans="-") -> dict:
    """The report of bench/child.py on one command, spans written to the
    path spans, or untraced for '-'."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), repr(time.monotonic()), spans,
         json.dumps(argv)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def commands(tmp_path_factory, fixture_a, fixture_b):
    root = tmp_path_factory.mktemp("probe")
    paths = {}
    for name, obj in (("fixture-A", fixture_a.to_obj()),
                      ("problem-B", oracles.problem(fixture_b).to_obj()),
                      ("curve-B", fixture_b.c0.to_obj())):
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    return {
        "verify-A": ["verify", str(paths["fixture-A"])],
        "jacobian-eval-complex-B": ["jacobian", str(paths["problem-B"]), str(paths["curve-B"]),
                                    "--form", "eval", f"--points={B_COMPLEX}"],
        "through-conic": ["through", CONIC, "--degree", "5"],
        "sample-conic": ["sample", CONIC, "--degree", "5", "--count", "3", "--seed", "1"],
    }


@pytest.mark.parametrize("name", ["verify-A", "jacobian-eval-complex-B", "through-conic",
                                  "sample-conic"])
def test_traced_child_matches_untraced(name, commands, tmp_path):
    # each of these commands ranks or takes the kernel of a matrix
    argv = commands[name]
    plain = child(argv)
    traced = child(argv, str(tmp_path / "spans.json"))
    for report in (plain, traced):
        assert (report["exit"], report["error"]) == (0, None), report["error"]
    assert traced["stdout"] == plain["stdout"]
    assert traced["trace"]["matrices"] > 0
    assert (tmp_path / "spans.json").is_file()
