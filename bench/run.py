"""The curvejac benchmark.

    python3 bench/run.py --workload verify-degree --seed 0 --seconds 28 --trace 0

A run is a closed loop with one client.  Passes over the workload's ops run
back to back until --seconds is used up (at least two passes).  Every op is
one CLI command, `curvejac.cli.main(argv)` with stdout captured, in a fresh
interpreter: users pay one process per command, and no interpreter sees a
second op, so a memo kept across ops cannot show up as a gain.  The inputs
come from gen.py (seeded, independent of curvejac) and each op's expected
answer from oracle.py, both before anything is timed.

Times are scaled by the host's speed measured during each op (speed.py);
the raw ones are printed per op.  --trace 0 prints the end-to-end metrics.
--trace 1 alternates untraced and traced passes (tracing.py wraps the
package's public functions from outside) and prints the per-layer metrics.

An op fails when its exit code, verdict, rank or dimension disagrees with the
oracle, when it raises, or when its stdout bytes differ from the first pass
(traced passes included).  `correct` turns false when an op claims success
(the expected exit code) with output the oracle rejects, or when stdout bytes
do not repeat; an op that reports its own failure through its exit code
counts in `failed` only.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

import gen
import oracle
from tracing import ELIMINATIONS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5  # interpreters that only import curvejac.cli
MIN_PASSES = 2  # stdout bytes are compared between passes
HARD_LIMIT_S = 165.0  # a run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "largest_op_s": "s",
    "smallest_op_s": "s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, layer_units: dict):
        self.started = time.monotonic()
        self.seconds, self.trace, self.layer_units = seconds, trace, layer_units
        self.work = ROOT / ".bench_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "spans").mkdir(parents=True)
        self.ops = gen.workload_ops(workload, seed, self.work / "inputs")
        self.expected = {op.name: oracle.expect(op) for op in self.ops}
        self.verdicts: dict = {}  # (op, exit, sha256) -> oracle problems
        self.first_sha: dict = {}
        self.correct = True
        self.timed_out = False
        self.setup_reps: list[dict] = []

    def spawn(self, argv: list, spans: str = "-") -> dict:
        timeout = HARD_LIMIT_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise subprocess.TimeoutExpired(argv, 0)
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), repr(spawned), spans, json.dumps(argv)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise HarnessError(f"interpreter for {argv} exited {proc.returncode}:\n"
                               + proc.stderr[-2000:])
        return json.loads(proc.stdout)

    def measure_setup(self) -> None:
        self.spawn([])  # compiles bytecode once; users run installed, compiled code
        if not self.trace:
            self.setup_reps += [self.spawn([]) for _ in range(SETUP_SAMPLES)]

    def run_op(self, op: gen.Op, traced: bool, npass: int) -> dict:
        spans = str(self.work / "spans" / f"{op.name}.json") if traced else "-"
        try:
            rep = self.spawn(op.argv, spans)
        except subprocess.TimeoutExpired:
            self.timed_out = True
            return {"op": op.name, "traced": traced, "exit": None, "sha256": "",
                    "problems": ["did not finish within the run's time limit"]}
        sha = hashlib.sha256(rep["stdout"].encode()).hexdigest()
        key = (op.name, rep["exit"], sha)
        if key not in self.verdicts:
            self.verdicts[key] = oracle.check(op, self.expected[op.name], rep["exit"], rep["stdout"])
        problems = list(self.verdicts[key])
        if rep["error"]:
            problems.insert(0, "raised " + rep["error"].strip().splitlines()[-1])
        if problems and rep["exit"] == self.expected[op.name]["exit"]:
            self.correct = False
        if self.first_sha.setdefault(op.name, sha) != sha:
            problems.append(f"stdout differs from pass 1 (pass {npass + 1}"
                            + (", traced)" if traced else ")"))
            self.correct = False
        rep.update(op=op.name, traced=traced, sha256=sha, problems=problems)
        return rep

    def run_passes(self) -> list[list[dict]]:
        passes: list[list[dict]] = []
        measure_start = time.monotonic()
        while True:
            traced = self.trace and len(passes) % 2 == 1
            begun = time.monotonic()
            passes.append([self.run_op(op, traced, len(passes)) for op in self.ops])
            took = time.monotonic() - begun
            now = time.monotonic()
            if self.timed_out or now - self.started + took > HARD_LIMIT_S:
                break
            if len(passes) >= MIN_PASSES and now - measure_start + took > self.seconds:
                break
        return passes


def pass_time(records: list[dict]) -> float:
    return sum(r["op_x"] for r in records)


def end_to_end(run: Run, passes: list[list[dict]]) -> dict:
    timed = [p for p in passes if not p[0]["traced"] and all("op_s" in r for r in p)]
    if not timed:
        raise HarnessError("no untraced pass completed")
    op_medians = [median([p[i]["op_x"] for p in timed]) for i in range(len(run.ops))]
    records = [r for p in passes for r in p]
    return {
        "setup_s": median([r["setup_x"] for r in run.setup_reps]),
        "pass_s": median([pass_time(p) for p in timed]),
        "largest_op_s": max(op_medians),
        "smallest_op_s": min(op_medians),
        "ok_share": sum(not r["problems"] for r in records) / len(records),
        "peak_rss_mb": max(r["maxrss_mb"] for p in timed for r in p),
    }


def layer_metrics(pass_records: list[dict], names) -> dict:
    """The named per-layer metrics of one traced pass, summed over its ops.

    Times are shares of the pass's traced wall time (`trace.pass_s` scaled):
    `<layer>.self_share` is a layer's self time and `<function>.share` a
    function's outermost inclusive time.  `<function>.calls` counts calls.
    """
    calls, incl, self_s = Counter(), Counter(), Counter()
    totals = Counter()
    max_bits = 0
    for r in pass_records:
        t = r["trace"]
        calls.update(t["calls"])
        incl.update(t["incl_s"])
        self_s.update(t["self_s"])
        totals.update({k: t[k] for k in ("matrices", "distinct_matrices",
                                         "compositions", "distinct_compositions")})
        max_bits = max(max_bits, t["max_entry_bits"])

    def share(num, den):
        return num / den if den else 0.0

    wall = sum(r["wall_s"] for r in pass_records)
    out = {
        "trace.pass_s": pass_time(pass_records),
        "linalg.eliminations": sum(calls[n] for n in ELIMINATIONS),
        "linalg.distinct_share": share(totals["distinct_matrices"], totals["matrices"]),
        "linalg.max_entry_bits": max_bits,
        "poly.compose_with_curve.distinct_share":
            share(totals["distinct_compositions"], totals["compositions"]),
        "construction.attempts_per_verify":
            share(calls["construction.select_special_points"],
                  calls["construction.verify_construction"]),
    }
    for name in names:
        if name.endswith(".self_share"):
            out[name] = self_s[name.split(".")[0]] / wall
        elif name.endswith(".share"):
            out[name] = incl[name[: -len(".share")]] / wall
        elif name.endswith(".calls"):
            out[name] = calls[name[: -len(".calls")]]
    return out


def per_layer(run: Run, passes: list[list[dict]]) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p[0]["traced"] and all("trace" in r for r in p)]
    plain = [p for p in passes if not p[0]["traced"] and all("op_s" in r for r in p)]
    if not traced or not plain:
        raise HarnessError("a traced run needs one traced and one untraced pass")
    per_pass = [layer_metrics(p, run.layer_units) for p in traced]
    notes = []
    counts = [{k: v for k, v in m.items() if run.layer_units.get(k) in ("count", "bits")}
              for m in per_pass]
    if any(c != counts[0] for c in counts):
        run.correct = False
        notes.append("counts differ between traced passes")
    out = {k: median([m[k] for m in per_pass]) for k in per_pass[0]}
    out.update(counts[0])
    out["trace.overhead"] = median([pass_time(p) for p in traced]) / median(
        [pass_time(p) for p in plain])
    gaps = [abs(sum(r["trace"]["self_s"].values()) - r["wall_s"]) / r["wall_s"]
            for p in traced for r in p]
    notes.append(f"layer self times sum to the traced op wall time within {max(gaps):.2%} "
                 f"(largest gap over {len(gaps)} traced ops; the rest is the wrapper "
                 "around the root span)")
    return out, notes


def report(run: Run, args, passes: list[list[dict]]) -> dict:
    records = [r for p in passes for r in p]
    print(f"# curvejac benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(passes)} passes of {len(run.ops)} ops, one fresh interpreter per op, "
          f"closed loop with one client, trace {int(run.trace)}")
    for i, op in enumerate(run.ops):
        mine = [p[i] for p in passes]
        plain = [r for r in mine if not r["traced"] and "op_s" in r]
        verdict = "; ".join(dict.fromkeys(x for r in mine for x in r["problems"])) or "ok"
        med = (f"{median([r['op_x'] for r in plain]):.4f} s "
               f"(raw {median([r['op_s'] for r in plain]):.4f} s)") if plain else "-"
        print(f"op {op.name}: exit {mine[0]['exit']}, median {med} over {len(plain)}, "
              f"sha256 {mine[0]['sha256']}, oracle {verdict}")
    failed = [r for r in records if r["problems"]]
    names = ", ".join(sorted({r["op"] for r in failed})) or "none"
    print(f"fail_share {len(failed) / len(records):.4f} ({len(failed)} of {len(records)} "
          f"op runs failed: {names})")
    if run.trace:
        metrics, notes = per_layer(run, passes)
        units = run.layer_units
        ntraced = sum(p[0]["traced"] for p in passes)
        for note in notes:
            print("# " + note)
        print(f"# per-layer values are medians over {ntraced} traced passes")
    else:
        metrics = end_to_end(run, passes)
        units = END_TO_END_UNITS
        print(f"# setup_s: median of {len(run.setup_reps)} interpreters; times: medians "
              f"over {sum(not p[0]['traced'] for p in passes)} passes")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    return {
        "correct": run.correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="curvejac benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "curvejac" / "cli.py").is_file():
        print(f"curvejac sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), layer_units)
        run.measure_setup()
        passes = run.run_passes()
        result = report(run, args, passes)
    except (HarnessError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
