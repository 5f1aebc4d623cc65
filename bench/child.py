"""Run one curvejac CLI command in a fresh interpreter and report on it.

    python3 bench/child.py SPAWNED SPANS ARGV_JSON

SPAWNED is the parent's `time.monotonic()` just before it started this
interpreter (the clock is shared by all processes), so `setup_s` covers
interpreter start-up plus `import curvejac.cli`, which every CLI invocation
pays.  SPANS is a path to write the op's trace spans to, or `-` to run
untraced.  An empty ARGV_JSON list only measures set-up.  The report is one
JSON object on stdout.

Times are reported raw (`setup_s`, `op_s`) and scaled by the host's speed
during and right after them (`setup_x` when only measuring set-up, `op_x`;
see speed.py).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import curvejac.cli  # noqa: E402  (the timed import comes first)

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import speed  # noqa: E402


def main() -> int:
    spawned, spans_path, argv = float(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])
    report = {"setup_s": IMPORTED - spawned}
    recorder = None
    if spans_path != "-":
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = curvejac.cli.main(argv) if argv else None
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception:  # a traceback is a failed op, reported, not raised
            error = traceback.format_exc()
        wall = time.perf_counter() - start
    if argv:
        op_s = wall - sampler.inside_s
        report.update(wall_s=wall, op_s=op_s, op_x=op_s * speed.scale(sampler.bursts),
                      exit=code, stdout=out.getvalue(), error=error)
        if recorder is not None:
            report["trace"] = recorder.summary()
            recorder.write(spans_path, " ".join(argv))
    else:
        report["setup_x"] = report["setup_s"] * speed.scale(sampler.bursts)
    report["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
