"""Command-line front end.

Commands: fixture, jacobian, verify, through, sample.  Machine-readable JSON
goes to stdout (or --out); human-readable tables go to stderr.  Every command
is deterministic given its inputs, flags and seed, and each JSON document
embeds the effective configuration.

Exit codes: 0 success, 2 input error (including a bad command line, an
unreadable input or an unwritable output file), 3 dimension error, 4 empty
system.  Every error ends with one line on stderr.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import gc
import hashlib
import json
import math
import sys

from . import construction, fixtures, incidence
from .errors import DimensionError, InputError
from .linalg import (MAX_COUNT, MAX_DEGREE, MAX_RATIONAL_DIGITS, _dump, parse_rational,
                     parse_size, rank_exact, rank_numeric)
from .poly import restrict_to_curve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIMENSION = 3
EXIT_EMPTY = 4


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc


def _open_output(path: str | None):
    """The --out file, opened before any work so that an unwritable path
    fails fast; append mode leaves an existing file as it is until
    `_write_output` replaces its content.  None stands for stdout."""
    if path is None:
        return contextlib.nullcontext()
    return open(path, "a", encoding="utf-8")


def _write_output(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        out.truncate(0)
        out.write(text)


def _parse_tol(text: str) -> float:
    tol = float(text)
    if not math.isfinite(tol) or tol < 0:
        raise InputError(f"--tol must be finite and nonnegative, got {text!r}")
    return tol


def _parse_points(text: str):
    """--points: a token without 'i' is a rational (`parse_rational`), one
    with 'i' a finite complex number a+bi of at most MAX_RATIONAL_DIGITS digits."""
    points = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "i" not in tok:
            points.append(parse_rational(tok))
            continue
        try:
            z = complex(tok.replace("i", "j"))
            if not cmath.isfinite(z) or sum(map(str.isdigit, tok)) > MAX_RATIONAL_DIGITS:
                raise ValueError
        except ValueError as exc:
            raise InputError(f"cannot parse point {tok[:40]!r}: expected a rational 'p' or 'p/q' "
                             f"or a finite a+bi of at most {MAX_RATIONAL_DIGITS} digits") from exc
        points.append(z)
    return points


def cmd_fixture(args, out) -> int:
    fix = fixtures.get(args.name)
    _write_output(_dump(fix.to_obj()), out)
    return EXIT_OK


def cmd_jacobian(args, out) -> int:
    prob = incidence.IncidenceProblem.from_obj(_read_json(args.problem))
    curve = incidence.CurveParam.from_obj(_read_json(args.curve))
    tol = _parse_tol(args.tol)
    config = {
        "command": "jacobian",
        "form": args.form,
        "points": args.points,
        "tol": args.tol,
    }
    # One restriction of the gradient serves the matrix, the exact rank and,
    # through Euler's identity, whether the curve lies on the hypersurface.
    incidence._check_curve(prob, curve)
    grads = incidence.restricted_gradient(prob.f, curve)
    if args.form == "coeff":
        if args.points is not None:
            raise InputError("--points belongs to --form eval")
        jac = jac_coeff = incidence.jacobian_coefficient_form(prob, curve, grads)
    else:
        if not args.points:
            raise InputError("--form eval requires --points")
        pts = _parse_points(args.points)
        jac = incidence.jacobian_evaluation_form(prob, curve, pts, grads)
        jac_coeff = incidence.jacobian_coefficient_form(prob, curve, grads)
    # At distinct rational points the evaluation form is an invertible
    # Vandermonde matrix times the coefficient form: the ranks agree, and the
    # exact rank is that of the coefficient form's integer matrix.
    rank = coeff_rank = rank_exact(jac_coeff.matrix)
    if jac.is_exact:
        rank_kind = "exact"
    else:
        rank = rank_numeric(jac.matrix, tol)
        rank_kind = f"numeric@{args.tol}"
    obj = jac.to_obj()
    obj.update(
        {
            "config": config,
            "rank": rank,
            "rank_kind": rank_kind,
            "tangent_dim": prob.dim_m - coeff_rank,
            "formal": not incidence.vanishes_on_curve(grads, curve, prob.e),
        }
    )
    _write_output(_dump(obj), out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    fix = construction.Fixture.from_obj(_read_json(args.fixture))
    report = construction.verify_construction(fix, seed=args.seed)
    sys.stderr.write(report.render_text())
    _write_output(report.to_json(), out)
    return EXIT_OK if report.passed else EXIT_INPUT


def _check_degree(degree: int):
    if degree < 1:
        raise InputError("--degree must be at least 1")
    parse_size(degree, "--degree", MAX_DEGREE)


def cmd_through(args, out) -> int:
    _check_degree(args.degree)
    curve = incidence.CurveParam.from_obj(_read_json(args.curve))
    basis = incidence.quintics_through_curve(curve.n, args.degree, curve)
    obj = {
        "config": {"command": "through", "degree": args.degree},
        "ambient_dim": basis.ambient_dim,
        "dimension": basis.dim,
        "monomials": [list(m) for m in incidence.monomial_basis(curve.n + 1, args.degree)],
        "basis": basis.to_obj()["vectors"],
    }
    _write_output(_dump(obj), out)
    return EXIT_OK


def _poly_hash(poly) -> str:
    blob = json.dumps(poly.to_obj(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def cmd_sample(args, out) -> int:
    _check_degree(args.degree)
    if args.count < 0:
        raise InputError("--count must be nonnegative")
    parse_size(args.count, "--count", MAX_COUNT)
    curve = incidence.CurveParam.from_obj(_read_json(args.curve))
    membership = incidence.membership_checks(curve)
    if not membership.all_pass:
        raise InputError(f"curve fails membership checks: {membership.to_obj()}")
    basis = incidence.quintics_through_curve(curve.n, args.degree, curve)
    if basis.dim == 0:
        sys.stderr.write("no forms of this degree contain the curve\n")
        return EXIT_EMPTY
    expected_rank = args.degree * curve.d + 1
    nvars = curve.n + 1
    members = [incidence.random_member(basis, args.seed * 1_000_003 + draw, nvars, args.degree)
               for draw in range(args.count)]
    # Every draw's gradient is restricted through the one table of the curve.
    grads = restrict_to_curve(
        (f.partial_derivative(m) for f in members for m in range(nvars)), curve.components)
    records = []
    full = 0
    for draw, member in enumerate(members):
        prob = incidence.IncidenceProblem(curve.n, curve.d, args.degree, member)
        jac = incidence.jacobian_coefficient_form(
            prob, curve, grads[draw * nvars : (draw + 1) * nvars])
        rank = rank_exact(jac.matrix)
        is_full = rank == expected_rank
        full += is_full
        records.append(
            {
                "draw": draw,
                "poly_hash": _poly_hash(member),
                "rank": rank,
                "tangent_dim": prob.dim_m - rank,
                "full_rank": is_full,
            }
        )
    obj = {
        "config": {
            "command": "sample",
            "degree": args.degree,
            "count": args.count,
            "seed": args.seed,
        },
        "expected_rank": expected_rank,
        "records": records,
        "summary": {
            "samples": args.count,
            "full_rank": full,
            "fraction": f"{full}/{args.count}",
        },
    }
    sys.stderr.write(f"full rank in {full}/{args.count} samples\n")
    _write_output(_dump(obj), out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as an input error, in one line."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curvejac",
        description="Exact Jacobian toolkit for curves on hypersurfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fix = sub.add_parser("fixture", help="emit a shipped fixture bundle")
    p_fix.add_argument("name")
    p_fix.add_argument("--out")
    p_fix.set_defaults(func=cmd_fixture)

    p_jac = sub.add_parser("jacobian", help="Jacobian, rank, tangent dimension")
    p_jac.add_argument("problem", help="problem JSON path or -")
    p_jac.add_argument("curve", help="curve JSON path or -")
    p_jac.add_argument("--form", choices=("coeff", "eval"), default="coeff")
    p_jac.add_argument("--points", help="comma-separated points for --form eval")
    p_jac.add_argument("--tol", default="1e-8")
    p_jac.add_argument("--out")
    p_jac.set_defaults(func=cmd_jacobian)

    p_ver = sub.add_parser("verify", help="run the construction check chain")
    p_ver.add_argument("fixture", help="fixture JSON path or -")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out")
    p_ver.set_defaults(func=cmd_verify)

    p_thr = sub.add_parser("through", help="forms of a degree containing the curve")
    p_thr.add_argument("curve", help="curve JSON path or -")
    p_thr.add_argument("--degree", type=int, default=5)
    p_thr.add_argument("--out")
    p_thr.set_defaults(func=cmd_through)

    p_smp = sub.add_parser("sample", help="rank experiment over random members")
    p_smp.add_argument("curve", help="curve JSON path or -")
    p_smp.add_argument("--degree", type=int, default=5)
    p_smp.add_argument("--count", type=int, default=20)
    p_smp.add_argument("--seed", type=int, default=0)
    p_smp.add_argument("--out")
    p_smp.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    # The objects alive at entry (mostly the import-time heap) live until
    # exit: freezing them keeps the command's first cyclic collections from
    # traversing them all.  Unfreezing on return gives in-process callers
    # their normal collection back; a caller that froze objects itself
    # keeps its own freeze, and this one is skipped.
    freeze = not gc.get_freeze_count()
    try:
        if freeze:
            gc.freeze()
        args = build_parser().parse_args(argv)
        with _open_output(args.out) as out:
            return args.func(args, out)
    except DimensionError as exc:
        sys.stderr.write(f"dimension error: {exc}\n")
        return EXIT_DIMENSION
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_INPUT
    finally:
        if freeze:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
