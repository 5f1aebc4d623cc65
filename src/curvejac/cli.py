"""Command-line front end.

Commands: fixture, jacobian, verify, through, sample.  Machine-readable JSON
goes to stdout (or --out); human-readable tables go to stderr.  Every command
is deterministic given its inputs, flags and seed, and each JSON document
embeds the effective configuration.

Exit codes: 0 success, 2 input error (including an unreadable input or
unwritable output file), 3 dimension error, 4 empty system.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction

from . import construction, fixtures, incidence
from .errors import DimensionError, InputError
from .linalg import rank_exact, rank_numeric

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIMENSION = 3
EXIT_EMPTY = 4


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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


def _write_output(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_tol(text: str) -> float:
    tol = float(text)
    if not math.isfinite(tol) or tol < 0:
        raise InputError(f"--tol must be finite and nonnegative, got {text!r}")
    return tol


def _parse_points(text: str):
    points = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            points.append(Fraction(tok))
            continue
        except (ValueError, ZeroDivisionError):
            pass
        try:
            points.append(complex(tok.replace("i", "j")))
        except ValueError as exc:
            raise InputError(f"cannot parse point {tok!r}") from exc
    return points


def cmd_fixture(args) -> int:
    fix = fixtures.get(args.name)
    _write_output(_dump(fix.to_obj()), args.out)
    return EXIT_OK


def cmd_jacobian(args) -> int:
    prob = incidence.IncidenceProblem.from_obj(_read_json(args.problem))
    curve = incidence.CurveParam.from_obj(_read_json(args.curve))
    tol = _parse_tol(args.tol)
    config = {
        "command": "jacobian",
        "form": args.form,
        "points": args.points,
        "tol": args.tol,
    }
    if args.form == "coeff":
        jac = incidence.jacobian_coefficient_form(prob, curve)
    else:
        if not args.points:
            raise InputError("--form eval requires --points")
        pts = _parse_points(args.points)
        jac = incidence.jacobian_evaluation_form(prob, curve, pts)
    if jac.is_exact:
        # At distinct rational points the evaluation form is an invertible
        # Vandermonde matrix times the coefficient form: the ranks agree.
        rank = coeff_rank = rank_exact(jac.matrix)
        rank_kind = "exact"
    else:
        rank = rank_numeric(jac.matrix, tol)
        rank_kind = f"numeric@{args.tol}"
        coeff_rank = rank_exact(incidence.jacobian_coefficient_form(prob, curve).matrix)
    obj = jac.to_obj()
    obj.update(
        {
            "config": config,
            "rank": rank,
            "rank_kind": rank_kind,
            "tangent_dim": prob.dim_m - coeff_rank,
            "formal": not incidence.lies_on(prob, curve),
        }
    )
    _write_output(_dump(obj), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    fix = construction.Fixture.from_obj(_read_json(args.fixture))
    report = construction.verify_construction(
        fix, seed=args.seed, tol=_parse_tol(args.tol), precision=args.precision
    )
    sys.stderr.write(report.render_text())
    _write_output(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_INPUT


def cmd_through(args) -> int:
    if args.degree < 1:
        raise InputError("--degree must be at least 1")
    curve = incidence.CurveParam.from_obj(_read_json(args.curve))
    basis = incidence.quintics_through_curve(curve.n, args.degree, curve)
    obj = {
        "config": {"command": "through", "degree": args.degree},
        "ambient_dim": basis.ambient_dim,
        "dimension": basis.dim,
        "monomials": [list(m) for m in incidence.monomial_basis(curve.n + 1, args.degree)],
        "basis": basis.to_obj()["vectors"],
    }
    _write_output(_dump(obj), args.out)
    return EXIT_OK


def _poly_hash(poly) -> str:
    blob = json.dumps(poly.to_obj(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def cmd_sample(args) -> int:
    if args.degree < 1:
        raise InputError("--degree must be at least 1")
    if args.count < 0:
        raise InputError("--count must be nonnegative")
    curve = incidence.CurveParam.from_obj(_read_json(args.curve))
    membership = incidence.membership_checks(curve)
    if not membership.all_pass:
        raise InputError(f"curve fails membership checks: {membership.to_obj()}")
    basis = incidence.quintics_through_curve(curve.n, args.degree, curve)
    if basis.dim == 0:
        sys.stderr.write("no forms of this degree contain the curve\n")
        return EXIT_EMPTY
    expected_rank = args.degree * curve.d + 1
    records = []
    full = 0
    for draw in range(args.count):
        member = incidence.random_member(
            basis, args.seed * 1_000_003 + draw, curve.n + 1, args.degree
        )
        prob = incidence.IncidenceProblem(curve.n, curve.d, args.degree, member)
        jac = incidence.jacobian_coefficient_form(prob, curve)
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
    _write_output(_dump(obj), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_ver.add_argument("--tol", default="1e-8")
    p_ver.add_argument("--precision", type=int, default=12)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DimensionError as exc:
        sys.stderr.write(f"dimension error: {exc}\n")
        return EXIT_DIMENSION
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
