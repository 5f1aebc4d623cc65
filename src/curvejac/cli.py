"""Command-line front end.

Commands: fixture, jacobian, verify, through, sample, read from the table
COMMANDS by `parse_args`.  Options take `--opt value` or `--opt=value`, under
their full names only, and each command has `--help`.  Machine-readable JSON
goes to stdout (or --out); human-readable tables go to stderr.  Every command
is deterministic given its inputs, flags and seed, and each JSON document
embeds the effective configuration.

Exit codes: 0 success, 2 input error (including a bad command line, an
unreadable input or an unwritable output file), 3 dimension error, 4 empty
system.  Every error ends with one line on stderr.
"""

from __future__ import annotations

import cmath
import contextlib
import gc
import hashlib
import json
import math
import re
import sys
import types

from . import construction, incidence
from .errors import DimensionError, InputError
from .linalg import (MAX_COUNT, MAX_DEGREE, MAX_RATIONAL_DIGITS, IntMatrix, _dump, _rank_at_most,
                     format_rational, parse_rational, parse_size, rank_exact, rank_numeric)
from .poly import _curve_monomials, _gradient_map, monomial_basis

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
    """--points: a token without 'i' is a rational, the pair (a, b) of
    `parse_rational`, which marks an exact point; one with 'i' a finite
    complex number a+bi of at most MAX_RATIONAL_DIGITS digits."""
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
    from . import fixtures  # only this command reads the shipped fixtures

    fix = fixtures.get(args.name)
    _write_output(_dump(fix.to_obj()), out)
    return EXIT_OK


def cmd_jacobian(args, out) -> int:
    prob = incidence.IncidenceProblem.from_obj(_read_json(args.problem))
    curve = incidence.CurveParam.from_obj(_read_json(args.curve))
    tol = _parse_tol(args.tol)
    config = {"command": "jacobian", "form": args.form, "points": args.points, "tol": args.tol}
    # One restriction of the gradient serves the matrix, the exact rank and,
    # through Euler's identity, whether the curve lies on the hypersurface.
    incidence._check_curve(prob, curve)
    grads = incidence.restricted_gradient(prob.f, curve)
    if args.form == "coeff":
        if args.points is not None:
            raise InputError("--points belongs to --form eval")
        coeff = incidence.jacobian_coefficient_form(prob, curve, grads)
        form, rows, points = "coefficient", [coeff.row(i) for i in range(coeff.rows)], []
        row_labels = [f"k{j}" for j in range(coeff.rows)]
    else:
        if not args.points:
            raise InputError("--form eval requires --points")
        rows, points = incidence.jacobian_evaluation_form(
            prob, curve, _parse_points(args.points), grads)
        coeff = incidence.jacobian_coefficient_form(prob, curve, grads)
        form, row_labels = "evaluation", [f"t={incidence._point_label(t)}" for t in points]
    # At distinct rational points the evaluation form is an invertible
    # Vandermonde matrix times the coefficient form: the ranks agree, and the
    # exact rank is that of the coefficient form's integer matrix.  Exact
    # rows are den times the Jacobian's, at a/b times b**(K + d), K + 1 the
    # longest list of grads (any K if all are zero), written over that;
    # complex rows are the Jacobian, as [real, imag] pairs without labels.
    # On its hypersurface the curve's four symmetry directions are kernel
    # witnesses, which certify a rank below min(rows, cols).
    on_curve = incidence.vanishes_on_curve(grads, curve, prob.e)
    rank = coeff_rank = rank_exact(
        coeff, incidence.symmetry_kernel_vectors(curve) if on_curve else ())
    exact = all(isinstance(t, tuple) for t in points)
    matrix = {"rows": len(rows), "cols": coeff.cols}
    obj = {"form": form, "exact": exact, "matrix": matrix, "config": config}
    if exact:
        k = max(1, *map(len, grads[1])) - 1 + prob.d
        dens = [grads[0] * b**k for _, b in points] or [grads[0]] * len(rows)
        matrix["entries"] = [[format_rational(x, den) for x in row] for row, den in zip(rows, dens)]
        obj["row_labels"], obj["col_labels"] = row_labels, incidence.theta_labels(prob.n, prob.d)
        rank_kind = "exact"
    else:
        matrix["entries"] = [[[float(z.real), float(z.imag)] for z in row] for row in rows]
        rank = rank_numeric(rows, tol)
        rank_kind = f"numeric@{args.tol}"
    if points:
        obj["points"] = [incidence._point_label(t) for t in points]
    obj.update({"rank": rank, "rank_kind": rank_kind, "tangent_dim": prob.dim_m - coeff_rank,
                "formal": not on_curve})
    _write_output(_dump(obj), out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    fix = construction.Fixture.from_obj(_read_json(args.fixture))
    report = construction.verify_construction(fix, seed=args.seed)
    sys.stderr.write(construction.render_text(report))
    _write_output(_dump(report), out)
    return EXIT_OK if report["passed"] else EXIT_INPUT


def _check_degree(degree: int):
    if degree < 1:
        raise InputError("--degree must be at least 1")
    parse_size(degree, "--degree", MAX_DEGREE)


def cmd_through(args, out) -> int:
    _check_degree(args.degree)
    curve = incidence.CurveParam.from_obj(_read_json(args.curve))
    mons = monomial_basis(curve.n + 1, args.degree)
    basis = incidence.quintics_through_curve(curve, mons, _curve_monomials(curve.components))
    obj = {
        "config": {"command": "through", "degree": args.degree},
        "ambient_dim": basis.ambient_dim,
        "dimension": basis.dim,
        "monomials": [list(m) for m in mons],
        "basis": basis.to_obj()["vectors"],
    }
    _write_output(_dump(obj), out)
    return EXIT_OK


def _poly_hash(poly) -> str:
    blob = json.dumps(poly.to_obj(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def cmd_sample(args, out) -> int:
    _check_degree(args.degree)
    parse_size(args.count, "--count", MAX_COUNT)
    curve = incidence.CurveParam.from_obj(_read_json(args.curve))
    membership = incidence.membership_checks(curve)
    if not membership["all_pass"]:
        raise InputError(f"curve fails membership checks: {membership}")
    # One table of the curve restricts the monomials of the forms through it
    # and builds the gradient map that restricts every draw's partials; one
    # list of those monomials indexes the basis, the map and every draw.
    nvars = curve.n + 1
    table = _curve_monomials(curve.components)
    mons = monomial_basis(nvars, args.degree)
    basis = incidence.quintics_through_curve(curve, mons, table)
    if basis.dim == 0:
        sys.stderr.write("no forms of this degree contain the curve\n")
        return EXIT_EMPTY
    # every member contains the curve, so the symmetry directions lie in
    # each draw's kernel: their rank s, proven once, bounds every draw's
    # rank by (n+1)(d+1) - s once an exact matvec finds them there
    sym = incidence.symmetry_kernel_vectors(curve)
    nrows = args.degree * curve.d + 1
    expected_rank = min(nrows, nvars * (curve.d + 1) - rank_exact(IntMatrix.from_rows(sym)))
    members = [incidence.random_member(basis, args.seed * 1_000_003 + draw, mons)
               for draw in range(args.count)]
    gradient = _gradient_map(nvars, mons, table)
    records = []
    full = 0
    for draw, member in enumerate(members):
        # the coefficient Jacobian times den, as `jacobian_coefficient_form` builds it
        jac = incidence._convolution_matrix(gradient(member)[1], curve.d, nrows)
        witnessed = not any(any(jac.matvec(w)) for w in sym)
        rank = _rank_at_most(jac, expected_rank if witnessed else min(nrows, jac.cols))
        is_full = rank == expected_rank
        full += is_full
        records.append({"draw": draw, "poly_hash": _poly_hash(member), "rank": rank,
                        "tangent_dim": nvars * (curve.d + 1) - rank, "full_rank": is_full})
    obj = {
        "config": {"command": "sample", "degree": args.degree, "count": args.count,
                   "seed": args.seed},
        "expected_rank": expected_rank,
        "records": records,
        "summary": {"samples": args.count, "full_rank": full, "fraction": f"{full}/{args.count}"},
    }
    sys.stderr.write(f"full rank in {full}/{args.count} samples\n")
    _write_output(_dump(obj), out)
    return EXIT_OK


# A word is a value, a positional or an option's, unless it starts with '-'
# and is neither '-' (stdin) nor a negative number, as in argparse.
_VALUE = re.compile(r"(?s)-|-\d+|-\d*\.\d+|(?!-).*")

# Each command's positional names, and its options with their defaults: an
# option whose default is an int takes an int, and a tuple lists the option's
# choices, the default first.
COMMANDS = {
    "fixture": (("name",), {"--out": None}),
    "jacobian": (("problem", "curve"),
                 {"--form": ("coeff", "eval"), "--points": None, "--tol": "1e-8", "--out": None}),
    "verify": (("fixture",), {"--seed": 0, "--out": None}),
    "through": (("curve",), {"--degree": 5, "--out": None}),
    "sample": (("curve",), {"--degree": 5, "--count": 20, "--seed": 0, "--out": None}),
}


def parse_args(argv):
    """Reads a command line against COMMANDS: the command, then its
    positionals (`-` for stdin) and options in any order, an option as
    `--opt value` or `--opt=value` under its exact name.  `-h` or `--help`
    prints one usage line and exits 0; any other fault raises InputError."""
    if argv[:1] in (["-h"], ["--help"]):
        sys.stdout.write(f"usage: curvejac {{{','.join(COMMANDS)}}} ...\n")
        raise SystemExit(EXIT_OK)
    if not argv or argv[0] not in COMMANDS:
        raise InputError(f"curvejac: expected a command, one of {', '.join(COMMANDS)}")
    command, words, positionals = argv[0], iter(argv[1:]), []
    names, options = COMMANDS[command]
    values = {opt[2:]: d[0] if isinstance(d, tuple) else d for opt, d in options.items()}
    fault = f"curvejac {command}:"
    for word in words:
        if word in ("-h", "--help"):
            shown = (f"[{opt} {{{','.join(d)}}}]" if isinstance(d, tuple)
                     else f"[{opt} {opt[2:].upper()}]" for opt, d in options.items())
            sys.stdout.write(f"usage: curvejac {' '.join((command, *names, *shown))} [--help]\n")
            raise SystemExit(EXIT_OK)
        if _VALUE.fullmatch(word):
            positionals.append(word)
            continue
        opt, eq, value = word.partition("=")
        if opt not in options:
            raise InputError(f"{fault} unknown option {opt}")
        if not eq:
            value = next(words, None)
            if value is None or not _VALUE.fullmatch(value):
                raise InputError(f"{fault} {opt} expects a value")
        default = options[opt]
        if isinstance(default, int):
            try:
                value = int(value)
            except ValueError:
                raise InputError(f"{fault} {opt} expects an integer, got {value[:40]!r}") from None
        elif isinstance(default, tuple) and value not in default:
            raise InputError(f"{fault} {opt} must be one of {', '.join(default)}, "
                             f"got {value[:40]!r}")
        values[opt[2:]] = value
    if len(positionals) != len(names):
        raise InputError(f"{fault} expected {len(names)} positional argument(s) "
                         f"({' '.join(names)}), got {len(positionals)}")
    return types.SimpleNamespace(command=command, **values, **dict(zip(names, positionals)))


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
        args = parse_args(sys.argv[1:] if argv is None else argv)
        with _open_output(args.out) as out:
            # looked up per call, so that a replaced handler is the one run
            return globals()[f"cmd_{args.command}"](args, out)
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
