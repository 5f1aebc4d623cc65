"""Independent expected answers for the benchmark's ops.

Nothing here imports `curvejac`.  `expect` runs before any op is timed and
derives each op's answer from the inputs alone; ranks are certified by
elimination modulo a 61-bit prime, which bounds the rank over Q from below,
so a full-row-rank result mod p is the exact rank.  `check` then compares an
op's exit code and stdout with that answer and returns the disagreements.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

import algebra as alg
from gen import SAMPLE_COUNT, THROUGH_DEGREE, Op


def expect(op: Op) -> dict:
    fix, d = op.fixture, op.fixture.d
    if op.kind in ("verify", "jacobian"):
        if alg.compose(fix.f0, fix.c0):
            raise ValueError(f"{op.name}: the curve does not lie on f0")
        rank = alg.jacobian_rank_mod_p(fix.f0, fix.c0, d, 5)
        if rank != 5 * d + 1:
            raise ValueError(f"{op.name}: cannot certify rank {5 * d + 1}, mod-p rank is {rank}")
        exp = {"exit": 0, "rank": rank, "tangent_dim": 5 * (d + 1) - rank}
        if op.kind == "verify":
            lc = alg.compose(fix.l, fix.c0)
            exp["field"] = "rational" if alg.splits_over_q(lc) else "complex"
        return exp
    nrows = THROUGH_DEGREE * d + 1
    rank = alg.restriction_rank_mod_p(fix.c0, THROUGH_DEGREE, nrows)
    if rank != nrows:
        raise ValueError(f"{op.name}: cannot certify restriction rank {nrows}")
    ambient = len(alg.monomials(5, THROUGH_DEGREE))
    if op.kind == "through":
        return {"exit": 0, "ambient_dim": ambient, "dimension": ambient - rank}
    return {"exit": 0, "rank": rank, "tangent_dim": 5 * (d + 1) - rank, "count": SAMPLE_COUNT}


def check(op: Op, exp: dict, code, stdout: str) -> list[str]:
    """Every way the op's outcome differs from the expected answer."""
    if code != exp["exit"]:
        problems = [f"exit {code}, expected {exp['exit']}"]
    else:
        problems = []
    try:
        obj = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not a JSON document"]
    try:
        problems += _CHECKS[op.kind](op, exp, obj)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems


def _differ(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label} {got!r}, expected {want!r}"]


def _check_verify(op: Op, exp: dict, obj: dict) -> list[str]:
    fix, d = op.fixture, op.fixture.d
    checks = {c["id"]: c for c in obj["checks"]}
    out = _differ("passed", obj["passed"], True)
    out += _differ("field", obj["field"], exp["field"])
    out += _differ("check ids", sorted(checks), list(range(1, 11)))
    out += [f"check {i} {c['status']}" for i, c in sorted(checks.items()) if c["status"] != "pass"]
    out += _differ("check 7 rank", checks[7]["details"]["rank"], 4 * d)
    out += _differ("check 8 kernel_dim", checks[8]["details"]["kernel_dim"], 4)
    out += _differ("check 9 rank", checks[9]["details"]["rank"], exp["rank"])
    out += _differ("check 9 tangent_dim", checks[9]["details"]["tangent_dim"], exp["tangent_dim"])
    out += _differ("check 10 kernel_dim", checks[10]["details"]["kernel_dim"], 4)
    if exp["field"] == "rational":
        points = [Fraction(s) for s in obj["points"][: d + 1]]
        out += _differ("check 4 det", Fraction(checks[4]["details"]["det"]),
                       corner_det(fix, points))
    return out


def corner_det(fix, points: list[Fraction]) -> Fraction:
    """det of the corner block [t_s**(d-i) * p(c0(t_s))] at the first d+1 points."""
    pc = alg.compose(fix.p, fix.c0)
    return alg.det([[t ** (fix.d - i) * alg.ueval(pc, t) for i in range(fix.d + 1)]
                    for t in points])


def _check_jacobian(op: Op, exp: dict, obj: dict) -> list[str]:
    out = _differ("rank", obj["rank"], exp["rank"])
    out += _differ("tangent_dim", obj["tangent_dim"], exp["tangent_dim"])
    out += _differ("formal", obj["formal"], False)
    return out + _differ("numeric rank", obj["rank_kind"].startswith("numeric@"), True)


def _check_through(op: Op, exp: dict, obj: dict) -> list[str]:
    out = _differ("ambient_dim", obj["ambient_dim"], exp["ambient_dim"])
    out += _differ("dimension", obj["dimension"], exp["dimension"])
    mons = [tuple(m) for m in obj["monomials"]]
    out += _differ("monomials", sorted(mons), sorted(alg.monomials(5, THROUGH_DEGREE)))
    vectors = [_integer_vector(v) for v in obj["basis"]]
    out += _differ("basis size", len(vectors), exp["dimension"])
    if out:
        return out
    points = _integer_curve_points(op.fixture.c0, THROUGH_DEGREE * op.fixture.d + 1)
    values = [[_mono_value(z, m) for m in mons] for z in points]
    bad = sum(1 for v in vectors if any(sum(a * b for a, b in zip(v, row)) for row in values))
    out += _differ("basis vectors not vanishing on the curve", bad, 0)
    rank = alg.rank_mod_p([[x % alg.PRIME for x in v] for v in vectors])
    return out + _differ("basis rank mod p", rank, len(vectors))


def _integer_vector(v: list[str]) -> list[int]:
    fr = [Fraction(x) for x in v]
    scale = lcm(*(x.denominator for x in fr))
    return [int(x * scale) for x in fr]


def _integer_curve_points(c0: list, count: int) -> list[list[int]]:
    """Projective points c0(t), t = 0..count-1, scaled to integer coordinates.

    A form of degree e restricts to a polynomial of degree <= e*d in t, so it
    vanishes on the curve iff it vanishes at e*d+1 of these points."""
    points = []
    for t in range(count):
        z = [Fraction(alg.ueval(c, t)) for c in c0]
        scale = lcm(*(x.denominator for x in z))
        points.append([int(x * scale) for x in z])
    return points


def _mono_value(z: list[int], mono: tuple) -> int:
    out = 1
    for x, k in zip(z, mono):
        out *= x**k
    return out


def _check_sample(op: Op, exp: dict, obj: dict) -> list[str]:
    records = obj["records"]
    out = _differ("expected_rank", obj["expected_rank"], exp["rank"])
    out += _differ("records", len(records), exp["count"])
    out += [f"draw {r['draw']} rank {r['rank']}" for r in records if r["rank"] != exp["rank"]]
    out += [f"draw {r['draw']} full_rank {r['full_rank']}" for r in records if not r["full_rank"]]
    out += [f"draw {r['draw']} tangent_dim {r['tangent_dim']}"
            for r in records if r["tangent_dim"] != exp["tangent_dim"]]
    return out + _differ("summary full_rank", obj["summary"]["full_rank"], exp["count"])


_CHECKS = {
    "verify": _check_verify,
    "jacobian": _check_jacobian,
    "through": _check_through,
    "sample": _check_sample,
}
