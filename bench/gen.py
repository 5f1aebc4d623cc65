"""Seeded input generator for the curvejac benchmark.

Imports nothing from `curvejac`: the inputs must not move when the package's
kernel normalisation or arithmetic changes.  The same seed writes the same
bytes.

Generated fixtures follow the shape of the shipped ones.  The curve `c0` of
degree d has components prod(t-k), prod(t+k), prod(t-1/(k+1)), prod(t+1/(k+2))
(k = 1..d) and a zero z4 component.  The quartic `q` is a seeded combination,
with coefficients in [-9, 9] and none zero, of a basis of the quartics in
z0..z3 through `c0`, redrawn until it is smooth along the curve and the
coefficient Jacobian of f0 = l*q + z4*p has full rank 5d+1 modulo a prime
(which certifies full rank over Q).  The basis is either
made of primitive integer vectors ("small" height) or of vectors scaled to
lead coefficient 1 ("large" height, which inflates the bit length of q).

    python3 bench/gen.py --workload verify-degree --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import algebra as alg

THROUGH_DEGREE = 5
SAMPLE_COUNT = 3

# The quartic p shared by every fixture (the package's fixtures A and B use it).
SHARED_P = {
    (4, 0, 0, 0, 0): Fraction(1),
    (3, 1, 0, 0, 0): Fraction(1),
    (2, 2, 0, 0, 0): Fraction(1),
    (1, 3, 0, 0, 0): Fraction(-2),
    (0, 4, 0, 0, 0): Fraction(1),
    (0, 0, 4, 0, 0): Fraction(1),
    (0, 0, 0, 4, 0): Fraction(1),
    (0, 0, 0, 0, 4): Fraction(1),
}
Z4 = {(0, 0, 0, 0, 1): Fraction(1)}
# l restricts to prod(t-k) on c0, which splits over Q.
L_SPLIT = {(1, 0, 0, 0, 0): Fraction(1), (0, 0, 0, 0, 1): Fraction(7)}
# l restricts to prod(t-k) + prod(t+k), which does not split for d >= 2.
L_NONSPLIT = {(1, 0, 0, 0, 0): Fraction(1), (0, 1, 0, 0, 0): Fraction(1),
              (0, 0, 0, 0, 1): Fraction(7)}
# Evaluation points for `jacobian --form eval`: rationals plus one complex point.
EVAL_POINTS = {1: "0,1,2,3,4,1+2i", 2: "-2,-1,-1/2,0,1/3,1/2,1,3/2,2,3,1+2i"}


@dataclass
class Fixture:
    name: str
    d: int
    q: dict
    l: dict
    c0: list  # five univariate components
    p: dict = field(default_factory=lambda: dict(SHARED_P))

    @property
    def f0(self) -> dict:
        return alg.madd(alg.mmul(self.l, self.q), alg.mmul(Z4, self.p))


@dataclass
class Op:
    """One CLI invocation plus what the oracle needs to judge its output."""

    name: str
    kind: str  # verify | jacobian | through | sample
    argv: list
    fixture: Fixture


def fixture_a() -> Fixture:
    q = {(3, 0, 1, 0, 0): 1, (0, 3, 0, 1, 0): 1, (0, 0, 4, 0, 0): 1, (0, 0, 0, 4, 0): 1}
    l = {(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): 2, (0, 0, 1, 0, 0): 3,
         (0, 0, 0, 1, 0): 5, (0, 0, 0, 0, 1): 7}
    c0 = [[Fraction(1)], [Fraction(0), Fraction(1)], [], [], []]
    return Fixture("A", 1, _frac(q), _frac(l), c0)


def fixture_b(nonsplit: bool = False) -> Fixture:
    base = {(1, 0, 1, 0, 0): 1, (0, 2, 0, 0, 0): -1}
    quadric = {(2, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0): 1, (0, 0, 2, 0, 0): 1}
    cubic = {(3, 0, 0, 0, 0): 1, (0, 3, 0, 0, 0): 1, (0, 0, 3, 0, 0): 1}
    q = alg.madd(alg.mmul(base, quadric), alg.mmul({(0, 0, 0, 1, 0): 1}, cubic))
    # The split l restricts to 1 - t^2; the non-split one to 1 + t^2.
    l = {(1, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0): 1 if nonsplit else -1,
         (0, 0, 0, 1, 0): 2, (0, 0, 0, 0, 1): 3}
    c0 = [[Fraction(1)], [Fraction(0), Fraction(1)], [Fraction(0), Fraction(0), Fraction(1)], [], []]
    return Fixture("B-nonsplit" if nonsplit else "B", 2, _frac(q), _frac(l), c0)


def _frac(f: dict) -> dict:
    return {e: Fraction(c) for e, c in f.items()}


def curve_components(d: int) -> list[list[Fraction]]:
    ks = range(1, d + 1)
    return [
        alg.product_of_linear(Fraction(k) for k in ks),
        alg.product_of_linear(Fraction(-k) for k in ks),
        alg.product_of_linear(Fraction(1, k + 1) for k in ks),
        alg.product_of_linear(Fraction(-1, k + 2) for k in ks),
        [],
    ]


def quartic_basis(c0: list, d: int, height: str) -> list[list]:
    """Basis of the quartics in z0..z3 vanishing on c0, over `monomials(4, 4)`."""
    mons = alg.monomials(4, 4)
    cols = [alg.compose({m: Fraction(1)}, c0[:4]) for m in mons]
    rows = [[col[j] if j < len(col) else 0 for col in cols] for j in range(4 * d + 1)]
    basis = alg.nullspace(rows, len(mons))
    if height == "small":
        return [alg.primitive(v) for v in basis]
    return [[x / next(y for y in v if y) for x in v] for v in basis]


def smooth_along_curve(q: dict, c0: list, d: int) -> bool:
    """The gradient restrictions have no common zero on the curve, at
    infinity included (they are coprime and one reaches degree 3d)."""
    grads = [alg.compose(alg.partial(q, m), c0) for m in range(4)]
    if max(len(g) for g in grads) - 1 != 3 * d:
        return False
    return alg.coprime_mod_p([g for g in grads if g])


_NONZERO_COEFFICIENTS = [k for k in range(-9, 10) if k]


def generated(name: str, d: int, seed: int, height: str, l: dict) -> Fixture:
    c0 = curve_components(d)
    mons = [m + (0,) for m in alg.monomials(4, 4)]
    basis = quartic_basis(c0, d, height)
    rng = random.Random(f"{name}/{seed}")
    while True:
        # No zero coefficient: every basis vector contributes, so the height
        # of q (and the cost of every op on it) hardly varies with the seed.
        coefs = [rng.choice(_NONZERO_COEFFICIENTS) for _ in basis]
        vec = [sum(c * v[i] for c, v in zip(coefs, basis)) for i in range(len(mons))]
        q = {m: Fraction(x) for m, x in zip(mons, vec) if x != 0}
        fix = Fixture(name, d, q, dict(l), c0)
        if smooth_along_curve(q, c0, d) and alg.jacobian_rank_mod_p(fix.f0, c0, d, 5) == 5 * d + 1:
            return fix


# -- JSON -------------------------------------------------------------------


def poly_obj(f: dict, nvars: int = 5) -> dict:
    degs = {sum(e) for e in f}
    terms = sorted(f.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    return {
        "nvars": nvars,
        "homogeneous_degree": degs.pop() if len(degs) == 1 else None,
        "terms": [{"exp": list(e), "coef": str(Fraction(c))} for e, c in terms],
    }


def curve_obj(fix: Fixture) -> dict:
    return {"n": 4, "d": fix.d,
            "components": [{"coeffs": [str(Fraction(x)) for x in c]} for c in fix.c0]}


def fixture_obj(fix: Fixture) -> dict:
    return {"name": fix.name, "d": fix.d, "q": poly_obj(fix.q), "l": poly_obj(fix.l),
            "p": poly_obj(fix.p), "c0": curve_obj(fix)}


def problem_obj(fix: Fixture) -> dict:
    return {"n": 4, "d": fix.d, "e": 5, "f": poly_obj(fix.f0)}


def _write(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


# -- workloads --------------------------------------------------------------


def _verify(fix: Fixture, seed: int, out: Path) -> Op:
    path = _write(out / f"fixture-{fix.name}.json", fixture_obj(fix))
    return Op(f"verify-{fix.name}", "verify", ["verify", path, "--seed", str(seed)], fix)


def _jacobian(fix: Fixture, out: Path) -> Op:
    prob = _write(out / f"problem-{fix.name}.json", problem_obj(fix))
    curve = _write(out / f"curve-{fix.name}.json", curve_obj(fix))
    argv = ["jacobian", prob, curve, "--form", "eval", f"--points={EVAL_POINTS[fix.d]}"]
    return Op(f"jacobian-eval-{fix.name}", "jacobian", argv, fix)


def _through_sample(fix: Fixture, seed: int, out: Path) -> list[Op]:
    curve = _write(out / f"curve-{fix.name}.json", curve_obj(fix))
    deg = str(THROUGH_DEGREE)
    return [
        Op(f"through-{fix.name}", "through", ["through", curve, "--degree", deg], fix),
        Op(f"sample-{fix.name}", "sample",
           ["sample", curve, "--degree", deg, "--count", str(SAMPLE_COUNT), "--seed", str(seed)],
           fix),
    ]


def workload_ops(workload: str, seed: int, out: Path) -> list[Op]:
    """Write the workload's input files under `out` and return its ops."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "verify-degree":
        fixes = [fixture_a(), fixture_b()] + [
            generated(f"d{d}-small", d, seed, "small", L_SPLIT) for d in (3, 4, 5, 6)
        ]
        return [_verify(f, seed, out) for f in fixes]
    if workload == "verify-height":
        return [_verify(generated(f"d{d}-large", d, seed, "large", L_SPLIT), seed, out)
                for d in (3, 4)]
    if workload == "through-sample":
        # Curves only: c0 of the d=3 fixture does not depend on q.
        fixes = [fixture_a(), fixture_b(), Fixture("d3", 3, {}, {}, curve_components(3))]
        return [op for f in fixes for op in _through_sample(f, seed, out)]
    if workload == "complex-points":
        fixes = [fixture_b(nonsplit=True)] + [
            generated(f"d{d}-nonsplit", d, seed, "small", L_NONSPLIT) for d in (2, 3, 4)
        ]
        return [_verify(f, seed, out) for f in fixes] + [
            _jacobian(fixture_a(), out), _jacobian(fixture_b(), out)
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-degree", "verify-height", "through-sample", "complex-points")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    for op in workload_ops(args.workload, args.seed, Path(args.out)):
        print(op.name, " ".join(op.argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
