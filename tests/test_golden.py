"""Pinned stdout bytes of every command on the shipped fixtures.

Each case runs one CLI command and compares the sha256 of its stdout with a
recorded value, so any change to the documented JSON output, however small,
fails here.  Three `verify` cases pin the paths the shipped fixtures never
take: the all-generic fallback (A with p vanishing at the l-root), the run
that uses up every point attempt (A with l = z4), and a curve of degree 4
whose l-roots are complex.  A fourth pins a split rational fixture of degree
3 with a large-height q (`data/fixture-d3-large.json`), so check 5 reports
three l-roots.  `through` and `sample` are also pinned on B and
on the generated degree-3 curve `data/curve-d3.json`, the slowest inputs
of both commands.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from curvejac import cli
from curvejac.poly import MultiPoly

A_RATIONAL = "-1/2,1,2,3,5,7"
A_COMPLEX = "0,1,-1,2,-2,0.5+0.5i"
B_RATIONAL = "-5,-4,-3,-2,-1,0,1,2,3,4,5"
B_COMPLEX = "-2,-1,-1/2,0,1/3,1/2,1,3/2,2,3,1+2i"

GOLDEN = {
    "verify-A-0": "478c07eea27d2edb728daddd152779d6ac36b6a7879881dabb29535e1b021136",
    "verify-A-3": "7d824b7793db8531d9d49f2c9c8aba54d0789a59030603327952279578dbdd67",
    "verify-B-0": "3482f2a0ba4420040be5f8c2e825d26b19920fc5f377d80602c3c28876fc760c",
    "verify-B-3": "c7c22cf8f759b086297b380e990b32f687bf53da191f5489029bb4c2d484a5ed",
    "verify-B-nonsplit-0": "b8100e2ad7e72bb199fd7f3cf5471165795c56f74c3450375866ac4f2f7e6f80",
    "verify-B-nonsplit-3": "51a71239cbc9477693848d40d8a734f4f0c626966047cf702e0039363a961f39",
    "verify-A-bad-p-0": "754ca312ee17fbe14dee8f4bc4a84ef74c9463325f580dff019b7c0d485f9e0a",
    "verify-A-l-z4-0": "cdaf5d1cadb1c80f15df02d26b62a0a23483bf593cda3950528e40fa40b808b9",
    "verify-d4-nonsplit-0": "13e2235cf1cdcac942ba8b2bacad2b16093f9d69b11bc8188d7c13204ac8fa93",
    "verify-d3-large-0": "ea150eb8d28332b066e7a4879b0aa7361fe3e876f4e9437ed9677dbb7aedbf67",
    "jacobian-coeff-A": "a602e17e3a028be3502731a15cbe93a4aa3064273f9d1ccb83c6df30a8157242",
    "jacobian-coeff-B": "7c2c40911d3f43696382d6a9e268159b028ff9933cd3f33ad1d83d13f28fc9d1",
    "jacobian-eval-rational-A": "5f2a906fb4ab7aac5877d7755b5fcc3f0806e97827d54d55c87873890c99153c",
    "jacobian-eval-rational-B": "f6507342b4272663328fc9ecb14a8aad1c060e51bdc84ddec035c7d8031cd3df",
    "jacobian-eval-complex-A": "e03303e3295345e952b0c828e8346bfda35a410c077b7edc25f64bd78a8ff2c4",
    "jacobian-eval-complex-B": "d2cd4523736aebc40847543c26bf43bbb756865379391a8fcfab7060ad09c7fa",
    "through-5-A": "4f111e6f2ef68f87080a6085ae8923ff12226a1d793228cf6e86ae580ff42afa",
    "sample-5-2-A": "85e0215cba9e6d69642c45e1ce9e8f9d6dd37909073c8aad81de5985e60ba1d7",
    "through-5-B": "6a1544ebf1c8da4fe5b51dc11f0e2738bc7bd291f919bf5fabe147e5e30b1895",
    "through-5-d3": "bbd07bb89ad6530b1aa25eba529b665f0825af6941c89172d2a3b13721c2ee14",
    "sample-5-3-100-B": "5e5b49241b6ae0a91662665110e90ead14a5e7caa072fda64fc426593fef2068",
    "sample-5-3-100-d3": "9947af7f905abb3f86213f0e7dd003717c9152d2e1d65dbda98759b8988be1c0",
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory, fixture_a, fixture_b, fixture_b_nonsplit):
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for fix in (fixture_a, fixture_b, fixture_b_nonsplit):
        for kind, obj in (("fixture", fix.to_obj()), ("problem", fix.problem.to_obj()),
                          ("curve", fix.c0.to_obj())):
            path = root / f"{kind}-{fix.name}.json"
            path.write_text(json.dumps(obj))
            out[kind, fix.name] = str(path)
    # p = z0^3 (z0 + 2 z1) restricts to 1 + 2t, which vanishes at the l-root
    # -1/2; l = z4 vanishes identically on the curve.
    variants = {
        "A-bad-p": {"p": MultiPoly(5, {(4, 0, 0, 0, 0): 1, (3, 1, 0, 0, 0): 2})},
        "A-l-z4": {"l": MultiPoly.monomial((0, 0, 0, 0, 1))},
    }
    for name, polys in variants.items():
        obj = dict(fixture_a.to_obj(), name=name, **{k: v.to_obj() for k, v in polys.items()})
        path = root / f"fixture-{name}.json"
        path.write_text(json.dumps(obj))
        out["fixture", name] = str(path)
    data = Path(__file__).parent / "data"
    out["fixture", "d4-nonsplit"] = str(data / "fixture-d4-nonsplit.json")
    out["fixture", "d3-large"] = str(data / "fixture-d3-large.json")
    out["curve", "d3"] = str(data / "curve-d3.json")
    return out


def argv_for(case: str, paths) -> list[str]:
    kind, _, rest = case.partition("-")
    if kind == "verify":
        name, _, seed = rest.rpartition("-")
        return ["verify", paths["fixture", name], "--seed", seed]
    if kind == "jacobian":
        *form, name = rest.split("-")
        argv = ["jacobian", paths["problem", name], paths["curve", name]]
        if form == ["coeff"]:
            return argv + ["--form", "coeff"]
        points = {("rational", "A"): A_RATIONAL, ("complex", "A"): A_COMPLEX,
                  ("rational", "B"): B_RATIONAL, ("complex", "B"): B_COMPLEX}
        return argv + ["--form", "eval", f"--points={points[form[1], name]}"]
    if kind == "through":
        degree, name = rest.split("-")
        return ["through", paths["curve", name], "--degree", degree]
    degree, count, *seed, name = rest.split("-")
    argv = ["sample", paths["curve", name], "--degree", degree, "--count", count]
    return argv + ["--seed", seed[0]] if seed else argv


def stdout_sha256(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_bytes_pinned(case, paths):
    assert stdout_sha256(argv_for(case, paths)) == GOLDEN[case]
