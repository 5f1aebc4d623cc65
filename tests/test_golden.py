"""Pinned stdout bytes of every command on the shipped fixtures.

Each case runs one CLI command and compares the sha256 of its stdout with a
recorded value, so any change to the documented JSON output, however small,
fails here.
"""

import contextlib
import hashlib
import io
import json

import pytest

from curvejac import cli

A_RATIONAL = "-1/2,1,2,3,5,7"
A_COMPLEX = "0,1,-1,2,-2,0.5+0.5i"
B_RATIONAL = "-5,-4,-3,-2,-1,0,1,2,3,4,5"
B_COMPLEX = "-2,-1,-1/2,0,1/3,1/2,1,3/2,2,3,1+2i"

GOLDEN = {
    "verify-A-0": "e3590637a1fa001854e7f22ce02d94cc961fe7b6fc879426e1744b4dc22912bd",
    "verify-A-3": "18ee6a017f0b99442b8bdec887ce2a4949a2373b6447e4b5c24f9e777e525572",
    "verify-B-0": "b73055c8867cf7067b04b9ac310198ff059c8f3b45c5c85af14cc9e9599bcfbc",
    "verify-B-3": "2bcb11232431bc7a4d021e4d5eec5d482f28c1b6f59fe1a6cbe1735c3ae8bacf",
    "verify-B-nonsplit-0": "a15ee93c0e96590214ec1f9f08ca1db8c186037b1ccc007a62e62b381c668eee",
    "verify-B-nonsplit-3": "3e8c48a51068160f21eea2e29ae3060348bb08b4be8718efed0e8ec7b3f043be",
    "jacobian-coeff-A": "a602e17e3a028be3502731a15cbe93a4aa3064273f9d1ccb83c6df30a8157242",
    "jacobian-coeff-B": "7c2c40911d3f43696382d6a9e268159b028ff9933cd3f33ad1d83d13f28fc9d1",
    "jacobian-eval-rational-A": "5f2a906fb4ab7aac5877d7755b5fcc3f0806e97827d54d55c87873890c99153c",
    "jacobian-eval-rational-B": "f6507342b4272663328fc9ecb14a8aad1c060e51bdc84ddec035c7d8031cd3df",
    "jacobian-eval-complex-A": "e03303e3295345e952b0c828e8346bfda35a410c077b7edc25f64bd78a8ff2c4",
    "jacobian-eval-complex-B": "d2cd4523736aebc40847543c26bf43bbb756865379391a8fcfab7060ad09c7fa",
    "through-5-A": "4f111e6f2ef68f87080a6085ae8923ff12226a1d793228cf6e86ae580ff42afa",
    "sample-5-2-A": "85e0215cba9e6d69642c45e1ce9e8f9d6dd37909073c8aad81de5985e60ba1d7",
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
    degree, count, name = rest.split("-")
    return ["sample", paths["curve", name], "--degree", degree, "--count", count]


def stdout_sha256(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_bytes_pinned(case, paths):
    assert stdout_sha256(argv_for(case, paths)) == GOLDEN[case]
