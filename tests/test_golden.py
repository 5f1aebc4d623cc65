"""Pinned stdout and stderr bytes of every command on the shipped fixtures.

Each case runs one CLI command and compares the sha256 of its stdout and of
its stderr with recorded values, so any change to the documented JSON output
or to the human-readable `verify` table, however small, fails here.  Three
`verify` cases pin the paths the shipped fixtures never take: the
all-generic fallback (A with p vanishing at the l-root), the run that uses
up every point attempt (A with l = z4), and a curve of degree 4 whose
l-roots are complex.  A fourth pins a split rational fixture of degree
3 with a large-height q (`data/fixture-d3-large.json`), so check 5 reports
three l-roots.  A fifth pins the same family at degree 7
(`data/fixture-d7-large.json`, what `bench/gen.py`'s
`generated("d7-large", 7, 100, "large", L_SPLIT)` writes): its hash was
recorded from the all-Bareiss ranks, which take about 52 s there, and the
certified modular ranks reproduce it in under a second.  `through` and
`sample` are also pinned on B and on the generated degree-3 curve
`data/curve-d3.json`, the slowest inputs of both commands, and on the
degree-2 curve `data/curve-d2x30.json`, whose coefficients are negative
and positive, among them fractions with 30-digit numerators and
denominators, so that restriction and kernel run on large integers.  Those
two `through` hashes were recorded from the `Fraction` products and
back-substitution that the integer ones replaced.  The two `sample` hashes
on those curves were re-pinned when members became integer combinations of
the primitive basis vectors: their bases have denominators above 1, so only
each record's `poly_hash` moved, and every rank, `tangent_dim` and
`full_rank` stayed.  On A, B and the conic every basis vector has
denominator 1, so the member, and with it the hash, is what the lead-1
combination gave.  `sample` on the conic (1, t, t^2) in the plane
(`data/curve-conic.json`) pins draws whose rank, 5, is below both e*d+1 =
11 and min(rows, cols) = 9, so no prime meets min(rows, cols); the curve's
four symmetry witnesses lower the bound to 9 - 4, which a prime meets.
That bound is its `expected_rank`, min(e*d+1, (n+1)(d+1) - s) with s = 4
the rank of the witnesses, so every draw reads `full_rank` true.  The
ranks were recorded from the Bareiss fallback and from dense `Fraction`
kernel vectors and members; the hash was re-pinned when `expected_rank`
went 11 -> 5 and the summary 0/3 -> 3/3.  The two `fixture`
cases pin the bundles of A and B, whose `c0` block is what
`CurveParam.to_obj` writes; they were recorded while curve components were
still `Fraction` polynomials.
"""

import ast
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from curvejac import cli
from curvejac.poly import MultiPoly

import oracles

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
    "verify-d7-large-0": "db872624c712de59f1da7701e00c5db7e4a4dcd3f2850d1ab4036387f511202b",
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
    "sample-5-3-100-d3": "b3df1804efb3f41b0792da0bfab7f6fefb78d1070f024a3ccdf4ae5f3044f75f",
    "through-5-d2x30": "50893038d04bbcb463e95ef9ef8ae8d6249ae56d800b3a1528af0581be187b53",
    "sample-5-3-100-d2x30": "5a80f5051b9926dd7d0a451719aa6150d28d75b9fb09ad2562cd9a1d847d0b46",
    "sample-5-3-1-conic": "93cff6b54899cf18eb3867dfd01bef61ae54014c76db30982fcd4e6db39c3c39",
    "fixture-A": "006e538f54ab144b12d1d7a60e0b73fe39e3031be8d18420efb0fe8c588aa433",
    "fixture-B": "6c500a4dbb2695a2a65aac04f2d42ccb8a117e3c410802d8ddb69224534310c8",
}


# The sha256 of each case's stderr: the verify table, sample's summary line,
# and nothing for the other commands.
EMPTY = hashlib.sha256(b"").hexdigest()

GOLDEN_STDERR = {
    "fixture-A": EMPTY,
    "fixture-B": EMPTY,
    "jacobian-coeff-A": EMPTY,
    "jacobian-coeff-B": EMPTY,
    "jacobian-eval-complex-A": EMPTY,
    "jacobian-eval-complex-B": EMPTY,
    "jacobian-eval-rational-A": EMPTY,
    "jacobian-eval-rational-B": EMPTY,
    "sample-5-2-A": "45435079a55e93ad5b5eec5f7503f1d04d10b9d553e4a6fe497b84647a7b3398",
    "sample-5-3-1-conic": "3ed0b515ff36bc4fb20ce8c91447b170709fd3f589e9019517b795756bac0c47",
    "sample-5-3-100-B": "3ed0b515ff36bc4fb20ce8c91447b170709fd3f589e9019517b795756bac0c47",
    "sample-5-3-100-d2x30": "3ed0b515ff36bc4fb20ce8c91447b170709fd3f589e9019517b795756bac0c47",
    "sample-5-3-100-d3": "3ed0b515ff36bc4fb20ce8c91447b170709fd3f589e9019517b795756bac0c47",
    "through-5-A": EMPTY,
    "through-5-B": EMPTY,
    "through-5-d2x30": EMPTY,
    "through-5-d3": EMPTY,
    "verify-A-0": "a9ef6572c803fd1d4ad726b80a0c4849a8f34b7a6b584e3f54a76c636a533990",
    "verify-A-3": "2ea7487455e08841a1ceb95ff5b4fb483e629daf5191a8132b7ce068abedddb2",
    "verify-A-bad-p-0": "c37df691c28312b1cebf18104778e68e7fae15be14ccb12eafad4741b4036b69",
    "verify-A-l-z4-0": "282dfa125bec2b89fa2d7c0370bca5e9b6941d895d750c7c7a863485bb5e19e6",
    "verify-B-0": "43d26f1dc367fd8064bb85df5a64e033f9262a854a56642353f62919d270ebe5",
    "verify-B-3": "2f5712b8889f4d4e299e470aeba1fa91decdb5200950b24bedbb4d7158c7c7e6",
    "verify-B-nonsplit-0": "a2594415cdd3e38c0eb6c75aab6d2f41087303362151340f45d80d31f7c562b1",
    "verify-B-nonsplit-3": "1fd047a4890cb8837d6ff27f69b9727f1e9ebb1256d69add471d9bf917129a8f",
    "verify-d3-large-0": "1d64dcf4139dae1ad359114eaf70ee683270affc934521acd2c1353c45282c34",
    "verify-d4-nonsplit-0": "2c31e98067cf476a481fe6f320454a76cfbd269e4482e58e20427cee3a7b4ebd",
    "verify-d7-large-0": "212ce1c556e8cbc4e44f25dd3c10280b7b3e68fa35072b47577ebdd7243270db",
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory, fixture_a, fixture_b, fixture_b_nonsplit):
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for fix in (fixture_a, fixture_b, fixture_b_nonsplit):
        for kind, obj in (("fixture", fix.to_obj()), ("problem", oracles.problem(fix).to_obj()),
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
    out["fixture", "d7-large"] = str(data / "fixture-d7-large.json")
    out["curve", "d3"] = str(data / "curve-d3.json")
    out["curve", "d2x30"] = str(data / "curve-d2x30.json")
    out["curve", "conic"] = str(data / "curve-conic.json")
    return out


def argv_for(case: str, paths) -> list[str]:
    kind, _, rest = case.partition("-")
    if kind == "fixture":
        return ["fixture", rest]
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


def output_sha256(argv) -> tuple[str, str]:
    """The sha256 of the command's stdout and of its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cli.main(argv)
    return tuple(hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_bytes_pinned(case, paths):
    stdout, stderr = output_sha256(argv_for(case, paths))
    assert stdout == GOLDEN[case]
    assert stderr == GOLDEN_STDERR[case]


# Each function or method of src/curvejac that no golden case calls, with why
# it stays.
UNCALLED = {
    "IncidenceProblem.to_obj": "writes a problem document; tests and the README write them",
    "MultiPoly.__eq__": "form equality, for tests and library callers; no command compares forms",
    "Record.__eq__": "value equality of records, for tests and library callers",
    "Record.__hash__": "curves, matrices and kernel bases hash; tests hash parsed curves",
    "Record.__reduce__": "copies and pickles of records; tests use it, no command copies one",
    "Record.__repr__": "shows a record's fields in assertion messages and at the prompt",
    "Record.__setattr__": "refuses assignment and deletion: records are immutable",
    "Record._values": "the fields that __eq__ and __hash__ read",
    "linalg._singular_values": "the values rank_numeric counts; tests compare them with numpy's",
    "poly._gcd_degree": "coprime's fallback, Euclid over Q, when no prime of _PRIMES serves",
}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> name of each function and method that
    src/curvejac writes out, nested ones included: module.function,
    Class.method and outer.inner.  The first line is the first decorator's,
    as in the code object's co_firstlineno."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, child.name)
            elif isinstance(child, ast.FunctionDef):
                name = f"{prefix}.{child.name}"
                found[path, min(x.lineno for x in [child, *child.decorator_list])] = name
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem)
    return found


def test_every_function_is_called(paths):
    # a line-free trace: the profiler sees each call of a Python function,
    # and a function that no command calls is either pinned above or dead
    argvs = [argv_for(case, paths) for case in sorted(GOLDEN)]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in argvs:
            output_sha256(argv)
    finally:
        sys.setprofile(None)
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in called}
    functions = defined_functions()
    assert len(functions) > 100
    assert sorted(name for key, name in functions.items() if key not in reached) == sorted(UNCALLED)
