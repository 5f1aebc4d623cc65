"""Type, shape and size fuzzing of the input documents, through the command line.

Each example starts from a valid curve, problem or fixture document of
fixture A and applies one to three mutations: a value swapped for one of
another type, a key dropped or added, or a list replaced by a scalar.  The
replacement values are fixed and small, so no mutation changes a size: the
commands stay as cheap as on fixture A.  Whatever the mutation, a command
ends with exit 0, 2, 3 or 4, and a run that writes no document ends with
one line on stderr.

The size limits are probed apart from that, each exactly at and one above
its bound (n, d, the form degree, the draw count and the digits of a
rational), through the cheapest command whose input reaches the check: at
the bound the command succeeds, above it it exits 2 with one line.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvejac import cli, fixtures
from curvejac.linalg import MAX_COUNT, MAX_D, MAX_DEGREE, MAX_N, MAX_RATIONAL_DIGITS

import oracles

FIXTURE_A = fixtures.fixture_a()
DOCUMENTS = {
    "curve": FIXTURE_A.c0.to_obj(),
    "problem": oracles.problem(FIXTURE_A).to_obj(),
    "fixture": FIXTURE_A.to_obj(),
}
# One small value per JSON type; a swap picks one whose type differs.
SWAPS = (1, "1", 0.5, True, None, [], {})
SCALARS = (1, "12", 0.5, True, None)
COMMANDS = (
    ("curve", ["through", "{doc}", "--degree", "2"]),
    ("curve", ["sample", "{doc}", "--degree", "2", "--count", "1"]),
    ("curve", ["jacobian", "{problem}", "{doc}"]),
    ("problem", ["jacobian", "{doc}", "{curve}"]),
    ("fixture", ["verify", "{doc}"]),
)


def nodes(doc, path=()):
    """Every (path, value) of the document, the root included."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from nodes(value, path + (i,))


def replaced(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def mutate(data, doc):
    path, node = data.draw(st.sampled_from(list(nodes(doc))))
    ops = ["swap"]
    if isinstance(node, dict):
        ops += ["drop", "add"] if node else ["add"]
    if isinstance(node, list):
        ops.append("scalar")
    op = data.draw(st.sampled_from(ops))
    if op == "swap":
        value = data.draw(st.sampled_from([v for v in SWAPS if type(v) is not type(node)]))
        return replaced(doc, path, copy.deepcopy(value))
    if op == "scalar":
        return replaced(doc, path, data.draw(st.sampled_from(SCALARS)))
    if op == "drop":
        del node[data.draw(st.sampled_from(sorted(node)))]
    else:
        node["extra"] = 1
    return doc


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_mutated_documents_end_in_an_exit_code_and_one_line():
    with tempfile.TemporaryDirectory() as root:
        valid = {}
        for kind, doc in DOCUMENTS.items():
            valid[kind] = Path(root) / f"{kind}.json"
            valid[kind].write_text(json.dumps(doc))
        mutated_path = Path(root) / "mutated.json"

        @settings(derandomize=True, max_examples=150, deadline=None, database=None)
        @given(st.data())
        def check(data):
            kind, template = data.draw(st.sampled_from(COMMANDS))
            doc = copy.deepcopy(DOCUMENTS[kind])
            for _ in range(data.draw(st.integers(1, 3))):
                doc = mutate(data, doc)
            mutated_path.write_text(json.dumps(doc))
            paths = {"doc": mutated_path, "problem": valid["problem"], "curve": valid["curve"]}
            argv = [arg.format(**paths) for arg in template]
            rc, out, err = run_cli(argv)
            assert rc in (0, 2, 3, 4), (argv, doc, err)
            if not out:
                assert rc != 0 and len(err.splitlines()) == 1, (argv, doc, err)

        check()


def curve_doc(n=1, d=1, coeff="1"):
    """The curve (t**d, coeff, 0, ..., 0) in P^n: base-point free and of
    exact degree d, so `sample` accepts it when n >= 2."""
    comps = [["0"] * d + ["1"], [coeff]] + [["0"]] * (n - 1)
    return {"n": n, "d": d, "components": [{"coeffs": c} for c in comps]}


def through(degree=1):
    return ["through", "{doc}", "--degree", str(degree)]


# (document, command) at a size limit, and the same one step above it.  On
# the line in P^2, z2 spans the linear forms through the curve, so each of
# sample's draws is a 2 x 6 Jacobian.
DIGITS = MAX_RATIONAL_DIGITS
LIMITS = {
    "n": ((curve_doc(n=MAX_N), through()), (curve_doc(n=MAX_N + 1), through())),
    "d": ((curve_doc(d=MAX_D), through()), (curve_doc(d=MAX_D + 1), through())),
    "degree": ((curve_doc(), through(MAX_DEGREE)), (curve_doc(), through(MAX_DEGREE + 1))),
    "count": tuple((curve_doc(n=2), ["sample", "{doc}", "--degree", "1", "--count", str(count)])
                   for count in (MAX_COUNT, MAX_COUNT + 1)),
    "numerator-digits": tuple((curve_doc(coeff="-" + "9" * k), through())
                              for k in (DIGITS, DIGITS + 1)),
    "denominator-digits": tuple((curve_doc(coeff="1/" + "7" * k), through())
                                for k in (DIGITS, DIGITS + 1)),
    "json-integer-digits": tuple((curve_doc(coeff=k), through())
                                 for k in (10**DIGITS - 1, 10**DIGITS)),
    "complex-point-digits": tuple(
        (oracles.problem(FIXTURE_A).to_obj(),
         ["jacobian", "{doc}", "{curve}", "--form", "eval",
          "--points=0,1,2,3,4,1." + "0" * (k - 2) + "+1i"])
        for k in (DIGITS, DIGITS + 1)),
}


@pytest.mark.parametrize("limit", sorted(LIMITS))
def test_sizes_at_the_limit_pass_and_above_it_exit_2(limit, tmp_path):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(DOCUMENTS["curve"]))
    for (doc, template), above in zip(LIMITS[limit], (False, True)):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [arg.format(doc=path, curve=curve) for arg in template]
        rc, out, err = run_cli(argv)
        if above:
            assert rc == 2 and out == "", (limit, err)
            assert len(err.splitlines()) == 1 and err.startswith("input error:"), err
            assert "at most" in err, err
        else:
            assert rc == 0 and json.loads(out), (limit, err)
