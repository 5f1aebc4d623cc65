"""Type and shape fuzzing of the input documents, through the command line.

Each example starts from a valid curve, problem or fixture document of
fixture A and applies one to three mutations: a value swapped for one of
another type, a key dropped or added, or a list replaced by a scalar.  The
replacement values are fixed and small, so no mutation changes a size: the
commands stay as cheap as on fixture A.  Whatever the mutation, a command
ends with exit 0, 2, 3 or 4, and a run that writes no document ends with
one line on stderr.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from curvejac import cli, fixtures

FIXTURE_A = fixtures.fixture_a()
DOCUMENTS = {
    "curve": FIXTURE_A.c0.to_obj(),
    "problem": FIXTURE_A.problem.to_obj(),
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
