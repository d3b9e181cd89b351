"""The CLI's exit-code contract on mutated documents.

Each verb, run on a mutated export of a light catalog entry, exits 0, 1 or 2
with no traceback and at most one line on stderr.  A mutation deletes a list
item or a key, retypes a value, truncates the JSON text, or swaps one cell
of an incidence entry for another cell of the complex.
"""

import contextlib
import copy
import functools
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbase.cli import main

LIGHT = [
    "cp2_triangle",
    "ff_disk:1",
    "flat_torus:1",
    "klein_affine",
    "kodaira_thurston",
    "rp2_12ff",
    "sphere_24ff",
    "torus_morse_graph",
    "twisted_product_base",
]
VERBS = [
    ["check"],
    ["cohomology", "--sheaf", "document", "--degree", "1"],
    ["cohomology", "--sheaf", "R", "--degree", "2"],
    ["cohomology", "--sheaf", "Z", "--degree", "1"],
    ["monodromy"],
    ["delzant"],
    ["moduli"],
    ["glue"],
]
MUTATIONS = ["delete", "retype", "truncate", "swap"]
RETYPED = [None, 0, -1, 2, "x", "1/0", [], {}, [[]]]


def run(argv):
    """main(argv) with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@functools.lru_cache(maxsize=None)
def export(name, directory):
    """The parsed export of a catalog entry and every path into it."""
    path = "%s/%s.json" % (directory, name.replace(":", "_"))
    assert run(["catalog", name, "--export", path])[0] == 0
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    paths = []
    stack = [((), raw)]
    while stack:
        path, node = stack.pop()
        paths.append(path)
        if isinstance(node, (dict, list)):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            stack.extend((path + (k,), v) for k, v in items)
    return raw, paths[1:]


def mutate(raw, paths, kind, i, j):
    """The JSON text of raw under one mutation, chosen by the integers i and j."""
    raw = copy.deepcopy(raw)
    if kind == "truncate":
        text = json.dumps(raw)
        return text[: i % len(text)]
    if kind == "swap":
        cells = raw["complex"]["cells"]
        entry = raw["complex"]["incidence"][i % len(raw["complex"]["incidence"])]
        entry[j % 2] = cells[(j // 2) % len(cells)][0]
        return json.dumps(raw)
    path = paths[i % len(paths)]
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = RETYPED[j % len(RETYPED)]
    return json.dumps(raw)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(
    name=st.sampled_from(LIGHT),
    verb=st.sampled_from(VERBS),
    kind=st.sampled_from(MUTATIONS),
    i=st.integers(min_value=0, max_value=10**6),
    j=st.integers(min_value=0, max_value=10**3),
)
def test_every_verb_keeps_the_exit_code_contract(workdir, name, verb, kind, i, j):
    raw, paths = export(name, workdir)
    path = "%s/mutated.json" % workdir
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mutate(raw, paths, kind, i, j))
    argv = verb[:1] + [path] + ([path] if verb == ["glue"] else verb[1:])
    code, _, err = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1, err
