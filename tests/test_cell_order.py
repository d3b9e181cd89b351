"""No answer depends on the order in which a document lists its cells.

The cell order is fixed by ``complexes.cell_key`` when a complex is built, so
a document whose lists are shuffled gives the same monodromy, the same
monodromy sheaf, the same export bytes and the same validation report as the
document itself.
"""

import random

import pytest

from torusbase import serialize
from torusbase.affine import build_R_sheaf
from torusbase.cli import main
from torusbase.complexes import CellComplex, cell_key


@pytest.fixture(scope="module")
def sphere_export(tmp_path_factory):
    path = tmp_path_factory.mktemp("order") / "sphere.json"
    assert main(["catalog", "sphere_24ff", "--export", str(path)]) == 0
    return path.read_text()


def _monodromy(path, capsys):
    assert main(["monodromy", str(path)]) == 0
    return capsys.readouterr().out


def _check(path, capsys):
    assert main(["check", str(path)]) == 1
    return capsys.readouterr().out


def _restrictions(doc):
    R = build_R_sheaf(doc.affine)
    return sorted((str(k), M.tolist()) for k, M in R.restrictions.items())


def _export(doc):
    raw = serialize.encode_document(complex=doc.complex, affine=doc.affine)
    return serialize.dumps(raw)


@pytest.mark.parametrize("seed", range(5))
def test_shuffled_incidence_gives_the_same_answers(sphere_export, seed, tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text(sphere_export)
    raw = serialize.loads(sphere_export).raw
    random.Random(seed).shuffle(raw["complex"]["incidence"])
    moved = tmp_path / "shuffled.json"
    moved.write_text(serialize.dumps(raw))
    assert _monodromy(moved, capsys) == _monodromy(base, capsys)
    doc, shuffled = serialize.loads(sphere_export), serialize.loads(moved.read_text())
    assert _restrictions(shuffled) == _restrictions(doc)
    assert _export(shuffled) == _export(doc) == sphere_export
    # a report lists its violations in cell order, not the document's order
    broken = serialize.loads(sphere_export).raw
    incidence = broken["complex"]["incidence"]
    incidence[0][2], incidence[-1][2] = "2", "-3"
    base.write_text(serialize.dumps(broken))
    random.Random(seed).shuffle(incidence)
    moved.write_text(serialize.dumps(broken))
    assert _check(moved, capsys) == _check(base, capsys)


def test_ids_with_the_same_str_have_one_order():
    forward = CellComplex({1: 0, "1": 0}, {})
    backward = CellComplex({"1": 0, 1: 0}, {})
    assert forward.cells_of_dim(0) == backward.cells_of_dim(0) == [1, "1"]
    assert sorted(["(1,)", (1,)], key=cell_key) == sorted([(1,), "(1,)"], key=cell_key)


def test_face_lists_follow_the_cell_order():
    X = CellComplex(
        {"a": 0, "b": 0, "e": 1},
        {("e", "b"): 1, ("e", "a"): -1},
    )
    assert X.faces_of("e") == [("a", -1), ("b", 1)]
    # a cell the incidence names but the cells lack still gets a place
    Y = CellComplex({"a": 0, "e": 1}, {("e", "z"): 1, ("e", "a"): -1})
    assert Y.faces_of("e") == [("a", -1), ("z", 1)]


@pytest.fixture(scope="module")
def sphere_sheaf_document(sphere_export):
    """The sphere_24ff complex and its monodromy sheaf R, with two
    restrictions of the wrong shape."""
    doc = serialize.loads(sphere_export)
    raw = serialize.encode_document(complex=doc.complex, sheaf=build_R_sheaf(doc.affine))
    restrictions = raw["sheaf"]["restrictions"]
    restrictions[3][2] = [["1"]]
    restrictions[-5][2] = [["1", "0", "0"], ["0", "1", "0"]]
    return serialize.dumps(raw)


@pytest.mark.parametrize("seed", range(5))
def test_shuffled_restrictions_give_the_same_sheaf_report(sphere_sheaf_document, seed, tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text(sphere_sheaf_document)
    raw = serialize.loads(sphere_sheaf_document).raw
    rng = random.Random(seed)
    rng.shuffle(raw["sheaf"]["restrictions"])
    rng.shuffle(raw["complex"]["cells"])
    moved = tmp_path / "shuffled.json"
    moved.write_text(serialize.dumps(raw))
    report = _check(base, capsys)
    assert report.count("sheaf: restriction") == 2
    assert _check(moved, capsys) == report
