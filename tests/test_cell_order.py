"""No answer depends on the order in which a document lists its cells, or
in which the dicts of a surface or a complex hold them.

The cell order is fixed by ``complexes.cell_key`` when a complex is built, so
a document whose lists are shuffled gives the same monodromy, the same
monodromy sheaf, the same export bytes and the same validation report as the
document itself.
"""

import random

import pytest

from test_complexes import grid_torus
from torusbase import serialize
from torusbase.affine import AffineSurface, SingularityMark, build_R_sheaf, validate_affine
from torusbase.catalog import flat_torus_surface
from torusbase.cli import main
from torusbase.complexes import CellComplex, cell_key
from torusbase.exact import eye, zeros
from torusbase.sheaves import SheafMap, ShortExactSequence, constant_sheaf


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


def _reversed(d):
    return dict(reversed(list(d.items())))


def test_affine_report_lists_charts_marks_and_chern_entries_in_cell_order():
    S = flat_torus_surface(1)
    faces = S.base.cells_of_dim(2)
    charts = {f: dict(ch) for f, ch in S.charts.items()}
    for f in (faces[1], faces[4]):
        del charts[f][next(iter(charts[f]))]
    edges = S.base.cells_of_dim(1)
    S = AffineSurface(S.base, charts, S.transitions)
    marked = AffineSurface(
        S.base,
        {},
        S.transitions,
        markings={e: SingularityMark("focus_focus", 1) for e in (edges[0], edges[5])},
        chern_cocycle={c: (0, 0) for c in (edges[2], edges[7])},
    )
    for surface, where in ((S, (faces[1], faces[4])), (marked, (edges[0], edges[5], edges[2], edges[7]))):
        report = validate_affine(surface).violations
        assert [sum(str(c) in v for v in report) for c in where] == [1] * len(where)
        flipped = AffineSurface(
            surface.base,
            _reversed(surface.charts),
            surface.transitions,
            markings=_reversed(surface.markings),
            chern_cocycle=_reversed(surface.chern_cocycle),
        )
        assert validate_affine(flipped).violations == report
        assert [next(c for c in where if str(c) in v) for v in report] == list(where)


def test_check_lists_chart_violations_in_cell_order(tmp_path, capsys):
    path = tmp_path / "ft.json"
    assert main(["catalog", "flat_torus:1", "--export", str(path)]) == 0
    capsys.readouterr()
    raw = serialize.loads(path.read_text()).raw
    for chart in (raw["affine"]["charts"][1], raw["affine"]["charts"][4]):
        del chart[1][0]
    path.write_text(serialize.dumps(raw))
    report = _check(path, capsys)
    assert report.count("misses vertices") == 2
    raw["affine"]["charts"].reverse()
    path.write_text(serialize.dumps(raw))
    assert _check(path, capsys) == report


def test_sheaf_map_and_sequence_reports_list_cells_in_cell_order():
    X = grid_torus(2, 2)
    flipped = CellComplex(_reversed(X.cells), X.incidence)
    reports = []
    for Y in (X, flipped):
        Z = constant_sheaf(Y, 1)
        cells = Y.cells_of_dim(0)
        bad = SheafMap(Z, Z, {c: eye(2) for c in (cells[0], cells[3])})
        zero = SheafMap(Z, Z, {c: zeros(1, 1) for c in Y.cells})
        ses = ShortExactSequence(SheafMap(Z, Z, {c: eye(1) for c in Y.cells}), zero)
        reports.append((bad.validate().violations, ses.validate().violations))
    assert reports[0] == reports[1]
    shapes, exact = reports[0]
    vertices = X.cells_of_dim(0)
    assert shapes == ["block at %s has the wrong shape" % (c,) for c in (vertices[0], vertices[3])]
    assert exact == ["sequence is not exact at %s" % (c,) for c in sorted(X.cells, key=cell_key)]
