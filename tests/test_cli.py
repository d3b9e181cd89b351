import json

import pytest

from torusbase.cli import main
from torusbase import serialize
from torusbase.catalog import build, flat_torus_surface


@pytest.fixture()
def torus_file(tmp_path):
    path = tmp_path / "torus.json"
    assert main(["catalog", "flat_torus", "--export", str(path)]) == 0
    return str(path)


def test_check_catalog_export(torus_file):
    assert main(["check", torus_file]) == 0


def test_check_broken_incidence(tmp_path, capsys):
    doc = serialize.load_path if False else None
    S = flat_torus_surface()
    raw = serialize.encode_document(complex=S.base, affine=S)
    # flip one incidence sign
    for item in raw["complex"]["incidence"]:
        if item[2] == "1":
            item[2] = "-1"
            break
    path = tmp_path / "broken.json"
    path.write_text(serialize.dumps(raw))
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "violation" in out or "dd != 0" in out or "head" in out


def test_parse_error_is_usage(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err and "column" in err


def test_irrational_translation_rejected(tmp_path, capsys):
    S = flat_torus_surface()
    raw = serialize.encode_document(complex=S.base, affine=S)
    raw["affine"]["transitions"][0][4][0] = "sqrt2"
    path = tmp_path / "irr.json"
    path.write_text(serialize.dumps(raw))
    code = main(["check", str(path)])
    assert code == 2
    assert "rational" in capsys.readouterr().err


def test_cohomology_verbs(torus_file, capsys):
    assert main(["cohomology", torus_file, "--sheaf", "R", "--degree", "2"]) == 0
    assert "Z^2" in capsys.readouterr().out
    assert main(["cohomology", torus_file, "--sheaf", "Z", "--degree", "5"]) == 0
    assert "H^5 = 0" in capsys.readouterr().out


def test_cohomology_klein_constant(tmp_path, capsys):
    path = tmp_path / "klein.json"
    assert main(["catalog", "klein_affine", "--export", str(path)]) == 0
    capsys.readouterr()
    assert main(["cohomology", str(path), "--sheaf", "Z", "--degree", "2"]) == 0
    assert "Z/2" in capsys.readouterr().out


def test_json_flag_matches_human(torus_file, capsys):
    assert main(["cohomology", torus_file, "--sheaf", "R", "--degree", "2"]) == 0
    human = capsys.readouterr().out
    assert main(["--json", "cohomology", torus_file, "--sheaf", "R", "--degree", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["group"] in human


def test_moduli_verb(torus_file, capsys):
    assert main(["moduli", torus_file]) == 0
    out = capsys.readouterr().out
    assert "dim 1" in out and "R/Z" in out


def test_moduli_verb_on_a_contractible_base(tmp_path, capsys):
    path = tmp_path / "cp2.json"
    assert main(["catalog", "cp2_triangle", "--export", str(path)]) == 0
    capsys.readouterr()
    assert main(["moduli", str(path)]) == 0
    assert capsys.readouterr().out == "(dim 0, lattice rank 0) ≅ 0\n"
    assert main(["--json", "moduli", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"dimension": 0, "lattice_rank": 0, "moduli": "0"}


def test_cohomology_generators_as_text_and_json(torus_file, capsys):
    from torusbase.affine import build_R_sheaf
    from torusbase.sheaves import class_from_components, class_reduce

    args = ["cohomology", torus_file, "--sheaf", "R", "--degree", "1", "--generators"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(["--json"] + args) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["degree"] == 1 and data["group"] == "Z^4" and lines[0] == "H^1 = Z^4"
    assert lines[1:] == ["generator: %s" % g for g in data["generators"]]
    # the generators are the canonical ones: cocycles whose classes are the unit coordinates
    with open(torus_file) as fh:
        R = build_R_sheaf(serialize.loads(fh.read()).affine)
    by_str = {str(c): c for c in R.cochain_cells(1)}
    for i, comps in enumerate(data["generators"]):
        assert comps and all(any(v != "0" for v in vals) for vals in comps.values())
        cls = class_from_components(R, 1, {by_str[c]: [int(v) for v in vals] for c, vals in comps.items()})
        assert R.is_cocycle(1, cls.cocycle)
        assert tuple(class_reduce(cls)) == tuple(int(j == i) for j in range(4))


def test_monodromy_verb(tmp_path, capsys):
    path = tmp_path / "ff.json"
    assert main(["catalog", "ff_disk", "--export", str(path)]) == 0
    capsys.readouterr()
    assert main(["monodromy", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[[1,1],[0,1]]" in out


def test_delzant_verb(tmp_path, capsys):
    path = tmp_path / "cp2.json"
    assert main(["catalog", "cp2_triangle", "--export", str(path)]) == 0
    capsys.readouterr()
    assert main(["delzant", str(path)]) == 0
    assert "pass" in capsys.readouterr().out
    # constructed failure: stretched triangle with a det-2 corner
    raw = {
        "format": "torusbase/1",
        "polytope": {
            "dimension": 2,
            "halfspaces": [[["-1", "0"], "0"], [["0", "-1"], "0"], [["1", "2"], "2"]],
        },
    }
    bad = tmp_path / "bad_poly.json"
    bad.write_text(serialize.dumps(raw))
    assert main(["delzant", str(bad)]) == 1
    assert "fail at vertex" in capsys.readouterr().out


def test_catalog_verify_verb(capsys):
    assert main(["catalog", "klein_affine", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "all pass" in out


def test_catalog_fake_base_space(capsys):
    assert main(["catalog", "fake_base_space", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "non-realizable" in out
    assert "Z/2" in out


def test_catalog_unknown(capsys):
    assert main(["catalog", "nosuch"]) == 2
    assert "flat_torus" in capsys.readouterr().err


def test_glue_verb(tmp_path, capsys):
    from torusbase.complexes import complex_from_polygons
    from torusbase.sheaves import constant_sheaf

    X1 = complex_from_polygons({"f1": ["a", "b", "c"]})
    X2 = complex_from_polygons({"f2": ["a", "c", "d"]})
    p1 = tmp_path / "t1.json"
    p2 = tmp_path / "t2.json"
    p1.write_text(serialize.dumps(serialize.encode_document(complex=X1, sheaf=constant_sheaf(X1, 1))))
    p2.write_text(serialize.dumps(serialize.encode_document(complex=X2, sheaf=constant_sheaf(X2, 1))))
    assert main(["glue", str(p1), str(p2)]) == 0
    out = capsys.readouterr().out
    assert "chi = 1" in out


def test_roundtrip_serialization(torus_file):
    doc = serialize.load_path(torus_file)
    raw2 = serialize.encode_document(complex=doc.complex, affine=doc.affine)
    text2 = serialize.dumps(raw2)
    doc2 = serialize.loads(text2)
    raw3 = serialize.encode_document(complex=doc2.complex, affine=doc2.affine)
    assert serialize.dumps(raw3) == text2
    from torusbase.affine import build_R_sheaf
    from torusbase.sheaves import cohomology

    assert str(cohomology(build_R_sheaf(doc2.affine), 2).group) == "Z^2"


def test_every_catalog_entry_exports_and_checks(tmp_path):
    from torusbase.catalog import catalog_names

    for name in catalog_names():
        path = tmp_path / (name + ".json")
        assert main(["catalog", name, "--export", str(path)]) == 0
        assert main(["check", str(path)]) == 0, name


def test_sphere_roundtrip_preserves_invariants(tmp_path):
    path = tmp_path / "s24.json"
    assert main(["catalog", "sphere_24ff", "--export", str(path)]) == 0
    doc = serialize.load_path(str(path))
    from torusbase.affine import validate_affine
    from torusbase.complexes import classify_surface

    assert validate_affine(doc.affine).valid
    assert doc.affine.focus_focus_count() == 24
    assert classify_surface(doc.complex, 24).kind == "sphere"


def assert_one_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "Traceback" not in err


def test_catalog_parameter_not_an_integer(capsys):
    assert main(["catalog", "flat_torus:abc"]) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert main(["catalog", "ff_disk:x", "--verify"]) == 2
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("name", ["flat_torus:", "ff_disk:"])
def test_catalog_parameter_empty(capsys, name):
    assert main(["catalog", name]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "is not an integer" in err


@pytest.mark.parametrize("name", ["sphere_24ff:2", "rp2_12ff:x", "kodaira_thurston:5"])
def test_catalog_parameter_on_an_entry_that_takes_none(capsys, name):
    assert main(["catalog", name]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "takes no parameter" in err


def test_chern_entry_on_a_non_face_is_a_violation(tmp_path, capsys):
    S = flat_torus_surface(1)
    edge = S.base.cells_of_dim(1)[0]
    S.chern_cocycle = {edge: (1, 0)}
    path = tmp_path / "chern_on_edge.json"
    path.write_text(serialize.dumps(serialize.encode_document(complex=S.base, affine=S)))
    assert main(["check", str(path)]) == 1
    assert "chern entry on non-face %s" % (edge,) in capsys.readouterr().out


@pytest.mark.parametrize("sheaf", ["Z^x", "Z^-1", "Z^", "Zx"])
def test_bad_constant_sheaf_rank(torus_file, capsys, sheaf):
    capsys.readouterr()
    assert main(["cohomology", torus_file, "--sheaf", sheaf, "--degree", "1"]) == 2
    assert_one_error_line(capsys.readouterr().err)


def test_constant_sheaf_rank_parses(torus_file, capsys):
    assert main(["cohomology", torus_file, "--sheaf", "Z^2", "--degree", "2"]) == 0
    assert "H^2 = Z^2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "raw",
    [
        {"format": "torusbase/1", "complex": {}},
        {"format": "torusbase/1", "complex": []},
        {"format": "torusbase/1", "complex": {"cells": 5, "incidence": []}},
        {"format": "torusbase/1", "complex": {"cells": [["a", "x"]], "incidence": []}},
        {"format": "torusbase/1", "polytope": {"dimension": 2}},
        {"format": "torusbase/1", "polytope": "square"},
    ],
)
def test_malformed_document_is_usage(tmp_path, capsys, raw):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(serialize.DocumentError):
        serialize.load_path(str(path))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "malformed" in err


def test_malformed_sheaf_and_affine_sections(tmp_path, capsys):
    S = flat_torus_surface()
    good = serialize.encode_document(complex=S.base, affine=S)
    for section, broken in (("affine", {"charts": []}), ("sheaf", {"ring": "Z", "stalks": 3})):
        raw = dict(good)
        raw[section] = broken
        path = tmp_path / ("bad_%s.json" % section)
        path.write_text(serialize.dumps(raw))
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "malformed %s section" % section in err


def test_wrongly_shaped_restriction_is_a_sheaf_error(tmp_path, capsys):
    from torusbase.complexes import complex_from_polygons
    from torusbase.sheaves import constant_sheaf

    X = complex_from_polygons({"f": ["a", "b", "c"]})
    raw = serialize.encode_document(complex=X, sheaf=constant_sheaf(X, 1))
    raw["sheaf"]["restrictions"][0][2] = [["1", "0"]]
    path = tmp_path / "shape.json"
    path.write_text(serialize.dumps(raw))
    assert main(["cohomology", str(path), "--degree", "1"]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "shape" in err


@pytest.mark.parametrize(
    "error",
    ["torusbase.sheaves.SheafError", "torusbase.complexes.ComplexError", "torusbase.surgery.SurgeryError"],
)
def test_library_errors_exit_one(torus_file, capsys, monkeypatch, error):
    import importlib

    module, _, name = error.rpartition(".")
    cls = getattr(importlib.import_module(module), name)

    def fail(*args, **kwargs):
        raise cls("broken on purpose")

    monkeypatch.setattr("torusbase.cli.cohomology", fail)
    capsys.readouterr()
    assert main(["cohomology", torus_file, "--sheaf", "Z", "--degree", "1"]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "broken on purpose" in err


@pytest.mark.parametrize(
    "raw",
    [
        {"complex": {"cells": [], "incidence": []}},
        {"format": "torusbase/2", "complex": {"cells": [], "incidence": []}},
        {"format": None},
        {"format": 1},
    ],
)
def test_missing_or_unknown_format_is_usage(tmp_path, capsys, raw):
    path = tmp_path / "format.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(serialize.DocumentError):
        serialize.loads(path.read_text())
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "torusbase/1" in err


def test_export_carries_the_format(torus_file):
    with open(torus_file, encoding="utf-8") as fh:
        assert json.load(fh)["format"] == "torusbase/1"


def _non_unimodular_torus(tmp_path):
    """flat_torus exported with one transition's linear part set to diag(2, 1)."""
    raw = serialize.encode_document(complex=flat_torus_surface().base, affine=flat_torus_surface())
    raw["affine"]["transitions"][0][3] = [["2", "0"], ["0", "1"]]
    path = tmp_path / "non_unimodular.json"
    path.write_text(serialize.dumps(raw))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [["moduli"], ["cohomology", "--sheaf", "R", "--degree", "1"], ["monodromy"]],
)
def test_invalid_affine_structure_exits_one(tmp_path, capsys, argv):
    path = _non_unimodular_torus(tmp_path)
    assert main(argv[:1] + [path] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "not unimodular" in err


@pytest.mark.parametrize(
    "error, code",
    [
        ("torusbase.errors.TorusbaseError", 1),
        ("torusbase.affine.AffineError", 1),
        ("torusbase.catalog.CatalogError", 1),
        ("torusbase.polytopes.PolytopeError", 1),
        ("torusbase.complexes.NotASurfaceError", 1),
        ("torusbase.serialize.DocumentError", 2),
    ],
)
def test_any_library_error_is_one_line(torus_file, capsys, monkeypatch, error, code):
    import importlib

    from torusbase.errors import TorusbaseError

    module, _, name = error.rpartition(".")
    cls = getattr(importlib.import_module(module), name)
    assert issubclass(cls, TorusbaseError) and issubclass(cls, ValueError)

    def fail(*args, **kwargs):
        raise cls("broken on purpose")

    monkeypatch.setattr("torusbase.cli.cohomology", fail)
    capsys.readouterr()
    assert main(["cohomology", torus_file, "--sheaf", "Z", "--degree", "1"]) == code
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "broken on purpose" in err


def test_glue_missing_second_file_is_usage(tmp_path, capsys):
    from torusbase.complexes import complex_from_polygons
    from torusbase.sheaves import constant_sheaf

    X = complex_from_polygons({"f": ["a", "b", "c"]})
    path = tmp_path / "t.json"
    path.write_text(serialize.dumps(serialize.encode_document(complex=X, sheaf=constant_sheaf(X, 1))))
    assert main(["glue", str(path), str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "no such file" in err


def _mutate_flat_torus(mutation):
    raw = serialize.encode_document(complex=flat_torus_surface().base, affine=flat_torus_surface())
    aff = raw["affine"]
    if mutation == "marking":
        aff["markings"].append(["nosuch", "focus_focus", 1])
    elif mutation == "A 1x1":
        aff["transitions"][0][3] = [["1"]]
    elif mutation == "A 2x3":
        aff["transitions"][0][3] = [["1", "0", "0"], ["0", "1", "0"]]
    elif mutation == "A ragged":
        aff["transitions"][0][3] = [["1", "0"], ["1"]]
    elif mutation == "t of length 3":
        aff["transitions"][0][4] = ["0", "0", "1"]
    elif mutation == "transition edge":
        aff["transitions"][0][0] = "nosuch"
    elif mutation == "transition face":
        aff["transitions"][0][2] = ["t", "nosuch"]
    elif mutation == "chart face":
        aff["charts"].append(["nosuch", []])
    elif mutation == "chart vertex":
        aff["charts"][0][1].append([["i", "7"], ["0", "0"]])
    elif mutation == "chern":
        aff["chern"].append(["nosuch", ["1", "0"]])
    return raw


@pytest.mark.parametrize(
    "argv",
    [["check"], ["cohomology", "--sheaf", "R", "--degree", "1"], ["moduli"], ["monodromy"]],
)
@pytest.mark.parametrize(
    "mutation",
    [
        "marking",
        "A 1x1",
        "A 2x3",
        "A ragged",
        "t of length 3",
        "transition edge",
        "transition face",
        "chart face",
        "chart vertex",
        "chern",
    ],
)
def test_bad_cell_reference_or_matrix_shape_in_affine_is_usage(tmp_path, capsys, argv, mutation):
    path = tmp_path / "mutated.json"
    path.write_text(serialize.dumps(_mutate_flat_torus(mutation)))
    with pytest.raises(serialize.DocumentError):
        serialize.load_path(str(path))
    assert main(argv[:1] + [str(path)] + argv[1:]) == 2
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("argv", [["check"], ["cohomology", "--degree", "1"]])
@pytest.mark.parametrize("part", ["stalks", "restrictions"])
def test_sheaf_naming_an_unknown_cell_is_usage(tmp_path, capsys, argv, part):
    from torusbase.complexes import complex_from_polygons
    from torusbase.sheaves import constant_sheaf

    X = complex_from_polygons({"f": ["a", "b", "c"]})
    raw = serialize.encode_document(complex=X, sheaf=constant_sheaf(X, 1))
    if part == "stalks":
        raw["sheaf"]["stalks"].append(["nosuch", 1, []])
    else:
        raw["sheaf"]["restrictions"].append(["a", "nosuch", [["1"]]])
    path = tmp_path / "unknown_cell.json"
    path.write_text(serialize.dumps(raw))
    assert main(argv[:1] + [str(path)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "nosuch" in err


def test_boundary_word_on_an_unknown_cell_is_a_violation(tmp_path, capsys):
    raw = serialize.encode_document(complex=flat_torus_surface().base)
    raw["complex"]["boundary_words"][0][0] = "nosuch"
    path = tmp_path / "word.json"
    path.write_text(serialize.dumps(raw))
    assert main(["check", str(path)]) == 1
    assert "complex: boundary word on non-2-cell nosuch" in capsys.readouterr().out


def _export(tmp_path, name):
    """The path and the parsed JSON of a catalog entry's export."""
    path = tmp_path / "export.json"
    assert main(["catalog", name, "--export", str(path)]) == 0
    return path, json.loads(path.read_text())


def _export_with_bad_incidence(tmp_path, name, face):
    """An export of a catalog entry whose first incidence entry names, as its
    face, the coface itself (no covering pair) or a cell the complex lacks."""
    path, raw = _export(tmp_path, name)
    entry = raw["complex"]["incidence"][0]
    entry[1] = entry[0] if face == "itself" else "nosuch"
    path.write_text(serialize.dumps(raw))
    return str(path)


@pytest.mark.parametrize(
    "name, sheaf, degree",
    [
        ("klein_affine", "Z", 1),
        ("cp2_triangle", "Z", 1),
        ("torus_morse_graph", "Z", 0),
        ("twisted_product_base", "document", 1),
        ("rp2_12ff", "Z^2", 1),
    ],
)
@pytest.mark.parametrize("face", ["itself", "unknown"])
def test_cohomology_on_an_invalid_complex_exits_one(tmp_path, capsys, name, sheaf, degree, face):
    path = _export_with_bad_incidence(tmp_path, name, face)
    capsys.readouterr()
    assert main(["check", path]) == 1
    violation = capsys.readouterr().out.splitlines()[0].replace("complex: ", "", 1)
    argv = ["cohomology", path, "--sheaf", sheaf, "--degree", str(degree)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith("error: complex invalid: ")
    assert violation in err


@pytest.mark.parametrize("face", ["itself", "unknown"])
def test_glue_on_an_invalid_complex_exits_one(tmp_path, capsys, face):
    path = _export_with_bad_incidence(tmp_path, "twisted_product_base", face)
    capsys.readouterr()
    assert main(["glue", path, path]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith("error: complex invalid: ")


def test_glue_on_an_invalid_sheaf_exits_one(tmp_path, capsys):
    path, raw = _export(tmp_path, "torus_morse_graph")
    raw["sheaf"]["restrictions"][0][2] = []
    path.write_text(serialize.dumps(raw))
    capsys.readouterr()
    assert main(["glue", str(path), str(path)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith("error: sheaf invalid: ")


def test_negative_stalk_rank_is_usage(tmp_path, capsys):
    path, raw = _export(tmp_path, "torus_morse_graph")
    raw["sheaf"]["stalks"][0][1] = -1
    path.write_text(serialize.dumps(raw))
    capsys.readouterr()
    assert main(["cohomology", str(path), "--degree", "0"]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "negative rank" in err


def test_check_on_a_directory_is_usage(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "cannot read %s" % tmp_path in err


def test_check_on_a_file_that_is_not_utf8_is_usage(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format": "torusbase/\xe9"}')
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "cannot read %s" % path in err


@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_export_that_cannot_be_written_is_usage(tmp_path, capsys, where):
    path = tmp_path if where == "directory" else tmp_path / "nosuch" / "x.json"
    assert main(["catalog", "sphere_24ff", "--export", str(path)]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "cannot write %s" % path in err


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    import argparse

    from torusbase import cli

    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["catalog", "--list"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 8  # the parser and its seven subparsers, once
    assert "flat_torus" in capsys.readouterr().out


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_cohomology_on_an_invalid_sheaf_exits_one(tmp_path, capsys, degree):
    path, raw = _export(tmp_path, "twisted_product_base")
    block = next(M for _, _, M in raw["sheaf"]["restrictions"] if len(M) == 2 and len(M[0]) == 2)
    block[0][0] = "3"
    path.write_text(serialize.dumps(raw))
    capsys.readouterr()
    assert main(["check", str(path)]) == 1
    assert "do not commute" in capsys.readouterr().out
    assert main(["cohomology", str(path), "--degree", str(degree)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith("error: sheaf invalid: ") and "do not commute" in err


@pytest.mark.parametrize("verb", ["check", "delzant"])
@pytest.mark.parametrize("dimension", ["0", "-1"])
def test_polytope_of_dimension_below_one_exits_one(tmp_path, capsys, verb, dimension):
    path = tmp_path / "point.json"
    path.write_text(serialize.dumps({"format": "torusbase/1", "polytope": {"dimension": dimension, "halfspaces": []}}))
    assert main([verb, str(path)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "dimension must be 1, 2 or 3" in err


def test_interval_passes_check_and_delzant(tmp_path, capsys):
    path = tmp_path / "interval.json"
    raw = {"format": "torusbase/1", "polytope": {"dimension": "1", "halfspaces": [[["-1"], "0"], [["1"], "1"]]}}
    path.write_text(serialize.dumps(raw))
    assert main(["check", str(path)]) == 0
    assert main(["delzant", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["ok (polytope)", "pass"]
