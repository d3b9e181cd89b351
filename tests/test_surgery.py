import random

import pytest

from torusbase.affine import build_R_sheaf, validate_affine
from torusbase.catalog import fake_base_space, flat_torus_surface, sphere_24ff_surface
from torusbase.complexes import classify_surface, complex_from_polygons, validate
from torusbase.exact import AbelianGroup, eye, intmat
from torusbase.sheaves import (
    CohomologyClass,
    class_from_components,
    cohomology,
    constant_sheaf,
    restrict_sheaf,
    subcomplex,
    validate_sheaf,
)
from torusbase.surgery import (
    GluingSpec,
    SurgeryError,
    chern_class_coordinates,
    dehn_reglue,
    glue,
    gluing_obstruction,
    realizability_report_2d,
)


def triangle(face, cycle):
    return complex_from_polygons({face: cycle})


def identity_spec(X1, F1, X2, F2, shared):
    o1 = subcomplex(X1, shared)
    o2 = subcomplex(X2, shared)
    isos = {c: eye(F1.rank(c)) for c in shared}
    return GluingSpec(
        complex1=X1, sheaf1=F1, complex2=X2, sheaf2=F2,
        overlap1=o1, overlap2=o2,
        cell_map={c: c for c in shared}, stalk_isos=isos,
    )


def test_glue_empty_overlap_disjoint_union():
    X1 = triangle("f1", ["a", "b", "c"])
    X2 = triangle("f2", ["p", "q", "r"])
    F1 = constant_sheaf(X1, 1)
    F2 = constant_sheaf(X2, 1)
    spec = identity_spec(X1, F1, X2, F2, set())
    Z, F, _ = glue(spec)
    assert validate(Z).valid
    assert len(Z.cells) == len(X1.cells) + len(X2.cells)
    assert cohomology(F, 0).group == AbelianGroup(2)


def test_glue_two_triangles_along_edge():
    X1 = triangle("f1", ["a", "b", "c"])
    X2 = triangle("f2", ["a", "c", "d"])
    shared = {"a", "c", ("e", "a", "c")}
    spec = identity_spec(X1, constant_sheaf(X1, 1), X2, constant_sheaf(X2, 1), shared)
    Z, F, _ = glue(spec)
    assert validate(Z).valid
    assert Z.euler_characteristic() == 1
    assert classify_surface(Z).kind == "disk"
    assert validate_sheaf(F).valid


def test_glue_restricts_to_pieces():
    X1 = triangle("f1", ["a", "b", "c"])
    X2 = triangle("f2", ["a", "c", "d"])
    shared = {"a", "c", ("e", "a", "c")}
    spec = identity_spec(X1, constant_sheaf(X1, 2), X2, constant_sheaf(X2, 2), shared)
    Z, F, relabel = glue(spec)
    for c in X1.cells:
        assert F.rank(relabel[("A", c)]) == 2
    for c in X2.cells:
        assert F.rank(relabel[("B", c)]) == 2


def test_glue_associative_up_to_counts():
    X1 = triangle("f1", ["a", "b", "c"])
    X2 = triangle("f2", ["a", "c", "d"])
    X3 = triangle("f3", ["c", "d", "e"])
    s12 = {"a", "c", ("e", "a", "c")}
    s23 = {"c", "d", ("e", "c", "d")}
    spec12 = identity_spec(X1, constant_sheaf(X1, 1), X2, constant_sheaf(X2, 1), s12)
    Z12, F12, rel12 = glue(spec12)
    o = subcomplex(Z12, {rel12[("B", c)] for c in s23})
    spec = GluingSpec(
        complex1=Z12, sheaf1=F12, complex2=X3, sheaf2=constant_sheaf(X3, 1),
        overlap1=o, overlap2=subcomplex(X3, s23),
        cell_map={rel12[("B", c)]: c for c in s23},
        stalk_isos={rel12[("B", c)]: eye(1) for c in s23},
    )
    Zab_c, _, _ = glue(spec)
    # the mirror association
    spec23 = identity_spec(X2, constant_sheaf(X2, 1), X3, constant_sheaf(X3, 1), s23)
    Z23, F23, rel23 = glue(spec23)
    o1 = subcomplex(X1, s12)
    spec2 = GluingSpec(
        complex1=X1, sheaf1=constant_sheaf(X1, 1), complex2=Z23, sheaf2=F23,
        overlap1=o1, overlap2=subcomplex(Z23, {rel23[("A", c)] for c in s12}),
        cell_map={c: rel23[("A", c)] for c in s12},
        stalk_isos={c: eye(1) for c in s12},
    )
    Za_bc, _, _ = glue(spec2)
    assert len(Zab_c.cells) == len(Za_bc.cells)
    assert Zab_c.euler_characteristic() == Za_bc.euler_characteristic()
    assert classify_surface(Zab_c).kind == classify_surface(Za_bc).kind


def test_glue_identification_conflict():
    X1 = triangle("f1", ["a", "b", "c"])
    X2 = triangle("f2", ["a", "c", "d"])
    shared = {"a", "c", ("e", "a", "c")}
    spec = identity_spec(X1, constant_sheaf(X1, 1), X2, constant_sheaf(X2, 2), shared)
    with pytest.raises(SurgeryError):
        glue(spec)


def annulus_in_torus(S, row=0):
    """The strip of faces in one grid row, as a full subcomplex."""
    X = S.base
    cells = set()
    for f in X.cells_of_dim(2):
        if f[2] == row:
            cells.add(f)
            for e, _ in X.faces_of(f):
                cells.add(e)
                for v, _ in X.faces_of(e):
                    cells.add(v)
    return subcomplex(X, cells)


def test_obstruction_empty_overlap():
    X1 = triangle("f1", ["a", "b", "c"])
    X2 = triangle("f2", ["p", "q", "r"])
    F1, F2 = constant_sheaf(X1, 1), constant_sheaf(X2, 1)
    spec = identity_spec(X1, F1, X2, F2, set())
    over = restrict_sheaf(F1, spec.overlap1)
    zero = class_from_components(over, 2, {})
    rep = gluing_obstruction(spec, zero, zero)
    assert rep.group.is_trivial
    assert rep.vanishes


def test_obstruction_vanishes_on_annulus_overlap():
    # Prop-style mechanism: a tubular neighborhood of a circle carries no H^2
    S = flat_torus_surface()
    R = build_R_sheaf(S)
    X = S.base
    ann = annulus_in_torus(S)
    spec = GluingSpec(
        complex1=X, sheaf1=R, complex2=X, sheaf2=R,
        overlap1=ann, overlap2=ann,
        cell_map={c: c for c in ann.cells},
        stalk_isos={c: eye(R.rank(c)) for c in ann.cells},
    )
    over = restrict_sheaf(R, ann)
    assert cohomology(over, 2).group.is_trivial
    zero = class_from_components(over, 2, {})
    rep = gluing_obstruction(spec, zero, zero)
    assert rep.group.is_trivial
    assert rep.vanishes


def test_fake_base_space_obstruction():
    fb = fake_base_space()
    rep = gluing_obstruction(fb["spec"], fb["class_minus"], fb["class_plus"])
    assert str(rep.group) == "Z/2"
    assert rep.coordinates == (1,)
    assert not rep.vanishes


def test_dehn_zero_twist():
    S = flat_torus_surface(1)
    disk = [S.base.cells_of_dim(2)[0]]
    S2 = dehn_reglue(S, disk, {})
    assert validate_affine(S2).valid
    assert chern_class_coordinates(S2) == chern_class_coordinates(S)


def test_dehn_unit_twist_shifts_generator():
    S = flat_torus_surface(0)
    disk = [("f", 1, 1)]
    X = S.base
    cut = [
        e
        for e in X.cells_of_dim(1)
        if len([f for f, _ in X.cofaces_of(e) if f in disk]) == 1
        and len(X.cofaces_of(e)) == 2
    ]
    before = chern_class_coordinates(S)
    twist = {cut[0]: (1, 0)}
    S2 = dehn_reglue(S, disk, twist)
    after = chern_class_coordinates(S2)
    diff = tuple(a - b for a, b in zip(after, before))
    assert sorted(abs(d) for d in diff) == [0, 1]


def test_dehn_twist_untwist_restores_class():
    rng = random.Random(41)
    S = flat_torus_surface(2)
    disk = [("f", 1, 1)]
    X = S.base
    cut = [
        e
        for e in X.cells_of_dim(1)
        if len([f for f, _ in X.cofaces_of(e) if f in disk]) == 1
        and len(X.cofaces_of(e)) == 2
    ]
    for _ in range(5):
        twist = {e: (rng.randint(-2, 2), rng.randint(-2, 2)) for e in cut}
        untwist = {e: (-a, -b) for e, (a, b) in twist.items()}
        S2 = dehn_reglue(S, disk, twist)
        S3 = dehn_reglue(S2, disk, untwist)
        assert chern_class_coordinates(S3) == chern_class_coordinates(S)


def test_dehn_rejects_singular_region():
    from torusbase.catalog import ff_disk_surface

    S = ff_disk_surface(1)
    disk = [("t", 0)]  # touches the focus-focus vertex
    with pytest.raises(SurgeryError):
        dehn_reglue(S, disk, {})


def test_realizability_2d():
    rep = realizability_report_2d(sphere_24ff_surface())
    assert rep.verdict == "realizable"
    assert rep.dimension == 2
    rep2 = realizability_report_2d(flat_torus_surface())
    assert rep2.verdict == "realizable"


def test_realizability_3d_undecided():
    fb = fake_base_space()
    rep = realizability_report_2d(fb["piece_minus"])
    assert rep.verdict == "undecided"
    assert rep.dimension == 3


def test_all_2d_catalog_surfaces_realizable():
    from torusbase.catalog import build, catalog_names

    for name in catalog_names():
        entry = build(name)
        if entry.kind != "affine" or entry.name == "sphere_24ff":
            continue
        rep = realizability_report_2d(entry.payload)
        assert rep.verdict == "realizable", name


def test_non_invertible_stalk_iso_is_a_surgery_error():
    import dataclasses

    fb = fake_base_space()
    spec = fb["spec"]
    c = next(iter(spec.overlap1.cells))
    J = spec.stalk_isos[c].copy()
    J[0] = 2 * J[0]
    bad = dataclasses.replace(spec, stalk_isos={**spec.stalk_isos, c: J})
    assert any("not invertible over Z" in v for v in bad.validate())
    with pytest.raises(SurgeryError):
        glue(bad)
    with pytest.raises(SurgeryError):
        gluing_obstruction(bad, fb["class_minus"], fb["class_plus"])


def test_realizability_report_builds_the_monodromy_sheaf_once(monkeypatch):
    from torusbase import affine

    calls, build_anew = [], affine._build_R_sheaf

    def counting(S):
        calls.append(S)
        return build_anew(S)

    monkeypatch.setattr(affine, "_build_R_sheaf", counting)
    rep = realizability_report_2d(flat_torus_surface())
    assert rep.details["moduli (dim, lattice rank)"] == (1, 1)
    assert len(calls) == 1


def test_obstruction_rational_part_on_a_ball_glued_to_itself():
    # a 3-ball (triangle x interval) glued to itself along its boundary
    # sphere gives S^3: H^2(overlap) = Z survives both pieces, over Z and Q
    from fractions import Fraction

    from torusbase.complexes import CellComplex, product

    seg = CellComplex(cells={"p": 0, "q": 0, "s": 1}, incidence={("s", "p"): -1, ("s", "q"): 1})
    B, _ = product(triangle("f", ["a", "b", "c"]), seg)
    sphere = [c for c in B.cells if B.dim(c) <= 2]
    F = constant_sheaf(B, 1)
    spec = identity_spec(B, F, B, F, sphere)
    G = restrict_sheaf(F, spec.overlap1)
    first = spec.overlap1.cells_of_dim(2)[0]
    zero = class_from_components(G, 2, {})
    one = class_from_components(G, 2, {first: [1]})
    GQ = restrict_sheaf(constant_sheaf(B, 1, "Q"), spec.overlap1)
    difference = GQ.zero_cochain(2)
    difference[0] = Fraction(1, 2)
    rep = gluing_obstruction(spec, zero, one, difference)
    assert str(rep.group) == "Z"
    assert rep.coordinates == (-1,)
    assert rep.rational_dimension == 1
    assert rep.rational_coordinates == (Fraction(-1, 2),)
    assert str(rep) == (
        "obstruction group Z, element (-1,); rational part dim 1, element ('-1/2',) -> obstructed"
    )
    assert gluing_obstruction(spec, zero, zero).rational_coordinates == (Fraction(0),)
