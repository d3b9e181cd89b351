import pytest

from torusbase.catalog import (
    CatalogError,
    Expectation,
    build,
    catalog_names,
    fake_base_space,
    sphere_24ff_with_involution,
    verify,
)
from torusbase.complexes import classify_surface, validate
from torusbase.exact import AbelianGroup
from torusbase.affine import validate_affine
from torusbase.sheaves import cohomology, validate_sheaf


def test_every_entry_verifies():
    for name in catalog_names():
        entry = build(name)
        rep = verify(entry)
        assert rep.ok, str(rep)


def test_every_payload_validates():
    for name in catalog_names():
        entry = build(name)
        if entry.kind == "affine":
            assert validate_affine(entry.payload).valid, name
        elif entry.kind == "complex":
            assert validate(entry.payload).valid, name
        elif entry.kind == "sheaf":
            X, F = entry.payload
            assert validate(X).valid and validate_sheaf(F).valid, name
        elif entry.kind == "gluing":
            assert not entry.payload["spec"].validate(), name


@pytest.mark.parametrize("name", ["flat_torus:3"] + catalog_names())
def test_verify_builds_the_monodromy_sheaf_at_most_once(monkeypatch, name):
    from torusbase import affine

    entry = build(name)
    if entry.kind != "affine":
        pytest.skip("%s has no monodromy sheaf" % name)
    calls, build_anew = [], affine._build_R_sheaf

    def counting(S):
        calls.append(S)
        return build_anew(S)

    monkeypatch.setattr(affine, "_build_R_sheaf", counting)
    assert verify(entry).ok
    assert len(calls) <= 1  # none when no expected invariant needs R


def test_verify_computes_the_obstruction_once_per_call(monkeypatch):
    from torusbase import surgery

    entry = build("fake_base_space")
    extras = dict(entry.extras)
    calls, gluing_obstruction = [], surgery.gluing_obstruction

    def counting(*args):
        calls.append(args)
        return gluing_obstruction(*args)

    monkeypatch.setattr(surgery, "gluing_obstruction", counting)
    assert verify(entry).ok
    assert len(calls) == 1
    assert entry.extras == extras  # the cache does not outlive the call
    assert verify(entry).ok
    assert len(calls) == 2


def test_flat_torus_parameters():
    e0 = build("flat_torus:0")
    assert e0.expected["H1(M4)"].value == "Z^4"
    assert verify(e0).ok
    e6 = build("flat_torus:6")
    assert e6.expected["H1(M4)"].value == "Z^3 ⊕ Z/6"
    assert verify(e6).ok


def test_ff_disk_parameter():
    e = build("ff_disk:2")
    assert e.expected["monodromy_unipotent_k"].value == {2}
    assert verify(e).ok


def test_unknown_name_lists_entries():
    with pytest.raises(CatalogError) as err:
        build("nosuch")
    assert "flat_torus" in str(err.value)


def test_verify_flags_corrupted_expectation():
    entry = build("klein_affine")
    entry.expected["H2(O,Z)"] = Expectation(value="Z/4", provenance="trivial")
    rep = verify(entry)
    assert not rep.ok
    bad = [l for l in rep.lines if not l.ok]
    assert len(bad) == 1
    assert bad[0].invariant == "H2(O,Z)"


def test_verify_deterministic():
    entry = build("twisted_product_base")
    a = str(verify(entry))
    b = str(verify(entry))
    assert a == b


def test_sphere_involution_free_and_cellular():
    S, inv = sphere_24ff_with_involution()
    X = S.base
    assert set(inv) == set(X.cells)
    for c, d in inv.items():
        assert c != d
        assert inv[d] == c
        assert X.dim(c) == X.dim(d)


def test_kodaira_thurston_is_unit_chern_torus():
    e = build("kodaira_thurston")
    from torusbase.surgery import chern_class_coordinates

    assert tuple(chern_class_coordinates(e.payload)) == (1, 0)
    assert verify(e).ok


def test_classification_matches_abelianization():
    # first homology from the surface kind agrees with the pi1 machinery
    h1_table = {
        "sphere": AbelianGroup(0),
        "torus": AbelianGroup(2),
        "klein_bottle": AbelianGroup(1, (2,)),
        "projective_plane": AbelianGroup(0, (2,)),
        "disk": AbelianGroup(0),
    }
    from torusbase.complexes import pi1_presentation

    for name in ("flat_torus", "klein_affine", "sphere_24ff", "rp2_12ff", "cp2_triangle"):
        entry = build(name)
        X = entry.payload.base if entry.kind == "affine" else entry.payload
        ff = (
            entry.payload.focus_focus_count()
            if entry.kind == "affine"
            else len(entry.extras.get("focus_focus_orbits", ()))
        )
        kind = classify_surface(X, ff).kind
        ab = pi1_presentation(X, X.cells_of_dim(0)[0]).abelianization()
        assert ab == h1_table[kind], name
