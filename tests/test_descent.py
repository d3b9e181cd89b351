"""One identification of cells and one descent of sheaves, against the code
they replaced.

``quotient_by_free_involution`` identifies each orbit through
``identify_cells``, and ``glue`` and ``fake_base_space`` push their sheaves
down through ``sheaves._descend``.  The quotient's own incidence and word
bookkeeping, glue's restriction loop and ``catalog.quotient_sheaf`` are kept
below, verbatim, as the reference: both must give the same cells, incidence,
boundary words, orbits, stalks and restriction blocks.
"""

import pytest
from test_complexes import grid_torus, swap_two_copies, torus_to_klein
from test_stalk_isos import _covector_frame_transport
from test_surgery import identity_spec

from torusbase import serialize
from torusbase.affine import _star_walk, build_R_sheaf
from torusbase.catalog import (
    CatalogError,
    _klein_shift,
    fake_base_space,
    klein_affine_surface,
    sphere_24ff_with_involution,
    sphere_morse_graph_half,
)
from torusbase.complexes import (
    CellComplex,
    ComplexError,
    _infer_signs,
    cell_key,
    complex_from_polygons,
    disjoint_union,
    edge_between,
    identify_cells,
    product,
    quotient_by_free_involution,
)
from torusbase.exact import eye, intmat, zeros
from torusbase.sheaves import CellularSheaf, constant_sheaf, pullback_sum, validate_sheaf
from torusbase.surgery import SurgeryError, glue

# ---------------------------------------------------------------------------
# The reference constructions, verbatim.


def reference_quotient_by_free_involution(X, mapping):
    """Quotient of X by a fixed-point-free cellular involution.

    mapping: cell -> cell.  Orientation bookkeeping signs are inferred; raises
    when the map has a fixed cell, is not an involution, or is incompatible
    with the incidence structure.
    """
    for c, mc in mapping.items():
        if mc == c:
            raise ComplexError("involution fixes cell %s" % (c,))
        if mapping.get(mc) != c:
            raise ComplexError("mapping is not an involution at %s" % (c,))
        if X.dim(c) != X.dim(mc):
            raise ComplexError("involution is not dimension preserving at %s" % (c,))
    if set(mapping) != set(X.cells):
        raise ComplexError("involution must move every cell")
    eps = _infer_signs(X, mapping)
    if eps is None:
        raise ComplexError("involution does not commute with incidence")
    rep = {c: min(c, mapping[c], key=cell_key) for c in X.cells}
    cells = {}
    incidence = {}
    for c in X.cells:
        if rep[c] != c:
            continue
        cells[("q", c)] = X.dim(c)
        for t, v in X.faces_of(c):
            key = (("q", c), ("q", rep[t]))
            w = v if rep[t] == t else v * eps[t]
            if key in incidence and incidence[key] != w:
                raise ComplexError("quotient is not regular at %s" % (key,))
            if key in incidence:
                raise ComplexError("quotient face repeats in boundary at %s" % (key,))
            incidence[key] = w
    words = {}
    for c in X.cells:
        if rep[c] != c or X.dim(c) != 2 or c not in X.boundary_words:
            continue
        word = []
        for e, s in X.boundary_words[c]:
            w = s if rep[e] == e else s * eps[e]
            word.append((("q", rep[e]), w))
        words[("q", c)] = tuple(word)
    Z = CellComplex(cells=cells, incidence=incidence, boundary_words=words)
    orbit = {c: ("q", rep[c]) for c in X.cells}
    return Z, orbit


def reference_glue(spec):
    """Pushout complex with the induced sheaf.

    Cells are tagged by piece; overlap cells of the second piece are
    identified onto the first piece's copy, so restriction to either tag
    recovers the input.
    """
    bad, inverses = spec._checked()
    if bad:
        raise SurgeryError("invalid gluing: %s" % "; ".join(map(str, bad)))
    D = disjoint_union(spec.complex1, spec.complex2, "A", "B")
    pairs = [(("A", c), ("B", spec.cell_map[c])) for c in spec.overlap1.cells]
    Z, relabel = identify_cells(D, pairs)
    stalks = {}
    restrictions = {}
    to2 = {}  # overlap2 cell -> iso stalk1 -> stalk2
    to1 = {}  # overlap2 cell -> iso stalk2 -> stalk1
    for c in spec.overlap1.cells:
        to2[spec.cell_map[c]] = spec.stalk_isos[c]
        to1[spec.cell_map[c]] = inverses[c]
    for c in spec.complex1.cells:
        stalks[relabel[("A", c)]] = spec.sheaf1.stalk(c)
    for c in spec.complex2.cells:
        key = relabel[("B", c)]
        if key not in stalks:
            stalks[key] = spec.sheaf2.stalk(c)
    for (face, cof), M in spec.sheaf1.restrictions.items():
        restrictions[(relabel[("A", face)], relabel[("A", cof)])] = M
    for (face, cof), M in spec.sheaf2.restrictions.items():
        key = (relabel[("B", face)], relabel[("B", cof)])
        if key in restrictions:
            continue
        # identified cells keep the first piece's stalk; reroute through isos
        if face in to2:
            M = M.dot(to2[face])
        if cof in to1:
            M = to1[cof].dot(M)
        restrictions[key] = M
    F = CellularSheaf(Z, spec.sheaf1.ring, stalks, restrictions)
    return Z, F, relabel


def reference_quotient_sheaf(F, Zq, mapping, stalk_isos):
    """Descend an involution-equivariant sheaf to the quotient complex.

    mapping is the free involution on the base, stalk_isos[c] maps the stalk
    at c to the stalk at mapping[c].  A quotient cell ("q", rep), named by
    the first member of its orbit, keeps the stalk of rep.
    """
    stalks = {q: F.stalk(q[1]) for q in Zq.cells}
    restrictions = {}
    for (qcof, qface) in Zq.incidence:
        rc, rf = qcof[1], qface[1]
        if any(t == rf for t, _ in F.base.faces_of(rc)):
            R = F.restriction(rf, rc)
        else:
            other = mapping[rf]
            if not any(t == other for t, _ in F.base.faces_of(rc)):
                raise CatalogError("no member incidence for %s under %s" % (qface, qcof))
            R = F.restriction(other, rc).dot(stalk_isos[rf])
        restrictions[(qface, qcof)] = R
    G = CellularSheaf(Zq, F.ring, stalks, restrictions)
    rep = validate_sheaf(G)
    if not rep.valid:
        raise CatalogError("quotient sheaf invalid: %s" % rep)
    return G


def reference_plus_piece():
    """The double cover of fake_base_space's twisted piece, its involution and
    the quotient piece, built as fake_base_space built them."""
    Kb = klein_affine_surface(6, 2, width=2)
    RKb = build_R_sheaf(Kb)
    Gp, FGp = sphere_morse_graph_half(+1)
    Xp0, fp = product(Kb.base, Gp)
    Fp0 = pullback_sum(RKb, FGp, Xp0, fp)
    swap_g = {"m1": "m2", "m2": "m1", "u1": "u2", "u2": "u1", "a": "a", "h": "h", "mid": "mid"}
    mapping = {}
    for cell in Xp0.cells:
        _, kc, gc = cell
        mapping[cell] = ("x", _klein_shift(kc), swap_g.get(gc, gc))
    Xp, orbit = reference_quotient_by_free_involution(Xp0, mapping)
    isos = {}
    for cell in Xp0.cells:
        _, kc, gc = cell
        kcell_target = _klein_shift(kc)
        if kc[0] == "v":
            faces_a, _, _, _, _ = _star_walk(Kb, kc)
            faces_b, _, _, _, _ = _star_walk(Kb, kcell_target)
            ref_img = _klein_shift(faces_a[0])
            JK = _covector_frame_transport(Kb, kcell_target, ref_img, faces_b[0])
        else:
            JK = eye(2)
        rg = FGp.rank(gc)
        J = zeros(2 + rg, 2 + rg)
        J[:2, :2] = JK
        for i in range(rg):
            J[2 + i, 2 + i] = 1
        isos[cell] = J
    Fp = reference_quotient_sheaf(Fp0, Xp, mapping, isos)
    return Xp0, mapping, Xp, orbit, Fp


# ---------------------------------------------------------------------------
# The comparisons.


@pytest.fixture(scope="module")
def fake_base():
    return fake_base_space(), reference_plus_piece()


def _same_complex(X, Y):
    assert X.cells == Y.cells
    assert X.incidence == Y.incidence
    assert X.boundary_words == Y.boundary_words


def _same_sheaf(F, G):
    """Equal stalks and equal restriction blocks, entry types included."""
    assert F.stalks == G.stalks
    assert F.restrictions.keys() == G.restrictions.keys()
    for key, M in F.restrictions.items():
        assert repr(M.tolist()) == repr(G.restrictions[key].tolist()), key


def _assert_quotient_matches_reference(X, mapping):
    Z, orbit = quotient_by_free_involution(X, mapping)
    ref, ref_orbit = reference_quotient_by_free_involution(X, mapping)
    _same_complex(Z, ref)
    assert orbit == ref_orbit


def test_rp2_quotient_matches_reference():
    S, inv = sphere_24ff_with_involution()
    _assert_quotient_matches_reference(S.base, inv)


def test_swap_quotient_matches_reference():
    _assert_quotient_matches_reference(*swap_two_copies())


def test_klein_quotient_matches_reference():
    _assert_quotient_matches_reference(*torus_to_klein())


def test_fake_base_quotient_piece_matches_reference(fake_base):
    fb, (Xp0, mapping, ref_Xp, _, ref_Fp) = fake_base
    _assert_quotient_matches_reference(Xp0, mapping)
    Xp, Fp = fb["piece_plus"]
    _same_complex(Xp, ref_Xp)
    _same_sheaf(Fp, ref_Fp)


def _assert_glue_matches_reference(spec):
    Z, F, relabel = glue(spec)
    ref_Z, ref_F, ref_relabel = reference_glue(spec)
    _same_complex(Z, ref_Z)
    assert relabel == ref_relabel
    _same_sheaf(F, ref_F)


def test_fake_base_glue_matches_reference(fake_base):
    _assert_glue_matches_reference(fake_base[0]["spec"])


def test_grid_tori_glue_matches_reference():
    # two 3 x 3 grid tori along a circle, with a shear on every overlap stalk
    X = grid_torus(3, 3)
    circle = [("v", i, 0) for i in range(3)]
    shared = set(circle) | {edge_between(v, w) for v, w in zip(circle, circle[1:] + circle[:1])}
    F1, F2 = constant_sheaf(X, 2), constant_sheaf(X, 2)
    spec = identity_spec(X, F1, X, F2, shared)
    spec.stalk_isos = {c: intmat([[1, 1], [0, 1]]) for c in shared}
    assert spec.validate() == []
    _assert_glue_matches_reference(spec)


def test_cli_glue_spec_matches_reference():
    # the two triangles of the glue verb's test, through a document each
    docs = []
    for face, cycle in (("f1", ["a", "b", "c"]), ("f2", ["a", "c", "d"])):
        X = complex_from_polygons({face: cycle})
        raw = serialize.encode_document(complex=X, sheaf=constant_sheaf(X, 1))
        docs.append(serialize.loads(serialize.dumps(raw)))
    one, two = docs
    shared = sorted(set(one.complex.cells) & set(two.complex.cells), key=cell_key)
    spec = identity_spec(one.complex, one.sheaf, two.complex, two.sheaf, shared)
    _assert_glue_matches_reference(spec)
