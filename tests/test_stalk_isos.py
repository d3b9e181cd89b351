"""One inverse and one check for stalk isomorphisms, against the code they
replaced.

``exact._inverse`` inverts a stalk iso over the ring of its sheaf, for
``unimodular_inverse``, ``PresentedGroup.generators`` and the iso check over
Q; ``sheaves._stalk_iso_violations`` is the one check behind gluing specs and
sheaf automorphisms, and over Z it asks an iso to be invertible on the stalk
groups, torsion included; ``fake_base_space`` reads each vertex iso off the two
monodromy sheaves (``catalog._vertex_iso``).  The dense ``unimodular_inverse``,
``_covector_frame_transport`` and the star-walk code of the two vertex-iso
loops of ``fake_base_space`` are kept below, verbatim, as the reference.
"""

import random
from fractions import Fraction

import pytest
from test_exact import random_unimodular
from test_surgery import identity_spec, triangle

from torusbase.affine import _dual, _lin_inverse, _lin_mul, _star_walk, build_R_sheaf
from torusbase.catalog import (
    _klein_projection,
    _klein_shift,
    _vertex_iso,
    fake_base_space,
    klein_affine_surface,
)
from torusbase.exact import eye, fracmat, hnf, intmat, mat_eq, unimodular_inverse, zeros
from torusbase.complexes import CellComplex
from torusbase.sheaves import CellularSheaf, SheafAutomorphism, Stalk, cohomology, constant_sheaf
from torusbase.surgery import glue

# ---------------------------------------------------------------------------
# The reference code, verbatim.


def reference_unimodular_inverse(U):
    """Inverse of a unimodular integer matrix."""
    H, W = hnf(U)
    if not mat_eq(H, eye(U.shape[0])):
        raise ValueError("matrix is not unimodular")
    return W


def _covector_frame_transport(S, v, face_from, face_to):
    """Dual transport within the star of a regular vertex between two frames."""
    faces, _, _, T, _ = _star_walk(S, v, {})
    La, Lb = T[faces.index(face_from)][0], T[faces.index(face_to)][0]
    a, b, c, d = _dual(_lin_mul(Lb, _lin_inverse(La)))
    return intmat([[a, b], [c, d]])


def reference_involution_iso(Kb, kc):
    """The Klein block of the involution's stalk iso at the orbit member
    with Klein cell kc, as the first loop of fake_base_space built it."""
    kcell_target = _klein_shift(kc)
    if kc[0] == "v":
        faces_a, _, _, _, _ = _star_walk(Kb, kc, {})
        faces_b, _, _, _, _ = _star_walk(Kb, kcell_target, {})
        ref_img = _klein_shift(faces_a[0])
        JK = _covector_frame_transport(Kb, kcell_target, ref_img, faces_b[0])
    else:
        JK = eye(2)
    return JK


def reference_overlap_isos(K2, Kb, sub_p_cells):
    """cell_map and stalk isos of the overlap, as the second loop of
    fake_base_space built them."""
    cell_map = {}
    over_isos = {}

    for q in sub_p_cells:
        _, kc, _ = q[1]
        src = ("x", _klein_projection(kc), "h")
        cell_map[src] = q
        if kc[0] == "v":
            # the O+ stalk at q sits in the reference frame of kc's star in
            # the double cover; express the O- frame there
            faces_a, _, _, _, _ = _star_walk(Kb, kc, {})
            faces_b, _, _, _, _ = _star_walk(K2, _klein_projection(kc), {})
            ref_img = _klein_projection(faces_a[0])
            JK = _covector_frame_transport(K2, _klein_projection(kc), ref_img, faces_b[0])
            JK = unimodular_inverse(JK)
        else:
            JK = eye(2)
        J = zeros(3, 3)
        J[:2, :2] = JK
        J[2, 2] = 1
        over_isos[src] = J
    return cell_map, over_isos


# ---------------------------------------------------------------------------
# One inverse


def _inverse_or_error(inverse, U):
    try:
        return repr(inverse(U).tolist())
    except ValueError as exc:
        return "ValueError: %s" % exc


def _seeded_matrices(seed, count=60):
    rng = random.Random(seed)
    yield intmat([])
    for _ in range(count):
        n = rng.randint(1, 5)
        yield random_unimodular(rng, n)
        yield intmat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        singular = random_unimodular(rng, n)
        singular[rng.randrange(n)] = 0
        yield singular
        yield intmat([[rng.randint(-2, 2) for _ in range(n + 1)] for _ in range(n)])
        yield intmat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n + 1)])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_unimodular_inverse_matches_the_dense_reference(seed):
    kinds = set()
    for U in _seeded_matrices(seed):
        got = _inverse_or_error(unimodular_inverse, U)
        assert got == _inverse_or_error(reference_unimodular_inverse, U), U.tolist()
        kinds.add(got.startswith("ValueError"))
    assert kinds == {True, False}


# ---------------------------------------------------------------------------
# The fake base's vertex isos, read off its monodromy sheaves


@pytest.fixture(scope="module")
def klein_pair():
    K2 = klein_affine_surface(3, 2, width=1)
    Kb = klein_affine_surface(6, 2, width=2)
    return K2, build_R_sheaf(K2), Kb, build_R_sheaf(Kb)


def _square_holds_at_every_coface(R_S, R_T, phi, v, J):
    return all(
        mat_eq(R_T.restriction(phi(v), phi(e)).dot(J), R_S.restriction(v, e))
        for e, _ in R_S.base.cofaces_of(v)
    )


def test_involution_isos_match_the_star_walks(klein_pair):
    _, _, Kb, RKb = klein_pair
    vertices = Kb.base.cells_of_dim(0)
    assert len(vertices) == 12
    for v in vertices:
        J = _vertex_iso(RKb, RKb, _klein_shift, v)
        assert repr(J.tolist()) == repr(reference_involution_iso(Kb, v).tolist()), v
        assert _square_holds_at_every_coface(RKb, RKb, _klein_shift, v, J), v


def test_projection_isos_match_the_star_walks(klein_pair):
    K2, RK2, Kb, RKb = klein_pair
    for v in Kb.base.cells_of_dim(0):
        J = _vertex_iso(RKb, RK2, _klein_projection, v)
        faces_a, _, _, _, _ = _star_walk(Kb, v, {})
        faces_b, _, _, _, _ = _star_walk(K2, _klein_projection(v), {})
        ref_img = _klein_projection(faces_a[0])
        ref = _covector_frame_transport(K2, _klein_projection(v), ref_img, faces_b[0])
        assert repr(J.tolist()) == repr(ref.tolist()), v
        assert _square_holds_at_every_coface(RKb, RK2, _klein_projection, v, J), v


def test_overlap_isos_match_the_reference_loop(klein_pair):
    K2, _, Kb, _ = klein_pair
    spec = fake_base_space()["spec"]
    cell_map, isos = reference_overlap_isos(K2, Kb, set(spec.overlap2.cells))
    assert spec.cell_map == cell_map
    assert spec.stalk_isos.keys() == isos.keys()
    for c, J in isos.items():
        assert repr(spec.stalk_isos[c].tolist()) == repr(J.tolist()), c


def test_klein_projection_rejects_a_foreign_cell():
    from torusbase.catalog import CatalogError

    assert _klein_projection(("h", 4, 1)) == ("h", 1, 1)
    with pytest.raises(CatalogError):
        _klein_projection(("x", 0, 0))


# ---------------------------------------------------------------------------
# One check: sheaf automorphisms


def _automorphism(**isos):
    """The identity cell map of a triangle with the iso [[1]] at every cell,
    but isos[c] where given; None leaves the iso out."""
    X = triangle("f", ["a", "b", "c"])
    full = {c: isos.get(c, intmat([[1]])) for c in X.cells}
    full = {c: J for c, J in full.items() if J is not None}
    return SheafAutomorphism(constant_sheaf(X, 1), {c: c for c in X.cells}, full)


def test_automorphism_reports_a_missing_iso():
    assert _automorphism(a=None).validate().violations == ["missing stalk iso at a"]


def test_automorphism_reports_a_misshaped_iso():
    rep = _automorphism(a=intmat([[1, 0]])).validate()
    assert rep.violations == ["stalk iso at a has the wrong shape"]


def test_automorphism_reports_a_non_invertible_iso():
    aut = _automorphism()
    aut.stalk_isos = {c: intmat([[2]]) for c in aut.stalk_isos}  # every square commutes
    rep = aut.validate()
    assert len(rep.violations) == 7
    assert rep.violations[0] == "stalk iso at a is not invertible over Z"


def test_automorphism_reports_a_fraction_over_z():
    rep = _automorphism(b=fracmat([[Fraction(1, 2)]])).validate()
    assert rep.violations == ["stalk iso at b is not invertible over Z"]


# ---------------------------------------------------------------------------
# One check: isos of torsion stalks are isomorphisms of the stalk groups


def _scaling(rank, moduli, J):
    """The identity cell map of a triangle with the iso J at every cell of the
    constant sheaf with the given stalk."""
    X = triangle("f", ["a", "b", "c"])
    F = constant_sheaf(X, rank, moduli=moduli)
    return SheafAutomorphism(F, {c: c for c in X.cells}, {c: intmat(J) for c in X.cells})


@pytest.mark.parametrize("factor", [2, 3, 4, -1])
def test_a_unit_of_z5_is_an_automorphism_of_constant_z5(factor):
    assert _scaling(1, (5,), [[factor]]).validate().valid


def test_times_5_on_constant_z5_is_no_automorphism():
    rep = _scaling(1, (5,), [[5]]).validate()
    assert len(rep.violations) == 7
    assert rep.violations[0] == "stalk iso at a is not invertible over Z"


def test_an_iso_of_z2_plus_z_may_scale_the_torsion_by_a_unit():
    assert _scaling(2, (2, 0), [[3, 0], [0, 1]]).validate().valid
    # the free generator cannot be sent to a torsion one, nor doubled
    assert not _scaling(2, (2, 0), [[0, 1], [1, 0]]).validate().valid
    assert not _scaling(2, (2, 0), [[1, 0], [0, 2]]).validate().valid


def test_no_stalk_iso_swaps_z2_and_z3():
    X = CellComplex(cells={"a": 0, "b": 0}, incidence={})
    F = CellularSheaf(X, "Z", {"a": Stalk(1, (2,)), "b": Stalk(1, (3,))}, {})
    aut = SheafAutomorphism(F, {"a": "b", "b": "a"}, {"a": intmat([[1]]), "b": intmat([[1]])})
    assert aut.validate().violations == [
        "stalk iso at a is not invertible over Z",
        "stalk iso at b is not invertible over Z",
    ]


@pytest.mark.parametrize("factor", [3, -1])
def test_gluing_z2_sheaves_along_a_unit_is_gluing_along_1(factor):
    def glued(J):
        X1, X2 = triangle("f1", ["a", "b", "c"]), triangle("f2", ["a", "b", "c"])
        shared = {c for c in X1.cells if X1.dim(c) < 2}
        spec = identity_spec(X1, constant_sheaf(X1, 1, moduli=(2,)), X2, constant_sheaf(X2, 1, moduli=(2,)), shared)
        spec.stalk_isos = {c: intmat(J) for c in shared}
        bad, inverses = spec._checked()
        assert bad == []
        # each inverse undoes J modulo 2
        assert all((J[0][0] * K[0, 0] - 1) % 2 == 0 for K in inverses.values())
        _, F, _ = glue(spec)
        return [str(cohomology(F, k).group) for k in range(3)]

    assert glued([[factor]]) == glued([[1]]) == ["Z/2", "0", "Z/2"]


# ---------------------------------------------------------------------------
# One check: gluing specs of Q sheaves are inverted over Q


def _q_spec(J):
    X1 = triangle("f1", ["a", "b", "c"])
    X2 = triangle("f2", ["a", "c", "d"])
    shared = {"a", "c", ("e", "a", "c")}
    spec = identity_spec(X1, constant_sheaf(X1, 1, "Q"), X2, constant_sheaf(X2, 1, "Q"), shared)
    spec.stalk_isos = {c: fracmat(J) for c in shared}
    return spec


def test_q_gluing_accepts_an_iso_invertible_over_q():
    spec = _q_spec([[2]])
    assert spec.validate() == []
    _, F, _ = glue(spec)
    assert F.ring == "Q"


def test_q_gluing_inverts_over_q():
    bad, inverses = _q_spec([[Fraction(3, 2)]])._checked()
    assert bad == []
    assert {repr(J.tolist()) for J in inverses.values()} == {"[[Fraction(2, 3)]]"}


def test_q_gluing_reports_a_singular_iso():
    bad = _q_spec([[0]]).validate()
    assert bad and all(v.endswith("is not invertible over Q") for v in bad)
