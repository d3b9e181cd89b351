import random
from fractions import Fraction

import pytest

from torusbase.affine import (
    AffineError,
    AffineSurface,
    EdgeTransition,
    SingularityMark,
    _edge_frame_owner,
    affine_area,
    affine_compose,
    affine_disjoint_union,
    affine_eq,
    affine_identity,
    affine_inverse,
    boundary_word_holonomy,
    build_I_sheaf,
    build_R_sheaf,
    dhat,
    dual_matrix,
    fixed_covector,
    lagrangian_moduli,
    monodromy_rep,
    rechart,
    star_transports,
    torus_bundle_h1,
    unipotent_power,
    validate_affine,
    vertex_wheel,
)
from torusbase.catalog import (
    cp2_triangle_surface,
    cut_triangle_surface,
    ff_disk_surface,
    flat_torus_surface,
    klein_affine_surface,
    sphere_24ff_surface,
)
from torusbase.exact import AbelianGroup, LinearSystem, PresentedGroup, eye, fracvec, intmat, zeros
from torusbase.sheaves import (
    CellularSheaf,
    CohomologyClass,
    SheafMap,
    ShortExactSequence,
    Stalk,
    cohomology,
    validate_sheaf,
)


def zero_translation_torus():
    S = flat_torus_surface()
    transitions = {
        e: EdgeTransition(tr.from_face, tr.to_face, tr.A, fracvec([0, 0]))
        for e, tr in S.transitions.items()
    }
    return AffineSurface(base=S.base, charts={}, transitions=transitions)


def test_validate_flat_torus():
    assert validate_affine(flat_torus_surface()).valid


def test_validate_ff_disk():
    S = ff_disk_surface(1)
    rep = validate_affine(S)
    assert rep.valid
    # the wheel around the marked vertex is the standard unipotent
    from torusbase.affine import vertex_wheel

    W = vertex_wheel(S, "c")
    assert unipotent_power(W[0]) == 1


def test_validate_rejects_bad_marking():
    # a regular marking on a vertex whose wheel is a shear
    S = ff_disk_surface(1)
    S2 = AffineSurface(
        base=S.base, charts=S.charts, transitions=S.transitions, markings={}
    )
    rep = validate_affine(S2)
    assert not rep.valid
    assert any("identity" in v for v in rep.violations)


def test_validate_rejects_nonunimodular():
    S = flat_torus_surface()
    e = next(iter(S.transitions))
    tr = S.transitions[e]
    S.transitions[e] = EdgeTransition(tr.from_face, tr.to_face, intmat([[2, 0], [0, 1]]), tr.t)
    rep = validate_affine(S)
    assert not rep.valid
    assert any("unimodular" in v for v in rep.violations)


def test_monodromy_flat_torus_trivial():
    S = flat_torus_surface()
    rep = monodromy_rep(S)
    for M in rep.images:
        assert all(M[i, j] == (1 if i == j else 0) for i in range(2) for j in range(2))


def test_monodromy_ff_disk():
    S = ff_disk_surface(1)
    rep = monodromy_rep(S)
    ks = [unipotent_power(M) for l, M in zip(rep.loops, rep.images) if l.kind == "vertex"]
    assert ks == [1]
    S3 = ff_disk_surface(3)
    rep3 = monodromy_rep(S3)
    ks3 = [unipotent_power(M) for l, M in zip(rep3.loops, rep3.images) if l.kind == "vertex"]
    assert ks3 == [3]


def test_monodromy_klein_orientation_character():
    S = klein_affine_surface()
    rep = monodromy_rep(S)
    dets = {M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0] for M in rep.images}
    assert -1 in dets


def test_monodromy_invariant_under_recharting():
    rng = random.Random(31)
    S = ff_disk_surface(1)
    base_rep = monodromy_rep(S)
    base_ks = sorted(
        unipotent_power(M) for l, M in zip(base_rep.loops, base_rep.images) if l.kind == "vertex"
    )
    for _ in range(5):
        maps = {}
        for f in S.base.cells_of_dim(2):
            U = eye(2)
            U[0, 1] = rng.randint(-2, 2)
            if rng.random() < 0.5:
                U = U.T
            maps[f] = (U, fracvec([rng.randint(-2, 2), rng.randint(-2, 2)]))
        S2 = rechart(S, maps)
        assert validate_affine(S2).valid
        rep2 = monodromy_rep(S2)
        ks = sorted(
            unipotent_power(M) for l, M in zip(rep2.loops, rep2.images) if l.kind == "vertex"
        )
        assert ks == base_ks


def test_R_sheaf_flat_torus():
    S = flat_torus_surface()
    R = build_R_sheaf(S)
    assert validate_sheaf(R).valid
    assert cohomology(R, 2).group == AbelianGroup(2)


def test_R_sheaf_ff_disk():
    R = build_R_sheaf(ff_disk_surface(1))
    assert validate_sheaf(R).valid
    assert cohomology(R, 0).group == AbelianGroup(1)
    assert cohomology(R, 1).group == AbelianGroup(0)


def test_R_sheaf_triangle():
    R = build_R_sheaf(cp2_triangle_surface())
    groups = [cohomology(R, k).group for k in range(3)]
    assert groups == [AbelianGroup(2), AbelianGroup(0), AbelianGroup(0)]


def test_R_sheaf_fixed_covector_identity():
    # the focus-focus stalk generator is fixed by the dual local monodromy
    from torusbase.affine import dual_matrix, vertex_wheel

    for k in (1, 2):
        S = ff_disk_surface(k)
        R = build_R_sheaf(S)
        W = vertex_wheel(S, "c")[0]
        D = dual_matrix(W)
        e = sorted((e for e, _ in S.base.cofaces_of("c")), key=str)[0]
        col = R.restriction("c", e)
        img = D.dot(col)
        # generator expressed in the edge frame equals its dual transport
        assert all(a == b for a, b in zip(img[:, 0], col[:, 0]))


def test_I_sheaf_split_for_zero_translations():
    S = zero_translation_torus()
    assert validate_affine(S).valid
    I, ses = build_I_sheaf(S)
    assert ses.validate().valid
    from torusbase.sheaves import connecting_map, image_dimension

    for k in (0, 1):
        delta = connecting_map(ses, k, check=False)
        assert image_dimension(delta) == 0


def test_I_sheaf_flat_torus_exact():
    S = flat_torus_surface()
    I, ses = build_I_sheaf(S)
    assert ses.validate().valid


def test_dhat_zero_class():
    S = flat_torus_surface()
    R = build_R_sheaf(S)
    cls = CohomologyClass(R, 2, R.zero_cochain(2))
    _, coords = dhat(S, cls)
    assert all(c == 0 for c in coords)


def test_dhat_top_degree_vanishes():
    S = flat_torus_surface()
    R = build_R_sheaf(S)
    h2 = cohomology(R, 2)
    for g in h2.generator_cocycles():
        _, coords = dhat(S, CohomologyClass(R, 2, g))
        assert all(c == 0 for c in coords)


def test_dhat_linear():
    S = flat_torus_surface()
    R = build_R_sheaf(S)
    h1 = cohomology(R, 1)
    gens = h1.generator_cocycles()
    _, ses = build_I_sheaf(S)
    a = CohomologyClass(R, 1, gens[0])
    b = CohomologyClass(R, 1, gens[1])
    _, ca = dhat(S, a, ses)
    _, cb = dhat(S, b, ses)
    ab = CohomologyClass(R, 1, gens[0] + gens[1])
    _, cab = dhat(S, ab, ses)
    assert tuple(x + y for x, y in zip(ca, cb)) == cab


def test_moduli_examples():
    assert lagrangian_moduli(flat_torus_surface()) == (1, 1)
    assert lagrangian_moduli(cp2_triangle_surface()) == (0, 0)
    both = affine_disjoint_union(flat_torus_surface(), flat_torus_surface())
    assert validate_affine(both).valid
    assert lagrangian_moduli(both) == (2, 2)


def test_torus_bundle_h1_examples():
    assert torus_bundle_h1((1, 0)) == AbelianGroup(3)
    assert torus_bundle_h1((0, 0)) == AbelianGroup(4)
    assert torus_bundle_h1((2, 4)) == AbelianGroup(3, (2,))


def test_torus_bundle_h1_gcd_property():
    from math import gcd

    from torusbase.exact import intmat as im

    for c1 in range(-10, 11):
        for c2 in range(-10, 11):
            got = torus_bundle_h1((c1, c2))
            g = gcd(abs(c1), abs(c2))
            # independent oracle: Smith form of the full abelianized
            # relation matrix of the central extension
            rel = im([[c1, c2, 0, 0]])
            want = PresentedGroup(4, rel).group
            assert got == want
            if g == 0:
                assert got == AbelianGroup(4)
            elif g == 1:
                assert got == AbelianGroup(3)
            else:
                assert got == AbelianGroup(3, (g,))


def test_affine_area_examples():
    assert affine_area(flat_torus_surface()) == 1
    assert affine_area(cp2_triangle_surface()) == Fraction(1, 2)


def test_affine_area_recharting_invariance():
    S = cp2_triangle_surface()
    maps = {"f": (intmat([[1, 1], [0, 1]]), fracvec([3, -2]))}
    S2 = rechart(S, maps)
    assert validate_affine(S2).valid
    assert affine_area(S2) == Fraction(1, 2)


def test_area_requires_charts():
    S = zero_translation_torus()
    with pytest.raises(AffineError):
        affine_area(S)


def test_cut_triangle():
    S = cut_triangle_surface()
    assert validate_affine(S).valid
    assert S.focus_focus_count() == 3
    from torusbase.complexes import classify_surface

    assert classify_surface(S.base, 3).kind == "disk"


def test_sphere_relator():
    S = sphere_24ff_surface()
    assert affine_eq(boundary_word_holonomy(S), affine_identity())


def trace3_disk():
    """Disk whose central vertex wheel is hyperbolic (trace 3)."""
    S = ff_disk_surface(1)
    tr = S.transitions[("e", ("b", 0), "c")]
    A = intmat([[2, 1], [1, 1]])
    transitions = dict(S.transitions)
    transitions[("e", ("b", 0), "c")] = EdgeTransition(tr.from_face, tr.to_face, A, tr.t)
    return AffineSurface(base=S.base, charts={}, transitions=transitions)


def test_trace3_wheel_not_regular():
    S = trace3_disk()
    rep = validate_affine(S)
    assert not rep.valid
    assert any("identity" in v for v in rep.violations)


def test_trace3_wheel_not_focus_focus():
    S = trace3_disk()
    S.markings["c"] = SingularityMark("focus_focus", 1)
    rep = validate_affine(S)
    assert not rep.valid
    assert any("unipotent" in v for v in rep.violations)


def test_dhat_degree1_zero_translations():
    S = zero_translation_torus()
    R = build_R_sheaf(S)
    h1 = cohomology(R, 1)
    _, ses = build_I_sheaf(S)
    for g in h1.generator_cocycles():
        _, coords = dhat(S, CohomologyClass(R, 1, g), ses)
        assert all(c == 0 for c in coords)


def test_unipotent_power_against_smith_form():
    # k of W = P [[1, k], [0, 1]] P^-1 is the first Smith invariant of W - I
    from math import gcd

    from torusbase.affine import fixed_covector
    from torusbase.exact import inv2, snf

    rng = random.Random(29)
    for _ in range(100):
        k = rng.randint(-6, 6)
        P = eye(2)
        for _ in range(4):
            s = rng.randint(-3, 3)
            P = P.dot(intmat([[1, s], [0, 1]] if rng.random() < 0.5 else [[1, 0], [s, 1]]))
        W = P.dot(intmat([[1, k], [0, 1]])).dot(inv2(P))
        assert unipotent_power(W) == snf(W - eye(2)).diagonal[0] == abs(k)
        xi = fixed_covector(W)
        if k == 0:
            assert xi is None
            continue
        # primitive, fixed by the dual action, first nonzero entry positive
        assert all(a == b for a, b in zip(W.T.dot(xi), xi))
        assert next(x for x in xi if x != 0) > 0
        assert gcd(int(xi[0]), int(xi[1])) == 1
    assert unipotent_power(intmat([[2, 1], [1, 1]])) is None
    assert unipotent_power(intmat([[-1, 1], [0, -1]])) is None


# ---------------------------------------------------------------------------
# The affine-function sheaf against its reference construction.  The
# functions below are the construction build_I_sheaf used before it read I
# off R and the translations of R's star walk: a second star walk per
# vertex, and 3x3 Fraction products of _affine_block with the stalk
# inclusion.  Kept verbatim as the reference.


def covector_transport(S, v):
    """Dual transports along the star fan of v, per star face."""
    faces, edges, closed, T = star_transports(S, v)
    duals = [dual_matrix(m[0]) for m in T]
    return faces, edges, closed, T, duals


def _affine_block(A, t):
    """Restriction of (constant, covector) data across a transition."""
    D = dual_matrix(A)
    M = zeros(3, 3, "Q")
    M[0, 0] = Fraction(1)
    for j in range(2):
        M[0, 1 + j] = -sum(Fraction(t[i]) * Fraction(D[i, j]) for i in range(2))
    for i in range(2):
        for j in range(2):
            M[1 + i, 1 + j] = Fraction(D[i, j])
    return M


def _build_I_sheaf(S, R):
    """build_I_sheaf on top of the monodromy sheaf R of S, built already."""
    from torusbase.sheaves import constant_sheaf

    X = S.base
    RQ = CellularSheaf(
        X,
        "Q",
        {c: R.stalk(c) for c in X.cells},
        {k: M.astype(object) * Fraction(1) for k, M in R.restrictions.items()},
    )
    stalks = {c: Stalk(1 + R.rank(c)) for c in X.cells}
    restrictions = {}
    for e in X.cells_of_dim(1):
        cofs = [g for g, _ in X.cofaces_of(e)]
        if len(cofs) == 1:
            restrictions[(e, cofs[0])] = eye(3, "Q")
        else:
            tr = S.transitions[e]
            restrictions[(e, tr.from_face)] = eye(3, "Q")
            restrictions[(e, tr.to_face)] = _affine_block(tr.A, tr.t)
    for v in X.cells_of_dim(0):
        faces, edges, closed, T, duals = covector_transport(S, v)
        rv = R.rank(v)
        incl = zeros(3, 1 + rv, "Q")
        incl[0, 0] = Fraction(1)
        if rv == 1:
            xi = None
            wheel = vertex_wheel(S, v)
            xi = fixed_covector(wheel[0])
            incl[1, 1] = Fraction(xi[0])
            incl[2, 1] = Fraction(xi[1])
        else:
            incl[1, 1] = Fraction(1)
            incl[2, 2] = Fraction(1)
        star_edges = [e for e, _ in X.cofaces_of(v) if X.dim(e) == 1]
        for e in star_edges:
            owner = _edge_frame_owner(S, e)
            idx = faces.index(owner)
            block = _affine_block(T[idx][0], T[idx][1])
            restrictions[(v, e)] = block.dot(incl)
    I = CellularSheaf(X, "Q", stalks, restrictions)
    rep = validate_sheaf(I)
    if not rep.valid:
        raise AffineError("affine-function sheaf invalid: %s" % rep)
    QQ = constant_sheaf(X, 1, "Q")
    iblocks = {}
    pblocks = {}
    for c in X.cells:
        r = R.rank(c)
        ib = zeros(1 + r, 1, "Q")
        ib[0, 0] = Fraction(1)
        pb = zeros(r, 1 + r, "Q")
        for i in range(r):
            pb[i, 1 + i] = Fraction(1)
        iblocks[c] = ib
        pblocks[c] = pb
    ses = ShortExactSequence(
        i=SheafMap(QQ, I, iblocks), p=SheafMap(I, RQ, pblocks)
    )
    return I, ses


def _assert_same_sheaf(F, G):
    """F and G have the same stalks and, restriction by restriction, the same
    blocks, every entry a Fraction."""
    assert F.ring == G.ring == "Q"
    assert {c: s.rank for c, s in F.stalks.items()} == {c: s.rank for c, s in G.stalks.items()}
    assert list(F.restrictions) == list(G.restrictions)
    for key, M in F.restrictions.items():
        N = G.restrictions[key]
        assert M.shape == N.shape, key
        assert all(type(x) is Fraction for x in M.flat), key
        assert M.tolist() == N.tolist(), key


def _assert_I_matches_reference(S):
    I, ses = build_I_sheaf(S)
    I_ref, ses_ref = _build_I_sheaf(S, build_R_sheaf(S))
    _assert_same_sheaf(I, I_ref)
    _assert_same_sheaf(ses.C, ses_ref.C)
    for c in S.base.cells:
        for got, ref in ((ses.i.block(c), ses_ref.i.block(c)), (ses.p.block(c), ses_ref.p.block(c))):
            assert got.tolist() == ref.tolist()
    return I


def _affine_catalog_entries():
    from torusbase.catalog import build, catalog_names

    return [n for n in catalog_names() if build(n).kind == "affine"]


@pytest.mark.parametrize("name", _affine_catalog_entries())
def test_I_sheaf_matches_reference_on_catalog(name):
    from torusbase.catalog import build

    _assert_I_matches_reference(build(name).payload)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("size", [3, 4, 5])
def test_I_sheaf_matches_reference_on_flat_tori(m, size):
    _assert_I_matches_reference(flat_torus_surface(m, size=size))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_I_sheaf_matches_reference_on_ff_disks(k):
    _assert_I_matches_reference(ff_disk_surface(k))


@pytest.mark.parametrize(
    "surface",
    [lambda: ff_disk_surface(2), lambda: flat_torus_surface(2, size=3), klein_affine_surface],
    ids=["ff_disk:2", "flat_torus:2", "klein_affine"],
)
def test_I_sheaf_matches_reference_after_half_integer_recharting(surface):
    rng = random.Random(47)
    S = surface()
    halves = False
    for _ in range(3):
        maps = {}
        for f in S.base.cells_of_dim(2):
            U = eye(2)
            U[0, 1] = rng.randint(-2, 2)
            if rng.random() < 0.5:
                U = U.T
            c = fracvec([Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3), 2)])
            maps[f] = (U, c)
        S2 = rechart(S, maps)
        assert validate_affine(S2).valid
        I = _assert_I_matches_reference(S2)
        halves |= any(x.denominator == 2 for M in I.restrictions.values() for x in M.flat)
    assert halves


# ---------------------------------------------------------------------------
# The transports against their reference construction.  The functions below
# are the numpy object-array bodies the affine layer used before it ran on
# tuples of Python ints: affine maps as (A, t) arrays composed with .dot,
# the star walk, the wheel, loop holonomy, the HNF fixed covector, the
# boundary word holonomy and rechart.  Kept verbatim as the reference, with
# their names prefixed by _old_.


def _old_affine_compose(m2, m1):
    """(B, s) after (A, t): x -> B(Ax + t) + s."""
    B, s = m2
    A, t = m1
    return B.dot(A), B.dot(t) + s


def _old_affine_inverse(m):
    from torusbase.exact import inv2

    A, t = m
    Ai = inv2(A)
    return Ai, -Ai.dot(t)


def _old_affine_identity():
    return eye(2), fracvec([0, 0])


def _old_dual_matrix(A):
    """Covector pushforward: inverse transpose."""
    from torusbase.exact import inv2

    return inv2(A).T.copy()


def _old_crossing(S, edge, from_face):
    """Affine map for crossing edge out of from_face."""
    tr = S.transitions[edge]
    m = (tr.A, tr.t)
    if tr.from_face == from_face:
        return m, tr.to_face
    if tr.to_face == from_face:
        return _old_affine_inverse(m), tr.from_face
    raise AffineError("face %s is not a side of edge %s" % (from_face, edge))


def _old_star_transports(S, v):
    """Affine transports from the first star face's frame to every star face."""
    from torusbase.complexes import vertex_star_cycle

    faces, edges, closed = vertex_star_cycle(S.base, v)
    T = [_old_affine_identity()]
    for i, e in enumerate(edges if not closed else edges[:-1]):
        m, other = _old_crossing(S, e, faces[i])
        if other != faces[i + 1]:
            raise AffineError("star walk mismatch at %s" % (v,))
        T.append(_old_affine_compose(m, T[i]))
    return faces, edges, closed, T


def _old_vertex_wheel(S, v):
    """Total affine holonomy around an interior vertex, or None on boundary."""
    return _old_close_wheel(S, v, *_old_star_transports(S, v))


def _old_close_wheel(S, v, faces, edges, closed, T):
    """vertex_wheel from the transports of a star walk already made."""
    if not closed:
        return None
    m, other = _old_crossing(S, edges[-1], faces[-1])
    if other != faces[0]:
        raise AffineError("star walk does not close at %s" % (v,))
    return _old_affine_compose(m, T[-1])


def _old_loop_holonomy(S, loop):
    """Affine holonomy of a face loop, in the frame of its first face."""
    m = _old_affine_identity()
    for i, e in enumerate(loop.edges):
        step, other = _old_crossing(S, e, loop.faces[i])
        if other != loop.faces[i + 1]:
            raise AffineError("loop does not follow edge %s" % (e,))
        m = _old_affine_compose(step, m)
    return m


def _old_fixed_covector(W):
    """Primitive covector fixed by the dual of the wheel linear part W.

    The fixed covectors form the lattice ker (W - I)^T; when it has rank 1
    its generator is taken to be its HNF row, whose first nonzero entry is
    positive.
    """
    from reference import lattice_hnf
    from torusbase.exact import kernel

    L = lattice_hnf(kernel((W - eye(2)).T).T)
    if L.shape[0] != 1:
        return None
    return L[0].copy()


def _old_boundary_word_holonomy(S, basepoint=None):
    """Global relator of the monodromy presentation, as a holonomy product."""
    from torusbase.complexes import _dual_tree, boundary_traversal

    X = S.base
    if basepoint is None:
        basepoint = X.cells_of_dim(2)[0]
    walk = boundary_traversal(X, basepoint, record_tree=True)
    tree, _ = _dual_tree(X, basepoint)
    transport = {basepoint: _old_affine_identity()}

    def T(face):
        if face not in transport:
            parent, e = tree[face]
            step, other = _old_crossing(S, e, parent)
            if other != face:
                raise AffineError("tree walk mismatch at %s" % (e,))
            transport[face] = _old_affine_compose(step, T(parent))
        return transport[face]

    total = _old_affine_identity()
    for e, f, g, kind in walk:
        if g is None:
            raise AffineError("boundary word holonomy requires a closed surface")
        if kind == "tree":
            continue
        step, other = _old_crossing(S, e, f)
        if other != g:
            raise AffineError("walk mismatch at %s" % (e,))
        based = _old_affine_compose(
            _old_affine_inverse(T(g)), _old_affine_compose(step, T(f))
        )
        total = _old_affine_compose(based, total)
    return total


def _old_rechart(S, maps):
    """Apply a unimodular affine change of frame to some faces."""
    from torusbase.exact import intvec

    def get(face):
        return maps.get(face, _old_affine_identity())

    charts = {}
    for f, ch in S.charts.items():
        U, c = get(f)
        charts[f] = {v: tuple(U.dot(fracvec(p)) + c) for v, p in ch.items()}
    transitions = {}
    for e, tr in S.transitions.items():
        m = _old_affine_compose(
            get(tr.to_face),
            _old_affine_compose((tr.A, tr.t), _old_affine_inverse(get(tr.from_face))),
        )
        transitions[e] = EdgeTransition(tr.from_face, tr.to_face, m[0], m[1])
    chern = {}
    for f, val in S.chern_cocycle.items():
        U, _ = get(f)
        vec = _old_dual_matrix(U).dot(intvec([val[0], val[1]]))
        chern[f] = (int(vec[0]), int(vec[1]))
    return AffineSurface(
        base=S.base,
        charts=charts,
        transitions=transitions,
        markings=S.markings,
        chern_cocycle=chern,
    )


def _typed(x):
    """Nested lists of (type name, value) pairs: equal only when the values
    and their types are equal, so an int for a Fraction is a difference."""
    if isinstance(x, tuple):
        return tuple(_typed(y) for y in x)
    if hasattr(x, "tolist"):
        x = x.tolist()
    if isinstance(x, list):
        return [_typed(y) for y in x]
    return (type(x).__name__, x)


def _half_integer_maps(S, rng):
    maps = {}
    for f in S.base.cells_of_dim(2):
        U = eye(2)
        U[0, 1] = rng.randint(-2, 2)
        if rng.random() < 0.5:
            U = U.T
        c = fracvec([Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3), 2)])
        maps[f] = (U, c)
    return maps


def _transport_surfaces():
    """(id, make) for the catalog's affine entries, flat_torus:1..3 at
    sizes 3..5, ff_disk:1..3 and seeded half-integer rechartings."""
    from torusbase.catalog import build

    out = [(n, lambda n=n: build(n).payload) for n in _affine_catalog_entries()]
    out += [
        ("flat_torus:%d/%d" % (m, n), lambda m=m, n=n: flat_torus_surface(m, size=n))
        for m in (1, 2, 3)
        for n in (3, 4, 5)
    ]
    out += [("ff_disk:%d" % k, lambda k=k: ff_disk_surface(k)) for k in (1, 2, 3)]
    for name, surface in (
        ("ff_disk:2", lambda: ff_disk_surface(2)),
        ("flat_torus:2/3", lambda: flat_torus_surface(2, size=3)),
        ("klein_affine", klein_affine_surface),
    ):
        for seed in (1, 2):
            out.append((
                "%s recharted %d" % (name, seed),
                lambda s=surface, seed=seed: _old_rechart(s(), _half_integer_maps(s(), random.Random(seed))),
            ))
    return out


_TRANSPORT_SURFACES = _transport_surfaces()


@pytest.mark.parametrize(
    "surface", [b for _, b in _TRANSPORT_SURFACES], ids=[i for i, _ in _TRANSPORT_SURFACES]
)
def test_transports_match_reference(surface):
    S = surface()
    assert validate_affine(S).valid
    for v in S.base.cells_of_dim(0):
        got, ref = star_transports(S, v), _old_star_transports(S, v)
        assert got[:3] == ref[:3]
        assert _typed(tuple(got[3])) == _typed(tuple(ref[3])), v
        wheel, ref_wheel = vertex_wheel(S, v), _old_vertex_wheel(S, v)
        assert (wheel is None) == (ref_wheel is None)
        if wheel is None:
            continue
        assert _typed(wheel) == _typed(ref_wheel), v
        xi, ref_xi = fixed_covector(wheel[0]), _old_fixed_covector(ref_wheel[0])
        assert (xi is None) == (ref_xi is None)
        if xi is not None:
            assert _typed(xi) == _typed(ref_xi), v
    for e in S.transitions:
        for face in (S.transitions[e].from_face, S.transitions[e].to_face):
            (m, other), (ref_m, ref_other) = S.crossing(e, face), _old_crossing(S, e, face)
            assert other == ref_other
            assert _typed(m) == _typed(ref_m)
            assert _typed(dual_matrix(m[0])) == _typed(_old_dual_matrix(ref_m[0]))
    rep = monodromy_rep(S)
    assert _typed(rep.images) == _typed([_old_loop_holonomy(S, l)[0] for l in rep.loops])
    try:
        ref = _old_boundary_word_holonomy(S)
    except AffineError as exc:
        with pytest.raises(AffineError, match=str(exc)):
            boundary_word_holonomy(S)
    else:
        assert _typed(boundary_word_holonomy(S)) == _typed(ref)


def test_public_affine_maps_match_reference():
    rng = random.Random(61)
    for _ in range(50):
        ms = []
        for _ in range(2):
            U = eye(2)
            for _ in range(3):
                s = rng.randint(-3, 3)
                U = U.dot(intmat([[1, s], [0, 1]] if rng.random() < 0.5 else [[0, 1], [1, 0]]))
            t = fracvec([Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])) for _ in range(2)])
            ms.append((U, t))
        assert _typed(affine_compose(*ms)) == _typed(_old_affine_compose(*ms))
        assert _typed(affine_inverse(ms[0])) == _typed(_old_affine_inverse(ms[0]))
        assert _typed(dual_matrix(ms[0][0])) == _typed(_old_dual_matrix(ms[0][0]))
    assert _typed(affine_identity()) == _typed(_old_affine_identity())
    with pytest.raises(ValueError):
        affine_inverse((intmat([[2, 0], [0, 1]]), fracvec([0, 0])))


@pytest.mark.parametrize(
    "surface",
    [lambda: ff_disk_surface(2), lambda: flat_torus_surface(2, size=3), klein_affine_surface],
    ids=["ff_disk:2", "flat_torus:2", "klein_affine"],
)
def test_rechart_matches_reference(surface):
    rng = random.Random(53)
    S = surface()
    S.chern_cocycle = {f: (rng.randint(-3, 3), rng.randint(-3, 3)) for f in S.base.cells_of_dim(2)}
    for _ in range(3):
        maps = _half_integer_maps(S, rng)
        got, ref = rechart(S, maps), _old_rechart(S, maps)
        assert _typed(got.charts) == _typed(ref.charts)
        assert list(got.transitions) == list(ref.transitions)
        for e, tr in got.transitions.items():
            r = ref.transitions[e]
            assert (tr.from_face, tr.to_face) == (r.from_face, r.to_face)
            assert _typed((tr.A, tr.t)) == _typed((r.A, r.t)), e
        assert got.chern_cocycle == ref.chern_cocycle
        assert all(type(x) is int for v in got.chern_cocycle.values() for x in v)
        S = got
    assert any(x.denominator == 2 for tr in S.transitions.values() for x in tr.t)


def test_fixed_covector_matches_hnf_reference():
    from torusbase.exact import inv2

    rng = random.Random(67)
    for _ in range(100):
        k = rng.randint(-6, 6)
        P = eye(2)
        for _ in range(4):
            s = rng.randint(-3, 3)
            P = P.dot(intmat([[1, s], [0, 1]] if rng.random() < 0.5 else [[1, 0], [s, 1]]))
        if rng.random() < 0.5:
            P = P.dot(intmat([[0, 1], [1, 0]]))
        W = P.dot(intmat([[1, k], [0, 1]])).dot(inv2(P))
        xi, ref = fixed_covector(W), _old_fixed_covector(W)
        assert (xi is None) == (ref is None) == (k == 0)
        if xi is not None:
            assert _typed(xi) == _typed(ref), W.tolist()
    others = [
        [[1, 0], [0, 1]],
        [[2, 1], [1, 1]],
        [[-1, 0], [0, 1]],
        [[1, 0], [0, -1]],
        [[-1, 1], [0, -1]],
        [[0, -1], [1, 0]],
        [[1, 0], [3, -1]],
        [[-1, 0], [0, -1]],
        [[0, 1], [1, 0]],
    ]
    for rows in others:
        W = intmat(rows)
        xi, ref = fixed_covector(W), _old_fixed_covector(W)
        assert (xi is None) == (ref is None), rows
        if xi is not None:
            assert _typed(xi) == _typed(ref), rows
    assert fixed_covector(eye(2)) is None


def chartless_ff_disk(t, A):
    """ff_disk:1 without charts; its shear transition gets A and translation t."""
    S = ff_disk_surface(1)
    transitions = dict(S.transitions)
    e0 = next(e for e, tr in S.transitions.items() if tr.A[0, 1] != 0)
    tr = transitions[e0]
    transitions[e0] = EdgeTransition(tr.from_face, tr.to_face, intmat(A), fracvec(t))
    return AffineSurface(base=S.base, charts={}, transitions=transitions, markings=S.markings)


# the standard shear, whose W - I has the column (1, 0), and a conjugate of
# it whose W - I has the column (-1, -1)
_SHEAR = [[1, 1], [0, 1]]
_CONJUGATE_SHEAR = [[0, 1], [-1, 2]]


@pytest.mark.parametrize(
    "t, A",
    [
        ((0, 0), _SHEAR),
        ((1, 0), _SHEAR),
        ((Fraction(-5, 2), 0), _SHEAR),
        ((1, 1), _CONJUGATE_SHEAR),
        ((Fraction(-3, 2), Fraction(-3, 2)), _CONJUGATE_SHEAR),
    ],
)
def test_chartless_focus_focus_with_fixed_point(t, A):
    S = chartless_ff_disk(t, A)
    W, s = vertex_wheel(S, "c")
    assert LinearSystem(eye(2) - W).solve(s, "Q") is not None
    assert validate_affine(S).valid


_NO_FIXED_POINT = [
    ((0, 1), _SHEAR),
    ((3, Fraction(1, 2)), _SHEAR),
    ((1, -1), _CONJUGATE_SHEAR),
    ((0, Fraction(1, 3)), _CONJUGATE_SHEAR),
]


@pytest.mark.parametrize("t, A", _NO_FIXED_POINT)
def test_chartless_focus_focus_without_fixed_point(t, A):
    from torusbase.surgery import realizability_report_2d

    S = chartless_ff_disk(t, A)
    W, s = vertex_wheel(S, "c")
    assert LinearSystem(eye(2) - W).solve(s, "Q") is None
    rep = validate_affine(S)
    assert not rep.valid
    assert rep.violations == ["wheel at focus-focus vertex c has no fixed point"]
    # I is no sheaf, and the moduli say so though H^1 has no generator to
    # build anything from
    R = build_R_sheaf(S)
    assert cohomology(R, 1).generator_cocycles() == []
    want = _check_text(lambda: _build_I_sheaf(S, R))
    assert want.startswith("affine-function sheaf invalid: restrictions around (c <= ('t', 0)) do not commute")
    assert _check_text(lambda: lagrangian_moduli(S)) == want
    assert _check_text(lambda: realizability_report_2d(S)) == want


@pytest.mark.parametrize(
    "surface", [b for _, b in _TRANSPORT_SURFACES], ids=[i for i, _ in _TRANSPORT_SURFACES]
)
def test_dhat_agrees_with_the_connecting_map(surface):
    # dhat lifts through the explicit section of I -> R_Q, connecting_map
    # through SheafMap._lifter; the canonical coordinates must agree
    from torusbase.sheaves import connecting_map

    S = surface()
    R = build_R_sheaf(S)
    _, ses = build_I_sheaf(S)
    d = connecting_map(ses, 1)
    for g in cohomology(R, 1).generator_cocycles():
        _, got = dhat(S, CohomologyClass(R, 1, g), ses)
        coef = d.source.to_presentation_coords(fracvec(g))
        assert got == d.target.presentation.reduce(d.matrix.dot(coef))


# ---------------------------------------------------------------------------
# The moduli path without I: the translation check against validate_sheaf on
# the reference I, and dhat read off the translation cochain map of R.


def _check_text(check):
    """The text of the AffineError check() raises, or None when it returns."""
    try:
        check()
    except AffineError as exc:
        return str(exc)
    return None


def _translation_verdicts(S):
    """(the translation check on R of S, the reference I's validate_sheaf)."""
    from torusbase.affine import _check_translations

    R = build_R_sheaf(S)
    return _check_text(lambda: _check_translations(R)), _check_text(lambda: _build_I_sheaf(S, R))


def _shifted_transition(S, seed):
    """S with a seeded nonzero change to the translation of one transition."""
    rng = random.Random(seed)
    e = rng.choice(sorted(S.transitions, key=str))
    tr = S.transitions[e]
    step = fracvec([Fraction(rng.randint(1, 3), rng.choice((1, 2, 3))), rng.randint(-1, 1)])
    transitions = dict(S.transitions)
    transitions[e] = EdgeTransition(tr.from_face, tr.to_face, tr.A, tr.t + step)
    return AffineSurface(base=S.base, charts={}, transitions=transitions, markings=S.markings)


_CHECKED_SURFACES = _TRANSPORT_SURFACES + [
    ("no fixed point %d" % i, lambda t=t, A=A: chartless_ff_disk(t, A)) for i, (t, A) in enumerate(_NO_FIXED_POINT)
]


@pytest.mark.parametrize("name, surface", _CHECKED_SURFACES, ids=[i for i, _ in _CHECKED_SURFACES])
def test_translation_check_matches_validate_sheaf_on_the_reference_I(name, surface):
    S = surface()
    got, ref = _translation_verdicts(S)
    assert got == ref
    assert (ref is None) == (name in dict(_TRANSPORT_SURFACES))
    for seed in (1, 2) if S.transitions else ():
        got, ref = _translation_verdicts(_shifted_transition(S, seed))
        assert got == ref
        # a closed flat torus has no room for another translation; a disk may
        if name.startswith("flat_torus"):
            assert ref.startswith("affine-function sheaf invalid: restrictions around")


@pytest.mark.parametrize("pick", [0, 7, -1])
def test_a_perturbed_translation_of_R_is_reported(pick, monkeypatch):
    import torusbase.affine as affine

    S = flat_torus_surface(1, size=3)

    def perturbed(*_):
        R = build_R_sheaf(S)
        key = sorted(R._shifts, key=str)[pick]
        t = R._shifts[key]
        R._shifts[key] = (t[0] + Fraction(1, 3), t[1])
        return R

    with monkeypatch.context() as m:
        m.setattr(affine, "_check_translations", lambda R: None)
        I, _ = affine._build_I_sheaf(perturbed())
    rep = validate_sheaf(I)
    assert not rep.valid
    want = "affine-function sheaf invalid: %s" % rep
    monkeypatch.setattr(affine, "build_R_sheaf", perturbed)
    assert _check_text(lambda: affine.build_I_sheaf(S)) == want
    assert _check_text(lambda: affine.lagrangian_moduli(S)) == want


def test_the_translation_check_runs_once_per_R(monkeypatch):
    import torusbase.affine as affine

    S = flat_torus_surface(1, size=3)
    calls = []
    real = affine._check_translations
    monkeypatch.setattr(affine, "_check_translations", lambda R: calls.append(R) or real(R))
    assert lagrangian_moduli(S) == (1, 1)
    assert calls == [build_R_sheaf(S)]
    # the I sheaf and the moduli again read the table the check passed on
    build_I_sheaf(S)
    assert lagrangian_moduli(S) == (1, 1)
    assert calls == [build_R_sheaf(S)]


def test_moduli_build_no_I_sheaf(monkeypatch):
    import torusbase.affine as affine
    from torusbase.surgery import realizability_report_2d

    def broken(*args, **kwargs):
        raise AssertionError("the moduli path built the I sheaf")

    for name in ("_build_I_sheaf", "build_I_sheaf", "ShortExactSequence", "SheafMap"):
        monkeypatch.setattr(affine, name, broken)
    assert lagrangian_moduli(flat_torus_surface()) == (1, 1)
    assert lagrangian_moduli(flat_torus_surface(2, size=4)) == (1, 1)
    assert lagrangian_moduli(cp2_triangle_surface()) == (0, 0)
    assert realizability_report_2d(ff_disk_surface(2)).verdict == "realizable"


@pytest.mark.parametrize(
    "surface",
    [lambda: flat_torus_surface(2, size=3), lambda: ff_disk_surface(2), klein_affine_surface],
    ids=["flat_torus:2", "ff_disk:2", "klein_affine"],
)
def test_dhat_on_a_plain_sheaf_reads_T_off_a_built_R(surface, monkeypatch):
    import torusbase.affine as affine

    S = surface()
    R = build_R_sheaf(S)
    _, ses = build_I_sheaf(S)
    plain_Z = CellularSheaf(R.base, "Z", R.stalks, R.restrictions)
    built = []
    monkeypatch.setattr(affine, "build_R_sheaf", lambda S: built.append(S) or build_R_sheaf(S))
    target = cohomology(ses.i.source, 2)
    for k in (0, 1):
        for g in cohomology(R, k).generator_cocycles():
            _, want = dhat(S, CohomologyClass(R, k, g), target=target if k == 1 else None)
            assert built == []
            for F in (plain_Z, ses.C):
                cls = CohomologyClass(F, k, fracvec(g) if F.ring == "Q" else g)
                _, got = dhat(S, cls, target=target if k == 1 else None)
                assert got == want
                assert built.pop() is S
