"""Acceptance suite: one test per headline criterion, all exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Everything here is integer or rational arithmetic, so every
comparison is equality; there are no tolerances to calibrate.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np
import pytest

from reference import cochain_matrix, moduli_rows
from torusbase.affine import (
    affine_eq,
    affine_identity,
    boundary_word_holonomy,
    build_R_sheaf,
    gl2_orbit_matrices,
    lagrangian_moduli,
    monodromy_rep,
    torus_bundle_h1,
    unipotent_power,
)
from torusbase.catalog import (
    cp2_triangle_surface,
    fake_base_space,
    flat_torus_surface,
    klein_affine_surface,
    sphere_24ff_surface,
    twisted_product_base,
)
from torusbase.complexes import classify_surface, pi1_presentation, validate
from torusbase.exact import (
    AbelianGroup,
    eye,
    intmat,
    intvec,
    snf,
    hnf,
    mat_eq,
)
from torusbase.polytopes import LatticePolytope, delzant_check, vertex_blowup
from torusbase.sheaves import (
    CellularSheaf,
    CohomologyClass,
    SheafAutomorphism,
    SheafMap,
    ShortExactSequence,
    Stalk,
    automorphism_action,
    class_add,
    class_from_components,
    class_reduce,
    cohomology,
    connecting_map,
    constant_sheaf,
    induced_map,
    orbit_of_class,
    rank_exact_at,
    restrict_sheaf,
    subcomplex,
    torsion_exact_at,
)
from torusbase.surgery import (
    GluingSpec,
    chern_class_coordinates,
    dehn_reglue,
    gluing_obstruction,
)


def report(number, ok, text):
    line = "ACCEPTANCE %d: %s - %s" % (number, "PASS" if ok else "FAIL", text)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. the torus-base example


def test_criterion_1_torus_base():
    S = flat_torus_surface()
    R = build_R_sheaf(S)
    h2 = cohomology(R, 2)
    ok = h2.group == AbelianGroup(2)

    # the engine's canonical basis, pinned through unit classes
    f0 = S.base.cells_of_dim(2)[0]
    u1 = class_reduce(class_from_components(R, 2, {f0: [1, 0]}), h2)
    u2 = class_reduce(class_from_components(R, 2, {f0: [0, 1]}), h2)
    basis = intmat([[u1[0], u2[0]], [u1[1], u2[1]]])
    ok = ok and mat_eq(basis, eye(2))

    # the honest cellular automorphism for the quarter rotation agrees with
    # the declared coordinate action
    rot = intmat([[0, -1], [1, 0]])

    def rot_cell(c):
        kind = c[0]
        if kind == "v":
            return ("v", (-c[2]) % 3, c[1])
        if kind == "f":
            return ("f", (-c[2] - 1) % 3, c[1])
        a, b = rot_cell(c[1]), rot_cell(c[2])
        lo, hi = (a, b) if str(a) <= str(b) else (b, a)
        return ("e", lo, hi)

    from torusbase.affine import dual_matrix

    D = dual_matrix(rot)
    aut = SheafAutomorphism(R, {c: rot_cell(c) for c in S.base.cells}, {c: D for c in S.base.cells})
    for sample in [(1, 0), (2, 3), (-1, 4)]:
        cls = class_from_components(R, 2, {f0: list(sample)})
        moved = class_reduce(automorphism_action(aut, cls), h2)
        want = tuple(int(x) for x in gl2_orbit_matrices()[0].dot(intvec(sample)))
        ok = ok and moved == want

    # orbit enumeration: the gcd is a complete invariant on Z^2
    mats = gl2_orbit_matrices()
    for c in [(0, 0), (1, 0), (2, 4), (3, 5), (-6, 9), (4, 0)]:
        orbit = orbit_of_class(mats, c, max_word_length=6)
        g = gcd(abs(c[0]), abs(c[1]))
        ok = ok and all(gcd(abs(a), abs(b)) == g for a, b in orbit)
        ok = ok and (g, 0) in orbit

    # the first homology of the total spaces, for every |c_i| <= 10
    for c1 in range(-10, 11):
        for c2 in range(-10, 11):
            g = gcd(abs(c1), abs(c2))
            if g == 0:
                want = AbelianGroup(4)
            elif g == 1:
                want = AbelianGroup(3)
            else:
                want = AbelianGroup(3, (g,))
            ok = ok and torus_bundle_h1((c1, c2)) == want
    report(1, ok, "torus base: H2 = Z^2, gcd orbits, H1(M) = Z^3 + Z/m")


# ---------------------------------------------------------------------------
# 2. symplectic moduli


def test_criterion_2_moduli():
    m_torus = lagrangian_moduli(flat_torus_surface())
    m_tri = lagrangian_moduli(cp2_triangle_surface())
    ok = m_torus == (1, 1) and m_tri == (0, 0)
    report(2, ok, "moduli: flat torus (1,1) = R/Z, Delzant triangle (0,0)")


# ---------------------------------------------------------------------------
# 3. Klein bottle


def test_criterion_3_klein():
    S = klein_affine_surface()
    X = S.base
    h2 = cohomology(constant_sheaf(X, 1), 2).group
    pres = pi1_presentation(X, X.cells_of_dim(0)[0])
    ab = pres.abelianization()
    ok = h2 == AbelianGroup(0, (2,)) and ab == AbelianGroup(1, (2,))
    report(3, ok, "Klein bottle: H2(K,Z) = Z/2 and pi1 abelianization Z + Z/2")


# ---------------------------------------------------------------------------
# 4. the fake base space


def test_criterion_4_fake_base_space():
    fb = fake_base_space()
    rep = gluing_obstruction(fb["spec"], fb["class_minus"], fb["class_plus"])
    ok = str(rep.group) == "Z/2" and rep.coordinates == (1,) and not rep.vanishes
    report(4, ok, "fake base space: obstruction is the nonzero element of Z/2")


# ---------------------------------------------------------------------------
# 5. the 24-point sphere


def test_criterion_5_sphere():
    S = sphere_24ff_surface()
    from torusbase.affine import validate_affine

    ok = validate_affine(S).valid
    ok = ok and S.focus_focus_count() == 24
    ok = ok and classify_surface(S.base, 24).kind == "sphere"
    rep = monodromy_rep(S)
    ks = [
        unipotent_power(M)
        for l, M in zip(rep.loops, rep.images)
        if l.kind == "vertex" and S.mark(l.about).kind == "focus_focus"
    ]
    ok = ok and len(ks) == 24 and set(ks) == {1}
    ok = ok and affine_eq(boundary_word_holonomy(S), affine_identity())
    report(5, ok, "sphere: 24 focus-focus points, unipotent loops, trivial relator")


# ---------------------------------------------------------------------------
# 6. twisted products


def test_criterion_6_twisted_products():
    Z, F = twisted_product_base()
    ok = cohomology(F, 2).group == AbelianGroup(4)
    report(6, ok, "twisted products: H2(O1 x O2, R) = Z^4")


# ---------------------------------------------------------------------------
# 7. Delzant operations


def test_criterion_7_delzant():
    P = LatticePolytope(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])
    ok = delzant_check(P).ok
    bad = LatticePolytope(2, [((-1, 0), 0), ((0, -1), 0), ((1, 2), 2)])
    rep = delzant_check(bad)
    ok = ok and not rep.ok and rep.failing_vertex is not None
    Q = vertex_blowup(P, (Fraction(0), Fraction(0)), Fraction(1, 3))
    ok = ok and delzant_check(Q).ok and len(Q.halfspaces) == len(P.halfspaces) + 1
    report(7, ok, "Delzant: triangle passes, non-example fails, blow-up passes")


# ---------------------------------------------------------------------------
# 8. property suites


def det2x2ish(M):
    n = M.shape[0]
    A = [[int(x) for x in row] for row in M]
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def test_criterion_8a_normal_forms():
    rng = random.Random(2024)
    count = 0
    ok = True
    for _ in range(500):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        M = intmat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        dec = snf(M)
        ok = ok and mat_eq(dec.D, dec.U.dot(M).dot(dec.V))
        ok = ok and abs(det2x2ish(dec.U)) == 1 and abs(det2x2ish(dec.V)) == 1
        d = [x for x in dec.diagonal if x != 0]
        ok = ok and all(b % a == 0 for a, b in zip(d, d[1:]))
        H, Uh = hnf(M)
        ok = ok and mat_eq(H, Uh.dot(M)) and abs(det2x2ish(Uh)) == 1
        count += 1
    report(8, ok, "(a) SNF/HNF invariants on %d random matrices" % count)


def small_complexes():
    from test_complexes import circle, disk_complex, octa_sphere, rp2_complex

    return [
        ("circle3", circle(3)),
        ("circle5", circle(5)),
        ("disk", disk_complex()),
        ("rp2", rp2_complex()),
        ("sphere", octa_sphere()),
    ]


def random_unimodular(rng, n):
    U = eye(n)
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            U[i] = U[i] + rng.randint(-1, 1) * U[j]
    return U


def gauged_constant(X, rank, rng):
    from torusbase.exact import unimodular_inverse

    G = {c: random_unimodular(rng, rank) for c in X.cells}
    Ginv = {c: unimodular_inverse(G[c]) for c in X.cells}
    restrictions = {}
    for (cof, face) in X.incidence:
        restrictions[(face, cof)] = G[cof].dot(Ginv[face])
    F = CellularSheaf(X, "Z", {c: Stalk(rank) for c in X.cells}, restrictions)
    return F, G, Ginv


def random_ses(X, rng):
    kind = rng.choice(["split", "bockstein"])
    if kind == "split":
        from torusbase.exact import unimodular_inverse

        a, c = 1, rng.randint(1, 2)
        B, G, Ginv = gauged_constant(X, a + c, rng)
        U0 = random_unimodular(rng, a + c)
        U0inv = unimodular_inverse(U0)
        iblocks = {}
        pblocks = {}
        for cell in X.cells:
            iblocks[cell] = G[cell].dot(U0)[:, :a].copy()
            pblocks[cell] = U0inv.dot(Ginv[cell])[a:, :].copy()
        Asheaf = CellularSheaf(
            X, "Z", {cell: Stalk(a) for cell in X.cells},
            {(f, cf): eye(a) for (cf, f) in X.incidence},
        )
        Csheaf = CellularSheaf(
            X, "Z", {cell: Stalk(c) for cell in X.cells},
            {(f, cf): eye(c) for (cf, f) in X.incidence},
        )
        return ShortExactSequence(
            i=SheafMap(Asheaf, B, iblocks), p=SheafMap(B, Csheaf, pblocks)
        )
    n = rng.choice([2, 3, 4])
    F, G, _ = gauged_constant(X, 1, rng)
    C = CellularSheaf(
        X,
        "Z",
        {cell: Stalk(1, (n,)) for cell in X.cells},
        dict(F.restrictions),
    )
    return ShortExactSequence(
        i=SheafMap(F, F, {cell: n * eye(1) for cell in X.cells}),
        p=SheafMap(F, C, {cell: eye(1) for cell in X.cells}),
    )


def les_maps(ses, top):
    """The reference long exact sequence in degrees 0..top: the numpy
    induced_map of the dense cochain matrices and of _delta_fn, on shared results."""
    res = lru_cache(None)(cohomology)
    out = []
    for k in range(top + 1):
        out.append(induced_map(res(ses.A, k), res(ses.B, k), cochain_matrix(ses.i, k).dot))
        out.append(induced_map(res(ses.B, k), res(ses.C, k), cochain_matrix(ses.p, k).dot))
        if k < top:
            out.append(induced_map(res(ses.C, k), res(ses.A, k + 1), _delta_fn(ses, k)))
    return out


def _augment(M, extra_rows_as_cols):
    """Columns of M plus torsion relation columns, for solving mod torsion
    with exact.LinearSystem, the reference solve of the connecting map."""
    L = extra_rows_as_cols
    return np.hstack([M, L.T]) if L.shape[0] else M


def _delta_fn(ses, k):
    from torusbase.exact import LinearSystem

    ring = ses.A.ring
    p_k = cochain_matrix(ses.p, k)
    i_k1 = cochain_matrix(ses.i, k + 1)
    dB = ses.B.differential(k)
    sys_p = LinearSystem(_augment(p_k, moduli_rows(ses.C, k)) if ring == "Z" else p_k)
    sys_i = LinearSystem(_augment(i_k1, moduli_rows(ses.B, k + 1)) if ring == "Z" else i_k1)
    nB = ses.B.cochain_rank(k)
    nA = ses.A.cochain_rank(k + 1)

    def delta(vec):
        b = sys_p.solve(vec, ring)[:nB]
        return sys_i.solve(dB.dot(b), ring)[:nA]

    return delta


def test_criterion_8b_les_exactness():
    rng = random.Random(77)
    complexes = small_complexes()
    checked = 0
    ok = True
    while checked < 100:
        name, X = complexes[rng.randrange(len(complexes))]
        ses = random_ses(X, rng)
        rep = ses.validate()
        ok = ok and rep.valid
        top = X.dimension
        maps = les_maps(ses, top)
        for f, g in zip(maps, maps[1:]):
            ok = ok and rank_exact_at(f, g)
            if len(X.cells) <= 30:
                ok = ok and torsion_exact_at(f, g)
        checked += 1
        if not ok:
            break
    report(8, ok, "(b) long-exact-sequence exactness on %d random sequences" % checked)


def test_criterion_8c_lift_independence():
    rng = random.Random(99)
    complexes = small_complexes()
    checked = 0
    ok = True
    while checked < 50:
        name, X = complexes[rng.randrange(len(complexes))]
        ses = random_ses(X, rng)
        for k in range(X.dimension):
            base = connecting_map(ses, k, check=False)
            other = connecting_map(ses, k, rng=rng, check=False)
            for j in range(base.matrix.shape[1]):
                a = base.target.presentation.reduce(base.matrix[:, j])
                b = other.target.presentation.reduce(other.matrix[:, j])
                ok = ok and a == b
            checked += 1
            if checked >= 50:
                break
        if not ok:
            break
    report(8, ok, "(c) connecting-map lift independence on %d cases" % checked)


def test_criterion_8d_class_additivity():
    rng = random.Random(123)
    S = flat_torus_surface()
    R = build_R_sheaf(S)
    h2 = cohomology(R, 2)
    d1 = R.differential(1)
    f0 = S.base.cells_of_dim(2)[0]
    ok = True
    for _ in range(10):
        chern = {}
        for m, coord in [(1, (1, 0)), (2, (0, 1)), (3, (-1, -1))]:
            chern[m] = class_from_components(R, 2, {f0: list(coord)})

        def comparison(i, j):
            # cocycle comparing system j to system i, shifted by a coboundary
            x = R.zero_cochain(1)
            for idx in range(len(x)):
                x[idx] = rng.randint(-3, 3)
            return CohomologyClass(R, 2, chern[j].cocycle - chern[i].cocycle + d1.dot(x))

        total = class_add(class_add(comparison(1, 2), comparison(2, 3)), comparison(3, 1))
        ok = ok and all(c == 0 for c in class_reduce(total, h2))
    report(8, ok, "(d) pairwise comparison classes of a triple sum to zero")


def test_criterion_8e_dehn_twist_untwist():
    rng = random.Random(321)
    S = flat_torus_surface(3)
    X = S.base
    disk = [("f", 1, 1)]
    cut = [
        e
        for e in X.cells_of_dim(1)
        if len(X.cofaces_of(e)) == 2
        and len([f for f, _ in X.cofaces_of(e) if f in disk]) == 1
    ]
    before = chern_class_coordinates(S)
    ok = True
    for _ in range(10):
        twist = {e: (rng.randint(-3, 3), rng.randint(-3, 3)) for e in cut}
        back = {e: (-a, -b) for e, (a, b) in twist.items()}
        S2 = dehn_reglue(S, disk, twist)
        S3 = dehn_reglue(S2, disk, back)
        ok = ok and chern_class_coordinates(S3) == before
    report(8, ok, "(e) Dehn twist then untwist restores the Chern class")


def strip_subcomplex(X, faces):
    cells = set()
    for f in faces:
        cells.add(f)
        for e, _ in X.faces_of(f):
            cells.add(e)
            for v, _ in X.faces_of(e):
                cells.add(v)
    return subcomplex(X, cells)


def test_criterion_8f_tubular_overlaps():
    rng = random.Random(555)
    surfaces = [flat_torus_surface(), klein_affine_surface()]
    sheaves = [build_R_sheaf(s) for s in surfaces]
    checked = 0
    ok = True
    while checked < 50:
        idx = rng.randrange(len(surfaces))
        S, R = surfaces[idx], sheaves[idx]
        X = S.base
        faces = X.cells_of_dim(2)
        # annulus: a full grid row; band: a partial row of consecutive faces
        rows = sorted({f[2] for f in faces})
        row = rng.choice(rows)
        row_faces = [f for f in faces if f[2] == row]
        if rng.random() < 0.5:
            chosen = row_faces
        else:
            k = rng.randint(1, len(row_faces) - 1)
            start = rng.randrange(len(row_faces))
            chosen = [row_faces[(start + i) % len(row_faces)] for i in range(k)]
        over = strip_subcomplex(X, chosen)
        G = restrict_sheaf(R, over)
        h2 = cohomology(G, 2)
        ok = ok and h2.group.is_trivial
        spec = GluingSpec(
            complex1=X, sheaf1=R, complex2=X, sheaf2=R,
            overlap1=over, overlap2=over,
            cell_map={c: c for c in over.cells},
            stalk_isos={c: eye(R.rank(c)) for c in over.cells},
        )
        x = G.zero_cochain(1)
        for i in range(len(x)):
            x[i] = rng.randint(-2, 2)
        cocycle = CohomologyClass(G, 2, G.differential(1).dot(x))
        zero = class_from_components(G, 2, {})
        rep = gluing_obstruction(spec, zero, cocycle)
        ok = ok and rep.group.is_trivial and rep.vanishes
        checked += 1
        if not ok:
            break
    report(8, ok, "(f) obstruction vanishes over %d tubular overlaps" % checked)
