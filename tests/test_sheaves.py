import random
import re
from fractions import Fraction

import pytest

from reference import _respects_moduli
from test_acceptance import les_maps
from test_complexes import circle, grid_torus, klein_grid, octa_sphere, point, rp2_complex

from torusbase.complexes import CellComplex, cell_key, product
from torusbase.errors import ValidationReport as SheafReport
from torusbase.exact import AbelianGroup, eye, fracmat, intmat, zeros
from torusbase.sheaves import (
    CellularSheaf,
    CohomologyClass,
    SheafAutomorphism,
    SheafError,
    SheafMap,
    ShortExactSequence,
    Stalk,
    automorphism_action,
    class_add,
    class_from_components,
    class_neg,
    class_reduce,
    cohomology,
    connecting_map,
    constant_sheaf,
    image_dimension,
    orbit_of_class,
    pullback_sum,
    rank_exact_at,
    restriction_on_cohomology,
    restrict_sheaf,
    subcomplex,
    torsion_exact_at,
    validate_sheaf,
)


def test_constant_sheaf_valid():
    for X in (point(), grid_torus(), klein_grid(), octa_sphere()):
        F = constant_sheaf(X, 1)
        assert validate_sheaf(F).valid


def test_bad_shape_reported():
    X = grid_torus()
    F = constant_sheaf(X, 1)
    key = next(iter(F.restrictions))
    F.restrictions[key] = eye(2)
    rep = validate_sheaf(F)
    assert not rep.valid
    assert str(key[0]) in str(rep)


def test_point_cohomology():
    F = constant_sheaf(point(), 3)
    assert cohomology(F, 0).group == AbelianGroup(3)
    assert cohomology(F, 1).group == AbelianGroup(0)
    assert cohomology(F, 5).group == AbelianGroup(0)


def test_classical_constant_cohomology():
    sphere = constant_sheaf(octa_sphere(), 1)
    assert cohomology(sphere, 0).group == AbelianGroup(1)
    assert cohomology(sphere, 1).group == AbelianGroup(0)
    assert cohomology(sphere, 2).group == AbelianGroup(1)
    torus = constant_sheaf(grid_torus(), 1)
    assert cohomology(torus, 0).group == AbelianGroup(1)
    assert cohomology(torus, 1).group == AbelianGroup(2)
    assert cohomology(torus, 2).group == AbelianGroup(1)
    klein = constant_sheaf(klein_grid(), 1)
    assert cohomology(klein, 2).group == AbelianGroup(0, (2,))
    rp2 = constant_sheaf(rp2_complex(), 1)
    assert cohomology(rp2, 2).group == AbelianGroup(0, (2,))
    assert cohomology(rp2, 1).group == AbelianGroup(0)


def test_torus_rank2_h2():
    F = constant_sheaf(grid_torus(), 2)
    assert cohomology(F, 2).group == AbelianGroup(2)


def test_d_squared_zero():
    for X in (grid_torus(), octa_sphere(), klein_grid()):
        F = constant_sheaf(X, 2)
        D1 = F.differential(1)
        D0 = F.differential(0)
        prod = D1.dot(D0)
        assert all(x == 0 for x in prod.flat)


def test_class_reduce_zero_and_coboundary():
    X = grid_torus()
    F = constant_sheaf(X, 2)
    h2 = cohomology(F, 2)
    zero = CohomologyClass(F, 2, F.zero_cochain(2))
    assert all(c == 0 for c in class_reduce(zero, h2))
    # a coboundary reduces to zero
    rng = random.Random(3)
    D1 = F.differential(1)
    x = F.zero_cochain(1)
    for i in range(len(x)):
        x[i] = rng.randint(-3, 3)
    cob = CohomologyClass(F, 2, D1.dot(x))
    assert all(c == 0 for c in class_reduce(cob, h2))


def test_class_reduce_generator_roundtrip():
    X = grid_torus()
    F = constant_sheaf(X, 2)
    h2 = cohomology(F, 2)
    gens = h2.generator_cocycles()
    assert len(gens) == 2
    coords = [h2.coordinates(g) for g in gens]
    units = {tuple(1 if i == j else 0 for j in range(2)) for i in range(2)}
    assert set(coords) == units


def test_class_add_axioms():
    X = grid_torus()
    F = constant_sheaf(X, 2)
    h2 = cohomology(F, 2)
    a = class_from_components(F, 2, {X.cells_of_dim(2)[0]: [1, 2]})
    zero = CohomologyClass(F, 2, F.zero_cochain(2))
    assert class_reduce(class_add(a, zero), h2) == class_reduce(a, h2)
    assert all(c == 0 for c in class_reduce(class_add(a, class_neg(a)), h2))


def test_component_longer_than_its_stalk_is_rejected():
    X = grid_torus()
    F = constant_sheaf(X, 1)
    for e in (X.cells_of_dim(1)[0], X.cells_of_dim(1)[-1]):
        with pytest.raises(SheafError, match=re.escape("component at %s has length 2" % (e,))):
            class_from_components(F, 1, {e: [1, 2]})
    with pytest.raises(SheafError, match="has length 0"):
        class_from_components(F, 1, {e: []})


def test_component_off_the_degree_cells_is_rejected():
    X = grid_torus()
    F = constant_sheaf(X, 1)
    v = X.cells_of_dim(0)[0]
    with pytest.raises(SheafError, match=re.escape("component at %s: not a 1-cell" % (v,))):
        class_from_components(F, 1, {v: [1]})
    with pytest.raises(SheafError, match="not a 1-cell"):
        class_from_components(F, 1, {"nowhere": [1]})


def test_not_a_cocycle_rejected():
    X = octa_sphere()
    F = constant_sheaf(X, 1)
    h1 = cohomology(F, 1)
    bad = F.zero_cochain(1)
    bad[0] = 1
    with pytest.raises(SheafError):
        h1.coordinates(bad)


def test_restriction_to_meridian():
    X = grid_torus()
    F = constant_sheaf(X, 1)
    cells = set()
    for j in range(3):
        a = ("v", 0, j)
        b = ("v", 0, (j + 1) % 3)
        lo, hi = (a, b) if str(a) <= str(b) else (b, a)
        cells.update({a, b, ("e", lo, hi)})
    sub = subcomplex(X, cells)
    f, G = restriction_on_cohomology(F, sub, 1)
    assert cohomology(G, 1).group == AbelianGroup(1)
    assert f.is_surjective()
    assert image_dimension(f) == 1


def test_restriction_identity_and_zero():
    X = grid_torus()
    F = constant_sheaf(X, 1)
    sub = subcomplex(X, set(X.cells))
    f, _ = restriction_on_cohomology(F, sub, 1)
    assert f.is_surjective()
    assert image_dimension(f) == 2
    empty = subcomplex(X, set())
    g, _ = restriction_on_cohomology(F, empty, 1)
    assert image_dimension(g) == 0


def mod2_ses(X):
    A = constant_sheaf(X, 1)
    B = constant_sheaf(X, 1)
    C = constant_sheaf(X, 1, moduli=(2,))
    two = intmat([[2]])
    one = intmat([[1]])
    i = SheafMap(A, B, {c: two for c in X.cells})
    p = SheafMap(B, C, {c: one for c in X.cells})
    return ShortExactSequence(i=i, p=p)


def test_bockstein_circle_zero():
    X = circle(4)
    ses = mod2_ses(X)
    assert ses.validate().valid
    delta = connecting_map(ses, 1)
    # H^2 of a circle vanishes
    assert delta.target.group == AbelianGroup(0)


def test_bockstein_rp2_onto():
    X = rp2_complex()
    ses = mod2_ses(X)
    assert ses.validate().valid
    hC1 = cohomology(ses.C, 1)
    assert hC1.group == AbelianGroup(0, (2,))
    delta = connecting_map(ses, 1)
    assert delta.target.group == AbelianGroup(0, (2,))
    # classical Bockstein is onto here
    assert delta.is_surjective()


def split_ses(X, r1=1, r2=1):
    A = constant_sheaf(X, r1)
    C = constant_sheaf(X, r2)
    B = constant_sheaf(X, r1 + r2)
    iblk = zeros(r1 + r2, r1)
    for i in range(r1):
        iblk[i, i] = 1
    pblk = zeros(r2, r1 + r2)
    for i in range(r2):
        pblk[i, r1 + i] = 1
    i = SheafMap(A, B, {c: iblk for c in X.cells})
    p = SheafMap(B, C, {c: pblk for c in X.cells})
    return ShortExactSequence(i=i, p=p)


def test_split_connecting_zero():
    X = grid_torus()
    ses = split_ses(X)
    assert ses.validate().valid
    for k in (0, 1):
        delta = connecting_map(ses, k)
        assert image_dimension(delta) == 0
        assert all(x == 0 for x in delta.matrix.flat) or delta.matrix.shape[1] == 0


def test_connecting_lift_independence():
    X = rp2_complex()
    ses = mod2_ses(X)
    base = connecting_map(ses, 1)
    for seed in range(6):
        rng = random.Random(seed)
        other = connecting_map(ses, 1, rng=rng, check=False)
        for j in range(base.matrix.shape[1]):
            a = base.target.presentation.reduce(base.matrix[:, j])
            b = other.target.presentation.reduce(other.matrix[:, j])
            assert a == b


def test_les_rank_exactness_mod2():
    X = rp2_complex()
    ses = mod2_ses(X)
    maps = les_maps(ses, 2)
    for f, g in zip(maps, maps[1:]):
        assert rank_exact_at(f, g)
        assert torsion_exact_at(f, g)


def test_pullback_sum_kunneth():
    Z, factors = product(circle(3), circle(3))
    F = pullback_sum(constant_sheaf(circle(3), 1), constant_sheaf(circle(3), 1), Z, factors)
    assert validate_sheaf(F).valid
    assert cohomology(F, 2).group == AbelianGroup(2)


def test_pullback_sum_point_identity():
    X = grid_torus()
    P = point()
    Z, factors = product(X, P)
    F = pullback_sum(constant_sheaf(X, 2), constant_sheaf(P, 0), Z, factors)
    assert cohomology(F, 2).group == AbelianGroup(2)


def test_automorphism_negation():
    X = grid_torus()
    F = constant_sheaf(X, 2)
    neg = intmat([[-1, 0], [0, -1]])
    aut = SheafAutomorphism(F, {c: c for c in X.cells}, {c: neg for c in X.cells})
    a = class_from_components(F, 2, {X.cells_of_dim(2)[0]: [1, 2]})
    h2 = cohomology(F, 2)
    moved = automorphism_action(aut, a)
    x = class_reduce(a, h2)
    y = class_reduce(moved, h2)
    assert tuple(-v for v in x) == y


def test_automorphism_identity():
    X = grid_torus()
    F = constant_sheaf(X, 2)
    I = eye(2)
    aut = SheafAutomorphism(F, {c: c for c in X.cells}, {c: I for c in X.cells})
    a = class_from_components(F, 2, {X.cells_of_dim(2)[0]: [3, 5]})
    h2 = cohomology(F, 2)
    assert class_reduce(automorphism_action(aut, a), h2) == class_reduce(a, h2)


def test_orbit_enumeration_gcd():
    # induced action of GL(2,Z) generators on H^2(T^2, Z^2) = Z^2;
    # orbits are the gcd fibers
    S = intmat([[0, -1], [1, 0]])
    T = intmat([[1, 1], [0, 1]])

    def act(M):
        from torusbase.exact import inv2

        d = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        return d * inv2(M).T

    mats = [act(S), act(T)]
    orbit = orbit_of_class(mats, (2, 4), max_word_length=6)
    import math

    assert all(math.gcd(a, b) == 2 for a, b in orbit)
    assert (2, 0) in orbit


# ---------------------------------------------------------------------------
# validate_sheaf against its reference.  The functions below are the check
# validate_sheaf made before it compared the squares over one denominator
# per block: Fraction or int object-array products of the restrictions,
# compared entry by entry.  Kept verbatim as the reference; their torsion
# check, _respects_moduli, is in tests/reference.py.


def _validate_sheaf_reference(F):
    """Shape consistency and codim-2 commutativity of restrictions."""
    bad = []
    X = F.base
    for (face, cof), M in F.restrictions.items():
        if X.incidence.get((cof, face)) is None:
            bad.append("restriction on non-covering pair (%s, %s)" % (face, cof))
            continue
        if M.shape != (F.rank(cof), F.rank(face)):
            bad.append(
                "restriction (%s, %s) has shape %s, expected (%d, %d)"
                % (face, cof, M.shape, F.rank(cof), F.rank(face))
            )
            continue
        if not _respects_moduli(M, F.stalk(face), F.stalk(cof)):
            bad.append("restriction (%s, %s) ignores stalk torsion" % (face, cof))
    if bad:
        return SheafReport(bad)
    for rho in X.cells:
        if X.dim(rho) < 2:
            continue
        # collect composite maps sigma -> rho through every intermediate tau
        composites = {}
        for tau, _ in X.faces_of(rho):
            R2 = F.restriction(tau, rho)
            for sigma, _ in X.faces_of(tau):
                comp = R2.dot(F.restriction(sigma, tau))
                composites.setdefault(sigma, []).append((tau, comp))
        for sigma, pairs in composites.items():
            base_tau, base = pairs[0]
            for tau, comp in pairs[1:]:
                diff = comp - base
                if not _diff_in_moduli(F.stalk(rho), diff):
                    bad.append(
                        "restrictions around (%s <= %s) do not commute (via %s vs %s)"
                        % (sigma, rho, base_tau, tau)
                    )
                    break
    return SheafReport(bad)


def _diff_in_moduli(dst_stalk, diff):
    for r in range(diff.shape[0]):
        d = dst_stalk.order(r)
        for c in range(diff.shape[1]):
            v = diff[r, c]
            if d == 0:
                if v != 0:
                    return False
            elif v % d != 0:
                return False
    return True


def _unimodular(rng, upper=False):
    """A seeded matrix of GL(2, Z) and its inverse; upper triangular if asked."""
    U = eye(2)
    for _ in range(3):
        s = rng.randint(-2, 2)
        step = intmat([[1, s], [0, 1]] if upper or rng.random() < 0.5 else [[1, 0], [s, 1]])
        U = U.dot(step)
    if rng.random() < 0.5:
        U = U.dot(intmat([[-1, 0], [0, 1]]))
    d = U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0]
    Ui = intmat([[U[1, 1] * d, -U[0, 1] * d], [-U[1, 0] * d, U[0, 0] * d]])
    return U, Ui


def _rational_invertible(rng):
    """A seeded invertible 2x2 matrix over Q with small denominators, and its inverse."""
    while True:
        g = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)] for _ in range(2)]
        d = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        if d:
            break
    gi = [[g[1][1] / d, -g[0][1] / d], [-g[1][0] / d, g[0][0] / d]]
    return fracmat(g), fracmat(gi)


def _gauge_sheaf(X, ring, moduli, gauges, rng, perturb):
    """R(s <= t) = g_t g_s^-1, a sheaf isomorphic to the constant one, then
    perturbed: perturb(rng, M) may change the block M in place."""
    stalks = {c: Stalk(2, moduli) for c in X.cells}
    restrictions = {}
    for (cof, face) in X.incidence:
        M = gauges[cof][0].dot(gauges[face][1])
        perturb(rng, M)
        restrictions[(face, cof)] = M
    return CellularSheaf(X, ring, stalks, restrictions)


def _sometimes(p, change):
    def perturb(rng, M):
        if rng.random() < p:
            i, j = rng.randrange(2), rng.randrange(2)
            M[i, j] = M[i, j] + change(rng, i, j)

    return perturb


def _in_cell_order(F):
    """F with its base's cells and its restrictions listed in cell order
    (restrictions by coface, then face), so that the reference, which walks
    both in dict order, lists its violations in the order validate_sheaf does."""
    X = F.base
    cells = {c: X.cells[c] for c in sorted(X.cells, key=cell_key)}
    Y = CellComplex(cells=cells, incidence=X.incidence, boundary_words=X.boundary_words)
    order = sorted(F.restrictions, key=lambda pair: (cell_key(pair[1]), cell_key(pair[0])))
    return CellularSheaf(Y, F.ring, F.stalks, {pair: F.restrictions[pair] for pair in order})


def _reports(F):
    return str(validate_sheaf(F)), str(_validate_sheaf_reference(_in_cell_order(F)))


@pytest.mark.parametrize("seed", range(6))
def test_validate_sheaf_matches_reference_over_Q(seed):
    rng = random.Random("Q:%d" % seed)
    X = grid_torus(3, 3 + seed % 2)
    gauges = {c: _rational_invertible(rng) for c in X.cells}
    outcomes = set()
    for p in (0, 0.02, 0.1, 0.3):
        F = _gauge_sheaf(X, "Q", (), gauges, rng, _sometimes(p, lambda rng, i, j: Fraction(1, 3)))
        got, want = _reports(F)
        assert got == want
        outcomes.add(got == "valid")
    assert outcomes == {True, False}


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_validate_sheaf_matches_reference_over_Z_with_torsion(m, seed):
    rng = random.Random("Z/%d:%d" % (m, seed))
    X = grid_torus(3, 3 + seed % 2)
    # stalks Z/m + Z/m take any integer block; stalks Z/m + Z need the lower
    # left entry 0, which upper triangular gauges keep
    for moduli, upper in (((m, m), False), ((m, 0), True)):
        gauges = {c: _unimodular(rng, upper) for c in X.cells}
        outcomes = set()
        for p in (0, 0.05, 0.3):
            for change in (
                lambda rng, i, j: m * rng.randint(-2, 2),
                lambda rng, i, j: rng.randint(-m, m),
            ):
                F = _gauge_sheaf(X, "Z", moduli, gauges, rng, _sometimes(p, change))
                got, want = _reports(F)
                assert got == want
                outcomes.add(got == "valid")
        assert outcomes == {True, False}


SUBCOMPLEX_ORDER_SCRIPT = """
from torusbase.catalog import fake_base_space
from torusbase.sheaves import CellularSheaf, restrict_sheaf, validate_sheaf

spec = fake_base_space()["spec"]
G = restrict_sheaf(spec.sheaf1, spec.overlap1)
rank = {c: i + 1 for i, c in enumerate(sorted(G.base.cells, key=str))}
# scale each vertex-to-edge restriction by its own factor: no square commutes
bad = {
    (s, t): rank[t] * M if G.base.dim(s) == 0 else M for (s, t), M in G.restrictions.items()
}
print(list(spec.overlap1.cells))
print(validate_sheaf(CellularSheaf(G.base, G.ring, G.stalks, bad)))
"""


def test_subcomplex_order_does_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys

    import torusbase

    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(torusbase.__file__))
        run = subprocess.run(
            [sys.executable, "-c", SUBCOMPLEX_ORDER_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(run.stdout)
    assert "do not commute" in outputs[0], outputs[0][:300]
    assert outputs[0] == outputs[1]


def test_missing_stalk_is_one_shared_zero_stalk():
    X = grid_torus()
    F = CellularSheaf(X, "Z", {c: Stalk(1) for c in X.cells_of_dim(2)}, {})
    v = X.cells_of_dim(0)[0]
    assert v not in F.stalks
    assert F.rank(v) == 0
    assert F.stalk(v) is F.stalk(X.cells_of_dim(1)[0])
    assert F.stalk(v) == Stalk(0)
    with pytest.raises(AttributeError):
        F.stalk(v).rank = 1


# ---------------------------------------------------------------------------
# The coboundary against its reference: the block-by-block loop it ran
# before it read the cached sparse rows of d.  Kept verbatim, as a function
# of the sheaf.


def _old_coboundary(self, k, vec):
    """d applied to a k-cochain, one restriction block at a time.

    Equal to differential(k).dot(vec), but cells where vec vanishes are
    skipped and the dense differential is never built.
    """
    off_k, _ = self.offsets(k)
    off_k1, _ = self.offsets(k + 1)
    out = self.zero_cochain(k + 1)
    for sigma in self.cochain_cells(k):
        j = off_k[sigma]
        x = vec[j:j + self.rank(sigma)]
        if all(v == 0 for v in x):
            continue
        for tau, sign in self.base.cofaces_of(sigma):
            i = off_k1[tau]
            out[i:i + self.rank(tau)] += sign * self._block(sigma, tau).dot(x)
    return out


def _catalog_sheaves():
    """(label, make) for every sheaf the catalog yields: R and I of the
    affine entries, each entry's own sheaf, the glued sheaf of the gluing
    entry, and constant Z, Z/2 and Q on every base."""
    from torusbase.affine import build_I_sheaf, build_R_sheaf
    from torusbase.catalog import build, catalog_names
    from torusbase.surgery import glue

    def constants(name, base):
        return [
            ("%s Z" % name, lambda: constant_sheaf(base(), 1)),
            ("%s Z/2" % name, lambda: constant_sheaf(base(), 1, "Z", moduli=(2,))),
            ("%s Q" % name, lambda: constant_sheaf(base(), 1, "Q")),
        ]

    out = []
    for name in catalog_names():
        kind = build(name).kind
        if kind == "affine":
            out += [
                ("%s R" % name, lambda n=name: build_R_sheaf(build(n).payload)),
                ("%s I" % name, lambda n=name: build_I_sheaf(build(n).payload)[0]),
            ]
            out += constants(name, lambda n=name: build(n).payload.base)
        elif kind == "complex":
            out += constants(name, lambda n=name: build(n).payload)
        elif kind == "sheaf":
            out.append(("%s sheaf" % name, lambda n=name: build(n).payload[1]))
            out += constants(name, lambda n=name: build(n).payload[0])
        else:
            out.append(("%s glued" % name, lambda n=name: glue(build(n).payload["spec"])[1]))
            out += constants(name, lambda n=name: build(n).payload["piece_minus"][0])
    return out


_CATALOG_SHEAVES = _catalog_sheaves()


@pytest.mark.parametrize(
    "sheaf", [b for _, b in _CATALOG_SHEAVES], ids=[i for i, _ in _CATALOG_SHEAVES]
)
def test_coboundary_matches_block_reference(sheaf):
    F = sheaf()
    rng = random.Random(71)
    for k in range(F.base.dimension + 1):
        for trial in range(4):
            vec = F.zero_cochain(k)
            for c in F.cochain_cells(k):
                if trial and rng.random() < 0.5:
                    continue  # leave whole cells zero, as a class often does
                off, _ = F.offsets(k)
                for i in range(off[c], off[c] + F.rank(c)):
                    x = rng.randint(-3, 3)
                    vec[i] = x if F.ring == "Z" else Fraction(x, rng.choice([1, 2, 3]))
            got, ref = F.coboundary(k, vec), _old_coboundary(F, k, vec)
            assert [(type(x), x) for x in got] == [(type(x), x) for x in ref], (k, trial)


def test_coboundary_rejects_a_restriction_of_the_wrong_shape():
    X = grid_torus()
    F = constant_sheaf(X, 1)
    key = next(iter(F.restrictions))
    F.restrictions[key] = eye(2)
    with pytest.raises(SheafError):
        k = X.dim(key[0])
        F.coboundary(k, F.zero_cochain(k))
