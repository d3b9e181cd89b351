"""One block assembly for every cochain map, against the loops it replaced.

``sheaves._block_columns`` puts every stalk block at its cells' cochain
offsets: the differential, sheaf maps, R's translation map T, the restriction
``pick`` onto a subcomplex, the overlap ``pull`` of a gluing and the
automorphism action.  The loops those four last places had of their own are
kept below, verbatim, as the reference; each is compared with the new code
exactly, entry types included.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from test_complexes import circle, grid_torus
from test_stalk_isos import _scaling

from torusbase import sheaves, surgery
from torusbase.affine import build_R_sheaf, dual_matrix
from torusbase.catalog import build, catalog_names, flat_torus_surface
from torusbase.complexes import _infer_signs, edge_between
from torusbase.exact import _sparse_rows, _transpose, eye, fracmat, intmat
from torusbase.sheaves import (
    CohomologyClass,
    SheafAutomorphism,
    automorphism_action,
    cohomology,
    constant_sheaf,
    restriction_on_cohomology,
)
from torusbase.surgery import gluing_obstruction


def _pull(t, ints):
    """t^T M for a vector t and the integer rows ints of M."""
    return [sum(s * x for s, x in zip(t, col)) for col in zip(*ints)]


def _pairing(t, ints):
    """t^T M over Q, for a translation t and the integer rows ints of M."""
    den = lcm(*(s.denominator for s in t))
    return [Fraction(x, den) for x in _pull([s.numerator * (den // s.denominator) for s in t], ints)]


def _old_translation_columns(self, k):
    row = {tau: r for r, tau in enumerate(self.cochain_cells(k + 1))}
    off, n = self.offsets(k)
    cols = [{} for _ in range(n)]
    for sigma in self.cochain_cells(k):
        for tau, sign in self.base.cofaces_of(sigma):
            t = self._shifts.get((sigma, tau), ())
            for i, x in enumerate(_pairing(t, self.restriction(sigma, tau).tolist())):
                if x:
                    cols[off[sigma] + i][row[tau]] = -sign * x
    return cols


def _old_pick(F, G, k):
    off, n = F.offsets(k)
    # one sparse row per coordinate of G's k-cochains, picking F's coordinate there
    keep = [{off[c] + r: 1} for c in G.cochain_cells(k) for r in range(G.rank(c))]
    pick = _transpose(keep, n)
    return pick


def _old_pull(F2, G, cell_map, inverse_isos):
    off2, n2 = F2.offsets(2)
    offo, _ = G.offsets(2)
    # F2's 2-cochains pulled to the overlap: a sparse column per coordinate of F2's
    pull = [{} for _ in range(n2)]
    for c, J in inverse_isos.items():
        for r, row in enumerate(_sparse_rows(J, G.ring)):
            for j, v in row.items():
                pull[off2[cell_map[c]] + j][offo[c] + r] = v
    return pull


def _old_automorphism_action(aut, cls):
    F = aut.sheaf
    k = cls.degree
    X = F.base
    eps = _infer_signs(X, aut.cell_map)
    out = F.zero_cochain(k)
    off, _ = F.offsets(k)
    for c in F.cochain_cells(k):
        img = aut.cell_map[c]
        vals = aut.stalk_isos[c].dot(cls.component(c))
        i = off[img]
        out[i:i + F.rank(img)] = out[i:i + F.rank(img)] + eps[c] * vals
    return out


def _typed(xs):
    return [(type(x), x) for x in xs]


def _typed_columns(cols):
    return [{r: (type(v), v) for r, v in col.items()} for col in cols]


def _spy(monkeypatch, module):
    """Record (source, target, columns) of every _block_columns call made
    through module's name for it."""
    calls = []
    real = module._block_columns

    def spy(source, k, target, l, blocks):
        cols = real(source, k, target, l, blocks)
        calls.append((source, target, cols))
        return cols

    monkeypatch.setattr(module, "_block_columns", spy)
    return calls


_AFFINE = [name for name in catalog_names() if build(name).kind == "affine"]


@pytest.mark.parametrize("name", _AFFINE)
def test_translation_columns_match_the_old_loop(name):
    R = build_R_sheaf(build(name).payload)
    for k in range(3):
        assert _typed_columns(R._translation_columns(k)) == _typed_columns(_old_translation_columns(R, k))


def _overlaps():
    spec = build("fake_base_space").payload["spec"]
    return [(spec.sheaf1, spec.overlap1), (spec.sheaf2, spec.overlap2)]


def test_restriction_pick_matches_the_old_loop(monkeypatch):
    calls = _spy(monkeypatch, sheaves)
    for F, sub in _overlaps():
        for k in range(sub.dimension + 1):
            del calls[:]
            _, G = restriction_on_cohomology(F, sub, k)
            (pick,) = [cols for source, target, cols in calls if source is F and target is G]
            assert _typed_columns(pick) == _typed_columns(_old_pick(F, G, k))


def test_overlap_pull_and_pick_match_the_old_loops(monkeypatch):
    fb = build("fake_base_space").payload
    spec = fb["spec"]
    picks, pulls = _spy(monkeypatch, sheaves), _spy(monkeypatch, surgery)
    gluing_obstruction(spec, fb["class_minus"], fb["class_plus"])
    _, inverses = spec._checked()
    over = spec.overlap1
    isos = {"Z": {c: inverses[c] for c in over.cells_of_dim(2)}, "Q": {c: eye(1) for c in over.cells_of_dim(2)}}
    assert [G.ring for _, G, _ in pulls] == ["Z", "Q"]
    for F2, G, pull in pulls:
        assert _typed_columns(pull) == _typed_columns(_old_pull(F2, G, spec.cell_map, isos[G.ring]))
        [(F, pick)] = [(F, cols) for F, target, cols in picks if target is G and F is not G]
        old = _old_pick(F, G, 2)
        if G.ring == "Z":
            assert _typed_columns(pick) == _typed_columns(old)
        else:
            # the target's ring: Fraction(1) where the old loop kept an int 1
            assert pick == old
            assert all(type(v) is Fraction for col in pick for v in col.values())


def _flat_torus_rotation():
    S = flat_torus_surface()

    def rot(c):
        if c[0] == "v":
            return ("v", -c[2] % 3, c[1])
        if c[0] == "f":
            return ("f", (-c[2] - 1) % 3, c[1])
        return edge_between(rot(c[1]), rot(c[2]))

    D = dual_matrix(intmat([[0, -1], [1, 0]]))
    return SheafAutomorphism(build_R_sheaf(S), {c: rot(c) for c in S.base.cells}, {c: D for c in S.base.cells})


def _circle_rotation_mod_2():
    X = circle(3)
    verts = X.cells_of_dim(0)
    rot = {verts[i]: verts[(i + 1) % 3] for i in range(3)}
    edges = {}
    for e in X.cells_of_dim(1):
        ends = {f for f, _ in X.faces_of(e)}
        edges[e] = next(
            g for g in X.cells_of_dim(1) if {f for f, _ in X.faces_of(g)} == {rot[f] for f in ends}
        )
    F = constant_sheaf(X, 1, moduli=(2,))
    F.restrictions[next(iter(F.restrictions))] = intmat([[3]])
    return SheafAutomorphism(F, {**rot, **edges}, {c: eye(1) for c in X.cells})


def _on_every_cell(F, J):
    return SheafAutomorphism(F, {c: c for c in F.base.cells}, {c: J for c in F.base.cells})


def _automorphisms():
    X = grid_torus()
    yield "negation", _on_every_cell(constant_sheaf(X, 2), intmat([[-1, 0], [0, -1]]))
    yield "identity", _on_every_cell(constant_sheaf(X, 2), eye(2))
    yield "negation over Q", _on_every_cell(constant_sheaf(X, 1, "Q"), fracmat([[-1]]))
    for factor in (2, 3, 4, -1):
        yield "times %d on Z/5" % factor, _scaling(1, (5,), [[factor]])
    yield "3 on Z/2 + Z", _scaling(2, (2, 0), [[3, 0], [0, 1]])
    yield "flat torus rotation", _flat_torus_rotation()
    yield "circle rotation mod 2", _circle_rotation_mod_2()


@pytest.mark.parametrize("label, aut", list(_automorphisms()))
def test_automorphism_action_matches_the_old_dense_loop(label, aut):
    F = aut.sheaf
    assert aut.validate().valid
    rng = random.Random(len(label))
    for k in range(F.base.dimension + 1):
        cochains = cohomology(F, k).generator_cocycles()
        for _ in range(3):
            v = F.zero_cochain(k)
            for j in range(len(v)):
                v[j] = v[j] + rng.randint(-3, 3)
            cochains.append(v)
        for v in cochains:
            cls = CohomologyClass(F, k, v)
            assert _typed(automorphism_action(aut, cls).cocycle) == _typed(_old_automorphism_action(aut, cls))
