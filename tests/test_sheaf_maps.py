"""The sheaf-map layer against its dense reference.

SheafMap, ShortExactSequence, InducedMap, torsion_exact_at,
CellularSheaf.is_cocycle and connecting_map compute on the sparse rows of
exact's echelon loop.  Below are the bodies they had while they computed on
dense numpy matrices through preimage_lattice, lattice_hnf, lattice_eq,
stack_rows, lattice_member and a Smith-form LinearSystem, kept verbatim: the
methods inside small classes that hold the same data, the functions as they
were.  The tests compare the two on the sequences of acceptance criterion
8b, on Bockstein, split and torsion sequences, on sequences broken on
purpose, and on catalog sheaves.  A connecting map is compared through the
canonical coordinates of its columns, which do not depend on the lift; the
raw matrix holds the coefficients of a representative, which may move.
"""

import random
from functools import lru_cache

import pytest

from reference import _respects_moduli, cochain_matrix, kernel_columns, lattice_eq, lattice_hnf, lattice_member
from reference import moduli_rows, preimage_lattice, stack_rows
from test_acceptance import _augment, _delta_fn, les_maps, random_ses, small_complexes
from test_complexes import circle, grid_torus, klein_grid, point, rp2_complex

from torusbase import sheaves
from torusbase.affine import build_I_sheaf, build_R_sheaf
from torusbase.catalog import build
from torusbase.errors import ValidationReport
from torusbase.exact import LinearSystem, _axpy, _dense, _transpose, eye, fracmat, intmat, mat_eq, q_rank, zeros
from torusbase.sheaves import (
    CellularSheaf,
    SheafAutomorphism,
    SheafError,
    SheafMap,
    ShortExactSequence,
    Stalk,
    _diff_in_moduli,
    cohomology,
    constant_sheaf,
    induced_map,
    restriction_on_cohomology,
    subcomplex,
    validate_sheaf,
)

# ---------------------------------------------------------------------------
# The dense reference, verbatim


def _stalk_moduli_rows(stalk):
    rows = [i for i in range(stalk.rank) if stalk.order(i)]
    out = zeros(len(rows), stalk.rank)
    for r, i in enumerate(rows):
        out[r, i] = stalk.order(i)
    return out


class _OldSheafMap:
    """A SheafMap's blocks under its old methods."""

    def __init__(self, f):
        self.source, self.target, self.blocks = f.source, f.target, f.blocks

    block = SheafMap.block

    def validate(self):
        bad = []
        X = self.source.base
        for cell in X.cells:
            B = self.block(cell)
            if B.shape != (self.target.rank(cell), self.source.rank(cell)):
                bad.append("block at %s has the wrong shape" % (cell,))
            elif not _respects_moduli(B, self.source.stalk(cell), self.target.stalk(cell)):
                bad.append("block at %s ignores stalk torsion" % (cell,))
        if bad:
            return ValidationReport(bad)
        for (cof, face) in X.incidence:
            left = self.block(cof).dot(self.source.restriction(face, cof))
            right = self.target.restriction(face, cof).dot(self.block(face))
            if not _diff_in_moduli(self.target.stalk(cof), left - right):
                bad.append("map does not commute with restriction (%s, %s)" % (face, cof))
        return ValidationReport(bad)

    def cochain_matrix(self, k):
        soff, sn = self.source.offsets(k)
        toff, tn = self.target.offsets(k)
        M = zeros(tn, sn, self.source.ring)
        for cell in self.source.cochain_cells(k):
            B = self.block(cell)
            i, j = toff[cell], soff[cell]
            M[i:i + B.shape[0], j:j + B.shape[1]] = M[i:i + B.shape[0], j:j + B.shape[1]] + B
        return M


class _OldSequence:
    """A ShortExactSequence's maps under their old methods."""

    def __init__(self, ses):
        self.i, self.p = _OldSheafMap(ses.i), _OldSheafMap(ses.p)

    A, B, C = ShortExactSequence.A, ShortExactSequence.B, ShortExactSequence.C

    def validate(self):
        bad = []
        for rep in (self.i.validate(), self.p.validate()):
            bad.extend(rep.violations)
        if self.p.source is not self.i.target:
            bad.append("maps do not compose")
        if bad:
            return ValidationReport(bad)
        ring = self.A.ring
        for cell in self.B.base.cells:
            iB = self.i.block(cell)
            pB = self.p.block(cell)
            comp = pB.dot(iB)
            if ring == "Q":
                if any(x != 0 for x in comp.flat):
                    bad.append("p after i is nonzero at %s" % (cell,))
                    continue
                if q_rank(iB) != self.A.rank(cell):
                    bad.append("i is not injective at %s" % (cell,))
                if q_rank(pB) != self.C.rank(cell):
                    bad.append("p is not surjective at %s" % (cell,))
                if q_rank(iB) + q_rank(pB) != self.B.rank(cell):
                    bad.append("sequence is not exact at %s" % (cell,))
            else:
                if not _diff_in_moduli(self.C.stalk(cell), comp):
                    bad.append("p after i is nonzero at %s" % (cell,))
                    continue
                if not self._exact_at(cell):
                    bad.append("sequence is not exact at %s" % (cell,))
        return ValidationReport(bad)

    def _exact_at(self, cell):
        # kernel of (B -> C) equals image of (A -> B), as subgroups of the
        # ambient generator lattice of the B stalk
        A, B, C = self.A.stalk(cell), self.B.stalk(cell), self.C.stalk(cell)
        iB = self.i.block(cell)
        pB = self.p.block(cell)
        LB = _stalk_moduli_rows(B)
        LC = _stalk_moduli_rows(C)
        LA = _stalk_moduli_rows(A)
        ker = preimage_lattice(pB, LC)
        im_rows = [iB[:, j] for j in range(iB.shape[1])] + [LB[i] for i in range(LB.shape[0])]
        im = zeros(len(im_rows), B.rank)
        for i, r in enumerate(im_rows):
            im[i] = r
        if not lattice_eq(ker, lattice_hnf(im)):
            return False
        # injectivity of i: preimage of LB under i equals LA
        pre = preimage_lattice(iB, LB)
        if not lattice_eq(pre, lattice_hnf(LA) if LA.shape[0] else LA):
            return False
        # surjectivity of p: image of p plus torsion covers the C lattice
        sur_rows = [pB[:, j] for j in range(pB.shape[1])] + [LC[i] for i in range(LC.shape[0])]
        if C.rank:
            sur = zeros(len(sur_rows), C.rank)
            for i, r in enumerate(sur_rows):
                sur[i] = r
            if not lattice_eq(lattice_hnf(sur), eye(C.rank)):
                return False
        return True


class _OldInducedMap:
    """An InducedMap under its old methods."""

    def __init__(self, f):
        self.source, self.target, self.matrix = f.source, f.target, f.matrix

    def image_rows(self):
        """Rows spanning image + target relations in the target presentation."""
        cols = [self.matrix[:, j] for j in range(self.matrix.shape[1])]
        n = self.target.presentation.n
        rel = self.target.presentation.relations if self.source.sheaf.ring == "Z" else None
        rows = zeros(len(cols), n, self.source.sheaf.ring)
        for i, c in enumerate(cols):
            rows[i] = c
        if rel is not None and rel.shape[0]:
            rows = stack_rows(rows, rel) if rows.shape[0] else rel
        return rows

    def is_surjective(self):
        if self.source.sheaf.ring == "Q":
            return image_dimension(self) == self.target.presentation.dimension
        return lattice_eq(lattice_hnf(self.image_rows()), eye(self.target.presentation.n))


def is_cocycle(self, k, vec):
    return lattice_member(moduli_rows(self, k + 1), self.coboundary(k, vec))


def image_dimension(f):
    """Dimension (Q) or rank (Z, modulo torsion) of the image of an InducedMap."""
    cols = [f.target.presentation.reduce(f.matrix[:, j]) for j in range(f.matrix.shape[1])]
    free = [i for i, d in enumerate(f.target.presentation.coordinate_orders()) if d == 0]
    if not cols or not free:
        return 0
    return q_rank(fracmat([[c[i] for i in free] for c in cols]))


def torsion_exact_at(f, g):
    """Exactness im f = ker g over Z, torsion included (presentation lattices)."""
    if f.target is not g.source:
        raise SheafError("maps are not composable at the middle group")
    im = lattice_hnf(f.image_rows())
    ker = preimage_lattice(g.matrix, g.target.presentation.relations)
    return lattice_eq(im, ker)


def connecting_map(ses, k, rng=None, check=True):
    """Connecting homomorphism H^k(C) -> H^{k+1}(A) by the zig-zag.

    When rng is given, cellwise lifts are randomized by kernel elements; the
    induced map on cohomology is independent of these choices.
    """
    if check:
        rep = ses.validate()
        if not rep.valid:
            raise SheafError("sequence is not exact: %s" % rep)
    A, B, C = ses.A, ses.B, ses.C
    ring = A.ring
    hC = cohomology(C, k)
    hA = cohomology(A, k + 1)

    p_k = ses.p.cochain_matrix(k)
    i_k1 = ses.i.cochain_matrix(k + 1)
    sys_p = LinearSystem(_augment(p_k, moduli_rows(C, k)))
    sys_i = LinearSystem(_augment(i_k1, moduli_rows(B, k + 1)))
    nB = B.cochain_rank(k)
    nA = A.cochain_rank(k + 1)

    def delta(c_vec):
        sol = sys_p.solve(c_vec, ring)
        if sol is None:
            raise SheafError("cannot lift cocycle through p")
        b = sol[:nB]
        if rng is not None:
            K = kernel_columns(sys_p)
            for j in range(K.shape[1]):
                b = b + rng.randint(-2, 2) * K[:nB, j]
        dbv = B.coboundary(k, b)
        sol2 = sys_i.solve(dbv, ring)
        if sol2 is None:
            raise SheafError("d of the lift does not come from the subsheaf")
        return sol2[:nA]

    return induced_map(hC, hA, delta)


# ---------------------------------------------------------------------------
# Sequences


def _constant_ses(X, a, b, c, iblock, pblock):
    """0 -> A -> B -> C -> 0 over Z with constant stalks a, b, c, identity
    restrictions and the same blocks at every cell (so the maps commute)."""

    def sheaf(s):
        return CellularSheaf(
            X, "Z", {cell: s for cell in X.cells}, {(f, cf): eye(s.rank) for (cf, f) in X.incidence}
        )

    A, B, C = sheaf(a), sheaf(b), sheaf(c)
    i = SheafMap(A, B, {cell: intmat(iblock) for cell in X.cells})
    p = SheafMap(B, C, {cell: intmat(pblock) for cell in X.cells})
    return ShortExactSequence(i=i, p=p)


# (label, stalks a, b, c, i block, p block, the violation validate reports or None)
_STALK_SEQUENCES = [
    ("mod 2", Stalk(1), Stalk(1), Stalk(1, (2,)), [[2]], [[1]], None),
    ("mod 3", Stalk(1), Stalk(1), Stalk(1, (3,)), [[3]], [[1]], None),
    ("split", Stalk(1), Stalk(2), Stalk(1), [[1], [0]], [[0, 1]], None),
    ("Z/2 Z/4 Z/2", Stalk(1, (2,)), Stalk(1, (4,)), Stalk(1, (2,)), [[2]], [[1]], None),
    ("Z/2 Z/8 Z/4", Stalk(1, (2,)), Stalk(1, (8,)), Stalk(1, (4,)), [[4]], [[1]], None),
    ("Z Z+Z/2 (Z/2)^2", Stalk(1), Stalk(2, (0, 2)), Stalk(2, (2, 2)), [[2], [0]], [[1, 0], [0, 1]],
     None),
    ("i not injective", Stalk(2), Stalk(1), Stalk(1, (2,)), [[2, 2]], [[1]], "not exact"),
    ("p not onto", Stalk(1), Stalk(1), Stalk(1, (4,)), [[2]], [[2]], "not exact"),
    ("ker p > im i", Stalk(1, (2,)), Stalk(1, (8,)), Stalk(1, (2,)), [[4]], [[1]], "not exact"),
    ("ker p < im i", Stalk(1), Stalk(1), Stalk(1, (2,)), [[1]], [[1]], "p after i is nonzero"),
    ("i ignores torsion", Stalk(1, (2,)), Stalk(1), Stalk(1), [[1]], [[0]], "ignores stalk"),
    ("p ignores torsion", Stalk(1), Stalk(1, (4,)), Stalk(1, (3,)), [[4]], [[1]], "ignores stalk"),
]

_COMPLEXES = [
    ("point", point),
    ("circle", lambda: circle(4)),
    ("rp2", rp2_complex),
    ("torus", grid_torus),
    ("klein", klein_grid),
]


def _stalk_sequences():
    for label, a, b, c, iblock, pblock, why in _STALK_SEQUENCES:
        for name, make in _COMPLEXES:
            yield "%s on %s" % (label, name), _constant_ses(make(), a, b, c, iblock, pblock), why


def _criterion_8b_sequences():
    """The 100 sequences of acceptance criterion 8b, from the same generator."""
    rng = random.Random(77)
    complexes = small_complexes()
    for n in range(100):
        _, X = complexes[rng.randrange(len(complexes))]
        yield "8b #%d" % n, random_ses(X, rng), None


def _i_sequences():
    """0 -> Q -> I -> R_Q -> 0 over three affine surfaces."""
    for name in ("flat_torus:1", "ff_disk:1", "cp2_triangle"):
        yield "%s I" % name, build_I_sheaf(build(name).payload)[1], None


_GROUPS = {
    "stalk sequences": list(_stalk_sequences()),
    "criterion 8b": list(_criterion_8b_sequences()),
}
_SEQUENCES = [s for group in _GROUPS.values() for s in group]


def _coordinates(f):
    P = f.target.presentation
    return [P.reduce(f.matrix[:, j]) for j in range(f.matrix.shape[1])]


def _typed(M):
    return [(type(x), x) for x in M.flat]


# ---------------------------------------------------------------------------
# Exactness checks of a sequence


@pytest.mark.parametrize("group", list(_GROUPS))
def test_sequence_checks_match_reference(group):
    exact = set()
    for label, ses, why in _GROUPS[group]:
        old = _OldSequence(ses)
        report = ses.validate()
        assert str(report) == str(old.validate()), label
        if why is None:
            assert report.valid, (label, report)
        else:
            assert why in str(report), (label, report)
        for cell in ses.B.base.cells:
            got = ses._exact_at(cell)
            assert got == old._exact_at(cell), (label, cell)
            exact.add(got)
    assert exact == ({True, False} if group == "stalk sequences" else {True})


def test_torsion_rows_match_reference():
    stalks = [Stalk(0), Stalk(1), Stalk(3), Stalk(1, (2,)), Stalk(3, (0, 4, 0)), Stalk(2, (6, 6))]
    for stalk in stalks:
        ref = _stalk_moduli_rows(stalk)
        got = _dense(sheaves._stalk_torsion_rows(stalk), ref.shape)
        assert mat_eq(got, ref)
    X = grid_torus()
    F = CellularSheaf(X, "Z", {c: stalks[len(c) % 6] for c in X.cells}, {})
    for k in range(3):
        ref = moduli_rows(F, k)
        assert mat_eq(_dense(F._torsion_rows(k), ref.shape), ref)


def test_q_sequence_checks_match_reference():
    for label, ses, _ in _i_sequences():
        assert str(ses.validate()) == str(_OldSequence(ses).validate()) == "valid", label
    X = circle(3)
    A, B = constant_sheaf(X, 1, "Q"), constant_sheaf(X, 2, "Q")
    C = constant_sheaf(X, 1, "Q")
    blocks = [
        ([[1], [0]], [[0, 1]]),  # valid
        ([[1], [1]], [[0, 1]]),  # p after i is nonzero
        ([[0], [0]], [[0, 1]]),  # i is not injective
        ([[1], [0]], [[0, 0]]),  # p is not surjective, not exact
    ]
    for iblock, pblock in blocks:
        ses = ShortExactSequence(
            i=SheafMap(A, B, {c: fracmat(iblock) for c in X.cells}),
            p=SheafMap(B, C, {c: fracmat(pblock) for c in X.cells}),
        )
        assert str(ses.validate()) == str(_OldSequence(ses).validate())


# ---------------------------------------------------------------------------
# Cochain matrices, induced maps and exactness along the long exact sequence


def test_cochain_matrix_matches_reference():
    for label, ses, _ in _SEQUENCES + list(_i_sequences()):
        for f in (ses.i, ses.p):
            for k in range(ses.B.base.dimension + 2):
                got, ref = cochain_matrix(f, k), _OldSheafMap(f).cochain_matrix(k)
                assert _typed(got) == _typed(ref), (label, k)


@pytest.mark.parametrize("group", list(_GROUPS))
def test_induced_maps_match_reference(group):
    for label, ses, why in _GROUPS[group]:
        if why is not None:
            continue
        maps = les_maps(ses, ses.B.base.dimension)
        for f in maps:
            old = _OldInducedMap(f)
            ref = old.image_rows()
            assert _typed(_dense(f.image_rows(), ref.shape)) == _typed(ref), label
            assert f.is_surjective() == old.is_surjective(), label
            assert sheaves.image_dimension(f) == image_dimension(f), label
        for f, g in zip(maps, maps[1:]):
            got = sheaves.torsion_exact_at(f, g)
            assert got == torsion_exact_at(_OldInducedMap(f), g), label
            assert got, label  # the sequences are exact


def test_induced_maps_match_reference_where_exactness_fails():
    """Maps that are not exact, and maps onto and not onto."""
    X = rp2_complex()
    ses = _constant_ses(X, Stalk(1), Stalk(1), Stalk(1, (2,)), [[2]], [[1]])
    maps = les_maps(ses, ses.B.base.dimension)
    outcomes = set()
    for f in maps:
        outcomes.add(f.is_surjective())
        assert f.is_surjective() == _OldInducedMap(f).is_surjective()
    # each map of the sequence times 2 and 3: its image shrinks, so exactness
    # at its target fails where the image was not all torsion
    for f, g in zip(maps, maps[1:]):
        for m in (2, 3):
            scaled = sheaves.InducedMap(f.source, f.target, f.matrix * m)
            got = sheaves.torsion_exact_at(scaled, g)
            assert got == torsion_exact_at(_OldInducedMap(scaled), g)
            assert scaled.is_surjective() == _OldInducedMap(scaled).is_surjective()
            outcomes.add(("exact", got))
    # restriction to the vertices, and to the whole complex
    for cells in (X.cells_of_dim(0), list(X.cells)):
        for k in range(2):
            f, _ = restriction_on_cohomology(ses.B, subcomplex(X, cells), k)
            old = _OldInducedMap(f)
            outcomes.add(f.is_surjective())
            assert f.is_surjective() == old.is_surjective()
            ref = old.image_rows()
            assert _typed(_dense(f.image_rows(), ref.shape)) == _typed(ref)
    assert {True, False, ("exact", True), ("exact", False)} <= outcomes


def test_q_induced_maps_match_reference():
    for label, ses, _ in _i_sequences():
        for f in les_maps(ses, ses.B.base.dimension):
            old = _OldInducedMap(f)
            ref = old.image_rows()
            assert _typed(_dense(f.image_rows(), ref.shape, "Q")) == _typed(ref), label
            assert f.is_surjective() == old.is_surjective(), label
            assert sheaves.image_dimension(f) == image_dimension(f), label


# ---------------------------------------------------------------------------
# is_cocycle


def _cocycle_sheaves():
    X, T = rp2_complex(), grid_torus()
    yield constant_sheaf(X, 1)
    yield constant_sheaf(X, 1, moduli=(2,))
    yield constant_sheaf(T, 1, moduli=(3,))
    yield constant_sheaf(X, 1, "Q")
    yield CellularSheaf(
        T, "Z", {c: Stalk(2, (0, 4)) for c in T.cells}, {(f, cf): eye(2) for (cf, f) in T.incidence}
    )
    yield build_R_sheaf(build("flat_torus:1").payload)
    yield build_R_sheaf(build("ff_disk:1").payload)


def test_is_cocycle_matches_reference():
    rng = random.Random(5)
    outcomes = set()
    for F in _cocycle_sheaves():
        for k in range(F.base.dimension + 1):
            gens = cohomology(F, k).generator_cocycles()
            for trial in range(6):
                v = F.zero_cochain(k)
                for g in gens:
                    v = v + rng.randint(-3, 3) * g
                if trial % 3 == 1 and len(v):
                    j = rng.randrange(len(v))
                    v[j] = v[j] + rng.randint(1, 3)
                elif trial % 3 == 2:
                    for j in range(len(v)):
                        v[j] = v[j] + rng.randint(-2, 2)
                got = F.is_cocycle(k, v)
                assert got == is_cocycle(F, k, v)
                outcomes.add(got)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# Connecting maps


@pytest.mark.parametrize("group", list(_GROUPS) + ["Q sequences"])
def test_connecting_map_matches_reference(group):
    cases = list(_i_sequences()) if group == "Q sequences" else _GROUPS[group]
    nonzero = 0
    for label, ses, why in cases:
        if why is not None:
            continue
        for k in range(ses.B.base.dimension):
            new = sheaves.connecting_map(ses, k, check=False)
            ref = induced_map(new.source, new.target, _delta_fn(ses, k))
            old = connecting_map(_OldSequence(ses), k, check=False)
            want = _coordinates(ref)
            assert _coordinates(new) == want, (label, k)
            assert _coordinates(old) == want, (label, k)
            for seed in range(3):
                moved = sheaves.connecting_map(ses, k, rng=random.Random(seed), check=False)
                assert _coordinates(moved) == want, (label, k, seed)
            nonzero += any(any(c) for c in want)
    assert nonzero


def _apply(rows, x):
    """The matrix of the sparse rows times the sparse vector x, row by row:
    the library applies maps by columns, so this is an independent check."""
    out = {}
    for i, row in enumerate(rows):
        s = sum(v * x[j] for j, v in row.items() if j in x)
        if s:
            out[i] = s
    return out


def _in_torsion(x, torsion):
    """Whether the sparse vector x lies in the lattice of the torsion rows."""
    orders = {j: m for row in torsion for j, m in row.items()}
    return all(v % orders[j] == 0 if j in orders else v == 0 for j, v in x.items())


def test_lift_solves_modulo_the_target_torsion():
    """lift(x) is a y with M y = x modulo the torsion of the target, for x =
    M b plus torsion; each kernel vector maps into the torsion; an x outside
    the image lifts to None."""
    rng = random.Random(13)
    checked = 0
    for label, ses, _ in _SEQUENCES[:40] + list(_i_sequences()):
        for f in (ses.i, ses.p):
            for k in range(ses.B.base.dimension + 1):
                rows = _transpose(f._cochain_columns(k), f.target.cochain_rank(k))
                torsion = f.target._torsion_rows(k)
                lift, kernel = f._lifter(k)
                for _ in range(3):
                    b = {j: rng.randint(-3, 3) for j in range(f.source.cochain_rank(k))}
                    x = _apply(rows, {j: v for j, v in b.items() if v})
                    for row in torsion:
                        _axpy(x, rng.randint(-1, 1), row)
                    y = lift(dict(x))
                    _axpy(x, -1, _apply(rows, y))
                    assert _in_torsion(x, torsion), (label, k)
                    checked += 1
                for t in kernel:
                    assert _in_torsion(_apply(rows, t), torsion), (label, k)
    assert checked > 500
    p = _constant_ses(circle(4), Stalk(1), Stalk(1), Stalk(1), [[0]], [[2]]).p
    lift, _ = p._lifter(0)
    assert lift({0: 1}) is None
    assert lift({0: 2}) == {0: 1}


def test_connecting_map_with_rng_moves_the_representative():
    """The seeded lifts do move the lift (else the check above would be
    empty), but not the canonical coordinates."""
    ses = _constant_ses(rp2_complex(), Stalk(1), Stalk(1), Stalk(1, (2,)), [[2]], [[1]])
    base = sheaves.connecting_map(ses, 1)
    raw = set()
    for seed in range(8):
        moved = sheaves.connecting_map(ses, 1, rng=random.Random(seed), check=False)
        assert _coordinates(moved) == _coordinates(base)
        raw.add(tuple(moved.matrix.flat))
    assert len(raw) > 1


def _twisted(ring):
    """0 -> 0 -> B -> C -> 0 on a circle: B = constants + C, where one
    restriction adds C to the constants, so d of a lift of the constant
    section of C has a constant part, which the zero sheaf A cannot hold."""
    X = circle(3)
    conv = intmat if ring == "Z" else fracmat
    v, e = X.cells_of_dim(0)[0], next(c for c, _ in X.cofaces_of(X.cells_of_dim(0)[0]))
    B = CellularSheaf(
        X, ring, {c: Stalk(2) for c in X.cells},
        {(f, cf): conv([[1, 1], [0, 1]]) if (f, cf) == (v, e) else conv([[1, 0], [0, 1]])
         for (cf, f) in X.incidence},
    )
    C = constant_sheaf(X, 1, ring)
    A = CellularSheaf(X, ring, {}, {})
    i = SheafMap(A, B, {})
    p = SheafMap(B, C, {c: conv([[0, 1]]) for c in X.cells})
    return ShortExactSequence(i=i, p=p)


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_connecting_map_raises_when_a_cocycle_cannot_lift(ring):
    X = circle(3)
    scale = 2 if ring == "Z" else 0  # p = 2 is not onto Z; p = 0 is not onto Q
    conv = intmat if ring == "Z" else fracmat
    A, B, C = (constant_sheaf(X, 1, ring) for _ in range(3))
    ses = ShortExactSequence(
        i=SheafMap(A, B, {c: conv([[0]]) for c in X.cells}),
        p=SheafMap(B, C, {c: conv([[scale]]) for c in X.cells}),
    )
    twisted = _twisted(ring)
    assert validate_sheaf(twisted.B).valid
    assert twisted.i.validate().valid and twisted.p.validate().valid
    cases = [("cannot lift cocycle through p", ses), ("not come from the subsheaf", twisted)]
    for why, ses in cases:
        for connecting, arg in ((sheaves.connecting_map, ses), (connecting_map, _OldSequence(ses))):
            with pytest.raises(SheafError, match=why):
                connecting(arg, 0, check=False)


# ---------------------------------------------------------------------------
# Squares modulo torsion in gluing specs and automorphisms


def _z2_triangles():
    """Constant Z/2 on two triangles sharing the edge ab, the second with
    restriction [[3]] (= [[1]] mod 2) on the overlap pair (a, ab)."""
    from torusbase.complexes import complex_from_polygons

    X1 = complex_from_polygons({"f1": ["a", "b", "c"]})
    X2 = complex_from_polygons({"f2": ["a", "b", "d"]})
    F1 = constant_sheaf(X1, 1, moduli=(2,))
    F2 = constant_sheaf(X2, 1, moduli=(2,))
    edge = next(cf for (f, cf) in F2.restrictions if f == "a" and X2.dim(cf) == 1 and "b" in cf)
    F2.restrictions[("a", edge)] = intmat([[3]])
    return X1, F1, X2, F2, {"a", "b", edge}


def test_gluing_squares_commute_modulo_torsion():
    from torusbase.surgery import GluingSpec, glue

    X1, F1, X2, F2, shared = _z2_triangles()
    assert validate_sheaf(F2).valid
    # the same pair of sheaves on one complex: the identity map validates
    G = constant_sheaf(X2, 1, moduli=(2,))
    assert SheafMap(G, F2, {c: eye(1) for c in X2.cells}).validate().valid
    spec = GluingSpec(
        complex1=X1, sheaf1=F1, complex2=X2, sheaf2=F2,
        overlap1=subcomplex(X1, shared), overlap2=subcomplex(X2, shared),
        cell_map={c: c for c in shared}, stalk_isos={c: eye(1) for c in shared},
    )
    assert spec.validate() == []
    Z, F, _ = glue(spec)
    assert validate_sheaf(F).valid
    # a square that fails modulo 2 is still reported
    F2.restrictions[("a", next(iter(shared - {"a", "b"})))] = intmat([[2]])
    assert spec.validate() != []


def test_automorphism_squares_commute_modulo_torsion():
    X = circle(3)
    verts = X.cells_of_dim(0)
    rot = {verts[i]: verts[(i + 1) % 3] for i in range(3)}
    edges = {}
    for e in X.cells_of_dim(1):
        ends = {f for f, _ in X.faces_of(e)}
        edges[e] = next(
            g for g in X.cells_of_dim(1) if {f for f, _ in X.faces_of(g)} == {rot[f] for f in ends}
        )
    cell_map = {**rot, **edges}
    F = constant_sheaf(X, 1, moduli=(2,))
    key = next(iter(F.restrictions))
    F.restrictions[key] = intmat([[3]])
    assert validate_sheaf(F).valid
    aut = SheafAutomorphism(F, cell_map, {c: eye(1) for c in X.cells})
    assert aut.validate().valid
    F.restrictions[key] = intmat([[2]])
    assert not aut.validate().valid


# ---------------------------------------------------------------------------
# The library's long exact sequence, chained as returned: SheafMap.induced,
# and connecting maps on cohomology results of their own.


def _library_les(ses):
    res, top = lru_cache(None)(cohomology), ses.B.base.dimension
    out = []
    for k in range(top + 1):
        hA, hB, hC = res(ses.A, k), res(ses.B, k), res(ses.C, k)
        out += [ses.i.induced(hA, hB), ses.p.induced(hB, hC)]
        if k < top:
            out.append(sheaves.connecting_map(ses, k, check=False))
    return out


def _i_ses(name):
    return lambda: build_I_sheaf(build(name).payload)[1]


def _mod2_rp2():
    return _constant_ses(rp2_complex(), Stalk(1), Stalk(1), Stalk(1, (2,)), [[2]], [[1]])


_LES_SMALL = [("flat_torus:1 I", _i_ses("flat_torus:1")), ("ff_disk:2 I", _i_ses("ff_disk:2"))]
_LES_SMALL += [("rp2 mod 2", _mod2_rp2)]
_LES_SMALL += [(label, lambda ses=ses: ses) for label, ses, _ in _GROUPS["criterion 8b"][:20]]
_LES = [("sphere_24ff I", _i_ses("sphere_24ff"))] + _LES_SMALL


@pytest.mark.parametrize("make", [m for _, m in _LES], ids=[i for i, _ in _LES])
def test_library_les_composes_and_is_exact(make):
    ses = make()
    maps = _library_les(ses)
    assert len(maps) == 3 * ses.B.base.dimension + 2
    for f, g in zip(maps, maps[1:]):
        assert sheaves.rank_exact_at(f, g)
        assert ses.A.ring == "Q" or sheaves.torsion_exact_at(f, g)


def test_connecting_map_composes_with_numpy_induced_maps():
    ses = _mod2_rp2()
    for k in (0, 1):
        p = induced_map(cohomology(ses.B, k), cohomology(ses.C, k), cochain_matrix(ses.p, k).dot)
        hA, hB = cohomology(ses.A, k + 1), cohomology(ses.B, k + 1)
        i = induced_map(hA, hB, cochain_matrix(ses.i, k + 1).dot)
        delta = sheaves.connecting_map(ses, k)
        assert sheaves.rank_exact_at(p, delta) and sheaves.torsion_exact_at(p, delta)
        assert sheaves.rank_exact_at(delta, i) and sheaves.torsion_exact_at(delta, i)


@pytest.mark.parametrize("make", [m for _, m in _LES_SMALL], ids=[i for i, _ in _LES_SMALL])
def test_sheaf_map_induced_matches_the_numpy_adapter(make):
    ses = make()
    for f in (ses.i, ses.p):
        for k in range(ses.B.base.dimension + 1):
            hs, ht = cohomology(f.source, k), cohomology(f.target, k)
            got = f.induced(hs, ht).matrix
            want = induced_map(hs, ht, cochain_matrix(f, k).dot).matrix
            assert got.shape == want.shape and repr(got.tolist()) == repr(want.tolist())


def test_induced_maps_need_their_own_sheaves_in_one_degree():
    ses = _mod2_rp2()
    hA0, hB0, hC0 = (cohomology(F, 0) for F in (ses.A, ses.B, ses.C))
    hB1 = cohomology(ses.B, 1)
    for source, target in ((hB0, hB0), (hA0, hC0), (hA0, hB1)):
        with pytest.raises(SheafError, match="not of this map's sheaves"):
            ses.i.induced(source, target)
    # the middle groups: another sheaf, then C in another degree
    i0, p0 = ses.i.induced(hA0, hB0), ses.p.induced(hB0, hC0)
    for f, g in ((i0, i0), (p0, sheaves.connecting_map(ses, 1))):
        for exact_at in (sheaves.rank_exact_at, sheaves.torsion_exact_at):
            with pytest.raises(SheafError, match="not composable"):
                exact_at(f, g)


def test_a_sheaf_map_needs_one_ring():
    # a Z source and a Q target, or the reverse, would give induced matrices
    # that mix ints and Fractions
    X = circle(3)
    Z, Q = constant_sheaf(X, 1), constant_sheaf(X, 1, "Q")
    for source, target in ((Z, Q), (Q, Z)):
        with pytest.raises(SheafError, match="sheaf map requires a common ring"):
            SheafMap(source, target, {c: eye(1, source.ring) for c in X.cells})
    assert SheafMap(Q, Q, {c: eye(1, "Q") for c in X.cells}).validate().valid
