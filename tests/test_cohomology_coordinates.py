"""Cohomology coordinates read off the echelon cocycle basis, checked against
a LinearSystem solve (a Smith form over Z) on the same basis.

The coefficients of a vector in a basis are unique, so the back-substitution
in CohomologyResult and the reference solve must give the same relations and
the same coordinates, for every catalog entry and every degree.
"""

import functools
import random
from fractions import Fraction

import pytest

from reference import basis_matrix, lattice_basis, lattice_eq, moduli_rows, preimage_lattice
from torusbase.affine import build_R_sheaf
from torusbase.catalog import build, catalog_names, grid_torus_complex
from torusbase.exact import LinearSystem, PresentedGroup, QuotientSpace, _transpose, intmat, intvec, zeros
from torusbase.sheaves import SheafError, cohomology, constant_sheaf


@functools.lru_cache(maxsize=None)
def _sheaves(name):
    """(label, sheaf) pairs: the entry's own sheaves, then constant Z, Z/2, Q."""
    entry = build(name)
    out = []
    if entry.kind == "affine":
        X = entry.payload.base
        out.append(("R", build_R_sheaf(entry.payload)))
    elif entry.kind == "complex":
        X = entry.payload
    elif entry.kind == "sheaf":
        X, F = entry.payload
        out.append(("sheaf", F))
    else:
        X, F = entry.payload["piece_minus"]
        out.append(("piece_minus", F))
    out.append(("Z", constant_sheaf(X, 1)))
    out.append(("Z/2", constant_sheaf(X, 1, "Z", moduli=(2,))))
    out.append(("Q", constant_sheaf(X, 1, "Q")))
    return tuple(out)


def _reference_relations(F, k, basis, ref):
    """Coefficients of the coboundaries and the stalk torsion of C^k."""
    gens = list(F.differential(k - 1).T) if k >= 1 else []
    gens += list(moduli_rows(F, k))
    rows = []
    for g in gens:
        coef = ref.solve(g, F.ring)
        assert coef is not None, "a coboundary is not a cocycle"
        rows.append(coef)
    rel = zeros(len(rows), basis.shape[1], F.ring)
    for i, r in enumerate(rows):
        rel[i] = r
    return rel


def _check_sheaf(F, seed):
    rng = random.Random(seed)
    for k in range(-1, F.base.dimension + 2):
        h = cohomology(F, k)
        basis = basis_matrix(h._cocycles)
        ref = LinearSystem(basis)
        z = basis.shape[1]
        if z:
            rel = _reference_relations(F, k, basis, ref)
            if F.ring == "Z":
                assert lattice_eq(h.presentation.relations, PresentedGroup(z, rel).relations)
                assert h.group == PresentedGroup(z, rel).group
            else:
                assert h.presentation.dimension == QuotientSpace(z, rel).dimension
        gens = h.generator_cocycles()
        for _ in range(3):
            v = F.zero_cochain(k)
            for g in gens:
                v = v + rng.randint(-3, 3) * g
            if k >= 1 and F.cochain_rank(k - 1):
                c = F.zero_cochain(k - 1)
                for i in range(len(c)):
                    c[i] = c[i] + rng.randint(-2, 2)
                v = v + F.coboundary(k - 1, c)
            coef = h.to_presentation_coords(v)
            expected = ref.solve(v, F.ring)
            assert expected is not None
            assert list(coef) == list(expected)
            assert list(basis.dot(coef)) == list(v)
            assert h.coordinates(v) == h.presentation.reduce(expected)


@pytest.mark.parametrize("name", catalog_names())
def test_coordinates_match_reference_solve(name):
    for i, (label, F) in enumerate(_sheaves(name)):
        _check_sheaf(F, seed=1000 * len(name) + i)


def _non_cocycle(F, k):
    """A unit cochain whose coboundary is not zero (modulo the torsion)."""
    for j in range(F.cochain_rank(k)):
        e = F.zero_cochain(k)
        e[j] = e[j] + 1
        if not F.is_cocycle(k, e):
            return e
    return None


@pytest.mark.parametrize("label", ["Z", "Z/2", "Q"])
def test_non_cocycle_rejected_in_both_rings(label):
    F = dict(_sheaves("klein_affine"))[label]
    for k in range(F.base.dimension):
        e = _non_cocycle(F, k)
        assert e is not None
        h = cohomology(F, k)
        with pytest.raises(SheafError):
            h.coordinates(e)
        with pytest.raises(SheafError):
            h.to_presentation_coords(e)


def test_inexact_division_by_an_hnf_pivot_is_rejected():
    # the mod-2 cocycle lattice contains 2 e_j for every j, so its HNF has
    # pivots 2 wherever e_j itself is not a mod-2 cocycle
    F = dict(_sheaves("klein_affine"))["Z/2"]
    k = 1
    H = preimage_lattice(F.differential(k), moduli_rows(F, k + 1))
    h = cohomology(F, k)
    found = 0
    for i in range(H.shape[0]):
        p = next(j for j in range(H.shape[1]) if H[i, j] != 0)
        if H[i, p] == 1:
            continue
        found += 1
        e = F.zero_cochain(k)
        e[p] = 1
        assert not F.is_cocycle(k, e)
        with pytest.raises(SheafError):
            h.coordinates(e)
        h.coordinates(H[i])  # the row itself is a cocycle
        h.coordinates(3 * H[i])
    assert found


def test_echelon_basis_back_substitution():
    B = lattice_basis(intmat([[2, 1, 0], [0, 3, 1], [0, 0, 0]]))
    assert len(B) == 2
    assert list(B.coefficients(intvec([2, 1, 0]))) == [1, 0]
    assert list(B.coefficients(intvec([4, 5, 1]))) == [2, 1]
    assert list(B.coefficients(intvec([-2, 2, 1]))) == [-1, 1]
    assert list(B.coefficients(intvec([0, 0, 0]))) == [0, 0]
    assert B.coefficients(intvec([1, 0, 0])) is None  # 1 / 2 is inexact
    assert B.coefficients(intvec([2, 2, 0])) is None  # then 1 / 3
    assert B.coefficients(intvec([0, 3, 2])) is None  # off the span
    assert [list(c) for c in basis_matrix(B).T] == [[2, 1, 0], [0, 3, 1]]


def test_z_coordinates_name_a_fraction_rather_than_truncate_it():
    F = constant_sheaf(grid_torus_complex(3, 3), 1)
    H = cohomology(F, 1)
    g = H.generator_cocycles()[0]
    for h, v in ((H, g * Fraction(1, 2)), (cohomology(F, 0), F.zero_cochain(0) + Fraction(1, 2))):
        with pytest.raises(ValueError, match="1/2"):
            h.coordinates(v)
    with pytest.raises(ValueError, match="1.5"):
        PresentedGroup(2, intmat([[2, 0]])).reduce([1.5, 0])
    assert H.coordinates(g * Fraction(2)) == H.coordinates(2 * g) != H.coordinates(0 * g)


def test_rational_stalks_carry_no_torsion():
    from torusbase.sheaves import CellularSheaf, Stalk

    X = build("flat_torus").payload.base
    with pytest.raises(SheafError):
        CellularSheaf(X, "Q", {c: Stalk(1, (2,)) for c in X.cells}, {})
    CellularSheaf(X, "Q", {c: Stalk(1, (0,)) for c in X.cells}, {})


# ---------------------------------------------------------------------------
# The differential is assembled as sparse rows straight from the restriction
# blocks, and differential(k) is their dense view.  The dense blockwise loop
# it replaced is kept here, verbatim, as the reference.


def reference_differential(F, k):
    off_k, n_k = F.offsets(k)
    off_k1, n_k1 = F.offsets(k + 1)
    D = zeros(n_k1, n_k, F.ring)
    for tau in F.cochain_cells(k + 1):
        for sigma, sign in F.base.faces_of(tau):
            R = F._block(sigma, tau)
            i, j = off_k1[tau], off_k[sigma]
            D[i:i + F.rank(tau), j:j + F.rank(sigma)] += sign * R
    return D


def _glued_sheaf():
    from torusbase.surgery import glue

    return glue(build("fake_base_space").payload["spec"])[1]


def _assert_same_differentials(F):
    for k in range(-1, F.base.dimension + 1):
        got, want = F.differential(k), reference_differential(F, k)
        assert got.shape == want.shape
        assert all(type(a) is type(b) and a == b for a, b in zip(got.flat, want.flat))
        rows = _transpose(F._differential_columns(k), F.cochain_rank(k + 1))
        assert [{j: v for j, v in enumerate(r) if v != 0} for r in want.tolist()] == rows


@pytest.mark.parametrize("name", catalog_names())
def test_differential_rows_match_the_dense_blockwise_loop(name):
    for label, F in _sheaves(name):
        _assert_same_differentials(F)


def test_differential_rows_of_the_glued_sheaf():
    _assert_same_differentials(_glued_sheaf())


@pytest.mark.parametrize("name", catalog_names())
def test_generator_cocycles_match_the_dense_basis_product(name):
    # generator_cocycles reads the sparse cocycle basis; the dense basis
    # product it replaced must give the same entries, of the same types
    for label, F in _sheaves(name):
        for k in range(F.base.dimension + 1):
            h = cohomology(F, k)
            got = h.generator_cocycles()
            want = [basis_matrix(h._cocycles).dot(g) for g in h.presentation.generators()]
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert len(a) == len(b)
                assert all(type(x) is type(y) and x == y for x, y in zip(a, b))
