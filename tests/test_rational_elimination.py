"""Cross-checks of the rational elimination and the cellwise coboundary.

Every reference here is computed without torusbase's elimination: sympy's
Matrix.rref() and nullspace(), plain list products, and the dense
differential of the sheaf.  Inputs are built with numpy directly.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from reference import kernel_columns, q_kernel, rref
from torusbase.affine import AffineError, build_I_sheaf, build_R_sheaf, dhat
from torusbase.catalog import build
from torusbase.exact import LinearSystem, QuotientSpace, q_rank
from torusbase.sheaves import CohomologyClass, cohomology


def sympy_matrix(rows, m, n):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(m, n, [x for r in rows for x in r])


def objmat(rows, m, n):
    return np.array(rows, dtype=object).reshape(m, n)


def objvec(xs):
    return np.array(xs, dtype=object)


def matvec(rows, x):
    return [sum((a * b for a, b in zip(r, x)), Fraction(0)) for r in rows]


def to_fraction(x):
    return Fraction(int(x.p), int(x.q))


def random_sparse(rng, m, n):
    """An m x n list of Fraction rows, mostly zeros, often degenerate."""
    density = rng.choice([0.1, 0.25, 0.5])
    rows = [
        [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < density else Fraction(0)
            for _ in range(n)
        ]
        for _ in range(m)
    ]
    if m and n:
        kind = rng.randrange(5)
        if kind == 0:
            rows[rng.randrange(m)] = [Fraction(0)] * n  # zero row
        elif kind == 1:
            j = rng.randrange(n)
            for r in rows:
                r[j] = Fraction(0)  # zero column
        elif kind == 2 and m >= 2:
            rows[rng.randrange(1, m)] = list(rows[0])  # duplicate row
        elif kind == 3 and m >= 3:
            a, b = rng.sample(range(m - 1), 2)
            f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows[m - 1] = [x + f * y for x, y in zip(rows[a], rows[b])]  # rank drop
    return rows


def cases(seed, count=120, max_dim=7):
    rng = random.Random(seed)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1), (4, 1), (1, 4)]
    for m, n in shapes:
        yield rng, m, n, random_sparse(rng, m, n)
    for _ in range(count):
        m, n = rng.randint(1, max_dim), rng.randint(1, max_dim)
        yield rng, m, n, random_sparse(rng, m, n)


def sympy_rref(rows, m, n):
    R, pivots = sympy_matrix(rows, m, n).rref()
    return [[to_fraction(R[i, j]) for j in range(n)] for i in range(m)], list(pivots)


def test_rref_matches_sympy():
    for _, m, n, rows in cases(101):
        R, pivots = rref(objmat(rows, m, n))
        R_ref, pivots_ref = sympy_rref(rows, m, n)
        assert pivots == pivots_ref
        assert R.shape == (m, n)
        assert [[R[i, j] for j in range(n)] for i in range(m)] == R_ref
        assert all(isinstance(x, Fraction) for x in R.flat)
        assert q_rank(objmat(rows, m, n)) == len(pivots_ref)


def test_q_kernel_matches_sympy_nullspace():
    for _, m, n, rows in cases(202):
        K = q_kernel(objmat(rows, m, n))
        ref = sympy_matrix(rows, m, n).nullspace() if n else []
        assert K.shape == (n, len(ref))
        for k, v in enumerate(ref):
            assert [K[i, k] for i in range(n)] == [to_fraction(x) for x in v]
        for k in range(K.shape[1]):
            assert matvec(rows, [K[i, k] for i in range(n)]) == [0] * m


def test_linear_system_over_q():
    for rng, m, n, rows in cases(303):
        if not (m and n):
            continue
        M = objmat(rows, m, n)
        system = LinearSystem(M)
        assert system._rational
        rank = sympy_matrix(rows, m, n).rank()
        assert system.rank == rank
        K = kernel_columns(system)
        assert K.shape == (n, n - rank)
        for k in range(K.shape[1]):
            assert matvec(rows, [K[i, k] for i in range(n)]) == [0] * m
        x0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        for b in (matvec(rows, x0), [Fraction(rng.randint(-3, 3)) for _ in range(m)], [0] * m):
            aug = [r + [bi] for r, bi in zip(rows, b)]
            R_aug, pivots_aug = sympy_rref(aug, m, n + 1)
            solvable = n not in pivots_aug
            x = system.solve(objvec(b), "Q")
            assert (x is not None) == solvable
            if x is None:
                continue
            assert matvec(rows, list(x)) == list(b)
            # the particular solution with every free variable set to 0
            expected = [Fraction(0)] * n
            for r, p in enumerate(pivots_aug):
                expected[p] = R_aug[r][n]
            assert list(x) == expected


def test_linear_system_over_q_rejects_z_and_bad_length():
    M = objmat([[Fraction(1, 2), Fraction(0)]], 1, 2)
    system = LinearSystem(M)
    with pytest.raises(ValueError):
        system.solve(objvec([Fraction(1)]), "Z")
    with pytest.raises(ValueError):
        system.solve(objvec([Fraction(1), Fraction(2)]), "Q")


def test_quotient_space_coordinates():
    """Coordinates are the non-pivot entries after reduction by the RREF."""
    for rng, m, n, rows in cases(404, count=80):
        Q = QuotientSpace(n, objmat(rows, m, n))
        R_ref, pivots = sympy_rref(rows, m, n)
        free = [j for j in range(n) if j not in pivots]
        assert Q.dimension == len(free)
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        y = list(x)
        for r, p in enumerate(pivots):
            f = y[p]
            y = [a - f * b for a, b in zip(y, R_ref[r])]
        assert Q.reduce(objvec(x)) == tuple(y[j] for j in free)
        shifted = list(x)
        for r in rows:
            c = Fraction(rng.randint(-2, 2))
            shifted = [a + c * b for a, b in zip(shifted, r)]
        assert Q.reduce(objvec(shifted)) == Q.reduce(objvec(x))
        for r in rows:
            assert Q.is_zero(objvec(r))
        for k, g in enumerate(Q.generators()):
            assert Q.reduce(g) == tuple(Fraction(int(i == k)) for i in range(len(free)))


def test_quotient_space_without_relations():
    Q = QuotientSpace(3)
    assert Q.dimension == 3
    assert Q.reduce([1, Fraction(1, 2), 0]) == (Fraction(1), Fraction(1, 2), Fraction(0))


# ---------------------------------------------------------------------------
# the cellwise coboundary and dhat against the dense differential


SURFACES = ["flat_torus:1", "ff_disk:2"]


def random_cochain(rng, F, k):
    vec = F.zero_cochain(k)
    for c in F.cochain_cells(k):
        if rng.random() < 0.5:
            continue  # leave whole cells zero, the case the coboundary skips
        i = F.offsets(k)[0][c]
        for j in range(F.rank(c)):
            vec[i + j] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return vec


@pytest.mark.parametrize("name", SURFACES)
def test_coboundary_matches_dense_differential(name):
    S = build(name).payload
    I, _ = build_I_sheaf(S)
    R = build_R_sheaf(S)
    rng = random.Random(name)
    for F in (I, R):
        for k in range(S.base.dimension + 1):
            for _ in range(6):
                b = random_cochain(rng, F, k)
                if F.ring == "Z":
                    b = objvec([int(x) for x in b])
                assert list(F.coboundary(k, b)) == list(F.differential(k).dot(b))
            zero = F.zero_cochain(k)
            assert list(F.coboundary(k, zero)) == [0] * F.cochain_rank(k + 1)


def dense_dhat(ses, cls, hA):
    """The zig-zag of dhat with the dense I-differential."""
    RQ, I, QQ = ses.p.target, ses.B, ses.i.source
    k = cls.degree
    b = I.zero_cochain(k)
    for c in I.cochain_cells(k):
        i0, j0 = I.offsets(k)[0][c], RQ.offsets(k)[0][c]
        for i in range(RQ.rank(c)):
            b[i0 + 1 + i] = Fraction(cls.cocycle[j0 + i])
    db = I.differential(k).dot(b)
    a = QQ.zero_cochain(k + 1)
    for c in I.cochain_cells(k + 1):
        i0 = I.offsets(k + 1)[0][c]
        assert all(db[i0 + 1 + i] == 0 for i in range(RQ.rank(c)))
        a[QQ.offsets(k + 1)[0][c]] = db[i0]
    return hA.coordinates(a)


@pytest.mark.parametrize("name", SURFACES)
def test_dhat_matches_dense_zigzag(name):
    S = build(name).payload
    _, ses = build_I_sheaf(S)
    R = build_R_sheaf(S)
    hA = cohomology(ses.i.source, 2)
    rng = random.Random(name)
    gens = cohomology(R, 1).generator_cocycles()
    shifts = [
        R.differential(0).dot(objvec([rng.randint(-3, 3) for _ in range(R.cochain_rank(0))]))
        for _ in range(4)
    ]
    for z in gens + shifts + [g + s for g, s in zip(gens, shifts)]:
        cls = CohomologyClass(R, 1, z)
        assert R.is_cocycle(1, z)
        _, coords = dhat(S, cls, ses, target=hA)
        assert coords == dense_dhat(ses, cls, hA)


def test_dhat_rejects_a_non_cocycle():
    S = build("flat_torus:1").payload
    _, ses = build_I_sheaf(S)
    R = build_R_sheaf(S)
    rng = random.Random(5)
    while True:
        z = objvec([rng.randint(-2, 2) for _ in range(R.cochain_rank(1))])
        if any(x != 0 for x in R.differential(1).dot(z)):
            break
    assert not R.is_cocycle(1, z)
    with pytest.raises(AffineError, match="constant subsheaf"):
        dhat(S, CohomologyClass(R, 1, z), ses)
