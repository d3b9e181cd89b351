import heapq
import random
from fractions import Fraction

import numpy as np
import pytest

from torusbase.affine import build_R_sheaf
from torusbase.catalog import build, catalog_names
from reference import lattice_hnf, lattice_member, stack_rows
from torusbase.exact import AbelianGroup, EchelonBasis, LinearSystem, PresentedGroup, QuotientSpace
from torusbase.exact import SmithDecomposition, eye, fracmat, fracvec, hnf, intmat, intvec, inv2, kernel
from torusbase.exact import mat_eq, q_rank, snf, unimodular_inverse
from torusbase.exact import _dense, _echelon, _echelon_with_transform, _kernel_rows, _preimage_rows
from torusbase.exact import _sparse_rows, _substitute
from torusbase.sheaves import _same_lattice
from torusbase.surgery import glue


def random_matrix(rng, max_dim=8, lo=-9, hi=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return intmat([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def det(M):
    # fraction-free Bareiss elimination
    A = [[int(x) for x in row] for row in M]
    n = len(A)
    sign = 1
    prev = 1
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


def test_hnf_identity():
    H, U = hnf(eye(2))
    assert mat_eq(H, eye(2))
    assert mat_eq(U, eye(2))


def test_hnf_zero():
    H, U = hnf(intmat([[0]]))
    assert mat_eq(H, intmat([[0]]))
    assert mat_eq(U, intmat([[1]]))


def test_hnf_2x2_example():
    # independent row-reduction oracle: (6,8)-3*(2,4)=(0,-4) -> (0,4),
    # then (2,4)-(0,4) reduces the entry above the pivot
    M = intmat([[2, 4], [6, 8]])
    H, U = hnf(M)
    assert mat_eq(H, intmat([[2, 0], [0, 4]]))
    assert mat_eq(U.dot(M), H)
    assert det(U) in (1, -1)


def test_snf_identity():
    dec = snf(eye(3))
    assert mat_eq(dec.D, eye(3))


def test_snf_examples():
    # d1 = gcd of entries, d1*d2 = |det|
    dec = snf(intmat([[2, 0], [0, 3]]))
    assert dec.diagonal == [1, 6]
    dec = snf(intmat([[2, 4], [6, 8]]))
    assert dec.diagonal == [2, 4]


def test_cokernel_examples():
    assert PresentedGroup(2, intmat([[0, 0], [0, 0]])).group == AbelianGroup(2)
    assert PresentedGroup(2, intmat([[2, 0], [0, 3]])).group == AbelianGroup(0, (6,))
    assert PresentedGroup(2, intmat([[2, 4], [6, 8]])).group == AbelianGroup(0, (2, 4))


def test_solve_examples():
    x = LinearSystem(eye(2)).solve(intvec([3, 5]))
    assert list(x) == [3, 5]
    assert LinearSystem(intmat([[2]])).solve(intvec([1]), "Z") is None
    xq = LinearSystem(intmat([[2]])).solve(intvec([1]), "Q")
    assert list(xq) == [Fraction(1, 2)]
    x = LinearSystem(intmat([[2, 4], [6, 8]])).solve(intvec([2, 6]), "Z")
    assert list(intmat([[2, 4], [6, 8]]).dot(x)) == [2, 6]


def test_solve_dimension_mismatch():
    # both rings check len(b) themselves, before any product with the matrix
    for M, ring in ((intmat([[1, 2]]), "Z"), (intmat([[1, 2]]), "Q"), (fracmat([[1, 2]]) / 2, "Q")):
        with pytest.raises(ValueError, match=r"dimension mismatch: len\(b\) != rows of M"):
            LinearSystem(M).solve(intvec([1, 2]), ring)


def test_snf_random_invariants():
    rng = random.Random(7)
    for _ in range(500):
        M = random_matrix(rng)
        dec = snf(M)
        assert mat_eq(dec.D, dec.U.dot(M).dot(dec.V))
        assert det(dec.U) in (1, -1)
        assert det(dec.V) in (1, -1)
        diag = [d for d in dec.diagonal if d != 0]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        # off-diagonal zero
        m, n = dec.D.shape
        assert all(dec.D[i, j] == 0 for i in range(m) for j in range(n) if i != j)


def test_hnf_random_invariants():
    rng = random.Random(11)
    for _ in range(500):
        M = random_matrix(rng)
        H, U = hnf(M)
        assert mat_eq(H, U.dot(M))
        assert det(U) in (1, -1)
        # echelon with positive pivots, reduced above
        last = -1
        for i in range(H.shape[0]):
            nz = [j for j in range(H.shape[1]) if H[i, j] != 0]
            if not nz:
                continue
            p = nz[0]
            assert p > last
            last = p
            assert H[i, p] > 0
            for k in range(i):
                assert 0 <= H[k, p] < H[i, p]


def test_cokernel_unimodular_invariance():
    rng = random.Random(13)
    for _ in range(60):
        M = random_matrix(rng, max_dim=5)
        m, n = M.shape
        L = random_unimodular(rng, m)
        R = random_unimodular(rng, n)
        assert PresentedGroup(n, M).group == PresentedGroup(n, L.dot(M).dot(R)).group


def random_unimodular(rng, n, steps=12):
    U = eye(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        U[i] = U[i] + rng.randint(-2, 2) * U[j]
    if rng.random() < 0.5 and n > 1:
        U[[0, 1]] = U[[1, 0]]
    return U


def test_solve_substitution_random():
    rng = random.Random(17)
    for _ in range(200):
        M = random_matrix(rng, max_dim=6)
        m, n = M.shape
        x0 = intvec([rng.randint(-4, 4) for _ in range(n)])
        b = M.dot(x0)
        system = LinearSystem(M)
        x = system.solve(b, "Z")
        assert x is not None
        assert all(v == w for v, w in zip(M.dot(x), b))
        xq = system.solve(b, "Q")
        assert all(Fraction(v) == Fraction(w) for v, w in zip(M.dot(xq), b))


def test_kernel_random():
    rng = random.Random(19)
    for _ in range(100):
        M = random_matrix(rng, max_dim=6)
        K = kernel(M)
        if K.shape[1]:
            assert all(x == 0 for x in M.dot(K).flat)
        assert q_rank(M.astype(object)) + K.shape[1] == M.shape[1]


def test_unimodular_inverse():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(1, 5)
        U = random_unimodular(rng, n)
        W = unimodular_inverse(U)
        assert mat_eq(U.dot(W), eye(n))


def test_rref_and_qkernel():
    M = fracmat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    pivot_rows, _ = _echelon(_sparse_rows(M, "Q"), 3, "Q")
    assert list(pivot_rows) == [0, 1]
    (k,) = _kernel_rows(pivot_rows, 3).values()
    assert all(x == 0 for x in M.dot(_dense([k], (1, 3), "Q")[0]))


def test_lattice_helpers():
    L1 = _sparse_rows(intmat([[2, 0], [0, 3]]), "Z")
    L2 = _sparse_rows(intmat([[2, 3], [2, -3], [0, 6]]), "Z")
    H1 = _echelon(L1, 2, "Z")[0]
    assert _same_lattice(L1, list(H1.values()), 2)
    assert not _same_lattice(L1, L2, 2)
    assert EchelonBasis(2, H1, "Z").coefficients(intvec([4, 3])) is not None
    assert EchelonBasis(2, H1, "Z").coefficients(intvec([1, 0])) is None
    assert _same_lattice(_preimage_rows([{0: 1}, {1: 1}], 2, L1), L1, 2)


def test_presented_group():
    # Z^2 / <(2,0),(0,3)> = Z/6 in canonical form
    G = PresentedGroup(2, intmat([[2, 0], [0, 3]]))
    assert G.group == AbelianGroup(0, (6,))
    # coboundary-style membership
    assert G.reduce(intvec([2, 0])) == G.reduce(intvec([0, 0]))
    assert G.reduce(intvec([1, 0])) != G.reduce(intvec([0, 0]))
    gens = G.generators()
    assert len(gens) == 1
    # the generator has order exactly 6
    g = gens[0]
    seen = {G.reduce(intvec([0, 0]))}
    acc = intvec([0, 0])
    for _ in range(5):
        acc = acc + g
        assert G.reduce(acc) not in seen
        seen.add(G.reduce(acc))
    acc = acc + g
    assert G.is_zero(acc)


def test_presented_group_free():
    G = PresentedGroup(3)
    assert G.group == AbelianGroup(3)
    assert G.reduce(intvec([1, 2, 3])) == (1, 2, 3)


def test_quotient_space():
    Q = QuotientSpace(3, fracmat([[1, 1, 0]]))
    assert Q.dimension == 2
    assert Q.reduce(fracmat([[1, 1, 0]])[0]) == (Fraction(0), Fraction(0))
    assert Q.reduce(np.array([Fraction(1), Fraction(0), Fraction(0)], dtype=object)) != (
        Fraction(0),
        Fraction(0),
    )


def test_quotient_space_checks_its_inputs_as_presented_group_does():
    # the same errors, in the same words, for both
    for make in (lambda: PresentedGroup(2, intmat([[1, 2, 3]])), lambda: QuotientSpace(2, fracmat([[1, 2, 3]]))):
        with pytest.raises(ValueError, match="relation width mismatch"):
            make()
    for G in (PresentedGroup(2, intmat([[1, 1]])), QuotientSpace(2, fracmat([[1, 1]]))):
        for x in ([1], [1, 2, 3]):
            with pytest.raises(ValueError, match=r"dimension mismatch: len\(x\) != n"):
                G.reduce(x)
    assert QuotientSpace(2, fracmat([[1, 1]])).reduce([1, 2]) == (Fraction(1),)


def test_linear_system_reuse():
    M = intmat([[2, 4], [6, 8]])
    sys = LinearSystem(M)
    for b in ([2, 6], [4, 12], [0, 0]):
        x = sys.solve(intvec(b))
        assert x is not None
        assert list(M.dot(x)) == b


# ---------------------------------------------------------------------------
# The sparse echelon loop over Z, through hnf, kernel and lattice_hnf.  The
# rank and the saturation of the kernel are checked against snf, which shares
# no elimination step with the loop (only the sparse row helpers).


def random_sparse_int(rng, m, n):
    """An m x n integer matrix, mostly zeros, often with a zero row, a zero
    column, a duplicate row or a row that is a combination of two others."""
    density = rng.choice([0.1, 0.3, 0.6])
    rows = [[rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
    if m and n:
        kind = rng.randrange(5)
        i, j, k = rng.randrange(m), rng.randrange(m), rng.randrange(m)
        if kind == 0:
            rows[i] = [0] * n
        elif kind == 1:
            col = rng.randrange(n)
            for r in rows:
                r[col] = 0
        elif kind == 2:
            rows[i] = list(rows[j])
        elif kind == 3:
            rows[i] = [2 * a - 3 * b for a, b in zip(rows[j], rows[k])]
    M = np.empty((m, n), dtype=object)
    for a in range(m):
        for b in range(n):
            M[a, b] = rows[a][b]
    return M


def sparse_cases():
    rng = random.Random(31)
    cases = [np.empty((0, 4), dtype=object), np.empty((3, 0), dtype=object), np.empty((0, 0), dtype=object)]
    cases += [random_sparse_int(rng, rng.randint(0, 9), rng.randint(0, 9)) for _ in range(400)]
    return cases


def rational_cases():
    """Seeded rational matrices, entries with denominators 1..6, some with
    zero rows, zero columns and rows that depend on others."""
    rng = random.Random(43)
    cases = []
    for _ in range(300):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.5 else Fraction(0) for _ in range(n)]
            for _ in range(m)
        ]
        for _ in range(rng.randint(0, 3)):
            kind = rng.randrange(3)
            i, j, k = rng.randrange(m), rng.randrange(m), rng.randrange(m)
            if kind == 0:
                rows[i] = [Fraction(0)] * n
            elif kind == 1:
                col = rng.randrange(n)
                for r in rows:
                    r[col] = Fraction(0)
            else:
                f = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                rows[i] = [f * a + b for a, b in zip(rows[j], rows[k])]
        cases.append(fracmat(rows))
    return cases


def assert_row_hnf(H):
    last = -1
    for i in range(H.shape[0]):
        nz = [j for j in range(H.shape[1]) if H[i, j] != 0]
        if not nz:
            assert all(not any(x != 0 for x in H[k]) for k in range(i, H.shape[0]))
            return
        p = nz[0]
        assert p > last
        last = p
        assert H[i, p] > 0
        for k in range(i):
            assert 0 <= H[k, p] < H[i, p]


def test_hnf_sparse_invariants_and_smith_rank():
    for M in sparse_cases():
        m, n = M.shape
        H, U = hnf(M)
        assert H.shape == (m, n) and U.shape == (m, m)
        assert mat_eq(H, U.dot(M))
        if m:
            assert det(U) in (1, -1)
        assert_row_hnf(H)
        rank = sum(1 for i in range(m) if any(x != 0 for x in H[i]))
        assert rank == snf(M).rank
        L = lattice_hnf(M)
        assert mat_eq(L, H[:rank])
        # the HNF is unique: permuting and doubling rows gives the same one
        perm = list(range(m))
        random.Random(m * 17 + n).shuffle(perm)
        if m:
            assert mat_eq(lattice_hnf(stack_rows(M[perm], M)), L)


def test_kernel_sparse_is_saturated():
    for M in sparse_cases():
        m, n = M.shape
        K = kernel(M)
        rank = snf(M).rank
        assert K.shape == (n, n - rank)
        if m and K.shape[1]:
            assert all(x == 0 for x in M.dot(K).flat)
        # saturated: Z^n / (column span of K) is torsion-free
        assert all(d == 1 for d in snf(K).diagonal)


def test_lattice_member_sparse():
    rng = random.Random(37)
    for M in sparse_cases()[:150]:
        m, n = M.shape
        if not m or not n:
            continue
        x = intvec([rng.randint(-3, 3) for _ in range(m)])
        v = x.dot(M)
        assert lattice_member(M, v)
        e = intvec([rng.randint(-1, 1) for _ in range(n)])
        assert lattice_member(M, e) == (LinearSystem(M.T).solve(e, "Z") is not None)


def test_unimodular_inverse_rejects_determinant_two():
    with pytest.raises(ValueError):
        unimodular_inverse(intmat([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        unimodular_inverse(intmat([[1, 1], [1, -1]]))


# The Z entry points take integral Fractions as ints and name a fraction
# they cannot take, rather than truncating it.


def _object_matrix(rows):
    return np.array(rows, dtype=object)


def test_unimodular_inverse_rejects_a_fraction():
    with pytest.raises(ValueError, match="3/2"):
        unimodular_inverse(_object_matrix([[Fraction(3, 2)]]))
    W = unimodular_inverse(_object_matrix([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]))
    assert repr(W.tolist()) == "[[1, -1], [-1, 2]]"


def test_snf_rejects_a_fraction():
    with pytest.raises(ValueError, match="5/2"):
        snf(_object_matrix([[Fraction(5, 2)]]))
    assert snf(_object_matrix([[Fraction(4)]])).diagonal == [4]


def test_cokernel_rejects_a_fraction():
    with pytest.raises(ValueError, match="5/2"):
        PresentedGroup(1, _object_matrix([[Fraction(5, 2)]]))
    assert PresentedGroup(1, _object_matrix([[Fraction(4)]])).group == AbelianGroup(0, (4,))


def test_matrix_and_vector_builders_share_one_body():
    for make in (intmat, fracmat):
        with pytest.raises(ValueError, match="ragged matrix"):
            make([[1, 2], [3]])
    assert repr([intvec([1, Fraction(2)]).tolist(), fracvec([1]).tolist()]) == "[[1, 2], [Fraction(1, 1)]]"
    assert mat_eq(inv2(intmat([[2, 1], [1, 1]])), intmat([[1, -1], [-1, 2]]))
    with pytest.raises(ValueError, match="not 2x2"):
        inv2(eye(3))


def test_kernel_rejects_a_fraction():
    with pytest.raises(ValueError, match="1/2"):
        kernel(_object_matrix([[Fraction(1, 2), 1]]))
    assert kernel(_object_matrix([[Fraction(2), 1]])).T.tolist() == [[-1, 2]]


# ---------------------------------------------------------------------------
# snf runs on sparse rows but must make the moves of the dense loop it
# replaced, so that D, U and V (and with them every Z coordinate of
# PresentedGroup) stay the same.  That loop is kept here, verbatim, as the
# reference.


def _min_nonzero(D, t):
    best = None
    m, n = D.shape
    for i in range(t, m):
        for j in range(t, n):
            if D[i, j] != 0 and (best is None or abs(D[i, j]) < abs(D[best[0], best[1]])):
                best = (i, j)
    return best


def reference_snf(M):
    """Smith normal form with transformation matrices."""
    D = M.astype(object).copy()
    m, n = D.shape
    U, V = eye(m), eye(n)
    t = 0
    while t < min(m, n):
        pos = _min_nonzero(D, t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            D[[t, i]] = D[[i, t]]
            U[[t, i]] = U[[i, t]]
        if j != t:
            D[:, [t, j]] = D[:, [j, t]]
            V[:, [t, j]] = V[:, [j, t]]
        dirty = False
        for i in range(t + 1, m):
            if D[i, t] != 0:
                q = D[i, t] // D[t, t]
                D[i] = D[i] - q * D[t]
                U[i] = U[i] - q * U[t]
                if D[i, t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if D[t, j] != 0:
                q = D[t, j] // D[t, t]
                D[:, j] = D[:, j] - q * D[:, t]
                V[:, j] = V[:, j] - q * V[:, t]
                if D[t, j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility: fold any entry not divisible by the pivot into column t
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i, j] % D[t, t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            D[t] = D[t] + D[bad]
            U[t] = U[t] + U[bad]
            continue
        if D[t, t] < 0:
            D[t] = -D[t]
            U[t] = -U[t]
        t += 1
    return SmithDecomposition(D=D, U=U, V=V)


def near_diagonal(rng):
    """The shape PresentedGroup hands to snf: a permuted diagonal of +-1 with
    a few 2s, a sprinkling of +-1 off the diagonal, sometimes extra rows or
    columns."""
    k = rng.randint(1, 14)
    m, n = k + rng.randint(0, 2), k + rng.randint(0, 2)
    rows = [[0] * n for _ in range(m)]
    cols = rng.sample(range(n), k)
    for i, j in zip(rng.sample(range(m), k), cols):
        rows[i][j] = rng.choice([1, -1, 1, 1, 2, -2] if rng.random() < 0.3 else [1, -1])
    for _ in range(rng.randint(0, k)):
        rows[rng.randrange(m)][rng.randrange(n)] = rng.choice([1, -1])
    return intmat(rows)


def smith_cases():
    rng = random.Random(43)
    cases = [intmat(r) for r in ([[2, 0], [0, 3]], [[4, 0], [0, 6]], [[2, 0, 0], [0, 3, 0], [0, 0, 5]])]
    cases += [intmat(r) for r in ([[-2, 0], [0, -3]], [[-1]], [[0, -4], [-6, 0]], [[0, 0], [0, 0]])]
    cases += [np.empty((0, 4), dtype=object), np.empty((3, 0), dtype=object), np.empty((0, 0), dtype=object)]
    cases += [near_diagonal(rng) for _ in range(150)]
    # dense small matrices
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        cases.append(intmat([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]))
    # zero rows and columns, 0 x n and m x 0
    cases += [random_sparse_int(rng, rng.randint(0, 8), rng.randint(0, 8)) for _ in range(80)]
    # negative entries only, so every pivot starts out negative
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        cases.append(intmat([[-rng.randint(0, 6) for _ in range(n)] for _ in range(m)]))
    # permuted diagonals whose entries do not divide each other: the fold step
    for _ in range(30):
        k = rng.randint(2, 5)
        rows = [[0] * k for _ in range(k)]
        for i, j in enumerate(rng.sample(range(k), k)):
            rows[i][j] = rng.choice([2, 3, 4, 5, 6, 9, 10, -3, -4])
        cases.append(intmat(rows))
    return cases


def assert_same_entries(A, B):
    assert A.shape == B.shape
    assert all(type(a) is int and type(b) is int and a == b for a, b in zip(A.flat, B.flat))


def test_snf_makes_the_moves_of_the_dense_loop():
    cases = smith_cases()
    assert len(cases) >= 400
    for M in cases:
        got, want = snf(M), reference_snf(M)
        assert_same_entries(got.D, want.D)
        assert_same_entries(got.U, want.U)
        assert_same_entries(got.V, want.V)


def test_snf_diagonal_matches_sympy():
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    # the matrices of acceptance criterion 8a, then the seeded set above
    rng = random.Random(2024)
    cases = []
    for _ in range(500):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        cases.append(intmat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]))
    for M in cases + smith_cases():
        S = smith_normal_form(Matrix(M.tolist()), domain=ZZ) if M.size else None
        theirs = [abs(int(S[i, i])) for i in range(min(M.shape))] if S is not None else []
        assert snf(M).diagonal == theirs


# ---------------------------------------------------------------------------
# Back-substitution and the echelon loop visit only what they must:
# _substitute walks a heap of the pivots the vector reaches, and _echelon
# clears an inserted row only at the pivots left of its lead and reduces
# above the pivots once, in a back pass, instead of reducing every earlier
# pivot row at each new lead and again in a last Z pass.  The loops they
# replaced are kept here, verbatim, as the references, with the helpers
# they call, so the references share no code with the loops they check.


def _axpy(row, f, other):
    """row += f * other in place, dropping the entries that cancel."""
    for c, v in other.items():
        x = row.get(c, 0) + f * v
        if x != 0:
            row[c] = x
        else:
            row.pop(c, None)  # absent when f is 0


def _reduce(row, p, piv, ring):
    """Take the multiple t of the pivot row piv (pivot at column p) out of row
    that clears row[p] over Q and leaves it in [0, piv[p]) over Z; return t."""
    t = row.get(p, 0)
    t = t // piv[p] if ring == "Z" else t
    if t:
        _axpy(row, -t, piv)
    return t


def _xgcd(f, d):
    """(g, a, b) with a * f + b * d = g = gcd(f, d) > 0, for d != 0."""
    if f % d == 0:
        return abs(d), 0, 1 if d > 0 else -1
    g, a, b = _xgcd(d, f % d)
    return g, b, a - f // d * b


def reference_substitute(x, pivot_rows):
    coef = {}
    for p, row in pivot_rows.items():
        f = x.get(p)
        if f is None:
            continue
        d = row[p]
        if d != 1:
            f, r = divmod(f, d)
            if r:
                return None
        _axpy(x, -f, row)
        coef[p] = f
    return coef


def reference_echelon(rows, width, ring):
    pivot_rows = {}
    null_rows = []
    for row in sorted(rows, key=len):
        row = dict(row)
        todo = [c for c in row if c < width]
        heapq.heapify(todo)
        lead = None
        while todo:
            p = heapq.heappop(todo)
            f = row.get(p)
            if f is None:
                continue  # cancelled, or a column met twice
            piv = pivot_rows.get(p)
            if piv is None:
                if lead is None:
                    lead = p
                    if ring == "Q" and f != 1:
                        row = {c: v / f for c, v in row.items()}
                    elif ring == "Z" and f < 0:
                        row = {c: -v for c, v in row.items()}
                continue
            d = piv[p]
            if lead is None and ring == "Z" and f % d:
                g, a, b = _xgcd(f, d)
                pivot_rows[p] = {c: a * v for c, v in row.items()}
                _axpy(pivot_rows[p], b, piv)
                row = {c: d // g * v for c, v in row.items()}
                _axpy(row, -(f // g), piv)
            elif not _reduce(row, p, piv, ring):
                continue  # already in range
            for c in piv:
                if p < c < width:
                    heapq.heappush(todo, c)
        if lead is None:
            null_rows.append(row)
            continue
        for other in pivot_rows.values():
            if lead in other:
                _reduce(other, lead, row, ring)
        pivot_rows[lead] = row
    order = sorted(pivot_rows)
    if ring == "Z":
        for i, p in enumerate(order):
            for other in (pivot_rows[o] for o in order[:i]):
                if p in other:
                    _reduce(other, p, pivot_rows[p], ring)
    return {p: pivot_rows[p] for p in order}, null_rows


def _combination(coef, rows):
    """The sum of coef[i] * rows[i] as a sparse row, zeros dropped."""
    out = {}
    for i, f in coef.items():
        for c, v in rows[i].items():
            out[c] = out.get(c, 0) + f * v
    return {c: v for c, v in out.items() if v != 0}


def assert_echelon_matches_reference(rows, n, ring):
    """_echelon and _echelon_with_transform of the sparse rows of width n
    against reference_echelon.

    Without ride-along columns the result is compared whole.  With the
    transform, the pivot columns, the pivot rows below n (the HNF over Z, the
    RREF over Q: unique) and the number of null rows are compared.  The
    transform is one representative, so it is checked instead: each row's
    transform takes the input to its part below n, the null rows' transforms
    span what the reference's span, and all m transforms together have the
    identity as echelon form (over Z: the transform is unimodular).  Where
    the input is square and invertible over the ring the transform is the
    unique inverse, and the whole result is compared; the return value says
    whether it was."""
    m = len(rows)
    got, want = _echelon(rows, n, ring), reference_echelon(rows, n, ring)
    assert list(got[0].items()) == list(want[0].items())
    assert got[1] == want[1]
    one = 1 if ring == "Z" else Fraction(1)
    pivots, null = _echelon_with_transform(rows, n, ring)
    ref_pivots, ref_null = reference_echelon([{**row, n + i: one} for i, row in enumerate(rows)], n, ring)

    def below(row):
        return {c: v for c, v in row.items() if c < n}

    def transform(row):
        return {c - n: v for c, v in row.items() if c >= n}

    assert list(pivots) == list(ref_pivots)
    assert all(below(pivots[p]) == below(ref_pivots[p]) for p in pivots)
    assert len(null) == len(ref_null) and not any(below(row) for row in null)
    for row in list(pivots.values()) + null:
        assert _combination(transform(row), rows) == below(row)
    spans = [reference_echelon([transform(row) for row in r], m, ring)[0] for r in (null, ref_null)]
    assert spans[0] == spans[1]
    T = [transform(row) for row in list(pivots.values()) + null]
    assert reference_echelon(T, m, ring)[0] == {i: {i: one} for i in range(m)}
    invertible = m == n == len(ref_pivots) and all(row[p] == 1 for p, row in ref_pivots.items())
    if invertible:
        assert list(pivots.items()) == list(ref_pivots.items()) and null == ref_null
    return invertible


def test_indexed_echelon_matches_the_scanning_loop():
    invertible = 0
    for M in sparse_cases() + smith_cases():
        for ring in ("Z", "Q"):
            invertible += assert_echelon_matches_reference(_sparse_rows(M, ring), M.shape[1], ring)
    for M in rational_cases():
        invertible += assert_echelon_matches_reference(_sparse_rows(M, "Q"), M.shape[1], "Q")
    assert invertible > 20


def _fraction_arithmetic(run):
    """The names of the Fraction operations (_add, _sub, _mul, _div,
    _floordiv) called while run() runs, seen with sys.setprofile; making a
    Fraction is not one."""
    import fractions
    import sys

    names = {"_add", "_sub", "_mul", "_div", "_floordiv"}
    seen = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in names and code.co_filename == fractions.__file__:
            seen.append(code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def test_the_echelon_loop_does_no_fraction_arithmetic_over_Q():
    assert _fraction_arithmetic(lambda: Fraction(1, 2) + Fraction(1, 3)) == ["_add"]
    results = []
    for M in rational_cases()[:60]:
        rows, n = _sparse_rows(M, "Q"), M.shape[1]
        for run in (_echelon, _echelon_with_transform):
            assert _fraction_arithmetic(lambda: results.append(run(rows, n, "Q"))) == []
    entries = [v for pivots, null in results for row in list(pivots.values()) + null for v in row.values()]
    assert all(type(v) is Fraction for v in entries)
    assert any(v.denominator > 1 for v in entries)


def test_echelon_matches_the_scanning_loop_on_catalog_differentials():
    """The rows of every d_k^T of R and its constants for every affine
    entry, of every sheaf entry's own sheaf and of the glued fake base."""
    sheaves = []
    for name in catalog_names():
        entry = build(name)
        if entry.kind == "affine":
            R = build_R_sheaf(entry.payload)
            sheaves += [R, R.constants]
        elif entry.kind == "sheaf":
            sheaves.append(entry.payload[1])
        elif entry.kind == "gluing":
            sheaves.append(glue(entry.payload["spec"])[1])
    rings = set()
    for F in sheaves:
        for k in range(F.base.dimension + 1):
            assert_echelon_matches_reference(F._differential_columns(k), F.cochain_rank(k + 1), F.ring)
        rings.add(F.ring)
    assert rings == {"Z", "Q"}


def _probes(rng, pivot_rows, n, ring):
    """Combinations of the rows (members), shifted by a unit vector or scaled
    by a half (over Z mostly non-members), and random vectors."""
    num = (lambda a: a) if ring == "Z" else Fraction
    rows = list(pivot_rows.values())
    out = []
    for _ in range(6):
        x = {}
        for row in rows:
            _axpy(x, num(rng.randint(-3, 3)), {c: v for c, v in row.items() if c < n})
        out.append(x)
        y = dict(x)
        _axpy(y, num(1), {rng.randrange(n): num(1)})
        out.append(y)
        out.append({j: num(rng.randint(-4, 4)) for j in range(n) if rng.random() < 0.4})
        if ring == "Q":
            out.append({c: v / 2 for c, v in x.items()})
    return out


def test_heap_substitute_matches_the_sequential_loop():
    rng = random.Random(59)
    seen_none = seen_member = 0
    for M in sparse_cases():
        m, n = M.shape
        if not n:
            continue
        bases = [
            ("Z", _echelon(_sparse_rows(M, "Z"), n, "Z")[0]),
            ("Q", _echelon(_sparse_rows(M, "Q"), n, "Q")[0]),
            ("Q", _kernel_rows(_echelon(_sparse_rows(M, "Q"), n, "Q")[0], n)),
        ]
        for ring, pivot_rows in bases:
            for x in _probes(rng, pivot_rows, n, ring):
                a, b = dict(x), dict(x)
                got, want = _substitute(a, pivot_rows), reference_substitute(b, pivot_rows)
                assert got == want and (got is None or list(got) == list(want))
                if got is not None:
                    assert a == b
                    seen_member += not a
                seen_none += got is None
    assert seen_none > 100 and seen_member > 100


def test_presented_group_generators_are_the_columns_of_the_inverse_transform():
    rng = random.Random(61)
    cases = smith_cases() + [random_sparse_int(rng, rng.randint(0, 8), rng.randint(1, 8)) for _ in range(80)]
    for M in cases:
        n = M.shape[1]
        G = PresentedGroup(n, M)
        T = _dense(G._T, (n, n))
        # the transform of the relation lattice is the one snf gives its HNF
        want = snf(G.relations.T).U if G.relations.shape[0] else eye(n)
        assert_same_entries(T, want)
        Tinv = unimodular_inverse(T)
        units = [i for i, d in enumerate(G._orders) if d != 1]
        gens = G.generators()
        assert len(gens) == len(units)
        for g, i in zip(gens, units):
            assert all(type(a) is int and a == b for a, b in zip(g, Tinv[:, i]))
        # relations given as sparse rows present the same group the same way
        S = PresentedGroup(n, _sparse_rows(M, "Z"))
        assert (S._T, S._orders) == (G._T, G._orders)
