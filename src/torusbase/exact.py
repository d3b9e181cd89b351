"""Exact linear algebra over Z and Q.

Inside this module a matrix is a list of sparse rows, {column: entry} dicts
holding no zeros, with a width: python ints (arbitrary precision) over Z,
fractions.Fraction over Q.  Only _echelon works otherwise: it eliminates a
Q row as a primitive integer row and makes Fractions at its return.  numpy
object arrays appear at the public boundary: a function that takes or
returns a matrix or a vector takes or returns a numpy array of dtype=object
and converts it once, on the way in or out.  kernel still computes on such
a result: it slices the dense transform of hnf.  LinearSystem solves over Z
with the dense U and V of snf; nothing in the library calls it, and the
tests keep it as the Smith-form reference solve for cohomology coordinates
and connecting maps.  Each job has one path: the dense wrappers the tests
compare against (cokernel, rref, q_kernel, the lattice functions) live in
tests/reference.py.  PresentedGroup and QuotientSpace also take their
relations as sparse rows, which is how sheaves.CohomologyResult hands them
over.

There are two eliminations, both on sparse rows.  _smith, the Smith form
loop behind snf, follows a written pivot rule (see snf) that fixes the Z
coordinates of PresentedGroup and the Z solves of LinearSystem; the rule,
not the storage, fixes its D, U and V, so those coordinates did not move
when the loop left dense arrays.  Everything else (hnf, kernel, the preimage
lattice, q_rank, LinearSystem over Q, the relations of PresentedGroup,
QuotientSpace, the inverses) runs one echelon loop, _echelon, touching only
nonzero entries: a forward elimination, each row cleared only at the pivots
left of its own, then one back pass that reduces above the pivots.  It gives
the row Hermite normal form over Z and the reduced row echelon form over Q,
both unique; the row transform it carries along (hnf's U, kernel's basis,
LinearSystem's E over Q) is one representative.  There is one inverse,
_inverse, read off that loop over Z (of a unimodular matrix) or over Q;
unimodular_inverse, the inverse of the Smith transform in
PresentedGroup.generators, the Delzant corner check of polytopes and the
stalk iso check of sheaves over Q all call it (over Z that check inverts
modulo the stalk torsion, off _echelon_with_transform).  Row convention: matrices act on column vectors;
relation subgroups/subspaces are given by rows.

Over Z an entry point, and the coordinates of EchelonBasis.coefficients and
PresentedGroup.reduce, take an integral Fraction as its int and raise
ValueError naming an entry that is not an integer, rather than truncating
it (_integral).

Coordinates.  A basis in echelon form (EchelonBasis: the HNF rows of a
lattice over Z, the kernel vectors of an RREF over Q) gives the coefficients
of a vector by back-substitution, the loop QuotientSpace.reduce runs; over Z
a division by a pivot that leaves a remainder means the vector is not in the
lattice.  Over Z the canonical coordinates of a class are those coefficients
mapped through the Smith transform of PresentedGroup; over Q they are the
entries at the non-pivot columns after QuotientSpace reduces them.
"""

import bisect
import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np


def intmat(rows):
    """Build an object-dtype integer matrix from nested sequences."""
    return _matrix(rows, int)


def fracmat(rows):
    return _matrix(rows, Fraction)


def _matrix(rows, kind):
    """The object matrix of the nested sequences rows, each entry made kind."""
    rows = [[kind(x) for x in r] for r in rows]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    a = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            a[i, j] = x
    return a


def zeros(m, n, ring="Z"):
    a = np.empty((m, n), dtype=object)
    fill = 0 if ring == "Z" else Fraction(0)
    a[:, :] = fill
    return a


def eye(n, ring="Z"):
    a = zeros(n, n, ring)
    one = 1 if ring == "Z" else Fraction(1)
    for i in range(n):
        a[i, i] = one
    return a


def intvec(xs):
    return _matrix([xs], int)[0]


def fracvec(xs):
    return _matrix([xs], Fraction)[0]


def zerovec(n, ring="Z"):
    a = np.empty(n, dtype=object)
    a[:] = 0 if ring == "Z" else Fraction(0)
    return a


def mat_eq(A, B):
    return A.shape == B.shape and all(
        A[i, j] == B[i, j] for i in range(A.shape[0]) for j in range(A.shape[1])
    )


def inv2(A):
    """Inverse of a 2x2 integer matrix of determinant +-1."""
    if A.shape != (2, 2):
        raise ValueError("matrix is not 2x2")
    d = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return intmat([[A[1, 1] * d, -A[0, 1] * d], [-A[1, 0] * d, A[0, 0] * d]])


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms


def hnf(M):
    """Row Hermite normal form.

    Returns (H, U) with H = U @ M, U unimodular, H in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    The rows of U past the rank span the left kernel of M.
    """
    m, n = M.shape
    pivot_rows, null_rows = _echelon_with_transform(_sparse_rows(M, "Z"), n, "Z")
    rows = list(pivot_rows.values()) + null_rows
    return _dense(rows, (m, n)), _dense(rows, (m, m), first=n)


def unimodular_inverse(U):
    """Inverse of a unimodular integer matrix."""
    n = U.shape[1]
    inverse = _inverse(_sparse_rows(U, "Z"), n, "Z")
    if inverse is None:
        raise ValueError("matrix is not unimodular")
    return _dense(inverse, (n, n))


@dataclass
class SmithDecomposition:
    """D = U @ M @ V with U, V unimodular and D diagonal.

    The diagonal entries are nonnegative and satisfy d1 | d2 | ... .
    """

    D: np.ndarray
    U: np.ndarray
    V: np.ndarray

    @property
    def diagonal(self):
        return [self.D[i, i] for i in range(min(self.D.shape))]

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)


def snf(M):
    """Smith normal form with transformation matrices.

    Step t moves to (t, t) the nonzero entry of least absolute value in the
    rows and columns from t on, the first in row-major order.  It clears
    column t below that pivot and then row t to its right by floor
    quotients, and starts the step again while a remainder is left.  Then,
    unless the pivot is +-1, the first later row holding an entry the pivot
    does not divide is added to row t and the step starts again.  Last, the
    pivot is made positive.  This rule fixes D, U and V, and with them the
    Z coordinates of PresentedGroup.

    The loop is _smith, on sparse rows; the dense matrices are built from
    its result.
    """
    m, n = M.shape
    D, U, V = _smith(_sparse_rows(M, "Z"), n)
    return SmithDecomposition(D=_dense(D, (m, n)), U=_dense(U, (m, m)), V=_dense(V, (n, n)).T)


def _smith(D, n):
    """The loop of snf, with its pivot rule, on the sparse rows D of width n.

    D is reduced in place, with an index from each column to the rows that
    hold it.  Returns (D, U, V): D and U as sparse rows, V as sparse columns.
    """
    m = len(D)
    holders = [set() for _ in range(n)]
    for i, row in enumerate(D):
        for j in row:
            holders[j].add(i)
    U = [{i: 1} for i in range(m)]
    V = [{j: 1} for j in range(n)]

    def put(i, j, x):
        if x:
            D[i][j] = x
            holders[j].add(i)
        else:
            D[i].pop(j, None)
            holders[j].discard(i)

    def add_row(i, f, k):
        """D[i] += f * D[k] and U[i] += f * U[k]."""
        row = D[i]
        for c, v in D[k].items():
            put(i, c, row.get(c, 0) + f * v)
        _axpy(U[i], f, U[k])

    def add_col(j, f, k):
        """Column j of D += f * column k, and V[j] += f * V[k]."""
        for r in list(holders[k]):
            put(r, j, D[r].get(j, 0) + f * D[r][k])
        _axpy(V[j], f, V[k])

    def swap_rows(a, b):
        for r in (a, b):
            for c in D[r]:
                holders[c].discard(r)
        D[a], D[b], U[a], U[b] = D[b], D[a], U[b], U[a]
        for r in (a, b):
            for c in D[r]:
                holders[c].add(r)

    def swap_cols(a, b):
        for r in holders[a] | holders[b]:
            x, y = D[r].pop(a, None), D[r].pop(b, None)
            if x is not None:
                D[r][b] = x
            if y is not None:
                D[r][a] = y
        holders[a], holders[b], V[a], V[b] = holders[b], holders[a], V[b], V[a]

    def pivot(t):
        # rows from t on hold no entry left of column t
        best = None
        for i in range(t, m):
            if D[i]:
                size, j = min((abs(v), c) for c, v in D[i].items())
                if best is None or size < best[0]:
                    best = (size, i, j)
                    if size == 1:
                        break
        return best

    t = 0
    while t < min(m, n):
        best = pivot(t)
        if best is None:
            break
        _, i, j = best
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        p = D[t][t]
        dirty = False
        for i in sorted(r for r in holders[t] if r > t):
            add_row(i, -(D[i][t] // p), t)
            dirty = dirty or t in D[i]
        for j in sorted(c for c in D[t] if c > t):
            add_col(j, -(D[t][j] // p), t)
            dirty = dirty or j in D[t]
        if dirty:
            continue
        if p not in (1, -1):
            bad = next((i for i in range(t + 1, m) if any(v % p for v in D[i].values())), None)
            if bad is not None:
                add_row(t, 1, bad)
                continue
        if p < 0:
            D[t] = {c: -v for c, v in D[t].items()}
            U[t] = {c: -v for c, v in U[t].items()}
        t += 1
    return D, U, V


# ---------------------------------------------------------------------------
# Finitely generated abelian groups


@dataclass(frozen=True)
class AbelianGroup:
    """Z^free_rank + Z/d1 + ... + Z/dk with 2 <= d1 | d2 | ... | dk."""

    free_rank: int
    invariant_factors: tuple = ()

    def __post_init__(self):
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        if any(d < 2 for d in self.invariant_factors):
            raise ValueError("invariant factors must be >= 2")

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % d for d in self.invariant_factors)
        return " ⊕ ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Kernels and linear systems


def kernel(M):
    """Integer matrix whose columns are a basis of ker(M) as a lattice.

    The kernel of an integer matrix is saturated, so the columns generate all
    integer solutions of Mx = 0.
    """
    H, U = hnf(M.T)
    # the zero rows of H come last, so bisection finds the rank
    rank = bisect.bisect_left(range(H.shape[0]), True, key=lambda i: not any(H[i]))
    return U[rank:].T.copy()


class LinearSystem:
    """Repeated exact solving of M x = b, over Z via a cached Smith form or
    over Q via a cached sparse row reduction when the matrix has rational
    entries."""

    def __init__(self, M):
        self.M = M
        self._rational = any(isinstance(x, Fraction) for x in M.flat)
        if not self._rational:
            self.dec = snf(M)
            self.rank = self.dec.rank
            return
        m, n = M.shape
        self._rows, null = _echelon_with_transform(_sparse_rows(M, "Q"), n, "Q")
        self.rank = len(self._rows)
        # E by columns, its rows numbered pivot rows first, then the rows
        # whose M part vanished (they span the left kernel of M)
        self._Ecols = [{} for _ in range(m)]
        for r, row in enumerate(list(self._rows.values()) + null):
            for c, v in row.items():
                if c >= n:
                    self._Ecols[c - n][r] = v

    def solve(self, b, ring="Z"):
        """A particular solution or None; exact in the requested ring."""
        if len(b) != self.M.shape[0]:
            raise ValueError("dimension mismatch: len(b) != rows of M")
        if self._rational:
            if ring != "Q":
                raise ValueError("rational system solves over Q only")
            return self._solve_rational(b)
        c = self.dec.U.dot(b)
        m, n = self.M.shape
        y = zerovec(n, ring)
        for i in range(min(m, n)):
            d = self.dec.D[i, i]
            if d == 0:
                if c[i] != 0:
                    return None
                continue
            if ring == "Z":
                if c[i] % d != 0:
                    return None
                y[i] = c[i] // d
            else:
                y[i] = Fraction(c[i], d)
        if any(c[i] != 0 for i in range(min(m, n), m)):
            return None
        return self.dec.V.dot(y)

    def _solve_rational(self, b):
        """The solution with free variables 0: x[pivot r] = (E b)[r]."""
        n = self.M.shape[1]
        c = {}
        for i, bi in enumerate(b):
            if bi != 0:
                bi = Fraction(bi)
                for r, e in self._Ecols[i].items():
                    c[r] = c.get(r, 0) + e * bi
        if any(v != 0 for r, v in c.items() if r >= self.rank):
            return None
        x = zerovec(n, "Q")
        for r, p in enumerate(self._rows):
            if r in c:
                x[p] = c[r]
        return x


# ---------------------------------------------------------------------------
# Echelon elimination on sparse rows


def _sparse_rows(M, ring):
    """The rows of M as sparse vectors (see _sparse_vector)."""
    return [_sparse_vector(row, ring) for row in M.tolist()]


def _sparse_vector(x, ring):
    """The sequence x as a {index: nonzero entry} dict, ints over Z, Fractions
    over Q.  Over Z an entry that is not an int must be integral (an integral
    Fraction is taken as its int); else ValueError names it."""
    if ring == "Q":
        return {j: Fraction(v) for j, v in enumerate(x) if v != 0}
    return {j: v if type(v) is int else _integral(v) for j, v in enumerate(x) if v != 0}


def _integral(x):
    """The int equal to the matrix entry x, or ValueError naming it."""
    if int(x) != x:
        raise ValueError("matrix entry %s is not an integer" % (x,))
    return int(x)


def _dense(rows, shape, ring="Z", first=0):
    """The sparse rows, columns from first on, as an object matrix of the given shape."""
    A = zeros(*shape, ring)
    for r, row in enumerate(rows):
        for c, v in row.items():
            if first <= c < first + shape[1]:
                A[r, c - first] = v
    return A


def _axpy(row, f, other):
    """row += f * other in place, dropping the entries that cancel."""
    for c, v in other.items():
        x = row.get(c, 0) + f * v
        if x != 0:
            row[c] = x
        else:
            row.pop(c, None)  # absent when f is 0


def _xgcd(f, d):
    """(g, a, b) with a * f + b * d = g = gcd(f, d) > 0, for d != 0."""
    if f % d == 0:
        return abs(d), 0, 1 if d > 0 else -1
    g, a, b = _xgcd(d, f % d)
    return g, b, a - f // d * b


def _primitive(row):
    """The row of ints or Fractions, denominators cleared, over its content."""
    den = lcm(*(v.denominator for v in row.values()))
    row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _cross(row, f, d, piv):
    """(d/g) row - (f/g) piv with g = gcd(f, d), made primitive: row cleared
    at the pivot d of piv, where it holds f, without fractions."""
    g = gcd(f, d)
    out = {c: d // g * v for c, v in row.items()}
    _axpy(out, -(f // g), piv)
    g = gcd(*out.values())
    return {c: v // g for c, v in out.items()} if g > 1 else out


def _echelon(rows, width, ring):
    """Row echelon elimination on sparse rows, over Z or Q.

    rows are {column: entry} dicts without zeros.  Only columns below width
    can hold a pivot; columns from width on ride along (hnf and LinearSystem
    keep their row transform there).  The loop has two phases (Cohen, A
    Course in Computational Algebraic Number Theory, 2.4), on Python ints
    for both rings: a Q row enters as a primitive integer row (Bareiss,
    Math. Comp. 22, 1968), and only at the return are Q rows made Fractions,
    each pivot row divided by its lead.

    Forward: rows are inserted sparsest first and cleared left to right at
    the pivots they meet, up to their first column without a pivot row,
    which becomes their pivot, made positive.  An entry f that the pivot d
    divides is cleared by subtracting f/d times the pivot row.  Else, over
    Q, the row becomes (d/g) row - (f/g) pivot, made primitive (_cross);
    over Z, the row meets the pivot row in the extended-gcd step (row,
    pivot) -> (a row + b pivot, d/g row - f/g pivot), of determinant -1,
    with a f + b d = g = gcd(f, d), gaining entries from the old pivot row.
    Back: the rows are finalized in descending pivot order, each reduced
    left to right against the rows already final: its entries at their
    pivots are cleared as above (Q) or brought into [0, pivot) (Z).

    The pivot rows below width, the reduced row echelon form over Q and the
    row Hermite normal form over Z, are unique; their ride-along columns
    (a row transform) are one representative.  A Q row is a multiple of the
    one the same moves on Fractions give: the null rows span what theirs do.

    Returns (pivot_rows, null_rows): pivot_rows maps each pivot column to
    its row, in column order; null_rows are the rows with no entry below
    width.  The input dicts are not modified.
    """
    q = ring == "Q"
    pivot_rows = {}
    null_rows = []
    for row in sorted(rows, key=len):
        row = _primitive(row) if q else dict(row)
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
                lead = p
                break
            d = piv[p]
            if not f % d:
                _axpy(row, -(f // d), piv)
            elif q:
                row = _cross(row, f, d, piv)
            else:
                g, a, b = _xgcd(f, d)
                pivot_rows[p] = {c: a * v for c, v in row.items()}
                _axpy(pivot_rows[p], b, piv)
                row = {c: d // g * v for c, v in row.items()}
                _axpy(row, -(f // g), piv)
            for c in piv:
                if p < c < width:
                    heapq.heappush(todo, c)
        if lead is None:
            null_rows.append({c: Fraction(v) for c, v in row.items()} if q else row)
        else:
            pivot_rows[lead] = {c: -v for c, v in row.items()} if f < 0 else row
    order = sorted(pivot_rows)
    for p in reversed(order):
        row = pivot_rows[p]
        todo = [c for c in row if c > p and c in pivot_rows]
        heapq.heapify(todo)
        while todo:
            c = heapq.heappop(todo)
            piv = pivot_rows[c]
            f, d = row.get(c, 0), piv[c]
            if q and f % d:
                row = pivot_rows[p] = _cross(row, f, d, piv)
            elif f // d:
                _axpy(row, -(f // d), piv)
            else:
                continue
            for e in piv:
                if e > c and e in pivot_rows:
                    heapq.heappush(todo, e)
    for p in order if q else ():
        row = pivot_rows[p]
        pivot_rows[p] = {c: Fraction(v, row[p]) for c, v in row.items()}
    return {p: pivot_rows[p] for p in order}, null_rows


def _echelon_with_transform(rows, width, ring):
    """_echelon of [rows | I]: the identity columns record the row transform."""
    return _echelon([{**row, width + i: 1} for i, row in enumerate(rows)], width, ring)


def _inverse(rows, n, ring):
    """The inverse over ring of the matrix given by its sparse rows of width
    n, as sparse rows, or None when there is none: when the matrix is not
    square, or not invertible over ring (over Z: not unimodular).  The
    echelon form of [M | I] is then [I | M^-1]; over Z, the Hermite form of
    a unimodular matrix is I."""
    if len(rows) != n:
        return None
    pivot_rows, _ = _echelon_with_transform(rows, n, ring)
    if len(pivot_rows) != n or any(row[p] != 1 for p, row in pivot_rows.items()):
        return None
    return [{c - n: v for c, v in row.items() if c >= n} for row in pivot_rows.values()]


def _transpose(rows, width):
    """The sparse rows of the transpose of a matrix given by sparse rows of the given width."""
    cols = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


def _apply_columns(cols, x):
    """The matrix of the sparse columns cols times the sparse vector x, as a
    sparse vector; only the columns x reaches are read."""
    out = {}
    for j, f in x.items():
        _axpy(out, f, cols[j])
    return out


def _kernel_rows(pivot_rows, n):
    """The kernel of a reduced row echelon form with n columns, one sparse
    vector per free column j: 1 at j, -R[r, j] at pivot r, 0 elsewhere."""
    out = {j: {j: Fraction(1)} for j in range(n) if j not in pivot_rows}
    for p, row in pivot_rows.items():
        for c, v in row.items():
            if c in out:
                out[c][p] = -v
    return out


def _substitute(x, pivot_rows):
    """Take multiples of echelon rows out of the sparse vector x, in place.

    pivot_rows maps a pivot column p to a row with a nonzero entry d at p;
    each row is zero at the pivots before it, and the rows after it are zero
    at its pivot.  Row p is taken out x[p] / d times, rows in order.  Over Q
    every d is 1.  Over Z a division that leaves a remainder means x is not
    in the row lattice; the result is then None, else the multiples {p: f}.

    Only the pivots x reaches are visited, from a heap, in increasing order:
    those it holds at the start and those a row taken out brings in.
    """
    coef = {}
    todo = [p for p in x if p in pivot_rows]
    heapq.heapify(todo)
    while todo:
        p = heapq.heappop(todo)
        f = x.get(p)
        if f is None:
            continue  # taken out already, or a column met twice
        row = pivot_rows[p]
        d = row[p]
        if d != 1:
            f, r = divmod(f, d)
            if r:
                return None
        _axpy(x, -f, row)
        coef[p] = f
        for c in row:
            if c > p and c in x and c in pivot_rows:
                heapq.heappush(todo, c)
    return coef


def q_rank(M):
    return len(_echelon(_sparse_rows(M, "Q"), M.shape[1], "Q")[0])


# ---------------------------------------------------------------------------
# Lattices (subgroups of Z^n given by spanning rows)


def _preimage_rows(rows, n, target):
    """Sparse rows spanning {x in Z^n : M x lies in the row lattice of target},
    for M given by its sparse rows: the first n coordinates of a kernel basis
    of [M | -target^T], which kernel computes on the dense matrix."""
    A = [dict(row) for row in rows]
    for j, t in enumerate(target):
        for i, v in t.items():
            A[i][n + j] = -v
    K = kernel(_dense(A, (len(A), n + len(target))))
    return _sparse_rows(K[:n].T, "Z")


# ---------------------------------------------------------------------------
# Finitely presented abelian groups with coordinates


class PresentedGroup:
    """Z^n modulo the lattice spanned by the given relation rows.

    Provides canonical coordinates: reduce() maps a vector to a tuple that is
    equal for two vectors iff they represent the same element.  The relations
    are an integer matrix or sparse rows {column: entry}.
    """

    def __init__(self, n, relations=None):
        self.n = n
        if isinstance(relations, np.ndarray):
            if relations.shape[0] and relations.shape[1] != n:
                raise ValueError("relation width mismatch")
            relations = _sparse_rows(relations, "Z")
        self._hnf = list(_echelon(relations or [], n, "Z")[0].values())
        # the columns of the HNF rows span the relation lattice; z = T x puts
        # the lattice into diagonal form
        r = len(self._hnf)
        D, self._T, _ = _smith(_transpose(self._hnf, n), r)
        self._orders = [D[i].get(i, 0) if i < r else 0 for i in range(n)]
        self._Tinv = None

    @property
    def relations(self):
        """The Hermite normal form rows of the relation lattice, zero rows dropped."""
        return _dense(self._hnf, (len(self._hnf), self.n))

    @property
    def group(self):
        free = sum(1 for d in self._orders if d == 0)
        tor = [d for d in self._orders if d > 1]
        return AbelianGroup(free_rank=free, invariant_factors=tuple(sorted(tor)))

    def reduce(self, x):
        """Canonical coordinate tuple of the class of x."""
        if len(x) != self.n:
            raise ValueError("dimension mismatch: len(x) != n")
        x = [v if type(v) is int else _integral(v) for v in x]
        out = []
        for row, d in zip(self._T, self._orders):
            if d == 1:
                continue
            z = sum(v * x[j] for j, v in row.items())
            out.append(z % d if d else z)
        return tuple(out)

    def coordinate_orders(self):
        return tuple(d for d in self._orders if d != 1)

    def generators(self):
        """Ambient vectors mapping to the canonical coordinate unit classes:
        the columns of T^-1."""
        if self._Tinv is None:
            self._Tinv = _inverse(self._T, self.n, "Z")
        units = [i for i, d in enumerate(self._orders) if d != 1]
        return [intvec([row.get(i, 0) for row in self._Tinv]) for i in units]

    def is_zero(self, x):
        return all(c == 0 for c in self.reduce(x))


class QuotientSpace:
    """Q^n modulo the span of the given rows, with canonical coordinates.

    The coordinates of a vector are its entries at the non-pivot columns
    after reduction by the unique reduced row echelon form of the relations,
    pivots taken leftmost first.  The relations are a matrix or sparse rows
    {column: Fraction}.
    """

    def __init__(self, n, relations=None):
        self.n = n
        if isinstance(relations, np.ndarray):
            if relations.shape[0] and relations.shape[1] != n:
                raise ValueError("relation width mismatch")
            relations = _sparse_rows(relations, "Q")
        self._rows = _echelon(relations or [], n, "Q")[0]
        self._free = [j for j in range(n) if j not in self._rows]

    @property
    def dimension(self):
        return len(self._free)

    @property
    def group(self):
        return AbelianGroup(free_rank=self.dimension)

    def reduce(self, x):
        if len(x) != self.n:
            raise ValueError("dimension mismatch: len(x) != n")
        x = _sparse_vector(x, "Q")
        _substitute(x, self._rows)
        return tuple(x.get(j, Fraction(0)) for j in self._free)

    def coordinate_orders(self):
        return (0,) * self.dimension

    def generators(self):
        gens = []
        for j in self._free:
            v = zerovec(self.n, "Q")
            v[j] = Fraction(1)
            gens.append(v)
        return gens

    def is_zero(self, x):
        return all(c == 0 for c in self.reduce(x))


# ---------------------------------------------------------------------------
# Bases in echelon form


class EchelonBasis:
    """Independent vectors of Z^n or Q^n in echelon form, with coefficients
    read by back-substitution (see _substitute), so no system is solved.

    Vector i is a sparse {column: entry} row kept under its pivot column, in
    pivot order.
    """

    def __init__(self, n, pivot_rows, ring):
        self.n = n
        self.ring = ring
        self._rows = pivot_rows
        self._index = {p: i for i, p in enumerate(pivot_rows)}

    def __len__(self):
        return len(self._rows)

    def coefficients(self, x):
        """The coefficient vector of x, or None when x is not in the span
        (over Z: not in the lattice the vectors span, and an entry of x that
        is not an integer is a ValueError)."""
        x = _sparse_vector(x, "Z") if self.ring == "Z" else {j: v for j, v in enumerate(x) if v != 0}
        coef = self._coefficients(x)
        if coef is None:
            return None
        out = zerovec(len(self._rows), self.ring)
        for i, f in coef.items():
            out[i] += f
        return out

    def _coefficients(self, x):
        """The coefficients {i: f} of the sparse vector x, which is used up,
        or None when x is not in the span."""
        coef = _substitute(x, self._rows)
        if coef is None or x:
            return None
        return {self._index[p]: f for p, f in coef.items()}
