"""Dense references the tests compare against, moved verbatim out of the
library, which keeps one path per job; tools/identity_dump.py uses two.  A
moved method takes its object as self: the EchelonBasis methods lattice,
kernel and matrix are lattice_basis, kernel_basis and basis_matrix.  The
last three come from sheaves: two dense views, and the torsion check of its
old dense stalk maps.
"""

from torusbase.exact import AbelianGroup, EchelonBasis, _dense, _echelon, _kernel_rows, _preimage_rows
from torusbase.exact import _sparse_rows, _transpose, mat_eq, snf, zeros


def cokernel(M):
    """Z^cols modulo the row span of M, in canonical form."""
    dec = snf(M)
    return AbelianGroup(M.shape[1] - dec.rank, tuple(d for d in dec.diagonal if d > 1))


def kernel_columns(self):
    if self._rational:
        n = self.M.shape[1]
        return basis_matrix(EchelonBasis(n, _kernel_rows(self._rows, n), "Q"))
    return self.dec.V[:, self.rank:].copy()


def rref(M):
    """Reduced row echelon form over Q. Returns (R, pivot_columns)."""
    m, n = M.shape
    pivot_rows, _ = _echelon(_sparse_rows(M, "Q"), n, "Q")
    return _dense(pivot_rows.values(), (m, n), "Q"), list(pivot_rows)


def q_kernel(M):
    """Columns spanning the rational kernel of M."""
    return basis_matrix(kernel_basis(M))


def lattice_hnf(rows):
    """Canonical basis (HNF rows, zero rows dropped) of the row lattice."""
    n = rows.shape[1]
    pivot_rows, _ = _echelon(_sparse_rows(rows, "Z"), n, "Z")
    return _dense(pivot_rows.values(), (len(pivot_rows), n))


def lattice_eq(A, B):
    return mat_eq(lattice_hnf(A), lattice_hnf(B))


def lattice_member(rows, v):
    return lattice_basis(rows).coefficients(v) is not None


def stack_rows(*mats):
    mats = [m for m in mats if m.shape[0] > 0]
    if not mats:
        raise ValueError("nothing to stack")
    n = mats[0].shape[1]
    out = zeros(sum(m.shape[0] for m in mats), n)
    r = 0
    for m in mats:
        out[r:r + m.shape[0]] = m
        r += m.shape[0]
    return out


def preimage_lattice(M, target_rows):
    """Rows spanning {x in Z^n : M x lies in the row lattice of target_rows}."""
    n = M.shape[1]
    rows = _preimage_rows(_sparse_rows(M, "Z"), n, _sparse_rows(target_rows, "Z"))
    pivot_rows, _ = _echelon(rows, n, "Z")
    return _dense(pivot_rows.values(), (len(pivot_rows), n))


def lattice_basis(M):
    """The lattice spanned by the rows of M: its row Hermite normal form,
    each row under its leading column."""
    n = M.shape[1]
    return EchelonBasis(n, _echelon(_sparse_rows(M, "Z"), n, "Z")[0], "Z")


def kernel_basis(M):
    """The rational kernel of M: per free column of its reduced row
    echelon form, the vector that is 1 there and 0 at every other free
    column, under that column."""
    n = M.shape[1]
    return EchelonBasis(n, _kernel_rows(_echelon(_sparse_rows(M, "Q"), n, "Q")[0], n), "Q")


def basis_matrix(self):
    return _dense(self._rows.values(), (len(self._rows), self.n), self.ring).T


def moduli_rows(self, k):
    """Rows spanning the torsion lattice of C^k (Z sheaves only)."""
    rows = self._torsion_rows(k)
    return _dense(rows, (len(rows), self.cochain_rank(k)))


def cochain_matrix(self, k):
    """The cochain map in degree k as a dense matrix: the view of _cochain_columns(k)."""
    m, n = self.target.cochain_rank(k), self.source.cochain_rank(k)
    return _dense(_transpose(self._cochain_columns(k), m), (m, n), self.source.ring)


def _respects_moduli(M, src_stalk, dst_stalk):
    for i in range(src_stalk.rank):
        m = src_stalk.order(i)
        if not m:
            continue
        for r in range(dst_stalk.rank):
            d = dst_stalk.order(r)
            v = M[r, i] * m
            if d == 0:
                if v != 0:
                    return False
            elif v % d != 0:
                return False
    return True
