"""Constructible sheaves on cell complexes and their cohomology.

Restriction maps point from a cell to its cofaces (open-star convention).
The differential is d(x)_tau = sum_sigma [tau:sigma] * R(sigma<=tau) x_sigma,
fixed once and used everywhere.

Stalks over Z may carry torsion: a stalk is rank many generators where
generator i has order moduli[i] (0 meaning infinite).  This is needed for
mod-n coefficient sheaves and their Bockstein connecting maps.

Every cochain map is put together from stalk blocks by _block_columns, as
sparse columns: the differential, sheaf maps, restrictions, automorphisms,
R's translation map and the gluing overlap pull.  Maps on cohomology read
them on the sparse cocycle rows; every InducedMap comes from _induced.
Results of one sheaf in one degree are one group, so maps between them
compose.  Lattices are compared through their Hermite normal form rows,
which are unique.  A connecting map lifts through each cochain map by
back-substitution (SheafMap._lifter): its representative may depend on the
lift, its canonical coordinates do not.  Squares of stalk maps commute
modulo the torsion of the target stalk.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .complexes import _cell_map_violations, _covering_pairs, _infer_signs, cell_key
from .errors import TorusbaseError, ValidationReport
from .exact import (
    EchelonBasis,
    PresentedGroup,
    QuotientSpace,
    _apply_columns,
    _axpy,
    _dense,
    _echelon,
    _echelon_with_transform,
    _inverse,
    _kernel_rows,
    _preimage_rows,
    _sparse_rows,
    _substitute,
    _transpose,
    eye,
    intmat,
    q_rank,
    unimodular_inverse,
    zerovec,
    zeros,
)


class SheafError(TorusbaseError):
    pass


@dataclass(frozen=True)
class Stalk:
    rank: int
    moduli: tuple = ()  # per-generator orders, padded with 0 = free

    def order(self, i):
        return self.moduli[i] if i < len(self.moduli) else 0


_ZERO_STALK = Stalk(0)


def _as_stalk(s):
    if isinstance(s, Stalk):
        return s
    return Stalk(rank=int(s))


class CellularSheaf:
    """Stalk per cell plus restriction matrices along covering face pairs."""

    def __init__(self, base, ring, stalks, restrictions):
        if ring not in ("Z", "Q"):
            raise SheafError("ring must be 'Z' or 'Q'")
        self.base = base
        self.ring = ring
        self.stalks = {c: _as_stalk(s) for c, s in stalks.items()}
        if ring == "Q" and any(any(s.moduli) for s in self.stalks.values()):
            raise SheafError("stalks over Q carry no torsion moduli")
        self.restrictions = dict(restrictions)
        self._offsets = {}
        self._diff_cols = {}
        self._diff = {}
        self._groups = {}  # k -> (cocycle basis, presentation) of H^k

    def stalk(self, cell):
        return self.stalks.get(cell, _ZERO_STALK)

    def rank(self, cell):
        return self.stalk(cell).rank

    def restriction(self, face, coface):
        R = self.restrictions.get((face, coface))
        if R is None:
            R = zeros(self.rank(coface), self.rank(face), self.ring)
        return R

    def cochain_cells(self, k):
        return self.base.cells_of_dim(k)

    def offsets(self, k):
        if k not in self._offsets:
            off = {}
            pos = 0
            for c in self.cochain_cells(k):
                off[c] = pos
                pos += self.rank(c)
            self._offsets[k] = (off, pos)
        return self._offsets[k]

    def cochain_rank(self, k):
        return self.offsets(k)[1]

    def zero_cochain(self, k):
        return zerovec(self.cochain_rank(k), self.ring)

    def component(self, vec, k, cell):
        off, _ = self.offsets(k)
        i = off[cell]
        return vec[i:i + self.rank(cell)]

    def _block(self, sigma, tau):
        R = self.restriction(sigma, tau)
        if R.shape != (self.rank(tau), self.rank(sigma)):
            raise SheafError(
                "restriction (%s, %s) has shape %s, expected (%d, %d)"
                % (sigma, tau, R.shape, self.rank(tau), self.rank(sigma))
            )
        return R

    def _differential_columns(self, k):
        """d_k as sparse columns {row: entry}, one per coordinate of C^k, from
        the restriction blocks by _block_columns, cached.  Do not modify them."""
        if k not in self._diff_cols:
            blocks = (
                (sigma, tau, sign, self._block(sigma, tau))
                for tau in self.cochain_cells(k + 1)
                for sigma, sign in self.base.faces_of(tau)
            )
            self._diff_cols[k] = _block_columns(self, k, self, k + 1, blocks)
        return self._diff_cols[k]

    def differential(self, k):
        """d_k as a dense matrix: the view of _differential_columns(k), cached."""
        if k not in self._diff:
            m, n = self.cochain_rank(k + 1), self.cochain_rank(k)
            self._diff[k] = _dense(_transpose(self._differential_columns(k), m), (m, n), self.ring)
        return self._diff[k]

    def coboundary(self, k, vec):
        """d applied to a k-cochain: the columns of d_k at the nonzero entries
        of vec.  Equal to differential(k).dot(vec), but the dense
        differential is never built."""
        x = {j: v for j, v in enumerate(vec) if v != 0}
        dx = _apply_columns(self._differential_columns(k), x)
        return _dense([dx], (1, self.cochain_rank(k + 1)), self.ring)[0]

    def _torsion_rows(self, k):
        """Sparse rows spanning the torsion lattice of C^k, new on each call,
        one {column: order} per torsion generator (none over Q)."""
        off, _ = self.offsets(k)
        cells = self.cochain_cells(k)
        return [r for c in cells for r in _stalk_torsion_rows(self.stalk(c), off[c])]

    def is_cocycle(self, k, vec):
        """Whether each entry of d(vec) is a multiple of its torsion order (0 if free)."""
        orders = {j: m for row in self._torsion_rows(k + 1) for j, m in row.items()}
        dx = self.coboundary(k, vec)
        return all(v % orders[j] == 0 if j in orders else v == 0 for j, v in enumerate(dx))


def _block_columns(source, k, target, l, blocks):
    """The map C^k(source) -> C^l(target) as sparse columns {row: entry}: for
    each (sigma, tau, sign, M) in blocks, no two at one pair, sign * M at tau's
    rows and sigma's columns, in the target's ring: each entry times the sign
    as it is, and over Q an int entry made a Fraction."""
    soff, n = source.offsets(k)
    toff, _ = target.offsets(l)
    z = target.ring == "Z"
    cols = [{} for _ in range(n)]
    for sigma, tau, sign, M in blocks:
        i, j = toff[tau], soff[sigma]
        for r, line in enumerate(M.tolist()):
            for c, v in enumerate(line):
                x = v if sign == 1 else -v if sign == -1 else sign * v
                if x:
                    cols[j + c][i + r] = int(x) if z else Fraction(x) if type(x) is int else x
    return cols


def _stalk_torsion_rows(stalk, offset=0):
    """One sparse row {offset + i: order} per torsion generator i of the stalk."""
    return [{offset + i: stalk.order(i)} for i in range(stalk.rank) if stalk.order(i)]


def constant_sheaf(base, rank=1, ring="Z", moduli=()):
    stalks = {c: Stalk(rank, tuple(moduli)) for c in base.cells}
    restrictions = {}
    I = eye(rank, ring)
    for (cof, face) in base.incidence:
        restrictions[(face, cof)] = I
    return CellularSheaf(base, ring, stalks, restrictions)


def _respects_moduli(M, src_stalk, dst_stalk):
    """Whether M kills each torsion generator of src_stalk times its order."""
    orders = [(i, src_stalk.order(i)) for i in range(src_stalk.rank)]
    return all(_diff_in_moduli(dst_stalk, M[:, i:i + 1] * m) for i, m in orders if m)


def validate_sheaf(F):
    """Shape consistency and codim-2 commutativity of restrictions.

    The squares are compared over one denominator per block: each restriction
    M is read once as N / d, with N integer and d the lcm of the denominators
    of M (over Z, N = M and d = 1).  Two composites N2 N1 / (d2 d1) and
    N2' N1' / (d2' d1') agree modulo an order m of the target stalk exactly
    when N2 N1 d2' d1' - N2' N1' d2 d1 is divisible by m d2 d1 d2' d1' (zero
    when m = 0), which is what is checked.

    Violations are listed in cell order: restrictions by coface, then face
    (the restrictions are checked as stored, and only the violations found
    are sorted), and squares by their top cell.
    """
    bad = []
    X = F.base
    for (face, cof), M in F.restrictions.items():
        if X.incidence.get((cof, face)) is None:
            msg = "restriction on non-covering pair (%s, %s)" % (face, cof)
        elif M.shape != (F.rank(cof), F.rank(face)):
            msg = "restriction (%s, %s) has shape %s, expected (%d, %d)" % (
                face, cof, M.shape, F.rank(cof), F.rank(face)
            )
        elif not _respects_moduli(M, F.stalk(face), F.stalk(cof)):
            msg = "restriction (%s, %s) ignores stalk torsion" % (face, cof)
        else:
            continue
        bad.append(((face, cof), msg))
    if bad:
        return ValidationReport([msg for _, msg in sorted(bad, key=_coface_then_face)])
    # over Z every block is its own integer matrix, with denominator 1
    cleared = {}
    if F.ring == "Q":
        cleared = {key: _over_one_denominator(M) for key, M in F.restrictions.items()}
    for rho in X._order:
        if X.cells.get(rho, 0) < 2:
            continue
        # collect composite maps sigma -> rho through every intermediate tau
        composites = {}
        for tau, _ in X.faces_of(rho):
            N2, d2 = cleared.get((tau, rho)) or (F.restriction(tau, rho), 1)
            for sigma, _ in X.faces_of(tau):
                N1, d1 = cleared.get((sigma, tau)) or (F.restriction(sigma, tau), 1)
                composites.setdefault(sigma, []).append((tau, N2.dot(N1), d2 * d1))
        for sigma, pairs in composites.items():
            base_tau, base, e = pairs[0]
            for tau, comp, d in pairs[1:]:
                if d == e:
                    diff, den = comp - base, d
                else:
                    diff, den = comp * e - base * d, d * e
                if not _diff_in_moduli(F.stalk(rho), diff, den):
                    bad.append(
                        "restrictions around (%s <= %s) do not commute (via %s vs %s)"
                        % (sigma, rho, base_tau, tau)
                    )
                    break
    return ValidationReport(bad)


def _coface_then_face(item):
    """The cell order of a restriction's pair (face, coface): by coface, then face."""
    (face, cof), _ = item
    return cell_key(cof), cell_key(face)


def _over_one_denominator(M):
    """(N, d): M = N / d with N an integer matrix and d the lcm of M's denominators."""
    rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in r] for r in M.tolist()]
    d = lcm(*(x.denominator for r in rows for x in r))
    N = zeros(*M.shape)
    if N.size:
        N[:, :] = [[x.numerator * (d // x.denominator) for x in r] for r in rows]
    return N, d


def _diff_in_moduli(dst_stalk, diff, den=1):
    """Whether diff / den vanishes modulo the orders of dst_stalk (den > 0)."""
    for r in range(diff.shape[0]):
        d = dst_stalk.order(r) * den
        for c in range(diff.shape[1]):
            v = diff[r, c]
            if d == 0:
                if v != 0:
                    return False
            elif v % d != 0:
                return False
    return True


# ---------------------------------------------------------------------------
# Cohomology


class CohomologyResult:
    """H^k of a sheaf with canonical coordinates and generator cocycles.

    The cocycles have a basis in echelon form (EchelonBasis): over Z the HNF
    rows of the cocycle lattice, over Q the kernel vectors of the RREF of d.
    The coefficients of a cocycle in it are read by back-substitution; the
    coefficients of the coboundaries (and of the stalk torsion) are the
    relations of the presentation, which fixes the canonical coordinates.

    d, the coboundaries and the torsion are read as sparse rows, and the
    relations go to the presentation as sparse rows.  The one dense matrix is
    the kernel of [d | -torsion^T] over Z (see exact._preimage_rows), and the
    top degree needs none: there d has no rows and every cochain is a cocycle.

    The basis and the presentation are computed once per sheaf and degree,
    and kept on the sheaf beside its differentials for every later result.
    The sheaf keeps that pair, never the result, which refers to the sheaf:
    so the two form no reference cycle.
    """

    def __init__(self, sheaf, degree):
        self.sheaf = sheaf
        self.degree = degree
        F, k = sheaf, degree
        if k in F._groups:
            self._cocycles, self._pg = F._groups[k]
            return
        n = F.cochain_rank(k)
        d = _transpose(F._differential_columns(k), F.cochain_rank(k + 1))
        if F.ring == "Z":
            pivot_rows, _ = _echelon(_preimage_rows(d, n, F._torsion_rows(k + 1)), n, "Z")
            quotient = PresentedGroup
        else:
            pivot_rows = _kernel_rows(_echelon(d, n, "Q")[0], n)
            quotient = QuotientSpace
        self._cocycles = EchelonBasis(n, pivot_rows, F.ring)
        # the relations: the coboundaries (the columns of d_{k-1}) and the
        # stalk torsion of C^k, in the cocycle basis
        rel = []
        if pivot_rows:
            for g in F._differential_columns(k - 1) + F._torsion_rows(k):
                coef = self._cocycles._coefficients(dict(g))  # a copy: it is used up
                if coef is None:
                    raise SheafError("coboundary lies outside the cocycle lattice")
                rel.append(coef)
        self._pg = quotient(len(pivot_rows), rel)
        F._groups[k] = self._cocycles, self._pg

    @property
    def group(self):
        return self._pg.group

    @property
    def presentation(self):
        return self._pg

    def coordinates(self, cocycle):
        """Canonical coordinates of a cocycle's class."""
        return self._pg.reduce(self.to_presentation_coords(cocycle))

    def to_presentation_coords(self, cocycle):
        coef = self._cocycles.coefficients(cocycle)
        if coef is None:
            raise SheafError("vector is not a cocycle")
        return coef

    def generator_cocycles(self):
        """The cocycles of the canonical generators: each generator's
        presentation coordinates applied to the sparse cocycle basis."""
        rows = list(self._cocycles._rows.values())
        shape = (1, self.sheaf.cochain_rank(self.degree))
        gens = []
        for g in self._pg.generators():
            v = {}
            for row, f in zip(rows, g):
                if f:
                    _axpy(v, f, row)
            gens.append(_dense([v], shape, self.sheaf.ring)[0])
        return gens


def cohomology(F, k):
    """H^k(base, F) with representative cocycles, once per sheaf and degree.

    Out-of-range degrees give the zero group (their cochain spaces are empty).
    """
    return CohomologyResult(F, k)


@dataclass
class CohomologyClass:
    sheaf: CellularSheaf
    degree: int
    cocycle: np.ndarray

    def __post_init__(self):
        if len(self.cocycle) != self.sheaf.cochain_rank(self.degree):
            raise SheafError("cocycle has the wrong length")

    def component(self, cell):
        return self.sheaf.component(self.cocycle, self.degree, cell)


def class_from_components(F, degree, components):
    """The degree-cochain with components[cell] at each named cell; each must
    be a degree-cell with a component as long as its stalk's rank."""
    vec = F.zero_cochain(degree)
    off, _ = F.offsets(degree)
    for cell, vals in components.items():
        if cell not in off:
            raise SheafError("component at %s: not a %d-cell" % (cell, degree))
        if len(vals) != F.rank(cell):
            raise SheafError(
                "component at %s has length %d, not %d" % (cell, len(vals), F.rank(cell)))
        i = off[cell]
        for j, v in enumerate(vals):
            vec[i + j] = v if F.ring == "Z" else Fraction(v)
    return CohomologyClass(sheaf=F, degree=degree, cocycle=vec)


def class_add(a, b):
    if a.sheaf is not b.sheaf or a.degree != b.degree:
        raise SheafError("classes live on different sheaves or degrees")
    return CohomologyClass(a.sheaf, a.degree, a.cocycle + b.cocycle)


def class_neg(a):
    return CohomologyClass(a.sheaf, a.degree, -a.cocycle)


def class_reduce(c, result=None):
    """Coordinates of [c] in the canonical basis of H^degree."""
    if result is None:
        result = cohomology(c.sheaf, c.degree)
    return result.coordinates(c.cocycle)


# ---------------------------------------------------------------------------
# Sheaf maps and exact sequences


class SheafMap:
    """Cellwise map between sheaves over the same base complex."""

    def __init__(self, source, target, blocks):
        if source.base is not target.base:
            raise SheafError("sheaf map requires a common base complex")
        if source.ring != target.ring:
            raise SheafError("sheaf map requires a common ring")
        self.source = source
        self.target = target
        self.blocks = dict(blocks)
        self._cols = {}

    def block(self, cell):
        B = self.blocks.get(cell)
        if B is None:
            B = zeros(self.target.rank(cell), self.source.rank(cell), self.source.ring)
        return B

    def validate(self):
        bad = []
        X = self.source.base
        blocks = {cell: self.block(cell) for cell in X._order if cell in X.cells}
        for cell, B in blocks.items():
            if B.shape != (self.target.rank(cell), self.source.rank(cell)):
                bad.append("block at %s has the wrong shape" % (cell,))
            elif not _respects_moduli(B, self.source.stalk(cell), self.target.stalk(cell)):
                bad.append("block at %s ignores stalk torsion" % (cell,))
        if bad:
            return ValidationReport(bad)
        same = {c: c for c in X.cells}
        message = "map does not commute with restriction (%s, %s)"
        return ValidationReport(_iso_violations(X, self.source, self.target, same, blocks, message))

    def _cochain_columns(self, k):
        """The cochain map in degree k as sparse columns, one per coordinate of
        the source's k-cochains, put together from the blocks by
        _block_columns and cached.  Do not modify them."""
        if k not in self._cols:
            blocks = ((cell, cell, 1, self.block(cell)) for cell in self.source.cochain_cells(k))
            self._cols[k] = _block_columns(self.source, k, self.target, k, blocks)
        return self._cols[k]

    def _lifter(self, k):
        """(lift, kernel) for the cochain map M in degree k modulo the target's
        torsion, from one echelon form with transform of M's columns and the
        torsion rows.  lift(x) is one _substitute of the sparse x, which leaves
        minus the combination in the transform columns: at M's columns, a y
        with M y = x modulo torsion.  An entry left below the width, or a
        remainder over Z, means there is none: None.  The null rows'
        transforms, cut to M's columns, span the kernel lattice."""
        width, n = self.target.cochain_rank(k), self.source.cochain_rank(k)
        gens = self._cochain_columns(k) + self.target._torsion_rows(k)
        pivots, null = _echelon_with_transform(gens, width, self.source.ring)

        def lift(x):
            if _substitute(x, pivots) is None or any(c < width for c in x):
                return None
            return {c: -v for c, v in _cut(x, width, n).items()}

        return lift, [_cut(row, width, n) for row in null]

    def induced(self, source, target):
        """This map on cohomology, between results of its own sheaves in one degree."""
        k = source.degree
        if source.sheaf is not self.source or target.sheaf is not self.target or target.degree != k:
            raise SheafError("results are not of this map's sheaves in one degree")
        return _induced(source, target, lambda x: _apply_columns(self._cochain_columns(k), x))


def _same_lattice(a, b, n):
    """Whether the sparse rows a and b span the same lattice in Z^n: the HNF is
    unique, so its rows {pivot: row} are compared."""
    return _echelon(a, n, "Z")[0] == _echelon(b, n, "Z")[0]


@dataclass
class ShortExactSequence:
    i: SheafMap  # A -> B
    p: SheafMap  # B -> C

    @property
    def A(self):
        return self.i.source

    @property
    def B(self):
        return self.i.target

    @property
    def C(self):
        return self.p.target

    def validate(self):
        bad = []
        for rep in (self.i.validate(), self.p.validate()):
            bad.extend(rep.violations)
        if self.p.source is not self.i.target:
            bad.append("maps do not compose")
        if bad:
            return ValidationReport(bad)
        X = self.B.base
        for cell in (c for c in X._order if c in X.cells):
            iB, pB = self.i.block(cell), self.p.block(cell)
            if not _diff_in_moduli(self.C.stalk(cell), pB.dot(iB)):
                bad.append("p after i is nonzero at %s" % (cell,))
            elif self.A.ring == "Z":
                if not self._exact_at(cell):
                    bad.append("sequence is not exact at %s" % (cell,))
            else:
                ri, rp = q_rank(iB), q_rank(pB)
                if ri != self.A.rank(cell):
                    bad.append("i is not injective at %s" % (cell,))
                if rp != self.C.rank(cell):
                    bad.append("p is not surjective at %s" % (cell,))
                if ri + rp != self.B.rank(cell):
                    bad.append("sequence is not exact at %s" % (cell,))
        return ValidationReport(bad)

    def _exact_at(self, cell):
        """Exactness of the stalks at cell over Z, as lattices of the ambient
        generators: ker p = im i + torsion of B, i^-1(torsion of B) = torsion
        of A, and im p + torsion of C = C."""
        A, B, C = (F.stalk(cell) for F in (self.A, self.B, self.C))
        iB = _sparse_rows(self.i.block(cell), "Z")
        pB = _sparse_rows(self.p.block(cell), "Z")
        LA, LB, LC = (_stalk_torsion_rows(s) for s in (A, B, C))
        units = [{j: 1} for j in range(C.rank)]
        return (
            _same_lattice(_preimage_rows(pB, B.rank, LC), _transpose(iB, A.rank) + LB, B.rank)
            and _same_lattice(_preimage_rows(iB, A.rank, LB), LA, A.rank)
            and _same_lattice(_transpose(pB, B.rank) + LC, units, C.rank)
        )


@dataclass
class InducedMap:
    """A homomorphism between cohomology groups in canonical presentations."""

    source: CohomologyResult
    target: CohomologyResult
    matrix: np.ndarray  # presentation coords of target per source generator

    def image_rows(self):
        """Sparse rows spanning the image in the target presentation: the
        columns of matrix, then over Z the target's relations (its HNF rows,
        the presentation's own dicts: do not modify them)."""
        ring = self.source.sheaf.ring
        rows = _sparse_rows(self.matrix.T, ring)
        return rows + self.target.presentation._hnf if ring == "Z" else rows

    def is_surjective(self):
        if self.source.sheaf.ring == "Q":
            return image_dimension(self) == self.target.presentation.dimension
        n = self.target.presentation.n
        return _same_lattice(self.image_rows(), [{j: 1} for j in range(n)], n)


def _induced(source, target, cochain_map):
    """The InducedMap of cochain_map, which takes each sparse cocycle row of
    source in basis order (the basis's own dicts: it must not modify them)
    to a new sparse cocycle of target, read there by back-substitution."""
    cols = [target._cocycles._coefficients(cochain_map(x)) for x in source._cocycles._rows.values()]
    if None in cols:
        raise SheafError("vector is not a cocycle")
    shape = (len(cols), target.presentation.n)
    return InducedMap(source, target, _dense(cols, shape, source.sheaf.ring).T)


def induced_map(source_result, target_result, cochain_map):
    """Map on cohomology induced by a cocycle-level linear map: cochain_map
    takes a cocycle of the source as a numpy vector (ints over Z, Fractions
    over Q) and returns its image in the target as a numpy vector."""
    F, k = source_result.sheaf, source_result.degree
    conv = int if F.ring == "Z" else Fraction

    def on_rows(x):
        img = cochain_map(_dense([x], (1, F.cochain_rank(k)), F.ring)[0])
        return {j: conv(e) for j, e in enumerate(img) if e != 0}

    return _induced(source_result, target_result, on_rows)


def image_dimension(f):
    """Dimension (Q) or rank (Z, modulo torsion) of the image of an InducedMap."""
    P = f.target.presentation
    free = [i for i, d in enumerate(P.coordinate_orders()) if d == 0]
    cols = [P.reduce(f.matrix[:, j]) for j in range(f.matrix.shape[1])]
    rows = [{r: Fraction(c[i]) for r, i in enumerate(free) if c[i]} for c in cols]
    return len(_echelon(rows, len(free), "Q")[0])


def rank_exact_at(f, g):
    """Rank exactness at the middle group of X -f-> Y -g-> Z."""
    if f.target.sheaf is not g.source.sheaf or f.target.degree != g.source.degree:
        raise SheafError("maps are not composable at the middle group")
    return g.source.group.free_rank == image_dimension(f) + image_dimension(g)


def torsion_exact_at(f, g):
    """Exactness im f = ker g over Z, torsion included (presentation lattices)."""
    if f.target.sheaf is not g.source.sheaf or f.target.degree != g.source.degree:
        raise SheafError("maps are not composable at the middle group")
    n = g.source.presentation.n
    ker = _preimage_rows(_sparse_rows(g.matrix, "Z"), n, g.target.presentation._hnf)
    return _same_lattice(f.image_rows(), ker, n)


def connecting_map(ses, k, rng=None, check=True):
    """Connecting homomorphism H^k(C) -> H^{k+1}(A) by the zig-zag: a cocycle
    c lifts to b with p b = c modulo the torsion of C, and d b to a with
    i a = d b modulo the torsion of B.  When rng is given, b moves by seeded
    kernel vectors of the first lift; the induced map does not depend on it.
    """
    if check:
        rep = ses.validate()
        if not rep.valid:
            raise SheafError("sequence is not exact: %s" % rep)
    lift_p, kernel = ses.p._lifter(k)
    lift_i, _ = ses.i._lifter(k + 1)

    def delta(c):
        b = lift_p(dict(c))
        if b is None:
            raise SheafError("cannot lift cocycle through p")
        if rng is not None:
            for t in kernel:
                _axpy(b, rng.randint(-2, 2), t)
        a = lift_i(_apply_columns(ses.B._differential_columns(k), b))
        if a is None:
            raise SheafError("d of the lift does not come from the subsheaf")
        return a

    return _induced(cohomology(ses.C, k), cohomology(ses.A, k + 1), delta)


# ---------------------------------------------------------------------------
# Subcomplex restriction


def subcomplex(X, cells):
    """Full subcomplex on the given cell set (must be closed under faces)."""
    from .complexes import CellComplex

    keep = set(cells)
    # in the parent's cell order, so nothing here depends on hashing
    cells = {c: d for c, d in X.cells.items() if c in keep}
    if len(cells) != len(keep):
        raise SheafError("cell set names a cell outside the complex")
    for c in cells:
        for f, _ in X.faces_of(c):
            if f not in cells:
                raise SheafError("cell set is not closed under faces at %s" % (c,))
    return CellComplex(
        cells=cells,
        incidence={(a, b): v for (a, b), v in X.incidence.items() if a in cells and b in cells},
        boundary_words={f: w for f, w in X.boundary_words.items() if f in cells},
    )


def restrict_sheaf(F, sub):
    stalks = {c: F.stalk(c) for c in sub.cells}
    restrictions = {
        (a, b): M for (a, b), M in F.restrictions.items() if a in sub.cells and b in sub.cells
    }
    return CellularSheaf(sub, F.ring, stalks, restrictions)


def restriction_on_cohomology(F, sub, k):
    """Induced map H^k(base) -> H^k(sub) for a full subcomplex."""
    G = restrict_sheaf(F, sub)
    # F's k-cochains cut to sub: the identity at each k-cell of sub
    blocks = ((c, c, 1, eye(G.rank(c), G.ring)) for c in G.cochain_cells(k))
    pick = _block_columns(F, k, G, k, blocks)
    return _induced(cohomology(F, k), cohomology(G, k), lambda x: _apply_columns(pick, x)), G


def _descend(F, Z, relabel, up):
    """F pushed down an identification of its base onto Z, relabel mapping
    each cell of F.base to its cell of Z.  A cell not in up represents its
    class and gives Z its stalk; up[c] maps the stalk of c's representative
    to the stalk at c.  Each restriction into a representative coface
    becomes R(face <= cof) up[face]; the first block written for a pair of Z
    wins.  The one place a sheaf is pushed down an identification: gluing
    and the fake base's free quotient."""
    stalks = {relabel[c]: F.stalk(c) for c in F.base.cells if c not in up}
    restrictions = {}
    for (face, cof), M in F.restrictions.items():
        if cof not in up:
            block = M.dot(up[face]) if face in up else M
            restrictions.setdefault((relabel[face], relabel[cof]), block)
    return CellularSheaf(Z, F.ring, stalks, restrictions)


# ---------------------------------------------------------------------------
# Products and automorphisms


def pullback_sum(F1, F2, Z, factors):
    """p1*F1 (+) p2*F2 on a product complex built by complexes.product."""
    if F1.ring != F2.ring:
        raise SheafError("summands must share a ring")
    ring = F1.ring
    stalks = {}
    for cell, (a, b) in factors.items():
        s1, s2 = F1.stalk(a), F2.stalk(b)
        moduli = tuple(s1.order(i) for i in range(s1.rank)) + tuple(
            s2.order(i) for i in range(s2.rank)
        )
        if not any(moduli):
            moduli = ()
        stalks[cell] = Stalk(s1.rank + s2.rank, moduli)
    restrictions = {}
    for (cof, face) in Z.incidence:
        a1, b1 = factors[face]
        a2, b2 = factors[cof]
        r1 = F1.restriction(a1, a2) if a1 != a2 else eye(F1.rank(a1), ring)
        r2 = F2.restriction(b1, b2) if b1 != b2 else eye(F2.rank(b1), ring)
        M = zeros(r1.shape[0] + r2.shape[0], r1.shape[1] + r2.shape[1], ring)
        M[:r1.shape[0], :r1.shape[1]] = r1
        M[r1.shape[0]:, r1.shape[1]:] = r2
        restrictions[(face, cof)] = M
    return CellularSheaf(Z, ring, stalks, restrictions)


class SheafAutomorphism:
    """Complex automorphism with compatible stalk isomorphisms."""

    def __init__(self, sheaf, cell_map, stalk_isos):
        self.sheaf = sheaf
        self.cell_map = dict(cell_map)
        self.stalk_isos = dict(stalk_isos)

    def validate(self):
        F, X = self.sheaf, self.sheaf.base
        if set(self.cell_map) != set(X.cells) or set(self.cell_map.values()) != set(X.cells):
            return ValidationReport(["cell map is not a bijection of the cells"])
        return ValidationReport(_stalk_iso_violations(X, X, F, F, self.cell_map, self.stalk_isos)[0])


def _stalk_iso_violations(X, Y, F1, F2, cell_map, isos):
    """(violations, inverses) of the stalk isos isos[c], from F1 at the cell
    c of X to F2 at cell_map[c], along cell_map, defined on every cell of X
    and onto the cells of Y.  In cell order: the cell map itself; each iso
    there, of the right shape and invertible on the stalk groups (see
    _stalk_inverse; an iso of a Z sheaf with a non-integer entry is not);
    then, when all of that holds, the squares of _iso_violations.
    inverses[c] maps F2's stalk at cell_map[c] back to F1's at c, for every
    c whose iso is invertible."""
    ring = F1.ring
    bad = _cell_map_violations(X, Y, cell_map)
    inverses = {}
    for k in range(X.dimension + 1):
        for c in X.cells_of_dim(k):
            J = isos.get(c)
            if J is None:
                bad.append("missing stalk iso at %s" % (c,))
                continue
            if J.shape != (F2.rank(cell_map[c]), F1.rank(c)):
                bad.append("stalk iso at %s has the wrong shape" % (c,))
                continue
            try:
                inverse = _stalk_inverse(J, F1.stalk(c), F2.stalk(cell_map[c]), ring)
            except ValueError:  # a non-integer entry over Z
                inverse = None
            if inverse is None:
                bad.append("stalk iso at %s is not invertible over %s" % (c, ring))
            else:
                inverses[c] = inverse
    return bad or _iso_violations(X, F1, F2, cell_map, isos), inverses


def _stalk_inverse(J, A, B, ring):
    """The inverse of the stalk map J from the stalk A to the stalk B, as a
    dense matrix K, or None when J is no isomorphism of the stalk groups.

    Over Q that is the inverse matrix.  Over Z the groups are Z^n / L_A and
    Z^m / L_B, with L_A and L_B the torsion lattices.  J must map L_A into
    L_B; one echelon form with transform of J's columns and L_B's rows then
    shows the rest.  J is onto when the pivot rows are the m units, and the
    transform of unit j, cut to J's columns, is column j of a K with J K = I
    modulo L_B.  J is one to one when the null rows' transforms, cut to J's
    columns, span the preimage of L_B, which must be L_A; K then maps L_B
    into L_A.  On free stalks this is J unimodular, and K its inverse."""
    n, m = A.rank, B.rank
    if ring == "Q":
        inverse = _inverse(_sparse_rows(J, ring), n, ring)
        return None if inverse is None else _dense(inverse, (n, n), ring)
    if not _respects_moduli(J, A, B):
        return None
    columns = _transpose(_sparse_rows(J, ring), n)
    pivots, null = _echelon_with_transform(columns + _stalk_torsion_rows(B), m, ring)
    if len(pivots) != m or any(row[p] != 1 for p, row in pivots.items()):
        return None
    if not _same_lattice([_cut(row, m, n) for row in null], _stalk_torsion_rows(A), n):
        return None
    return _dense(_transpose([_cut(row, m, n) for row in pivots.values()], n), (n, m))


def _cut(row, first, n):
    """The entries of the sparse row at columns first .. first + n - 1, moved to 0 .. n - 1."""
    return {c - first: v for c, v in row.items() if first <= c < first + n}


def _iso_violations(X, F1, F2, cell_map, isos, message="stalk isos break restriction at (%s, %s)"):
    """The squares J R1(face <= cof) = R2(cell_map face <= cell_map cof) J over
    the covering pairs of X, in cell order, with isos[c] from F1 at c to F2 at
    cell_map[c], that fail modulo the torsion of F2's stalk, as message % (face, cof).
    SheafMap.validate checks its squares here, with the identity cell map."""
    bad = []
    for cof, face, _ in _covering_pairs(X):
        left = isos[cof].dot(F1.restriction(face, cof))
        right = F2.restriction(cell_map[face], cell_map[cof]).dot(isos[face])
        if not _diff_in_moduli(F2.stalk(cell_map[cof]), left - right):
            bad.append(message % (face, cof))
    return bad


def automorphism_action(aut, cls):
    """Pushforward of a cohomology class along a sheaf automorphism."""
    rep = aut.validate()
    if not rep.valid:
        raise SheafError("not an automorphism: %s" % rep)
    F = aut.sheaf
    k = cls.degree
    eps = _infer_signs(F.base, aut.cell_map)
    if eps is None:
        raise SheafError("cell map does not commute with incidence signs")
    blocks = ((c, aut.cell_map[c], eps[c], aut.stalk_isos[c]) for c in F.cochain_cells(k))
    x = {j: v for j, v in enumerate(cls.cocycle) if v != 0}
    out = _apply_columns(_block_columns(F, k, F, k, blocks), x)
    return CohomologyClass(F, k, _dense([out], (1, F.cochain_rank(k)), F.ring)[0])


def orbit_of_class(action_mats, start_coords, max_word_length=6):
    """Orbit of canonical coordinates under matrices acting on coordinates."""
    start = tuple(start_coords)
    seen = {start}
    frontier = [start]
    mats = []
    for M in action_mats:
        mats.append(M)
        mats.append(unimodular_inverse(M))
    for _ in range(max_word_length):
        new = []
        for c in frontier:
            vec = intmat([[x] for x in c])
            for M in mats:
                img = tuple(int(v) for v in M.dot(vec)[:, 0])
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
        if not frontier:
            break
    return seen
