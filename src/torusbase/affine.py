"""Integral affine surfaces with singular points.

Charts are per-face vertex positions over Q; transitions across interior
edges are pairs (A, t) in GL(2,Z) x Q^2 mapping from_face coordinates to
to_face coordinates.  Action coordinates transform by A, so covectors (the
stalks of the monodromy sheaf) transform by the inverse transpose; that
convention is fixed here and used everywhere.

All affine arithmetic runs on transports ((a, b, c, d), (x, y)), the map
p -> [[a, b], [c, d]] p + (x, y), with Python ints and a translation of ints
when integral, else Fractions.  affine_compose, affine_inverse,
affine_identity, dual_matrix, fixed_covector, star_transports, vertex_wheel
and AffineSurface.crossing only convert to and from numpy (A, t) pairs.

Each invariant of a surface has one entry point, which takes the surface:
build_R_sheaf keeps R on it, and lagrangian_moduli and dhat read R and its
cohomology from there.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

import numpy as np

from .complexes import boundary_traversal, cell_key, dual_loops, vertex_star_cycle
from .errors import TorusbaseError, ValidationReport
from .exact import (
    PresentedGroup,
    _apply_columns,
    _dense,
    eye,
    fracmat,
    fracvec,
    intmat,
    intvec,
    inv2,
    mat_eq,
    q_rank,
)
from .sheaves import (
    CellularSheaf,
    CohomologyClass,
    SheafMap,
    ShortExactSequence,
    Stalk,
    _block_columns,
    cohomology,
    constant_sheaf,
    validate_sheaf,
)


class AffineError(TorusbaseError):
    pass


@dataclass(frozen=True)
class SingularityMark:
    kind: str = "regular"
    k: int = 0  # multiplicity of a focus_focus point

    def __post_init__(self):
        kinds = (
            "regular",
            "focus_focus",
            "elliptic_edge",
            "elliptic_vertex",
            "hyperbolic_edge",
            "hyperbolic_vertex",
        )
        if self.kind not in kinds:
            raise AffineError("unknown singularity kind %r" % (self.kind,))
        if self.kind == "focus_focus" and self.k < 1:
            raise AffineError("focus_focus multiplicity must be positive")


REGULAR = SingularityMark()


@dataclass
class EdgeTransition:
    from_face: object
    to_face: object
    A: np.ndarray  # 2x2 integer, |det| = 1
    t: np.ndarray  # length 2 over Q


def _num(x):
    """An int or Fraction as an int when integral, else the Fraction itself."""
    return x if type(x) is int else (x.numerator if x.denominator == 1 else x)


def _point(p):
    """A chart position or translation as a pair of exact numbers."""
    return _num(Fraction(p[0])), _num(Fraction(p[1]))


def _lin(A):
    """A 2x2 matrix as the linear part (a, b, c, d) of a transport."""
    return tuple(int(x) for x in A.flat)


def _transport(A, t):
    return _lin(A), _point(t)


def _arrays(m):
    """A transport as the (A, t) pair of the public names: ints, Fractions."""
    (a, b, c, d), t = m
    return intmat([[a, b], [c, d]]), fracvec(t)


_IDENTITY = ((1, 0, 0, 1), (0, 0))


def _lin_mul(L2, L1):
    a, b, c, d = L2
    e, f, g, h = L1
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _lin_inverse(L):
    a, b, c, d = L
    det = a * d - b * c
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return d * det, -b * det, -c * det, a * det


def _dual(L):
    """Covector pushforward of a linear part: its inverse transpose."""
    a, b, c, d = _lin_inverse(L)
    return a, c, b, d


def _apply(m, p):
    (a, b, c, d), (x, y) = m
    return _num(a * p[0] + b * p[1] + x), _num(c * p[0] + d * p[1] + y)


def _compose(m2, m1):
    """m2 after m1."""
    return _lin_mul(m2[0], m1[0]), _apply(m2, m1[1])


def _inverse(m):
    L = _lin_inverse(m[0])
    return L, tuple(-x for x in _apply((L, (0, 0)), m[1]))


def _crossing(S, edge, from_face):
    """(transport, face reached) for crossing edge out of from_face."""
    tr = S.transitions[edge]
    if tr.from_face == from_face:
        return _transport(tr.A, tr.t), tr.to_face
    if tr.to_face == from_face:
        return _inverse(_transport(tr.A, tr.t)), tr.from_face
    raise AffineError("face %s is not a side of edge %s" % (from_face, edge))


def affine_compose(m2, m1):
    """(B, s) after (A, t): x -> B(Ax + t) + s."""
    return _arrays(_compose(_transport(*m2), _transport(*m1)))


def affine_inverse(m):
    return _arrays(_inverse(_transport(*m)))


def affine_identity():
    return _arrays(_IDENTITY)


def affine_eq(m1, m2):
    return mat_eq(m1[0], m2[0]) and all(a == b for a, b in zip(m1[1], m2[1]))


def dual_matrix(A):
    """Covector pushforward: inverse transpose."""
    a, b, c, d = _dual(_lin(A))
    return intmat([[a, b], [c, d]])


@dataclass
class AffineSurface:
    base: object  # CellComplex of dimension 2
    charts: dict  # face -> {vertex: (qx, qy)}
    transitions: dict  # interior edge -> EdgeTransition
    markings: dict = field(default_factory=dict)  # cell -> SingularityMark
    chern_cocycle: dict = field(default_factory=dict)  # face -> int 2-vector

    def mark(self, cell):
        return self.markings.get(cell, REGULAR)

    def crossing(self, edge, from_face):
        """Affine map for crossing edge out of from_face."""
        m, other = _crossing(self, edge, from_face)
        return _arrays(m), other

    def focus_focus_vertices(self):
        return [c for c in self.base.cells_of_dim(0) if self.mark(c).kind == "focus_focus"]

    def focus_focus_count(self):
        return len(self.focus_focus_vertices())


def star_transports(S, v):
    """Affine transports from the first star face's frame to every star face."""
    faces, edges, closed, T, _ = _star_walk(S, v)
    return faces, edges, closed, [_arrays(m) for m in T]


def vertex_wheel(S, v):
    """Total affine holonomy around an interior vertex, or None on boundary."""
    wheel = _star_walk(S, v)[4]
    return None if wheel is None else _arrays(wheel)


def _star_walk(S, v):
    """star_transports and the wheel of v (None on the boundary), as transports."""
    faces, edges, closed = vertex_star_cycle(S.base, v)
    T = [_IDENTITY]
    for i, e in enumerate(edges if not closed else edges[:-1]):
        m, other = _crossing(S, e, faces[i])
        if other != faces[i + 1]:
            raise AffineError("star walk mismatch at %s" % (v,))
        T.append(_compose(m, T[i]))
    if not closed:
        return faces, edges, closed, T, None
    m, other = _crossing(S, edges[-1], faces[-1])
    if other != faces[0]:
        raise AffineError("star walk does not close at %s" % (v,))
    return faces, edges, closed, T, _compose(m, T[-1])


def unipotent_power(W):
    """k with W conjugate in GL(2,Z) to [[1,k],[0,1]], else None.

    det W = 1 and trace 2 give det(W - I) = 0, so the Smith form of W - I is
    diag(k, 0) with k the gcd of its entries (0 when W is the identity).
    """
    return _unipotent_power(_lin(W))


def _unipotent_power(L):
    a, b, c, d = L
    if a * d - b * c != 1 or a + d != 2:
        return None
    return gcd(a - 1, b, c, d - 1)


def validate_affine(S):
    """All affine invariants: transitions, chart positions, vertex wheels."""
    from .complexes import validate as validate_complex

    bad = []
    rep = validate_complex(S.base)
    if not rep.valid:
        return ValidationReport(["base complex invalid: %s" % rep])
    X = S.base
    if X.dimension != 2:
        bad.append("base complex must be 2-dimensional")
        return ValidationReport(bad)
    # polygon charts are optional (needed for areas); when present they must
    # cover the face's vertices and agree with the transitions
    for f, ch in S.charts.items():
        if X.dim(f) != 2:
            bad.append("chart on non-face %s" % (f,))
            continue
        verts = {w for e, _ in X.faces_of(f) for w, _ in X.faces_of(e)}
        missing = verts - set(ch)
        if missing:
            bad.append("chart of %s misses vertices %s" % (f, sorted(missing, key=cell_key)))
    if bad:
        return ValidationReport(bad)
    for e in X.cells_of_dim(1):
        cofs = [g for g, _ in X.cofaces_of(e)]
        if len(cofs) == 2:
            tr = S.transitions.get(e)
            if tr is None:
                bad.append("interior edge %s has no transition" % (e,))
                continue
            if {tr.from_face, tr.to_face} != set(cofs):
                bad.append("transition of %s names wrong faces" % (e,))
                continue
            d = tr.A[0, 0] * tr.A[1, 1] - tr.A[0, 1] * tr.A[1, 0]
            if d not in (1, -1):
                bad.append("transition of %s is not unimodular" % (e,))
            if tr.from_face in S.charts and tr.to_face in S.charts:
                m = _transport(tr.A, tr.t)
                for u, _ in X.faces_of(e):
                    src = S.charts[tr.from_face][u]
                    dst = S.charts[tr.to_face][u]
                    if _apply(m, _point(src)) != _point(dst):
                        bad.append(
                            "transition of %s moves vertex %s off its chart" % (e, u)
                        )
        elif e in S.transitions:
            bad.append("boundary edge %s carries a transition" % (e,))
    if bad:
        return ValidationReport(bad)
    for cell, mark in S.markings.items():
        if mark.kind == "focus_focus" and X.dim(cell) != 0:
            bad.append("focus_focus mark on non-vertex %s" % (cell,))
        if mark.kind in ("hyperbolic_edge", "hyperbolic_vertex"):
            bad.append(
                "hyperbolic mark on %s: hyperbolic strata live on graph bases only" % (cell,)
            )
        if mark.kind == "elliptic_edge" and (
            X.dim(cell) != 1 or len(X.cofaces_of(cell)) != 1
        ):
            bad.append("elliptic_edge mark on non-boundary-edge %s" % (cell,))
        if mark.kind == "elliptic_vertex" and X.dim(cell) != 0:
            bad.append("elliptic_vertex mark on non-vertex %s" % (cell,))
    bad.extend("chern entry on non-face %s" % (f,) for f in S.chern_cocycle if X.dim(f) != 2)
    for v in X.cells_of_dim(0):
        mark = S.mark(v)
        faces, _, _, _, wheel = _star_walk(S, v)
        if wheel is None:
            if mark.kind == "focus_focus":
                bad.append("focus-focus mark on boundary vertex %s" % (v,))
            continue
        if mark.kind == "focus_focus":
            k = _unipotent_power(wheel[0])
            if k != mark.k or k == 0:
                bad.append(
                    "vertex %s wheel is not conjugate to the %d-fold standard unipotent"
                    % (v, mark.k)
                )
                continue
            if faces[0] in S.charts:
                pos = _point(S.charts[faces[0]][v])
                if _apply(wheel, pos) != pos:
                    bad.append("wheel at focus-focus vertex %s does not fix it" % (v,))
            else:
                # without a chart, a fixed point must at least exist over Q:
                # with W - I of rank 1, t lies in the span of a nonzero column
                (a, b, c, d), (x, y) = wheel
                p, q = (a - 1, c) if (a != 1 or c) else (b, d - 1)
                if p * y != q * x:
                    bad.append("wheel at focus-focus vertex %s has no fixed point" % (v,))
        elif wheel != _IDENTITY:
            bad.append("wheel at %s vertex %s is not the identity" % (mark.kind, v))
    return ValidationReport(bad)


# ---------------------------------------------------------------------------
# Monodromy


@dataclass
class MonodromyRep:
    basepoint: object
    loops: list
    images: list  # GL(2,Z) matrices, one per loop


def monodromy_rep(S):
    """Holonomy of generating face loops based at the first face, up to conjugation."""
    X = S.base
    basepoint = X.cells_of_dim(2)[0]
    loops = dual_loops(X, basepoint)
    lin = {e: _lin(tr.A) for e, tr in S.transitions.items()}
    images = []
    for l in loops:
        L = _IDENTITY[0]
        for i, e in enumerate(l.edges):
            tr, sides = S.transitions[e], (l.faces[i], l.faces[i + 1])
            if (tr.from_face, tr.to_face) not in (sides, sides[::-1]):
                raise AffineError("loop does not follow edge %s" % (e,))
            L = _lin_mul(lin[e] if tr.from_face == sides[0] else _lin_inverse(lin[e]), L)
        a, b, c, d = L
        images.append(intmat([[a, b], [c, d]]))
    return MonodromyRep(basepoint=basepoint, loops=loops, images=images)


def boundary_word_holonomy(S):
    """Global relator of the monodromy presentation, as a holonomy product.

    Cutting the surface open along the co-tree edges leaves a disk whose
    interior is free of vertices, so the based co-tree loops multiplied in
    the order their sides appear along the disk boundary are contractible in
    the punctured surface.  The returned affine map is that ordered product;
    it must be the identity on any valid closed surface.  Seam letters are
    conjugates of the focus-focus vertex loops, so for a sphere of
    focus-focus points this is the global triviality of the product of all
    singular-fiber monodromies.
    """
    from .complexes import _dual_tree

    X = S.base
    basepoint = X.cells_of_dim(2)[0]
    walk = boundary_traversal(X, basepoint, record_tree=True)
    tree, _ = _dual_tree(X, basepoint)
    transport = {basepoint: _IDENTITY}

    def T(face):
        if face not in transport:
            parent, e = tree[face]
            step, other = _crossing(S, e, parent)
            if other != face:
                raise AffineError("tree walk mismatch at %s" % (e,))
            transport[face] = _compose(step, T(parent))
        return transport[face]

    total = _IDENTITY
    for e, f, g, kind in walk:
        if g is None:
            raise AffineError("boundary word holonomy requires a closed surface")
        if kind == "tree":
            continue
        step, other = _crossing(S, e, f)
        if other != g:
            raise AffineError("walk mismatch at %s" % (e,))
        based = _compose(_inverse(T(g)), _compose(step, T(f)))
        total = _compose(based, total)
    return _arrays(total)


# ---------------------------------------------------------------------------
# The monodromy sheaf


_STALK_RANKS = {
    "regular": None,  # by dimension, below
    "focus_focus": 1,
    "elliptic_edge": 2,
    "elliptic_vertex": 2,
    "hyperbolic_edge": 1,
    "hyperbolic_vertex": 0,
}


def _edge_frame_owner(S, e):
    cofs = S.base.cofaces_of(e)
    if len(cofs) == 1:
        return cofs[0][0]
    return S.transitions[e].from_face


def fixed_covector(W):
    """Primitive covector fixed by the dual of the wheel linear part W.

    The fixed covectors form the lattice ker (W - I)^T, orthogonal to the
    columns of W - I; when it has rank 1 its generator is taken to be its HNF
    row: the primitive covector whose first nonzero entry is positive.
    """
    xi = _fixed_covector(_lin(W))
    return None if xi is None else intvec(xi)


def _fixed_covector(L):
    a, b, c, d = L
    a, d = a - 1, d - 1
    if a * d != b * c or not (a or b or c or d):
        return None
    p, q = (a, c) if (a or c) else (b, d)
    g = gcd(p, q) if q > 0 or (q == 0 and p < 0) else -gcd(p, q)
    return q // g, -p // g


class _MonodromySheaf(CellularSheaf):
    """The monodromy sheaf R, with the translation behind each restriction.

    _shifts[(sigma, tau)] is the translation part t of the affine transport
    whose dual gives the frame of R(sigma <= tau): tr.t for (e, to_face), the
    star walk's transport for (v, e); absent (zero) for (e, from_face) and
    boundary edges.  R pairs them with its blocks once, on ints over one
    denominator (_pairings); build_I_sheaf twists R by that table, so it
    walks no star, and dhat reads its translation cochain map T off it, so
    it builds no I.  Both read it through _checked_pairings: a check that
    passed runs once per R.  constants, the A of 0 -> Q -> I -> R_Q -> 0, is
    built once per R, so build_I_sheaf, dhat and lagrangian_moduli share
    each H^k(O; Q).  Do not modify _shifts.
    """

    def __init__(self, base, stalks, restrictions, shifts):
        super().__init__(base, "Z", stalks, restrictions)
        self._shifts = shifts
        self._translation_cols = {}
        self._translations_checked = False

    @cached_property
    def constants(self):
        """The constant Q sheaf of R's base, built on first use."""
        return constant_sheaf(self.base, 1, "Q")

    @cached_property
    def _pairings(self):
        """(den, {(sigma, tau): den t^T R(sigma <= tau)}) for each translation
        t, as ints over den, the least common denominator of them all."""
        den = lcm(*(s.denominator for t in self._shifts.values() for s in t))
        return den, {
            key: _pull([s.numerator * (den // s.denominator) for s in t], self.restriction(*key).tolist())
            for key, t in self._shifts.items()
        }

    def _checked_pairings(self):
        """_pairings, once _check_translations has passed on R."""
        if not self._translations_checked:
            _check_translations(self)
        return self._pairings

    def _translation_columns(self, k):
        """T_k: C^k(R) -> C^{k+1}(O; Q), the constant part of d_I on (0, c), as
        sparse columns {row: Fraction} put together by _block_columns from one
        block -[tau : sigma] t^T R(sigma <= tau) per pair with a translation t,
        cached, read off the checked pairings.  Do not modify them."""
        if k not in self._translation_cols:
            den, pairs = self._checked_pairings()
            X, blocks = self.base, []
            for (sigma, tau), pull in pairs.items():
                if X.dim(sigma) == k:
                    blocks.append((sigma, tau, -X.incidence[tau, sigma], _qmat([[Fraction(x, den) for x in pull]])))
            self._translation_cols[k] = _block_columns(self, k, self.constants, k + 1, blocks)
        return self._translation_cols[k]


def build_R_sheaf(S):
    """The sheaf of local fiberwise circle actions, over Z.

    Face and edge stalks are Z^2 in chart frames (edges use the frame of the
    transition's from_face); a focus-focus vertex carries the rank-1 lattice
    of covectors fixed by its local monodromy.  One star walk per vertex
    gives the vertex restrictions and, at a focus-focus vertex, the wheel.

    Built once per surface from its base, transitions and markings, and kept
    on it, so every invariant of S shares R and each H^k(O, R).
    """
    if "_R" not in S.__dict__:
        S._R = _build_R_sheaf(S)
    return S._R


def _build_R_sheaf(S):
    """build_R_sheaf, built anew."""
    X = S.base
    stalks = {}
    restrictions = {}
    shifts = {}
    for f in X.cells_of_dim(2):
        stalks[f] = Stalk(2)
    for e in X.cells_of_dim(1):
        mark = S.mark(e)
        if mark.kind not in ("regular", "elliptic_edge"):
            raise AffineError("unsupported edge mark %s on a surface" % (mark.kind,))
        stalks[e] = Stalk(2)
        cofs = [g for g, _ in X.cofaces_of(e)]
        if len(cofs) == 1:
            restrictions[(e, cofs[0])] = eye(2)
        else:
            tr = S.transitions[e]
            restrictions[(e, tr.from_face)] = eye(2)
            restrictions[(e, tr.to_face)] = dual_matrix(tr.A)
            shifts[(e, tr.to_face)] = tr.t
    for v in X.cells_of_dim(0):
        faces, _, _, T, wheel = _star_walk(S, v)
        xi = None
        if S.mark(v).kind == "focus_focus":
            xi = None if wheel is None else _fixed_covector(wheel[0])
            if xi is None:
                raise AffineError("no fixed covector at focus-focus vertex %s" % (v,))
        stalks[v] = Stalk(2 if xi is None else 1)
        star_edges = [e for e, _ in X.cofaces_of(v) if X.dim(e) == 1]
        for e in star_edges:
            idx = faces.index(_edge_frame_owner(S, e))
            a, b, c, d = _dual(T[idx][0])
            rows = [[a, b], [c, d]] if xi is None else [[a * xi[0] + b * xi[1]], [c * xi[0] + d * xi[1]]]
            restrictions[(v, e)] = _qmat(rows)
            shifts[(v, e)] = T[idx][1]
    F = _MonodromySheaf(X, stalks, restrictions, shifts)
    rep = validate_sheaf(F)
    if not rep.valid:
        raise AffineError("monodromy sheaf invalid: %s" % rep)
    return F


def _pull(t, ints):
    """t^T M for a vector t and the integer rows ints of M."""
    return [sum(map(mul, t, col)) for col in zip(*ints)]


def _qmat(rows):
    """Object array of the given rows of numbers, which it does not copy."""
    out = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    out[:, :] = rows
    return out


def build_I_sheaf(S):
    """Sheaf of local integral affine functions over Q, with its sequence.

    Returns (I, ses) where ses is 0 -> Q -> I -> R_Q -> 0, exact stalkwise.
    The stalk of I is constants plus the rationalized monodromy stalk, and
    every restriction is R twisted by a translation:

        I(sigma <= tau) = [[1, -t^T R(sigma <= tau)], [0, R(sigma <= tau)]]

    where t is the translation of the affine transport that gives the frame
    of R(sigma <= tau): tr.t for (e, to_face), 0 for (e, from_face) and for
    boundary edges, and the star walk's transport from the vertex frame to
    the edge frame for (v, e), read off R's pairing table; I is checked by
    _check_translations once per R, not again after lagrangian_moduli.
    """
    return _build_I_sheaf(build_R_sheaf(S))


def _build_I_sheaf(R):
    """build_I_sheaf on top of the monodromy sheaf R, built already.  Each
    distinct R block and pairing, and each stalk rank's embedding and
    projection, is made once, in Fractions, and shared."""
    den, pairs = R._checked_pairings()
    X = R.base
    shared, rq, restrictions = {}, {}, {}
    for key, M in R.restrictions.items():
        block = tuple(map(tuple, M.tolist())), tuple(pairs.get(key, [0] * M.shape[1]))
        if block not in shared:
            rows = [[Fraction(x) for x in row] for row in block[0]]
            top = [Fraction(-x, den) for x in block[1]]
            shared[block] = _qmat(rows), _qmat([[Fraction(1)] + top] + [[Fraction(0)] + row for row in rows])
        rq[key], restrictions[key] = shared[block]
    RQ = CellularSheaf(X, "Q", {c: R.stalk(c) for c in X.cells}, rq)
    stalks = {c: Stalk(1 + R.rank(c)) for c in X.cells}
    I = CellularSheaf(X, "Q", stalks, restrictions)
    # i embeds the constants, p projects onto the covectors
    by_rank, iblocks, pblocks = {}, {}, {}
    for c in X.cells:
        r = R.rank(c)
        if r not in by_rank:
            e = eye(1 + r, "Q")
            by_rank[r] = e[:, :1].copy(), e[1:].copy()
        iblocks[c], pblocks[c] = by_rank[r]
    return I, ShortExactSequence(i=SheafMap(R.constants, I, iblocks), p=SheafMap(I, RQ, pblocks))


def _check_translations(R):
    """Raise the AffineError of validate_sheaf on the I of R, if I is no sheaf.

    R's squares commute (build_R_sheaf validated them), so I's do exactly
    when, for every sigma < tau < rho, t_{sigma tau}^T R_{sigma tau} +
    t_{tau rho}^T R_{tau rho} R_{sigma tau} is the same for every tau: ints
    over one denominator off R's pairing table, violations listed as
    validate_sheaf lists them.  R remembers only a check that passed.
    """
    X = R.base
    _, pairs = R._pairings
    bad = []
    for rho in (c for c in X._order if X.cells.get(c, 0) >= 2):
        rows = {}
        for tau, _ in X.faces_of(rho):
            w = pairs.get((tau, rho), ())
            for sigma, _ in X.faces_of(tau):
                u = _pull(w, R.restriction(sigma, tau).tolist())
                t = pairs.get((sigma, tau))
                rows.setdefault(sigma, []).append((tau, [a + b for a, b in zip(t, u)] if t else u))
        for sigma, ((base_tau, base), *others) in rows.items():
            tau = next((tau for tau, row in others if row != base), None)
            if tau is not None:
                bad.append(
                    "restrictions around (%s <= %s) do not commute (via %s vs %s)" % (sigma, rho, base_tau, tau)
                )
    if bad:
        raise AffineError("affine-function sheaf invalid: %s" % ValidationReport(bad))
    R._translations_checked = True


def dhat(S, cls, ses=None, target=None):
    """Connecting map of the affine-function sequence applied to a class.

    Returns (cohomology result of H^{k+1}(O, Q), canonical coordinates).
    I is constants plus covectors stalkwise, so the zig-zag lifts a cocycle
    c to (0, c), and the constant part of d_I (0, c) is T c: the pairing with
    the translations of the affine holonomy, whose class is the radiance
    obstruction.  T is read off the class's sheaf when it records them, else
    off build_R_sheaf(S), and no I is built.  ses is accepted and not read,
    and target is only a shortcut: its default, H^{k+1} of R.constants, is
    kept by R.constants.  No caller in torusbase passes either; both stay for
    callers that built the sequence and its target already.
    In top degree on a surface the target vanishes and the map is zero.
    """
    R = cls.sheaf if isinstance(cls.sheaf, _MonodromySheaf) else build_R_sheaf(S)
    k = cls.degree
    hA = target if target is not None else cohomology(R.constants, k + 1)
    if R.cochain_rank(k) == 0 or hA.presentation.n == 0:
        return hA, tuple(Fraction(0) for _ in range(hA.presentation.dimension))
    c = {j: v for j, v in enumerate(cls.cocycle) if v != 0}
    if _apply_columns(R._differential_columns(k), c):
        raise AffineError("zig-zag left the constant subsheaf; not a cocycle")
    a = _apply_columns(R._translation_columns(k), c)
    return hA, hA.coordinates(_dense([a], (1, hA.sheaf.cochain_rank(k + 1)), hA.sheaf.ring)[0])


def lagrangian_moduli(S):
    """(dim H^2(O, R-coefficients), rank of the dhat image of H^1(O, R)).

    Presents the symplectic moduli H^2(O, R)/dhat(H^1(O, R-sheaf)) as an
    ambient dimension and a lattice rank.  R and H^1(R) are the ones S keeps.
    No I is built: dhat reads T off R's pairing table, and T_1, built first,
    checks the translations as build_I_sheaf does, once per R, even when
    H^1(R) is 0.
    """
    R = build_R_sheaf(S)
    h1 = cohomology(R, 1)
    R._translation_columns(1)
    dim = cohomology(R.constants, 2).presentation.dimension
    images = [list(dhat(S, CohomologyClass(R, 1, g))[1]) for g in h1.generator_cocycles()]
    if not images or dim == 0:
        return dim, 0
    return dim, q_rank(fracmat(images))


def torus_bundle_h1(c):
    """H_1 of the total space of a torus bundle over the torus with Chern c.

    Abelianization of the central extension with commutator pairing c: the
    group is Z^3 + Z/gcd(c1, c2), with gcd 0 meaning a free factor.
    """
    c1, c2 = int(c[0]), int(c[1])
    rel = intmat([[c1, c2, 0, 0]])
    return PresentedGroup(4, rel).group


def affine_area(S):
    """Total chart area; invariant under unimodular rechartings."""
    X = S.base
    total = Fraction(0)
    for f in X.cells_of_dim(2):
        word = X.boundary_words.get(f)
        if word is None or f not in S.charts:
            raise AffineError("face %s has no polygonal chart" % (f,))
        cycle = []
        for e, s in word:
            tail = next(w for w, val in X.faces_of(e) if val == (-1 if s == 1 else 1))
            cycle.append(tail)
        pts = [fracvec(S.charts[f][v]) for v in cycle]
        area2 = Fraction(0)
        for i in range(len(pts)):
            x1, y1 = pts[i]
            x2, y2 = pts[(i + 1) % len(pts)]
            area2 += x1 * y2 - x2 * y1
        total += abs(area2) / 2
    return total


def rechart(S, maps):
    """Apply a unimodular affine change of frame to some faces.

    maps: {face: (U, c)} with U in GL(2, Z) and rational c; transitions and
    chart positions are conjugated accordingly.
    """

    core = {f: _transport(U, c) for f, (U, c) in maps.items()}

    def get(face):
        return core.get(face, _IDENTITY)

    charts = {}
    for f, ch in S.charts.items():
        charts[f] = {v: tuple(map(Fraction, _apply(get(f), _point(p)))) for v, p in ch.items()}
    transitions = {}
    for e, tr in S.transitions.items():
        m = _compose(get(tr.to_face), _compose(_transport(tr.A, tr.t), _inverse(get(tr.from_face))))
        transitions[e] = EdgeTransition(tr.from_face, tr.to_face, *_arrays(m))
    chern = {}
    for f, val in S.chern_cocycle.items():
        a, b, c, d = _dual(get(f)[0])
        chern[f] = (a * int(val[0]) + b * int(val[1]), c * int(val[0]) + d * int(val[1]))
    return AffineSurface(
        base=S.base,
        charts=charts,
        transitions=transitions,
        markings=S.markings,
        chern_cocycle=chern,
    )


def affine_disjoint_union(S1, S2, tags=("A", "B")):
    """Disjoint union of two affine surfaces, cells tagged by side."""
    from .complexes import disjoint_union

    X = disjoint_union(S1.base, S2.base, *tags)

    def retag(surface, tag):
        charts = {
            (tag, f): {(tag, v): p for v, p in ch.items()} for f, ch in surface.charts.items()
        }
        transitions = {
            (tag, e): EdgeTransition((tag, tr.from_face), (tag, tr.to_face), tr.A, tr.t)
            for e, tr in surface.transitions.items()
        }
        markings = {(tag, c): m for c, m in surface.markings.items()}
        chern = {(tag, f): v for f, v in surface.chern_cocycle.items()}
        return charts, transitions, markings, chern

    c1, t1, m1, ch1 = retag(S1, tags[0])
    c2, t2, m2, ch2 = retag(S2, tags[1])
    c1.update(c2)
    t1.update(t2)
    m1.update(m2)
    ch1.update(ch2)
    return AffineSurface(base=X, charts=c1, transitions=t1, markings=m1, chern_cocycle=ch1)


def gl2_orbit_matrices():
    """Action of the mapping-class generators on H^2(T^2, R-sheaf) = Z^2.

    An affine automorphism with linear part A acts on covector coefficients
    by the inverse transpose and on the fundamental class by det A, so the
    induced matrix is det(A) * (A^T)^{-1}.
    """
    S = intmat([[0, -1], [1, 0]])
    T = intmat([[1, 1], [0, 1]])
    out = []
    for A in (S, T):
        d = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        out.append(d * inv2(A).T)
    return out
