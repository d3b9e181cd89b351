"""Rational lattice polytopes as bases of toric systems.

Polytopes are stored as irredundant halfspaces <a, x> <= b with primitive
integer normals a and rational b.  Vertex enumeration is exact, by solving
all n-subsets of facet equalities; dimension runs from 1 to 3, which keeps
the brute force cheap and covers every worked example.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import TorusbaseError
from .exact import _echelon, _inverse, _kernel_rows


class PolytopeError(TorusbaseError):
    pass


def primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(int(x)))
    if g == 0:
        raise PolytopeError("zero normal vector")
    return tuple(int(x) // g for x in vec)


@dataclass
class LatticePolytope:
    dimension: int
    halfspaces: list  # [(normal tuple of ints, bound Fraction), ...]

    def __post_init__(self):
        if not 1 <= self.dimension <= 3:
            raise PolytopeError("dimension must be 1, 2 or 3")
        fixed = []
        for a, b in self.halfspaces:
            if len(a) != self.dimension:
                raise PolytopeError("normal has wrong length")
            fixed.append((primitive(a), Fraction(b)))
        self.halfspaces = fixed

    def contains(self, x):
        return all(
            sum(Fraction(ai) * Fraction(xi) for ai, xi in zip(a, x)) <= b
            for a, b in self.halfspaces
        )


@dataclass
class Vertex:
    point: tuple  # Fractions
    facets: tuple  # indices of active halfspaces


def _sparse(rows):
    """The rows of ints or Fractions as {column: nonzero entry} dicts."""
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def _solve_square(rows, rhs):
    """The solution of the square system rows x = rhs, or None when it is
    singular: the reduced row echelon form of [rows | rhs] is then [I | x]."""
    n = len(rows)
    pivot_rows, _ = _echelon(_sparse((*r, b) for r, b in zip(rows, rhs)), n, "Q")
    if len(pivot_rows) != n:
        return None
    return tuple(row.get(n, Fraction(0)) for row in pivot_rows.values())


def vertices(P):
    """All vertices with their active facet sets, exactly."""
    n = P.dimension
    m = len(P.halfspaces)
    found = {}
    for subset in itertools.combinations(range(m), n):
        rows = [P.halfspaces[i][0] for i in subset]
        rhs = [P.halfspaces[i][1] for i in subset]
        pt = _solve_square(rows, rhs)
        if pt is None or not P.contains(pt):
            continue
        if pt not in found:
            active = tuple(
                i
                for i, (a, b) in enumerate(P.halfspaces)
                if sum(Fraction(ai) * x for ai, x in zip(a, pt)) == b
            )
            found[pt] = Vertex(point=pt, facets=active)
    verts = sorted(found.values(), key=lambda v: v.point)
    if not verts:
        raise PolytopeError("polytope is empty")
    if len(verts) < n + 1:
        raise PolytopeError("polytope is not full-dimensional or unbounded")
    # boundedness: full-dimensional and bounded iff the normals positively
    # span the whole space; check via the recession cone being trivial
    if _has_recession_ray(P):
        raise PolytopeError("polytope is unbounded")
    return verts


def _has_recession_ray(P):
    # a recession direction survives translation of every vertex; cheap test:
    # sample candidate rays from facet intersections and check <a, d> <= 0
    n = P.dimension
    for subset in itertools.combinations(range(len(P.halfspaces)), n - 1):
        rows = _sparse(P.halfspaces[i][0] for i in subset)
        if not rows:
            continue
        for d in _kernel_rows(_echelon(rows, n, "Q")[0], n).values():
            for sgn in (1, -1):
                ray = [sgn * d.get(i, 0) for i in range(n)]
                if any(x != 0 for x in ray) and all(
                    sum(Fraction(ai) * x for ai, x in zip(a, ray)) <= 0
                    for a, b in P.halfspaces
                ):
                    return True
    return False


def _edges(P, v):
    """The edges leaving vertex v, as (w - v, its primitive direction) for each
    vertex w whose facets shared with v cut out a line (none in dimension 1)."""
    for w in vertices(P):
        if w.point == v.point:
            continue
        shared = set(v.facets) & set(w.facets)
        rows = _sparse(P.halfspaces[i][0] for i in shared)
        if len(_echelon(rows, P.dimension, "Q")[0]) == P.dimension - 1:
            d = [wi - vi for wi, vi in zip(w.point, v.point)]
            den = lcm(*(Fraction(x).denominator for x in d))
            yield d, primitive([Fraction(x) * den for x in d])


def edge_directions(P, v):
    """Primitive directions of the polytope edges leaving vertex v."""
    seen = []
    for _, d in _edges(P, v):
        if d not in seen:
            seen.append(d)
    return seen


def _unimodular_corner(dirs, n):
    """n edge directions that span Z^n (a Z^n basis): the Hermite normal form
    of a unimodular matrix is I, so it has an inverse over Z."""
    return _inverse(_sparse(dirs), n, "Z") is not None


@dataclass
class DelzantReport:
    ok: bool
    failing_vertex: tuple = None
    failing_directions: tuple = None

    def __str__(self):
        if self.ok:
            return "pass"
        return "fail at vertex %s with edge directions %s" % (
            tuple(map(str, self.failing_vertex)),
            self.failing_directions,
        )


def delzant_check(P):
    """Each vertex must have exactly n edges forming a Z^n basis."""
    n = P.dimension
    for v in vertices(P):
        dirs = edge_directions(P, v)
        if not _unimodular_corner(dirs, n):
            return DelzantReport(ok=False, failing_vertex=v.point, failing_directions=tuple(dirs))
    return DelzantReport(ok=True)


def _edge_parameter_bound(P, v):
    """Largest cut size along each edge before reaching the far vertex."""
    # lattice length of each edge in primitive units
    bounds = [
        next(Fraction(di) / pi for di, pi in zip(d, prim) if pi != 0) for d, prim in _edges(P, v)
    ]
    return min(bounds) if bounds else None


def vertex_blowup(P, v, eps):
    """Cut a simplex corner at a Delzant vertex.

    The new facet normal is the sum of the facet normals meeting at v (the
    toric blow-up), placed at lattice parameter eps along each edge; eps must
    stay strictly below the adjacent edge lengths.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise PolytopeError("cut size must be positive")
    if isinstance(v, Vertex):
        vv = v
    else:
        vv = next((w for w in vertices(P) if w.point == tuple(Fraction(x) for x in v)), None)
        if vv is None:
            raise PolytopeError("not a vertex")
    dirs = edge_directions(P, vv)
    n = P.dimension
    if not _unimodular_corner(dirs, n):
        raise PolytopeError("vertex is not Delzant")
    if len(vv.facets) != n:
        raise PolytopeError("vertex is not simple")
    bound = _edge_parameter_bound(P, vv)
    if bound is not None and eps >= bound:
        raise PolytopeError("cut size reaches an adjacent vertex")
    normals = [P.halfspaces[i][0] for i in vv.facets]
    a = tuple(sum(nrm[i] for nrm in normals) for i in range(n))
    b = sum(Fraction(ai) * x for ai, x in zip(a, vv.point)) - eps
    new = LatticePolytope(P.dimension, P.halfspaces + [(a, b)])
    # the cut must actually remove the vertex
    if new.contains(vv.point):
        raise PolytopeError("cut does not separate the vertex")
    return new


def stratum_cut(P, facet, eps):
    """Translate one facet inward by eps (blow-up along an elliptic stratum)."""
    eps = Fraction(eps)
    if eps <= 0:
        raise PolytopeError("cut size must be positive")
    if facet < 0 or facet >= len(P.halfspaces):
        raise PolytopeError("no such facet")
    a, b = P.halfspaces[facet]
    hs = list(P.halfspaces)
    hs[facet] = (a, b - eps)
    new = LatticePolytope(P.dimension, hs)
    old_verts = {v.point for v in vertices(P)}
    new_verts = {v.point for v in vertices(new)}
    # every vertex off the moved facet must survive
    for v in vertices(P):
        if facet not in v.facets and v.point not in new_verts:
            raise PolytopeError("cut size reaches another vertex")
    if old_verts == new_verts:
        raise PolytopeError("cut did not move the facet")
    return new
