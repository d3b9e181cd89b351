"""Named builders for the worked base-space examples, with golden data.

Every entry bundles a payload (affine surface, complex + sheaf, polytope, or
gluing specification) with the invariants it is expected to reproduce, each
tagged by provenance, so the whole catalog can be re-verified mechanically.
verify computes each invariant through its public entry point, with no
cache of its own: an affine entry's invariants share R through the surface
that keeps it, and a gluing entry's share one obstruction, computed first.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .affine import (
    AffineSurface,
    EdgeTransition,
    SingularityMark,
    build_R_sheaf,
)
from .complexes import (
    CellComplex,
    Seg,
    complex_from_polygons,
    edge_between,
    identify_cells,
    product,
    quotient_by_free_involution,
)
from .errors import TorusbaseError
from .exact import eye, fracvec, intmat, unimodular_inverse, zeros
from .sheaves import (
    CellularSheaf,
    Stalk,
    _descend,
    cohomology,
    constant_sheaf,
    pullback_sum,
    validate_sheaf,
)


class CatalogError(TorusbaseError):
    pass


LITERATURE, DERIVED, TRIVIAL = "literature", "derived", "trivial"


@dataclass
class Expectation:
    value: object
    provenance: str


@dataclass
class CatalogEntry:
    name: str
    kind: str  # affine | complex | sheaf | polytope | gluing
    payload: object
    expected: dict  # invariant name -> Expectation
    extras: dict = field(default_factory=dict)
    notes: str = ""


# ---------------------------------------------------------------------------
# Flat torus


def grid_torus_complex(m=3, n=3):
    polys = {}
    for i in range(m):
        for j in range(n):
            polys[("f", i, j)] = [
                ("v", i, j),
                ("v", (i + 1) % m, j),
                ("v", (i + 1) % m, (j + 1) % n),
                ("v", i, (j + 1) % n),
            ]
    return complex_from_polygons(polys)


def flat_torus_surface(m_chern=0, size=3):
    """Unit-square torus from a size x size grid; Chern coordinate m.

    The charts are the literal grid squares in [0, 1]^2, so the wrap-around
    seams carry unit translations; every linear part is the identity.
    """
    n = size
    X = grid_torus_complex(n, n)
    charts = {}
    transitions = {}
    s = Fraction(1, n)
    for i in range(n):
        for j in range(n):
            f = ("f", i, j)
            charts[f] = {
                ("v", i, j): (i * s, j * s),
                ("v", (i + 1) % n, j): ((i + 1) * s, j * s),
                ("v", (i + 1) % n, (j + 1) % n): ((i + 1) * s, (j + 1) * s),
                ("v", i, (j + 1) % n): (i * s, (j + 1) * s),
            }
    I = eye(2)
    for i in range(n):
        for j in range(n):
            # vertical edge between f(i-1, j) and f(i, j)
            e = edge_between(("v", i, j), ("v", i, (j + 1) % n))
            t = fracvec([-1, 0]) if i == 0 else fracvec([0, 0])
            transitions[e] = EdgeTransition(("f", (i - 1) % n, j), ("f", i, j), I, t)
            # horizontal edge between f(i, j-1) and f(i, j)
            e = edge_between(("v", i, j), ("v", (i + 1) % n, j))
            t = fracvec([0, -1]) if j == 0 else fracvec([0, 0])
            transitions[e] = EdgeTransition(("f", i, (j - 1) % n), ("f", i, j), I, t)
    chern = {}
    if m_chern:
        chern[("f", 0, 0)] = (int(m_chern), 0)
    return AffineSurface(base=X, charts=charts, transitions=transitions, chern_cocycle=chern)


# ---------------------------------------------------------------------------
# Klein bottle


def klein_affine_surface(m=4, n=2, width=1):
    """Affine Klein bottle on [0, width] x [0, 1] with the flip seam on top.

    The vertical seam is a translation by width; the horizontal seam glues
    the top row to the bottom row through (x, y) -> (width - x, y - 1).
    """

    def v(i, j):
        if j == n:
            return ("v", (-i) % m, 0)
        return ("v", i % m, j)

    def hedge(i, j):
        # from v(i, j) to v(i+1, j), in the bottom row when j == n
        if j == n:
            return ("h", (-i - 1) % m, 0)
        return ("h", i % m, j)

    def hseg(i, j):
        if j == n:
            return Seg(hedge(i, j), v(i + 1, j), v(i, j))
        return Seg(hedge(i, j), v(i, j), v(i + 1, j))

    def vseg(i, j):
        return Seg(("w", i % m, j), v(i, j), v(i, j + 1))

    polys = {}
    for i in range(m):
        for j in range(n):
            polys[("f", i, j)] = [
                (v(i, j), hseg(i, j)),
                (v(i + 1, j), vseg(i + 1, j)),
                (v(i + 1, j + 1), hseg(i, j + 1)),
                (v(i, j + 1), vseg(i, j)),
            ]
    X = complex_from_polygons(polys)
    sx = Fraction(width, m)
    sy = Fraction(1, n)
    charts = {}
    for i in range(m):
        for j in range(n):
            charts[("f", i, j)] = {
                v(i, j): (i * sx, j * sy),
                v(i + 1, j): ((i + 1) * sx, j * sy),
                v(i + 1, j + 1): ((i + 1) * sx, (j + 1) * sy),
                v(i, j + 1): (i * sx, (j + 1) * sy),
            }
    I = eye(2)
    F = intmat([[-1, 0], [0, 1]])
    transitions = {}
    for i in range(m):
        for j in range(n):
            # vertical edge on the left side of f(i, j)
            t = fracvec([-width, 0]) if i == 0 else fracvec([0, 0])
            transitions[("w", i, j)] = EdgeTransition(("f", (i - 1) % m, j), ("f", i, j), I, t)
            # horizontal edge under f(i, j)
            if j == 0:
                src = ("f", (-i - 1) % m, n - 1)
                transitions[("h", i, 0)] = EdgeTransition(src, ("f", i, j), F, fracvec([width, -1]))
            else:
                transitions[("h", i, j)] = EdgeTransition(
                    ("f", i, j - 1), ("f", i, j), I, fracvec([0, 0])
                )
    return AffineSurface(base=X, charts=charts, transitions=transitions)


# ---------------------------------------------------------------------------
# Delzant triangle


def cp2_triangle_surface():
    X = complex_from_polygons({"f": ["A", "B", "C"]})
    charts = {
        "f": {"A": (Fraction(0), Fraction(0)), "B": (Fraction(1), Fraction(0)), "C": (Fraction(0), Fraction(1))}
    }
    markings = {}
    for e in X.cells_of_dim(1):
        markings[e] = SingularityMark("elliptic_edge")
    for v in X.cells_of_dim(0):
        markings[v] = SingularityMark("elliptic_vertex")
    return AffineSurface(base=X, charts=charts, transitions={}, markings=markings)


def cp2_polytope():
    from .polytopes import LatticePolytope

    return LatticePolytope(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])


# ---------------------------------------------------------------------------
# Focus-focus disk


def ff_disk_surface(k=1):
    """Disk with one interior focus-focus point of multiplicity k."""
    if k < 1:
        raise CatalogError("focus-focus multiplicity must be positive")
    polys = {}
    pos = {("b", 0): (1, 0), ("b", 1): (0, 1), ("b", 2): (-1, 0), ("b", 3): (0, -1)}
    for i in range(4):
        polys[("t", i)] = ["c", ("b", i), ("b", (i + 1) % 4)]
    X = complex_from_polygons(polys)
    charts = {}
    for i in range(4):
        f = ("t", i)
        charts[f] = {
            "c": (Fraction(0), Fraction(0)),
            ("b", i): tuple(Fraction(x) for x in pos[("b", i)]),
            ("b", (i + 1) % 4): tuple(Fraction(x) for x in pos[("b", (i + 1) % 4)]),
        }
    I = eye(2)
    A = intmat([[1, k], [0, 1]])
    transitions = {}
    for i in (1, 2, 3):
        e = edge_between("c", ("b", i))
        transitions[e] = EdgeTransition(("t", i - 1), ("t", i), I, fracvec([0, 0]))
    e0 = edge_between("c", ("b", 0))
    transitions[e0] = EdgeTransition(("t", 3), ("t", 0), A, fracvec([0, 0]))
    markings = {"c": SingularityMark("focus_focus", k)}
    return AffineSurface(base=X, charts=charts, transitions=transitions, markings=markings)


# ---------------------------------------------------------------------------
# The cut triangle and the 24-point sphere

# Chart positions inside the developed size-3 Delzant triangle; the boundary
# thirds are cut out and reglued, leaving one focus-focus point per side.
_C0, _C1, _C2 = (0, 0), (3, 0), (0, 3)
_B1, _B2 = (1, 0), (2, 0)
_L1, _L2 = (0, 1), (0, 2)
_H1, _H2 = (2, 1), (1, 2)
_PB = (Fraction(1, 2), Fraction(1))
_PL = (Fraction(1), Fraction(7, 4))
_PH = (Fraction(3, 2), Fraction(1, 2))

_GB = (intmat([[1, -1], [0, 1]]), fracvec([1, 0]))  # [B1,Pb] side -> [B2,Pb] side
_GL = (intmat([[1, 0], [-1, 1]]), fracvec([0, 1]))  # [L1,Pl] side -> [L2,Pl] side
_GH = (intmat([[0, -1], [1, 2]]), fracvec([2, -2]))  # [H1,Ph] side -> [H2,Ph] side

# inter-copy gluing maps solved from the vertex wheel equations
_TAU_N1 = (intmat([[0, 1], [-1, 0]]), fracvec([0, 0]))
_TAU_N2 = (intmat([[2, 1], [-1, 0]]), fracvec([0, 0]))
_TAU_E1 = (intmat([[-1, 0], [0, -1]]), fracvec([3, 3]))
_TAU_E2 = (intmat([[-3, -2], [2, 1]]), fracvec([9, -3]))


def _cut_triangle_cells(tag):
    """Polygons, charts, and seam data of one cut triangle copy."""

    def V(name):
        return (tag, name)

    def E(name):
        return (tag, "e", name)

    def F(name):
        return (tag, "T", name)

    seg = lambda name, tail, head: Seg(E(name), V(tail), V(head))
    # fan around Ph over the 12-gon boundary
    polys = {
        F(0): [(V("Ph"), seg("seam_h", "Mh", "Ph")), (V("Mh"), seg("bnd_h2", "Mh", "C2")), (V("C2"), seg("diag_C2", "Ph", "C2"))],
        F(1): [(V("Ph"), seg("diag_C2", "Ph", "C2")), (V("C2"), seg("bnd_l2", "Ml", "C2")), (V("Ml"), seg("diag_L2", "Ph", "Ml"))],
        F(2): [(V("Ph"), seg("diag_L2", "Ph", "Ml")), (V("Ml"), seg("seam_l", "Ml", "Pl")), (V("Pl"), seg("diag_Pl", "Ph", "Pl"))],
        F(3): [(V("Ph"), seg("diag_Pl", "Ph", "Pl")), (V("Pl"), seg("seam_l", "Ml", "Pl")), (V("Ml"), seg("diag_L1", "Ph", "Ml"))],
        F(4): [(V("Ph"), seg("diag_L1", "Ph", "Ml")), (V("Ml"), seg("bnd_l1", "C0", "Ml")), (V("C0"), seg("diag_C0", "Ph", "C0"))],
        F(5): [(V("Ph"), seg("diag_C0", "Ph", "C0")), (V("C0"), seg("bnd_b1", "C0", "Mb")), (V("Mb"), seg("diag_B1", "Ph", "Mb"))],
        F(6): [(V("Ph"), seg("diag_B1", "Ph", "Mb")), (V("Mb"), seg("seam_b", "Mb", "Pb")), (V("Pb"), seg("diag_Pb", "Ph", "Pb"))],
        F(7): [(V("Ph"), seg("diag_Pb", "Ph", "Pb")), (V("Pb"), seg("seam_b", "Mb", "Pb")), (V("Mb"), seg("diag_B2", "Ph", "Mb"))],
        F(8): [(V("Ph"), seg("diag_B2", "Ph", "Mb")), (V("Mb"), seg("bnd_b2", "Mb", "C1")), (V("C1"), seg("diag_C1", "Ph", "C1"))],
        F(9): [(V("Ph"), seg("diag_C1", "Ph", "C1")), (V("C1"), seg("bnd_h1", "C1", "Mh")), (V("Mh"), seg("seam_h", "Mh", "Ph"))],
    }
    frac = lambda p: (Fraction(p[0]), Fraction(p[1]))
    ph, pb, pl = frac(_PH), frac(_PB), frac(_PL)
    charts = {
        F(0): {V("Ph"): ph, V("Mh"): frac(_H2), V("C2"): frac(_C2)},
        F(1): {V("Ph"): ph, V("C2"): frac(_C2), V("Ml"): frac(_L2)},
        F(2): {V("Ph"): ph, V("Ml"): frac(_L2), V("Pl"): pl},
        F(3): {V("Ph"): ph, V("Pl"): pl, V("Ml"): frac(_L1)},
        F(4): {V("Ph"): ph, V("Ml"): frac(_L1), V("C0"): frac(_C0)},
        F(5): {V("Ph"): ph, V("C0"): frac(_C0), V("Mb"): frac(_B1)},
        F(6): {V("Ph"): ph, V("Mb"): frac(_B1), V("Pb"): pb},
        F(7): {V("Ph"): ph, V("Pb"): pb, V("Mb"): frac(_B2)},
        F(8): {V("Ph"): ph, V("Mb"): frac(_B2), V("C1"): frac(_C1)},
        F(9): {V("Ph"): ph, V("C1"): frac(_C1), V("Mh"): frac(_H1)},
    }
    transitions = {
        E("seam_b"): EdgeTransition(F(6), F(7), _GB[0], _GB[1]),
        E("seam_l"): EdgeTransition(F(3), F(2), _GL[0], _GL[1]),
        E("seam_h"): EdgeTransition(F(9), F(0), _GH[0], _GH[1]),
    }
    I = eye(2)
    z = fracvec([0, 0])
    diag_pairs = {
        "diag_C2": (F(0), F(1)),
        "diag_L2": (F(1), F(2)),
        "diag_Pl": (F(2), F(3)),
        "diag_L1": (F(3), F(4)),
        "diag_C0": (F(4), F(5)),
        "diag_B1": (F(5), F(6)),
        "diag_Pb": (F(6), F(7)),
        "diag_B2": (F(7), F(8)),
        "diag_C1": (F(8), F(9)),
    }
    for name, (fa, fb) in diag_pairs.items():
        transitions[E(name)] = EdgeTransition(fa, fb, I, z)
    markings = {
        V("Pb"): SingularityMark("focus_focus", 1),
        V("Pl"): SingularityMark("focus_focus", 1),
        V("Ph"): SingularityMark("focus_focus", 1),
    }
    return polys, charts, transitions, markings


def cut_triangle_surface(tag="c"):
    """A single cut triangle: disk with 3 interior focus-focus points."""
    polys, charts, transitions, markings = _cut_triangle_cells(tag)
    X = complex_from_polygons(polys)
    return AffineSurface(base=X, charts=charts, transitions=transitions, markings=markings)


def sphere_24ff_surface():
    return sphere_24ff_with_involution()[0]


def sphere_24ff_with_involution():
    """Eight cut triangles glued into a sphere with 24 focus-focus points.

    Four copies sit around the north pole and four around the south pole;
    the gluing maps were solved so that every glued vertex is regular.
    Returns (surface, antipodal cell involution).
    """
    copies = [("U", i) for i in range(4)] + [("D", i) for i in range(4)]
    polys = {}
    charts = {}
    transitions = {}
    markings = {}
    for c in copies:
        p, ch, tr, mk = _cut_triangle_cells(c)
        polys.update(p)
        charts.update(ch)
        transitions.update(tr)
        markings.update(mk)
    X = complex_from_polygons(polys)

    pairs = []
    inter = []  # (edge kept, edge replaced, from_face, to_face, A, t)

    def V(c, name):
        return (c, name)

    def E(c, name):
        return (c, "e", name)

    def F(c, name):
        return (c, "T", name)

    for i in range(4):
        u, un = ("U", i), ("U", (i + 1) % 4)
        # north: left side of U_i onto bottom side of U_{i+1}
        pairs += [
            (V(u, "C0"), V(un, "C0")),
            (V(u, "C2"), V(un, "C1")),
            (V(u, "Ml"), V(un, "Mb")),
            (E(u, "bnd_l1"), E(un, "bnd_b1")),
            (E(u, "bnd_l2"), E(un, "bnd_b2")),
        ]
        inter.append((E(u, "bnd_l1"), F(u, 4), F(un, 5), _TAU_N1))
        inter.append((E(u, "bnd_l2"), F(u, 1), F(un, 8), _TAU_N2))
        d, dp = ("D", i), ("D", (i - 1) % 4)
        # south: left side of D_i onto bottom side of D_{i-1}
        pairs += [
            (V(d, "C0"), V(dp, "C0")),
            (V(d, "C2"), V(dp, "C1")),
            (V(d, "Ml"), V(dp, "Mb")),
            (E(d, "bnd_l1"), E(dp, "bnd_b1")),
            (E(d, "bnd_l2"), E(dp, "bnd_b2")),
        ]
        inter.append((E(d, "bnd_l1"), F(d, 4), F(dp, 5), _TAU_N1))
        inter.append((E(d, "bnd_l2"), F(d, 1), F(dp, 8), _TAU_N2))
        # equator: hyp side of U_i onto hyp side of D_i, reversing ends
        dd = ("D", i)
        pairs += [
            (V(u, "C1"), V(dd, "C2")),
            (V(u, "C2"), V(dd, "C1")),
            (V(u, "Mh"), V(dd, "Mh")),
            (E(u, "bnd_h1"), E(dd, "bnd_h2")),
            (E(u, "bnd_h2"), E(dd, "bnd_h1")),
        ]
        inter.append((E(u, "bnd_h1"), F(u, 9), F(dd, 0), _TAU_E1))
        inter.append((E(u, "bnd_h2"), F(u, 0), F(dd, 9), _TAU_E2))

    Z, relabel = identify_cells(X, pairs)
    new_charts = {}
    for f, ch in charts.items():
        new_charts[f] = {relabel[v]: pos for v, pos in ch.items()}
    new_transitions = {}
    for e, tr in transitions.items():
        new_transitions[relabel[e]] = tr
    for e, fa, fb, (A, t) in inter:
        new_transitions[relabel[e]] = EdgeTransition(fa, fb, A, t)
    S = AffineSurface(
        base=Z, charts=new_charts, transitions=new_transitions, markings=markings
    )
    involution = _sphere_antipodal_map(Z, relabel)
    return S, involution


# the antipodal map sends copy U_i to D_{i+2} through the chart mirror that
# swaps the bottom and left sides (C1 <-> C2, Mb <-> Ml, Pb <-> Pl)
_ANTI_VERTEX = {
    "C0": "C0", "C1": "C2", "C2": "C1",
    "Mb": "Ml", "Ml": "Mb", "Mh": "Mh",
    "Pb": "Pl", "Pl": "Pb", "Ph": "Ph",
}
_ANTI_EDGE = {
    "bnd_b1": "bnd_l1", "bnd_b2": "bnd_l2",
    "bnd_l1": "bnd_b1", "bnd_l2": "bnd_b2",
    "bnd_h1": "bnd_h2", "bnd_h2": "bnd_h1",
    "seam_b": "seam_l", "seam_l": "seam_b", "seam_h": "seam_h",
    "diag_C0": "diag_C0", "diag_C1": "diag_C2", "diag_C2": "diag_C1",
    "diag_B1": "diag_L1", "diag_B2": "diag_L2",
    "diag_L1": "diag_B1", "diag_L2": "diag_B2",
    "diag_Pb": "diag_Pl", "diag_Pl": "diag_Pb",
}
_ANTI_FACE = {0: 9, 9: 0, 1: 8, 8: 1, 2: 7, 7: 2, 3: 6, 6: 3, 4: 5, 5: 4}


def _sphere_antipodal_map(Z, relabel):
    def anti_raw(cell):
        (side, i), rest = cell[0], cell[1:]
        ac = ("D" if side == "U" else "U", (i + 2) % 4)
        if rest[0] == "e":
            return (ac, "e", _ANTI_EDGE[rest[1]])
        if rest[0] == "T":
            return (ac, "T", _ANTI_FACE[rest[1]])
        return (ac, _ANTI_VERTEX[rest[0]])

    return {cell: relabel[anti_raw(cell)] for cell in Z.cells}


# ---------------------------------------------------------------------------
# One-degree-of-freedom bases (Reeb graphs) and their circle-action sheaves


def torus_morse_graph():
    """Reeb graph of a Morse function on the 2-torus, with its sheaf.

    One minimum, one maximum, two saddles; between the saddles the level sets
    have two circles, giving parallel edges.  Stalks: 1 at the extrema and on
    every edge, 0 at the saddles.
    """
    cells = {
        "min": 0, "max": 0, "s1": 0, "s2": 0,
        "e_bot": 1, "e_mid1": 1, "e_mid2": 1, "e_top": 1,
    }
    incidence = {
        ("e_bot", "min"): -1, ("e_bot", "s1"): 1,
        ("e_mid1", "s1"): -1, ("e_mid1", "s2"): 1,
        ("e_mid2", "s1"): -1, ("e_mid2", "s2"): 1,
        ("e_top", "s2"): -1, ("e_top", "max"): 1,
    }
    X = CellComplex(cells=cells, incidence=incidence)
    one = intmat([[1]])
    stalks = {
        "min": Stalk(1), "max": Stalk(1), "s1": Stalk(0), "s2": Stalk(0),
        "e_bot": Stalk(1), "e_mid1": Stalk(1), "e_mid2": Stalk(1), "e_top": Stalk(1),
    }
    restrictions = {("min", "e_bot"): one, ("max", "e_top"): one}
    F = CellularSheaf(X, "Z", stalks, restrictions)
    return X, F


def sphere_morse_graph_half(sign):
    """Half of the symmetric Morse tree on the 2-sphere, cut at level zero.

    sign +1 is the part above the cut (two maxima joined through a saddle to
    the cut vertex h); sign -1 the mirror half below.
    """
    m, a, u = ("m", "a", "u") if sign > 0 else ("n", "b", "l")
    m1, m2, u1, u2 = m + "1", m + "2", u + "1", u + "2"
    cells = {m1: 0, m2: 0, a: 0, "h": 0, u1: 1, u2: 1, "mid": 1}
    incidence = {
        (u1, a): -1, (u1, m1): 1,
        (u2, a): -1, (u2, m2): 1,
        ("mid", "h"): -1, ("mid", a): 1,
    }
    stalks = {c: Stalk(0 if c == a else 1) for c in cells}
    one = intmat([[1]])
    restrictions = {(m1, u1): one, (m2, u2): one, ("h", "mid"): one}
    X = CellComplex(cells=cells, incidence=incidence)
    return X, CellularSheaf(X, "Z", stalks, restrictions)


def twisted_product_base():
    """Product of two torus Reeb graphs with the summed pullback sheaf."""
    X1, F1 = torus_morse_graph()
    X2, F2 = torus_morse_graph()
    Z, factors = product(X1, X2)
    F = pullback_sum(F1, F2, Z, factors)
    return Z, F


# ---------------------------------------------------------------------------
# The non-realizable three-dimensional base


def _vertex_iso(R_S, R_T, phi, v):
    """The stalk iso at the vertex v from R_S at v to R_T at phi(v), for
    monodromy sheaves whose faces and edges phi carries by the identity: the
    square at v's first coface e forces R_T(phi(v) <= phi(e))^-1 R_S(v <= e)."""
    e = R_S.base.cofaces_of(v)[0][0]
    return unimodular_inverse(R_T.restriction(phi(v), phi(e))).dot(R_S.restriction(v, e))


def _klein_projection(cell):
    """Name projection of the double-cover Klein cells onto the small Klein."""
    if cell[0] in ("v", "h", "w", "f"):
        return (cell[0], cell[1] % 3, cell[2])
    raise CatalogError("unexpected Klein cell %r" % (cell,))


def _klein_shift(cell, m=6, by=3):
    kind = cell[0]
    if kind in ("v", "h", "w", "f"):
        return (kind, (cell[1] + by) % m, cell[2])
    raise CatalogError("unexpected Klein cell %r" % (cell,))


def fake_base_space():
    """The three-dimensional base that admits no compatible system.

    Pieces: the product of a Klein bottle with the lower Morse half, and the
    quotient of (double-cover Klein) x (upper half) by the simultaneous free
    involution.  They are identified over a Klein bottle at the cut level.
    Returns a dict with the pieces, the overlap data, and the two canonical
    restricted classes (whose values are inputs taken from the construction).
    """
    from .sheaves import class_from_components, restrict_sheaf, subcomplex

    K2 = klein_affine_surface(3, 2, width=1)
    RK2 = build_R_sheaf(K2)
    Kb = klein_affine_surface(6, 2, width=2)
    RKb = build_R_sheaf(Kb)

    Gm, FGm = sphere_morse_graph_half(-1)
    Gp, FGp = sphere_morse_graph_half(+1)

    # piece O- = K2 x G-
    Xm, fm = product(K2.base, Gm)
    Fm = pullback_sum(RK2, FGm, Xm, fm)

    # piece O+ = (Kb x G+) / involution
    Xp0, fp = product(Kb.base, Gp)
    Fp0 = pullback_sum(RKb, FGp, Xp0, fp)
    swap_g = {"m1": "m2", "m2": "m1", "u1": "u2", "u2": "u1", "a": "a", "h": "h", "mid": "mid"}
    mapping = {}
    for cell in Xp0.cells:
        _, kc, gc = cell
        mapping[cell] = ("x", _klein_shift(kc), swap_g.get(gc, gc))
    Xp, orbit = quotient_by_free_involution(Xp0, mapping)
    up = {}  # stalk of the orbit's first member -> stalk at the other
    for cell in Xp0.cells:
        if orbit[cell] == ("q", cell):
            continue
        _, kc, gc = orbit[cell][1]
        JK = _vertex_iso(RKb, RKb, _klein_shift, kc) if kc[0] == "v" else eye(2)
        rg = FGp.rank(gc)
        J = zeros(2 + rg, 2 + rg)
        J[:2, :2] = JK
        for i in range(rg):
            J[2 + i, 2 + i] = 1
        up[cell] = J
    Fp = _descend(Fp0, Xp, orbit, up)
    report = validate_sheaf(Fp)
    if not report.valid:
        raise CatalogError("quotient sheaf invalid: %s" % report)

    # overlaps: K2 x {h} inside O-, and (Kb x {h})/sigma inside O+
    sub_m_cells = {("x", kc, "h") for kc in K2.base.cells}
    sub_p_cells = {orbit[("x", kc, "h")] for kc in Kb.base.cells}
    sub_m = subcomplex(Xm, sub_m_cells)
    sub_p = subcomplex(Xp, sub_p_cells)

    # identification from the O- overlap to the O+ overlap, with stalk isos
    cell_map = {}
    over_isos = {}
    for q in sub_p_cells:
        _, kc, _ = q[1]
        src = ("x", _klein_projection(kc), "h")
        cell_map[src] = q
        # the O+ stalk at q is R of the double cover at kc
        JK = eye(2)
        if kc[0] == "v":
            JK = unimodular_inverse(_vertex_iso(RKb, RK2, _klein_projection, kc))
        J = zeros(3, 3)
        J[:2, :2] = JK
        J[2, 2] = 1
        over_isos[src] = J

    # the canonical restricted classes: zero from the untwisted piece, the
    # pullback of the generator of H^2(Klein, Z) in the circle-direction
    # summand from the twisted piece
    over_sheaf = restrict_sheaf(Fm, sub_m)
    gen = cohomology(constant_sheaf(K2.base, 1), 2).generator_cocycles()[0]
    comp = {}
    k2faces = K2.base.cells_of_dim(2)
    off = 0
    for f in k2faces:
        comp[("x", f, "h")] = [0, 0, int(gen[off])]
        off += 1
    class_plus = class_from_components(over_sheaf, 2, comp)
    class_minus = class_from_components(over_sheaf, 2, {})
    from .surgery import GluingSpec

    spec = GluingSpec(
        complex1=Xm,
        sheaf1=Fm,
        complex2=Xp,
        sheaf2=Fp,
        overlap1=sub_m,
        overlap2=sub_p,
        cell_map=cell_map,
        stalk_isos=over_isos,
    )
    return {
        "spec": spec,
        "piece_minus": (Xm, Fm),
        "piece_plus": (Xp, Fp),
        "overlap_sheaf": over_sheaf,
        "class_minus": class_minus,
        "class_plus": class_plus,
    }


# ---------------------------------------------------------------------------
# Entry construction and verification


def _exp(value, provenance):
    return Expectation(value=value, provenance=provenance)


def _int_parameter(name, arg):
    """The integer parameter after the colon of a catalog name, 1 without a
    colon; an empty parameter is not an integer."""
    if ":" not in name:
        return 1
    try:
        return int(arg)
    except ValueError:
        raise CatalogError("catalog parameter in %r is not an integer" % (name,)) from None


def build(name):
    """Build a named catalog entry; parameters follow a colon (ff_disk:2)."""
    base, colon, arg = name.partition(":")
    if colon and base in catalog_names() and base not in ("flat_torus", "ff_disk"):
        raise CatalogError("catalog entry %r takes no parameter" % (base,))
    if base == "flat_torus":
        m = _int_parameter(name, arg)
        S = flat_torus_surface(m)
        g = abs(m)
        h1 = "Z^4" if g == 0 else ("Z^3" if g == 1 else "Z^3 ⊕ Z/%d" % g)
        return CatalogEntry(
            name=name,
            kind="affine",
            payload=S,
            expected={
                "H2(O,R)": _exp("Z^2", LITERATURE),
                "moduli": _exp((1, 1), LITERATURE),
                "H1(M4)": _exp(h1, LITERATURE),
                "chern": _exp((m, 0), TRIVIAL),
                "area": _exp(Fraction(1), TRIVIAL),
                "classify": _exp("torus", TRIVIAL),
            },
            notes="standard flat torus; a circle of symplectic structures",
        )
    if base == "kodaira_thurston":
        entry = build("flat_torus:1")
        entry.name = "kodaira_thurston"
        entry.expected["H1(M4)"] = _exp("Z^3", LITERATURE)
        entry.notes = "total space with complex and symplectic but no Kaehler structure"
        return entry
    if base == "cp2_triangle":
        S = cp2_triangle_surface()
        return CatalogEntry(
            name=name,
            kind="affine",
            payload=S,
            extras={"polytope": cp2_polytope()},
            expected={
                "delzant": _exp(True, TRIVIAL),
                "H0(O,R)": _exp("Z^2", DERIVED),
                "H1(O,R)": _exp("0", DERIVED),
                "H2(O,R)": _exp("0", LITERATURE),
                "moduli": _exp((0, 0), DERIVED),
                "area": _exp(Fraction(1, 2), TRIVIAL),
            },
            notes="no room for characteristic classes over a contractible base",
        )
    if base == "ff_disk":
        k = _int_parameter(name, arg)
        S = ff_disk_surface(k)
        return CatalogEntry(
            name=name,
            kind="affine",
            payload=S,
            expected={
                "monodromy_unipotent_k": _exp({k}, DERIVED),
                "H0(O,R)": _exp("Z", DERIVED),
                "H1(O,R)": _exp("0", DERIVED),
                "focus_focus": _exp(1, TRIVIAL),
            },
            notes="one surviving circle action around the nodal point",
        )
    if base == "klein_affine":
        S = klein_affine_surface()
        return CatalogEntry(
            name=name,
            kind="affine",
            payload=S,
            expected={
                "H2(O,Z)": _exp("Z/2", LITERATURE),
                "pi1_abelianization": _exp("Z ⊕ Z/2", LITERATURE),
                "classify": _exp("klein_bottle", TRIVIAL),
            },
        )
    if base == "sphere_24ff":
        S, inv = sphere_24ff_with_involution()
        return CatalogEntry(
            name=name,
            kind="affine",
            payload=S,
            extras={"involution": inv},
            expected={
                "classify": _exp("sphere", LITERATURE),
                "focus_focus": _exp(24, LITERATURE),
                "euler": _exp(2, DERIVED),
                "monodromy_unipotent_k": _exp({1}, DERIVED),
                "relator_trivial": _exp(True, DERIVED),
            },
            notes="24 singular fibers of type I+; the total space is a K3 surface",
        )
    if base == "rp2_12ff":
        S, inv = sphere_24ff_with_involution()
        Q, orbit = quotient_by_free_involution(S.base, inv)
        ff = {orbit[v] for v in S.focus_focus_vertices()}
        return CatalogEntry(
            name=name,
            kind="complex",
            payload=Q,
            extras={"focus_focus_orbits": ff},
            expected={
                "classify": _exp("projective_plane", LITERATURE),
                "focus_focus": _exp(12, LITERATURE),
                "H2(O,Z)": _exp("Z/2", DERIVED),
                "euler": _exp(1, DERIVED),
            },
            notes="free quotient of the 24-point sphere; an Enriques-type base",
        )
    if base == "torus_morse_graph":
        X, F = torus_morse_graph()
        return CatalogEntry(
            name=name,
            kind="sheaf",
            payload=(X, F),
            expected={
                "vertex_stalks": _exp((1, 1, 0, 0), LITERATURE),
                "edge_stalks": _exp((1, 1, 1, 1), LITERATURE),
                "H1(sheaf)": _exp("Z^2", DERIVED),
                "H0(sheaf)": _exp("0", DERIVED),
            },
        )
    if base == "twisted_product_base":
        Z, F = twisted_product_base()
        return CatalogEntry(
            name=name,
            kind="sheaf",
            payload=(Z, F),
            expected={
                "H2(sheaf)": _exp("Z^4", LITERATURE),
            },
            notes="nonzero classes correspond to twisted products",
        )
    if base == "fake_base_space":
        fb = fake_base_space()
        return CatalogEntry(
            name=name,
            kind="gluing",
            payload=fb,
            expected={
                "obstruction_group": _exp("Z/2", LITERATURE),
                "obstruction_nonzero": _exp(True, LITERATURE),
                "verdict": _exp("non-realizable", LITERATURE),
            },
            notes=(
                "the restricted classes are construction inputs: the twisted "
                "piece restricts to the nontrivial circle-direction class"
            ),
        )
    raise CatalogError(
        "unknown catalog entry %r; known: %s" % (name, ", ".join(catalog_names()))
    )


def catalog_names():
    return [
        "cp2_triangle",
        "fake_base_space",
        "ff_disk",
        "flat_torus",
        "klein_affine",
        "kodaira_thurston",
        "rp2_12ff",
        "sphere_24ff",
        "torus_morse_graph",
        "twisted_product_base",
    ]


@dataclass
class VerifyLine:
    invariant: str
    provenance: str
    expected: object
    got: object
    ok: bool

    def __str__(self):
        mark = "pass" if self.ok else "FAIL"
        return "%s  %-24s [%s] expected %s, got %s" % (
            mark,
            self.invariant,
            self.provenance,
            self.expected,
            self.got,
        )


@dataclass
class VerifyReport:
    entry: str
    lines: list

    @property
    def ok(self):
        return all(l.ok for l in self.lines)

    def __str__(self):
        head = "catalog %s: %s" % (self.entry, "all pass" if self.ok else "FAILURES")
        return "\n".join([head] + ["  " + str(l) for l in self.lines])


def _compute_invariant(entry, inv, obstruction):
    """The value of the invariant inv of entry; obstruction is the gluing
    obstruction report of a gluing entry."""
    from .complexes import classify_surface, pi1_presentation
    from .surgery import chern_class_coordinates
    from .affine import (
        affine_area,
        boundary_word_holonomy,
        affine_eq,
        affine_identity,
        lagrangian_moduli,
        monodromy_rep,
        torus_bundle_h1,
        unipotent_power,
    )

    if entry.kind in ("affine", "complex"):
        if entry.kind == "affine":
            X, ff = entry.payload.base, entry.payload.focus_focus_count()
        else:
            X, ff = entry.payload, len(entry.extras.get("focus_focus_orbits", ()))
        if inv == "H2(O,Z)":
            return str(cohomology(constant_sheaf(X, 1), 2).group)
        if inv == "classify":
            return classify_surface(X, ff).kind
        if inv == "euler":
            return X.euler_characteristic()
        if inv == "focus_focus":
            return ff
    if entry.kind == "affine":
        S = entry.payload
        if inv.startswith("H") and inv.endswith("(O,R)"):
            return str(cohomology(build_R_sheaf(S), int(inv[1])).group)
        if inv == "moduli":
            return lagrangian_moduli(S)
        if inv == "H1(M4)":
            return str(torus_bundle_h1(chern_class_coordinates(S)))
        if inv == "chern":
            return tuple(int(c) for c in chern_class_coordinates(S))
        if inv == "area":
            return affine_area(S)
        if inv == "monodromy_unipotent_k":
            rep = monodromy_rep(S)
            out = set()
            for loop, M in zip(rep.loops, rep.images):
                if loop.kind == "vertex" and S.mark(loop.about).kind == "focus_focus":
                    out.add(unipotent_power(M))
            return out
        if inv == "relator_trivial":
            return affine_eq(boundary_word_holonomy(S), affine_identity())
        if inv == "pi1_abelianization":
            return str(pi1_presentation(X, X.cells_of_dim(0)[0]).abelianization())
        if inv == "delzant":
            from .polytopes import delzant_check

            return delzant_check(entry.extras["polytope"]).ok
    if entry.kind == "sheaf":
        X, F = entry.payload
        if inv.startswith("H") and inv.endswith("(sheaf)"):
            k = int(inv[1])
            return str(cohomology(F, k).group)
        if inv == "vertex_stalks":
            return tuple(F.rank(c) for c in X.cells_of_dim(0))
        if inv == "edge_stalks":
            return tuple(F.rank(c) for c in X.cells_of_dim(1))
    if entry.kind == "gluing":
        if inv == "obstruction_group":
            return str(obstruction.group)
        if inv == "obstruction_nonzero":
            return not obstruction.vanishes
        if inv == "verdict":
            return "non-realizable" if not obstruction.vanishes else "gluable"
    raise CatalogError("no computation for invariant %r on %s" % (inv, entry.name))


def verify(entry):
    """Recompute every expected invariant and diff against the expectation.
    The invariants of an affine entry share the monodromy sheaf R its surface
    keeps, and through R each H^k(R); those of a gluing entry share its
    gluing obstruction, computed once."""
    from .surgery import gluing_obstruction

    obstruction = None
    if entry.kind == "gluing":
        fb = entry.payload
        obstruction = gluing_obstruction(fb["spec"], fb["class_minus"], fb["class_plus"])
    lines = []
    for inv in sorted(entry.expected):
        exp = entry.expected[inv]
        got = _compute_invariant(entry, inv, obstruction)
        lines.append(
            VerifyLine(
                invariant=inv,
                provenance=exp.provenance,
                expected=exp.value,
                got=got,
                ok=(got == exp.value),
            )
        )
    return VerifyReport(entry=entry.name, lines=lines)
