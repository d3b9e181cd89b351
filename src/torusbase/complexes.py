"""Finite regular cell complexes.

A complex is stored as cell ids with dimensions, signed incidence numbers for
covering pairs (coface, face), and optional cyclic boundary words on 2-cells.
One cell order, ``cell_key``, is fixed when a complex is built, and
``cells_of_dim``, ``faces_of`` and ``cofaces_of`` list cells in it, so no
result depends on the order of a document's lists.  Cochains follow it, the
star walk enters the first coface of its start edge, a co-tree loop crosses
from its edge's first coface, and a quotient cell is named by the first
member of its orbit.
"""

from dataclasses import dataclass, field

from .errors import TorusbaseError, ValidationReport
from .exact import AbelianGroup, PresentedGroup, intmat, zeros


class ComplexError(TorusbaseError):
    pass


class NotASurfaceError(ComplexError):
    pass


def cell_key(c):
    """The cell order: by str, ties broken by type name.  It is total on ids
    made of strings, ints and tuples: only 1 and "1", or (1,) and "(1,)", share
    a str, since str of a tuple is its repr."""
    return (str(c), type(c).__name__)


def edge_between(v, w):
    """The edge id complex_from_polygons gives the step from v to w."""
    tail, head = (v, w) if cell_key(v) <= cell_key(w) else (w, v)
    return ("e", tail, head)


@dataclass
class CellComplex:
    cells: dict  # id -> dimension
    incidence: dict  # (coface_id, face_id) -> +-1
    boundary_words: dict = field(default_factory=dict)  # 2-cell -> ((edge, sign), ...)

    def __post_init__(self):
        # cells named only by the incidence get a place too, for validate
        order = self._order = sorted(set(self.cells).union(*self.incidence), key=cell_key)
        rank = {c: i for i, c in enumerate(order)}
        self._by_dim = {}
        for c in order:
            if c in self.cells:
                self._by_dim.setdefault(self.cells[c], []).append(c)
        self._faces_of = {}
        self._cofaces_of = {}
        for (cof, face), val in self.incidence.items():
            self._faces_of.setdefault(cof, []).append((face, val))
            self._cofaces_of.setdefault(face, []).append((cof, val))
        for lists in (self._faces_of, self._cofaces_of):
            for cells in lists.values():
                cells.sort(key=lambda p: rank[p[0]])

    @property
    def dimension(self):
        return max(self.cells.values(), default=-1)

    def cells_of_dim(self, k):
        return list(self._by_dim.get(k, ()))

    def dim(self, cell):
        return self.cells[cell]

    def faces_of(self, cell):
        return self._faces_of.get(cell, [])

    def cofaces_of(self, cell):
        return self._cofaces_of.get(cell, [])

    def euler_characteristic(self):
        chi = 0
        for d in self.cells.values():
            chi += 1 if d % 2 == 0 else -1
        return chi

    def boundary_matrix(self, k):
        """Matrix of the boundary map from k-cells to (k-1)-cells."""
        rows = self.cells_of_dim(k - 1)
        cols = self.cells_of_dim(k)
        idx = {c: i for i, c in enumerate(rows)}
        M = zeros(len(rows), len(cols))
        for j, c in enumerate(cols):
            for face, val in self.faces_of(c):
                M[idx[face], j] += val
        return M

    def is_connected(self):
        verts = self.cells_of_dim(0)
        return not verts or len(_vertex_spanning_tree(self, verts[0])[1]) == len(verts)


def _covering_pairs(X):
    """(coface, face, incidence) for every pair X.incidence names, in cell order."""
    for cof in X._order:
        for face, val in X.faces_of(cof):
            yield cof, face, val


def _cell_map_violations(X, Y, cell_map):
    """Where cell_map, defined on every cell of X, changes dimension or breaks
    incidence into Y, in cell order."""
    bad = [
        "cell map changes dimension at %s" % (c,)
        for k in range(X.dimension + 1)
        for c in X.cells_of_dim(k)
        if Y.dim(cell_map[c]) != k
    ]
    for cof, face, _ in _covering_pairs(X):
        if (cell_map[cof], cell_map[face]) not in Y.incidence:
            bad.append("cell map breaks incidence at (%s, %s)" % (cof, face))
    return bad


def validate(X):
    """Check d(d(.)) = 0, regularity basics, and boundary-word consistency."""
    bad = []
    for cof, face, val in _covering_pairs(X):
        if cof not in X.cells or face not in X.cells:
            bad.append("incidence names unknown cell (%s, %s)" % (cof, face))
            continue
        if X.dim(cof) != X.dim(face) + 1:
            bad.append("incidence pair (%s, %s) is not a covering pair" % (cof, face))
        if val not in (1, -1):
            bad.append("incidence coefficient of (%s, %s) is %s" % (cof, face, val))
    if bad:
        return ValidationReport(bad, "violation: ")
    # every id in the cell order is now a cell
    for cell in X._order:
        d = X.dim(cell)
        if d >= 1 and not X.faces_of(cell):
            bad.append("cell %s of dim %d has empty boundary" % (cell, d))
        if d == 1:
            vals = sorted(v for _, v in X.faces_of(cell))
            if vals != [-1, 1]:
                bad.append("edge %s does not have one head and one tail" % (cell,))
    # d of d = 0 cell pair by pair
    for rho in X._order:
        if X.dim(rho) < 2:
            continue
        acc = {}
        for tau, a in X.faces_of(rho):
            for sigma, b in X.faces_of(tau):
                acc[sigma] = acc.get(sigma, 0) + a * b
        for sigma, total in acc.items():
            if total != 0:
                bad.append("dd != 0 at pair (%s, %s): sum %d" % (rho, sigma, total))
    for f, word in sorted(X.boundary_words.items(), key=lambda p: cell_key(p[0])):
        if f not in X.cells or X.dim(f) != 2:
            bad.append("boundary word on non-2-cell %s" % (f,))
            continue
        counts = {}
        for e, s in word:
            counts[e] = counts.get(e, 0) + s
        inc = {e: v for e, v in X.faces_of(f)}
        if counts != inc:
            bad.append("boundary word of %s disagrees with incidence" % (f,))
    return ValidationReport(bad, "violation: ")


# ---------------------------------------------------------------------------
# Construction helpers


@dataclass(frozen=True)
class Seg:
    """Explicitly named and oriented edge, for parallel edges."""

    name: object
    tail: object
    head: object


def complex_from_polygons(polygons):
    """Build a 2-complex from faces given as cyclic vertex sequences.

    polygons: {face_id: [step, ...]} traversed with the face's chosen
    orientation, where a step is either a vertex v (the edge to the next
    vertex is edge_between(v, w), endpoints in cell order) or a pair
    (v, Seg(...)) pinning the edge from v to the next vertex to an explicit
    id with a fixed orientation.
    """
    cells = {}
    incidence = {}
    words = {}
    for f, cycle in polygons.items():
        cells[f] = 2
        word = []
        n = len(cycle)
        verts = []
        segs = []
        for item in cycle:
            if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], Seg):
                verts.append(item[0])
                segs.append(item[1])
            else:
                verts.append(item)
                segs.append(None)
        for i in range(n):
            v = verts[i]
            w = verts[(i + 1) % n]
            seg = segs[i]
            if seg is not None:
                if {seg.tail, seg.head} != {v, w}:
                    raise ComplexError("edge %s does not match cycle at %s" % (seg.name, f))
                e, tail, head = seg.name, seg.tail, seg.head
            else:
                e = edge_between(v, w)
                tail, head = e[1:]
            sign = 1 if (tail, head) == (v, w) else -1
            cells[v] = 0
            cells[e] = 1
            if incidence.get((e, tail), -1) != -1 or incidence.get((e, head), 1) != 1:
                raise ComplexError("edge %s used with inconsistent endpoints" % (e,))
            incidence[(e, tail)] = -1
            incidence[(e, head)] = 1
            key = (f, e)
            if key in incidence:
                raise ComplexError("face %s repeats edge %s" % (f, e))
            incidence[key] = sign
            word.append((e, sign))
        words[f] = tuple(word)
    return CellComplex(cells=cells, incidence=incidence, boundary_words=words)


def _tagged(X, tag):
    """The cells, incidence and boundary words of X, each id c renamed (tag, c)."""
    return (
        {(tag, c): d for c, d in X.cells.items()},
        {((tag, a), (tag, b)): v for (a, b), v in X.incidence.items()},
        {(tag, f): tuple(((tag, e), s) for e, s in w) for f, w in X.boundary_words.items()},
    )


def disjoint_union(X, Y, tagx="A", tagy="B"):
    return CellComplex(*({**x, **y} for x, y in zip(_tagged(X, tagx), _tagged(Y, tagy))))


def product(X, Y):
    """Product complex with graded Leibniz signs.

    Returns (complex, factors) where factors maps each product cell to its
    pair of factor cells.  Cell ids are ("x", a, b) pairs.
    """
    cells = {}
    factors = {}
    for a, da in X.cells.items():
        for b, db in Y.cells.items():
            cid = ("x", a, b)
            cells[cid] = da + db
            factors[cid] = (a, b)
    incidence = {}
    for a, da in X.cells.items():
        for b, db in Y.cells.items():
            cid = ("x", a, b)
            for fa, v in X.faces_of(a):
                incidence[(cid, ("x", fa, b))] = v
            sgn = 1 if da % 2 == 0 else -1
            for fb, v in Y.faces_of(b):
                incidence[(cid, ("x", a, fb))] = sgn * v
    Z = CellComplex(cells=cells, incidence=incidence)
    _fill_square_words(Z, X, Y)
    return Z, factors


def _fill_square_words(Z, X, Y):
    words = {}
    for cid in Z.cells:
        if Z.dim(cid) != 2:
            continue
        _, a, b = cid
        da = X.cells[a]
        if da == 2:
            words[cid] = tuple((("x", e, b), s) for e, s in X.boundary_words.get(a, ()))
            if not X.boundary_words.get(a):
                words.pop(cid, None)
        elif da == 0:
            words[cid] = tuple((("x", a, e), s) for e, s in Y.boundary_words.get(b, ()))
            if not Y.boundary_words.get(b):
                words.pop(cid, None)
        else:
            # edge x edge: square with word  a x tail_b, head_a x b,
            # reversed a x head_b, reversed tail_a x b
            ta = next(f for f, v in X.faces_of(a) if v == -1)
            ha = next(f for f, v in X.faces_of(a) if v == 1)
            tb = next(f for f, v in Y.faces_of(b) if v == -1)
            hb = next(f for f, v in Y.faces_of(b) if v == 1)
            words[cid] = (
                (("x", a, tb), 1),
                (("x", ha, b), 1),
                (("x", a, hb), -1),
                (("x", ta, b), -1),
            )
    Z.boundary_words.update(words)


def _infer_signs(X, mapping):
    """Orientation signs eps(c) with [mc:mt] = eps(c) eps(t) [c:t], or None."""
    eps = {}
    for c in X.cells_of_dim(0):
        eps[c] = 1
    for k in range(1, X.dimension + 1):
        for c in X.cells_of_dim(k):
            faces = X.faces_of(c)
            t, v = faces[0]
            mv = X.incidence.get((mapping[c], mapping[t]))
            if mv is None:
                return None
            eps[c] = mv * eps[t] * v
            for t2, v2 in faces:
                mv2 = X.incidence.get((mapping[c], mapping[t2]))
                if mv2 is None or mv2 != eps[c] * eps[t2] * v2:
                    return None
    return eps


def quotient_by_free_involution(X, mapping):
    """Quotient of X by a fixed-point-free cellular involution.

    mapping: cell -> cell.  Raises when the map has a fixed cell, is not an
    involution, or is incompatible with the incidence structure.  Each orbit
    is identified onto its first member rep in cell order (identify_cells)
    and becomes the cell ("q", rep); returns (quotient, orbit: cell -> its
    quotient cell).
    """
    for c, mc in mapping.items():
        if mc == c:
            raise ComplexError("involution fixes cell %s" % (c,))
        if mapping.get(mc) != c:
            raise ComplexError("mapping is not an involution at %s" % (c,))
        if X.dim(c) != X.dim(mc):
            raise ComplexError("involution is not dimension preserving at %s" % (c,))
    if set(mapping) != set(X.cells):
        raise ComplexError("involution must move every cell")
    if _infer_signs(X, mapping) is None:
        raise ComplexError("involution does not commute with incidence")
    rep = {c: min(c, mapping[c], key=cell_key) for c in X.cells}
    Z, _ = identify_cells(X, [(rep[c], c) for c in X.cells if rep[c] != c])
    return CellComplex(*_tagged(Z, "q")), {c: ("q", rep[c]) for c in X.cells}


def identify_cells(X, pairs):
    """Quotient X by identifying cell b with cell a for each (a, b) pair.

    The one identification of cells, behind gluing and free quotients.  The
    identification may flip orientations; the relative sign is inferred from
    vertex incidences upward.  Identified cells must have equal dimension and
    isomorphic boundaries, and two faces of one cell may not land on one cell
    (a fold).  A class is named by its representative, which keeps its own
    boundary word.  Returns (quotient, relabel: cell -> representative).
    """
    parent = {c: c for c in X.cells}
    sign = {c: 1 for c in X.cells}  # sign of c relative to its parent

    def rel_sign(c):
        s, cur = 1, c
        while parent[cur] != cur:
            s *= sign[cur]
            cur = parent[cur]
        return s, cur

    by_dim = sorted(pairs, key=lambda p: X.dim(p[0]))
    for a, b in by_dim:
        if X.dim(a) != X.dim(b):
            raise ComplexError("cannot identify cells of different dimension")
        sa, ra = rel_sign(a)
        sb, rb = rel_sign(b)
        if ra == rb:
            continue
        if X.dim(a) == 0:
            parent[rb] = ra
            sign[rb] = 1
            continue
        # determine relative orientation from identified faces
        s = None
        for t, v in X.faces_of(a):
            st, rt = rel_sign(t)
            for t2, v2 in X.faces_of(b):
                st2, rt2 = rel_sign(t2)
                if rt == rt2:
                    cand = (v * st) * (v2 * st2)
                    if s is None:
                        s = cand
                    elif s != cand:
                        raise ComplexError(
                            "identification of %s and %s twists its boundary" % (a, b)
                        )
        if s is None:
            raise ComplexError("cells %s and %s share no boundary data" % (a, b))
        parent[rb] = ra
        sign[rb] = sa * sb * s
    relabel = {c: rel_sign(c)[1] for c in X.cells}
    cells = {c: X.dim(c) for c in X.cells if relabel[c] == c}
    incidence = {}
    for c in X.cells:
        sc, rc = rel_sign(c)
        landed = set()
        for t, v in X.faces_of(c):
            st, rt = rel_sign(t)
            if rt in landed:
                raise ComplexError("identification folds two faces of %s onto %s" % (c, rt))
            landed.add(rt)
            val = v * sc * st
            if incidence.setdefault((rc, rt), val) != val:
                raise ComplexError("inconsistent identification at %s" % ((rc, rt),))
    words = {
        f: tuple((relabel[e], s * rel_sign(e)[0]) for e, s in word)
        for f, word in X.boundary_words.items()
        if relabel.get(f) == f
    }
    Z = CellComplex(cells=cells, incidence=incidence, boundary_words=words)
    return Z, relabel


# ---------------------------------------------------------------------------
# Surface recognition


@dataclass
class SurfaceClassification:
    kind: str
    euler_characteristic: int
    orientable: bool
    boundary_components: int
    constraint_violation: str = None


def _check_surface(X):
    if any(d > 2 for d in X.cells.values()):
        raise NotASurfaceError("complex has cells of dimension > 2")
    for e in X.cells_of_dim(1):
        cofs = [f for f, _ in X.cofaces_of(e)]
        if len(cofs) not in (1, 2):
            raise NotASurfaceError("edge %s has %d cofaces" % (e, len(cofs)))
    for v in X.cells_of_dim(0):
        if not X.cofaces_of(v):
            raise NotASurfaceError("isolated vertex %s" % (v,))


def orientable(X):
    """Try to orient all 2-cells compatibly by breadth-first propagation."""
    faces = X.cells_of_dim(2)
    orient = {}
    for start in faces:
        if start in orient:
            continue
        orient[start] = 1
        queue = [start]
        while queue:
            f = queue.pop()
            for e, v in X.faces_of(f):
                for g, w in X.cofaces_of(e):
                    if g == f:
                        continue
                    want = -orient[f] * v * w
                    if g in orient:
                        if orient[g] != want:
                            return False
                    else:
                        orient[g] = want
                        queue.append(g)
    return True


def boundary_components(X):
    bedges = [e for e in X.cells_of_dim(1) if len(X.cofaces_of(e)) == 1]
    adj = {}
    for e in bedges:
        for v, _ in X.faces_of(e):
            adj.setdefault(v, []).append(e)
    seen = set()
    comps = 0
    for e in bedges:
        if e in seen:
            continue
        comps += 1
        stack = [e]
        seen.add(e)
        while stack:
            cur = stack.pop()
            for v, _ in X.faces_of(cur):
                for nxt in adj[v]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
    return comps


_SURFACES = {
    (2, True, 0): "sphere",
    (0, True, 0): "torus",
    (1, False, 0): "projective_plane",
    (0, False, 0): "klein_bottle",
    (1, True, 1): "disk",
    (0, True, 2): "annulus",
    (0, False, 1): "möbius_band",
}


def classify_surface(X, focus_focus_count=0):
    """Recognize a compact surface from Euler data; Prop-style side condition.

    Raises NotASurfaceError when the complex is not a surface complex.  For a
    sphere or projective plane with no focus-focus points the classification
    carries a constraint violation instead of failing.
    """
    _check_surface(X)
    chi = X.euler_characteristic()
    orient = orientable(X)
    b = boundary_components(X)
    kind = _SURFACES.get((chi, orient, b))
    if kind is None:
        raise NotASurfaceError(
            "surface (chi=%d, orientable=%s, boundary=%d) is not in the allowed list"
            % (chi, orient, b)
        )
    violation = None
    if kind in ("sphere", "projective_plane") and focus_focus_count == 0:
        violation = "a closed %s base requires focus-focus points" % kind
    return SurfaceClassification(
        kind=kind,
        euler_characteristic=chi,
        orientable=orient,
        boundary_components=b,
        constraint_violation=violation,
    )


# ---------------------------------------------------------------------------
# Fundamental group


@dataclass
class GroupPresentation:
    generators: list
    relators: list  # each a tuple of (generator, +-1)

    def abelianization(self):
        idx = {g: i for i, g in enumerate(self.generators)}
        rows = []
        for rel in self.relators:
            row = [0] * len(self.generators)
            for g, s in rel:
                row[idx[g]] += s
            rows.append(row)
        if not self.generators:
            return AbelianGroup(0)
        rel = intmat(rows) if rows else zeros(0, len(self.generators))
        return PresentedGroup(len(self.generators), rel).group


def _bfs_tree(start, steps):
    """Breadth-first tree from start, taking the (edge, neighbour) pairs of
    steps(node) in order: ({node: (parent, edge)}, the nodes reached)."""
    tree, seen, queue = {}, {start}, [start]
    while queue:
        node = queue.pop(0)
        for e, nxt in steps(node):
            if nxt not in seen:
                seen.add(nxt)
                tree[nxt] = (node, e)
                queue.append(nxt)
    return tree, seen


def _vertex_spanning_tree(X, basepoint):
    def steps(v):
        return [(e, w) for e, _ in X.cofaces_of(v) if X.dim(e) == 1 for w, _ in X.faces_of(e)]

    return _bfs_tree(basepoint, steps)


def pi1_presentation(X, basepoint):
    """Presentation of pi_1 from a spanning tree; needs 2-cell boundary words."""
    if not X.is_connected():
        raise ComplexError("complex is not connected")
    if X.dimension > 2:
        raise ComplexError("pi1 presentation requires dimension <= 2")
    for f in X.cells_of_dim(2):
        if f not in X.boundary_words:
            raise ComplexError("2-cell %s is missing its boundary word" % (f,))
    tree, seen = _vertex_spanning_tree(X, basepoint)
    if len(seen) != len(X.cells_of_dim(0)):
        raise ComplexError("complex is not connected")
    tree_edges = {e for _, e in tree.values()}
    generators = [e for e in X.cells_of_dim(1) if e not in tree_edges]
    relators = []
    for f in X.cells_of_dim(2):
        rel = tuple((e, s) for e, s in X.boundary_words[f] if e not in tree_edges)
        relators.append(rel)
    return GroupPresentation(generators=generators, relators=relators)


# ---------------------------------------------------------------------------
# Dual face loops for monodromy transport


@dataclass
class FaceLoop:
    """Closed path of 2-cells; edges[i] is crossed between faces[i], faces[i+1]."""

    faces: list
    edges: list
    kind: str  # "vertex" or "cycle"
    about: object = None  # the encircled vertex for vertex loops


def interior_vertices(X):
    out = []
    for v in X.cells_of_dim(0):
        edges = [e for e, _ in X.cofaces_of(v) if X.dim(e) == 1]
        if all(len(X.cofaces_of(e)) == 2 for e in edges):
            out.append(v)
    return out


def vertex_star_cycle(X, v):
    """Faces and crossed edges around v: a cycle if v is interior, else a fan.

    Returns (faces, edges, closed).  The walk starts at the first boundary
    edge at v in cell order, else at the first star edge, and enters that
    edge's first coface; faces[0] is the face whose frame is v's frame in
    the monodromy sheaf.  For a closed star edges[i] joins faces[i] and
    faces[i+1 mod m]; for a fan edges has one entry fewer than faces.
    """
    star = [e for e, _ in X.cofaces_of(v) if X.dim(e) == 1]
    boundary = [e for e in star if len(X.cofaces_of(e)) == 1]
    closed = not boundary
    start = e = (boundary or star)[0]
    faces, edges = [X.cofaces_of(start)[0][0]], []
    while True:
        f = faces[-1]
        # next edge of f at v, different from the one we came in by
        candidates = [
            e2
            for e2, _ in X.faces_of(f)
            if e2 != e and any(w == v for w, _ in X.faces_of(e2))
        ]
        if len(candidates) != 1:
            raise NotASurfaceError("vertex %s has a non-disk star at face %s" % (v, f))
        e = candidates[0]
        if not closed and len(X.cofaces_of(e)) == 1:
            return faces, edges, False
        edges.append(e)
        nxt = [g for g, _ in X.cofaces_of(e) if g != f]
        if len(nxt) != 1:
            raise NotASurfaceError("edge %s is not interior" % (e,))
        if closed and nxt[0] == faces[0] and e == start:
            return faces, edges, True
        faces.append(nxt[0])
        if len(faces) > len(X.cells):
            raise NotASurfaceError("star walk at %s does not close" % (v,))


def _dual_tree(X, base_face):
    def steps(f):
        for e, _ in X.faces_of(f):
            cofs = [g for g, _ in X.cofaces_of(e)]
            if len(cofs) == 2:
                yield e, next(g for g in cofs if g != f)

    return _bfs_tree(base_face, steps)


def _tree_path(tree, base_face, f):
    """Faces and edges from base_face to f through the dual tree."""
    faces = [f]
    edges = []
    while f != base_face:
        parent, e = tree[f]
        edges.append(e)
        faces.append(parent)
        f = parent
    return list(reversed(faces)), list(reversed(edges))


def dual_loops(X, base_face):
    """Generating face loops of the fundamental group of the regular part.

    Returns loops based at base_face: one through each co-tree interior edge
    and one around each interior vertex.
    """
    _check_surface(X)
    tree, seen = _dual_tree(X, base_face)
    if len(seen) != len(X.cells_of_dim(2)):
        raise ComplexError("2-cells are not face-connected")
    tree_edges = {e for (_, e) in tree.values()}
    loops = []
    for e in X.cells_of_dim(1):
        if e in tree_edges or len(X.cofaces_of(e)) != 2:
            continue
        f, g = (h for h, _ in X.cofaces_of(e))
        pf, pe = _tree_path(tree, base_face, f)
        pg, pge = _tree_path(tree, base_face, g)
        faces = pf + pg[::-1]
        edges = pe + [e] + pge[::-1]
        loops.append(FaceLoop(faces=faces, edges=edges, kind="cycle", about=e))
    for v in interior_vertices(X):
        fc, ec, _ = vertex_star_cycle(X, v)
        pf, pe = _tree_path(tree, base_face, fc[0])
        # out along the tree, once around the star, back along the tree
        faces = pf[:-1] + fc + [fc[0]] + pf[:-1][::-1]
        edges = pe + ec + pe[::-1]
        loops.append(FaceLoop(faces=faces, edges=edges, kind="vertex", about=v))
    return loops


def boundary_traversal(X, base_face, record_tree=False):
    """Cut the surface open along co-tree edges and read the disk boundary.

    Walks the boundary of the dual-tree disk and reports the edges passed.
    With record_tree False the result is [(edge, from_face, to_face), ...]
    for co-tree interior edges (to_face None on surface-boundary edges); each
    co-tree edge appears exactly twice, once per side.  With record_tree True
    the items are (edge, from_face, to_face, kind) and descents/returns
    through dual-tree edges are reported as well, so composing transitions
    over the whole list develops the cut-open surface.
    """
    _check_surface(X)
    for f in X.cells_of_dim(2):
        if f not in X.boundary_words:
            raise ComplexError("boundary traversal requires boundary words")
    tree, seen = _dual_tree(X, base_face)
    if len(seen) != len(X.cells_of_dim(2)):
        raise ComplexError("2-cells are not face-connected")
    tree_edges = {e for (_, e) in tree.values()}
    emissions = []

    def emit(e, f, g, kind):
        if record_tree:
            emissions.append((e, f, g, kind))
        elif kind in ("cotree", "boundary"):
            emissions.append((e, f, g))

    def edges_after(face, enter_edge):
        """face's boundary edges in walking order: all of them from the
        start of the word, or those after enter_edge, back round to it."""
        word = X.boundary_words[face]
        n = len(word)
        if enter_edge is None:
            start, count = 0, n
        else:
            start = next(i for i, (e, _) in enumerate(word) if e == enter_edge) + 1
            count = n - 1
        return (word[(start + k) % n][0] for k in range(count))

    # a depth-first walk of the dual tree: each frame is a face, the tree
    # edge it was entered by and the rest of its boundary
    stack = [(base_face, None, edges_after(base_face, None))]
    while stack:
        face, enter_edge, edges = stack[-1]
        for e in edges:
            cofs = [g for g, _ in X.cofaces_of(e)]
            if len(cofs) == 1:
                emit(e, face, None, "boundary")
                continue
            g = next(h for h in cofs if h != face)
            if e in tree_edges:
                # a tree edge met mid-walk always leads to an unvisited child
                emit(e, face, g, "tree")
                stack.append((g, e, edges_after(g, e)))
                break
            emit(e, face, g, "cotree")
        else:
            stack.pop()
            if enter_edge is not None:
                emit(enter_edge, face, stack[-1][0], "tree")
    return emissions
