import pytest

from torusbase.complexes import (
    CellComplex,
    ComplexError,
    NotASurfaceError,
    boundary_traversal,
    classify_surface,
    complex_from_polygons,
    disjoint_union,
    dual_loops,
    identify_cells,
    orientable,
    pi1_presentation,
    product,
    quotient_by_free_involution,
    validate,
)
from torusbase.exact import AbelianGroup


def grid_torus(m=3, n=3):
    """m x n grid model of the torus as vertex cycles."""
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


def interval():
    return CellComplex(
        cells={"a": 0, "b": 0, "e": 1},
        incidence={("e", "a"): -1, ("e", "b"): 1},
    )


def circle(n=3):
    cells = {}
    inc = {}
    for i in range(n):
        cells[("v", i)] = 0
        cells[("e", i)] = 1
        inc[(("e", i), ("v", i))] = -1
        inc[(("e", i), ("v", (i + 1) % n))] = 1
    return CellComplex(cells=cells, incidence=inc)


def point():
    return CellComplex(cells={"p": 0}, incidence={})


def klein_grid(m=4, n=3):
    """Klein bottle: vertical translation seam, horizontal flip seam."""
    polys = {}

    def v(i, j):
        if j == n:
            return ("v", (-i) % m, 0)
        return ("v", i % m, j)

    for i in range(m):
        for j in range(n):
            polys[("f", i, j)] = [v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)]
    return complex_from_polygons(polys)


def octa_sphere():
    polys = {}
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                a, b, c = ("v", 1, s1), ("v", 2, s2), ("v", 3, s3)
                cyc = [a, b, c] if s1 * s2 * s3 == 1 else [a, c, b]
                polys[("f", s1, s2, s3)] = cyc
    return complex_from_polygons(polys)


def rp2_complex():
    X = octa_sphere()
    mapping = {}
    for c in X.cells:
        if c[0] == "v":
            mapping[c] = ("v", c[1], -c[2])
        elif c[0] == "f":
            mapping[c] = ("f", -c[1], -c[2], -c[3])
        else:
            _, (_, i, si), (_, j, sj) = c
            a, b = ("v", i, -si), ("v", j, -sj)
            lo, hi = (a, b) if str(a) <= str(b) else (b, a)
            mapping[c] = ("e", lo, hi)
    Y, _ = quotient_by_free_involution(X, mapping)
    return Y


def test_validate_point():
    assert validate(point()).valid


def test_validate_torus():
    X = grid_torus()
    assert len(X.cells_of_dim(0)) == 9
    assert len(X.cells_of_dim(1)) == 18
    assert len(X.cells_of_dim(2)) == 9
    assert validate(X).valid
    assert X.euler_characteristic() == 0


def test_validate_catches_sign_flip():
    X = grid_torus()
    key = next(k for k in X.incidence if X.cells[k[0]] == 2)
    bad = dict(X.incidence)
    bad[key] = -bad[key]
    Y = CellComplex(cells=dict(X.cells), incidence=bad)
    rep = validate(Y)
    assert not rep.valid
    assert any("dd != 0" in v for v in rep.violations)


def test_euler_examples():
    assert point().euler_characteristic() == 1
    assert grid_torus().euler_characteristic() == 0
    assert octa_sphere().euler_characteristic() == 2


def test_classify_surfaces():
    t = classify_surface(grid_torus())
    assert t.kind == "torus" and t.constraint_violation is None
    k = classify_surface(klein_grid())
    assert k.kind == "klein_bottle"
    s = classify_surface(octa_sphere(), focus_focus_count=0)
    assert s.kind == "sphere"
    assert s.constraint_violation is not None
    s24 = classify_surface(octa_sphere(), focus_focus_count=24)
    assert s24.constraint_violation is None
    p = classify_surface(rp2_complex())
    assert p.kind == "projective_plane"
    assert p.euler_characteristic == 1


def test_classify_not_a_surface():
    X = CellComplex(
        cells={"a": 0, "b": 0, "e": 1},
        incidence={("e", "a"): -1, ("e", "b"): 1},
    )
    with pytest.raises(NotASurfaceError):
        classify_surface(X)


def test_product_point_identity():
    Y = grid_torus()
    Z, factors = product(point(), Y)
    assert Z.euler_characteristic() == Y.euler_characteristic()
    assert len(Z.cells) == len(Y.cells)
    assert validate(Z).valid


def test_product_intervals():
    Z, _ = product(interval(), interval())
    assert len(Z.cells_of_dim(0)) == 4
    assert len(Z.cells_of_dim(1)) == 4
    assert len(Z.cells_of_dim(2)) == 1
    assert validate(Z).valid


def test_product_circles_torus():
    Z, _ = product(circle(3), circle(3))
    assert validate(Z).valid
    assert Z.euler_characteristic() == 0
    assert classify_surface(Z).kind == "torus"


def test_product_euler_multiplicative():
    X = grid_torus()
    Y = circle(4)
    Z, _ = product(X, Y)
    assert validate(Z).valid
    assert Z.euler_characteristic() == X.euler_characteristic() * Y.euler_characteristic()


def swap_two_copies():
    """Two 3 x 3 grid tori and the free involution swapping them."""
    X = grid_torus(3, 3)
    D = disjoint_union(X, X)
    mapping = {}
    for c in D.cells:
        tag, cc = c
        mapping[c] = ("B" if tag == "A" else "A", cc)
    return D, mapping


def torus_to_klein():
    """The free involution (i, j) -> (i + 2, -j) on the 4 x 3 grid torus."""
    X = grid_torus(4, 3)
    mapping = {}

    def mv(v):
        _, i, j = v
        return ("v", (i + 2) % 4, (-j) % 3)

    for c in X.cells:
        if c[0] == "v":
            mapping[c] = mv(c)
        elif c[0] == "f":
            _, i, j = c
            mapping[c] = ("f", (i + 2) % 4, (-j - 1) % 3)
        else:
            _, a, b = c
            x, y = mv(a), mv(b)
            lo, hi = (x, y) if str(x) <= str(y) else (y, x)
            mapping[c] = ("e", lo, hi)
    return X, mapping


def test_quotient_swap_two_copies():
    Q, orbit = quotient_by_free_involution(*swap_two_copies())
    assert validate(Q).valid
    assert len(Q.cells) == len(grid_torus(3, 3).cells)
    assert classify_surface(Q).kind == "torus"


def test_quotient_torus_to_klein():
    X, mapping = torus_to_klein()
    Q, _ = quotient_by_free_involution(X, mapping)
    assert validate(Q).valid
    assert Q.euler_characteristic() == 0
    assert classify_surface(Q).kind == "klein_bottle"
    assert 2 * len(Q.cells) == len(X.cells)


def test_identification_that_folds_a_face_is_rejected():
    # a~c and b~d send the square's opposite edges ab and cd to one edge,
    # with equal signs in the boundary of f: the fold would merge them
    X = complex_from_polygons({"f": "abcd"})
    pairs = [("a", "c"), ("b", "d"), (("e", "a", "b"), ("e", "c", "d"))]
    with pytest.raises(ComplexError):
        identify_cells(X, pairs)


def test_identified_face_keeps_its_representatives_word():
    # one triangle twice, its words starting at different edges; the second
    # copy represents each class, but the first copy's word comes first
    first = complex_from_polygons({"f": ["a", "b", "c"]})
    second = complex_from_polygons({"f": ["b", "c", "a"]})
    D = disjoint_union(first, second)
    Z, relabel = identify_cells(D, [(("B", c), ("A", c)) for c in first.cells])
    assert relabel[("A", "f")] == ("B", "f")
    own = tuple((("B", e), s) for e, s in second.boundary_words["f"])
    assert Z.boundary_words == {("B", "f"): own}
    assert validate(Z).valid


def test_quotient_fixed_cell_rejected():
    X = grid_torus(3, 3)
    mapping = {c: c for c in X.cells}
    with pytest.raises(ComplexError):
        quotient_by_free_involution(X, mapping)


def test_pi1_tree_trivial():
    X = CellComplex(
        cells={"a": 0, "b": 0, "c": 0, "e1": 1, "e2": 1},
        incidence={("e1", "a"): -1, ("e1", "b"): 1, ("e2", "b"): -1, ("e2", "c"): 1},
    )
    p = pi1_presentation(X, "a")
    assert p.generators == []
    assert p.abelianization() == AbelianGroup(0)


def test_pi1_torus():
    X = grid_torus()
    p = pi1_presentation(X, X.cells_of_dim(0)[0])
    assert p.abelianization() == AbelianGroup(2)


def test_pi1_klein():
    X = klein_grid()
    p = pi1_presentation(X, X.cells_of_dim(0)[0])
    assert p.abelianization() == AbelianGroup(1, (2,))


def test_pi1_rp2():
    X = rp2_complex()
    p = pi1_presentation(X, X.cells_of_dim(0)[0])
    assert p.abelianization() == AbelianGroup(0, (2,))


def disk_complex():
    polys = {
        "f1": ["a", "b", "c"],
        "f2": ["a", "c", "d"],
    }
    return complex_from_polygons(polys)


def test_dual_loops_disk():
    X = disk_complex()
    loops = dual_loops(X, "f1")
    assert all(l.kind == "vertex" for l in loops) or not loops
    # a disk has no interior vertices in this small model and no co-tree edges
    assert loops == []


def test_dual_loops_torus():
    X = grid_torus()
    base = X.cells_of_dim(2)[0]
    loops = dual_loops(X, base)
    vertex_loops = [l for l in loops if l.kind == "vertex"]
    cycle_loops = [l for l in loops if l.kind == "cycle"]
    assert len(vertex_loops) == 9
    # co-tree interior edges: 18 - 8 = 10 loops, spanning H_1 of rank 2
    assert len(cycle_loops) == 10
    for l in loops:
        assert len(l.faces) == len(l.edges) + 1
        assert l.faces[0] == base and l.faces[-1] == base


def test_dual_loops_punctured_disk():
    # disk with one interior vertex: a single vertex loop around it
    polys = {
        ("f", k): [("b", k), ("b", (k + 1) % 4), "center"] for k in range(4)
    }
    X = complex_from_polygons(polys)
    loops = dual_loops(X, ("f", 0))
    vertex_loops = [l for l in loops if l.kind == "vertex"]
    assert len(vertex_loops) == 1
    assert vertex_loops[0].about == "center"


def test_boundary_traversal_counts():
    X = grid_torus()
    base = X.cells_of_dim(2)[0]
    em = boundary_traversal(X, base)
    seen = {}
    for e, _, g in em:
        assert g is not None
        seen[e] = seen.get(e, 0) + 1
    # every co-tree edge is seen twice, tree edges never
    assert all(v == 2 for v in seen.values())
    assert len(seen) == 10


def recursive_boundary_traversal(X, base_face, record_tree=False):
    """boundary_traversal as it was before its walk became iterative, kept as
    the reference for the order of the emissions."""
    from torusbase.complexes import _check_surface, _dual_tree

    _check_surface(X)
    tree, seen = _dual_tree(X, base_face)
    tree_edges = {e for (_, e) in tree.values()}
    emissions = []

    def emit(e, f, g, kind):
        if record_tree:
            emissions.append((e, f, g, kind))
        elif kind in ("cotree", "boundary"):
            emissions.append((e, f, g))

    def walk(face, enter_edge):
        word = list(X.boundary_words[face])
        n = len(word)
        if enter_edge is None:
            start = 0
        else:
            start = next(i for i, (e, _) in enumerate(word) if e == enter_edge)
            start += 1
        for k in range(n if enter_edge is None else n - 1):
            e, _ = word[(start + k) % n]
            cofs = [g for g, _ in X.cofaces_of(e)]
            if len(cofs) == 1:
                emit(e, face, None, "boundary")
            elif e in tree_edges:
                g = next(h for h in cofs if h != face)
                emit(e, face, g, "tree")
                walk(g, e)
                emit(e, g, face, "tree")
            else:
                g = next(h for h in cofs if h != face)
                emit(e, face, g, "cotree")

    walk(base_face, None)
    return emissions


def catalog_surfaces():
    from torusbase.affine import AffineSurface
    from torusbase.catalog import build, catalog_names

    names = catalog_names() + ["flat_torus:1", "flat_torus:2", "ff_disk:1", "ff_disk:2", "ff_disk:3"]
    for name in names:
        if name == "fake_base_space":
            continue  # three-dimensional pieces
        payload = build(name).payload
        if isinstance(payload, AffineSurface):
            yield name, payload.base
        elif isinstance(payload, CellComplex) and payload.dimension == 2:
            yield name, payload


def test_boundary_traversal_matches_the_recursive_walk():
    surfaces = dict(catalog_surfaces())
    assert {"sphere_24ff", "rp2_12ff", "klein_affine", "ff_disk:3"} <= set(surfaces)
    for X in surfaces.values():
        for base in X.cells_of_dim(2):
            for record_tree in (False, True):
                want = recursive_boundary_traversal(X, base, record_tree)
                assert boundary_traversal(X, base, record_tree) == want


def test_boundary_traversal_deeper_than_the_recursion_limit(monkeypatch):
    import sys
    from collections import Counter

    def refuse(limit):
        raise AssertionError("boundary_traversal changed the recursion limit")

    limit = sys.getrecursionlimit()
    X = grid_torus(2 * limit + 10, 3)
    base = X.cells_of_dim(2)[0]
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    em = boundary_traversal(X, base, record_tree=True)
    # the dual tree is deeper than the limit a recursive walk would hit
    seen, depth, deepest = {base}, 0, 0
    for e, f, g, kind in em:
        if kind == "tree":
            depth += -1 if g in seen else 1
            seen.add(g)
            deepest = max(deepest, depth)
    assert deepest > limit
    assert len(seen) == len(X.cells_of_dim(2))
    cotree = Counter(e for e, _, _, kind in em if kind == "cotree")
    assert set(cotree.values()) == {2}


# The two star walks as they stood before they became one
# complexes.vertex_star_cycle: the reference for the walk, every frame of
# the monodromy sheaf hangs on its start rule.


def reference_vertex_star_cycle(X, v):
    """Faces and edges around an interior vertex in cyclic order."""
    edges = sorted((e for e, _ in X.cofaces_of(v) if X.dim(e) == 1), key=str)
    e0 = edges[0]
    faces_cycle = []
    edges_cycle = []
    f = X.cofaces_of(e0)[0][0]
    e = e0
    while True:
        faces_cycle.append(f)
        # next edge of f at v, different from e
        candidates = [
            e2
            for e2, _ in X.faces_of(f)
            if e2 != e and any(w == v for w, _ in X.faces_of(e2))
        ]
        if len(candidates) != 1:
            raise NotASurfaceError("vertex %s has a non-disk star at face %s" % (v, f))
        e = candidates[0]
        edges_cycle.append(e)
        nxt = [g for g, _ in X.cofaces_of(e) if g != f]
        if len(nxt) != 1:
            raise NotASurfaceError("edge %s is not interior" % (e,))
        f = nxt[0]
        if f == faces_cycle[0] and e == e0:
            break
        if len(faces_cycle) > len(X.cells):
            raise NotASurfaceError("star walk at %s does not close" % (v,))
    return faces_cycle, edges_cycle


def reference_vertex_fan(X, v):
    """Faces and crossed edges around v; cyclic for interior, a fan otherwise.

    Returns (faces, edges, closed).  For a closed star edges[i] joins faces[i]
    and faces[i+1 mod m]; otherwise edges has one fewer entry than faces.
    """
    from torusbase.affine import AffineError

    star_edges = [e for e, _ in X.cofaces_of(v) if X.dim(e) == 1]
    boundary = [e for e in star_edges if len(X.cofaces_of(e)) == 1]
    if not boundary:
        faces, edges = reference_vertex_star_cycle(X, v)
        return faces, edges, True
    # start at a boundary edge and walk across interior edges
    start = sorted(boundary, key=str)[0]
    f = X.cofaces_of(start)[0][0]
    faces = [f]
    edges = []
    prev = start
    while True:
        nxt = [
            e2
            for e2, _ in X.faces_of(f)
            if e2 != prev and any(w == v for w, _ in X.faces_of(e2))
        ]
        if len(nxt) != 1:
            raise AffineError("vertex %s has a non-disk star" % (v,))
        e = nxt[0]
        if len(X.cofaces_of(e)) == 1:
            break
        g = next(h for h, _ in X.cofaces_of(e) if h != f)
        edges.append(e)
        faces.append(g)
        prev = e
        f = g
    return faces, edges, False


FAN, CLOSED = False, True


@pytest.mark.parametrize(
    "name, kinds",
    [
        ("cp2_triangle", {FAN}),
        ("ff_disk:1", {FAN, CLOSED}),
        ("ff_disk:2", {FAN, CLOSED}),
        ("ff_disk:3", {FAN, CLOSED}),
        ("flat_torus:1", {CLOSED}),
        ("flat_torus:2", {CLOSED}),
        ("flat_torus:3", {CLOSED}),
        ("klein_affine", {CLOSED}),
        ("kodaira_thurston", {CLOSED}),
        ("sphere_24ff", {CLOSED}),
        ("cut_triangle_surface", {FAN, CLOSED}),
    ],
)
def test_star_walk_matches_the_reference_walks(name, kinds):
    from torusbase.catalog import build, cut_triangle_surface
    from torusbase.complexes import vertex_star_cycle

    S = cut_triangle_surface() if name == "cut_triangle_surface" else build(name).payload
    X = S.base
    seen = set()
    for v in X.cells_of_dim(0):
        walk = vertex_star_cycle(X, v)
        assert walk == reference_vertex_fan(X, v)
        seen.add(walk[2])
    assert seen == kinds
