import itertools
import random
from fractions import Fraction

import pytest

from reference import lattice_eq, q_kernel, rref
from test_exact import det
from torusbase.exact import eye, fracmat, intmat
from torusbase.polytopes import LatticePolytope, PolytopeError, delzant_check, stratum_cut, vertex_blowup, vertices
from torusbase.polytopes import _has_recession_ray, _solve_square, _unimodular_corner


def unit_square():
    return LatticePolytope(
        2,
        [((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)],
    )


def cp2_triangle(scale=1):
    return LatticePolytope(
        2,
        [((-1, 0), 0), ((0, -1), 0), ((1, 1), scale)],
    )


def simplex3():
    return LatticePolytope(
        3,
        [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), 1)],
    )


def test_vertices_square():
    vs = vertices(unit_square())
    pts = {v.point for v in vs}
    assert pts == {
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
    }


def test_vertices_triangle():
    vs = vertices(cp2_triangle())
    pts = {v.point for v in vs}
    assert pts == {
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    }


def test_vertices_simplex3():
    assert len(vertices(simplex3())) == 4


def test_unbounded_rejected():
    P = LatticePolytope(2, [((-1, 0), 0), ((0, -1), 0)])
    with pytest.raises(PolytopeError):
        vertices(P)


def test_delzant_pass():
    assert delzant_check(cp2_triangle()).ok
    assert delzant_check(unit_square()).ok
    assert delzant_check(simplex3()).ok


def test_delzant_fail_named_vertex():
    # triangle (0,0), (2,0), (0,1): at (0,1) the edges are (0,-1) and (2,-1)
    P = LatticePolytope(2, [((-1, 0), 0), ((0, -1), 0), ((1, 2), 2)])
    rep = delzant_check(P)
    assert not rep.ok
    assert rep.failing_vertex is not None
    assert "fail" in str(rep)


def test_vertex_blowup_cp2():
    P = cp2_triangle()
    Q = vertex_blowup(P, (Fraction(0), Fraction(0)), Fraction(1, 2))
    assert len(Q.halfspaces) == len(P.halfspaces) + 1
    assert delzant_check(Q).ok
    assert len(vertices(Q)) == 4


def test_vertex_blowup_eps_too_large():
    with pytest.raises(PolytopeError):
        vertex_blowup(cp2_triangle(), (Fraction(0), Fraction(0)), 2)


def test_blowup_then_recheck_property():
    rng = random.Random(5)
    for _ in range(20):
        s = rng.randint(2, 5)
        P = cp2_triangle(s)
        vs = vertices(P)
        v = vs[rng.randrange(len(vs))]
        Q = vertex_blowup(P, v, Fraction(1, rng.randint(3, 7)))
        assert delzant_check(Q).ok
        assert len(Q.halfspaces) == len(P.halfspaces) + 1


def test_stratum_cut_square():
    P = unit_square()
    Q = stratum_cut(P, 3, Fraction(1, 4))
    ys = {v.point[1] for v in vertices(Q)}
    assert max(ys) == Fraction(3, 4)
    assert delzant_check(Q).ok


def test_stratum_cut_triangle():
    P = cp2_triangle()
    Q = stratum_cut(P, 2, Fraction(1, 4))
    assert delzant_check(Q).ok
    assert len(vertices(Q)) == 3


def test_stratum_cut_too_large():
    with pytest.raises(PolytopeError):
        stratum_cut(unit_square(), 3, 1)


def test_delzant_unimodular_invariance():
    rng = random.Random(9)
    from torusbase.exact import intmat

    for _ in range(20):
        P = cp2_triangle(3)
        # random unimodular map x -> Ux + c applied to the halfspaces:
        # normals transform by the inverse transpose
        U = intmat([[1, rng.randint(-2, 2)], [0, 1]])
        if rng.random() < 0.5:
            U = U.T
        c = (rng.randint(-3, 3), rng.randint(-3, 3))
        from torusbase.exact import inv2

        W = inv2(U).T
        hs = []
        for a, b in P.halfspaces:
            a2 = tuple(int(x) for x in W.dot(intmat([[a[0]], [a[1]]]))[:, 0])
            b2 = b + a2[0] * c[0] + a2[1] * c[1]
            hs.append((a2, b2))
        Q = LatticePolytope(2, hs)
        assert delzant_check(Q).ok == delzant_check(P).ok


def test_delzant_fail_index_two_corner():
    # triangle (0,0), (2,0), (2,4): the simple corner at the origin has edge
    # directions (1,0) and (1,2), which span an index-2 sublattice of Z^2
    P = LatticePolytope(2, [((0, -1), 0), ((-2, 1), 0), ((1, 0), 2)])
    rep = delzant_check(P)
    assert not rep.ok
    assert rep.failing_vertex == (Fraction(0), Fraction(0))
    assert set(rep.failing_directions) == {(1, 0), (1, 2)}
    with pytest.raises(PolytopeError):
        vertex_blowup(P, (Fraction(0), Fraction(0)), Fraction(1, 4))
    Q = LatticePolytope(2, [((0, -1), 0), ((-1, 1), 0), ((1, 0), 2)])
    assert delzant_check(Q).ok


@pytest.mark.parametrize("dimension", [0, -1, 4])
def test_dimension_outside_one_to_three_rejected(dimension):
    with pytest.raises(PolytopeError, match="dimension must be 1, 2 or 3"):
        LatticePolytope(dimension, [])


def test_interval_is_delzant():
    # in dimension 1 the two vertices share no facet, yet the interval is their edge
    P = LatticePolytope(1, [((-1,), 0), ((1,), 3)])
    assert [v.point for v in vertices(P)] == [(0,), (3,)]
    assert delzant_check(P).ok


# _solve_square, _has_recession_ray and _unimodular_corner call the echelon
# loop directly.  The references are the bodies they had on rref, q_kernel
# and lattice_eq, which tests/reference.py keeps.


def reference_solve_square(rows, rhs):
    n = len(rows)
    R, pivots = rref(fracmat([list(r) + [rhs[i]] for i, r in enumerate(rows)]))
    return tuple(R[i, n] for i in range(n)) if pivots == list(range(n)) else None


def reference_has_recession_ray(P):
    for subset in itertools.combinations(range(len(P.halfspaces)), P.dimension - 1):
        K = q_kernel(fracmat([P.halfspaces[i][0] for i in subset])) if subset else fracmat([])
        for j in range(K.shape[1]):
            for ray in (list(K[:, j]), list(-K[:, j])):
                if any(x != 0 for x in ray) and all(
                    sum(Fraction(ai) * x for ai, x in zip(a, ray)) <= 0 for a, b in P.halfspaces
                ):
                    return True
    return False


def test_square_solves_and_corners_match_the_references():
    rng = random.Random(71)
    dets, singular = set(), 0
    for _ in range(600):
        n = rng.randint(1, 3)
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
        rhs = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(n)]
        got = _solve_square(rows, rhs)
        assert got == reference_solve_square(rows, rhs)
        assert got is None or all(type(x) is Fraction for x in got)
        singular += got is None
        d = det(rows)
        dets.add(d)
        assert _unimodular_corner(rows, n) == lattice_eq(intmat(rows), eye(n)) == (d in (1, -1))
        assert not _unimodular_corner(rows[1:], n) and not _unimodular_corner(rows + rows[:1], n)
    assert {1, -1, 2, -2} <= dets and singular > 50


def test_recession_rays_match_the_reference():
    rng = random.Random(73)
    found = set()
    for _ in range(300):
        n = rng.randint(1, 3)
        normals = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, n + 3))]
        P = LatticePolytope(n, [(a, rng.randint(0, 3)) for a in normals if any(a)])
        got = _has_recession_ray(P)
        assert got == reference_has_recession_ray(P)
        found.add(got)
    assert found == {True, False}
