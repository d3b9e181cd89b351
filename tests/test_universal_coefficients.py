"""Cellular cohomology of constant Z against cellular homology.

H^k(X; Z) from the sheaf cohomology of the constant sheaf must equal
free(H_k) + tors(H_{k-1}) by the universal coefficient theorem, with the
homology read off CellComplex.boundary_matrix: Betti numbers from the ranks
of the Smith forms, torsion from the cokernel of each boundary map.  The
homology side shares no code with the sheaf differential or the cocycle
lattice.
"""

import pytest

from torusbase.catalog import build, catalog_names
from reference import cokernel
from torusbase.exact import AbelianGroup, snf
from torusbase.sheaves import cohomology, constant_sheaf
from torusbase.surgery import glue


def _complexes():
    out = []
    for name in catalog_names():
        entry = build(name)
        if entry.kind == "affine":
            out.append((name, lambda n=name: build(n).payload.base))
        elif entry.kind == "complex":
            out.append((name, lambda n=name: build(n).payload))
        elif entry.kind == "sheaf":
            out.append((name, lambda n=name: build(n).payload[0]))
        else:
            for piece in ("piece_minus", "piece_plus"):
                make = lambda n=name, p=piece: build(n).payload[p][0]  # noqa: E731
                out.append(("%s %s" % (name, piece), make))
            out.append(("%s glued" % name, lambda n=name: glue(build(n).payload["spec"])[0]))
    return out


_COMPLEXES = _complexes()


def homology(X, k):
    """H_k(X; Z) = ker d_k / im d_{k+1} from the boundary matrices."""
    n = len(X.cells_of_dim(k))
    rank_k = snf(X.boundary_matrix(k)).rank
    below = cokernel(X.boundary_matrix(k + 1).T)  # C_k / im d_{k+1}
    return AbelianGroup(below.free_rank - rank_k, below.invariant_factors)


@pytest.mark.parametrize("make", [m for _, m in _COMPLEXES], ids=[n for n, _ in _COMPLEXES])
def test_constant_cohomology_matches_universal_coefficients(make):
    X = make()
    F = constant_sheaf(X, 1)
    for k in range(X.dimension + 2):
        free = homology(X, k).free_rank
        torsion = homology(X, k - 1).invariant_factors if k else ()
        assert cohomology(F, k).group == AbelianGroup(free, torsion), k


def test_torsion_shows_one_degree_up():
    X = build("rp2_12ff").payload
    assert homology(X, 1) == AbelianGroup(0, (2,))
    assert cohomology(constant_sheaf(X, 1), 2).group == AbelianGroup(0, (2,))
