"""Base-level integrable surgery: gluing, obstructions, Dehn regluing.

The gluing obstruction of two pieces over a common overlap is computed in
the integer cohomology of the overlap sheaf: the quotient of H^2(overlap) by
the images of both pieces' H^2, applied to the difference of the supplied
restricted classes.  A rational part (the same quotient with constant
rational coefficients) is reported alongside, so the topological and
symplectic obstructions stay distinguishable.

chern_class_coordinates and realizability_report_2d read the monodromy sheaf
R, and its cohomology, off the surface that keeps them (build_R_sheaf).
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .affine import (
    AffineSurface,
    build_R_sheaf,
    lagrangian_moduli,
    monodromy_rep,
)
from .complexes import CellComplex, disjoint_union, identify_cells, validate
from .errors import TorusbaseError
from .exact import PresentedGroup, QuotientSpace, _apply_columns, eye
from .sheaves import (
    CellularSheaf,
    _block_columns,
    _descend,
    _induced,
    _stalk_iso_violations,
    class_from_components,
    class_reduce,
    cohomology,
    constant_sheaf,
    restriction_on_cohomology,
)


class SurgeryError(TorusbaseError):
    pass


@dataclass
class GluingSpec:
    """Two complex-with-sheaf pieces identified over a common subcomplex."""

    complex1: CellComplex
    sheaf1: CellularSheaf
    complex2: CellComplex
    sheaf2: CellularSheaf
    overlap1: CellComplex  # full subcomplex of complex1
    overlap2: CellComplex  # full subcomplex of complex2
    cell_map: dict  # overlap1 cell -> overlap2 cell
    stalk_isos: dict  # overlap1 cell -> matrix stalk1(c) -> stalk2(map c)

    def validate(self):
        return self._checked()[0]

    def _checked(self):
        """(violations, inverses): one pass over the overlap that checks the
        spec and inverts each stalk iso over the ring of the sheaves,
        inverses[c] mapping the second piece's stalk at cell_map[c] back to
        the first's.  The inverses are complete only when there is no
        violation."""
        if set(self.cell_map) != set(self.overlap1.cells):
            return ["cell map does not cover the overlap"], {}
        if set(self.cell_map.values()) != set(self.overlap2.cells):
            return ["cell map is not onto the second overlap"], {}
        return _stalk_iso_violations(
            self.overlap1, self.overlap2, self.sheaf1, self.sheaf2, self.cell_map, self.stalk_isos
        )


def glue(spec):
    """Pushout complex with the induced sheaf.

    Cells are tagged by piece; overlap cells of the second piece are
    identified onto the first piece's copy (identify_cells), so restriction
    to either tag recovers the input, and the sheaf on the disjoint union
    descends (sheaves._descend).
    """
    bad = spec.validate()
    if bad:
        raise SurgeryError("invalid gluing: %s" % "; ".join(map(str, bad)))
    D = disjoint_union(spec.complex1, spec.complex2, "A", "B")
    pairs = [(("A", c), ("B", spec.cell_map[c])) for c in spec.overlap1.cells]
    Z, relabel = identify_cells(D, pairs)
    stalks, restrictions = {}, {}
    for tag, F in (("A", spec.sheaf1), ("B", spec.sheaf2)):
        stalks.update({(tag, c): s for c, s in F.stalks.items()})
        restrictions.update({((tag, a), (tag, b)): M for (a, b), M in F.restrictions.items()})
    # identified cells keep the first piece's stalk; the isos carry it up
    up = {("B", spec.cell_map[c]): spec.stalk_isos[c] for c in spec.overlap1.cells}
    F = _descend(CellularSheaf(D, spec.sheaf1.ring, stalks, restrictions), Z, relabel, up)
    return Z, F, relabel


@dataclass
class ObstructionReport:
    group: object  # AbelianGroup of the obstruction quotient
    coordinates: tuple
    rational_dimension: int
    rational_coordinates: tuple

    @property
    def vanishes(self):
        return all(c == 0 for c in self.coordinates) and all(
            c == 0 for c in self.rational_coordinates
        )

    def __str__(self):
        head = "obstruction group %s, element %s" % (self.group, self.coordinates)
        tail = "; rational part dim %d, element %s" % (
            self.rational_dimension,
            tuple(str(c) for c in self.rational_coordinates),
        )
        verdict = "gluable" if self.vanishes else "obstructed"
        return "%s%s -> %s" % (head, tail, verdict)


def _overlap_quotient(F1, F2, overlap, cell_map, inverse_isos):
    """H^2(F1 on the overlap) and its quotient by the images of both pieces.

    F2's 2-cochains reach the overlap through cell_map and inverse_isos (per
    overlap 2-cell c, F2's stalk at cell_map[c] -> F1's stalk at c).  The
    quotient is a PresentedGroup over Z, a QuotientSpace over Q.
    """
    f1, G = restriction_on_cohomology(F1, overlap, 2)
    h_over = f1.target
    # F2's 2-cochains pulled to the overlap: a sparse column per coordinate of F2's
    blocks = ((cell_map[c], c, 1, J) for c, J in inverse_isos.items())
    pull = _block_columns(F2, 2, G, 2, blocks)
    f2 = _induced(cohomology(F2, 2), h_over, lambda x: _apply_columns(pull, x))
    quotient = PresentedGroup if G.ring == "Z" else QuotientSpace
    return h_over, quotient(h_over.presentation.n, f1.image_rows() + f2.image_rows())


def gluing_obstruction(spec, class1, class2, rational_difference=None):
    """Obstruction to matching the supplied restricted classes over the overlap.

    class1, class2 are cocycles on the overlap sheaf (the restriction of the
    first piece's sheaf).  The obstruction is the image of class2 - class1 in
    H^2(overlap) / (im H^2(piece1) + im H^2(piece2)); it vanishes exactly
    when the pieces can be matched.  The rational part repeats the quotient
    with constant rational coefficients, applied to rational_difference when
    one is supplied.
    """
    bad, inverses = spec._checked()
    if bad:
        raise SurgeryError("invalid gluing: %s" % "; ".join(map(str, bad)))
    over = spec.overlap1
    inverses2 = {c: inverses[c] for c in over.cells_of_dim(2)}
    h_over, Q = _overlap_quotient(spec.sheaf1, spec.sheaf2, over, spec.cell_map, inverses2)
    coords = Q.reduce(h_over.to_presentation_coords(class2.cocycle - class1.cocycle))
    # rational comparison with constant coefficients on the complexes; the
    # symplectic difference class is a separate input when available
    FQ1, FQ2 = (constant_sheaf(X, 1, "Q") for X in (spec.complex1, spec.complex2))
    ones = {c: eye(1) for c in over.cells_of_dim(2)}
    hq, QQ = _overlap_quotient(FQ1, FQ2, over, spec.cell_map, ones)
    if rational_difference is not None:
        qcoords = QQ.reduce(hq.to_presentation_coords(rational_difference))
    else:
        qcoords = tuple(Fraction(0) for _ in range(QQ.dimension))
    return ObstructionReport(
        group=Q.group,
        coordinates=coords,
        rational_dimension=QQ.dimension,
        rational_coordinates=qcoords,
    )


# ---------------------------------------------------------------------------
# Dehn regluing


def dehn_reglue(S, disk_faces, twist):
    """Compose the fibered gluing over the boundary of a regular disk.

    disk_faces: 2-cells of a disk inside the regular part; twist: a map from
    the boundary edges of the disk to integer covectors in the edge frame of
    the monodromy sheaf.  The base affine structure is unchanged; the carried
    Chern cocycle changes by the Mayer-Vietoris image of the twist,
    accumulated on the outside faces along the cut.
    """
    X = S.base
    disk = set(disk_faces)
    R = build_R_sheaf(S)
    cut_edges = []
    for e in X.cells_of_dim(1):
        cofs = [f for f, _ in X.cofaces_of(e)]
        inside = [f for f in cofs if f in disk]
        if len(cofs) == 2 and len(inside) == 1:
            cut_edges.append(e)
    region_cells = set(disk)
    for f in disk:
        for e, _ in X.faces_of(f):
            region_cells.add(e)
            for v, _ in X.faces_of(e):
                region_cells.add(v)
    for c in region_cells:
        if S.mark(c).kind != "regular":
            raise SurgeryError("reglued region touches the singular cell %s" % (c,))
    for e in twist:
        if e not in cut_edges:
            raise SurgeryError("twist is supported off the cut circle at %s" % (e,))
    new_chern = dict(S.chern_cocycle)
    for e in cut_edges:
        val = twist.get(e)
        if val is None:
            continue
        vec = np.array([int(val[0]), int(val[1])], dtype=object)
        for f, sign in X.cofaces_of(e):
            if f in disk:
                continue
            moved = R.restriction(e, f).dot(vec)
            cur = new_chern.get(f, (0, 0))
            new_chern[f] = (
                int(cur[0]) + sign * int(moved[0]),
                int(cur[1]) + sign * int(moved[1]),
            )
    return AffineSurface(
        base=S.base,
        charts=S.charts,
        transitions=S.transitions,
        markings=S.markings,
        chern_cocycle=new_chern,
    )


def chern_class_coordinates(S):
    """Canonical coordinates of the carried Chern cocycle in H^2(O, R-sheaf)."""
    R = build_R_sheaf(S)
    components = {f: [int(v[0]), int(v[1])] for f, v in S.chern_cocycle.items()}
    return class_reduce(class_from_components(R, 2, components))


# ---------------------------------------------------------------------------
# Realizability


@dataclass
class RealizabilityReport:
    verdict: str  # "realizable" or "undecided"
    dimension: int
    details: dict = field(default_factory=dict)

    def __str__(self):
        lines = ["verdict: %s (base dimension %d)" % (self.verdict, self.dimension)]
        for k in sorted(self.details):
            lines.append("  %s: %s" % (k, self.details[k]))
        return "\n".join(lines)


def realizability_report_2d(S):
    """Two-dimensional bases are always realizable; report the invariants.

    Accepts an affine surface, or a (complex, sheaf) pair for bases of other
    dimensions, which are reported as undecided here.
    """
    if isinstance(S, AffineSurface):
        rep = validate(S.base)
        if not rep.valid:
            raise SurgeryError("base complex invalid")
        details = {
            "H2(O, R)": str(cohomology(build_R_sheaf(S), 2).group),
            "moduli (dim, lattice rank)": lagrangian_moduli(S),
            "focus_focus_points": S.focus_focus_count(),
        }
        if S.base.is_connected():
            mon = monodromy_rep(S)
            details["monodromy generators"] = len(mon.loops)
        return RealizabilityReport(verdict="realizable", dimension=2, details=details)
    X, F = S
    dim = X.dimension
    if dim <= 2:
        return RealizabilityReport(
            verdict="realizable",
            dimension=dim,
            details={"H2": str(cohomology(F, 2).group)},
        )
    h3 = cohomology(constant_sheaf(X, 1, "Q"), 3)
    return RealizabilityReport(
        verdict="undecided",
        dimension=dim,
        details={
            "reason": "realizability is decided by the gluing obstruction in dimension > 2",
            "H3(O, R-coefficients) dimension": h3.presentation.dimension,
        },
    )