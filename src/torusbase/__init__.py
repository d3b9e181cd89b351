"""Invariants of integral affine base spaces of singular torus fibrations.

Exact integer and rational linear algebra drives cellular sheaf cohomology
on regular cell complexes; on top of that sit integral affine surfaces with
focus-focus points, their monodromy sheaves, realizability obstructions,
Delzant polytope surgeries, and base-level gluing.
"""

from .errors import TorusbaseError
from .exact import AbelianGroup, SmithDecomposition, hnf, snf
from .complexes import (
    CellComplex,
    GroupPresentation,
    classify_surface,
    complex_from_polygons,
    dual_loops,
    pi1_presentation,
    product,
    quotient_by_free_involution,
    validate,
)
from .sheaves import (
    CellularSheaf,
    CohomologyClass,
    SheafMap,
    ShortExactSequence,
    Stalk,
    class_add,
    class_reduce,
    cohomology,
    connecting_map,
    constant_sheaf,
    pullback_sum,
    restriction_on_cohomology,
    validate_sheaf,
)
from .affine import (
    AffineSurface,
    EdgeTransition,
    SingularityMark,
    affine_area,
    build_I_sheaf,
    build_R_sheaf,
    dhat,
    lagrangian_moduli,
    monodromy_rep,
    torus_bundle_h1,
    validate_affine,
)
from .polytopes import LatticePolytope, delzant_check, stratum_cut, vertex_blowup, vertices
from .surgery import (
    GluingSpec,
    dehn_reglue,
    glue,
    gluing_obstruction,
    realizability_report_2d,
)
from .catalog import CatalogEntry, build, catalog_names, verify

__all__ = [name for name in dir() if not name.startswith("_")]
