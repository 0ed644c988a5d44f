"""Exact Turaev-Viro-type invariants of closed 3-manifold triangulations.

Everything is computed in the cyclotomic field Q(zeta) with
zeta = exp(i pi q / r); no floating point enters any equality decision.
"""

from .census import enumerate_census
from .colourings import (
    EnumerationStats,
    admissible_colouring,
    admissible_triple,
    colouring_weight,
    count_admissible,
    enumerate_admissible,
    sweep_sum,
    tetrahedron_weight,
    tv,
    tv_at_class,
)
from .cyclotomic import (
    Cyc,
    FieldContext,
    field_init,
    numeric_eval,
)
from .fastalgo import (
    BoundReport,
    adm4_structured,
    bounds,
    tv4_structured,
    tv_odd_fast,
)
from .homology import (
    CocycleBasis,
    H1Summary,
    betti_z2,
    boundary_matrix_z2,
    cocycle_space_1,
    cohomology_class,
    h1_integral,
    reduce_colouring,
)
from .loopcoords import (
    IntersectionSymbol,
    LoopDecomposition,
    decompose_symbol,
    intersection_symbol,
    normal_arc_counts,
    symbol_of,
    tet_weight_loop,
)
from .triangulation import (
    Skeleton,
    Triangulation,
    build_skeleton,
    pachner_23,
    parse_triangulation,
    serialise_triangulation,
    validate_closed_3manifold,
)

__version__ = "0.1.0"
