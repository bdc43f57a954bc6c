"""metriclab: a desk-scale computational laboratory for metric geometry.

Closed-form model spaces (Euclidean and Minkowski planes, the hyperbolic
plane, exact-rational metric trees, round spheres, maximum products) with
geodesics and ideal boundary points; Busemann functions and
horospherical transfers; scissors translations and their shift; tape
constructions in normed strips; the grasshopper metric; and the catalog of
unit-distance-preserving non-isometries, each packaged with verification
reports and a CLI.
"""

from .spaces import (
    AmbiguousError,
    ConvergenceError,
    DegenerateError,
    Euclidean,
    GeodesicRef,
    HyperbolicPlane,
    IdealPoint,
    MaxProduct,
    MetricTree,
    MinkowskiLinf,
    MinkowskiLp,
    Point,
    PreconditionError,
    RealLine,
    SpaceError,
    SphereIntrinsic,
    TreeDesc,
    boundary_ideal,
    direction_ideal,
    distance,
    distance_rows,
    geodesic_between,
    line_through,
    midpoint,
    point,
    ray_from,
    sphere_point,
    tree_edge_point,
    tree_end,
    tree_ray_point,
    tree_vertex,
)
from .verify import (
    BijectionSpec,
    SampleSet,
    VerificationReport,
    check_busemann_midpoints,
    check_distance_convexity,
    check_metric_axioms,
    is_isometry,
    preserves_unit_distance,
    random_sample,
)
from .horofn import (
    busemann_value,
    check_busemann_sum_bound,
    ray_pseudodistance,
    ray_toward,
    shadow_contains,
    spherical_shadow_sample,
    tits_delta,
)
from .transfers import (
    ScissorsConfig,
    TransferResult,
    double_transfer,
    scissors_shift,
    validate_scissors,
)
from .tapes import (
    PTape,
    build_p_tape,
    check_third_division,
    tape_position,
    validate_p_tape,
    validate_r_sequence,
)
from .grasshopper import (
    TreePointSet,
    UnitJumpGraph,
    grasshopper_components,
    grasshopper_distance,
    line_counterexample,
    max_product_lift,
    smooth_tree_bijection,
    sphere_flip_bijection,
    tree_swap_bijection,
)

__version__ = "0.1.0"
