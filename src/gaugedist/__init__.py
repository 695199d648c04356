"""Gauge distances induced by origin-symmetric convex bodies.

The package measures how the distance set of a planar point set behaves under
the norm whose unit ball is a given convex body: polygonal gauges keep lattice
distance sets uniformly separated, strictly convex gauges do not, and the
boundary-intersection machinery behind that contrast is implemented and
checkable here.
"""

from .convex_body import (
    ConvexBody,
    Disc,
    InvalidBodyError,
    PBall,
    SymmetricPolygon,
    body_from_spec,
    boundary_point,
    boundary_points,
    diamond,
    gauge,
    gauge_exact,
    gauge_many,
    load_body,
    max_chebyshev_radius,
    max_euclid_radius,
    square,
    validate,
)
from .distance_sets import (
    Annulus,
    Cone,
    DistanceSet,
    MoserRow,
    annulus_cone_points,
    distance_lists_from_two_points,
    distance_set,
    grid_distance_set,
    min_gap,
    moser_count_check,
)
from .geometry_kernel import (
    ConcurrenceReport,
    IntersectionResult,
    RootScan,
    Segment,
    boundary_intersection,
    concurrence_check,
    direction_line_classes,
    random_symmetric_polygon,
    strictly_convex_intersection_count,
    transform_polygon,
)
from .point_sets import (
    AlphaEstimate,
    GeneratorSpec,
    PointSet,
    WellDistributedReport,
    alpha_dimension_estimate,
    generate,
    load_point_set,
    save_point_set,
    separation_constant,
    well_distributed_check,
)
from .experiments import (
    ExperimentRow,
    LemmaBatch,
    erdos_bound,
    run_lemma_checks,
    run_moser,
    run_sweep,
    taxicab_count,
    write_jsonl,
    write_moser_csv,
    write_sweep_csv,
)

__version__ = "0.1.0"
