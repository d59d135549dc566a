"""pathfn: exact verification of concavity-type second-difference bounds,
self-similar function series, and one-dimensional quadratic-penalty flows.

The library works on continuous 1-periodic functions vanishing at the
integers, described by a small expression algebra (``pathfn.core``).  On top
of it sit grid-difference scanners (``pathfn.differences``), the series
transform with its exact identities (``pathfn.series``), and the Hopf-Lax
style flow with its parabola-envelope representation (``pathfn.flow``).
Everything that can be checked in exact rational arithmetic is; float mode
always carries certified error bounds.
"""

__version__ = "0.1.0"

from .core import (
    AbsSin,
    Approx,
    Dilate,
    Distance,
    DistancePower,
    FuncExpr,
    PolySplinePeriodic,
    RadixPoint,
    Scale,
    Scalar,
    Sin2Pi,
    Sum,
    ThetaSplice,
    Triplet,
    USeries,
    enumerate_triplets,
    eval_approx,
    eval_exact,
    parse_func_spec,
    parse_rational,
    psi_zero,
    radix_x_samples,
    radix_y_set,
    sin_cancellation,
    sup_abs_bound,
    supports_exact,
    to_spec_dict,
)
from .differences import (
    BoundReport,
    MembershipQuery,
    ProbeRow,
    ScanReport,
    backward_diff,
    central_second_diff,
    divergence_probe,
    forward_diff,
    fundamental_bound_check,
    membership_scan,
    semiconcavity_scan,
)
from .errors import (
    AmbiguousEnvelopeError,
    FlowConditionError,
    FuncSpecError,
    OrbitLimitError,
    PathfnError,
    ResourceLimitError,
    UnsupportedExactError,
)
from .flow import (
    DominanceReport,
    FlowQuery,
    Piece,
    PiecewiseQuadratic,
    SubdiffWitness,
    crossing_points,
    dominance_check,
    flow_bruteforce,
    flow_grid,
    parabola_eval,
    pde_residual,
    piecewise_from_json,
    subdiff_witnesses,
    witness_support_violations,
)
from .series import (
    ChainReport,
    ScanParams,
    SufficientReport,
    check_sufficient_conditions,
    concave_generator_constant,
    lower_chain_check,
    steepness_transfer_constant,
    u_delta_identity_residual,
    u_eval_exact,
)
