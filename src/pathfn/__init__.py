"""pathfn: exact verification of concavity-type second-difference bounds,
self-similar function series, and one-dimensional quadratic-penalty flows.

The library works on continuous 1-periodic functions vanishing at the
integers, described by a small expression algebra (``pathfn.core``).  On top
of it sit grid-difference scanners (``pathfn.differences``), the series
transform with its exact identities (``pathfn.series``), and the Hopf-Lax
style flow with its parabola-envelope representation (``pathfn.flow``); the
oracles and audits that check them from outside sit in ``pathfn.audit``.
Everything that can be checked in exact rational arithmetic is; float mode
always carries certified error bounds.

``import pathfn`` is lazy: it imports no layer.  Each name of ``__all__`` is
imported from the submodule that defines it the first time it is read
(``pathfn.flow_grid`` loads ``pathfn.flow``), and ``from pathfn import *``
imports them all.  So a CLI command loads only the layers it runs.  This is
the only module that re-exports names; ``pathfn.core`` holds submodules only.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "core.funcs": (
        "AbsSin",
        "Dilate",
        "Distance",
        "DistancePower",
        "FuncExpr",
        "PolySplinePeriodic",
        "Scale",
        "Sin2Pi",
        "Sum",
        "ThetaSplice",
        "USeries",
        "eval_approx",
        "eval_exact",
        "sup_abs_bound",
        "supports_exact",
    ),
    "core.parse": ("parse_func_spec", "to_spec_dict"),
    "core.points": ("Triplet", "radix_x_samples", "radix_y_set"),
    "core.scalars": ("Approx", "Scalar", "parse_rational"),
    "differences": (
        "MembershipQuery",
        "ProbeRow",
        "ScanReport",
        "central_second_diff",
        "divergence_probe",
        "membership_scan",
        "semiconcavity_scan",
        "stencil_slopes",
    ),
    "errors": (
        "AmbiguousEnvelopeError",
        "FlowConditionError",
        "FuncSpecError",
        "OrbitLimitError",
        "PathfnError",
        "ResourceLimitError",
        "UnsupportedExactError",
    ),
    "flow": (
        "FlowQuery",
        "Piece",
        "PiecewiseQuadratic",
        "flow_bruteforce_count",
        "flow_bruteforce_points",
        "flow_grid",
    ),
    "series": ("ScanParams", "SufficientReport", "check_sufficient_conditions", "u_eval_exact"),
    "audit": (
        "ChainReport",
        "DominanceReport",
        "SubdiffWitness",
        "concave_generator_constant",
        "crossing_points",
        "dominance_check",
        "enumerate_triplets",
        "lower_chain_check",
        "parabola_eval",
        "pde_residual",
        "piecewise_from_json",
        "psi_zero",
        "sin_cancellation",
        "steepness_transfer_constant",
        "subdiff_witnesses",
        "u_delta_identity_residual",
        "witness_support_violations",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name from its submodule on first access (PEP 562)."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in ``python -X importtime``
    value = globals()[name] = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
