"""Averaged and firmly nonexpansive operators on finite lp spaces.

Modules:

* ``space``        lp norms and the uniform-convexity constants (p, r, c_r, K)
* ``projections``  metric projections onto boxes, equal-coordinate subspaces,
                   balls and halfspaces, plus the projection inequalities
* ``operators``    composable operator expressions with propagated firm and
                   averaging constants and fixed-point descriptors
* ``certify``      sampled falsification of the defining inequalities
* ``dynamics``     fixed-point iteration with monitors, resolvents, semigroups
* ``feasibility``  alternating/averaged contractive-projection solvers
* ``cli``          batch experiment runner (``python -m firmlp.cli``)
"""

from .space import (
    SpaceParams,
    space_params,
    lp_norm,
    norm_pow,
    convexity_residual,
    ball_inequality_residual,
)
from .projections import (
    Box,
    AffineEqual,
    Ball,
    Halfspace,
    project,
    membership_residual,
    is_member,
    sample_points,
    projection_inequality_residual,
    projection_pair_residual,
)
from .operators import (
    OperatorExpr,
    OperatorMeta,
    Affine,
    Scale,
    Truncate,
    SwapIsometry,
    Activation,
    Averaged,
    Compose,
    ConvexCombo,
    Resolvent,
    DimensionMismatch,
    identity,
    averaged,
    compose,
    convex_combination,
    truncation_operator,
    stable_activation,
    neural_network,
    guaranteed_nonexpansive_affine,
    contractive_projection,
    resolvent_operator,
    operator_to_json,
    operator_from_json,
)
from .certify import (
    Sampler,
    CertReport,
    firm_residual,
    certify_alpha_firm,
    certify_quasi_alpha_firm,
    certify_nonexpansive,
    bruck_phi,
    certify_bruck_firm,
    report_to_json,
)
from .dynamics import (
    StopRule,
    MonitorConfig,
    Trajectory,
    DivergenceError,
    picard_iterate,
    asymptotic_regularity_report,
    resolvent_apply,
    semigroup_product,
    semigroup_limit_estimate,
    trajectory_to_csv,
)
from .feasibility import (
    ContractiveProjectionSpec,
    projection_from_isometry,
    alternating_projections,
    averaged_projections,
    fixed_set_equality_check,
)

__version__ = "0.1.0"
