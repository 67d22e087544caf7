"""Feasibility solvers built from contractive projections (Id + U)/2.

Given isometric involutions U_i, the operators P_i = (Id + U_i)/2 and their
complements Id - P_i are linear contractive projections, each 1/2-firm, and
Fix P_i is exactly Fix U_i.  Iterating the cyclic product P_n ... P_1 or a
strictly positive convex combination of the P_i drives the iterates into
the intersection of the image subspaces, with every distance to that
intersection nonincreasing along the way.

The built-in instance uses coordinate-swap isometries, whose images are
equal-coordinate subspaces; their intersections are computed structurally,
so membership of a limit point is checked exactly rather than by probing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import MonitorConfig, StopRule, Trajectory, picard_iterate
from .operators import (
    Averaged,
    Compose,
    OperatorExpr,
    Scale,
    compose,
    convex_combination,
    operator_from_json,
)
from .projections import (
    EMPTY_INTERSECTION,
    membership_residual,
    merge_fixed_point_sets,
    sample_points,
    set_from_json,
)
from .space import NonFiniteError, SpaceParams, lp_norm, space_params

__all__ = [
    "ContractiveProjectionSpec",
    "IsometryCheckError",
    "EmptyIntersectionError",
    "FeasibilityError",
    "projection_from_isometry",
    "intersect_images",
    "alternating_projections",
    "averaged_projections",
    "FixedSetEqualityReport",
    "fixed_set_equality_check",
    "load_instance_json",
]

MEMBERSHIP_TOL = 1e-8  # limit residual to an image, relative to max(max|x_0|, max|limit|)
FIX_TOL = 1e-10  # relative displacement of a sampled intersection point
ISOMETRY_SAMPLES = 64  # points projection_from_isometry checks U on


class IsometryCheckError(ValueError):
    """The candidate operator failed an involution/isometry sample check."""


class EmptyIntersectionError(ValueError):
    pass


class FeasibilityError(RuntimeError):
    def __init__(self, message: str, trajectory: Trajectory):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass
class ContractiveProjectionSpec:
    """An isometric involution U with P = (Id + U)/2, Id - P, and the image
    subspace descriptor (= Fix U) when known."""

    isometry: OperatorExpr
    projection: OperatorExpr
    complement: OperatorExpr
    image: object | None


def projection_from_isometry(
    U: OperatorExpr,
    p: float,
    dim: int,
    seed: int = 0,
) -> ContractiveProjectionSpec:
    """Build the contractive projection of an isometric involution.

    U is checked on ``ISOMETRY_SAMPLES`` points: U^2 = Id and norm
    preservation to 1e-12 and idempotence of P to 1e-10, each relative to
    the sample's norm.  Failures raise with a witness.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10.0, 10.0, size=(ISOMETRY_SAMPLES, dim))
    norm_x = lp_norm(x, p)
    ux = U(x)
    P = Averaged(U, 0.5)
    px = P(x)
    checks = (
        ("U^2 != Id", lambda: lp_norm(U(ux) - x, p), 1e-12),
        ("U does not preserve the lp norm", lambda: np.abs(lp_norm(ux, p) - norm_x), 1e-12),
        ("(Id+U)/2 is not idempotent", lambda: lp_norm(P(px) - px, p), 1e-10),
    )
    for failure, error, bound in checks:
        try:
            err = error()
        except NonFiniteError:  # an isometry keeps every finite vector finite
            raise IsometryCheckError(f"{failure} (the check overflowed)") from None
        i = int(np.argmax(err - bound * norm_x))
        if err[i] > bound * norm_x[i]:
            raise IsometryCheckError(
                f"{failure} (error {err[i]:.3e} at sample {x[i]} of norm {norm_x[i]:.3e})"
            )
    complement = Averaged(Compose((Scale(-1.0), U), space_params(p)), 0.5)
    return ContractiveProjectionSpec(
        isometry=U,
        projection=P,
        complement=complement,
        image=U.meta.fixed_points,
    )


def intersect_images(specs) -> object:
    """Structural intersection of the image subspaces.

    Raises ``EmptyIntersectionError`` on a provable contradiction and
    ``ValueError`` when some image has no descriptor (supply a witness
    point in that case).
    """
    images = [s.image for s in specs]
    if any(im is None for im in images):
        raise ValueError(
            "an image subspace has no descriptor; declare one in the instance"
        )
    merged = merge_fixed_point_sets(images)
    if merged is EMPTY_INTERSECTION:
        raise EmptyIntersectionError("image subspaces have provably empty intersection")
    if merged is None:
        raise ValueError(
            "cannot merge the declared image descriptors; use equal-coordinate "
            "or box sets for the intersection probe"
        )
    return merged


def _run_scheme(
    T: OperatorExpr,
    intersection,
    x0,
    stop: StopRule,
    sp: SpaceParams,
    specs,
    n_fejer: int,
    seed: int,
) -> Trajectory:
    rng = np.random.default_rng(seed)
    dim = np.asarray(x0).shape[-1]
    fejer = sample_points(intersection, rng, max(n_fejer, 1), dim, sp.p)
    monitors = MonitorConfig(sp=sp, fejer_points=fejer, track_fix_projections=True)
    traj = picard_iterate(T, x0, stop, monitors)
    if not traj.converged:
        raise FeasibilityError(
            f"no convergence within {stop.max_iter} iterations", trajectory=traj
        )
    size = max(np.abs(x0).max(), np.abs(traj.limit).max())  # the stop is relative to x0
    for k, s in enumerate(specs):
        res = float(membership_residual(s.image, traj.limit, sp.p))
        if res > MEMBERSHIP_TOL * size:
            raise FeasibilityError(
                f"limit misses image subspace {k} by {res:.3e}", trajectory=traj
            )
    return traj


def alternating_projections(
    specs,
    x0,
    stop: StopRule,
    sp: SpaceParams,
    n_fejer: int = 5,
    seed: int = 0,
) -> Trajectory:
    """Iterate the cyclic product P_n ... P_1 from x0.

    The first spec is applied first.  The limit is certified to lie in every
    image subspace; distances to sampled intersection points are recorded.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one projection spec")
    intersection = intersect_images(specs)
    T = compose([s.projection for s in reversed(specs)], sp)
    return _run_scheme(T, intersection, x0, stop, sp, specs, n_fejer, seed)


def averaged_projections(
    specs,
    weights,
    x0,
    stop: StopRule,
    sp: SpaceParams,
    n_fejer: int = 5,
    seed: int = 0,
) -> Trajectory:
    """Iterate the weighted sum of the projections; weights strictly inside
    (0, 1) and summing to 1."""
    specs = list(specs)
    weights = [float(w) for w in weights]
    if len(weights) != len(specs):
        raise ValueError("need one weight per projection spec")
    if any(not 0.0 < w < 1.0 for w in weights):
        raise ValueError("averaged-scheme weights must lie strictly in (0, 1)")
    intersection = intersect_images(specs)
    T = convex_combination([s.projection for s in specs], weights)
    return _run_scheme(T, intersection, x0, stop, sp, specs, n_fejer, seed)


@dataclass
class FixedSetEqualityReport:
    """Sampled verdicts that Fix(product) = Fix(average) = intersection; the
    maxima are absolute, ``ok`` multiplies FIX_TOL by each sample's norm and
    MEMBERSHIP_TOL by max(max|x_0|, max|limit|) of each run."""

    n_intersection_samples: int
    max_composed_displacement: float
    max_averaged_displacement: float
    n_iteration_limits: int
    max_limit_membership: float
    ok: bool


def fixed_set_equality_check(
    specs,
    sp: SpaceParams,
    dim: int,
    n: int = 100,
    seed: int = 0,
) -> FixedSetEqualityReport:
    """Check both inclusions on samples.

    Intersection points must be fixed by the cyclic product and by the
    uniform average; limits of the cyclic product from random starts must
    lie in every image subspace.
    """
    specs = list(specs)
    intersection = intersect_images(specs)
    rng = np.random.default_rng(seed)
    pts = sample_points(intersection, rng, n, dim, sp.p)
    composed = compose([s.projection for s in reversed(specs)], sp)
    avg = convex_combination([s.projection for s in specs], [1.0 / len(specs)] * len(specs))
    disp_c = lp_norm(composed(pts) - pts, sp.p)
    disp_a = lp_norm(avg(pts) - pts, sp.p)
    starts = rng.uniform(-10.0, 10.0, size=(max(n // 10, 3), dim))
    stop, monitors = StopRule(step_tol=1e-12), MonitorConfig(sp=sp)
    limits = np.array([picard_iterate(composed, x0, stop, monitors).limit for x0 in starts])
    membership = np.max([membership_residual(s.image, limits, sp.p) for s in specs], axis=0)
    fixed = np.maximum(disp_c, disp_a) <= FIX_TOL * lp_norm(pts, sp.p)
    within = membership <= MEMBERSHIP_TOL * np.maximum(np.abs(starts), np.abs(limits)).max(axis=1)
    return FixedSetEqualityReport(
        n_intersection_samples=n,
        max_composed_displacement=float(disp_c.max()),
        max_averaged_displacement=float(disp_a.max()),
        n_iteration_limits=len(starts),
        max_limit_membership=float(membership.max()),
        ok=bool(fixed.all() and within.all()),
    )


def load_instance_json(doc: dict, sp: SpaceParams, dim: int) -> list[ContractiveProjectionSpec]:
    """Build projection specs from a JSON instance: a list of isometries
    given as swap index pairs or explicit matrices, each optionally with a
    declared "image" convex-set document used by the intersection probe
    (needed when the image cannot be derived from the isometry)."""
    if not doc:
        raise ValueError("'isometries' lists no isometry")
    specs = []
    for k, iso_doc in enumerate(doc):
        if not isinstance(iso_doc, dict) or "kind" not in iso_doc:
            raise ValueError(f"isometry {k}: expected an object with a 'kind' tag")
        iso_doc = dict(iso_doc)
        image_doc = iso_doc.pop("image", None)
        U = operator_from_json(iso_doc, sp, dim)
        spec = projection_from_isometry(U, sp.p, dim, seed=k)
        if image_doc is not None:
            spec.image = set_from_json(image_doc)
        specs.append(spec)
    return specs
