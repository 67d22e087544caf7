"""Feasibility solvers built from contractive projections (Id + U)/2.

Given isometric involutions U_i, the operators P_i = (Id + U_i)/2 and their
complements Id - P_i are linear contractive projections, each 1/2-firm, and
Fix P_i is exactly Fix U_i.  Iterating the cyclic product P_n ... P_1 or a
strictly positive convex combination of the P_i drives the iterates into
the intersection of the image subspaces, with every distance to that
intersection nonincreasing along the way.

Each U is checked exactly, on its affine form U x = W x + b.  By
Mazur-Ulam every surjective isometry (an involution is one) is affine, and
by Banach and Lamperti the linear isometries of lp^d, p != 2, are exactly
the signed permutation matrices (at p = 2, the orthogonal ones).  So U is
an isometric involution when W is such a matrix, W^2 = I and W b + b = 0.

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
    OperatorExpr,
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
from .space import SpaceParams, lp_norm

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
ISOMETRY_TOL = 1e-12  # each exact isometry test, relative to 1 (the entries of I)


class IsometryCheckError(ValueError):
    """The candidate operator is not an isometric involution."""


class EmptyIntersectionError(ValueError):
    pass


class FeasibilityError(RuntimeError):
    def __init__(self, message: str, trajectory: Trajectory):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass
class ContractiveProjectionSpec:
    """P = (Id + U)/2 for an isometric involution U, and the image subspace
    descriptor (= Fix U) when known."""

    projection: OperatorExpr
    image: object | None


def projection_from_isometry(
    U: OperatorExpr,
    p: float,
    dim: int,
    seed: int = 0,
) -> ContractiveProjectionSpec:
    """Build the contractive projection of an isometric involution.

    U is checked exactly on its affine form (W, b), as the module docstring
    says, each test within ``ISOMETRY_TOL`` (relative to max|b| for the
    offset); a failure raises ``IsometryCheckError`` naming it.  ``seed``
    is accepted and unread.
    """
    U.check_dim(dim)
    form = U.affine_form(dim)
    if form is None:
        raise IsometryCheckError("U is not affine, so it is no isometry (Mazur-Ulam)")
    W, b = form
    eye = np.eye(dim)
    # the signed permutations are the orthogonal matrices with integer
    # entries; |W| <= 1 holds for each orthogonal W and keeps W^T W finite
    isometric = (np.abs(W).max() <= 1.0 + ISOMETRY_TOL
                 and np.abs(W.T @ W - eye).max() <= ISOMETRY_TOL
                 and (p == 2.0 or np.abs(W - np.round(W)).max() <= ISOMETRY_TOL))
    if not isometric:
        kind = "orthogonal" if p == 2.0 else "a signed permutation"
        raise IsometryCheckError(f"W is not {kind}, so U is no l{p:g} isometry")
    if not np.abs(W @ W - eye).max() <= ISOMETRY_TOL:
        raise IsometryCheckError("W^2 != I, so U^2 != Id")
    if not np.abs(W @ b + b).max() <= ISOMETRY_TOL * np.abs(b).max():
        raise IsometryCheckError("W b + b != 0, so U^2 != Id")
    return ContractiveProjectionSpec(projection=Averaged(U, 0.5), image=U.meta.fixed_points)


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
    specs,
    x0,
    stop: StopRule,
    sp: SpaceParams,
    n_fejer: int,
    seed: int,
) -> Trajectory:
    intersection = intersect_images(specs)
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
    traj.membership_residuals = [float(membership_residual(s.image, traj.limit, sp.p))
                                 for s in specs]
    for k, res in enumerate(traj.membership_residuals):
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
    T = compose([s.projection for s in reversed(specs)], sp)
    return _run_scheme(T, specs, x0, stop, sp, n_fejer, seed)


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
    T = convex_combination([s.projection for s in specs], weights)
    return _run_scheme(T, specs, x0, stop, sp, n_fejer, seed)


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
        spec = projection_from_isometry(U, sp.p, dim)
        if image_doc is not None:
            spec.image = set_from_json(image_doc)
        specs.append(spec)
    return specs
