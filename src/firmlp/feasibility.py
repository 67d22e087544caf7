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

The image Fix U = {P x + c}, P = (I + W)/2 and c = b/2, is read off the
same form: an equal-coordinate set when each row of P averages its own
support (a zero row pins x_i at c_i) and c vanishes off the pins; no set
kind describes any other (x_i = -x_j, say).  The images are intersected
structurally, so a limit's membership is checked exactly, not by probing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import MonitorConfig, StopRule, Trajectory, _picard_limits, picard_iterate
from .operators import (
    Averaged,
    OperatorExpr,
    compose,
    convex_combination,
    operator_from_json,
)
from .projections import (
    EMPTY_INTERSECTION,
    AffineEqual,
    membership_residual,
    merge_fixed_point_sets,
    project,
    sample_points,
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
LIMIT_STOP = StopRule(step_tol=1e-12)  # the multi-start runs of fixed_set_equality_check


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
    """P = (Id + U)/2 for an isometric involution U, and its image Fix U as
    an ``AffineEqual``, or None when no set kind describes it."""

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
    offset); a failure raises ``IsometryCheckError`` naming it.  The image
    is read off the same form.  ``seed`` is accepted and unread.
    """
    U.check_dim(dim)
    form = U.affine_form(dim)
    if form is None:
        raise IsometryCheckError("U is not affine, so it is no isometry (Mazur-Ulam)")
    W, b = form
    eye = np.eye(dim)
    b_max = np.abs(b).max()
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
    if not np.abs(W @ b + b).max() <= ISOMETRY_TOL * b_max:
        raise IsometryCheckError("W b + b != 0, so U^2 != Id")
    return ContractiveProjectionSpec(projection=Averaged(U, 0.5),
                                     image=_image((eye + W) / 2.0, b, b_max))


def _image(P, b, b_max):
    """Fix U = {P x + b/2} as an ``AffineEqual``, or None (see the module
    docstring); as P is symmetric and P^2 = P, a block's first row is its
    head."""
    support = np.abs(P) > ISOMETRY_TOL
    n = support.sum(axis=1)
    if (np.abs(P - support / np.maximum(n, 1)[:, None]).max() > ISOMETRY_TOL
            or np.abs(b[n > 0]).max(initial=0.0) > ISOMETRY_TOL * b_max):
        return None
    groups, fixed = [], []
    for i, row in enumerate(support.tolist()):
        if True not in row:
            fixed.append((i, b[i] / 2.0))
        elif row.index(True) == i and n[i] > 1:
            groups.append([j for j, s in enumerate(row) if s])
    return AffineEqual(groups=groups, fixed=fixed)


def intersect_images(specs) -> object:
    """Structural intersection of the image subspaces.

    Raises ``EmptyIntersectionError`` on a provable contradiction and
    ``ValueError`` when no set kind describes an image or the intersection.
    """
    merged = merge_fixed_point_sets([s.image for s in specs])
    if merged is EMPTY_INTERSECTION:
        raise EmptyIntersectionError("image subspaces have provably empty intersection")
    if merged is None:
        raise ValueError("no set kind describes an image subspace or their intersection")
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
    traj = picard_iterate(T, x0, stop, MonitorConfig(sp=sp, fejer_points=fejer))
    traj.fix_projections = project(intersection, traj.iterates, sp)
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
    picard_steps: int  # over all starts
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
    uniform average; limits of the cyclic product from max(n // 10, 3)
    random starts must lie in every image subspace.  The starts are
    iterated as one batch, each row stopping as its own ``picard_iterate``
    run would (under ``LIMIT_STOP``); ``picard_steps`` totals their steps.
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
    limits, steps = _picard_limits(composed, starts, LIMIT_STOP, sp.p)
    membership = np.max([membership_residual(s.image, limits, sp.p) for s in specs], axis=0)
    fixed = np.maximum(disp_c, disp_a) <= FIX_TOL * lp_norm(pts, sp.p)
    within = membership <= MEMBERSHIP_TOL * np.maximum(np.abs(starts), np.abs(limits)).max(axis=1)
    return FixedSetEqualityReport(
        n_intersection_samples=n,
        max_composed_displacement=float(disp_c.max()),
        max_averaged_displacement=float(disp_a.max()),
        n_iteration_limits=len(starts),
        picard_steps=steps,
        max_limit_membership=float(membership.max()),
        ok=bool(fixed.all() and within.all()),
    )


def load_instance_json(doc: list, sp: SpaceParams, dim: int) -> list[ContractiveProjectionSpec]:
    """Build projection specs from a JSON instance: a list of isometry
    operator documents (swap index pairs, scalings or explicit matrices)."""
    if not doc:
        raise ValueError("'isometries' lists no isometry")
    return [projection_from_isometry(operator_from_json(iso, sp, dim), sp.p, dim) for iso in doc]
