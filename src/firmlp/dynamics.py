"""Fixed-point iteration with convergence monitors, resolvents, semigroups.

``picard_iterate`` runs x_{n+1} = T x_n until a step is at most
step_tol * max(||x_0||, first step), recording the distance to tracked fixed
points (nonincreasing for quasi-nonexpansive maps) and optionally the
metric projections of the iterates onto the fixed set.  Every verdict is
relative with no absolute floor, so a homogeneous T gives the same verdicts
from c * x_0 and c * y as from x_0 and y.

``asymptotic_regularity_report`` checks that step norms vanish and that
they obey the telescoping bound

    sum_n ||x_{n+1} - x_n||^r <= 2 alpha / (c_r (1 - alpha))
                                 * (||x_0 - y||^r - ||x_N - y||^r)

for each tracked fixed point y, which is what the quasi-firm inequality
gives after summing consecutive steps; it is evaluated on norm ratios, so
no r-th power overflows at large p.

Resolvents are ``operators.Resolvent`` nodes, whose docstring describes
their closed-form and iteration paths and the error of each.
n-fold products of resolvents at parameter t/n approximate the semigroup
generated by F, with firm constant n^(r-1)/(n^(r-1)+1), and are the
identity at t = 0.  ``semigroup_product`` is one node for n copies of the
step, so building it costs the same at every n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certify import _firm_slack, _separation
from .operators import OperatorExpr, ResolventDiverged, Scale, _Power, resolvent_operator
from .projections import project, sample_points
from .space import NonFiniteError, SpaceParams, lp_norm

__all__ = [
    "StopRule",
    "MonitorConfig",
    "Trajectory",
    "DivergenceError",
    "picard_iterate",
    "AsymptoticRegularityReport",
    "asymptotic_regularity_report",
    "resolvent_apply",
    "semigroup_product",
    "SemigroupEstimate",
    "semigroup_limit_estimate",
    "trajectory_to_csv",
]

OVERFLOW_FACTOR = 1e12
TELESCOPING_TOL = 1e-9  # on the quasi-firm slack over ||x_0 - y||^r
SEMIGROUP_TOL = 1e-8  # last Cauchy gap, relative to ||x||


@dataclass(frozen=True)
class StopRule:
    step_tol: float = 1e-10
    max_iter: int = 100_000

    def __post_init__(self):
        if not (math.isfinite(self.step_tol) and self.step_tol > 0):
            raise ValueError(f"step_tol must be finite and > 0, got {self.step_tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class MonitorConfig:
    """Which channels to record along an iteration.

    ``fejer_points`` is an (m, d) array of fixed points to track; with
    ``auto_fejer`` > 0 and fixed-point metadata on the operator, that many
    points are sampled from the fixed set instead.  ``track_fix_projections``
    records the metric projection of every iterate onto the fixed set.
    """

    sp: SpaceParams
    fejer_points: np.ndarray | None = None
    auto_fejer: int = 0
    seed: int = 0
    track_fix_projections: bool = False


@dataclass
class Trajectory:
    """Iterates with per-step monitor channels.

    ``step_norms[i]`` is ||iterates[i+1] - iterates[i]||; ``final_residual``
    is the displacement of the last iterate under one more application of
    the operator (the quantity the stop rule tested).  ``fejer_nonincreasing``:
    no tracked distance grew by more than 1e-12 times its initial value.
    """

    iterates: np.ndarray
    step_norms: np.ndarray
    final_residual: float
    converged: bool
    stop_reason: str  # "step_tol" | "max_iter" | "divergence"
    fejer_points: np.ndarray | None = None
    fejer_distances: np.ndarray | None = None
    fejer_nonincreasing: bool | None = None
    fix_projections: np.ndarray | None = None
    membership_residuals: list | None = None  # feasibility: the limit's residual to each image

    @property
    def limit(self) -> np.ndarray:
        return self.iterates[-1]


class DivergenceError(RuntimeError):
    """Iterates left the overflow guard region; carries the partial run
    (None from a batch of runs, which records none)."""

    def __init__(self, message: str, trajectory: Trajectory | None):
        super().__init__(message)
        self.trajectory = trajectory


def _attach_monitors(traj: Trajectory, T, monitors: MonitorConfig) -> Trajectory:
    sp = monitors.sp
    fixed_set = getattr(getattr(T, "meta", None), "fixed_points", None)
    pts = monitors.fejer_points
    if pts is None and monitors.auto_fejer > 0 and fixed_set is not None:
        rng = np.random.default_rng(monitors.seed)
        pts = sample_points(
            fixed_set, rng, monitors.auto_fejer, traj.iterates.shape[1], sp.p
        )
    if pts is not None:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        traj.fejer_points = pts
        dist = traj.fejer_distances = lp_norm(traj.iterates[:, None, :] - pts[None, :, :], sp.p)
        traj.fejer_nonincreasing = bool(np.all(np.diff(dist, axis=0) <= 1e-12 * dist[0]))
    if monitors.track_fix_projections and fixed_set is not None:
        traj.fix_projections = project(fixed_set, traj.iterates, sp)
    return traj


def picard_iterate(
    T: OperatorExpr,
    x0,
    stop: StopRule,
    monitors: MonitorConfig,
) -> Trajectory:
    """Iterate x_{n+1} = T x_n until a step is at most
    ``stop.step_tol * max(||x_0||, first step)`` or max_iter is reached.

    Step norms are measured in the lp norm of ``monitors.sp``.  The
    within-tolerance final application is not appended; its displacement
    is kept as ``final_residual``.  Iterates exceeding the overflow guard, or
    overflowing to Inf or NaN, raise ``DivergenceError`` carrying the
    partial trajectory, and a ``ResolventDiverged`` or ``NonFiniteError``
    raised by T propagates carrying it the same way.
    """
    if monitors is None:
        raise ValueError(
            "picard_iterate needs monitors: they carry the space whose norm measures the steps"
        )
    stop = stop or StopRule()
    p = monitors.sp.p
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1:
        raise ValueError("x0 must be a single vector")
    bound = float(lp_norm(x, p))  # ||x_n|| <= ||x_0|| + sum of steps
    guard = OVERFLOW_FACTOR * (1.0 + bound)
    iterates = [x]
    steps: list[float] = []
    failure = None
    while True:
        try:
            x_next = T(x)
        except (ResolventDiverged, NonFiniteError) as exc:
            failure, step, reason = exc, np.inf, "divergence"
            break
        try:
            step = float(lp_norm(x_next - x, p))
            if not steps:  # the stop is relative to max(||x_0||, first step)
                tol = stop.step_tol * max(bound, step)
            if step <= tol:
                reason = "step_tol"
                break
            bound += step
            if bound > guard:  # only then is the exact norm needed
                bound = float(lp_norm(x_next, p))
            escaped = bound > guard
        except ValueError:  # lp_norm rejects the Inf or NaN of an overflowed iterate
            step, escaped = np.inf, True
        if escaped:
            reason = "divergence"
            break
        iterates.append(x_next)
        steps.append(step)
        x = x_next
        if len(steps) >= stop.max_iter:
            reason = "max_iter"
            break
    traj = Trajectory(
        iterates=np.asarray(iterates),
        step_norms=np.asarray(steps),
        final_residual=step,
        converged=reason == "step_tol",
        stop_reason=reason,
    )
    _attach_monitors(traj, T, monitors)
    if reason == "divergence":
        failure = failure or DivergenceError(
            f"iterate norm exceeded the overflow guard after {len(steps)} steps", traj
        )
        failure.trajectory = traj
        raise failure
    return traj


def _picard_limits(T: OperatorExpr, starts, stop: StopRule, p: float) -> tuple[np.ndarray, int]:
    """The limits of ``picard_iterate`` from each row of ``starts``, run as
    one (m, d) batch, and the number of steps taken over all rows.

    Each row keeps the rules of a single run: its own tolerance
    ``stop.step_tol * max(||x_0||, first step)``, its limit the iterate
    before its within-tolerance application (or its last iterate at
    max_iter) and its own overflow guard, whose escape raises
    ``DivergenceError``.  A row within its tolerance leaves the batch;
    errors of T propagate.  ``picard_iterate`` is not this loop at m = 1:
    its norm of one vector takes the short path of ``lp_norm`` (1.2 us at
    d = 8 and p = 3 against 8 us for a (1, 8) batch, on a 2-vCPU x86
    host), and it records the run.
    """
    x = np.array(starts, dtype=float)
    limits = x.copy()
    rows = np.arange(len(x))
    bound = lp_norm(x, p)  # ||x_n|| <= ||x_0|| + sum of steps, per row
    guard = OVERFLOW_FACTOR * (1.0 + bound)
    total = 0
    for n in range(stop.max_iter):
        x_next = T(x)
        try:
            step = lp_norm(x_next - x, p)
        except NonFiniteError:  # the Inf or NaN of an overflowed row
            raise DivergenceError(f"an iterate overflowed after {n} steps", None) from None
        if n == 0:
            tol = stop.step_tol * np.maximum(bound, step)
        done = step <= tol
        if done.any():
            limits[rows[done]] = x[done]
            live = ~done
            rows, x, x_next, step, tol, bound, guard = (
                a[live] for a in (rows, x, x_next, step, tol, bound, guard)
            )
            if not rows.size:
                return limits, total
        bound += step
        over = bound > guard
        if over.any():  # only there is the exact norm needed
            bound[over] = lp_norm(x_next[over], p)
            if (bound > guard).any():
                raise DivergenceError(
                    f"an iterate norm exceeded the overflow guard after {n + 1} steps", None
                )
        x = x_next
        total += len(rows)
    limits[rows] = x
    return limits, total


@dataclass
class AsymptoticRegularityReport:
    """Step-norm decay and telescoping-bound verdicts for one trajectory."""

    step_norms: np.ndarray
    final_residual: float
    final_below_tol: bool
    bound_checked: bool
    bound_ok: bool | None
    # per tracked y: ||steps||_r and ||x_N - y|| over ||x_0 - y||, and the
    # quasi-firm slack plus TELESCOPING_TOL (the bound holds iff it is >= 0)
    per_point: list = field(default_factory=list)
    note: str = ""


def asymptotic_regularity_report(
    traj: Trajectory,
    T_meta,
    sp: SpaceParams,
) -> AsymptoticRegularityReport:
    """Check step-norm decay and the telescoping step bound.

    Over d_0^r, d_k = ||x_k - y||, the bound is the quasi-firm slack

        1 - (c_r/2)((1 - alpha)/alpha) ||steps/d_0||_r^r - (d_N/d_0)^r,

    which passes when it is >= -``TELESCOPING_TOL``; a start with d_0 = 0
    has slack 0.  The bound needs a firm constant from the operator
    metadata; without one the check is skipped and flagged in ``note``.
    Tracked fixed points come from the trajectory's monitor channel.
    """
    alpha = getattr(T_meta, "alpha_firm", None)
    per_point = []
    ok = None
    note = ""
    if alpha is None:
        note = "no firm constant in metadata; telescoping bound skipped"
    elif traj.fejer_points is None or len(traj.fejer_points) == 0:
        note = "no tracked fixed points; telescoping bound skipped"
    else:
        d0, dN = lp_norm(traj.iterates[[0, -1], None, :] - traj.fejer_points, sp.p)
        s = _separation(d0)
        # ||steps/d_0||_r = ||steps||_r / d_0, and the norm is exact at any scale
        steps = lp_norm(traj.step_norms, sp.r) / s
        margins = _firm_slack(d0 / s, steps, dN / s, alpha, sp) + TELESCOPING_TOL
        per_point = [tuple(map(float, row)) for row in zip(steps, dN / s, margins)]
        ok = all(margin >= 0.0 for *_, margin in per_point)
    return AsymptoticRegularityReport(
        step_norms=traj.step_norms,
        final_residual=traj.final_residual,
        final_below_tol=traj.converged,
        bound_checked=ok is not None,
        bound_ok=ok,
        per_point=per_point,
        note=note,
    )


def resolvent_apply(F: OperatorExpr, lam: float, x, sp: SpaceParams):
    """Evaluate the resolvent of F at parameter lam >= 0 (lam = 0 is the
    identity) through the ``Resolvent`` node: the dimension of x is checked,
    an uncertified F warns, and the stop rule is the node's."""
    return resolvent_operator(F, lam, sp)(x)


def semigroup_product(F: OperatorExpr, t: float, n: int, sp: SpaceParams) -> OperatorExpr:
    """n-fold product of resolvents at parameter t/n; firm constant
    n^(r-1)/(n^(r-1)+1).

    The product is one node holding the step and n, with the metadata and
    values of the n-fold composition of the step; an affine step's product
    compiles by squaring.  It has no JSON form: no config writes a product.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"semigroup t must be finite and >= 0, got {t}")
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return _Power(resolvent_operator(F, t / n, sp), n, sp)


@dataclass
class SemigroupEstimate:
    """Semigroup product values along an n-schedule, with Cauchy diagnostics
    and, for scaling generators, closed-form errors and axiom checks."""

    schedule: tuple
    values: np.ndarray  # (len(schedule), d)
    diffs: np.ndarray  # successive value gaps
    cauchy_ok: bool
    value: np.ndarray | None  # last evaluation, if any
    closed_form_errors: np.ndarray | None = None
    axiom_checks: dict | None = None


def semigroup_limit_estimate(
    F: OperatorExpr,
    t: float,
    x,
    n_schedule,
    sp: SpaceParams,
) -> SemigroupEstimate:
    """Evaluate the n-fold resolvent products along an increasing schedule.

    ``cauchy_ok``: the last gap is within ``SEMIGROUP_TOL * ||x||``, or each
    gap is at most 0.95 times the one before.  For a scaling generator
    F = c*Id the limit e^{-(1-c)t} x is exact, so errors against it and the
    semigroup axioms (identity at t -> 0, additivity, nonexpansiveness) are
    reported as well.

    A ``ResolventDiverged`` or ``NonFiniteError`` from a product propagates
    carrying the products finished before it as ``estimate`` (not Cauchy).
    """
    schedule = tuple(int(n) for n in n_schedule)
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("n_schedule must be nonempty and strictly increasing")
    x = np.asarray(x, dtype=float)
    x_norm = float(lp_norm(x, sp.p))
    values, failure = np.empty((len(schedule), x.size)), None
    for k, n in enumerate(schedule):
        try:
            values[k] = semigroup_product(F, t, n, sp)(x)
        except (ResolventDiverged, NonFiniteError) as exc:
            failure, schedule, values = exc, schedule[:k], values[:k]
            break
    diffs = lp_norm(np.diff(values, axis=0), sp.p)
    last_ok = diffs.size == 0 or diffs[-1] <= SEMIGROUP_TOL * x_norm
    cauchy_ok = failure is None and bool(last_ok or np.all(diffs[1:] <= 0.95 * diffs[:-1]))
    est = SemigroupEstimate(schedule, values, diffs, cauchy_ok, values[-1] if len(values) else None)
    if failure is not None:
        failure.estimate = est
        raise failure
    if isinstance(F, Scale):
        rate = 1.0 - F.factor
        est.closed_form_errors = lp_norm(values - np.exp(-rate * t) * x, sp.p)
        n_big = schedule[-1]
        t_small = min(t, 1e-3)  # at t = 0 every product is Id exactly
        near_id = semigroup_product(F, t_small, n_big, sp)(x)
        half = semigroup_product(F, t / 2.0, n_big, sp) if t > 0 else None
        axioms = {
            "identity_at_zero": float(lp_norm(near_id - x, sp.p)),
            "identity_at_zero_bound": abs(rate) * t_small * x_norm * 1.01,
        }
        if half is not None:
            additivity_gap = lp_norm(half(half(x)) - est.value, sp.p)
            axioms["additivity"] = float(additivity_gap)
            # composing two n-products at t/2 equals the 2n-product at t, so
            # the gap is the schedule refinement error, O(t^2/n) here, plus
            # rounding relative to ||x||
            axioms["additivity_bound"] = (2.0 * rate**2 * t**2 / n_big + 1e-12) * x_norm
        est.axiom_checks = axioms
    return est


def fmt(v: float) -> str:
    """``v`` with 17 significant digits: round-trip exact."""
    return format(float(v), ".17g")


def trajectory_to_csv(traj: Trajectory, fh) -> None:
    """Write the trajectory in CSV form: n, coordinates, step norm into the
    iterate, tracked distances, projection coordinates when present.
    Numbers carry 17 significant digits (round-trip exact)."""
    d = traj.iterates.shape[1]
    cols = ["n"] + [f"x_{i+1}" for i in range(d)] + ["step_norm"]
    m = 0 if traj.fejer_distances is None else traj.fejer_distances.shape[1]
    cols += [f"fejer_dist_{k+1}" for k in range(m)]
    tail = [traj.fejer_distances] if m else []
    if traj.fix_projections is not None:
        cols += [f"proj_x_{i+1}" for i in range(d)]
        tail.append(traj.fix_projections)
    fh.write(",".join(cols) + "\n")
    # one %-format per row over Python floats: "%.17g" % v is fmt(v)
    head, rest = "%d" + ",%.17g" * d, ",%.17g" * (len(cols) - d - 2)
    steps = np.concatenate([[0.0], traj.step_norms])  # a placeholder in row 0
    rows = np.column_stack([traj.iterates, steps, *tail]).tolist()
    fh.write((head + "," + rest + "\n") % (0, *rows[0][:d], *rows[0][d + 1:]))
    line = head + ",%.17g" + rest + "\n"
    fh.writelines(line % (i, *row) for i, row in enumerate(rows[1:], 1))
