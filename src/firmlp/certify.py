"""Sampled falsification of operator inequalities.

A certification run draws deterministic sample pairs, evaluates an
inequality residual on every pair and reports the worst residual relative
to its scale, together with the witnessing pair.  A pass means "no
counterexample found at this tolerance on these samples"; it is a
falsifier, not a proof, since the properties quantify over the whole space.

A residual is the slack over ||x - y||^r (||x - y|| for nonexpansiveness
and Bruck), 0 at x = y and with no floor, so tolerances are scale-free; the
firm terms enter as norm ratios over ||x - y||, so no r-th power overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .projections import sample_points
from .space import SpaceParams, lp_norm

__all__ = [
    "Sampler",
    "CertReport",
    "firm_residual",
    "certify_alpha_firm",
    "certify_quasi_alpha_firm",
    "certify_nonexpansive",
    "bruck_phi",
    "certify_bruck_firm",
    "report_to_json",
    "DEFAULT_TOL",
    "DEFAULT_W_GRID",
]

DEFAULT_TOL = 1e-9
DEFAULT_W_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99)


@dataclass
class Sampler:
    """Deterministic point cloud generator.

    ``dist`` is "uniform" (coordinates in [low, high]) or "gaussian"
    (centred, standard deviation ``scale``).  ``constraint`` restricts the
    draw to exact members of a convex set; ``min_norm`` rescales points to
    lp norm >= min_norm (for certification on restricted outer regions).
    Draws are reproducible: the generator is reseeded on every call.
    """

    seed: int
    dim: int
    dist: str = "uniform"
    low: float = -10.0
    high: float = 10.0
    scale: float = 1.0
    constraint: object | None = None
    min_norm: float | None = None

    def __post_init__(self):
        for name in ("low", "high", "scale", "min_norm"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"sampler {name} must be finite, got {value}")
        if self.low > self.high:
            raise ValueError(f"sampler low must not exceed high, got {self.low} > {self.high}")

    def draw(self, n: int, p: float) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        if self.constraint is not None:
            pts = sample_points(
                self.constraint, rng, n, self.dim, p, scale=max(abs(self.low), abs(self.high))
            )
        elif self.dist == "uniform":
            pts = rng.uniform(self.low, self.high, size=(n, self.dim))
        elif self.dist == "gaussian":
            pts = self.scale * rng.standard_normal(size=(n, self.dim))
        else:
            raise ValueError(f"unknown sampling distribution {self.dist!r}")
        if self.min_norm is not None:
            norms = lp_norm(pts, p)
            dead = norms == 0.0
            if np.any(dead):
                pts[dead, 0] = 1.0
                norms = lp_norm(pts, p)
            factor = np.maximum(1.0, (self.min_norm / norms) * (1.0 + 1e-9))
            pts = pts * factor[:, None]
        return pts


@dataclass
class CertReport:
    """Outcome of one sampled certification."""

    property: str
    samples: int
    worst_residual: float  # relative to the per-pair scale
    witness: tuple | None
    estimated_min_alpha: float | None
    passed: bool
    degenerate_pairs: int = 0
    details: dict = field(default_factory=dict)


def report_to_json(report: CertReport) -> dict:
    doc = {
        "property": report.property,
        "samples": report.samples,
        "worst_residual": report.worst_residual,
        "witness": None,
        "estimated_min_alpha": report.estimated_min_alpha,
        "passed": report.passed,
        "degenerate_pairs": report.degenerate_pairs,
        "details": report.details,
    }
    if report.witness is not None:
        doc["witness"] = {
            "x": np.asarray(report.witness[0]).tolist(),
            "y": np.asarray(report.witness[1]).tolist(),
        }
    return doc


def _firm_terms(x, y, tx, ty, p: float):
    """The three norms of the firm inequality at the pairs (x, y):
    ||x-y||, ||(Id-T)x - (Id-T)y|| and ||Tx-Ty||."""
    return lp_norm(x - y, p), lp_norm((x - tx) - (y - ty), p), lp_norm(tx - ty, p)


def _firm_slack(sep, disp, out, alpha: float, sp: SpaceParams):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    coeff = 0.5 * sp.c_r * (1.0 - alpha) / alpha
    return sep**sp.r - coeff * disp**sp.r - out**sp.r


def firm_residual(T, x, y, alpha: float, sp: SpaceParams):
    """Slack of the firm inequality at one constant alpha:

    ||x-y||^r - (c_r/2)((1-alpha)/alpha)||(Id-T)x - (Id-T)y||^r - ||Tx-Ty||^r.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _firm_slack(*_firm_terms(x, y, T(x), T(y), sp.p), alpha, sp)


def _min_alpha_estimate(gain: np.ndarray, disp: np.ndarray, c_r: float):
    """Smallest alpha certified by the sampled pairs.

    Solving the firm inequality for alpha pairwise gives
    alpha >= 1/(1 + beta), beta = 2 gain / (c_r disp); pairs with zero
    displacement are alpha-independent and skipped.  Returns (estimate,
    number of degenerate pairs); the estimate is absent when some pair
    admits no alpha in (0, 1).
    """
    active = disp > 0.0
    degenerate = int(np.size(disp) - np.count_nonzero(active))
    if not np.any(active):
        return None, degenerate
    beta = 2.0 * gain[active] / (c_r * disp[active])
    if np.any(beta <= 0.0):
        return None, degenerate
    return float(np.max(1.0 / (1.0 + beta))), degenerate


def _separation(sep):
    """||x - y|| as a divisor, 1 at x = y, where every difference is 0."""
    return np.where(sep > 0.0, sep, 1.0)


def _check_run(n: int, tol: float) -> None:
    if n < 1:
        raise ValueError("need at least one sample")
    if not math.isfinite(tol):
        raise ValueError(f"certification tol must be finite, got {tol}")


def _worst_pair_report(prop: str, x, y, rel: np.ndarray, tol: float, **fields) -> CertReport:
    """Report the pair with the smallest relative residual ``rel`` as the
    witness; the check passes when that residual is >= -tol."""
    worst = int(np.argmin(rel))
    return CertReport(
        property=prop,
        samples=len(rel),
        worst_residual=float(rel[worst]),
        witness=(x[worst].copy(), y[worst].copy()),
        passed=bool(rel[worst] >= -tol),
        **fields,
    )


def _firm_report(prop: str, x, y, tx, ty, alpha: float, sp: SpaceParams, tol: float):
    # norms of the unscaled differences (T = Id leaves exact zeros) over ||x - y||
    terms = _firm_terms(x, y, tx, ty, sp.p)
    s = _separation(terms[0])
    sep, disp, out = (t / s for t in terms)
    rel = _firm_slack(sep, disp, out, alpha, sp)
    est, degenerate = _min_alpha_estimate(sep - out**sp.r, disp**sp.r, sp.c_r)
    return _worst_pair_report(
        prop, x, y, rel, tol,
        estimated_min_alpha=est,
        degenerate_pairs=degenerate,
        details={"alpha": alpha, "p": sp.p, "r": sp.r, "c_r": sp.c_r, "tol": tol},
    )


def certify_alpha_firm(
    T,
    alpha: float,
    sp: SpaceParams,
    samplers: tuple[Sampler, Sampler],
    n: int = 10_000,
    tol: float = DEFAULT_TOL,
) -> CertReport:
    """Check the firm inequality at alpha on n sampled pairs (x from the
    first sampler, y from the second); estimates the minimal certified alpha."""
    _check_run(n, tol)
    d_sampler, e_sampler = samplers
    x = d_sampler.draw(n, sp.p)
    y = e_sampler.draw(n, sp.p)
    return _firm_report("alpha_firm", x, y, T(x), T(y), alpha, sp, tol)


def certify_quasi_alpha_firm(
    T,
    alpha: float,
    sp: SpaceParams,
    fix_sampler: Sampler | None,
    x_sampler: Sampler,
    n: int = 10_000,
    tol: float = DEFAULT_TOL,
) -> CertReport:
    """Check the quasi-firm inequality: y drawn from Fix T, x anywhere.

    This is the firm inequality with Ty = y.  When ``fix_sampler`` is None
    it is derived from the operator's fixed-point metadata; sampled y
    values are verified to be fixed.
    """
    _check_run(n, tol)
    if fix_sampler is None:
        fixed_set = getattr(getattr(T, "meta", None), "fixed_points", None)
        if fixed_set is None:
            raise ValueError(
                "operator carries no fixed-point metadata; pass an explicit fix_sampler"
            )
        fix_sampler = Sampler(
            seed=x_sampler.seed + 1,
            dim=x_sampler.dim,
            low=x_sampler.low,
            high=x_sampler.high,
            constraint=fixed_set,
        )
    x = x_sampler.draw(n, sp.p)
    y = fix_sampler.draw(n, sp.p)
    fix_err = lp_norm(T(y) - y, sp.p)
    if np.any(fix_err > 1e-8 * lp_norm(y, sp.p)):
        raise ValueError("sampled y points are not fixed by T; bad fixed-point data")
    return _firm_report("quasi_alpha_firm", x, y, T(x), y, alpha, sp, tol)


def certify_nonexpansive(
    T,
    p: float,
    sampler: Sampler,
    n: int = 10_000,
    tol: float = DEFAULT_TOL,
) -> CertReport:
    """Check ||Tx - Ty|| <= ||x - y|| on sampled pairs."""
    _check_run(n, tol)
    pts = sampler.draw(2 * n, p)
    x, y = pts[:n], pts[n:]
    sep = lp_norm(x - y, p)
    out = lp_norm(T(x) - T(y), p)
    rel = (sep - out) / _separation(sep)
    return _worst_pair_report(
        "nonexpansive", x, y, rel, tol, estimated_min_alpha=None, details={"p": p, "tol": tol}
    )


def _bruck_phi(dxy, dtxy, w: float, p: float):
    return lp_norm((1.0 - w) * dxy + w * dtxy, p)


def bruck_phi(T, x, y, w: float, p: float):
    """phi(w) = ||(1-w)x + wTx - ((1-w)y + wTy)||_p; phi(0) = ||x - y||,
    phi(1) = ||Tx - Ty||."""
    if not 0.0 <= w <= 1.0:
        raise ValueError("w must lie in [0, 1]")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _bruck_phi(x - y, T(x) - T(y), w, p)


def certify_bruck_firm(
    T,
    sp: SpaceParams,
    sampler: Sampler,
    w_grid=None,
    n: int = 10_000,
    tol: float = DEFAULT_TOL,
) -> CertReport:
    """Check phi(1) <= phi(w) over a weight grid on sampled pairs.

    A pair's residual is its smallest over the grid.  On pass the report
    lists the firm constants 1/(1+w) implied by each grid point and stores
    the strongest one as ``estimated_min_alpha``.
    """
    _check_run(n, tol)
    w_grid = tuple(DEFAULT_W_GRID if w_grid is None else w_grid)
    if not w_grid:
        raise ValueError("w_grid must be nonempty")
    if any(not 0.0 <= w < 1.0 for w in w_grid):
        raise ValueError("grid weights must lie in [0, 1)")
    pts = sampler.draw(2 * n, sp.p)
    x, y = pts[:n], pts[n:]
    dxy = x - y
    dtxy = T(x) - T(y)
    phi1 = lp_norm(dtxy, sp.p)
    scale = _separation(lp_norm(dxy, sp.p))
    rel = np.full(n, np.inf)
    k_min = np.zeros(n, dtype=int)  # grid index attaining each pair's residual
    for k, w in enumerate(w_grid):
        rel_k = (_bruck_phi(dxy, dtxy, w, sp.p) - phi1) / scale
        lower = rel_k < rel
        rel = np.where(lower, rel_k, rel)
        k_min = np.where(lower, k, k_min)
    report = _worst_pair_report(
        "bruck_firm", x, y, rel, tol,
        estimated_min_alpha=None,
        details={
            "p": sp.p,
            "tol": tol,
            "w_grid": list(w_grid),
            "worst_w": w_grid[k_min[int(np.argmin(rel))]],
            "implied_alphas": {},
        },
    )
    if report.passed:
        report.estimated_min_alpha = 1.0 / (1.0 + max(w_grid))
        report.details["implied_alphas"] = {str(w): 1.0 / (1.0 + w) for w in w_grid}
    return report
