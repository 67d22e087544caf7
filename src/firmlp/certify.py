"""Sampled falsification of operator inequalities.

A certification run draws deterministic sample pairs, evaluates an
inequality residual on every pair and reports the worst residual relative
to its scale, together with the witnessing pair.  A pass means "no
counterexample found at this tolerance on these samples"; it is a
falsifier, not a proof, since the properties quantify over the whole space.

A residual is the slack over ||x - y||^r (||x - y|| for nonexpansiveness
and Bruck), 0 at x = y and with no floor, so tolerances are scale-free; the
firm terms enter as norm ratios over ||x - y||, so no r-th power overflows.

One loop, ``_falsify``, serves the four properties: it takes the pairs in
near-equal row chunks of at most a few thousand rows, evaluates T and the
property's residual on each chunk and keeps the first worst pair, so memory
is bounded in n and the report is the one the whole batch would give.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .projections import sample_points
from .space import SpaceParams, _row_chunks, lp_norm

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

    ``chunks`` yields the rows of ``draw`` in row chunks.  A plain uniform
    or gaussian draw is one stream of rows, so its chunks are drawn one
    after another from one generator; a ``constraint`` draw (its columns
    and radii come after its rows) and a ``min_norm`` draw are made whole
    and sliced.
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

    def _rows(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.dist == "uniform":
            return rng.uniform(self.low, self.high, size=(n, self.dim))
        if self.dist == "gaussian":
            return self.scale * rng.standard_normal(size=(n, self.dim))
        raise ValueError(f"unknown sampling distribution {self.dist!r}")

    def draw(self, n: int, p: float) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        if self.constraint is not None:
            pts = sample_points(
                self.constraint, rng, n, self.dim, p, scale=max(abs(self.low), abs(self.high))
            )
        else:
            pts = self._rows(rng, n)
        if self.min_norm is not None:
            norms = lp_norm(pts, p)
            dead = norms == 0.0
            if np.any(dead):
                pts[dead, 0] = 1.0
                norms = lp_norm(pts, p)
            factor = np.maximum(1.0, (self.min_norm / norms) * (1.0 + 1e-9))
            pts = pts * factor[:, None]
        return pts

    def chunks(self, n: int, p: float):
        """The rows of ``draw(n, p)``, one array per slice of the row chunks."""
        if self.constraint is None and self.min_norm is None:
            rng = np.random.default_rng(self.seed)
            return (self._rows(rng, s.stop - s.start) for s in _row_chunks(n))
        pts = self.draw(n, p)
        return (pts[s] for s in _row_chunks(n))


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
    doc = asdict(report)
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


def _min_alpha_bound(sep, disp, out, sp: SpaceParams):
    """The smallest alpha the sampled pairs allow, from the firm terms over
    ||x - y|| (``sep`` is 1, or 0 at x = y).

    Solving the firm inequality for alpha pairwise gives
    alpha >= 1/(1 + beta), beta = gain / term, with the gain
    sep^r - out^r and the displacement term (c_r/2) disp^r.  A pair whose
    term is within the rounding of its gain, r eps max(sep^r, out^r) (out^r
    carries r times the rounding of out), bounds no alpha: it is degenerate
    and skipped, as is every pair with zero displacement.  Returns
    (bound, number of degenerate pairs).  The bound is the largest
    1/(1 + beta), -inf when no pair bounds alpha and +inf when some pair
    admits no alpha in (0, 1), so the bound of a union of pair sets is the
    max of their bounds, and the estimate is that bound where it is finite.
    """
    out_r, disp_r = out**sp.r, disp**sp.r
    gain = sep - out_r  # sep^r = sep
    # (c_r/2) disp^r > r eps max(sep^r, out^r), with the scalars on one side
    active = disp_r > (2.0 * sp.r * np.finfo(float).eps / sp.c_r) * np.maximum(sep, out_r)
    degenerate = int(np.size(gain) - np.count_nonzero(active))
    if not np.any(active):
        return -math.inf, degenerate
    beta = 2.0 * gain[active] / (sp.c_r * disp_r[active])
    if np.any(beta <= 0.0):
        return math.inf, degenerate
    return float(np.max(1.0 / (1.0 + beta))), degenerate


def _separation(sep):
    """||x - y|| as a divisor, 1 at x = y, where every difference is 0."""
    return np.where(sep > 0.0, sep, 1.0)


def _check_run(n: int, tol: float) -> None:
    if n < 1:
        raise ValueError("need at least one sample")
    if not math.isfinite(tol):
        raise ValueError(f"certification tol must be finite, got {tol}")


class _Chunk(NamedTuple):
    """A property's residuals on one chunk of pairs."""

    rel: np.ndarray  # each pair's residual relative to its scale
    alpha_bound: float = -math.inf  # as _min_alpha_bound; -inf bounds nothing
    degenerate: int = 0
    grid_index: np.ndarray | None = None  # Bruck: the weight attaining each residual


def _falsify(prop: str, T, pairs, n: int, residual, tol: float, details: dict) -> CertReport:
    """Certify one property on n pairs, given as (x, y) row chunks.

    ``residual(x, y, Tx, Ty)`` returns the property's ``_Chunk``.  The
    witness is the pair with the smallest relative residual, the first of
    equal ones and a NaN before any number, as np.argmin over the whole
    batch picks it; the check passes when that residual is >= -tol.  The
    alpha bounds and degenerate counts of the chunks are merged, and a
    Bruck report's ``worst_w`` is the weight attaining the witness's residual.
    """
    worst = None
    bound, degenerate = -math.inf, 0
    for x, y in pairs:
        chunk = residual(x, y, T(x), T(y))
        i = int(np.argmin(chunk.rel))
        rel = chunk.rel[i]
        if worst is None or rel < worst[0] or (np.isnan(rel) and not np.isnan(worst[0])):
            k = None if chunk.grid_index is None else chunk.grid_index[i]
            worst = (rel, x[i].copy(), y[i].copy(), k)
        bound = max(bound, chunk.alpha_bound)
        degenerate += chunk.degenerate
    rel, x, y, k = worst
    if k is not None:
        details["worst_w"] = details["w_grid"][k]
    return CertReport(
        property=prop,
        samples=n,
        worst_residual=float(rel),
        witness=(x, y),
        estimated_min_alpha=bound if math.isfinite(bound) else None,
        passed=bool(rel >= -tol),
        degenerate_pairs=degenerate,
        details=details,
    )


def _split(pts: np.ndarray, n: int):
    """(x, y) row chunks of a 2n-row draw: x its first n rows, y the rest."""
    x, y = pts[:n], pts[n:]
    return ((x[s], y[s]) for s in _row_chunks(n))


def _firm_chunk(x, y, tx, ty, alpha: float, sp: SpaceParams) -> _Chunk:
    # norms of the unscaled differences (T = Id leaves exact zeros) over ||x - y||
    terms = _firm_terms(x, y, tx, ty, sp.p)
    s = _separation(terms[0])
    sep, disp, out = (t / s for t in terms)
    return _Chunk(_firm_slack(sep, disp, out, alpha, sp), *_min_alpha_bound(sep, disp, out, sp))


def _firm_details(alpha: float, sp: SpaceParams, tol: float) -> dict:
    return {"alpha": alpha, "p": sp.p, "r": sp.r, "c_r": sp.c_r, "tol": tol}


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
    return _falsify(
        "alpha_firm", T, zip(d_sampler.chunks(n, sp.p), e_sampler.chunks(n, sp.p)), n,
        lambda x, y, tx, ty: _firm_chunk(x, y, tx, ty, alpha, sp),
        tol, _firm_details(alpha, sp, tol),
    )


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
    values are verified to be fixed, chunk by chunk before they are used.
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

    def residual(x, y, tx, ty):
        if np.any(lp_norm(ty - y, sp.p) > 1e-8 * lp_norm(y, sp.p)):
            raise ValueError("sampled y points are not fixed by T; bad fixed-point data")
        return _firm_chunk(x, y, tx, y, alpha, sp)

    return _falsify(
        "quasi_alpha_firm", T, zip(x_sampler.chunks(n, sp.p), fix_sampler.chunks(n, sp.p)), n,
        residual, tol, _firm_details(alpha, sp, tol),
    )


def certify_nonexpansive(
    T,
    p: float,
    sampler: Sampler,
    n: int = 10_000,
    tol: float = DEFAULT_TOL,
) -> CertReport:
    """Check ||Tx - Ty|| <= ||x - y|| on sampled pairs."""
    _check_run(n, tol)

    def residual(x, y, tx, ty):
        sep = lp_norm(x - y, p)
        return _Chunk((sep - lp_norm(tx - ty, p)) / _separation(sep))

    return _falsify(
        "nonexpansive", T, _split(sampler.draw(2 * n, p), n), n, residual, tol,
        {"p": p, "tol": tol},
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

    def residual(x, y, tx, ty):
        dxy, dtxy = x - y, tx - ty
        phi1 = lp_norm(dtxy, sp.p)
        scale = _separation(lp_norm(dxy, sp.p))
        rel = np.full(len(x), np.inf)
        k_min = np.zeros(len(x), dtype=int)  # grid index attaining each pair's residual
        for k, w in enumerate(w_grid):
            rel_k = (_bruck_phi(dxy, dtxy, w, sp.p) - phi1) / scale
            lower = rel_k < rel
            rel = np.where(lower, rel_k, rel)
            k_min = np.where(lower, k, k_min)
        return _Chunk(rel, grid_index=k_min)

    report = _falsify(
        "bruck_firm", T, _split(sampler.draw(2 * n, sp.p), n), n, residual, tol,
        {"p": sp.p, "tol": tol, "w_grid": list(w_grid), "worst_w": None, "implied_alphas": {}},
    )
    if report.passed:
        report.estimated_min_alpha = 1.0 / (1.0 + max(w_grid))
        report.details["implied_alphas"] = {str(w): 1.0 / (1.0 + w) for w in w_grid}
    return report
