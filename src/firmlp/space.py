"""Finite lp vectors and the uniform-convexity constants of the ambient space.

Vectors are plain 1-d float arrays; batches stack them along leading axes.
Every distance in this package is the lp norm, and every inequality residual
is measured with that norm raised to the power type r of the space.  The
constants (r, c_r, K) come from the standard two-point inequalities for lp:
r = p with K = 1 for p >= 2, and r = 2 with K = 1/sqrt(p-1) for p in (1, 2].
The c_r values are conservative (obtained by converting the midpoint
inequality) and are not claimed sharp.

Residual convention: each ``*_residual`` function returns the slack of its
inequality, so a nonnegative value means the inequality held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonFiniteError",
    "SpaceParams",
    "space_params",
    "lp_norm",
    "norm_pow",
    "convexity_residual",
    "ball_inequality_residual",
]


class NonFiniteError(ValueError):
    """A norm or projection met NaN or Inf: a run overflowed, or it was
    given a non-finite vector."""


def _check_p(p: float) -> float:
    p = float(p)
    if not math.isfinite(p) or p <= 1.0:
        raise ValueError(f"p must be a finite real in (1, inf), got {p!r}")
    return p


@dataclass(frozen=True)
class SpaceParams:
    """Geometry constants (p, r, c_r, K) of a truncated lp space."""

    p: float
    r: float
    c_r: float
    K: float

    def __post_init__(self):
        _check_p(self.p)
        if self.r < 2.0:
            raise ValueError("power type r must be >= 2")
        if not 0.0 < self.c_r <= 2.0:
            raise ValueError("c_r must lie in (0, 2]")
        if self.K <= 0.0:
            raise ValueError("K must be positive")


def space_params(p: float) -> SpaceParams:
    """Constants of lp for p in (1, inf).

    p >= 2 uses power type r = p with K = 1 and c_r = 4/2^p; p in (1, 2)
    is 2-uniformly convex with K = 1/sqrt(p-1) and c_2 = 2(p-1).  p = 2 is
    the Hilbert case where the weighted convexity inequality is an identity
    with c_2 = 2.
    """
    p = _check_p(p)
    if p == 2.0:
        return SpaceParams(p=2.0, r=2.0, c_r=2.0, K=1.0)
    if p > 2.0:
        return SpaceParams(p=p, r=p, c_r=4.0 / 2.0**p, K=1.0)
    return SpaceParams(p=p, r=2.0, c_r=2.0 * (p - 1.0), K=1.0 / math.sqrt(p - 1.0))


_TINY = np.finfo(float).tiny


def _power_sum(x: np.ndarray, p: float):
    """sum |x_i|^p along the last axis: products at p = 2 and 3, one
    in-place power otherwise."""
    if x.ndim == 1:
        if p == 2.0:
            return x @ x
        if p == 3.0:
            return (x * x) @ np.abs(x)
        return (np.abs(x) ** p).sum()
    if p == 2.0:
        return np.einsum("...i,...i->...", x, x)
    if p == 3.0:
        return np.einsum("...i,...i,...i->...", x, x, np.abs(x))
    a = np.abs(x)
    return np.einsum("...i->...", np.power(a, p, out=a))


def _trusted_sums(p: float) -> tuple[float, float]:
    """The power sums [lo, hi) whose p-th root is exact to a few ulp.

    sqrt and cbrt are, for any normal sum.  ``s ** (1/p)`` carries the
    rounding of 1/p as a relative error of about |log2 ||x||| * 4e-17
    (1e-14 at ||(1e79, 0)||_1.5), so there only norms in [2^-32, 2^32]
    are trusted.
    """
    if p in (2.0, 3.0):
        return _TINY, math.inf
    e = 32.0 * p
    return (2.0**-e if e < 1022.0 else _TINY), (2.0**e if e < 1024.0 else math.inf)


def _root(s, p: float):
    if p == 2.0:
        return np.sqrt(s)
    if p == 3.0:
        return np.cbrt(s)
    return s ** (1.0 / p)


def _rescued(rows: np.ndarray, p: float) -> np.ndarray:
    """m * ||x / m|| for each row, m = max |x_i|, and 0 for a zero row."""
    if not np.isfinite(rows).all():
        raise NonFiniteError("lp_norm: input contains NaN or Inf")
    m = np.abs(rows).max(axis=-1, initial=0.0)
    live = m > 0.0
    out = np.zeros_like(m)
    out[live] = m[live] * _root(_power_sum(rows[live] / m[live, None], p), p)
    return out


def lp_norm(x, p: float):
    """lp norm along the last axis; zero iff the row is zero.

    The power sum is ``x @ x`` or an einsum of products at p = 2 and 3,
    and a sum of |x|^p otherwise; its root is sqrt, cbrt or ``** (1/p)``.
    Only the rows whose sum falls outside the range where that root is
    exact (zero, subnormal, overflowed, NaN, or far from 1 for other p)
    are examined.  One holding a NaN or Inf raises ``NonFiniteError``; the
    others are rescaled by their largest entry (Blue 1978), so every
    finite input gets its norm to rounding: ||(1e-200, 0)||_4 = 1e-200,
    ||(1e200, 1)||_4 = 1e200 and ||(10, 0)||_400 = 10.
    """
    p = _check_p(p)
    arr = np.asarray(x, dtype=float)
    lo, hi = _trusted_sums(p)
    with np.errstate(over="ignore", invalid="ignore"):
        s = _power_sum(arr, p)
    if arr.ndim == 1:
        return _root(s, p) if lo <= s < hi else _rescued(arr[None], p)[0]
    norm = _root(s, p)
    rescue = ~((s >= lo) & (s < hi))
    if rescue.any():
        rows = arr[rescue]
        # zero rows already hold 0; NaN and Inf are nonzero and reach the check
        if rows.any():
            norm[rescue] = _rescued(rows, p)
    return norm


def norm_pow(x, sp: SpaceParams):
    """||x||_p raised to the power type r of the space."""
    return lp_norm(x, sp.p) ** sp.r


def _expand_weight(w):
    w = np.asarray(w, dtype=float)
    if np.any((w < 0.0) | (w > 1.0)):
        raise ValueError("weight w must lie in [0, 1]")
    # broadcast a batch of weights against the coordinate axis
    return w, (w[..., None] if w.ndim > 0 else w)


def convexity_residual(x, y, w, sp: SpaceParams):
    """Slack of the weighted convexity inequality of the space.

    Returns (1-w)||x||^r + w||y||^r - (c_r/2) w(1-w) ||x-y||^r
    - ||(1-w)x + wy||^r, which the space geometry predicts to be >= 0
    (and exactly 0 for p = 2).  Accepts batches along leading axes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    w, wc = _expand_weight(w)
    mid = (1.0 - wc) * x + wc * y
    return (
        (1.0 - w) * norm_pow(x, sp)
        + w * norm_pow(y, sp)
        - 0.5 * sp.c_r * w * (1.0 - w) * norm_pow(x - y, sp)
        - norm_pow(mid, sp)
    )


def ball_inequality_residual(x, y, sp: SpaceParams):
    """Slack of the midpoint inequality (||x||^r + ||y||^r)/2
    - ||(x+y)/2||^r - ||(x-y)/(2K)||^r; predicted >= 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    return (
        0.5 * (norm_pow(x, sp) + norm_pow(y, sp))
        - norm_pow(0.5 * (x + y), sp)
        - norm_pow((x - y) / (2.0 * sp.K), sp)
    )
