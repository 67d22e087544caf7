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
    "SpaceParams",
    "space_params",
    "lp_norm",
    "norm_pow",
    "convexity_residual",
    "ball_inequality_residual",
]


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


def lp_norm(x, p: float, axis: int = -1):
    """lp norm along ``axis``; zero iff the slice is zero."""
    p = _check_p(p)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("lp_norm: input contains NaN or Inf")
    return np.sum(np.abs(arr) ** p, axis=axis) ** (1.0 / p)


def norm_pow(x, sp: SpaceParams, axis: int = -1):
    """||x||_p raised to the power type r of the space."""
    return lp_norm(x, sp.p, axis=axis) ** sp.r


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
