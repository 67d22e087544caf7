"""Best-approximation projections onto simple closed convex sets in lp.

Set kinds: coordinate boxes, equal-coordinate affine subspaces (optionally
with pinned coordinates), lp balls and halfspaces.  The metric projection
minimises ||x - y||_p over the set; for p in (1, inf) it is unique.
No solver lets a power overflow or vanish, so P_{cC}(c x) = c P_C(x), c > 0.

Solvers per kind:

* ``Box`` clamps coordinatewise (p-independent),
* ``AffineEqual`` minimises sum_i |x_i - a|^p per group by bisection of its
  derivative, on the group mapped onto [0, 1] (mean shortcut for p = 2),
* ``Ball``: the multiplier equation forces a uniform shrink of every
  coordinate gap, so the projection is the radial contraction to the sphere,
* ``Halfspace``: the optimality system moves x along sign(a)|a|^(q-1),
  q = p/(p-1), a = normal/max|normal|, by the step that makes it active.

``merge_fixed_point_sets`` intersects descriptors structurally: it is the
rule for the fixed set of a composition or convex combination.

For p = 2 these projections are nonexpansive; for p != 2 they are not in
general, and nothing here relies on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .space import SpaceParams, lp_norm, norm_pow

__all__ = [
    "Box",
    "AffineEqual",
    "Ball",
    "Halfspace",
    "project",
    "membership_residual",
    "is_member",
    "sample_points",
    "projection_inequality_residual",
    "projection_pair_residual",
    "WHOLE_SPACE",
    "ORIGIN",
    "EMPTY_INTERSECTION",
    "merge_fixed_point_sets",
    "set_to_json",
    "set_from_json",
]

FEASIBILITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Box:
    """Coordinatewise bounds; scalars broadcast, infinities allowed."""

    lower: object
    upper: object

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if not np.all(lo <= up):  # also rejects NaN bounds
            raise ValueError("Box requires lower <= upper coordinatewise, with no NaN")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)


@dataclass(frozen=True)
class AffineEqual:
    """Coordinates equal within each group, plus optionally pinned coords.

    ``groups`` is a tuple of disjoint index tuples; ``fixed`` a tuple of
    (index, value) pairs disjoint from the groups.  With no constraints the
    set is the whole space.
    """

    groups: tuple = ()
    fixed: tuple = ()

    def __post_init__(self):
        # sorted within and across groups: one set, one descriptor
        groups = tuple(sorted(tuple(sorted(int(i) for i in g)) for g in self.groups))
        fixed = tuple(sorted((int(i), float(v)) for i, v in self.fixed))
        seen = set()
        for g in groups:
            if len(g) < 2:
                raise ValueError("equal-coordinate groups need >= 2 indices")
            if any(i < 0 for i in g) or len(set(g)) != len(g):
                raise ValueError(f"bad index group {g}")
            if seen & set(g):
                raise ValueError("groups must be disjoint")
            seen |= set(g)
        for i, v in fixed:
            if i < 0 or i in seen:
                raise ValueError("fixed coordinates must be disjoint from groups")
            if not np.isfinite(v):
                raise ValueError("fixed coordinate values must be finite")
            seen.add(i)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "fixed", fixed)

    def min_dim(self) -> int:
        idx = [i for g in self.groups for i in g] + [i for i, _ in self.fixed]
        return max(idx) + 1 if idx else 1


@dataclass(frozen=True, eq=False)
class Ball:
    """lp ball {y : ||y - center||_p <= radius}."""

    center: object
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("Ball radius must be positive")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "radius", float(self.radius))


@dataclass(frozen=True, eq=False)
class Halfspace:
    """{y : <normal, y> <= offset}."""

    normal: object
    offset: float

    def __post_init__(self):
        a = np.asarray(self.normal, dtype=float)
        if a.ndim != 1 or not np.any(a != 0.0):
            raise ValueError("Halfspace normal must be a nonzero vector")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", float(self.offset))


def _group_minimizer(vals: np.ndarray, p: float) -> np.ndarray:
    """argmin_a sum_i |a - vals_i|^p along the last axis (batched).

    The derivative sum_i sign(a - v_i)|a - v_i|^(p-1) is strictly increasing
    in a.  On u = (v - min)/(max - min), an affine map that keeps its root,
    every power stays in range at any scale, and 53 halvings of [0, 1]
    exhaust float64; a group of equal values gives that value.  Halving
    before subtracting keeps every finite group finite.
    """
    if p == 2.0:
        return vals.mean(axis=-1)
    lo, hi = vals.min(axis=-1), vals.max(axis=-1)
    half = 0.5 * hi - 0.5 * lo
    u = (0.5 * vals - 0.5 * lo[..., None]) / np.where(half > 0.0, half, 1.0)[..., None]
    a = np.zeros_like(lo)
    for k in range(1, 54):
        h = 0.5**k
        gap = (a + h)[..., None] - u
        # a stays at or below the root, and lands on a root that is a dyadic
        a += h * (np.copysign(np.abs(gap) ** (p - 1.0), gap).sum(axis=-1) <= 0.0)
    return (1.0 - a) * lo + a * hi


def project(C, x, sp: SpaceParams) -> np.ndarray:
    """Metric projection of x (batched along leading axes) onto C."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("project: input contains NaN or Inf")
    p = sp.p
    if isinstance(C, Box):
        return np.clip(x, C.lower, C.upper)
    if isinstance(C, AffineEqual):
        if x.shape[-1] < C.min_dim():
            raise ValueError("vector dimension too small for the constraint set")
        out = np.array(x, copy=True)
        for g in C.groups:
            a = _group_minimizer(x[..., list(g)], p)
            out[..., list(g)] = a[..., None]
        for i, v in C.fixed:
            out[..., i] = v
        return out
    if isinstance(C, Ball):
        gap = x - C.center
        dist = lp_norm(gap, p)
        factor = np.where(dist > C.radius, C.radius / np.where(dist == 0.0, 1.0, dist), 1.0)
        return C.center + factor[..., None] * gap
    if isinstance(C, Halfspace):
        if x.shape[-1] != C.normal.size:
            raise ValueError("vector dimension does not match the halfspace normal")
        # (a, offset) / max|a| is the same set, with |a|^q in range
        m = np.abs(C.normal).max()
        a = C.normal / m
        q = p / (p - 1.0)
        direction = np.sign(a) * np.abs(a) ** (q - 1.0)
        violation = np.maximum(x @ a - C.offset / m, 0.0)
        step = violation / np.sum(np.abs(a) ** q)
        return x - step[..., None] * direction
    raise TypeError(f"unknown convex set kind: {type(C).__name__}")


def membership_residual(C, x, p: float):
    """Max constraint violation of x w.r.t. C (0 on the set); batched.  A
    halfspace is read as (normal, offset) / max|normal|, as ``project`` does."""
    x = np.asarray(x, dtype=float)
    if isinstance(C, Box):
        viol = np.maximum(np.maximum(C.lower - x, x - C.upper), 0.0)
        return viol.max(axis=-1)
    if isinstance(C, AffineEqual):
        res = np.zeros(x.shape[:-1])
        for g in C.groups:
            vals = x[..., list(g)]
            res = np.maximum(res, vals.max(axis=-1) - vals.min(axis=-1))
        for i, v in C.fixed:
            res = np.maximum(res, np.abs(x[..., i] - v))
        return res
    if isinstance(C, Ball):
        return np.maximum(lp_norm(x - C.center, p) - C.radius, 0.0)
    if isinstance(C, Halfspace):
        m = np.abs(C.normal).max()
        return np.maximum(x @ (C.normal / m) - C.offset / m, 0.0)
    raise TypeError(f"unknown convex set kind: {type(C).__name__}")


def is_member(C, x, p: float, tol: float = FEASIBILITY_TOL) -> bool:
    """Whether each row of x has residual <= tol * max|x| (for a ball, the
    max with max|center| and radius): no absolute floor, so (c x, c C) gets
    the same verdict at every c > 0, and the origin admits only 0."""
    x = np.asarray(x, dtype=float)
    size = np.abs(x).max(axis=-1)
    if isinstance(C, Ball):
        size = np.maximum(size, max(np.abs(C.center).max(initial=0.0), C.radius))
    return bool(np.all(membership_residual(C, x, p) <= tol * size))


def sample_points(
    C, rng: np.random.Generator, n: int, dim: int, scale: float = 10.0, p: float = 2.0
) -> np.ndarray:
    """Draw n exact members of C inside a coordinate window of half-width
    scale; ``p`` matters only for ball membership."""
    if isinstance(C, Box):
        lo = np.broadcast_to(np.maximum(C.lower, -scale), (dim,))
        up = np.broadcast_to(np.minimum(C.upper, scale), (dim,))
        if np.any(lo > up):
            raise ValueError("sampling window does not intersect the box")
        return rng.uniform(lo, up, size=(n, dim))
    if isinstance(C, AffineEqual):
        if dim < C.min_dim():
            raise ValueError("dim too small for the constraint set")
        pts = rng.uniform(-scale, scale, size=(n, dim))
        for g in C.groups:
            pts[:, list(g)] = rng.uniform(-scale, scale, size=(n, 1))
        for i, v in C.fixed:
            pts[:, i] = v
        return pts
    if isinstance(C, Ball):
        raw = rng.uniform(-1.0, 1.0, size=(n, dim))
        radii = C.radius * rng.uniform(0.0, 1.0, size=n)
        norms = np.maximum(lp_norm(raw, p), 1e-300)
        return C.center + raw * (radii / norms)[:, None]
    if isinstance(C, Halfspace):
        pts = rng.uniform(-scale, scale, size=(n, dim))
        viol = pts @ C.normal - C.offset
        bad = viol > 0.0
        if np.any(bad):
            # reflect strictly into the halfspace through the boundary
            shift = (2.0 * viol[bad] / (C.normal @ C.normal))[:, None] * C.normal
            pts[bad] = pts[bad] - shift
        return pts
    raise TypeError(f"unknown convex set kind: {type(C).__name__}")


def projection_inequality_residual(C, x, y, sp: SpaceParams):
    """Slack of ||x - P_C x||^r + (c_r/2)||P_C x - y||^r <= ||x - y||^r for y in C."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not is_member(C, y, sp.p):
        raise ValueError("y must lie in C (within the feasibility tolerance)")
    px = project(C, x, sp)
    return norm_pow(x - y, sp) - norm_pow(x - px, sp) - 0.5 * sp.c_r * norm_pow(px - y, sp)


def projection_pair_residual(C, x, y, sp: SpaceParams):
    """Slack of the two-point projection inequality

    ||P_C x - P_C y||^r <= (1/c_r)(||x - P_C y||^r + ||y - P_C x||^r
                                   - ||x - P_C x||^r - ||y - P_C y||^r).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    px = project(C, x, sp)
    py = project(C, y, sp)
    rhs = (
        norm_pow(x - py, sp)
        + norm_pow(y - px, sp)
        - norm_pow(x - px, sp)
        - norm_pow(y - py, sp)
    ) / sp.c_r
    return rhs - norm_pow(px - py, sp)


WHOLE_SPACE = Box(-np.inf, np.inf)
ORIGIN = Box(0.0, 0.0)


class _EmptyIntersection:
    """Sentinel: the intersected sets are provably disjoint."""

    def __repr__(self):
        return "EMPTY_INTERSECTION"


EMPTY_INTERSECTION = _EmptyIntersection()


def _intersection_kind(C) -> tuple:
    """How the intersection rule sees one descriptor: its kind ("whole",
    "origin", "box", "affine_equal", or None for a kind it cannot merge)
    and whether the set holds the origin."""
    if isinstance(C, Box):
        lo, up = C.lower, C.upper
        if np.all(np.isneginf(lo)) and np.all(np.isposinf(up)):
            return "whole", True
        if np.all(lo == 0.0) and np.all(up == 0.0):
            return "origin", True
        return "box", bool(np.all(lo <= 0.0) and np.all(up >= 0.0))
    if isinstance(C, AffineEqual):
        kind = "affine_equal" if C.groups or C.fixed else "whole"
        return kind, all(v == 0.0 for _, v in C.fixed)
    return None, False


def merge_fixed_point_sets(sets):
    """Structural intersection of set descriptors.

    Whole-space operands drop out, and a single remaining operand (counting
    repeats) is the answer.  Among two or more: with the origin present and
    only boxes and equal-coordinate sets, the answer is ``ORIGIN`` when all
    of them hold the origin and ``EMPTY_INTERSECTION`` otherwise;
    equal-coordinate sets alone merge by union-find over their groups and
    pins, boxes alone by their coordinatewise meet, each
    ``EMPTY_INTERSECTION`` on a contradiction.  Any other mix, a ball or
    halfspace among several operands, or a missing descriptor (None) gives
    None.  Each distinct descriptor (by identity) is examined once, so n
    copies of one set cost what one does.
    """
    sets = list(sets)
    if not sets or any(s is None for s in sets):
        return None
    distinct = {id(s): s for s in sets}
    kinds = {key: _intersection_kind(s) for key, s in distinct.items()}
    kept = [s for s in sets if kinds[id(s)][0] != "whole"]
    if len(kept) < 2:
        return kept[0] if kept else WHOLE_SPACE
    kept = [s for key, s in distinct.items() if kinds[key][0] != "whole"]
    labels = {kinds[id(s)][0] for s in kept}
    if "origin" in labels and None not in labels:
        return ORIGIN if all(kinds[id(s)][1] for s in kept) else EMPTY_INTERSECTION
    if labels == {"affine_equal"}:
        return _merge_affine_equal(kept)
    if labels == {"box"}:
        lo = functools.reduce(np.maximum, [s.lower for s in kept])
        up = functools.reduce(np.minimum, [s.upper for s in kept])
        return EMPTY_INTERSECTION if np.any(lo > up) else Box(lo, up)
    return None


def _merge_affine_equal(sets):
    # returns a merged AffineEqual or EMPTY_INTERSECTION on pin conflicts
    parent: dict[int, int] = {}

    def find(i):
        parent.setdefault(i, i)
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    pinned: dict[int, float] = {}
    for s in sets:
        for g in s.groups:
            for i in g[1:]:
                union(g[0], i)
        for i, v in s.fixed:
            if i in pinned and pinned[i] != v:
                return EMPTY_INTERSECTION
            pinned[i] = v
    roots: dict[int, list[int]] = {}
    for i in parent:
        roots.setdefault(find(i), []).append(i)
    groups = []
    group_pin: dict[int, float] = {}
    for root, members in sorted(roots.items()):
        vals = {pinned[i] for i in members if i in pinned}
        if len(vals) > 1:
            return EMPTY_INTERSECTION
        if vals:
            v = vals.pop()
            for i in members:
                group_pin[i] = v
        else:
            groups.append(tuple(sorted(members)))
    fixed = dict(pinned)
    fixed.update(group_pin)
    return AffineEqual(groups=tuple(groups), fixed=tuple(sorted(fixed.items())))



def set_to_json(C) -> dict:
    if isinstance(C, Box):
        return {
            "kind": "box",
            "lower": np.asarray(C.lower).tolist(),
            "upper": np.asarray(C.upper).tolist(),
        }
    if isinstance(C, AffineEqual):
        return {
            "kind": "affine_equal",
            "groups": [list(g) for g in C.groups],
            "fixed": [[i, v] for i, v in C.fixed],
        }
    if isinstance(C, Ball):
        return {"kind": "ball", "center": np.asarray(C.center).tolist(), "radius": C.radius}
    if isinstance(C, Halfspace):
        return {"kind": "halfspace", "normal": C.normal.tolist(), "offset": C.offset}
    raise TypeError(f"unknown convex set kind: {type(C).__name__}")


_REQUIRED = object()


def json_value(doc: dict, key: str, convert, default=_REQUIRED):
    """``convert(doc[key])``, or ``convert(default)`` when the key is absent.

    A missing required key, or a value that ``convert`` rejects, raises
    ValueError naming the key.
    """
    if key not in doc and default is _REQUIRED:
        raise ValueError(f"missing key {key!r}")
    try:
        return convert(doc.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad value for key {key!r}: {exc}") from exc


def _array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def set_from_json(doc: dict):
    """Build a convex set from its JSON description; a missing or malformed
    field raises ValueError naming its key."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "box":
        return Box(json_value(doc, "lower", _array), json_value(doc, "upper", _array))
    if kind == "affine_equal":
        return AffineEqual(
            groups=json_value(doc, "groups", lambda gs: tuple(tuple(g) for g in gs), ()),
            fixed=json_value(doc, "fixed", lambda fs: tuple((i, v) for i, v in fs), ()),
        )
    if kind == "ball":
        return Ball(json_value(doc, "center", _array), json_value(doc, "radius", float))
    if kind == "halfspace":
        return Halfspace(json_value(doc, "normal", _array), json_value(doc, "offset", float))
    raise ValueError(f"unknown convex set kind in document: {kind!r}")
