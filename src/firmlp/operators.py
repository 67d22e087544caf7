"""Composable operator expressions on finite lp vectors.

An expression is a small immutable tree of atoms (affine maps, scalings,
coordinate truncations, coordinate swaps, activations) and combinators
(averaging with the identity, composition, convex combination, resolvents,
contractive projections).  Each node carries metadata recording what is
provable about it: a nonexpansiveness flag, a firm constant ``alpha_firm``,
an averaging constant ``averaged`` and, where exactly known, the
fixed-point set as a convex-set descriptor.

Each node's constructor derives its metadata, once, from its arguments and
its operands' metadata, so an attached constant is always a proof.  The
combinators implement the propagation rules

* averaging:    (1-a)Id + aR with R nonexpansive is a-averaged and a-firm;
* composition:  firm route (1 + (1 - a_max)/(n^(r-1) a_max))^(-1),
                averaged route 1 - prod(1 - a_i);
* convex sums:  firm route max(a_i), averaged route sum(w_i a_i);

keeping the smaller (stronger) firm constant whenever both routes apply.
The composition's firm route needs the power type r, so it applies only
when the node is given the space.
Fixed-point sets propagate through averaging (Fix((1-a)Id + aR) = Fix R)
and intersect through compositions and convex combinations of operators
that all carry firm constants (the quasi-firm calculus), provided the
intersection is structurally nonempty.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .projections import AffineEqual, Box
from .space import SpaceParams, lp_norm

__all__ = [
    "DimensionMismatch",
    "OperatorMeta",
    "OperatorExpr",
    "Affine",
    "Scale",
    "Truncate",
    "SwapIsometry",
    "Activation",
    "Averaged",
    "Compose",
    "ConvexCombo",
    "Resolvent",
    "ContractiveProjection",
    "identity",
    "apply",
    "averaged",
    "compose",
    "convex_combination",
    "truncation_operator",
    "stable_activation",
    "neural_network",
    "guaranteed_nonexpansive_affine",
    "contractive_projection",
    "operator_to_json",
    "operator_from_json",
]

WEIGHT_TOL = 1e-12


class DimensionMismatch(ValueError):
    pass


class ResolventDiverged(RuntimeError):
    """Raised when the resolvent contraction fails to converge in budget."""


@dataclass(frozen=True)
class OperatorMeta:
    """Provable facts about an operator expression.

    ``alpha_firm`` and ``averaged`` live in (0, 1) and are present only when
    derived by a propagation rule; ``fixed_points`` is a convex-set
    descriptor when the fixed set is exactly known.
    """

    proven_nonexpansive: bool = False
    alpha_firm: float | None = None
    averaged: float | None = None
    fixed_points: object | None = None

    def __post_init__(self):
        for name in ("alpha_firm", "averaged"):
            a = getattr(self, name)
            if a is not None and not 0.0 < a < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {a}")


_UNKNOWN = OperatorMeta()

WHOLE_SPACE = Box(-np.inf, np.inf)
ORIGIN = Box(0.0, 0.0)


class OperatorExpr:
    """Base class; subclasses implement ``_apply`` on (..., d) arrays.

    Each subclass constructor sets ``meta`` and, where the node restricts
    the dimension, ``dims`` = (minimum dimension, exact dimension or None).
    """

    meta: OperatorMeta = _UNKNOWN
    dims: tuple[int, int | None] = (1, None)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            raise DimensionMismatch("operators act on vectors, got a scalar")
        d = x.shape[-1]
        lo, exact = self.dims
        if exact is not None and d != exact:
            raise DimensionMismatch(f"{type(self).__name__} requires dim {exact}, got {d}")
        if d < lo:
            raise DimensionMismatch(f"{type(self).__name__} requires dim >= {lo}, got {d}")
        return self._apply(x)

    __call__ = apply


def apply(T: OperatorExpr, x) -> np.ndarray:
    """Evaluate the expression tree at x (batched along leading axes)."""
    return T.apply(x)


@dataclass(eq=False)
class Affine(OperatorExpr):
    """x -> W x + b with a square matrix W.

    Nonexpansiveness is self-certified through the interpolation bound
    ||W||_p <= ||W||_1^(1/p) ||W||_inf^(1-1/p); the bound is sound but not
    sharp, so the flag may stay off for maps that are in fact nonexpansive.
    """

    W: np.ndarray
    b: np.ndarray
    p: float = 2.0

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("Affine requires a square matrix")
        if not np.all(np.isfinite(W)):
            raise ValueError("Affine matrix must be finite")
        b = np.zeros(W.shape[0]) if self.b is None else np.asarray(self.b, dtype=float)
        if b.shape != (W.shape[0],) or not np.all(np.isfinite(b)):
            raise ValueError("Affine offset must be a finite vector matching W")
        self.W = W
        self.b = b
        self.dims = (W.shape[0], W.shape[0])
        self.meta = OperatorMeta(
            proven_nonexpansive=bool(interpolation_norm_bound(W, self.p) <= 1.0)
        )

    def _apply(self, x):
        return x @ self.W.T + self.b


def interpolation_norm_bound(W: np.ndarray, p: float) -> float:
    """Upper bound on the induced lp operator norm of W via interpolation
    between the column-sum and row-sum norms."""
    W = np.asarray(W, dtype=float)
    n1 = float(np.max(np.sum(np.abs(W), axis=0))) if W.size else 0.0
    ninf = float(np.max(np.sum(np.abs(W), axis=1))) if W.size else 0.0
    return n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p)


@dataclass(eq=False)
class Scale(OperatorExpr):
    """x -> factor * x."""

    factor: float

    def __post_init__(self):
        self.factor = float(self.factor)
        if not math.isfinite(self.factor):
            raise ValueError("scale factor must be finite")
        self.meta = OperatorMeta(
            proven_nonexpansive=abs(self.factor) <= 1.0,
            fixed_points=WHOLE_SPACE if self.factor == 1.0 else ORIGIN,
        )

    def _apply(self, x):
        return self.factor * x


def identity() -> Scale:
    return Scale(1.0)


@dataclass(eq=False)
class Truncate(OperatorExpr):
    """Keep the first ``keep`` coordinates, zero the rest.

    Given the space, the node carries the exact firm constant c_r/(c_r + 2);
    given the ambient dimension ``dim``, its coordinate-subspace fixed set.
    """

    keep: int
    sp: SpaceParams | None = None
    dim: int | None = None

    def __post_init__(self):
        self.keep = int(self.keep)
        self.dim = None if self.dim is None else int(self.dim)
        if self.keep < 1 or (self.dim is not None and self.keep >= self.dim):
            raise ValueError(f"truncation requires 1 <= k < dim, got k={self.keep}, dim={self.dim}")
        self.dims = (self.keep + 1, None)
        fixed = None
        if self.dim is not None:
            kept = np.arange(self.dim) < self.keep
            fixed = Box(np.where(kept, -np.inf, 0.0), np.where(kept, np.inf, 0.0))
        self.meta = OperatorMeta(
            proven_nonexpansive=True,
            alpha_firm=None if self.sp is None else self.sp.c_r / (self.sp.c_r + 2.0),
            fixed_points=fixed,
        )

    def _apply(self, x):
        out = np.array(x, copy=True)
        out[..., self.keep :] = 0.0
        return out


@dataclass(eq=False)
class SwapIsometry(OperatorExpr):
    """Exchange coordinates i and j (0-based); an isometry with U^2 = Id."""

    i: int
    j: int

    def __post_init__(self):
        self.i, self.j = int(self.i), int(self.j)
        if self.i < 0 or self.j < 0 or self.i == self.j:
            raise ValueError("swap indices must be distinct and nonnegative")
        self.dims = (max(self.i, self.j) + 1, None)
        self.meta = OperatorMeta(
            proven_nonexpansive=True,
            fixed_points=AffineEqual(groups=((self.i, self.j),)),
        )

    def _apply(self, x):
        out = np.array(x, copy=True)
        out[..., [self.i, self.j]] = x[..., [self.j, self.i]]
        return out


_ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    "identity": lambda x: x,
}

_ACTIVATION_FIX = {
    "relu": Box(0.0, np.inf),
    "tanh": ORIGIN,
    "identity": WHOLE_SPACE,
}


@dataclass(eq=False)
class Activation(OperatorExpr):
    """Coordinatewise stable activation: increasing, 1-Lipschitz, fixing 0.

    Such a map is (Id + R)/2 for a nonexpansive coordinatewise R, hence
    1/2-averaged and 1/2-firm.
    """

    name: str

    def __post_init__(self):
        if self.name not in _ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.name!r}; choose from {sorted(_ACTIVATIONS)}"
            )
        self.meta = OperatorMeta(
            proven_nonexpansive=True,
            alpha_firm=0.5,
            averaged=0.5,
            fixed_points=_ACTIVATION_FIX[self.name],
        )

    def _apply(self, x):
        return _ACTIVATIONS[self.name](x)


def stable_activation(name: str) -> Activation:
    """Activation atom by name ('relu', 'tanh' or 'identity')."""
    return Activation(name)


@dataclass(eq=False)
class Averaged(OperatorExpr):
    """(1 - alpha) Id + alpha * inner."""

    inner: OperatorExpr
    alpha: float

    def __post_init__(self):
        self.alpha = float(self.alpha)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("averaging constant must lie in (0, 1)")
        self.dims = self.inner.dims
        proven = self.inner.meta.proven_nonexpansive
        self.meta = OperatorMeta(
            proven_nonexpansive=proven,
            alpha_firm=self.alpha if proven else None,
            averaged=self.alpha if proven else None,
            # Fix((1-a)Id + aR) = Fix R exactly, for any a in (0, 1)
            fixed_points=self.inner.meta.fixed_points,
        )

    def _apply(self, x):
        return (1.0 - self.alpha) * x + self.alpha * self.inner._apply(x)


def averaged(R: OperatorExpr, alpha: float) -> Averaged:
    """Average R with the identity; attaches alpha as firm and averaging
    constant when R is provably nonexpansive."""
    return Averaged(R, alpha)


def contractive_projection(U: OperatorExpr) -> Averaged:
    """(Id + U)/2 for an isometric involution U, i.e. Averaged(U, 1/2).

    This trusts the caller about U; the feasibility module provides a
    sample-checked builder.
    """
    return Averaged(U, 0.5)


ContractiveProjection = contractive_projection


def _merged_dims(ops) -> tuple[int, int | None]:
    lo, exact = 1, None
    for op in ops:
        olo, oexact = op.dims
        lo = max(lo, olo)
        if oexact is not None:
            if exact is not None and exact != oexact:
                raise DimensionMismatch(
                    f"incompatible operand dimensions {exact} and {oexact}"
                )
            exact = oexact
    if exact is not None and lo > exact:
        raise DimensionMismatch("operand dimension requirements are incompatible")
    return lo, exact


def _combined_meta(ops, firm, avg, fixed_sets) -> OperatorMeta:
    """Metadata of a combination of ``ops`` whose firm and averaged routes
    gave ``firm`` and ``avg`` (None where a route does not apply).

    ``fixed_sets`` are intersected only when every operand carries a firm
    constant and the intersection is structurally nonempty, as the
    quasi-firm calculus needs.
    """
    candidates = [a for a in (firm, avg) if a is not None]
    fixed = None
    if all(op.meta.alpha_firm is not None for op in ops):
        fixed = merge_fixed_point_sets(fixed_sets)
        if fixed is EMPTY_INTERSECTION:
            fixed = None
    return OperatorMeta(
        proven_nonexpansive=all(op.meta.proven_nonexpansive for op in ops),
        alpha_firm=min(candidates) if candidates else None,
        averaged=avg,
        fixed_points=fixed,
    )


@dataclass(eq=False)
class Compose(OperatorExpr):
    """ops[0] applied last: Compose([A, B])(x) = A(B(x)).

    The firm route needs every operand to carry a firm constant and the
    space ``sp`` (its constant depends on r); the averaged route needs every
    operand to carry an averaging constant.  The smaller resulting firm
    constant is kept.
    """

    ops: tuple
    sp: SpaceParams | None = None

    def __post_init__(self):
        ops = tuple(self.ops)
        if not ops:
            raise ValueError("compose requires at least one operator")
        self.ops = ops
        self.dims = _merged_dims(ops)
        alphas = [op.meta.alpha_firm for op in ops]
        firm = None
        if self.sp is not None and all(a is not None for a in alphas):
            a_max = max(alphas)
            firm = 1.0 / (1.0 + (1.0 - a_max) / (len(ops) ** (self.sp.r - 1.0) * a_max))
        avgs = [op.meta.averaged for op in ops]
        avg = None
        if all(a is not None for a in avgs):
            avg = 1.0 - math.prod(1.0 - a for a in avgs)
        self.meta = _combined_meta(ops, firm, avg, [op.meta.fixed_points for op in ops])

    def _apply(self, x):
        for op in reversed(self.ops):
            x = op._apply(x)
        return x


@dataclass(eq=False)
class ConvexCombo(OperatorExpr):
    """sum_i weights[i] * ops[i](x).

    Constants are r-independent.  Firm route: max of the operand constants.
    Averaged route: the weighted sum of averaging constants.  Fixed-point
    sets intersect over operands with positive weight.
    """

    ops: tuple
    weights: tuple

    def __post_init__(self):
        ops = tuple(self.ops)
        w = np.asarray(self.weights, dtype=float)
        if not ops or w.shape != (len(ops),):
            raise ValueError("need one weight per operand")
        if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
            raise ValueError("weights must be nonnegative and sum to 1")
        self.ops = ops
        self.weights = tuple(float(v) for v in w)
        self.dims = _merged_dims(ops)
        alphas = [op.meta.alpha_firm for op in ops]
        firm = max(alphas) if all(a is not None for a in alphas) else None
        avgs = [op.meta.averaged for op in ops]
        avg = None
        if all(a is not None for a in avgs):
            avg = float(sum(w * a for w, a in zip(self.weights, avgs)))
        active = [op.meta.fixed_points for op, w in zip(ops, self.weights) if w > 0.0]
        self.meta = _combined_meta(ops, firm, avg, active)

    def _apply(self, x):
        out = self.weights[0] * self.ops[0]._apply(x)
        for w, op in zip(self.weights[1:], self.ops[1:]):
            out = out + w * op._apply(x)
        return out


@dataclass(eq=False)
class Resolvent(OperatorExpr):
    """x -> unique fixed point of y -> x/(1+lam) + (lam/(1+lam)) F(y).

    The inner map is a contraction with factor lam/(1+lam) whenever F is
    nonexpansive; lam = 0 is the identity by convention.
    """

    inner: OperatorExpr
    lam: float
    p: float = 2.0
    tol: float = 1e-12

    def __post_init__(self):
        self.lam = float(self.lam)
        if self.lam < 0.0:
            raise ValueError("resolvent parameter lam must be >= 0")
        self.dims = self.inner.dims
        proven = self.inner.meta.proven_nonexpansive
        self.meta = OperatorMeta(
            proven_nonexpansive=proven,
            alpha_firm=0.5 if proven else None,
            # Fix F = Fix R_lam whenever F is nonexpansive
            fixed_points=self.inner.meta.fixed_points if proven else None,
        )

    def _apply(self, x):
        if self.lam == 0.0:
            return np.array(x, copy=True)
        q = self.lam / (1.0 + self.lam)
        base = x / (1.0 + self.lam)
        y = np.array(x, copy=True)
        first = None
        budget = 64
        for it in range(10_000_000):
            y_next = base + q * self.inner._apply(y)
            gap = np.abs(y_next - y)
            delta = float(np.max(np.sum(gap**self.p, axis=-1) ** (1.0 / self.p)))
            y = y_next
            if delta <= self.tol:
                return y
            if first is None and delta > 0.0:
                # geometric decay gives the iteration budget up front
                first = delta
                budget = int(math.log(self.tol / first) / math.log(q)) + 20
            growing = first is not None and (not math.isfinite(delta) or delta > 1e9 * first)
            if growing or it > max(budget, 20):
                raise ResolventDiverged(
                    f"resolvent iteration did not contract (lam={self.lam}); "
                    "is the inner operator nonexpansive?"
                )
        raise ResolventDiverged("resolvent iteration exceeded the hard budget")


def compose(ops, sp: SpaceParams) -> Compose:
    """Composition in the space sp; ops[0] is applied last."""
    return Compose(tuple(ops), sp)


def convex_combination(ops, weights, sp: SpaceParams) -> ConvexCombo:
    """Weighted sum of ops; its constants do not depend on the space sp."""
    return ConvexCombo(tuple(ops), tuple(weights))


def _box_contains_zero(B: Box) -> bool:
    return bool(np.all(np.asarray(B.lower) <= 0.0) and np.all(np.asarray(B.upper) >= 0.0))


def _is_whole_space(C) -> bool:
    if isinstance(C, Box):
        return bool(np.all(np.isneginf(np.asarray(C.lower))) and np.all(np.isposinf(np.asarray(C.upper))))
    if isinstance(C, AffineEqual):
        return not C.groups and not C.fixed
    return False


def _is_origin(C) -> bool:
    if isinstance(C, Box):
        lo, up = np.asarray(C.lower), np.asarray(C.upper)
        return bool(np.all(lo == 0.0) and np.all(up == 0.0))
    return False


def _contains_zero(C) -> bool:
    if isinstance(C, Box):
        return _box_contains_zero(C)
    if isinstance(C, AffineEqual):
        return all(v == 0.0 for _, v in C.fixed)
    return False


class _EmptyIntersection:
    """Sentinel: the merged sets are provably disjoint."""

    def __repr__(self):
        return "EMPTY_INTERSECTION"


EMPTY_INTERSECTION = _EmptyIntersection()


def merge_fixed_point_sets(sets):
    """Structural intersection of fixed-point descriptors.

    Returns a descriptor when the intersection is representable and
    nonempty, ``EMPTY_INTERSECTION`` on a provable contradiction, and None
    when the kinds cannot be merged (or some descriptor is missing).
    Handles equal-coordinate merges with union-find chaining, box
    intersections, and the degenerate whole-space/origin cases.
    """
    sets = list(sets)
    if not sets or any(s is None for s in sets):
        return None
    sets = [s for s in sets if not _is_whole_space(s)]
    if not sets:
        return WHOLE_SPACE
    if len(sets) == 1:
        return sets[0]
    if any(_is_origin(s) for s in sets):
        if all(isinstance(s, (Box, AffineEqual)) for s in sets):
            return ORIGIN if all(_contains_zero(s) for s in sets) else EMPTY_INTERSECTION
        return None
    if all(isinstance(s, AffineEqual) for s in sets):
        return _merge_affine_equal(sets)
    if all(isinstance(s, Box) for s in sets):
        lo = np.asarray(sets[0].lower)
        up = np.asarray(sets[0].upper)
        for s in sets[1:]:
            lo = np.maximum(lo, s.lower)
            up = np.minimum(up, s.upper)
        if np.any(lo > up):
            return EMPTY_INTERSECTION
        return Box(lo, up)
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


def truncation_operator(k: int, sp: SpaceParams, dim: int) -> Truncate:
    """Truncation to the first k of dim coordinates, with its exact firm
    constant c_r/(c_r + 2) and coordinate-subspace fixed set."""
    return Truncate(k, sp, dim)


def guaranteed_nonexpansive_affine(W, b, p: float) -> Affine:
    """Rescale W so the interpolation bound certifies ||W||_p <= 1.

    The divisor carries a hair of headroom so the bound recomputed on the
    rescaled matrix stays below 1 despite rounding.
    """
    W = np.asarray(W, dtype=float)
    bound = interpolation_norm_bound(W, p)
    scale = bound * (1.0 + 1e-12) if bound > 1.0 else 1.0
    out = Affine(W / scale, b, p=p)
    if not out.meta.proven_nonexpansive:
        raise AssertionError("rescaled affine map failed its own bound")
    return out


def neural_network(affine_layers, sigma: OperatorExpr, sp: SpaceParams) -> Compose:
    """Feedforward chain A_d o sigma o ... o sigma o A_1 with propagated
    constants; every layer must already carry a firm constant."""
    layers = list(affine_layers)
    if not layers:
        raise ValueError("need at least one affine layer")
    for k, layer in enumerate(layers):
        if layer.meta.alpha_firm is None:
            raise ValueError(f"layer {k} carries no firm constant; average it first")
    chain = []
    for layer in reversed(layers):
        chain.append(layer)
        chain.append(sigma)
    chain.pop()  # no activation after the output layer
    return compose(chain, sp)


def resolvent_operator(F: OperatorExpr, lam: float, sp: SpaceParams, tol: float = 1e-12) -> Resolvent:
    """Resolvent of F with firm constant 1/2 and the fixed set of F."""
    if not F.meta.proven_nonexpansive:
        warnings.warn(
            "resolvent of an operator without a nonexpansiveness certificate; "
            "the contraction iteration may diverge",
            stacklevel=2,
        )
    return Resolvent(F, lam, p=sp.p, tol=tol)


# ---------------------------------------------------------------------------
# JSON wire format: kind-tagged nodes, matrices row-major.

def operator_to_json(T: OperatorExpr) -> dict:
    if isinstance(T, Affine):
        return {"kind": "affine", "W": T.W.tolist(), "b": T.b.tolist()}
    if isinstance(T, Scale):
        return {"kind": "scale", "factor": T.factor}
    if isinstance(T, Truncate):
        return {"kind": "truncate", "k": T.keep}
    if isinstance(T, SwapIsometry):
        return {"kind": "swap", "i": T.i, "j": T.j}
    if isinstance(T, Activation):
        return {"kind": "activation", "name": T.name}
    if isinstance(T, Averaged):
        return {"kind": "averaged", "alpha": T.alpha, "inner": operator_to_json(T.inner)}
    if isinstance(T, Compose):
        return {"kind": "compose", "ops": [operator_to_json(op) for op in T.ops]}
    if isinstance(T, ConvexCombo):
        return {
            "kind": "convex_combo",
            "ops": [operator_to_json(op) for op in T.ops],
            "weights": list(T.weights),
        }
    if isinstance(T, Resolvent):
        return {"kind": "resolvent", "lam": T.lam, "inner": operator_to_json(T.inner)}
    raise TypeError(f"cannot serialize operator kind {type(T).__name__}")


def operator_from_json(doc: dict, sp: SpaceParams, dim: int) -> OperatorExpr:
    """Build an operator from its JSON description.  Metadata is derived by
    the node constructors (constants are propagated, never parsed); the kind
    ``contractive_projection`` is read as ``averaged`` with alpha 1/2."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("operator document must be an object with a 'kind' tag")
    kind = doc["kind"]
    if kind == "affine":
        if doc.get("guarantee_nonexpansive", False):
            return guaranteed_nonexpansive_affine(doc["W"], doc.get("b"), sp.p)
        return Affine(np.asarray(doc["W"], dtype=float), doc.get("b"), p=sp.p)
    if kind == "scale":
        return Scale(doc["factor"])
    if kind == "truncate":
        return truncation_operator(doc["k"], sp, dim)
    if kind == "swap":
        return SwapIsometry(doc["i"], doc["j"])
    if kind == "activation":
        return stable_activation(doc["name"])
    if kind == "averaged":
        return averaged(operator_from_json(doc["inner"], sp, dim), doc["alpha"])
    if kind == "contractive_projection":
        return contractive_projection(operator_from_json(doc["isometry"], sp, dim))
    if kind == "compose":
        return compose([operator_from_json(o, sp, dim) for o in doc["ops"]], sp)
    if kind == "convex_combo":
        return convex_combination(
            [operator_from_json(o, sp, dim) for o in doc["ops"]], doc["weights"], sp
        )
    if kind == "resolvent":
        return resolvent_operator(operator_from_json(doc["inner"], sp, dim), doc["lam"], sp)
    raise ValueError(f"unknown operator kind {kind!r}")
