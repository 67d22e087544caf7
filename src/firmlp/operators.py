"""Composable operator expressions on finite lp vectors.

An expression is a small immutable tree of atoms (affine maps, scalings,
coordinate truncations, coordinate swaps, ``relu`` and ``tanh``) and
combinators (averaging with the identity, composition, convex combination,
resolvents), one form each: the identity is ``Scale(1)`` and (Id + U)/2 is
``Averaged(U, 1/2)``.  Each node carries metadata recording what is
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

over the n operands other than identities and, in sums, operands of
weight 0 (each adds nothing), keeping the smaller (stronger) firm
constant whenever both routes apply.
Every node whose constants depend on the space takes it, with no default:
``Compose`` (its firm route needs the power type r), ``Truncate``
(c_r/(c_r + 2)), ``Affine`` and ``Resolvent`` (p).
Fixed-point sets propagate through averaging (Fix((1-a)Id + aR) = Fix R)
and intersect through compositions and convex combinations of operators
that all carry firm constants (the quasi-firm calculus), provided the
intersection is structurally nonempty (``projections.merge_fixed_point_sets``
states the rule).

Nodes that are affine on their input (the affine, scale, truncation and
swap atoms; averages, compositions and convex combinations of
affine nodes; closed-form resolvents) set ``affine``.  ``affine_form`` then
reads their matrix and offset off the map itself: the offset is T(0), and
the matrix is the same tree evaluated with every offset dropped
(``_apply(x, linear=True)``), so no offset ever mixes into it.  The form is
computed once per dimension and cached on the node.

Evaluation compiles affine subtrees.  A compound affine node (an average,
composition or convex combination with ``affine`` set) evaluates as
``x @ W.T + b`` from its cached form, at the root and wherever it sits in
a nonlinear tree (the averaged layers of ``neural_network``); the linear
channel drops ``b``.  A semigroup product is one node, ``_Power``, for n
copies of its step (built only by ``dynamics.semigroup_product``): it takes
the metadata of the n-fold composition through the composition's two
routes, and its form by squaring the augmented matrix [[W, b], [0, 1]],
about 2 log2(n) small products instead of walking n nodes.  A compiled
value that is not finite, or one whose input is not finite, is evaluated
by the walk (``_apply``), so every failure raises what the walk raises; a
batch's product is formed with numpy's invalid and overflow warnings off,
as a row that is not finite discards it for the walk.
``Resolvent``'s cached form is its closed form, one linear solve replacing
its iteration.  A resolvent of a coordinatewise inner (an activation, or an
average of one) is solved one coordinate at a time.  Every other resolvent
iterates on its inner map's walk, and its stop rule is relative to each
row's own scale, so it holds for inputs of any size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .projections import (
    EMPTY_INTERSECTION,
    ORIGIN,
    WHOLE_SPACE,
    AffineEqual,
    Box,
    _array,
    json_bool,
    json_field,
    json_float,
    json_int,
    json_read,
    json_str,
    json_value,
    json_write,
    merge_fixed_point_sets,
)
from .space import SpaceParams

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
    "identity",
    "averaged",
    "compose",
    "convex_combination",
    "truncation_operator",
    "stable_activation",
    "neural_network",
    "guaranteed_nonexpansive_affine",
    "contractive_projection",
    "resolvent_operator",
    "operator_to_json",
    "operator_from_json",
]

WEIGHT_TOL = 1e-12
RESOLVENT_TOL = 1e-12  # relative stop of the resolvent iteration
NEWTON_BUDGET = 100  # scalar Newton steps per coordinate (see _tanh_resolvent)


class DimensionMismatch(ValueError):
    pass


class ResolventDiverged(RuntimeError):
    """Raised when a resolvent's iteration or closed form gives no finite value.

    ``lam`` is the resolvent parameter (a * lam when the scalar solve for an
    inner ``Averaged(activation, a)`` raises; None when the exception is
    built from its message alone, as unpickling does before it restores the
    attributes), ``iterations`` the number of iterations taken (0 where none
    ran) and ``last_step`` the largest entry of the last step (None where no
    step was taken).
    """

    def __init__(self, message: str, lam: float | None = None, iterations: int = 0,
                 last_step: float | None = None):
        super().__init__(message)
        self.lam, self.iterations, self.last_step = lam, iterations, last_step


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


def _all_finite(y: np.ndarray) -> bool:
    """No NaN or Inf in y.  One vector is tested first by the sum of its
    entries on Python floats, which warns of nothing and costs a fifth of
    ``np.isfinite`` at d = 8: a NaN or Inf term never gives a finite float
    sum (nor does the compensated ``sum`` of Python 3.12).  Only a sum that
    is not finite, or a batch, reads the array itself."""
    if y.ndim == 1 and math.isfinite(sum(y.tolist())):
        return True
    return bool(np.isfinite(y).all())


class OperatorExpr:
    """Base class; subclasses implement ``_apply`` on (..., d) arrays.

    Each subclass constructor sets ``meta``, ``affine`` when the node is
    affine on its input, ``compiled`` when it evaluates through its cached
    form and, where the node restricts the dimension,
    ``dims`` = (minimum dimension, exact dimension or None).
    """

    meta: OperatorMeta = _UNKNOWN
    affine: bool = False
    compiled: bool = False
    dims: tuple[int, int | None] = (1, None)

    def _apply(self, x: np.ndarray, linear: bool = False) -> np.ndarray:
        """The map on (..., d) arrays, one node deep (operands through
        ``_eval``); with ``linear`` (true only on affine nodes) its linear
        part, every offset in the tree dropped."""
        raise NotImplementedError

    def _eval(self, x: np.ndarray, linear: bool = False) -> np.ndarray:
        """The value as ``apply`` and parent nodes take it: a compiled node's
        cached form, or ``_apply`` where that value or a one-vector input is
        not finite (so a failure raises what the walk raises, and no Inf * 0
        of the product warns: a batch forms its product with those warnings
        off); ``_apply`` on any other node."""
        if self.compiled and (x.ndim > 1 or _all_finite(x)):
            W, b = self.affine_form(x.shape[-1])
            if x.ndim == 1:
                y = np.dot(x, W.T)  # the BLAS call of x @ W.T, with less dispatch
                if not linear:
                    y += b
            else:
                # a batch is not tested first: a row that is not finite may
                # warn in the product, whose value then goes to the walk
                with np.errstate(invalid="ignore", over="ignore"):
                    y = np.dot(x, W.T)
                    if not linear:
                        y += b
            if _all_finite(y):
                return y
        return self._apply(x, linear)

    def affine_form(self, d: int) -> tuple[np.ndarray, np.ndarray] | None:
        """(W, b) with self(x) = W x + b on dimension d, or None when the
        node is not known to be affine; computed once per dimension and
        cached on the node (read-only)."""
        if not self.affine:
            return None
        cache = self.__dict__.setdefault("_forms", {})
        if d not in cache:
            cache[d] = self._compile(d)
            for a in cache[d]:
                a.flags.writeable = False
        return cache[d]

    def _compile(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The form rule: W is the map with its offsets dropped, applied to
        the unit vectors, and b = self(0); no offset enters W, whatever its
        size or where it sits in the tree."""
        return self._apply(np.eye(d), linear=True).T, self._apply(np.zeros(d))

    def check_dim(self, d: int) -> None:
        """Raise DimensionMismatch unless the node acts on dimension d."""
        lo, exact = self.dims
        if exact is not None and d != exact:
            raise DimensionMismatch(f"{type(self).__name__} requires dim {exact}, got {d}")
        if d < lo:
            raise DimensionMismatch(f"{type(self).__name__} requires dim >= {lo}, got {d}")

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            raise DimensionMismatch("operators act on vectors, got a scalar")
        self.check_dim(x.shape[-1])
        return self._eval(x)

    __call__ = apply


def _operand(doc, sp, p, dim):
    # through the module-level name, so a wrapper of it sees every operand
    return operator_from_json(doc, sp, dim)


def _operands(docs, sp, p, dim):
    return [operator_from_json(doc, sp, dim) for doc in docs]


@dataclass(eq=False)
class Affine(OperatorExpr):
    """x -> W x + b with a square matrix W.

    Nonexpansiveness is self-certified through the interpolation bound
    ||W||_p <= ||W||_1^(1/p) ||W||_inf^(1-1/p); the bound is sound but not
    sharp, so the flag may stay off for maps that are in fact nonexpansive.
    ``p`` has no default: a bound at one p certifies nothing at another.
    """

    kind = "affine"
    W: np.ndarray = json_field(_array)
    b: np.ndarray = json_field(lambda b: None if b is None else _array(b), json_default=None)
    p: float

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
        self.affine = True
        self.dims = (W.shape[0], W.shape[0])
        self.meta = OperatorMeta(
            proven_nonexpansive=bool(interpolation_norm_bound(W, self.p) <= 1.0)
        )

    def _apply(self, x, linear=False):
        return x @ self.W.T if linear else x @ self.W.T + self.b


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

    kind = "scale"
    factor: float = json_field(json_float)

    def __post_init__(self):
        self.factor = float(self.factor)
        if not math.isfinite(self.factor):
            raise ValueError("scale factor must be finite")
        self.affine = True
        self.meta = OperatorMeta(
            proven_nonexpansive=abs(self.factor) <= 1.0,
            fixed_points=WHOLE_SPACE if self.factor == 1.0 else ORIGIN,
        )

    def _apply(self, x, linear=False):
        return self.factor * x


def identity() -> Scale:
    """Scale(1), the one identity node; compositions ignore it."""
    return Scale(1.0)


@dataclass(eq=False)
class Truncate(OperatorExpr):
    """Keep the first ``keep`` of ``dim`` coordinates, zero the rest.

    The node acts on dimension ``dim`` only, and carries the exact firm
    constant c_r/(c_r + 2) of the space ``sp`` and its coordinate-subspace
    fixed set.
    """

    kind = "truncate"
    keep: int = json_field(json_int, key="k")
    sp: SpaceParams
    dim: int

    def __post_init__(self):
        self.keep, self.dim = int(self.keep), int(self.dim)
        if not 1 <= self.keep < self.dim:
            raise ValueError(f"truncation requires 1 <= k < dim, got k={self.keep}, dim={self.dim}")
        self.affine = True
        self.dims = (self.dim, self.dim)
        kept = np.arange(self.dim) < self.keep
        self.meta = OperatorMeta(
            proven_nonexpansive=True,
            alpha_firm=self.sp.c_r / (self.sp.c_r + 2.0),
            fixed_points=Box(np.where(kept, -np.inf, 0.0), np.where(kept, np.inf, 0.0)),
        )

    def _apply(self, x, linear=False):
        out = np.array(x, copy=True)
        out[..., self.keep :] = 0.0
        return out


@dataclass(eq=False)
class SwapIsometry(OperatorExpr):
    """Exchange coordinates i and j (0-based); an isometry with U^2 = Id."""

    kind = "swap"
    i: int = json_field(json_int)
    j: int = json_field(json_int)

    def __post_init__(self):
        self.i, self.j = int(self.i), int(self.j)
        if self.i < 0 or self.j < 0 or self.i == self.j:
            raise ValueError("swap indices must be distinct and nonnegative")
        self.affine = True
        self.dims = (max(self.i, self.j) + 1, None)
        self.meta = OperatorMeta(
            proven_nonexpansive=True,
            fixed_points=AffineEqual(groups=((self.i, self.j),)),
        )

    def _apply(self, x, linear=False):
        out = np.array(x, copy=True)
        out[..., [self.i, self.j]] = x[..., [self.j, self.i]]
        return out


# y cosh y - sinh y = sum over k >= 1 of 2k/(2k+1)! y^(2k+1), all terms of
# one sign: its first ten coefficients, highest first (for |y| < 1 the
# eleventh term is below 1e-20 of the first)
_Y_COSH_MINUS_SINH = tuple(2 * k / math.factorial(2 * k + 1) for k in range(10, 0, -1))


def _tanh_resolvent(x: np.ndarray, lam: float) -> np.ndarray:
    """The y solving (1 + lam) y_i - lam tanh(y_i) = x_i in each coordinate of
    a finite input of any shape, by Newton on Python floats.

    Divided through by 1 + lam, the equation is h(y) = y - q tanh y - c x = 0
    with c = 1/(1 + lam), q = lam c and h' = c + q tanh^2 y > 0.  h is convex
    on the side of 0 where the root lies (it has the sign of x), so Newton
    from y_0 = x moves monotonically toward the root.  The Newton iterate is
    formed as (c x + q r)/(c + q t^2) with t = tanh y and r = t - y (1 - t^2):
    no term overflows where y is finite, and no y cancels (as y - h/h' would,
    losing eps |x| where the root is far below x).  r loses about eps |y| to
    cancellation where y is small, which moves y by up to eps lam |y|; so at
    lam > 1 and |y| < 1, r is formed as y t^2 - (y - tanh y), with
    y - tanh y = (y cosh y - sinh y)/cosh y summed from its series.  A step
    that does not shrink, or that does not bring y nearer 0, is at the
    rounding floor: the iteration stops before it, so |y| <= |x|.  Against a 50-digit bisection, for lam from 1e-3 to 2^52 and
    |x| from 1e-150 to 1e150, the relative error was at most 1.8 eps per
    coordinate; there, and on a grid of |x| from 1e-300 to 1e300, a
    coordinate evaluated h at most 6 times at lam <= 1 and at most 35 times
    at any lam with lam/(1 + lam) < 1.
    """
    c = 1.0 / (1.0 + lam)
    q = lam * c
    tanh, cosh = math.tanh, math.cosh
    series = lam > 1.0
    out = []
    for xi in x.ravel().tolist():
        y, b, last = xi, c * xi, math.inf
        for _ in range(NEWTON_BUDGET):
            t = tanh(y)
            if series and abs(y) < 1.0:
                z, s = y * y, 0.0
                for a in _Y_COSH_MINUS_SINH:
                    s = s * z + a
                r = y * t * t - y * z * s / cosh(y)
            else:
                r = t - y * (1.0 - t * t)
            y_next = (b + q * r) / (c + q * t * t)
            step = abs(y - y_next)
            if not (step < last and abs(y_next) < abs(y)):
                break
            y, last = y_next, step
        else:
            raise ResolventDiverged(
                f"resolvent Newton steps did not settle (lam={lam}, step {last:.3e} "
                f"after {NEWTON_BUDGET} iterations)", lam, NEWTON_BUDGET, last
            )
        out.append(y)
    return np.array(out).reshape(x.shape)


# name -> (coordinatewise map, fixed set, the resolvent solve of the map at
# lam on a finite input of any shape)
_ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0), Box(0.0, np.inf),
             lambda x, lam: np.maximum(x, 0.0) + np.minimum(x, 0.0) / (1.0 + lam)),
    "tanh": (np.tanh, ORIGIN, _tanh_resolvent),
}


@dataclass(eq=False)
class Activation(OperatorExpr):
    """Coordinatewise stable activation: increasing, 1-Lipschitz, fixing 0.

    Such a map is (Id + R)/2 for a nonexpansive coordinatewise R, hence
    1/2-averaged and 1/2-firm.
    """

    kind = "activation"
    name: str = json_field(json_str)

    def __post_init__(self):
        if self.name not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.name!r}, not in {sorted(_ACTIVATIONS)}")
        self.meta = OperatorMeta(
            proven_nonexpansive=True,
            alpha_firm=0.5,
            averaged=0.5,
            fixed_points=_ACTIVATIONS[self.name][1],
        )

    def _apply(self, x, linear=False):
        return _ACTIVATIONS[self.name][0](x)


def stable_activation(name: str) -> Activation:
    """Activation atom by name ('relu' or 'tanh')."""
    return Activation(name)


@dataclass(eq=False)
class Averaged(OperatorExpr):
    """(1 - alpha) Id + alpha * inner."""

    kind = "averaged"
    inner: OperatorExpr = json_field(_operand, nested=True)
    alpha: float = json_field(json_float)

    def __post_init__(self):
        self.alpha = float(self.alpha)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("averaging constant must lie in (0, 1)")
        self.dims = self.inner.dims
        self.affine = self.compiled = self.inner.affine
        proven = self.inner.meta.proven_nonexpansive
        self.meta = OperatorMeta(
            proven_nonexpansive=proven,
            alpha_firm=self.alpha if proven else None,
            averaged=self.alpha if proven else None,
            # Fix((1-a)Id + aR) = Fix R exactly, for any a in (0, 1)
            fixed_points=self.inner.meta.fixed_points,
        )

    def _apply(self, x, linear=False):
        return (1.0 - self.alpha) * x + self.alpha * self.inner._eval(x, linear)


def averaged(R: OperatorExpr, alpha: float) -> Averaged:
    """Average R with the identity; attaches alpha as firm and averaging
    constant when R is provably nonexpansive."""
    return Averaged(R, alpha)


def contractive_projection(U: OperatorExpr) -> Averaged:
    """(Id + U)/2 for an isometric involution U, i.e. Averaged(U, 1/2).

    This trusts the caller about U; the feasibility module provides an
    exactly checked builder.
    """
    return Averaged(U, 0.5)


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


def _combined_meta(ops, weights, firm_route, avg_route) -> OperatorMeta:
    """Metadata of a combination of ``ops`` with ``weights``.

    Operands of weight 0 and identities (only Id, 0-averaged and a-firm
    for every a, has the whole space as fixed set) drop out; when none
    remain the node is the identity and takes its first weighted operand's
    metadata.  ``firm_route(alphas)`` and ``avg_route(avgs, weights)``
    apply when every remaining operand carries their constant; the fixed
    sets intersect (if structurally nonempty) where the firm route does.
    """
    kept = [(op, w) for op, w in zip(ops, weights) if w > 0.0]
    factors = [(op, w) for op, w in kept if op.meta.fixed_points is not WHOLE_SPACE]
    if not factors:
        return kept[0][0].meta
    ops, weights = zip(*factors)
    alphas = [op.meta.alpha_firm for op in ops]
    firm = firm_route(alphas) if None not in alphas else None
    avgs = [op.meta.averaged for op in ops]
    avg = avg_route(avgs, weights) if None not in avgs else None
    candidates = [a for a in (firm, avg) if a is not None]
    fixed = None
    if firm is not None:
        fixed = merge_fixed_point_sets([op.meta.fixed_points for op in ops])
        if fixed is EMPTY_INTERSECTION:
            fixed = None
    return OperatorMeta(
        proven_nonexpansive=all(op.meta.proven_nonexpansive for op in ops),
        alpha_firm=min(candidates) if candidates else None,
        averaged=avg,
        fixed_points=fixed,
    )


def _composed_firm(alphas, n: int, r: float) -> float:
    """The firm route of ``Compose`` over n factors, in the space of type r."""
    a_max = max(alphas)
    return 1.0 / (1.0 + (1.0 - a_max) / (n ** (r - 1.0) * a_max))


def _composed_averaged(avgs) -> float:
    """The averaged route of ``Compose``."""
    return 1.0 - math.prod(1.0 - a for a in avgs)


@dataclass(eq=False)
class Compose(OperatorExpr):
    """ops[0] applied last: Compose([A, B])(x) = A(B(x)).

    Metadata comes from the n operands other than identities
    (``_combined_meta``).  Firm route (1 + (1 - a_max)/(n^(r-1) a_max))^(-1),
    with r of the space ``sp``; averaged route 1 - prod(1 - a_i).  Both are
    module functions that ``_Power`` calls too, so n copies of one node are
    one ``_Power``, never a repeat case here.
    """

    kind = "compose"
    ops: tuple = json_field(_operands, nested=True)
    sp: SpaceParams

    def __post_init__(self):
        ops = tuple(self.ops)
        if not ops:
            raise ValueError("compose requires at least one operator")
        self.ops = ops
        self.dims = _merged_dims(ops)
        self.affine = self.compiled = all(op.affine for op in ops)
        self.meta = _combined_meta(
            ops, (1.0,) * len(ops),
            lambda alphas: _composed_firm(alphas, len(alphas), self.sp.r),
            lambda avgs, _: _composed_averaged(avgs),
        )

    def _apply(self, x, linear=False):
        for op in reversed(self.ops):
            x = op._eval(x, linear)
        return x


@dataclass(eq=False)
class _Power(OperatorExpr):
    """step applied n times, with the metadata of ``Compose((step,) * n, sp)``
    derived from its one operand.  Its affine form is the n-th power of
    [[W, b], [0, 1]] by squaring, about 2 log2(n) small products; the zero
    row keeps b out of the W block.  ``dynamics.semigroup_product`` builds
    it; it has no JSON form."""

    step: OperatorExpr
    n: int
    sp: SpaceParams

    def __post_init__(self):
        self.dims = self.step.dims
        self.affine = self.compiled = self.step.affine
        self.meta = _combined_meta(
            (self.step,), (1.0,),
            lambda alphas: _composed_firm(alphas, self.n, self.sp.r),
            lambda avgs, _: _composed_averaged(avgs * self.n),
        )

    def _apply(self, x, linear=False):
        for _ in range(self.n):
            x = self.step._eval(x, linear)
        return x

    def _compile(self, d):
        W, b = self.step.affine_form(d)
        aug = np.eye(d + 1)
        aug[:d, :d], aug[:d, d] = W, b
        power = np.linalg.matrix_power(aug, self.n)
        return power[:d, :d].copy(), power[:d, d].copy()


@dataclass(eq=False)
class ConvexCombo(OperatorExpr):
    """sum_i weights[i] * ops[i](x).

    Metadata comes from the operands of positive weight other than
    identities (``_combined_meta``), with r-independent constants.  Firm
    route: max of their constants.  Averaged route: sum of w_i a_i, as
    w Id + sum w_i ((1 - a_i) Id + a_i R_i) shows.
    """

    kind = "convex_combo"
    ops: tuple = json_field(_operands, nested=True)
    weights: tuple = json_field(_array)

    def __post_init__(self):
        ops = tuple(self.ops)
        w = np.asarray(self.weights, dtype=float)
        if not ops or w.shape != (len(ops),):
            raise ValueError("need one weight per operand")
        if not (np.all(w >= 0.0) and abs(float(w.sum()) - 1.0) <= WEIGHT_TOL):
            raise ValueError("weights must be nonnegative and sum to 1")
        self.ops = ops
        self.weights = tuple(float(v) for v in w)
        self.dims = _merged_dims(ops)
        self.affine = self.compiled = all(op.affine for op in ops)
        self.meta = _combined_meta(
            ops, self.weights, max, lambda avgs, w: float(sum(wi * a for wi, a in zip(w, avgs)))
        )

    def _apply(self, x, linear=False):
        out = self.weights[0] * self.ops[0]._eval(x, linear)
        for w, op in zip(self.weights[1:], self.ops[1:]):
            out = out + w * op._eval(x, linear)
        return out


def _coordinatewise(F: OperatorExpr) -> tuple[str, float] | None:
    """(name, a) when F is the activation ``name`` (a = 1) or its average
    ``Averaged(activation, a)``, whose I - F is a (I - activation); None for
    every other node."""
    if isinstance(F, Averaged) and isinstance(F.inner, Activation):
        return F.inner.name, F.alpha
    if isinstance(F, Activation):
        return F.name, 1.0
    return None


def _bounds(v) -> tuple[float, float]:
    """(min, max) of per-row values as floats; one row skips the reductions."""
    return (float(v), float(v)) if v.ndim == 0 else (float(v.min()), float(v.max()))


@dataclass(eq=False)
class Resolvent(OperatorExpr):
    """x -> (Id + lam (Id - F))^(-1) x, the unique fixed point of
    y -> x/(1+lam) + (lam/(1+lam)) F(y); lam = 0 is the identity.

    Closed form: when lam > 0 and F is a proven-nonexpansive affine map
    F y = W y + b (its ``affine_form``), the value is y = A^(-1) (x + lam b)
    with A = I + lam (I - W).  (A^(-1), lam A^(-1) b) is the node's own
    affine form, computed once per dimension and cached on the node, so
    every later evaluation is one matrix product, whatever lam and the
    scale of x.  Its forward error is about cond(A) eps relative to
    ||x||, and cond(A) grows like lam (on the averaged two-swap chain at
    lam = 1e6, cond(A) = 1.2e6 and the error against an exact rational
    solve is at most 2.4e-11).  An A that is singular in float64 (the
    averaged two-swap chain at lam = 1e17) or a non-finite value raises
    ``ResolventDiverged``.

    Coordinatewise inners: when F is an activation, or ``Averaged`` of one
    with constant a (then I - F = a (I - activation), and the value is the
    activation's resolvent at a lam), the equation
    (1 + lam) y_i - lam F(y)_i = x_i is solved one coordinate at a time.
    relu has the exact closed form max(x, 0) + min(x, 0)/(1 + lam), for any
    shape.  tanh is solved by a monotone scalar Newton on Python floats
    (``_tanh_resolvent``), on one vector or a batch alike, to within 2 eps
    relative per coordinate at every lam.

    Iteration: every other inner map (not coordinatewise, or without a
    certificate; building the node warns for the latter) runs the
    contraction above on the inner map's ``_apply`` (its root walked, its
    compound operands compiled), with
    factor q = lam/(1+lam) when F is nonexpansive.  A step is measured by
    its largest entry, exact at every scale.  Each row of a batch is done
    when its step is within ``tol * scale / d^(1/p)``, tol = ``RESOLVENT_TOL``
    and scale = max(max|x|, delta_1, max|y|) with delta_1 its first step:
    as ||v||_p <= d^(1/p) max|v|, its lp step is then within tol times its
    scale and its error about tol lam times its scale, whatever else is in
    the batch.  A
    non-finite iterate, a step above d^(1/p) delta_1 and the threshold (no
    contraction takes one), or an exhausted geometric budget (from d^(1/p)
    delta_1 down to the threshold) raises ``ResolventDiverged``.  So does,
    on every inner but an affine one, a non-finite input or a lam so large
    that q rounds to 1.
    """

    kind = "resolvent"
    inner: OperatorExpr = json_field(_operand, nested=True)
    lam: float = json_field(json_float)
    p: float

    def __post_init__(self):
        self.lam = float(self.lam)
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"resolvent parameter lam must be finite and >= 0, got {self.lam}")
        self.dims = self.inner.dims
        proven = self.inner.meta.proven_nonexpansive
        if not proven:
            warnings.warn(
                "resolvent of an operator without a nonexpansiveness certificate; "
                "the contraction iteration may diverge",
                stacklevel=3,
            )
        self.affine = proven and self.inner.affine
        self.meta = OperatorMeta(
            proven_nonexpansive=proven,
            alpha_firm=0.5 if proven else None,
            # Fix F = Fix R_lam whenever F is nonexpansive
            fixed_points=self.inner.meta.fixed_points if proven else None,
        )

    def _compile(self, d):
        """(A^(-1), lam A^(-1) b); the identity at lam = 0."""
        if self.lam == 0.0:
            return np.eye(d), np.zeros(d)
        W, b = self.inner.affine_form(d)
        eye = np.eye(d)
        # I - W first: it cancels exactly on vectors W fixes exactly,
        # so A keeps them fixed; (1+lam) I - lam W would round them
        try:
            M = np.linalg.inv(eye + self.lam * (eye - W))
        except np.linalg.LinAlgError as exc:
            raise ResolventDiverged(
                f"resolvent matrix I + lam (I - W) is singular in float64 (lam={self.lam})",
                self.lam,
            ) from exc
        return M, self.lam * (M @ b)

    def _apply(self, x, linear=False):
        if self.lam == 0.0:
            return np.array(x, copy=True)
        form = self.affine_form(x.shape[-1])
        if form is not None:
            y = x @ form[0].T if linear else x @ form[0].T + form[1]
            if not _all_finite(y):
                raise ResolventDiverged(
                    f"resolvent closed form is not finite (lam={self.lam})", self.lam
                )
            return y
        q = self.lam / (1.0 + self.lam)
        if q == 1.0:
            raise ResolventDiverged(
                f"lam/(1+lam) rounds to 1 (lam={self.lam}): the contraction iteration cannot converge",
                self.lam,
            )
        if not _all_finite(x):
            raise ResolventDiverged(f"resolvent input is not finite (lam={self.lam})", self.lam)
        coordinatewise = _coordinatewise(self.inner)
        if coordinatewise is not None:
            name, a = coordinatewise
            return _ACTIVATIONS[name][2](x, a * self.lam)
        # max|v| <= ||v||_p <= root_d max|v|; the lp steps of a
        # q-contraction shrink by q from at most root_d scale
        root_d = x.shape[-1] ** (1.0 / self.p)
        tol = RESOLVENT_TOL / root_d
        budget = 20 + max(0, int(math.log(tol / root_d) / math.log(q)))
        base = x / (1.0 + self.lam)
        # max|y| <= max|x| + the steps: read max|y| only where that could pass
        x_max = np.abs(x).max(axis=-1)
        y, y_bound = x, _bounds(x_max)[1]
        for it in range(budget):
            y_next = base + q * self.inner._apply(y)
            step = np.abs(y_next - y).max(axis=-1)
            delta = _bounds(step)[1]
            y, y_bound = y_next, y_bound + delta
            if not delta < math.inf:
                raise ResolventDiverged(
                    f"resolvent iterate is not finite (lam={self.lam})", self.lam, it + 1, delta
                )
            if it == 0:
                # per row: scale without max|y|; largest step (contraction or rounding)
                scale = np.maximum(x_max, step)
                grow = np.maximum(root_d * step, tol * scale)
                (lo, hi), grow_lo = _bounds(tol * scale), _bounds(grow)[0]
            if delta <= lo:
                return y
            if delta > grow_lo and np.any(step > grow):
                break
            if delta <= max(hi, tol * y_bound) and np.all(
                step <= tol * np.maximum(scale, np.abs(y).max(axis=-1))
            ):
                return y
        raise ResolventDiverged(
            f"resolvent iteration did not contract (lam={self.lam}, step {delta:.3e} "
            f"after {it + 1} iterations); is the inner operator nonexpansive?",
            self.lam, it + 1, delta,
        )


def compose(ops, sp: SpaceParams) -> Compose:
    """Composition in the space sp; ops[0] is applied last."""
    return Compose(tuple(ops), sp)


def convex_combination(ops, weights) -> ConvexCombo:
    """Weighted sum of ops; its constants do not depend on the space."""
    return ConvexCombo(tuple(ops), tuple(weights))


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


def resolvent_operator(F: OperatorExpr, lam: float, sp: SpaceParams) -> Resolvent:
    """Resolvent of F with firm constant 1/2 and the fixed set of F; warns
    when F carries no nonexpansiveness certificate."""
    return Resolvent(F, lam, p=sp.p)


# ---------------------------------------------------------------------------
# JSON wire format: each node is a kind-tagged object holding its declared
# fields (``projections.json_field``), operands as nested documents and
# matrices row-major; the space arguments come from the enclosing config.

_KINDS = {T.kind: T for T in (Affine, Scale, Truncate, SwapIsometry, Activation, Averaged,
                              Compose, ConvexCombo, Resolvent)}


def operator_to_json(T: OperatorExpr) -> dict:
    return json_write(T)


def operator_from_json(doc: dict, sp: SpaceParams, dim: int) -> OperatorExpr:
    """Build an operator from its JSON description; the node constructors
    derive its metadata.  An undeclared key, or a missing or malformed
    field, raises ValueError naming its key."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("operator document must be an object with a 'kind' tag")
    if doc["kind"] == "affine" and "guarantee_nonexpansive" in doc:  # a flag, not a field
        rescale = json_value(doc, "guarantee_nonexpansive", json_bool)
        rest = {k: v for k, v in doc.items() if k != "guarantee_nonexpansive"}
        T = json_read(_KINDS, rest, "operator", p=sp.p)
        return guaranteed_nonexpansive_affine(T.W, T.b, sp.p) if rescale else T
    return json_read(_KINDS, doc, "operator", sp=sp, p=sp.p, dim=dim)
