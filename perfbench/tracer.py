"""Span tracer that wraps firmlp's public functions from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
firmlp module that binds it (modules import names with ``from .space import
lp_norm``, so patching only the defining module would miss those calls) and
patches ``OperatorExpr.apply`` together with ``__call__``, which the class
bound to the original ``apply`` when it was created.

A wrapper records a span (name, start, end, parent span, task) only while a
task is open, so set-up and output checks stay out of the trace.  Each task
is itself a span; its self time is the part of the task no wrapper covers.
Spans stay in memory and are written out by ``write``.  Counts (rows, bytes,
pairs, steps) are taken at the same boundaries.

The wrapper's own work (naming the span, opening and closing it, the counter
callbacks) lies outside the span it records but inside the parent's span.
The wrapper therefore also records its entry and exit times; the part of
that interval outside the span is the span's tracing overhead.  A parent's
self time subtracts its children's whole wrapped intervals, so the overhead
lands in ``overhead_s`` and not in the caller's self time:

    layers_self_s + overhead_s + unwrapped_s == task_s
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

import numpy as np

import firmlp.certify as C
import firmlp.cli as CLI
import firmlp.dynamics as D
import firmlp.feasibility as F
import firmlp.operators as O
import firmlp.projections as P
import firmlp.space as S

TASK = "task"

_SET_KINDS = {"Box": "box", "AffineEqual": "affine_equal", "Ball": "ball", "Halfspace": "halfspace"}

BUILD_FACTORIES = (
    "identity", "averaged", "compose", "convex_combination", "truncation_operator",
    "stable_activation", "neural_network", "guaranteed_nonexpansive_affine",
    "contractive_projection", "resolvent_operator", "operator_from_json",
)


def _rows(x, axis=-1) -> int:
    a = np.asarray(x)
    return a.size // a.shape[axis] if a.ndim and a.shape[axis] else 1


def _count_lp_norm(c, args, kwargs, out):
    a = np.asarray(args[0])
    c["space.lp_norm.rows"] += _rows(a, kwargs.get("axis", args[2] if len(args) > 2 else -1))
    c["space.lp_norm.bytes"] += a.nbytes  # computed from the input size, not measured


def _project_name(args):
    return f"projections.project.{_SET_KINDS.get(type(args[0]).__name__, 'other')}"


def _count_project(c, args, kwargs, out):
    c[f"{_project_name(args)}.rows"] += _rows(args[1])


def _count_apply(c, args, kwargs, out):
    if np.ndim(args[1]) != 1:
        c["operators.apply.batch.rows"] += _rows(args[1])


def _count_draw(c, args, kwargs, out):
    c["certify.sampler_draw.rows"] += len(out)


def _count_certify(c, args, kwargs, out):
    c["certify.pairs"] += out.samples
    c["certify.degenerate_pairs"] += out.degenerate_pairs


def _count_picard(c, args, kwargs, out):
    c["dynamics.picard_steps"] += len(out.step_norms)


def _count_semigroup(c, args, kwargs, out):
    c["dynamics.semigroup_product.n_sum"] += int(kwargs.get("n", args[2] if len(args) > 2 else 0))


# (module, attribute, span name, counter)
FUNCTIONS = [
    (S, "lp_norm", "space.lp_norm", _count_lp_norm),
    (S, "norm_pow", "space.norm_pow", None),
    (P, "project", _project_name, _count_project),
    (P, "sample_points", "projections.sample_points", None),
    (P, "projection_pair_residual", "projections.projection_pair_residual", None),
    *[(O, name, "operators.build", None) for name in BUILD_FACTORIES],
    *[(C, name, f"certify.{name}", _count_certify) for name in (
        "certify_alpha_firm", "certify_quasi_alpha_firm", "certify_nonexpansive", "certify_bruck_firm",
    )],
    (D, "picard_iterate", "dynamics.picard_iterate", _count_picard),
    (D, "asymptotic_regularity_report", "dynamics.asymptotic_regularity_report", None),
    (D, "semigroup_limit_estimate", "dynamics.semigroup_limit_estimate", None),
    (D, "semigroup_product", "dynamics.semigroup_product", _count_semigroup),
    (D, "resolvent_apply", "dynamics.resolvent_apply", None),
    *[(F, name, f"feasibility.{name}", None) for name in (
        "alternating_projections", "averaged_projections", "fixed_set_equality_check",
        "projection_from_isometry",
    )],
    (CLI, "main", "cli.main", None),
]


def _apply_name(args):
    return "operators.apply.single" if np.ndim(args[1]) == 1 else "operators.apply.batch"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tasks: list[int] = []
        self.entries: list[float] = []  # wrapper entry, before the span opens
        self.exits: list[float] = []  # wrapper exit, after the counter ran
        self.stack: list[int] = []
        self.task: int | None = None
        self.counts: Counter = Counter()

    def _open(self, name: str, entry: float) -> int:
        idx = len(self.names)
        self.entries.append(entry)
        self.exits.append(0.0)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.tasks.append(self.task)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.exits[idx] = perf_counter()
        self.stack.pop()

    def begin_task(self, task_id: int) -> None:
        self.task = task_id
        self._open(TASK, perf_counter())

    def end_task(self) -> None:
        self._close(self.stack[-1])
        self.task = None

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            entry = perf_counter()
            idx = self._open(name(args) if callable(name) else name, entry)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            self.exits[idx] = perf_counter()
            return out

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "firmlp" or key.startswith("firmlp.")]
        for owner, attr, name, counter in FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        apply = self.wrap(O.OperatorExpr.apply, _apply_name, _count_apply)
        O.OperatorExpr.apply = apply
        O.OperatorExpr.__call__ = apply
        C.Sampler.draw = self.wrap(C.Sampler.draw, "certify.sampler_draw", _count_draw)

    def summary(self) -> dict:
        """Calls and self time per span name, plus the accounting totals:
        layer self times + tracing overhead + unwrapped task time == traced
        task time."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        wrapped = np.asarray(self.exits) - np.asarray(self.entries)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], wrapped[nested])
        own = dur - child
        calls: Counter = Counter(self.names)
        self_s: dict = {}
        for name, t in zip(self.names, own.tolist()):
            self_s[name] = self_s.get(name, 0.0) + t
        is_task = np.asarray([n == TASK for n in self.names], dtype=bool)
        return {
            "calls": calls,
            "self_s": self_s,
            "counts": self.counts,
            "task_s": float(dur[is_task].sum()),
            "unwrapped_s": float(own[is_task].sum()),
            "layers_self_s": float(own[~is_task].sum()),
            "overhead_s": float((wrapped - dur)[~is_task].sum()),
            "spans": int((~is_task).sum()),
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,entry,start,end,exit,parent,task\n")
            rows = zip(self.names, self.entries, self.starts, self.ends, self.exits, self.parents, self.tasks)
            for i, (name, entry, start, end, exit_, parent, task) in enumerate(rows):
                fh.write(f"{i},{name},{entry:.9f},{start:.9f},{end:.9f},{exit_:.9f},{parent},{task}\n")
