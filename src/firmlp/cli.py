"""Batch experiment runner.

Subcommands: certify, iterate, resolvent, semigroup, feasibility.  Each
reads a JSON config (selected keys overridable from the command line),
runs the corresponding module and writes CSV/JSON under --out.  Outputs are
byte-deterministic for a fixed config and seed: CSV numbers carry 17
significant digits and JSON documents are dumped with sorted keys.

Exit codes: 0 success, 1 usage or config error, 2 property failure (a
certification found a witness, or the instance is infeasible), 3 numeric
failure (divergence, non-convergence, or a NaN or Inf arising in the run).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import certify as cert
from . import dynamics, feasibility
from .operators import DimensionMismatch, ResolventDiverged, json_value, operator_from_json
from .space import NonFiniteError, lp_norm, space_params

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _load_config(path: str, overrides: dict) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key, val in overrides.items():
        if val is not None:
            doc[key] = val
    return doc


def _check_keys(doc, required: set, optional: set, what: str = "config") -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    missing = required - doc.keys()
    if missing:
        raise ConfigError(f"missing {what} keys: {sorted(missing)}")
    unknown = doc.keys() - required - optional
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def _prepare(args, required: set, optional: set, vector: str | None):
    """Load the config, check its keys, parse the space and dimension, build
    the operator (for feasibility, the projection specs) and check the shape
    of the input vector, in that order; returns (doc, sp, dim, op, vector)."""
    doc = _load_config(args.config, {"p": args.p, "dim": args.dim, "seed": args.seed})
    _check_keys(doc, required | {"p", "dim"}, optional | {"seed"})
    sp = space_params(json_value(doc, "p", float))
    dim = json_value(doc, "dim", int)
    if dim < 1:
        raise ConfigError("dim must be >= 1")
    if "operator" in doc:
        op = operator_from_json(doc["operator"], sp, dim)
    else:
        op = feasibility.load_instance_json(json_value(doc, "isometries", list), sp, dim)
    vec = None
    if vector is not None:
        vec = json_value(doc, vector, lambda v: np.asarray(v, dtype=float))
        if vec.shape != (dim,) or not np.isfinite(vec).all():
            raise ConfigError(f"{vector!r} must hold {dim} finite coordinates")
    return doc, sp, dim, op, vec


_SAMPLER_KEYS = {
    "dist": str,
    "low": float,
    "high": float,
    "scale": float,
    "min_norm": lambda v: None if v is None else float(v),
}
_STOP_KEYS = {"step_tol": float, "max_iter": int}


def _settings(doc: dict, keys: dict, names: dict | None = None) -> dict:
    """The entries of ``keys`` (key -> converter) that ``doc`` sets, each read
    through ``json_value`` and named as the library's parameter (``names``
    maps the keys whose names differ); the library's defaults fill in the
    rest."""
    names = names or {}
    return {
        names.get(key, key): json_value(doc, key, convert)
        for key, convert in keys.items()
        if key in doc
    }


def _sampler_from(doc: dict, seed: int, dim: int) -> cert.Sampler:
    _check_keys(doc, set(), set(_SAMPLER_KEYS), "sampler")
    return cert.Sampler(seed=seed, dim=dim, **_settings(doc, _SAMPLER_KEYS))


def _stop_rule(doc: dict) -> dynamics.StopRule:
    _check_keys(doc, set(), set(_STOP_KEYS), "stop-rule")
    return dynamics.StopRule(**_settings(doc, _STOP_KEYS))


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by None: RFC 8259 JSON
    has no Infinity or NaN (an overflowed run's step norm is one)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(doc), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _write_run(csv_path: Path, summary_path: Path, traj: dynamics.Trajectory, **extra) -> None:
    """Write the trajectory CSV and its summary JSON, with ``extra`` keys
    (such as "error" after a failed run) added to the summary."""
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        dynamics.trajectory_to_csv(traj, fh)
    summary = {
        "iterations": int(len(traj.step_norms)),
        "converged": traj.converged,
        "stop_reason": traj.stop_reason,
        "final_step_norm": traj.final_residual,
        "limit": traj.limit.tolist(),
    }
    if traj.fejer_distances is not None:
        summary["fejer_nonincreasing"] = traj.fejer_nonincreasing
        summary["fejer_final_distances"] = traj.fejer_distances[-1].tolist()
    _write_json(summary_path, summary | extra)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_certify(out: Path, doc: dict, sp, dim: int, T, _) -> int:
    seed = json_value(doc, "seed", int, 0)
    run = _settings(doc, {"samples": int, "tol": float}, {"samples": "n"})
    sampler = _sampler_from(doc.get("sampler", {}), seed, dim)
    prop = doc["property"]
    if prop == "nonexpansive":
        report = cert.certify_nonexpansive(T, sp.p, sampler, **run)
    elif prop == "alpha_firm":
        second = _sampler_from(doc.get("sampler", {}), seed + 1, dim)
        report = cert.certify_alpha_firm(
            T, json_value(doc, "alpha", float), sp, (sampler, second), **run
        )
    elif prop == "quasi_alpha_firm":
        report = cert.certify_quasi_alpha_firm(
            T, json_value(doc, "alpha", float), sp, None, sampler, **run
        )
    elif prop == "bruck":
        grid = json_value(doc, "w_grid", lambda v: None if v is None else _floats(v), None)
        report = cert.certify_bruck_firm(T, sp, sampler, w_grid=grid, **run)
    else:
        raise ConfigError(f"unknown property {prop!r}")
    path = json_value(doc, "report", out.joinpath, "certify_report.json")
    _write_json(path, cert.report_to_json(report))
    print(f"{report.property}: {'PASS' if report.passed else 'FAIL'} "
          f"(worst residual {dynamics.fmt(report.worst_residual)}) -> {path}")
    return EXIT_OK if report.passed else EXIT_PROPERTY


def _cmd_iterate(out: Path, doc: dict, sp, dim: int, T, x0) -> int:
    stop = _stop_rule(doc.get("stop", {}))
    monitors = dynamics.MonitorConfig(sp=sp, **_settings(
        doc, {"n_fejer": int, "seed": int, "track_fix_projections": bool},
        {"n_fejer": "auto_fejer"},
    ))
    csv_path = json_value(doc, "csv", out.joinpath, "trajectory.csv")
    summary_path = json_value(doc, "summary", out.joinpath, "summary.json")
    try:
        traj = dynamics.picard_iterate(T, x0, stop, monitors)
    except dynamics.DivergenceError as exc:
        _write_run(csv_path, summary_path, exc.trajectory, error=str(exc))
        print(f"divergence: {exc} -> {csv_path}", file=sys.stderr)
        return EXIT_NUMERIC
    _write_run(csv_path, summary_path, traj)
    print(f"iterate: {traj.stop_reason} after {len(traj.step_norms)} steps -> {csv_path}")
    return EXIT_OK


def _cmd_resolvent(out: Path, doc: dict, sp, dim: int, F, x) -> int:
    lambdas = json_value(doc, "lambdas", _floats)
    path = json_value(doc, "report", out.joinpath, "resolvent.json")
    report = {"p": sp.p, "x": x.tolist(), "results": []}
    for lam in lambdas:
        try:
            y = dynamics.resolvent_apply(F, lam, x, sp)
            displacement = float(lp_norm(y - x, sp.p))
        except (ResolventDiverged, NonFiniteError) as exc:
            # keep the rows that succeeded, as iterate and feasibility do
            _write_json(path, report | {"error": str(exc)})
            print(f"numeric failure: {exc} -> {path}", file=sys.stderr)
            return EXIT_NUMERIC
        report["results"].append({"lam": lam, "value": y.tolist(), "displacement": displacement})
    _write_json(path, report)
    print(f"resolvent: {len(lambdas)} parameter values -> {path}")
    return EXIT_OK


def _cmd_semigroup(out: Path, doc: dict, sp, dim: int, F, x) -> int:
    t = json_value(doc, "t", float)
    schedule = json_value(doc, "schedule", lambda ns: [int(n) for n in ns])
    est = dynamics.semigroup_limit_estimate(F, t, x, schedule, sp)
    errors = est.closed_form_errors
    csv_path = json_value(doc, "csv", out.joinpath, "semigroup.csv")
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        cols = ["n", "t"] + [f"x_{i+1}" for i in range(dim)] + ["diff", "closed_form_error"]
        fh.write(",".join(cols) + "\n")
        for k, n in enumerate(est.schedule):
            row = [str(n), dynamics.fmt(t)] + [dynamics.fmt(v) for v in est.values[k]]
            row.append("" if k == 0 else dynamics.fmt(est.diffs[k - 1]))
            row.append("" if errors is None else dynamics.fmt(errors[k]))
            fh.write(",".join(row) + "\n")
    summary = {
        "t": t,
        "schedule": list(est.schedule),
        "value": est.value.tolist(),
        "cauchy_ok": est.cauchy_ok,
    }
    if est.axiom_checks is not None:
        summary["axiom_checks"] = est.axiom_checks
    _write_json(json_value(doc, "summary", out.joinpath, "semigroup.json"), summary)
    if not est.cauchy_ok:
        print("semigroup: non-Cauchy value sequence", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"semigroup: {len(est.schedule)} products -> {csv_path}")
    return EXIT_OK


def _cmd_feasibility(out: Path, doc: dict, sp, dim: int, specs, x0) -> int:
    stop = _stop_rule(doc.get("stop", {}))
    mode = doc.get("mode", "alternating")
    monitors = _settings(doc, {"n_fejer": int, "seed": int})
    csv_path = json_value(doc, "csv", out.joinpath, "feasibility.csv")
    summary_path = json_value(doc, "summary", out.joinpath, "feasibility.json")
    try:
        if mode == "alternating":
            traj = feasibility.alternating_projections(specs, x0, stop, sp, **monitors)
        elif mode == "averaged":
            weights = json_value(doc, "weights", _floats, [1.0 / len(specs)] * len(specs))
            traj = feasibility.averaged_projections(specs, weights, x0, stop, sp, **monitors)
        else:
            raise ConfigError(f"unknown mode {mode!r}")
    except feasibility.EmptyIntersectionError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except feasibility.FeasibilityError as exc:
        _write_run(csv_path, summary_path, exc.trajectory, error=str(exc))
        print(f"feasibility failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    residuals = [float(feasibility.membership_residual(s.image, traj.limit, sp.p)) for s in specs]
    _write_run(csv_path, summary_path, traj, membership_residuals=residuals)
    print(f"feasibility: {mode} scheme, {len(traj.step_norms)} steps -> {csv_path}")
    return EXIT_OK


# subcommand -> (handler, required keys, optional keys, input vector key);
# every subcommand also takes "p", "dim" and an optional "seed"
_COMMANDS = {
    "certify": (
        _cmd_certify,
        {"operator", "property"},
        {"alpha", "samples", "tol", "sampler", "w_grid", "report"},
        None,
    ),
    "iterate": (
        _cmd_iterate,
        {"operator", "x0"},
        {"stop", "n_fejer", "track_fix_projections", "csv", "summary"},
        "x0",
    ),
    "resolvent": (_cmd_resolvent, {"operator", "lambdas", "x"}, {"report"}, "x"),
    "semigroup": (_cmd_semigroup, {"operator", "t", "schedule", "x"}, {"csv", "summary"}, "x"),
    "feasibility": (
        _cmd_feasibility,
        {"isometries", "x0"},
        {"mode", "weights", "stop", "n_fejer", "csv", "summary"},
        "x0",
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="firmlp",
        description="Experiment runner: inequality certification, fixed-point "
        "iteration, resolvent and semigroup studies, feasibility solves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--dim", type=int, default=None, help="override config dim")
        p.add_argument("--p", type=float, default=None, help="override config p")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    run, required, optional, vector = _COMMANDS[args.command]
    try:
        return run(Path(args.out), *_prepare(args, required, optional, vector))
    except feasibility.IsometryCheckError as exc:
        print(f"rejected isometry: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (ResolventDiverged, dynamics.DivergenceError, NonFiniteError) as exc:
        # config vectors are checked finite, so a NaN or Inf arose in the run
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, DimensionMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
