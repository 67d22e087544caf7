"""Batch experiment runner.

Subcommands: certify, iterate, resolvent, semigroup, feasibility.  Each
reads a JSON config (selected keys overridable from the command line),
runs the corresponding module and writes CSV/JSON under --out.  Outputs are
byte-deterministic for a fixed config and seed: CSV numbers carry 17
significant digits and JSON documents are dumped with sorted keys.

Exit codes: 0 success, 1 usage or config error, 2 property failure (a
certification found a witness, or the instance is infeasible), 3 numeric
failure (divergence or non-convergence).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import certify as cert
from . import dynamics, feasibility
from .operators import DimensionMismatch, ResolventDiverged, operator_from_json
from .space import lp_norm, space_params

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


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


def _check_keys(doc: dict, required: set, optional: set) -> None:
    missing = required - doc.keys()
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    unknown = doc.keys() - required - optional
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")


def _space_and_dim(doc: dict):
    try:
        sp = space_params(float(doc["p"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    dim = int(doc["dim"])
    if dim < 1:
        raise ConfigError("dim must be >= 1")
    return sp, dim


def _prepare(args, required: set, optional: set, vector: str | None):
    """Load the config, check its keys, parse the space and dimension, build
    the operator (for feasibility, the projection specs) and check the shape
    of the input vector, in that order; returns (doc, sp, dim, op, vector)."""
    doc = _load_config(args.config, {"p": args.p, "dim": args.dim, "seed": args.seed})
    _check_keys(doc, required | {"p", "dim"}, optional | {"seed"})
    sp, dim = _space_and_dim(doc)
    if "operator" in doc:
        op = operator_from_json(doc["operator"], sp, dim)
    else:
        op = feasibility.load_instance_json(doc["isometries"], sp, dim)
    vec = None
    if vector is not None:
        vec = np.asarray(doc[vector], dtype=float)
        if vec.shape != (dim,):
            raise ConfigError(f"{vector} must have dim {dim} coordinates")
    return doc, sp, dim, op, vec


def _sampler_from(doc: dict, seed: int, dim: int) -> cert.Sampler:
    allowed = {"dist", "low", "high", "scale", "min_norm"}
    unknown = doc.keys() - allowed
    if unknown:
        raise ConfigError(f"unknown sampler keys: {sorted(unknown)}")
    return cert.Sampler(
        seed=seed,
        dim=dim,
        dist=doc.get("dist", "uniform"),
        low=float(doc.get("low", -10.0)),
        high=float(doc.get("high", 10.0)),
        scale=float(doc.get("scale", 1.0)),
        min_norm=doc.get("min_norm"),
    )


def _stop_rule(doc: dict) -> dynamics.StopRule:
    allowed = {"step_tol", "max_iter"}
    unknown = doc.keys() - allowed
    if unknown:
        raise ConfigError(f"unknown stop-rule keys: {sorted(unknown)}")
    return dynamics.StopRule(
        step_tol=float(doc.get("step_tol", 1e-10)),
        max_iter=int(doc.get("max_iter", 100_000)),
    )


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_trajectory(path: Path, traj: dynamics.Trajectory) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        dynamics.trajectory_to_csv(traj, fh)


def _summary_of(traj: dynamics.Trajectory, sp) -> dict:
    doc = {
        "iterations": int(len(traj.step_norms)),
        "converged": traj.converged,
        "stop_reason": traj.stop_reason,
        "final_step_norm": traj.final_residual,
        "limit": traj.limit.tolist(),
    }
    if traj.fejer_distances is not None:
        gaps = np.diff(traj.fejer_distances, axis=0)
        slack = 1e-12 * np.maximum(traj.fejer_distances[0], 1.0)
        doc["fejer_nonincreasing"] = bool(np.all(gaps <= slack[None, :]))
        doc["fejer_final_distances"] = traj.fejer_distances[-1].tolist()
    return doc


# ---------------------------------------------------------------------------
# subcommands

def _cmd_certify(out: Path, doc: dict, sp, dim: int, T, _) -> int:
    seed = int(doc.get("seed", 0))
    n = int(doc.get("samples", 10_000))
    tol = float(doc.get("tol", cert.DEFAULT_TOL))
    sampler = _sampler_from(doc.get("sampler", {}), seed, dim)
    prop = doc["property"]
    if prop == "nonexpansive":
        report = cert.certify_nonexpansive(T, sp.p, sampler, n=n, tol=tol)
    elif prop == "alpha_firm":
        if "alpha" not in doc:
            raise ConfigError("property alpha_firm needs an 'alpha' key")
        second = _sampler_from(doc.get("sampler", {}), seed + 1, dim)
        report = cert.certify_alpha_firm(
            T, float(doc["alpha"]), sp, (sampler, second), n=n, tol=tol
        )
    elif prop == "quasi_alpha_firm":
        if "alpha" not in doc:
            raise ConfigError("property quasi_alpha_firm needs an 'alpha' key")
        fix_doc = doc.get("fix_sampler")
        fix_sampler = None
        if fix_doc is not None:
            fix_sampler = _sampler_from(fix_doc, seed + 1, dim)
            fix_sampler.constraint = T.meta.fixed_points
        report = cert.certify_quasi_alpha_firm(
            T, float(doc["alpha"]), sp, fix_sampler, sampler, n=n, tol=tol
        )
    elif prop == "bruck":
        grid = doc.get("w_grid")
        report = cert.certify_bruck_firm(T, sp, sampler, w_grid=grid, n=n, tol=tol)
    else:
        raise ConfigError(f"unknown property {prop!r}")
    path = out / doc.get("report", "certify_report.json")
    _write_json(path, cert.report_to_json(report))
    print(f"{report.property}: {'PASS' if report.passed else 'FAIL'} "
          f"(worst residual {_fmt(report.worst_residual)}) -> {path}")
    return EXIT_OK if report.passed else EXIT_PROPERTY


def _cmd_iterate(out: Path, doc: dict, sp, dim: int, T, x0) -> int:
    stop = _stop_rule(doc.get("stop", {}))
    monitors = dynamics.MonitorConfig(
        sp=sp,
        auto_fejer=int(doc.get("n_fejer", 0)),
        seed=int(doc.get("seed", 0)),
        track_fix_projections=bool(doc.get("track_fix_projections", False)),
    )
    csv_path = out / doc.get("csv", "trajectory.csv")
    summary_path = out / doc.get("summary", "summary.json")
    try:
        traj = dynamics.picard_iterate(T, x0, stop, monitors)
    except dynamics.DivergenceError as exc:
        _write_trajectory(csv_path, exc.trajectory)
        _write_json(summary_path, _summary_of(exc.trajectory, sp) | {"error": str(exc)})
        print(f"divergence: {exc} -> {csv_path}", file=sys.stderr)
        return EXIT_NUMERIC
    _write_trajectory(csv_path, traj)
    _write_json(summary_path, _summary_of(traj, sp))
    print(f"iterate: {traj.stop_reason} after {len(traj.step_norms)} steps -> {csv_path}")
    return EXIT_OK


def _cmd_resolvent(out: Path, doc: dict, sp, dim: int, F, x) -> int:
    tol = float(doc.get("tol", 1e-12))
    rows = []
    for lam in doc["lambdas"]:
        y = dynamics.resolvent_apply(F, float(lam), x, sp, tol=tol)
        rows.append({"lam": float(lam), "value": y.tolist(),
                     "displacement": float(lp_norm(y - x, sp.p))})
    path = out / doc.get("report", "resolvent.json")
    _write_json(path, {"p": sp.p, "x": x.tolist(), "results": rows})
    print(f"resolvent: {len(rows)} parameter values -> {path}")
    return EXIT_OK


def _cmd_semigroup(out: Path, doc: dict, sp, dim: int, F, x) -> int:
    t = float(doc["t"])
    if t == 0.0:
        # resolvent products at t = 0 are the identity by convention
        est = None
        values = np.asarray([x])
        schedule = [int(doc["schedule"][0])] if doc["schedule"] else [1]
    else:
        est = dynamics.semigroup_limit_estimate(
            F, t, x, doc["schedule"], sp, tol=float(doc.get("tol", 1e-8))
        )
        values = est.values
        schedule = list(est.schedule)
    csv_path = out / doc.get("csv", "semigroup.csv")
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        cols = ["n", "t"] + [f"x_{i+1}" for i in range(dim)] + ["diff", "closed_form_error"]
        fh.write(",".join(cols) + "\n")
        for k, n in enumerate(schedule):
            row = [str(n), _fmt(t)] + [_fmt(v) for v in values[k]]
            row.append("" if (est is None or k == 0) else _fmt(est.diffs[k - 1]))
            row.append(
                _fmt(est.closed_form_errors[k])
                if est is not None and est.closed_form_errors is not None
                else ""
            )
            fh.write(",".join(row) + "\n")
    summary = {"t": t, "schedule": schedule, "value": values[-1].tolist()}
    if est is not None:
        summary["cauchy_ok"] = est.cauchy_ok
        if est.axiom_checks is not None:
            summary["axiom_checks"] = est.axiom_checks
        if not est.cauchy_ok:
            _write_json(out / doc.get("summary", "semigroup.json"), summary)
            print("semigroup: non-Cauchy value sequence", file=sys.stderr)
            return EXIT_NUMERIC
    _write_json(out / doc.get("summary", "semigroup.json"), summary)
    print(f"semigroup: {len(schedule)} products -> {csv_path}")
    return EXIT_OK


def _cmd_feasibility(out: Path, doc: dict, sp, dim: int, specs, x0) -> int:
    stop = _stop_rule(doc.get("stop", {}))
    mode = doc.get("mode", "alternating")
    seed = int(doc.get("seed", 0))
    n_fejer = int(doc.get("n_fejer", 5))
    csv_path = out / doc.get("csv", "feasibility.csv")
    summary_path = out / doc.get("summary", "feasibility.json")
    try:
        if mode == "alternating":
            traj = feasibility.alternating_projections(
                specs, x0, stop, sp, n_fejer=n_fejer, seed=seed
            )
        elif mode == "averaged":
            weights = doc.get("weights", [1.0 / len(specs)] * len(specs))
            traj = feasibility.averaged_projections(
                specs, weights, x0, stop, sp, n_fejer=n_fejer, seed=seed
            )
        else:
            raise ConfigError(f"unknown mode {mode!r}")
    except feasibility.EmptyIntersectionError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except feasibility.FeasibilityError as exc:
        if exc.trajectory is not None:
            _write_trajectory(csv_path, exc.trajectory)
        print(f"feasibility failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _write_trajectory(csv_path, traj)
    summary = _summary_of(traj, sp)
    summary["membership_residuals"] = [
        float(feasibility.membership_residual(s.image, traj.limit, sp.p)) for s in specs
    ]
    _write_json(summary_path, summary)
    print(f"feasibility: {mode} scheme, {len(traj.step_norms)} steps -> {csv_path}")
    return EXIT_OK


# subcommand -> (handler, required keys, optional keys, input vector key);
# every subcommand also takes "p", "dim" and an optional "seed"
_COMMANDS = {
    "certify": (
        _cmd_certify,
        {"operator", "property"},
        {"alpha", "samples", "tol", "sampler", "w_grid", "report", "fix_sampler"},
        None,
    ),
    "iterate": (
        _cmd_iterate,
        {"operator", "x0"},
        {"stop", "n_fejer", "track_fix_projections", "csv", "summary"},
        "x0",
    ),
    "resolvent": (_cmd_resolvent, {"operator", "lambdas", "x"}, {"tol", "report"}, "x"),
    "semigroup": (
        _cmd_semigroup, {"operator", "t", "schedule", "x"}, {"tol", "csv", "summary"}, "x"
    ),
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
    except (ConfigError, DimensionMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResolventDiverged, dynamics.DivergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
