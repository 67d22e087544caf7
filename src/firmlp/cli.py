"""Batch experiment runner.

Subcommands: certify, iterate, resolvent, semigroup, feasibility.  Each
reads a JSON config (its seed overridable from the command line),
runs the corresponding module and writes CSV/JSON under --out.  Outputs are
byte-deterministic for a fixed config and seed: CSV numbers carry 17
significant digits and JSON documents are dumped with sorted keys.

Exit codes: 0 success, 1 usage or config error, 2 property failure (a
certification found a witness, or the instance is infeasible), 3 numeric
failure (divergence, non-convergence, or a NaN or Inf arising in the run).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import certify as cert
from . import dynamics, feasibility
from .operators import DimensionMismatch, ResolventDiverged, operator_from_json
from .projections import (_array, json_bool, json_float, json_int, json_keys, json_str,
                          json_type, json_value)
from .space import NonFiniteError, lp_norm, space_params

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


def _at_least(low: int):
    """A reader of JSON integers >= ``low``."""
    def read(value) -> int:
        if json_int(value) < low:
            raise ValueError(f"expected an integer >= {low}, got {value!r}")
        return int(value)
    return read


def _list_of(read):
    """A reader of JSON lists whose every element ``read`` takes."""
    is_list = json_type(list, "a list")
    return lambda values: [read(v) for v in is_list(values)]


def _file_name(value) -> str:
    """An output name, joined to --out; an empty one would name --out itself."""
    if not json_str(value):
        raise ValueError("expected a non-empty file name")
    return value


def _read(doc, keys: dict, required=frozenset(), what: str = "config") -> dict:
    """The keys ``doc`` sets, each read by its reader in ``keys`` (where that
    is a table, a nested document read the same way).  ``doc`` must be an
    object that sets every ``required`` key and no key outside ``keys``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    missing = required - doc.keys()
    if missing:
        raise ConfigError(f"missing {what} keys: {sorted(missing)}")
    json_keys(doc, keys, what)
    return {key: json_value(doc, key, partial(_read, keys=r, what=key) if isinstance(r, dict) else r)
            for key, r in keys.items() if key in doc}


def _prepare(args, keys: dict, required: set, vector: str | None):
    """Read the config by its table (the --seed override first), then parse
    the space, build the operator (for feasibility, the projection specs)
    and check the shape of the input vector; returns (config, sp, op)."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if args.seed is not None and isinstance(doc, dict):
        doc["seed"] = args.seed
    cfg = _read(doc, keys, required)
    sp, dim = space_params(cfg["p"]), cfg["dim"]
    if "operator" in cfg:
        op = operator_from_json(cfg["operator"], sp, dim)
    else:
        op = feasibility.load_instance_json(cfg["isometries"], sp, dim)
    if vector is not None and (cfg[vector].shape != (dim,) or not np.isfinite(cfg[vector]).all()):
        raise ConfigError(f"{vector!r} must hold {dim} finite coordinates")
    return cfg, sp, op


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


@contextlib.contextmanager
def _output(path: Path):
    """``path`` open for writing, its directory made first; an OSError on the
    way is a usage error that names the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, doc: dict) -> None:
    with _output(path) as fh:
        json.dump(_finite_or_null(doc), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _run_trajectory(solve, out: Path, cfg: dict, csv: str, summary: str, label: str) -> int:
    """Run ``solve`` and write its trajectory CSV and summary JSON, named by
    the config's "csv" and "summary" keys or else by ``csv`` and ``summary``.
    A failure that carries a partial trajectory writes that trajectory, with
    the failure as the summary's "error", and exits 3."""
    csv_path, summary_path = out / cfg.get("csv", csv), out / cfg.get("summary", summary)
    try:
        traj, error = solve(), None
    except Exception as exc:
        traj, error = getattr(exc, "trajectory", None), str(exc)
        if traj is None:
            raise
    with _output(csv_path) as fh:
        dynamics.trajectory_to_csv(traj, fh)
    summary = {
        "iterations": int(len(traj.step_norms)),
        "converged": traj.converged,
        "stop_reason": traj.stop_reason,
        "final_step_norm": traj.final_residual,
        "limit": traj.limit.tolist(),
        "membership_residuals": traj.membership_residuals,
        "error": error,
    }
    if traj.fejer_distances is not None:
        summary["fejer_nonincreasing"] = traj.fejer_nonincreasing
        summary["fejer_final_distances"] = traj.fejer_distances[-1].tolist()
    # a key the run has no value for is left out
    _write_json(summary_path, {key: v for key, v in summary.items() if v is not None})
    if error is None:
        print(f"{label}: {traj.stop_reason} after {len(traj.step_norms)} steps -> {csv_path}")
        return EXIT_OK
    print(f"numeric failure ({traj.stop_reason}): {error} -> {csv_path}", file=sys.stderr)
    return EXIT_NUMERIC


# ---------------------------------------------------------------------------
# subcommands: each takes the --out directory, the values its config sets
# (read by its table in _COMMANDS), the space and the operator or specs

def _cmd_certify(out: Path, cfg: dict, sp, T) -> int:
    run = {"n" if key == "samples" else key: cfg[key] for key in ("samples", "tol") if key in cfg}
    seed = cfg.get("seed", 0)
    sampler = cert.Sampler(seed=seed, dim=cfg["dim"], **cfg.get("sampler", {}))
    prop = cfg["property"]
    if prop == "nonexpansive":
        report = cert.certify_nonexpansive(T, sp.p, sampler, **run)
    elif prop == "alpha_firm":
        second = dataclasses.replace(sampler, seed=seed + 1)
        report = cert.certify_alpha_firm(
            T, json_value(cfg, "alpha", json_float), sp, (sampler, second), **run
        )
    elif prop == "quasi_alpha_firm":
        report = cert.certify_quasi_alpha_firm(
            T, json_value(cfg, "alpha", json_float), sp, None, sampler, **run
        )
    elif prop == "bruck":
        report = cert.certify_bruck_firm(T, sp, sampler, w_grid=cfg.get("w_grid"), **run)
    else:
        raise ConfigError(f"unknown property {prop!r}")
    path = out / cfg.get("report", "certify_report.json")
    _write_json(path, cert.report_to_json(report))
    print(f"{report.property}: {'PASS' if report.passed else 'FAIL'} "
          f"(worst residual {dynamics.fmt(report.worst_residual)}) -> {path}")
    return EXIT_OK if report.passed else EXIT_PROPERTY


def _cmd_iterate(out: Path, cfg: dict, sp, T) -> int:
    stop = dynamics.StopRule(**cfg.get("stop", {}))
    monitors = dynamics.MonitorConfig(sp=sp, **{
        "auto_fejer" if key == "n_fejer" else key: cfg[key]
        for key in ("n_fejer", "seed", "track_fix_projections") if key in cfg
    })
    solve = partial(dynamics.picard_iterate, T, cfg["x0"], stop, monitors)
    return _run_trajectory(solve, out, cfg, "trajectory.csv", "summary.json", "iterate")


def _cmd_resolvent(out: Path, cfg: dict, sp, F) -> int:
    x = cfg["x"]
    path = out / cfg.get("report", "resolvent.json")
    report = {"p": sp.p, "x": x.tolist(), "results": []}
    for lam in cfg["lambdas"]:
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
    print(f"resolvent: {len(cfg['lambdas'])} parameter values -> {path}")
    return EXIT_OK


def _cmd_semigroup(out: Path, cfg: dict, sp, F) -> int:
    t = cfg["t"]
    est = dynamics.semigroup_limit_estimate(F, t, cfg["x"], cfg["schedule"], sp)
    errors = est.closed_form_errors
    csv_path = out / cfg.get("csv", "semigroup.csv")
    with _output(csv_path) as fh:
        cols = ["n", "t"] + [f"x_{i+1}" for i in range(cfg["dim"])] + ["diff", "closed_form_error"]
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
    _write_json(out / cfg.get("summary", "semigroup.json"), summary)
    if not est.cauchy_ok:
        print("semigroup: non-Cauchy value sequence", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"semigroup: {len(est.schedule)} products -> {csv_path}")
    return EXIT_OK


def _cmd_feasibility(out: Path, cfg: dict, sp, specs) -> int:
    stop = dynamics.StopRule(**cfg.get("stop", {}))
    mode = cfg.get("mode", "alternating")
    monitors = {key: cfg[key] for key in ("n_fejer", "seed") if key in cfg}
    if mode == "alternating":
        solve = partial(feasibility.alternating_projections, specs, cfg["x0"], stop, sp, **monitors)
    elif mode == "averaged":
        weights = cfg.get("weights", [1.0 / len(specs)] * len(specs))
        solve = partial(feasibility.averaged_projections, specs, weights, cfg["x0"], stop, sp,
                        **monitors)
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    return _run_trajectory(solve, out, cfg, "feasibility.csv", "feasibility.json",
                           f"feasibility ({mode} scheme)")


_floats = _list_of(json_float)
_SPACE = {"p": json_float, "dim": _at_least(1), "seed": _at_least(0)}
_OPERATOR = {"operator": json_type(dict, "an object")}
_FILES = {"csv": _file_name, "summary": _file_name}
_STOP = {"step_tol": json_float, "max_iter": json_int}
_SAMPLER = {"dist": json_str, "low": json_float, "high": json_float, "scale": json_float,
            "min_norm": lambda v: None if v is None else json_float(v)}

# subcommand -> (handler, the reader of each config key, the required keys,
# the input vector key); a table reads a nested document the same way, and a
# key a config leaves out takes the library's default
_COMMANDS = {
    "certify": (_cmd_certify, _SPACE | _OPERATOR | {
        "property": json_str, "alpha": json_float, "samples": json_int, "tol": json_float,
        "sampler": _SAMPLER, "w_grid": lambda v: None if v is None else _floats(v),
        "report": _file_name,
    }, {"p", "dim", "operator", "property"}, None),
    "iterate": (_cmd_iterate, _SPACE | _OPERATOR | {
        "x0": _array, "stop": _STOP, "n_fejer": _at_least(0), "track_fix_projections": json_bool,
    } | _FILES, {"p", "dim", "operator", "x0"}, "x0"),
    "resolvent": (_cmd_resolvent, _SPACE | _OPERATOR | {
        "lambdas": _floats, "x": _array, "report": _file_name,
    }, {"p", "dim", "operator", "lambdas", "x"}, "x"),
    "semigroup": (_cmd_semigroup, _SPACE | _OPERATOR | {
        "t": json_float, "schedule": _list_of(json_int), "x": _array,
    } | _FILES, {"p", "dim", "operator", "t", "schedule", "x"}, "x"),
    "feasibility": (_cmd_feasibility, _SPACE | {
        "isometries": json_type(list, "a list"), "x0": _array, "mode": json_str,
        "weights": _floats, "stop": _STOP, "n_fejer": _at_least(0),
    } | _FILES, {"p", "dim", "isometries", "x0"}, "x0"),
}


_PARSER = argparse.ArgumentParser(
    prog="firmlp",
    usage="%(prog)s COMMAND --config FILE [--out DIR] [--seed N]",
    description="Experiment runner: inequality certification, fixed-point "
    "iteration, resolvent and semigroup studies, feasibility solves.",
)
_PARSER.add_argument("command", choices=_COMMANDS, metavar="COMMAND",
                     help=f"one of {', '.join(_COMMANDS)}")
_PARSER.add_argument("--config", required=True, metavar="FILE", help="JSON config file")
_PARSER.add_argument("--out", default=".", metavar="DIR", help="output directory")
_PARSER.add_argument("--seed", type=int, default=None, metavar="N", help="override config seed")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    run, keys, required, vector = _COMMANDS[args.command]
    try:
        return run(Path(args.out), *_prepare(args, keys, required, vector))
    except (feasibility.IsometryCheckError, feasibility.EmptyIntersectionError) as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (ResolventDiverged, NonFiniteError) as exc:
        # config vectors are checked finite, so a NaN or Inf arose in the run
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, DimensionMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
