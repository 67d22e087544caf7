"""The three benchmark workloads: falsify_batch, solve_small, cli_campaign.

A workload is a list of task kinds.  Each kind has an integer weight (its
share of the fixed interleaved mix), a ``make`` step that draws the task's
inputs from the run's generator (untimed), a ``run`` step that makes exactly
one public firmlp call (timed), a ``check`` step that validates the output
against the tolerances the acceptance suite pins (untimed) and a ``count``
step that reports the work done (sampled pairs, Picard steps, CLI output).

firmlp functions are always looked up through their module at call time
(``C.certify_alpha_firm``, not a bound name), so the tracer's patches reach
the calls the benchmark makes.

``skew`` shifts one expected value per workload away from the truth; the
self-test uses it to prove that failed checks are counted.
"""

from __future__ import annotations

import itertools
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import firmlp.certify as C
import firmlp.cli as CLI
import firmlp.dynamics as D
import firmlp.feasibility as F
import firmlp.operators as O
import firmlp.projections as P
import firmlp.space as S

# Full-size parameters; the self-test divides the batch sizes by TINY_DIV.
PAIRS = 200_000
AFFINE_EQUAL_PAIRS = 20_000  # 2-wide bisection at p = 3 costs ~10x the other sets
BRUCK_PAIRS = 20_000  # every row runs the resolvent contraction
NETWORK_DIM = 16
LARGEST_OPERAND_BYTES = PAIRS * NETWORK_DIM * 8  # one batch of float64 network samples
TINY_DIV = 100

SOLVE_STOP = dict(step_tol=1e-12, max_iter=10_000)  # criterion 7's stop rule
FIRM_TOL = 1e-6  # criterion 3: estimated alpha vs c_r/(c_r+2)
LIMIT_TOL = 1e-8  # criterion 7: limit vs the group mean
SUM_TOL = 1e-12  # criterion 7: coordinate sums along the iteration
PAIR_TOL = 1e-9  # criterion 2: projection pair inequality, relative
FEJER_SLACK = 1e-12  # criterion 7 and the CLI summary: Fejer monotonicity
RESOLVENT_TOL = 1e-10  # criterion 5: resolvent of -Id is x/(1+2 lam)


@dataclass
class Kind:
    name: str
    weight: int
    make: Callable  # rng -> task input
    run: Callable  # input -> output; the timed public call
    check: Callable  # (input, output) -> list of failure messages
    count: Callable = lambda inp, out: {}


@dataclass
class Workload:
    name: str
    kinds: list
    cleanup: Callable = lambda: None


def schedule(kinds):
    """Smooth weighted round-robin: one cycle holds each kind ``weight``
    times, spread evenly, so a run cut at any task keeps the proportions."""
    current = [0] * len(kinds)
    total = sum(k.weight for k in kinds)
    order = []
    for _ in range(total):
        for i, k in enumerate(kinds):
            current[i] += k.weight
        best = max(range(len(kinds)), key=lambda i: current[i])
        current[best] -= total
        order.append(kinds[best])
    return order


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _averaged_swap_chain(dim, sp):
    # (Id + swap)/2 averages of adjacent swaps; Fix = all coordinates equal
    return O.compose([O.averaged(O.SwapIsometry(i, i + 1), 0.5) for i in range(dim - 1)], sp)


def _network(rng, dim, sp):
    layers = [
        O.averaged(
            O.guaranteed_nonexpansive_affine(
                rng.normal(size=(dim, dim)) * 2.0, rng.normal(size=dim) * 0.5, sp.p
            ),
            0.5,
        )
        for _ in range(3)
    ]
    return O.neural_network(layers, O.stable_activation("relu"), sp)


def _report_failures(rep, label):
    if not rep.passed:
        return [f"{label}: certification failed (worst residual {rep.worst_residual:.3e})"]
    return []


# ---------------------------------------------------------------------------
# falsify_batch


def falsify_batch(seed: int, tiny: bool, skew: float, scratch: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    div = TINY_DIV if tiny else 1
    n, n_aeq, n_bruck = PAIRS // div, AFFINE_EQUAL_PAIRS // div, BRUCK_PAIRS // div
    sp3 = S.space_params(3.0)
    kinds = []

    def certify_kind(name, weight, run, check):
        return Kind(
            name, weight, make=_seed, run=run, check=check,
            count=lambda s, rep: {"pairs": rep.samples},
        )

    # Weights put p50 inside the truncation p=1.5/3 cluster (~25-65 % of
    # tasks by cost) and p90 inside the network cluster (top 15 %).
    for p, weight in ((1.5, 4), (2.0, 2), (3.0, 4)):
        sp = S.space_params(p)
        T = O.truncation_operator(2, sp, 8)
        alpha = T.meta.alpha_firm

        def run(s, T=T, alpha=alpha, sp=sp):
            return C.certify_alpha_firm(
                T, alpha, sp, (C.Sampler(seed=s, dim=8), C.Sampler(seed=s + 1, dim=8)), n=n
            )

        def check(s, rep, sp=sp, label=f"truncation p={p}"):
            bad = _report_failures(rep, label)
            expected = sp.c_r / (sp.c_r + 2.0) + skew
            est = rep.estimated_min_alpha
            if sp.p >= 2.0 and (est is None or abs(est - expected) > FIRM_TOL):
                bad.append(f"{label}: estimated alpha {est} != c_r/(c_r+2) = {expected}")
            return bad

        kinds.append(certify_kind(f"certify_truncation_p{p:g}", weight, run, check))

    net = _network(rng, NETWORK_DIM, sp3)
    kinds.append(certify_kind(
        "certify_network_d16", 3,
        lambda s: C.certify_alpha_firm(
            net, net.meta.alpha_firm, sp3,
            (C.Sampler(seed=s, dim=NETWORK_DIM), C.Sampler(seed=s + 1, dim=NETWORK_DIM)), n=n,
        ),
        lambda s, rep: _report_failures(rep, "network"),
    ))

    swaps = _averaged_swap_chain(8, sp3)
    kinds.append(certify_kind(
        "certify_quasi_swaps_d8", 1,
        lambda s: C.certify_quasi_alpha_firm(
            swaps, swaps.meta.alpha_firm, sp3, None, C.Sampler(seed=s, dim=8), n=n
        ),
        lambda s, rep: _report_failures(rep, "quasi swaps"),
    ))

    affine = O.guaranteed_nonexpansive_affine(rng.normal(size=(8, 8)), rng.normal(size=8), 3.0)
    kinds.append(certify_kind(
        "certify_nonexpansive_affine_d8", 1,
        lambda s: C.certify_nonexpansive(affine, 3.0, C.Sampler(seed=s, dim=8), n=n),
        lambda s, rep: _report_failures(rep, "nonexpansive affine"),
    ))

    resolvent = O.resolvent_operator(O.Scale(-1.0), 1.0, sp3)
    kinds.append(certify_kind(
        "certify_bruck_resolvent_d4", 1,
        lambda s: C.certify_bruck_firm(resolvent, sp3, C.Sampler(seed=s, dim=4), n=n_bruck),
        lambda s, rep: _report_failures(rep, "bruck resolvent"),
    ))

    sets = (
        ("box", P.Box(np.full(8, -2.0), np.full(8, 2.0)), n),
        ("ball", P.Ball(np.zeros(8), 3.0), n),
        ("halfspace", P.Halfspace(np.linspace(1.0, 2.0, 8), 1.0), n),
        ("affine_equal", P.AffineEqual(groups=((0, 1),), fixed=((2, 0.5),)), n_aeq),
    )
    for set_name, cset, rows in sets:

        def make(r, rows=rows):
            return r.uniform(-10.0, 10.0, size=(rows, 8)), r.uniform(-10.0, 10.0, size=(rows, 8))

        def check(xz, res, cset=cset, label=set_name):
            # criterion 2's scale: max(||x - P z||, ||z - P x||)^r, at least 1.
            # Rows with a nonnegative residual pass at any scale, so only the
            # (rounding-level, few) negative or NaN rows need their projections.
            neg = ~(res >= 0.0)
            if not neg.any():
                return []
            x, z, res = xz[0][neg], xz[1][neg], res[neg]
            px, pz = P.project(cset, x, sp3), P.project(cset, z, sp3)
            scale = np.maximum(
                np.maximum(S.lp_norm(x - pz, 3.0), S.lp_norm(z - px, 3.0)) ** sp3.r, 1.0
            )
            worst = float(np.min(res / scale))
            return [] if worst >= -PAIR_TOL else [f"pair residual {label}: {worst:.3e}"]

        kinds.append(Kind(
            f"pair_residual_{set_name}", 1, make=make,
            run=lambda xz, cset=cset: P.projection_pair_residual(cset, xz[0], xz[1], sp3),
            check=check,
            count=lambda xz, res: {"pairs": len(res)},
        ))
    return Workload("falsify_batch", kinds)


# ---------------------------------------------------------------------------
# solve_small


def _fejer_failures(traj, label):
    if traj.fejer_distances is None:
        return [f"{label}: no Fejer channel"]
    gaps = np.diff(traj.fejer_distances, axis=0)
    slack = FEJER_SLACK * np.maximum(traj.fejer_distances[0], 1.0)
    return [] if np.all(gaps <= slack[None, :]) else [f"{label}: Fejer distance increased"]


def _group_mean_failures(traj, x0, group, skew, label):
    """Swap dynamics keep each group's coordinate sum and converge to its mean."""
    bad = []
    g = list(group)
    scale = max(1.0, float(np.sum(np.abs(x0[g]))))
    sums = traj.iterates[:, g].sum(axis=1)
    if np.any(np.abs(sums - sums[0]) > SUM_TOL * scale):
        bad.append(f"{label}: coordinate sum drifted")
    target = np.array(x0, dtype=float)
    target[g] = x0[g].mean() + skew
    err = float(S.lp_norm(traj.limit - target, 3.0))
    if err > LIMIT_TOL * max(1.0, float(S.lp_norm(x0, 3.0))):
        bad.append(f"{label}: limit misses the group mean by {err:.3e}")
    return bad


def solve_small(seed: int, tiny: bool, skew: float, scratch: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    sp3 = S.space_params(3.0)
    stop = D.StopRule(**SOLVE_STOP)
    kinds = []

    def start(dim):
        return lambda r: (r.uniform(-10.0, 10.0, size=dim), _seed(r))

    def steps(inp, out):
        traj = out[0] if isinstance(out, tuple) else out
        return {"steps": len(traj.step_norms)}

    for dim, weight in ((4, 7), (8, 2)):
        T = _averaged_swap_chain(dim, sp3)

        def run(inp, T=T):
            x0, s = inp
            traj = D.picard_iterate(T, x0, stop, D.MonitorConfig(sp3, auto_fejer=3, seed=s))
            return traj, D.asymptotic_regularity_report(traj, T.meta, sp3)

        def check(inp, out, dim=dim, label=f"picard swaps d={dim}"):
            traj, rep = out
            bad = [] if traj.converged else [f"{label}: not converged"]
            if not (rep.bound_checked and rep.bound_ok and rep.final_below_tol):
                bad.append(f"{label}: asymptotic regularity bound failed")
            return bad + _fejer_failures(traj, label) + _group_mean_failures(
                traj, inp[0], range(dim), skew, label
            )

        kinds.append(Kind(f"picard_swaps_d{dim}", weight, start(dim), run, check, steps))

    net = _network(rng, NETWORK_DIM, sp3)
    kinds.append(Kind(
        "picard_network_d16", 9, start(NETWORK_DIM),
        lambda inp: D.picard_iterate(net, inp[0], stop, D.MonitorConfig(sp3)),
        lambda inp, traj: [] if traj.converged else ["picard network: not converged"],
        steps,
    ))

    specs = [F.projection_from_isometry(O.SwapIsometry(i, i + 1), 3.0, 8, seed=i) for i in range(6)]
    image = range(7)  # the six swaps chain coordinates 0..6

    def feas_check(label):
        def check(inp, traj):
            return _fejer_failures(traj, label) + _group_mean_failures(
                traj, inp[0], image, skew, label
            )
        return check

    kinds.append(Kind(
        "alternating_projections_d8", 2, start(8),
        lambda inp: F.alternating_projections(specs, inp[0], stop, sp3, n_fejer=5, seed=inp[1]),
        feas_check("alternating projections"), steps,
    ))
    kinds.append(Kind(
        "averaged_projections_d8", 1, start(8),
        lambda inp: F.averaged_projections(
            specs, [1.0 / 6.0] * 6, inp[0], stop, sp3, n_fejer=5, seed=inp[1]
        ),
        feas_check("averaged projections"), steps,
    ))
    kinds.append(Kind(
        "fixed_set_equality_d8", 4, _seed,
        lambda s: F.fixed_set_equality_check(specs, sp3, 8, n=100, seed=s),
        lambda s, rep: [] if rep.ok else ["fixed set equality check failed"],
    ))
    return Workload("solve_small", kinds)


# ---------------------------------------------------------------------------
# cli_campaign

_SCHEDULE = [8, 16, 32, 64, 128, 256, 512, 1024]
_TWO_SWAPS = {
    "kind": "compose",
    "ops": [
        {"kind": "averaged", "alpha": 0.5, "inner": {"kind": "swap", "i": 1, "j": 2}},
        {"kind": "averaged", "alpha": 0.5, "inner": {"kind": "swap", "i": 0, "j": 1}},
    ],
}
_SWAP_PAIR = [{"kind": "swap", "i": 0, "j": 1}, {"kind": "swap", "i": 1, "j": 2}]

# (command, template, weight, what the workload seed draws).  The first seven
# are copies of the packaged configs in scripts/configs; keeping them here
# fixes the workload even if the packaged files change.  Weights put p50
# near the middle of feasibility_swaps_averaged, which holds ~35-67 % of the
# tasks by cost, so that p50 follows that kind's own cost rather than the
# place where the cheap kinds' cost ranges overlap, and p90 inside
# semigroup_swaps_p3 (~2-18 % from the top).  The three certify configs spend
# only 45-70 % of their wall time in user mode (getrusage); the rest is kernel
# time, mostly page faults on their 10^4-sample arrays, and time off the CPU,
# both of which host contention inflates far more than the pure Python
# configs.  They get small weights so that the median sits among the
# feasibility and resolvent configs.
CLI_CONFIGS = {
    "feasibility_swaps": ("feasibility", {
        "p": 3.0, "dim": 4, "seed": 0, "isometries": _SWAP_PAIR, "x0": [1.0, 0.0, 0.0, 0.0],
        "mode": "alternating", "n_fejer": 5,
        "csv": "feasibility_swaps.csv", "summary": "feasibility_swaps.json",
    }, 8, ("seed", "x0")),
    "feasibility_swaps_averaged": ("feasibility", {
        "p": 3.0, "dim": 4, "seed": 0, "isometries": _SWAP_PAIR, "x0": [1.0, 0.0, 0.0, 0.0],
        "mode": "averaged", "weights": [0.5, 0.5], "n_fejer": 5,
        "csv": "feasibility_swaps_averaged.csv", "summary": "feasibility_swaps_averaged.json",
    }, 16, ("seed", "x0")),
    "resolvent_bruck_certify": ("certify", {
        "p": 3.0, "dim": 4, "seed": 5,
        "operator": {"kind": "resolvent", "lam": 1.0, "inner": {"kind": "scale", "factor": -1.0}},
        "property": "bruck", "samples": 10000, "report": "resolvent_bruck.json",
    }, 4, ("seed",)),
    "resolvent_negation": ("resolvent", {
        "p": 2.0, "dim": 2, "operator": {"kind": "scale", "factor": -1.0},
        "lambdas": [0.1, 1.0, 10.0], "x": [3.0, 0.0], "report": "resolvent_negation.json",
    }, 8, ("x",)),
    "semigroup_negation": ("semigroup", {
        "p": 2.0, "dim": 2, "operator": {"kind": "scale", "factor": -1.0}, "t": 1.0,
        "schedule": _SCHEDULE, "x": [1.0, 0.0],
        "csv": "semigroup_negation.csv", "summary": "semigroup_negation.json",
    }, 1, ("x",)),
    "swap_calculus_certify": ("certify", {
        "p": 2.0, "dim": 4, "seed": 4, "operator": _TWO_SWAPS, "property": "alpha_firm",
        "alpha": 0.6666666666666666, "samples": 10000, "report": "swap_calculus.json",
    }, 2, ("seed",)),
    "truncation_certify": ("certify", {
        "p": 3.0, "dim": 8, "seed": 1, "operator": {"kind": "truncate", "k": 2},
        "property": "alpha_firm", "alpha": 0.2, "samples": 10000,
        "report": "truncation_certify.json",
    }, 2, ("seed",)),
    # linear generator: a future closed form applies
    "semigroup_swaps_p3": ("semigroup", {
        "p": 3.0, "dim": 4, "operator": _TWO_SWAPS, "t": 1.0, "schedule": _SCHEDULE,
        "x": [1.0, 0.0, 0.0, 0.0],
    }, 8, ("x",)),
    # nonlinear generator: bypasses any closed form
    "semigroup_tanh_p3": ("semigroup", {
        "p": 3.0, "dim": 4, "operator": {"kind": "activation", "name": "tanh"}, "t": 1.0,
        "schedule": _SCHEDULE, "x": [1.0, 0.0, 0.0, 0.0],
    }, 2, ("x",)),
}
CLI_VARIANTS = 8  # config copies per kind, enough to average input-dependent costs
# Each copy runs twice in a row, so every kind, however rare, has passes that
# are checked byte for byte against the first pass of the same config.


def _read_tree(out: Path) -> dict:
    return {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}


def _cli_count(inp, code):
    """Read the task's --out tree once; count files, bytes, pairs and steps."""
    tree = inp["tree"] = _read_tree(inp["out"])
    shutil.rmtree(inp["out"], ignore_errors=True)
    counts = {"cli_files": len(tree), "cli_bytes": sum(len(b) for b in tree.values())}
    doc = inp["doc"]
    if inp["command"] == "certify" and doc["report"] in tree:
        counts["pairs"] = json.loads(tree[doc["report"]])["samples"]
    if inp["command"] == "feasibility" and doc["summary"] in tree:
        counts["steps"] = json.loads(tree[doc["summary"]])["iterations"]
    return counts


def _cli_failures(inp, code, references, skew):
    name, command, doc, tree = inp["name"], inp["command"], inp["doc"], inp["tree"]
    if code != 0:
        return [f"cli {name}: exit code {code}"]
    bad = []
    if tree != references.setdefault(inp["path"], tree):
        bad.append(f"cli {name}: output differs from the first pass of its config")
    if command == "semigroup":
        summary = json.loads(next(b for k, b in tree.items() if k.endswith(".json")))
        if not summary.get("cauchy_ok", False):
            bad.append(f"cli {name}: semigroup values not Cauchy")
    elif command == "feasibility":
        summary = json.loads(tree[doc["summary"]])
        if not (summary["converged"] and summary["fejer_nonincreasing"]):
            bad.append(f"cli {name}: feasibility run not converged or not Fejer")
    elif command == "certify":
        if not json.loads(tree[doc["report"]])["passed"]:
            bad.append(f"cli {name}: certification failed")
    elif command == "resolvent":
        x = np.asarray(doc["x"])
        for row in json.loads(tree[doc["report"]])["results"]:
            expected = x / (1.0 + 2.0 * row["lam"]) + skew
            if np.max(np.abs(np.asarray(row["value"]) - expected)) > RESOLVENT_TOL:
                bad.append(f"cli {name}: resolvent of -Id off at lam={row['lam']}")
    return bad


def cli_campaign(seed: int, tiny: bool, skew: float, scratch: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    root = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
    references = {}  # config path -> output tree of its first pass
    runs = itertools.count()
    kinds = []
    for name, (command, template, weight, drawn) in CLI_CONFIGS.items():
        variants = []
        for v in range(CLI_VARIANTS):
            doc = json.loads(json.dumps(template))
            if "seed" in drawn:
                doc["seed"] = _seed(rng)
            for key in ("x0", "x"):
                if key in drawn:
                    doc[key] = rng.uniform(-10.0, 10.0, size=doc["dim"]).round(6).tolist()
            if tiny and "samples" in doc:
                doc["samples"] //= TINY_DIV
            if tiny and "schedule" in doc:
                doc["schedule"] = doc["schedule"][:3]
            path = root / f"{name}-{v}.json"
            path.write_text(json.dumps(doc))
            variants.append((path, doc))
        cycle = itertools.count()

        def make(r, name=name, command=command, variants=variants, cycle=cycle):
            path, doc = variants[next(cycle) // 2 % len(variants)]
            out = root / f"out-{next(runs)}"
            return {"name": name, "command": command, "path": path, "doc": doc, "out": out}

        kinds.append(Kind(
            name, weight, make,
            run=lambda inp: CLI.main(
                [inp["command"], "--config", str(inp["path"]), "--out", str(inp["out"])]
            ),
            check=lambda inp, code: _cli_failures(inp, code, references, skew),
            count=_cli_count,
        ))
    return Workload("cli_campaign", kinds, cleanup=lambda: shutil.rmtree(root, ignore_errors=True))


WORKLOADS = {"falsify_batch": falsify_batch, "solve_small": solve_small, "cli_campaign": cli_campaign}
