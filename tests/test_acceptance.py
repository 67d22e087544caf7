"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is fixed here, not configurable.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from firmlp.certify import (
    Sampler,
    certify_alpha_firm,
    certify_bruck_firm,
    certify_nonexpansive,
)
from firmlp.cli import main as cli_main
from firmlp.dynamics import (
    MonitorConfig,
    StopRule,
    asymptotic_regularity_report,
    picard_iterate,
    resolvent_apply,
    semigroup_limit_estimate,
    semigroup_product,
)
from firmlp.feasibility import (
    alternating_projections,
    averaged_projections,
    projection_from_isometry,
)
from firmlp.operators import (
    Scale,
    SwapIsometry,
    averaged,
    compose,
    contractive_projection,
    convex_combination,
    guaranteed_nonexpansive_affine,
    neural_network,
    resolvent_operator,
    stable_activation,
    truncation_operator,
)
from firmlp.projections import (
    AffineEqual,
    Ball,
    Box,
    Halfspace,
    lp_norm,
    project,
    projection_inequality_residual,
    projection_pair_residual,
    sample_points,
)
from firmlp.space import convexity_residual, norm_pow, space_params

P_VALUES = [1.5, 2.0, 3.0, 4.0]
DIMS = [1, 2, 4, 8, 16]


@contextmanager
def verdict(name):
    try:
        yield
    except Exception:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def set_kinds(dim):
    return {
        "box": Box(lower=np.full(dim, -2.0), upper=np.full(dim, 2.0)),
        "affine_equal": AffineEqual(groups=((0, 1),), fixed=((2, 0.5),)),
        "ball": Ball(center=np.zeros(dim), radius=3.0),
        "halfspace": Halfspace(normal=np.linspace(1.0, 2.0, dim), offset=1.0),
    }


def test_criterion_01_convexity_inequalities():
    with verdict("criterion 1: weighted convexity inequality suite"):
        rng = np.random.default_rng(101)
        for p in P_VALUES:
            sp = space_params(p)
            for dim in DIMS:
                n = 100_000
                x = rng.uniform(-10, 10, size=(n, dim))
                y = rng.uniform(-10, 10, size=(n, dim))
                w = rng.uniform(0, 1, size=n)
                res = convexity_residual(x, y, w, sp)
                scale = np.maximum(
                    np.maximum(norm_pow(x, sp), norm_pow(y, sp)), 1.0
                )
                assert np.all(res >= -1e-9 * scale), (p, dim)
                if p == 2.0:
                    assert np.all(np.abs(res) <= 1e-10 * scale), dim


def test_criterion_02_projection_inequalities():
    with verdict("criterion 2: projection inequality suite"):
        rng = np.random.default_rng(202)
        dim, n = 4, 10_000
        for p in P_VALUES:
            sp = space_params(p)
            for kind, C in set_kinds(dim).items():
                x = rng.uniform(-10, 10, size=(n, dim))
                y = sample_points(C, rng, n, dim, p=p)
                res8 = projection_inequality_residual(C, x, y, sp)
                scale8 = np.maximum(norm_pow(x - y, sp), 1.0)
                assert np.all(res8 >= -1e-9 * scale8), (p, kind)

                z = rng.uniform(-10, 10, size=(n, dim))
                px, pz = project(C, x, sp), project(C, z, sp)
                res9 = projection_pair_residual(C, x, z, sp)
                scale9 = np.maximum(
                    np.maximum(lp_norm(x - pz, p), lp_norm(z - px, p)) ** sp.r, 1.0
                )
                assert np.all(res9 >= -1e-9 * scale9), (p, kind)

                ppx = project(C, px, sp)
                assert np.all(lp_norm(ppx - px, p) <= 1e-10), (p, kind)


def test_criterion_03_truncation_sharpness():
    with verdict("criterion 3: truncation operator sharpness"):
        for p in (3.0, 4.0):
            sp = space_params(p)
            alpha_star = sp.c_r / (sp.c_r + 2.0)
            T = truncation_operator(2, sp, 6)
            assert T.meta.alpha_firm == pytest.approx(alpha_star, rel=1e-15)
            samplers = (Sampler(seed=31, dim=6), Sampler(seed=32, dim=6))
            rep = certify_alpha_firm(T, alpha_star, sp, samplers, n=10_000)
            assert rep.passed
            assert rep.worst_residual >= -1e-10
            assert rep.estimated_min_alpha == pytest.approx(alpha_star, abs=1e-6)
            rep_low = certify_alpha_firm(T, alpha_star - 1e-3, sp, samplers, n=10_000)
            assert not rep_low.passed
            assert rep_low.witness is not None


def test_criterion_04_calculus_propagation():
    with verdict("criterion 4: composition and convex-combination calculus"):
        sp = space_params(2.0)
        T1 = averaged(SwapIsometry(0, 1), 0.5)
        T2 = averaged(SwapIsometry(1, 2), 0.5)
        comp = compose([T2, T1], sp)
        assert comp.meta.alpha_firm == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert comp.meta.averaged == pytest.approx(0.75, rel=1e-15)
        samplers = (Sampler(seed=41, dim=4), Sampler(seed=42, dim=4))
        for alpha in (2.0 / 3.0, 0.75):
            rep = certify_alpha_firm(comp, alpha, sp, samplers, n=10_000)
            assert rep.passed and rep.worst_residual >= -1e-9, alpha
        combo = convex_combination([T1, T2], [0.5, 0.5])
        assert combo.meta.alpha_firm == pytest.approx(0.5, rel=1e-15)
        rep = certify_alpha_firm(combo, 0.5, sp, samplers, n=10_000)
        assert rep.passed and rep.worst_residual >= -1e-9


def test_criterion_05_resolvent():
    with verdict("criterion 5: resolvent of the negation map"):
        sp = space_params(3.0)
        F = Scale(-1.0)
        x = np.array([3.0, -1.5, 0.25, 2.0])
        for lam in (0.1, 1.0, 10.0):
            out = resolvent_apply(F, lam, x, sp)
            assert np.all(np.abs(out - x / (1.0 + 2.0 * lam)) <= 1e-10), lam
        R = resolvent_operator(F, 1.0, sp)
        rep_b = certify_bruck_firm(R, sp, Sampler(seed=51, dim=4), n=10_000)
        assert rep_b.passed
        rep_a = certify_alpha_firm(
            R, 0.5, sp, (Sampler(seed=52, dim=4), Sampler(seed=53, dim=4)), n=10_000
        )
        assert rep_a.passed
        # Fix F = Fix R_lam: the origin is fixed by both, perturbations by neither
        zero = np.zeros(4)
        assert np.all(np.abs(R(zero)) <= 1e-10)
        rng = np.random.default_rng(54)
        for _ in range(5):
            z = rng.uniform(-3, 3, size=4)
            if lp_norm(z, sp.p) < 1e-3:
                continue
            assert lp_norm(F(z) - z, sp.p) > 1e-6
            assert lp_norm(R(z) - z, sp.p) > 1e-6


def test_criterion_06_semigroup():
    with verdict("criterion 6: semigroup products of resolvents"):
        sp = space_params(2.0)
        F = Scale(-1.0)
        x = np.array([1.0, 0.0])
        schedule = [8, 16, 32, 64, 128, 256, 512, 1024]
        est = semigroup_limit_estimate(F, 1.0, x, schedule, sp)
        errs = est.closed_form_errors / lp_norm(x, sp.p)
        ratios = errs[1:] / errs[:-1]
        assert np.all((0.4 <= ratios) & (ratios <= 0.6))
        ax = est.axiom_checks
        assert ax["identity_at_zero"] <= ax["identity_at_zero_bound"]
        assert ax["additivity"] <= ax["additivity_bound"]
        T = semigroup_product(F, 1.0, 64, sp)
        rep = certify_nonexpansive(T, sp.p, Sampler(seed=61, dim=2), n=2_000, tol=1e-12)
        assert rep.passed


def test_criterion_07_feasibility():
    with verdict("criterion 7: swap-isometry feasibility instance"):
        sp = space_params(3.0)
        U = projection_from_isometry(SwapIsometry(0, 1), 3.0, 4)
        V = projection_from_isometry(SwapIsometry(1, 2), 3.0, 4)
        x0 = np.array([1.0, 0.0, 0.0, 0.0])
        target = np.array([1 / 3, 1 / 3, 1 / 3, 0.0])
        stop = StopRule(step_tol=1e-12, max_iter=10_000)
        for traj in (
            alternating_projections([U, V], x0, stop, sp, n_fejer=5, seed=7),
            averaged_projections([U, V], [0.5, 0.5], x0, stop, sp, n_fejer=5, seed=7),
        ):
            assert len(traj.step_norms) <= 10_000
            assert lp_norm(traj.limit - target, sp.p) <= 1e-8
            gaps = np.diff(traj.fejer_distances, axis=0)
            slack = 1e-12 * np.maximum(traj.fejer_distances[0], 1.0)
            assert traj.fejer_distances.shape[1] == 5
            assert np.all(gaps <= slack[None, :])
            sums = traj.iterates[:, :3].sum(axis=1)
            assert np.all(np.abs(sums - sums[0]) <= 1e-12)
            assert traj.limit[0] == pytest.approx(sums[0] / 3.0, abs=1e-10)


def test_criterion_08_asymptotic_regularity():
    with verdict("criterion 8: asymptotic regularity and telescoping bounds"):
        sp2, sp3 = space_params(2.0), space_params(3.0)
        T1 = averaged(SwapIsometry(0, 1), 0.5)
        T2 = averaged(SwapIsometry(1, 2), 0.5)
        P_u = contractive_projection(SwapIsometry(0, 1))
        P_v = contractive_projection(SwapIsometry(1, 2))
        cases = [
            (truncation_operator(2, sp3, 6), sp3, np.array([1.0, -2.0, 3.0, 0.5, -1.0, 2.0])),
            (compose([T2, T1], sp2), sp2, np.array([1.0, -1.0, 2.0, 0.0])),
            (convex_combination([T1, T2], [0.5, 0.5]), sp2, np.array([1.0, -1.0, 2.0, 0.0])),
            (resolvent_operator(Scale(-1.0), 1.0, sp3), sp3, np.array([2.0, -1.0, 0.5, 1.0])),
            (semigroup_product(Scale(-1.0), 1.0, 16, sp2), sp2, np.array([1.5, -0.5])),
            (compose([P_v, P_u], sp3), sp3, np.array([1.0, 0.0, 0.0, 0.0])),
            (convex_combination([P_u, P_v], [0.5, 0.5]), sp3, np.array([1.0, 0.0, 0.0, 0.0])),
        ]
        for T, sp, x0 in cases:
            assert T.meta.alpha_firm is not None
            assert T.meta.fixed_points is not None
            monitors = MonitorConfig(sp, auto_fejer=3, seed=8)
            traj = picard_iterate(T, x0, StopRule(), monitors)
            rep = asymptotic_regularity_report(traj, T.meta, sp)
            assert rep.bound_checked, type(T).__name__
            assert rep.bound_ok, type(T).__name__
            assert rep.final_below_tol, type(T).__name__


def test_criterion_09_neural_network():
    with verdict("criterion 9: depth-3 network certification"):
        sp = space_params(2.0)
        rng = np.random.default_rng(90)
        dim, depth = 6, 3
        layers = [
            averaged(
                guaranteed_nonexpansive_affine(
                    rng.normal(size=(dim, dim)) * 2.0, rng.normal(size=dim) * 0.5, sp.p
                ),
                0.5,
            )
            for _ in range(depth)
        ]
        net = neural_network(layers, stable_activation("relu"), sp)
        # 2*depth - 1 half-firm factors: firm route 5/6 beats averaged 31/32
        assert net.meta.alpha_firm == pytest.approx(5.0 / 6.0, rel=1e-12)
        rep = certify_alpha_firm(
            net,
            net.meta.alpha_firm,
            sp,
            (Sampler(seed=91, dim=dim), Sampler(seed=92, dim=dim)),
            n=10_000,
        )
        assert rep.passed and rep.worst_residual >= -1e-9


def test_criterion_10_cli_determinism(tmp_path):
    with verdict("criterion 10: CLI byte-determinism"):
        configs = {
            "certify": {
                "p": 3.0, "dim": 6, "seed": 1,
                "operator": {"kind": "truncate", "k": 2},
                "property": "alpha_firm", "alpha": 0.2, "samples": 2000,
            },
            "iterate": {
                "p": 3.0, "dim": 4,
                "operator": {
                    "kind": "compose",
                    "ops": [
                        {"kind": "averaged", "alpha": 0.5,
                         "inner": {"kind": "swap", "i": 1, "j": 2}},
                        {"kind": "averaged", "alpha": 0.5,
                         "inner": {"kind": "swap", "i": 0, "j": 1}},
                    ],
                },
                "x0": [1.0, 0.0, 0.0, 0.0], "n_fejer": 3, "seed": 5,
                "track_fix_projections": True,
            },
            "resolvent": {
                "p": 2.0, "dim": 2, "operator": {"kind": "scale", "factor": -1.0},
                "lambdas": [0.1, 1.0, 10.0], "x": [3.0, 0.0],
            },
            "semigroup": {
                "p": 2.0, "dim": 2, "operator": {"kind": "scale", "factor": -1.0},
                "t": 1.0, "schedule": [8, 16, 32, 64], "x": [1.0, 0.0],
            },
            "feasibility": {
                "p": 3.0, "dim": 4,
                "isometries": [
                    {"kind": "swap", "i": 0, "j": 1},
                    {"kind": "swap", "i": 1, "j": 2},
                ],
                "x0": [1.0, 0.0, 0.0, 0.0], "mode": "averaged",
                "weights": [0.5, 0.5], "n_fejer": 5, "seed": 0,
            },
        }
        for command, doc in configs.items():
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps(doc))
            out1 = tmp_path / command / "run1"
            out2 = tmp_path / command / "run2"
            code1 = cli_main([command, "--config", str(cfg), "--out", str(out1)])
            code2 = cli_main([command, "--config", str(cfg), "--out", str(out2)])
            assert code1 == code2 == 0, command
            names1 = sorted(f.name for f in out1.iterdir())
            names2 = sorted(f.name for f in out2.iterdir())
            assert names1 == names2 and names1, command
            for name in names1:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (
                    command,
                    name,
                )
