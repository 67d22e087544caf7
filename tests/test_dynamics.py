import math

import numpy as np
import pytest

from firmlp.dynamics import (
    DivergenceError,
    MonitorConfig,
    StopRule,
    asymptotic_regularity_report,
    picard_iterate,
    resolvent_apply,
    resolvent_operator,
    semigroup_limit_estimate,
    semigroup_product,
    trajectory_to_csv,
)
from firmlp.operators import (
    ContractiveProjection,
    Resolvent,
    ResolventDiverged,
    Scale,
    SwapIsometry,
    averaged,
    compose,
    identity,
)
from firmlp.space import lp_norm, space_params

SP2 = space_params(2.0)
SP3 = space_params(3.0)


def swap_projection_pair():
    P_u = ContractiveProjection(SwapIsometry(0, 1))
    P_v = ContractiveProjection(SwapIsometry(1, 2))
    return P_u, P_v


class TestPicard:
    def test_identity_stops_immediately(self):
        traj = picard_iterate(identity(), np.array([1.0, 2.0]), StopRule(), MonitorConfig(SP2))
        assert len(traj.iterates) == 1
        assert traj.converged and traj.stop_reason == "step_tol"
        assert traj.final_residual == 0.0

    def test_zero_map_one_step(self):
        T = averaged(Scale(-1.0), 0.5)
        traj = picard_iterate(T, np.array([2.0, 2.0]), StopRule(), MonitorConfig(SP2))
        assert np.allclose(traj.iterates[1], [0.0, 0.0])
        assert traj.converged
        assert len(traj.step_norms) == len(traj.iterates) - 1

    def test_composed_projections_reach_diagonal(self):
        P_u, P_v = swap_projection_pair()
        T = compose([P_v, P_u], SP3)
        x0 = np.array([1.0, 0.0, 0.0, 0.0])
        traj = picard_iterate(T, x0, StopRule(), MonitorConfig(SP3))
        assert np.allclose(traj.limit, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-9)

        # independent oracle: raw loop on the closed-form projections
        z = x0.copy()
        for _ in range(200):
            z = np.array([(z[0] + z[1]) / 2, (z[0] + z[1]) / 2, z[2], z[3]])
            z = np.array([z[0], (z[1] + z[2]) / 2, (z[1] + z[2]) / 2, z[3]])
        assert np.allclose(traj.limit, z, atol=1e-9)

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError) as err:
            picard_iterate(Scale(2.0), np.array([1.0, 0.0]), StopRule(), MonitorConfig(SP2))
        partial = err.value.trajectory
        assert partial.stop_reason == "divergence"
        assert len(partial.iterates) >= 2

    def test_monitors_required(self):
        with pytest.raises(ValueError, match="monitors"):
            picard_iterate(identity(), np.array([1.0, 2.0]), StopRule(), None)

    def test_max_iter_stop(self):
        T = Scale(0.999999)
        traj = picard_iterate(
            T, np.array([1.0]), StopRule(step_tol=1e-14, max_iter=50), MonitorConfig(SP2)
        )
        assert not traj.converged
        assert traj.stop_reason == "max_iter"
        assert len(traj.step_norms) == 50

    def test_fejer_channel_monotone(self):
        P_u, P_v = swap_projection_pair()
        T = compose([P_v, P_u], SP3)
        monitors = MonitorConfig(SP3, auto_fejer=4, seed=3, track_fix_projections=True)
        traj = picard_iterate(T, np.array([1.0, 0.0, 0.0, 0.0]), StopRule(), monitors)
        assert traj.fejer_distances.shape[1] == 4
        gaps = np.diff(traj.fejer_distances, axis=0)
        slack = 1e-12 * np.maximum(traj.fejer_distances[0], 1.0)
        assert np.all(gaps <= slack[None, :])

    def test_fix_projections_cauchy_and_converge_to_limit(self):
        P_u, P_v = swap_projection_pair()
        T = compose([P_v, P_u], SP3)
        monitors = MonitorConfig(SP3, track_fix_projections=True)
        traj = picard_iterate(T, np.array([1.0, 0.0, 0.0, 0.0]), StopRule(), monitors)
        steps = lp_norm(np.diff(traj.fix_projections, axis=0), 3.0)
        assert steps[-1] <= 1e-9
        assert lp_norm(traj.fix_projections[-1] - traj.limit, 3.0) <= 1e-8

    def test_csv_export(self, tmp_path):
        P_u, P_v = swap_projection_pair()
        T = compose([P_v, P_u], SP3)
        monitors = MonitorConfig(SP3, auto_fejer=2, seed=0, track_fix_projections=True)
        traj = picard_iterate(T, np.array([1.0, 0.0, 0.0, 0.0]), StopRule(), monitors)
        out = tmp_path / "traj.csv"
        with open(out, "w") as fh:
            trajectory_to_csv(traj, fh)
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:6] == ["n", "x_1", "x_2", "x_3", "x_4", "step_norm"]
        assert "fejer_dist_1" in header and "proj_x_1" in header
        assert len(lines) == len(traj.iterates) + 1
        # round-trip exactness of the 17-digit format
        val = float(lines[2].split(",")[1])
        assert val == traj.iterates[1][0]


class TestAsymptoticRegularity:
    def test_truncation_converges_in_one_step(self):
        from firmlp.operators import truncation_operator

        T = truncation_operator(2, SP3, 5)
        monitors = MonitorConfig(SP3, auto_fejer=3, seed=1)
        traj = picard_iterate(T, np.array([1.0, 2.0, 3.0, -4.0, 0.5]), StopRule(), monitors)
        assert len(traj.step_norms) == 1
        rep = asymptotic_regularity_report(traj, T.meta, SP3)
        assert rep.bound_checked and rep.bound_ok and rep.final_below_tol

    def test_identity_all_zero(self):
        traj = picard_iterate(identity(), np.array([1.0, 1.0]), StopRule(), MonitorConfig(SP2))
        rep = asymptotic_regularity_report(traj, identity().meta, SP2)
        assert rep.final_below_tol
        assert not rep.bound_checked  # identity carries no firm constant

    def test_projection_composition_bound(self):
        P_u, P_v = swap_projection_pair()
        T = compose([P_v, P_u], SP3)
        monitors = MonitorConfig(
            SP3, fejer_points=np.array([[1 / 3, 1 / 3, 1 / 3, 0.0], [0.0, 0.0, 0.0, 0.0]])
        )
        traj = picard_iterate(T, np.array([1.0, 0.0, 0.0, 0.0]), StopRule(), monitors)
        rep = asymptotic_regularity_report(traj, T.meta, SP3)
        assert rep.bound_checked and rep.bound_ok
        for lhs, rhs, margin in rep.per_point:
            assert margin >= 0.0


class TestResolvent:
    def test_negation_closed_form(self):
        F = Scale(-1.0)
        x = np.array([3.0, 0.0])
        assert np.allclose(resolvent_apply(F, 1.0, x, SP2), [1.0, 0.0], atol=1e-11)
        for lam in (0.1, 1.0, 10.0):
            out = resolvent_apply(F, lam, x, SP2)
            assert np.allclose(out, x / (1.0 + 2.0 * lam), atol=1e-10)

    def test_identity_inner(self):
        x = np.array([0.5, -2.0])
        for lam in (0.0, 0.5, 4.0):
            assert np.allclose(resolvent_apply(identity(), lam, x, SP2), x, atol=1e-11)

    def test_fixed_points_of_inner_are_fixed(self):
        F = Scale(-1.0)
        zero = np.zeros(3)
        assert np.allclose(resolvent_apply(F, 2.0, zero, SP3), zero, atol=1e-12)

    def test_operator_meta(self):
        R = resolvent_operator(Scale(-1.0), 1.0, SP3)
        assert R.meta.alpha_firm == 0.5
        assert R.meta.proven_nonexpansive
        assert R.meta.fixed_points is not None

    def test_warns_without_certificate(self):
        with pytest.warns(UserWarning):
            resolvent_operator(Scale(3.0), 1.0, SP2)

    def test_diverges_for_strongly_expansive_inner(self):
        R = Resolvent(Scale(40.0), 9.0, p=2.0)
        with pytest.raises(ResolventDiverged):
            R(np.array([1.0, 1.0]))

    def test_iteration_cost_scales_with_contraction_factor(self):
        # residual after k steps decays like (lam/(1+lam))^k
        F = Scale(-1.0)
        x = np.array([1.0, 2.0, 3.0])
        out = resolvent_apply(F, 10.0, x, SP3, tol=1e-12)
        assert np.allclose(out, x / 21.0, atol=1e-10)


class TestSemigroup:
    def test_single_factor(self):
        T = semigroup_product(Scale(-1.0), 1.0, 1, SP2)
        assert np.allclose(T(np.array([3.0, 0.0])), [1.0, 0.0], atol=1e-11)

    def test_four_factors_closed_form(self):
        T = semigroup_product(Scale(-1.0), 1.0, 4, SP2)
        x = np.array([1.0, -2.0])
        assert np.allclose(T(x), 16.0 * x / 81.0, atol=1e-10)

    def test_firm_constant(self):
        for n, sp in ((4, SP2), (16, SP3)):
            T = semigroup_product(Scale(-1.0), 1.0, n, sp)
            m = n ** (sp.r - 1.0)
            assert T.meta.alpha_firm == pytest.approx(m / (m + 1.0), rel=1e-12)

    def test_limit_is_exponential(self):
        est = semigroup_limit_estimate(
            Scale(-1.0), 1.0, np.array([1.0, 0.0]), [64, 128, 256], SP2
        )
        assert est.closed_form_errors is not None
        assert est.closed_form_errors[-1] < est.closed_form_errors[0]
        assert abs(est.value[0] - math.exp(-2.0)) < 0.01
        assert est.cauchy_ok

    def test_error_halves_when_n_doubles(self):
        schedule = [8, 16, 32, 64, 128, 256, 512, 1024]
        est = semigroup_limit_estimate(Scale(-1.0), 1.0, np.array([1.0, 0.0]), schedule, SP2)
        errs = est.closed_form_errors
        ratios = errs[1:] / errs[:-1]
        assert np.all((0.4 <= ratios) & (ratios <= 0.6))

    def test_axiom_checks_within_bounds(self):
        est = semigroup_limit_estimate(
            Scale(-1.0), 1.0, np.array([2.0, 1.0]), [32, 64], SP2
        )
        ax = est.axiom_checks
        assert ax["identity_at_zero"] <= ax["identity_at_zero_bound"]
        assert ax["additivity"] <= ax["additivity_bound"]

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            semigroup_limit_estimate(Scale(-1.0), 1.0, np.ones(2), [8, 8], SP2)
