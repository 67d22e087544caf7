import decimal
import io
import math
import pickle
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firmlp import dynamics, operators
from firmlp.dynamics import (
    DivergenceError,
    MonitorConfig,
    StopRule,
    Trajectory,
    asymptotic_regularity_report,
    picard_iterate,
    resolvent_apply,
    resolvent_operator,
    semigroup_limit_estimate,
    semigroup_product,
    trajectory_to_csv,
)
from firmlp.operators import (
    RESOLVENT_TOL,
    Activation,
    Affine,
    Averaged,
    Compose,
    ConvexCombo,
    DimensionMismatch,
    OperatorExpr,
    Resolvent,
    ResolventDiverged,
    Scale,
    SwapIsometry,
    Truncate,
    _all_finite,
    averaged,
    compose,
    contractive_projection,
    convex_combination,
    guaranteed_nonexpansive_affine,
    identity,
    neural_network,
    stable_activation,
)
from firmlp.space import lp_norm, space_params

SP2 = space_params(2.0)
SP3 = space_params(3.0)


def two_swap_chain(sp):
    # the averaged two-swap generator of the semigroup configs
    return compose([averaged(SwapIsometry(1, 2), 0.5), averaged(SwapIsometry(0, 1), 0.5)], sp)


def swap_projection_pair():
    P_u = contractive_projection(SwapIsometry(0, 1))
    P_v = contractive_projection(SwapIsometry(1, 2))
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

    @pytest.mark.parametrize("factor", [2.0, -2.0])
    def test_divergence_verdict_is_exact(self, factor):
        # ||x_n|| = 2^n first exceeds the guard 1e12 * (1 + ||x_0||) at n = 41;
        # the running bound ||x_0|| + sum of steps overshoots it for factor -2
        with pytest.raises(DivergenceError) as err:
            picard_iterate(Scale(factor), np.array([1.0, 0.0]), StopRule(), MonitorConfig(SP2))
        assert len(err.value.trajectory.step_norms) == 40

    def test_one_norm_per_step(self, monkeypatch):
        calls = 0

        def counting_norm(*args, **kwargs):
            nonlocal calls
            calls += 1
            return lp_norm(*args, **kwargs)

        monkeypatch.setattr(dynamics, "lp_norm", counting_norm)
        traj = picard_iterate(Scale(0.5), np.array([1.0, 0.0]), StopRule(), MonitorConfig(SP2))
        # the guard's norm of x_0, then one step norm per application of T
        assert calls == 1 + len(traj.step_norms) + 1

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


def reference_csv(traj):
    """The trajectory CSV as one ``fmt`` call per value."""
    fmt = dynamics.fmt
    rows = []
    for i, xi in enumerate(traj.iterates):
        row = [str(i)] + [fmt(v) for v in xi]
        row.append("" if i == 0 else fmt(traj.step_norms[i - 1]))
        for block in (traj.fejer_distances, traj.fix_projections):
            if block is not None:
                row += [fmt(v) for v in block[i]]
        rows.append(",".join(row) + "\n")
    return "".join(rows)


# every float: nan, +-inf, -0.0, subnormals and the largest float included
any_float = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                     np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny]),
)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2), st.booleans(), st.data())
def test_csv_rows_format_as_fmt(n, d, m, projections, data):
    block = lambda rows, cols: np.array(
        data.draw(st.lists(any_float, min_size=rows * cols, max_size=rows * cols))
    ).reshape(rows, cols)
    traj = Trajectory(
        iterates=block(n, d), step_norms=block(1, n - 1)[0], final_residual=0.0,
        converged=True, stop_reason="step_tol",
        fejer_distances=block(n, m) if m else None,
        fix_projections=block(n, d) if projections else None,
    )
    fh = io.StringIO()
    trajectory_to_csv(traj, fh)
    assert fh.getvalue().split("\n", 1)[1] == reference_csv(traj)


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

    @pytest.mark.parametrize("s", [1.0, 1e5])
    def test_bound_at_large_p(self, s):
        # at p = 64 the r-th power of ||x_0 - y|| overflows from 1e5 x_0;
        # truncation meets its bound with equality, so only ratios decide it
        from firmlp.operators import truncation_operator

        sp = space_params(64.0)
        T = truncation_operator(2, sp, 4)
        traj = picard_iterate(
            T, s * np.array([1.0, 2.0, 3.0, -4.0]), StopRule(), MonitorConfig(sp, auto_fejer=2)
        )
        rep = asymptotic_regularity_report(traj, T.meta, sp)
        assert rep.bound_checked and rep.bound_ok is True
        assert len(rep.per_point) == 2 and np.all(np.isfinite(rep.per_point))


class TestResolvent:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(lam=float("nan")), "lam must be finite"),
        (dict(lam=float("inf")), "lam must be finite"),
        (dict(lam=-1.0), "lam must be finite"),
    ])
    def test_rejects_bad_parameters(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Resolvent(Scale(-1.0), p=2.0, **kwargs)

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

    @pytest.mark.filterwarnings("ignore:resolvent of an operator without:UserWarning")
    @pytest.mark.parametrize("inner, lam, x, match, iterated", [
        (lambda: two_swap_chain(SP3), 1e17, [1.0, 0.0, 0.0, 0.0], "singular", False),
        (lambda: Affine(0.5 * np.eye(2), np.array([1.5e308, 0.0]), p=3.0), 1.0, [1.5e308, 0.0],
         "closed form is not finite", False),
        (lambda: Activation("tanh"), 1e17, [3.0, 0.0], "rounds to 1", False),
        (lambda: Activation("tanh"), 1.0, [math.inf, 0.0], "input is not finite", False),
        (lambda: Scale(40.0), 9.0, [1e307, 1e307], "iterate is not finite", True),
        (lambda: Scale(40.0), 9.0, [1.0, 1.0], "did not contract", True),
    ], ids=["singular", "closed_form", "rounds_to_1", "input", "iterate", "no_contraction"])
    def test_diverged_carries_its_diagnostics(self, inner, lam, x, match, iterated):
        with np.errstate(over="ignore"), pytest.raises(ResolventDiverged, match=match) as err:
            Resolvent(inner(), lam, p=3.0)(np.array(x))
        assert err.value.lam == lam
        if iterated:
            assert err.value.iterations >= 1 and err.value.last_step > 0.0
        else:
            assert (err.value.iterations, err.value.last_step) == (0, None)
        copy = pickle.loads(pickle.dumps(err.value))
        assert str(copy) == str(err.value)
        assert (copy.lam, copy.iterations, copy.last_step) == (
            err.value.lam, err.value.iterations, err.value.last_step)

    def test_newton_budget_raises_with_its_diagnostics(self, monkeypatch):
        # at lam = 1e4, x = 5 takes about ten Newton steps
        monkeypatch.setattr(operators, "NEWTON_BUDGET", 2)
        with pytest.raises(ResolventDiverged, match="did not settle") as err:
            Resolvent(Activation("tanh"), 1e4, p=3.0)(np.array([5.0, 0.0]))
        assert (err.value.lam, err.value.iterations) == (1e4, 2)
        assert 0.0 < err.value.last_step < math.inf

    def test_short_vector_raises_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            resolvent_apply(SwapIsometry(0, 5), 1.0, np.zeros(2), SP2)

    def test_apply_warns_without_certificate(self):
        x = np.array([1.0, -2.0])
        with pytest.warns(UserWarning, match="certificate"):
            out = resolvent_apply(Scale(1.5), 0.1, x, SP2)
        assert np.allclose(out, x / 0.95, atol=1e-10)  # y = (x + 0.15 y)/1.1

    def test_huge_lam_affine_inner_closed_form(self):
        # lam/(1+lam) rounds to 1.0 here; the closed form needs no contraction
        x = np.array([3.0, 0.0])
        out = resolvent_apply(Scale(-1.0), 1e17, x, SP3)
        assert out == pytest.approx(x / (1.0 + 2e17), rel=1e-15, abs=0.0)

    def test_huge_lam_nonlinear_inner_raises(self):
        with pytest.raises(ResolventDiverged, match="rounds to 1"):
            resolvent_apply(Activation("tanh"), 1e17, np.array([3.0, 0.0]), SP3)

    def test_huge_lam_singular_closed_form_raises(self):
        # I + lam (I - W) loses its I to rounding: singular in float64
        with pytest.raises(ResolventDiverged, match="singular"):
            resolvent_apply(two_swap_chain(SP3), 1e17, np.array([1.0, 0.0, 0.0, 0.0]), SP3)

    def test_tiny_input_keeps_relative_accuracy(self):
        out = resolvent_apply(Scale(-1.0), 1.0, (1e-20, 0.0), SP3)
        assert out[0] == pytest.approx(1e-20 / 3.0, rel=1e-15, abs=0.0)
        assert out[1] == 0.0

    @pytest.mark.parametrize("x", [
        [1e-20, 0.0],
        # the second row is fixed after two steps; the first must still stop
        # at its own threshold, not at one scaled by the batch
        [[1e-20, 0.0], [-5.0, 0.0]],
    ])
    def test_tiny_input_nonlinear_inner(self, x):
        # the first step, 1e-20, is far below tol: the stop must be relative
        F = compose([Scale(-1.0), Activation("relu")], SP3)
        x = np.array(x)
        out = resolvent_apply(F, 1.0, x, SP3)
        # y + (y + relu(y)) = x
        assert out == pytest.approx(np.where(x > 0.0, x / 3.0, x / 2.0), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("s", [1e-150, 1e-110, 1e110, 1e150])
    def test_nonlinear_inner_at_extreme_scales(self, s):
        # F(y) = -relu(y): y + (y + relu(y)) = x; no step is raised to a power
        F = compose([Scale(-1.0), Activation("relu")], SP3)
        out = resolvent_apply(F, 1.0, np.array([s, 0.0]), SP3)
        assert out == pytest.approx([s / 3.0, 0.0], rel=1e-10, abs=0.0)

    def test_batch_rows_keep_their_own_scale(self):
        # each row of a mixed-scale batch stops at its own threshold
        F = compose([Scale(-1.0), Activation("relu")], SP3)
        x = np.array([[1e-150, 0.0], [1e150, 0.0], [-5.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        out = resolvent_apply(F, 4.0, x, SP3)
        for row, y in zip(x, out):
            assert y == pytest.approx(resolvent_apply(F, 4.0, row, SP3), rel=1e-10, abs=0.0)
        # y + 4 (y + relu(y)) = x: x/9 where positive, x/5 where not
        assert out == pytest.approx(np.where(x > 0.0, x / 9.0, x / 5.0), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("lam", [1e2, 1e3])
    def test_value_far_above_input_and_first_step(self, lam):
        # F(y) = relu(y) + (1, 0) puts y* = (1 + lam, 0) far above max|x| and
        # the first step; its rounding floor must still pass the stop rule
        F = compose([Affine(np.eye(2), np.array([1.0, 0.0]), p=3.0), Activation("relu")], SP3)
        out = resolvent_apply(F, lam, np.array([1.0, 0.0]), SP3)
        assert out == pytest.approx([1.0 + lam, 0.0], rel=1e-8, abs=0.0)

    def test_non_finite_iterate_raises(self):
        with pytest.warns(UserWarning, match="certificate"):
            R = Resolvent(Scale(40.0), 9.0, p=2.0)
        with np.errstate(over="ignore"), pytest.raises(ResolventDiverged, match="not finite"):
            R(np.array([1e307, 1e307]))

    @pytest.mark.parametrize("inner", [Activation("tanh"), Activation("relu"),
                                       Averaged(Activation("tanh"), 0.5)])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_raises_silently(self, inner, batched, bad):
        x = np.array([bad, 0.0, 0.0, 0.0])
        R = Resolvent(inner, 1.0, p=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResolventDiverged, match="not finite"):
                R(np.stack([np.ones(4), x]) if batched else x)

    def test_iteration_cost_scales_with_contraction_factor(self):
        # residual after k steps decays like (lam/(1+lam))^k
        F = Scale(-1.0)
        x = np.array([1.0, 2.0, 3.0])
        out = resolvent_apply(F, 10.0, x, SP3)
        assert np.allclose(out, x / 21.0, atol=1e-10)


# positively homogeneous nonlinear inners: R(c x) = c R(x) for c > 0
HOMOGENEOUS_INNERS = {
    "neg_relu": lambda sp: compose([Scale(-1.0), Activation("relu")], sp),
    "swaps_relu": lambda sp: compose([two_swap_chain(sp), Activation("relu")], sp),
}


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-3, max_value=10.0),
            st.floats(min_value=-10.0, max_value=-1e-3),
        ),
        min_size=4,
        max_size=4,
    ),
    st.floats(min_value=-150.0, max_value=150.0).map(lambda e: 10.0**e),
    st.sampled_from([1.01, 1.5, 2.0, 3.0, 64.0]),
    st.sampled_from([0.3, 1.0, 4.0]),
    st.sampled_from(sorted(HOMOGENEOUS_INNERS)),
)
def test_resolvent_scale_free(xs, c, p, lam, inner):
    R = Resolvent(HOMOGENEOUS_INNERS[inner](space_params(p)), lam, p=p)
    x = np.array(xs)
    ref = R(x)
    scale = c * max(np.max(np.abs(x)), 1e-3)
    # alone, and next to the unscaled row in one batch
    for out in (R(c * x), R(np.stack([x, c * x]))[1]):
        assert np.max(np.abs(out - c * ref)) <= 1e-10 * scale


# entries of moderate size, so c * x keeps every entry in range at each c
coords = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=-10.0, max_value=-1e-3),
    ),
    min_size=4,
    max_size=4,
)
# log-uniform over 1e-150..1e150
scales = st.floats(min_value=-150.0, max_value=150.0).map(lambda e: 10.0**e)
EPS = np.finfo(float).eps
# coordinatewise inners -> (activation on floats, the factor a of lam)
COORDINATEWISE = {
    "tanh": (np.tanh, 1.0),
    "relu": (lambda y: np.maximum(y, 0.0), 1.0),
    "averaged_tanh": (np.tanh, 0.3),
    "averaged_relu": (lambda y: np.maximum(y, 0.0), 0.6),
}


def coordinatewise_inner(name):
    act = Activation(name.rsplit("_", 1)[-1])
    return Averaged(act, COORDINATEWISE[name][1]) if name.startswith("averaged") else act


def contraction_reference(inner, lam, p, x):
    # Compose((F,)) is F as a map but no coordinatewise node: it iterates
    return Resolvent(Compose((inner,), space_params(p)), lam, p=p)(x)


def contraction_error(lam, scale):
    # the contraction's error, about RESOLVENT_TOL lam times its scale, and
    # a few eps (1 + lam) of rounding in either value
    return (lam * RESOLVENT_TOL + 8.0 * EPS * (1.0 + lam)) * scale


class TestCoordinatewiseResolvent:
    """A resolvent of an activation, or of an average of one, solved one
    coordinate at a time: relu in closed form, tanh by a scalar Newton."""

    @settings(max_examples=60, deadline=None)
    @given(coords, scales, st.sampled_from([1e-3, 1.0, 1e4]), st.sampled_from([1.5, 3.0, 6.0]),
           st.sampled_from(sorted(COORDINATEWISE)))
    def test_value_between_x_over_one_plus_lam_and_x(self, xs, c, lam, p, name):
        lam_a = COORDINATEWISE[name][1] * lam
        x = c * np.array(xs)
        y = Resolvent(coordinatewise_inner(name), lam, p=p)(x)
        assert np.array_equal(np.sign(y), np.sign(x))
        assert np.all(np.abs(y) <= np.abs(x))
        # the lower end as rounded: x/(1 + lam) itself is a rounded value
        assert np.all(np.abs(y) >= np.abs(x) / (1.0 + lam_a) * (1.0 - 2.0 * EPS))

    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e4])
    def test_bracket_over_many_coordinates(self, lam):
        # one vector of 4000 coordinates from 1e-150 to 1e150: a rounding
        # step that moved y away from 0 would put |y| above |x| somewhere
        rng = np.random.default_rng(9)
        x = rng.uniform(-10.0, 10.0, 4000) * 10.0 ** rng.uniform(-150.0, 150.0, 4000)
        y = Resolvent(Activation("tanh"), lam, p=3.0)(x)
        assert np.array_equal(np.sign(y), np.sign(x)) and np.all(np.abs(y) <= np.abs(x))
        assert np.all(np.abs(y) >= np.abs(x) / (1.0 + lam) * (1.0 - 2.0 * EPS))

    @settings(max_examples=60, deadline=None)
    @given(coords, scales, st.sampled_from([1e-3, 1.0, 1e4]), st.sampled_from([1.5, 3.0, 6.0]),
           st.sampled_from(sorted(COORDINATEWISE)))
    def test_recovers_y_from_its_forward_map(self, ys, c, lam, p, name):
        sigma, a = COORDINATEWISE[name]
        y = c * np.array(ys)
        x = (1.0 + a * lam) * y - a * lam * sigma(y)
        out = Resolvent(coordinatewise_inner(name), lam, p=p)(x)
        # the rounding of x and of the solve, each about eps (1 + lam) max|y|
        assert np.max(np.abs(out - y)) <= 8.0 * EPS * (1.0 + a * lam) * np.max(np.abs(y))

    @settings(max_examples=40, deadline=None)
    @given(coords, scales, st.sampled_from([1e-3, 1.0]), st.sampled_from([1.5, 3.0, 6.0]),
           st.sampled_from(sorted(COORDINATEWISE)))
    def test_matches_the_contraction(self, xs, c, lam, p, name):
        # at lam = 1e4 the contraction takes up to ~1 s a call: the fixed
        # cases below take it at three scales
        self.check_against_contraction(c * np.array(xs), lam, p, name)

    @pytest.mark.parametrize("name", sorted(COORDINATEWISE))
    @pytest.mark.parametrize("c", [1e-150, 1.0, 1e150])
    def test_matches_the_contraction_at_large_lam(self, c, name):
        self.check_against_contraction(c * np.array([2.0, -0.5, 0.0, 7.0]), 1e4, 3.0, name)

    @staticmethod
    def check_against_contraction(x, lam, p, name):
        inner = coordinatewise_inner(name)
        R, bound = Resolvent(inner, lam, p=p), contraction_error(lam, np.max(np.abs(x)))
        y = R(x)
        # a batch row is solved as the one vector is
        np.testing.assert_array_equal(R(np.stack([-x, x]))[1], y)
        assert np.max(np.abs(y - contraction_reference(inner, lam, p, x))) <= bound

    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e4, 1e15])
    def test_relu_closed_form_is_exact(self, lam):
        x = np.array([[3.0, -3.0, 0.0, -1e-300], [1e300, -1e300, -0.0, 5e-324]])
        y = Resolvent(Activation("relu"), lam, p=3.0)(x)
        np.testing.assert_array_equal(y, np.where(x > 0.0, x, x / (1.0 + lam)))

    @pytest.mark.parametrize("sigma", ["tanh", "relu"])
    @pytest.mark.parametrize("a", [0.3, 0.6])
    def test_averaged_inner_is_the_activation_at_a_lam(self, sigma, a):
        x = np.array([2.0, -0.5, 0.0, 7.0])
        for lam in (1e-3, 1.0, 1e4):
            y = Resolvent(Averaged(Activation(sigma), a), lam, p=3.0)(x)
            np.testing.assert_array_equal(y, Resolvent(Activation(sigma), a * lam, p=3.0)(x))
            if lam < 1e4:  # the contraction on (1 - a) Id + a sigma itself
                ref = contraction_reference(Averaged(Activation(sigma), a), lam, 3.0, x)
                assert np.max(np.abs(y - ref)) <= contraction_error(lam, 7.0)

    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e2, 1e4, 1e8, 1e12, 2.0**52])
    def test_tanh_is_within_two_eps_of_its_root(self, lam):
        # g(y) = (1 + lam) y - lam tanh y increases, so the root of g = x
        # lies within 2 eps |y| of y iff x lies between g(y (1 -+ 2 eps)),
        # each evaluated exactly enough in 80-digit decimals
        x = np.array([m * 10.0**e for e in range(-6, 7) for m in (1.0, -3.7, 0.31)])
        y = Resolvent(Activation("tanh"), lam, p=3.0)(x)
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emax, ctx.Emin = 80, 10**6, -(10**6)
            D, two_eps = decimal.Decimal, 2 * decimal.Decimal(EPS)

            def g(v):
                e = (2 * v).exp()
                return (1 + D(lam)) * v - D(lam) * (e - 1) / (e + 1)

            for xi, yi in zip(x.tolist(), y.tolist()):
                ends = sorted(g(D(yi) * (1 + s * two_eps)) for s in (-1, 1))
                assert ends[0] <= D(xi) <= ends[1], (xi, yi)

    def test_tiny_input_at_large_lam_returns(self):
        # (1 + lam) y and lam tanh y cancel: the stop rule must not stall
        rng = np.random.default_rng(8)
        R = Resolvent(Activation("tanh"), 1e4, p=3.0)
        for _ in range(30):
            x = rng.uniform(-1e-8, 1e-8, size=4)
            y = R(x)
            residual = (1.0 + 1e4) * y - 1e4 * np.tanh(y) - x
            assert np.max(np.abs(residual)) <= 8.0 * EPS * (1.0 + 1e4) * np.max(np.abs(x))

    @pytest.mark.parametrize("name", ["tanh", "averaged_tanh", "relu"])
    @pytest.mark.parametrize("big", [1e308, -1e308, np.finfo(float).max])
    def test_largest_inputs_do_not_overflow(self, name, big):
        # at lam = 1, y = x/2 + tanh(y)/2: no step may form (1 + lam) y
        lam_a = COORDINATEWISE[name][1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = Resolvent(coordinatewise_inner(name), 1.0, p=3.0)(np.array([big, 0.0, 1.0]))
        expected = big / (1.0 + lam_a) if (name != "relu" or big < 0) else big
        assert y[0] == pytest.approx(expected, rel=4.0 * EPS, abs=0.0)


# non-homogeneous inners: R(c x) is not c R(x), but every value is as
# accurate, relative to its own scale, at every scale
NON_HOMOGENEOUS = {
    "tanh": (lambda sp: Activation("tanh"), [1e-3, 1.0, 1e4]),
    "averaged_tanh": (lambda sp: Averaged(Activation("tanh"), 0.3), [1e-3, 1.0, 1e4]),
    # not coordinatewise nodes: the contraction, which at lam = 1e4 takes seconds
    "neg_tanh": (lambda sp: compose([Scale(-1.0), Activation("tanh")], sp), [1e-3, 1.0]),
    "swaps_tanh": (lambda sp: compose([two_swap_chain(sp), Activation("tanh")], sp), [1e-3, 1.0]),
}


@settings(max_examples=100, deadline=None)
@given(coords, scales, st.sampled_from([1.5, 3.0, 6.0]), st.sampled_from(sorted(NON_HOMOGENEOUS)),
       st.integers(0, 2), st.booleans())
def test_resolvent_accuracy_is_scale_free(xs, c, p, name, k, batched):
    build, lams = NON_HOMOGENEOUS[name]
    lam, sp = lams[k % len(lams)], space_params(p)
    F = build(sp)
    x = c * np.array(xs)
    y = Resolvent(F, lam, p=p)(np.stack([x, x]))[1] if batched else Resolvent(F, lam, p=p)(x)
    # |y - J x| <= ||residual|| for every nonexpansive F, in any lp norm
    residual = (1.0 + lam) * y - lam * F(y) - x
    assert np.max(np.abs(residual)) <= contraction_error(lam, c * max(np.max(np.abs(xs)), 1e-3))


def _affine_map(sp, d):
    rng = np.random.default_rng(5)
    return guaranteed_nonexpansive_affine(rng.normal(size=(d, d)), rng.normal(size=d), sp.p)


# one builder per affine node kind: (space, dimension) -> operator
AFFINE_CASES = {
    "affine": _affine_map,
    "scale": lambda sp, d: Scale(-0.5),
    "swap": lambda sp, d: SwapIsometry(0, 2),
    "truncate": lambda sp, d: Truncate(2, sp, d),
    "identity": lambda sp, d: identity(),
    "averaged": lambda sp, d: Averaged(SwapIsometry(1, 3), 0.3),
    "compose": lambda sp, d: two_swap_chain(sp),
    "convex_combo": lambda sp, d: ConvexCombo(
        (Scale(-1.0), SwapIsometry(0, 1), _affine_map(sp, d)), (0.2, 0.3, 0.5)
    ),
    "resolvent_in_compose": lambda sp, d: Compose(
        (Resolvent(_affine_map(sp, d), 0.7, p=sp.p), Averaged(SwapIsometry(0, 1), 0.5)), sp
    ),
}


@pytest.fixture
def inv_calls(monkeypatch):
    calls = []
    inv = np.linalg.inv

    def counting_inv(a):
        calls.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    return calls


class TestResolventClosedForm:
    D = 4

    @pytest.mark.parametrize("name", sorted(AFFINE_CASES))
    def test_affine_form_reproduces_apply(self, name):
        T = AFFINE_CASES[name](SP3, self.D)
        W, b = T.affine_form(self.D)
        x = np.random.default_rng(1).normal(size=(6, self.D))
        assert np.allclose(x @ W.T + b, T(x), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(AFFINE_CASES))
    def test_matches_iteration(self, monkeypatch, inv_calls, name, p, batched):
        sp = space_params(p)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, self.D) if batched else self.D)
        with monkeypatch.context() as m:
            # the reference: every resolvent in the tree runs the iteration
            m.setattr(Resolvent, "affine_form", lambda self, d: None)
            reference = [Resolvent(AFFINE_CASES[name](sp, self.D), lam, p=p)(x) for lam in (0.3, 4.0)]
        assert not inv_calls
        for lam, ref in zip((0.3, 4.0), reference):
            R = Resolvent(AFFINE_CASES[name](sp, self.D), lam, p=p)
            inv_calls.clear()
            out = R(x)
            assert inv_calls
            assert np.all(lp_norm(out - ref, p) <= 1e-10 * lp_norm(ref, p))

    @pytest.mark.parametrize("offset", [1e-150, 1.0, 1e6, 1e150, 1e300])
    def test_closed_form_accurate_at_any_offset(self, offset):
        rng = np.random.default_rng(8)
        layers = [
            averaged(
                guaranteed_nonexpansive_affine(
                    rng.normal(size=(self.D, self.D)), offset * rng.uniform(-1, 1, self.D), 3.0
                ),
                0.5,
            )
            for _ in range(3)
        ]
        F, lam = compose(layers, SP3), 2.0
        x = offset * rng.uniform(-1, 1, self.D)
        y = Resolvent(F, lam, p=3.0)(x)
        Fy = F(y)
        # residual of y + lam (y - F y) = x, relative to its largest term
        scale = max(np.max(np.abs(t)) for t in (x, (1.0 + lam) * y, lam * Fy))
        assert np.max(np.abs(y + lam * (y - Fy) - x)) <= 1e-14 * scale

    def test_cancelling_inner_offsets(self):
        # F = W2 (y + c) with W2 c = 0: a probe of the whole tree reads W2 at
        # the scale of c, where 1e16 + 1 rounds to 1e16, and loses it
        W2 = np.full((2, 2), 0.5)
        F = Compose(
            (Affine(W2, None, p=2.0), Affine(np.eye(2), np.array([1e16, -1e16]), p=2.0)), SP2
        )
        assert np.array_equal(F.affine_form(2)[0], W2)
        y = Resolvent(F, 1.0, p=2.0)(np.array([1.0, 0.0]))
        assert y == pytest.approx([0.75, 0.25], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("W, p, lam, expect", [
        (0.5 * np.eye(2), 2.0, 0.5, [(1.0 + 5e307) / 1.25, 1.6]),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), 3.0, 1.0, [1e308 / 1.5, 1e308 / 3.0]),
    ])
    def test_offset_near_overflow(self, W, p, lam, expect):
        F = Affine(W, np.array([1e308, 0.0]), p=p)
        y = Resolvent(F, lam, p=p)(np.array([1.0, 2.0]))
        assert y == pytest.approx(expect, rel=1e-15, abs=0.0)

    def test_probe_offset_near_overflow(self):
        # the inner resolvent's offset c is near the float64 limit: its
        # matrix is read with the offset dropped, so nothing overflows
        c = 1.7e308 * (1000.0 / 1001.0)
        inner = Resolvent(Affine(np.zeros((2, 2)), np.array([1.7e308, 0.0]), p=2.0), 1000.0, p=2.0)
        y = Resolvent(inner, 1.0, p=2.0)(np.array([1.0, 2.0]))
        assert y == pytest.approx([c * (1001.0 / 2001.0), 2002.0 / 2001.0], rel=1e-14, abs=0.0)

    def test_resolvent_operand_form_is_its_closed_form(self):
        # A = I + lam (I - 1e-8 P) has inverse entries of order 1e-16, far
        # below ulp(1e6): reading W with the offset in place loses them
        P = np.roll(np.eye(self.D), 1, axis=1)
        R = Resolvent(Affine(1e-8 * P, np.full(self.D, 1e6), p=3.0), 2.0, p=3.0)
        W, b = R.affine_form(self.D)
        M, c = R.affine_form(self.D)
        assert np.array_equal(W, M) and np.array_equal(b, c)

    @pytest.mark.parametrize("name", ["tanh", "relu"])
    def test_nonlinear_inner_iterates(self, inv_calls, name):
        F = Activation(name)
        assert F.affine_form(self.D) is None
        assert compose([F, SwapIsometry(0, 1)], SP3).affine_form(self.D) is None
        x = np.array([2.0, -1.0, 0.5, 3.0])
        y = Resolvent(F, 2.0, p=3.0)(x)
        assert not inv_calls
        # y is the resolvent value: y + lam (y - F y) = x
        assert np.allclose(y + 2.0 * (y - F(y)), x, atol=1e-10)

    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("block, F", [
        ((0, 1), Averaged(SwapIsometry(0, 1), 0.5)),
        ((0, 1, 2), two_swap_chain(SP3)),
    ])
    def test_averaged_swaps_keep_block_sum(self, lam, block, F):
        x = np.array([3.0, 1.0, -2.0, 5.0])
        y = Resolvent(F, lam, p=3.0)(x)
        total = x[list(block)].sum()
        assert abs(y[list(block)].sum() - total) <= 1e-12 * abs(total)

    def test_factors_once_per_dimension(self, inv_calls):
        R = Resolvent(Scale(-0.5), 2.0, p=3.0)
        for _ in range(5):
            R(np.ones(3))
        R(np.ones((7, 3)))
        for _ in range(3):
            R(np.ones(5))
        assert inv_calls == [(3, 3), (5, 5)]

    def test_semigroup_product_factors_once(self, inv_calls):
        T = semigroup_product(two_swap_chain(SP3), 1.0, 64, SP3)
        T(np.array([1.0, 0.0, 0.0, 0.0]))
        assert inv_calls == [(4, 4)]


def walk(T, x):
    """T evaluated node by node: no node reads its cached form (a resolvent
    keeps its closed form, which is its own evaluation)."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(OperatorExpr, "_eval", lambda self, x, linear=False: self._apply(x, linear))
        return T._apply(np.asarray(x, dtype=float))


def assert_rows_close(out, ref, rel):
    # each row's largest error against its largest entry
    scale = np.max(np.abs(ref), axis=-1)
    assert np.all(np.max(np.abs(out - ref), axis=-1) <= rel * scale)


def averaged_swap_chain(dim, sp):
    return compose([averaged(SwapIsometry(i, i + 1), 0.5) for i in range(dim - 1)], sp)


def network(dim, sp):
    rng = np.random.default_rng(4)
    layers = [
        averaged(
            guaranteed_nonexpansive_affine(
                rng.normal(size=(dim, dim)) * 2.0, rng.normal(size=dim) * 0.5, sp.p
            ),
            0.5,
        )
        for _ in range(3)
    ]
    return neural_network(layers, stable_activation("relu"), sp)


@pytest.fixture
def compile_calls(monkeypatch):
    """(id(node), d) -> number of times the node computed its form."""
    calls, running = Counter(), set()
    for cls in (OperatorExpr, Compose, Resolvent):

        def counting(self, d, original=cls.__dict__["_compile"]):
            key = (id(self), d)
            if key in running:  # Compose reaching the base rule through super()
                return original(self, d)
            calls[key] += 1
            running.add(key)
            try:
                return original(self, d)
            finally:
                running.discard(key)

        monkeypatch.setattr(cls, "_compile", counting)
    return calls


class TestCompiledEvaluation:
    """Compound affine nodes evaluate through one cached form per dimension."""

    D = 4

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("name", sorted(AFFINE_CASES))
    def test_affine_cases_match_walk(self, name, batched):
        x = np.random.default_rng(3).normal(size=(7, self.D) if batched else self.D)
        for T in (AFFINE_CASES[name](SP3, self.D), Averaged(AFFINE_CASES[name](SP3, self.D), 0.3)):
            assert_rows_close(T(x), walk(T, x), 1e-13)

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("build", [
        lambda: averaged_swap_chain(4, SP3),
        lambda: averaged_swap_chain(8, SP3),
        lambda: compose([contractive_projection(SwapIsometry(i, i + 1)) for i in range(6)], SP3),
        lambda: convex_combination([contractive_projection(SwapIsometry(i, i + 1)) for i in range(6)], [1 / 6] * 6),
        lambda: network(16, SP3),
    ], ids=["swaps_d4", "swaps_d8", "projections_d8", "averaged_projections_d8", "network_d16"])
    def test_trees_match_walk(self, build, batched):
        T = build()
        d = T.dims[1] or 8
        x = np.random.default_rng(5).uniform(-10.0, 10.0, size=(50, d) if batched else d)
        assert_rows_close(T(x), walk(T, x), 1e-13)

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 1000, 1024])
    @pytest.mark.parametrize("generator", [
        lambda: two_swap_chain(SP3),
        lambda: Scale(-1.0),
    ], ids=["two_swaps", "negation"])
    def test_squared_product_matches_walk(self, monkeypatch, generator, n):
        T = semigroup_product(generator(), 1.0, n, SP3)
        x = np.random.default_rng(6).normal(size=(3, self.D))
        ref = walk(T, x)
        steps = []
        original = Resolvent._apply
        monkeypatch.setattr(Resolvent, "_apply", lambda *a, **k: steps.append(1) or original(*a, **k))
        out = T(x)
        assert not steps  # the product is one form: no step is evaluated
        assert_rows_close(out, ref, 1e-13)
        assert_rows_close(T(x[0]), ref[0], 1e-13)

    def test_form_computed_once_per_dimension(self, compile_calls):
        net = network(self.D, SP3)  # 3 compiled layers inside a nonlinear chain
        chain = averaged_swap_chain(self.D, SP3)  # itself and its 3 averaged swaps
        # the product, its resolvent step, the step's chain and its 2 averages
        product = semigroup_product(two_swap_chain(SP3), 1.0, 16, SP3)
        rng = np.random.default_rng(7)
        for _ in range(3):
            net(rng.normal(size=self.D))
            net(rng.normal(size=(5, self.D)))
            for d in (self.D, 6):
                chain(rng.normal(size=d))
                chain(rng.normal(size=(5, d)))
                product(rng.normal(size=d))
                product(rng.normal(size=(5, d)))
        assert set(compile_calls.values()) == {1}
        assert len(compile_calls) == 3 + 2 * 4 + 2 * 5

    @pytest.mark.parametrize("build", [
        lambda R: compose([SwapIsometry(0, 1), R], SP3),
        lambda R: compose([R, R], SP3),
        lambda R: convex_combination([R, SwapIsometry(0, 1)], [0.95, 0.05]),
    ], ids=["compose", "product", "convex_combo"])
    def test_overflowing_resolvent_raises_as_walk(self, build):
        # R(x) = x/1.5 + (1e308, 0) overflows at x = (1.5e308, 0), and so does
        # each tree's value: the compiled value is not finite, and the walk
        # raises what it raises without compiled nodes
        R = Resolvent(Affine(0.5 * np.eye(2), np.array([1.5e308, 0.0]), p=3.0), 1.0, p=3.0)
        T, x = build(R), np.array([1.5e308, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ResolventDiverged, match="not finite"):
                walk(T, x)
            with pytest.raises(ResolventDiverged, match="not finite"):
                T(x)
            with pytest.raises(ResolventDiverged, match="not finite"):
                picard_iterate(T, x, StopRule(), MonitorConfig(SP3))

    @staticmethod
    def mean_nodes(d):
        # J/d is doubly stochastic, and every form below has positive
        # entries only, so an Inf input is Inf in each coordinate of the
        # value with no Inf * 0 to warn of
        J = Affine(np.full((d, d), 1.0 / d), np.arange(d, dtype=float), p=3.0)
        A, R = Averaged(J, 0.5), Resolvent(J, 1.0, p=3.0)
        return A, R, compose([A, R], SP3)

    @pytest.mark.parametrize("d", [1, 2, 8, 33])
    def test_finite_test_never_passes_inf_or_nan(self, d):
        for bad in (math.nan, math.inf, -math.inf):
            for fill in (1.0, 1e308, -1e308):
                for i in range(d):
                    y = np.full(d, fill)
                    y[i] = bad
                    assert not _all_finite(y)
                    assert not _all_finite(np.stack([np.ones(d), y]))
        # finite entries whose float sum overflows
        assert _all_finite(np.full(d, 1e308)) and _all_finite(np.full(d, -1e308))

    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_gives_the_walk(self, d, bad):
        A, R, C = self.mean_nodes(d)
        for i in range(d):
            x = np.ones(d)
            x[i] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                np.testing.assert_array_equal(A(x), walk(A, x))
                for T in (R, C):
                    with pytest.raises(ResolventDiverged, match="not finite"):
                        walk(T, x)
                    with pytest.raises(ResolventDiverged, match="not finite"):
                        T(x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_skips_the_product(self, bad):
        # Inf * 0 in x @ W.T would warn; the walk returns the value silently
        A = Averaged(SwapIsometry(0, 1), 0.5)
        x = np.array([bad, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(A(x), [bad, bad, 0.0])

    @pytest.mark.parametrize("d", [2, 8])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_huge_finite_value_is_kept(self, d, sign):
        # each entry 2^1023 is finite, and the float sum of the value is not
        A, R, C = self.mean_nodes(d)
        x = np.full(d, sign * 2.0**1023)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for T in (A, R, C):
                out = T(x)
                assert math.isinf(sum(out.tolist()))
                assert_rows_close(out, walk(T, x), 1e-13)
            np.testing.assert_array_equal(A(x), walk(A, x))
            np.testing.assert_array_equal(R(x), walk(R, x))


class TestSemigroup:
    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_t(self, t):
        with pytest.raises(ValueError, match="semigroup t must be finite"):
            semigroup_product(Scale(-1.0), t, 4, SP2)

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

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_empty_schedule_rejected(self, t):
        with pytest.raises(ValueError, match="schedule"):
            semigroup_limit_estimate(Scale(-1.0), t, np.ones(2), [], SP2)




class TestScaleFreeVerdicts:
    """Stop, Fejer and telescoping verdicts are relative, with no absolute
    floor: a homogeneous T gives the same verdicts from c x_0 as from x_0."""

    @settings(max_examples=100, deadline=None)
    @given(coords, scales)
    def test_picard_steps_and_limit_scale(self, xs, c):
        T = two_swap_chain(SP3)
        x0 = np.array(xs)
        ref = picard_iterate(T, x0, StopRule(), MonitorConfig(SP3))
        out = picard_iterate(T, c * x0, StopRule(), MonitorConfig(SP3))
        assert len(out.step_norms) == len(ref.step_norms)
        assert np.max(np.abs(out.limit - c * ref.limit)) <= 1e-12 * c * np.max(np.abs(x0))

    def test_fejer_verdict_at_every_scale(self):
        # |1.5^n s| grows 7.6-fold over 5 steps away from the fixed point 0
        for s in (1e-150, 1.0, 1e150):
            traj = picard_iterate(
                Scale(1.5), np.array([s, 0.0]), StopRule(max_iter=5),
                MonitorConfig(SP2, auto_fejer=1),
            )
            assert len(traj.step_norms) == 5
            assert traj.fejer_nonincreasing is False, s
            chain = picard_iterate(
                two_swap_chain(SP3), s * np.array([1.0, 0.0, 0.0, 0.0]), StopRule(),
                MonitorConfig(SP3, auto_fejer=3, seed=2),
            )
            assert chain.fejer_nonincreasing is True, s

    def test_telescoping_verdict_at_every_scale(self):
        # -Id judged against the 1/2-firm constant of its average (Id - Id)/2:
        # its steps never shrink while ||x_n|| stays put
        claim = averaged(Scale(-1.0), 0.5).meta
        for s in (1e-100, 1.0, 1e100):
            traj = picard_iterate(
                Scale(-1.0), np.array([s, 0.0]), StopRule(max_iter=4),
                MonitorConfig(SP2, fejer_points=np.zeros((1, 2))),
            )
            rep = asymptotic_regularity_report(traj, claim, SP2)
            assert rep.bound_checked and rep.bound_ok is False, s
            assert rep.final_below_tol is False

    def test_semigroup_verdicts_at_every_scale(self):
        # the relative diffs (3.5e-3, 2.8e-3, 2.3e-2) are the same at every
        # scale: the last one grows, so the sequence is not Cauchy at any
        ref = semigroup_limit_estimate(Scale(-1.0), 1.0, np.array([1.0, 0.0]), [8, 9, 10, 100], SP3)
        assert ref.cauchy_ok is False
        for s in (1e-150, 1e150):
            est = semigroup_limit_estimate(
                Scale(-1.0), 1.0, np.array([s, 0.0]), [8, 9, 10, 100], SP3
            )
            assert est.cauchy_ok is False, s
            bound = est.axiom_checks["additivity_bound"]
            assert bound == pytest.approx(s * ref.axiom_checks["additivity_bound"], rel=1e-12)
