import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firmlp.space import (
    SpaceParams,
    ball_inequality_residual,
    convexity_residual,
    lp_norm,
    space_params,
)

PS = [1.5, 2.0, 3.0, 4.0]


coords = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=1, max_size=8
)


class TestLpNorm:
    def test_pythagorean(self):
        assert lp_norm([3.0, 4.0], 2.0) == pytest.approx(5.0, abs=1e-15)

    def test_zero_vector(self):
        assert lp_norm([0.0, 0.0, 0.0], 3.0) == 0.0

    def test_ones(self):
        assert lp_norm([1.0, 1.0, 1.0], 3.0) == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-15)

    def test_rejects_bad_p(self):
        for p in (1.0, 0.5, -2.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                lp_norm([1.0], p)

    def test_rejects_nan_input(self):
        with pytest.raises(ValueError):
            lp_norm([1.0, math.nan], 2.0)

    @pytest.mark.parametrize("x, p, expected", [
        ([1e-200, 0.0], 4.0, 1e-200),  # the power sum underflows to 0
        ([1e200, 1.0], 4.0, 1e200),  # the power sum overflows
        ([10.0, 0.0], 400.0, 10.0),  # a moderate entry overflows at large p
        ([1e79, 0.0], 1.5, 1e79),  # the root's rounded 1/p costs 1e-14 at this scale
    ])
    def test_edge_values(self, x, p, expected):
        assert lp_norm(x, p) == expected
        batch = np.array([[3.0, 4.0], x, [0.0, 0.0], x])
        out = lp_norm(batch, p)
        assert out.tolist() == [lp_norm([3.0, 4.0], p), expected, 0.0, expected]

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 64.0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_row_in_batch(self, p, bad):
        batch = np.array([[1.0, 2.0], [bad, 0.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="NaN or Inf"):
            lp_norm(batch, p)
        with pytest.raises(ValueError, match="NaN or Inf"):
            lp_norm(batch[1], p)
        with pytest.raises(ValueError, match="NaN or Inf"):
            lp_norm([[1e200, 1e200], [bad, -bad]], p)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-3, max_value=10.0),
                st.floats(min_value=-10.0, max_value=-1e-3),
            ),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=1.0, max_value=10.0),
        st.integers(min_value=-150, max_value=149),
        st.sampled_from([1.01, 1.5, 2.0, 3.0, 64.0]),
    )
    def test_exact_across_scales(self, xs, mantissa, exponent, p):
        x = np.array(xs)
        c = mantissa * 10.0**exponent
        y = c * x
        m = np.max(np.abs(y))
        reference = m * np.sum((np.abs(y) / m) ** p) ** (1.0 / p) if m > 0 else 0.0
        single = lp_norm(y, p)
        batched = lp_norm(np.stack([x, y, -y]), p)
        for value in (single, batched[1], batched[2]):
            assert (value == 0.0) == (not np.any(y))
            assert value == pytest.approx(reference, rel=1e-14, abs=0.0)
            assert value == pytest.approx(c * batched[0], rel=1e-14, abs=0.0)

    @given(coords, st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_absolute_homogeneity(self, xs, lam):
        x = np.array(xs)
        for p in PS:
            lhs = lp_norm(lam * x, p)
            rhs = abs(lam) * lp_norm(x, p)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(coords, coords)
    def test_triangle_inequality(self, xs, ys):
        n = min(len(xs), len(ys))
        x, y = np.array(xs[:n]), np.array(ys[:n])
        for p in PS:
            assert lp_norm(x + y, p) <= lp_norm(x, p) + lp_norm(y, p) + 1e-12


class TestSpaceParams:
    def test_hilbert_case(self):
        assert space_params(2.0) == SpaceParams(2.0, 2.0, 2.0, 1.0)

    def test_p3(self):
        sp = space_params(3.0)
        assert (sp.r, sp.c_r, sp.K) == (3.0, 0.5, 1.0)

    def test_p15(self):
        sp = space_params(1.5)
        assert sp.r == 2.0
        assert sp.c_r == pytest.approx(1.0, abs=1e-15)
        assert sp.K == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_rejects_out_of_range(self):
        for p in (1.0, 0.3, math.inf):
            with pytest.raises(ValueError):
                space_params(p)

    def test_c_r_within_two(self):
        for p in [1.1, 1.5, 1.9, 2.0, 2.5, 3.0, 6.0, 10.0]:
            sp = space_params(p)
            assert 0.0 < sp.c_r <= 2.0


class TestConvexityResidual:
    def test_equal_points_vanish(self):
        x = np.array([1.2, -3.0, 0.5])
        for p in PS:
            sp = space_params(p)
            for w in (0.0, 0.3, 1.0):
                assert convexity_residual(x, x, w, sp) == pytest.approx(0.0, abs=1e-12)

    def test_parallelogram_equality(self):
        sp = space_params(2.0)
        assert convexity_residual([1.0, 0.0], [0.0, 1.0], 0.5, sp) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_p3_example_value(self):
        # direct evaluation: 0.7 + 0.3 - 0.25*0.3*0.7*2 - (0.343 + 0.027)
        sp = space_params(3.0)
        res = convexity_residual([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.3, sp)
        assert res == pytest.approx(0.525, abs=1e-12)
        assert res >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            convexity_residual([1.0, 0.0], [1.0, 0.0, 0.0], 0.5, space_params(2.0))

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError):
            convexity_residual([1.0], [0.0], 1.5, space_params(2.0))

    @pytest.mark.parametrize("p", PS)
    def test_sampled_nonnegativity(self, p):
        sp = space_params(p)
        rng = np.random.default_rng(42)
        for dim in (1, 2, 4, 8, 16):
            x = rng.uniform(-10, 10, size=(2000, dim))
            y = rng.uniform(-10, 10, size=(2000, dim))
            w = rng.uniform(0, 1, size=2000)
            res = convexity_residual(x, y, w, sp)
            scale = np.maximum(
                np.maximum(lp_norm(x, p) ** sp.r, lp_norm(y, p) ** sp.r), 1.0
            )
            assert np.all(res >= -1e-9 * scale)
            if p == 2.0:
                assert np.all(np.abs(res) <= 1e-10 * scale)


class TestBallInequalityResidual:
    def test_equal_points_vanish(self):
        x = np.array([2.0, -1.0])
        for p in PS:
            assert ball_inequality_residual(x, x, space_params(p)) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_hilbert_equality(self):
        res = ball_inequality_residual([1.0, 0.0], [0.0, 1.0], space_params(2.0))
        assert res == pytest.approx(0.0, abs=1e-15)

    def test_p4_example(self):
        res = ball_inequality_residual([2.0, 0.0, 0.0], [0.0, 2.0, 0.0], space_params(4.0))
        assert res == pytest.approx(12.0, abs=1e-12)

    @pytest.mark.parametrize("p", PS)
    def test_sampled_nonnegativity(self, p):
        sp = space_params(p)
        rng = np.random.default_rng(7)
        x = rng.uniform(-10, 10, size=(5000, 6))
        y = rng.uniform(-10, 10, size=(5000, 6))
        res = ball_inequality_residual(x, y, sp)
        scale = np.maximum(np.maximum(lp_norm(x, p) ** sp.r, lp_norm(y, p) ** sp.r), 1.0)
        assert np.all(res >= -1e-9 * scale)
