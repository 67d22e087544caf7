import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from firmlp.projections import (
    ORIGIN,
    AffineEqual,
    Ball,
    Box,
    Halfspace,
    is_member,
    membership_residual,
    project,
    projection_inequality_residual,
    projection_pair_residual,
    sample_points,
    set_from_json,
    set_to_json,
)
from firmlp.space import lp_norm, space_params

PS = [1.5, 2.0, 3.0, 4.0]
SCALE_PS = [1.01, 1.5, 2.0, 3.0, 64.0]

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


def grid_refine_minimum(f, lo, hi, rounds=60, pts=33):
    """Independent 1-d minimiser: iterated grid refinement."""
    for _ in range(rounds):
        grid = np.linspace(lo, hi, pts)
        vals = [f(g) for g in grid]
        i = int(np.argmin(vals))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, pts - 1)]
    return 0.5 * (lo + hi)


@st.composite
def set_documents(draw, dim=6):
    """Documents of the four convex set kinds on dimension ``dim``; box
    bounds are vectors or broadcast scalars, and may be infinite."""
    coord = st.floats(-5.0, 5.0)
    kind = draw(st.sampled_from(["box", "affine_equal", "ball", "halfspace"]))
    if kind == "box":
        bound = st.one_of(coord, st.sampled_from([-np.inf, np.inf]))
        lower, upper = np.array([sorted(draw(st.tuples(bound, bound))) for _ in range(dim)]).T
        if draw(st.booleans()):  # scalar bounds, read as 0-d arrays
            lower, upper = lower[0], upper[0]
        return {"kind": "box", "lower": lower.tolist(), "upper": upper.tolist()}
    if kind == "affine_equal":
        # label -1: free, 0: pinned, 1 and 2: groups (a group of one is free)
        labels = draw(st.lists(st.integers(-1, 2), min_size=dim, max_size=dim))
        groups = [[i for i, g in enumerate(labels) if g == label] for label in (1, 2)]
        doc = {"kind": "affine_equal", "groups": [g for g in groups if len(g) > 1]}
        pinned = [i for i, g in enumerate(labels) if g == 0]
        doc["fixed"] = [[i, draw(coord)] for i in pinned]
        return doc
    vector = draw(st.lists(coord, min_size=dim, max_size=dim))
    if kind == "ball":
        return {"kind": "ball", "center": vector, "radius": draw(st.floats(0.1, 5.0))}
    vector[draw(st.integers(0, dim - 1))] = 1.0  # a nonzero normal
    return {"kind": "halfspace", "normal": vector, "offset": draw(coord)}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(set_documents())
@example({"kind": "box", "lower": 0.0, "upper": float("inf")})  # 0-d bounds
@example({"kind": "affine_equal", "groups": [[4, 0], [2, 3]], "fixed": [[1, -0.0]]})
def test_set_json_round_trip_property(first):
    C = set_from_json(first)
    doc = set_to_json(C)
    C2 = set_from_json(doc)
    assert set_to_json(C2) == doc
    x = np.random.default_rng(0).uniform(-8.0, 8.0, size=(6, 6))
    sp = space_params(3.0)
    assert np.array_equal(project(C2, x, sp), project(C, x, sp))


def all_set_kinds(dim=4):
    return [
        Box(lower=np.full(dim, -1.0), upper=np.full(dim, 1.0)),
        AffineEqual(groups=((0, 1),), fixed=((2, 0.5),)),
        Ball(center=np.zeros(dim), radius=2.0),
        Halfspace(normal=np.arange(1.0, dim + 1.0), offset=3.0),
    ]


class TestProject:
    def test_box_clamp_any_p(self):
        C = Box(lower=np.array([0.0, 0.0]), upper=np.array([1.0, 1.0]))
        for p in PS:
            out = project(C, np.array([2.0, -3.0]), space_params(p))
            assert np.allclose(out, [1.0, 0.0], atol=0)

    def test_affine_equal_symmetry(self):
        # minimizing |1-a|^3 + |a|^3 forces a = 1/2
        C = AffineEqual(groups=((0, 1),))
        out = project(C, np.array([1.0, 0.0]), space_params(3.0))
        assert np.allclose(out, [0.5, 0.5], atol=1e-12)

    def test_affine_equal_matches_grid_oracle(self):
        rng = np.random.default_rng(3)
        C = AffineEqual(groups=((0, 1, 2),))
        for p in [1.5, 3.0, 4.0]:
            x = rng.uniform(-5, 5, size=4)
            out = project(C, x, space_params(p))
            a_star = grid_refine_minimum(
                lambda a: sum(abs(x[i] - a) ** p for i in range(3)), x[:3].min(), x[:3].max()
            )
            # a value-based search only localises the flat minimum to ~sqrt(eps)
            assert out[0] == pytest.approx(a_star, abs=5e-8)
            assert out[3] == x[3]

    def test_point_in_set_is_fixed(self):
        sp = space_params(3.0)
        for C in all_set_kinds():
            rng = np.random.default_rng(11)
            pts = sample_points(C, rng, 50, 4, p=3.0)
            assert np.allclose(project(C, pts, sp), pts, atol=1e-10)

    def test_ball_projection_first_order(self):
        # optimality: the coordinate gaps shrink by a common factor
        sp = space_params(3.0)
        C = Ball(center=np.array([1.0, -1.0, 0.0]), radius=0.5)
        x = np.array([4.0, 2.0, 1.0])
        y = project(C, x, sp)
        assert membership_residual(C, y, 3.0) <= 1e-10
        ratios = (x - y) / (y - C.center)
        assert np.allclose(ratios, ratios[0], rtol=1e-10)

    def test_halfspace_projection_against_grid_oracle(self):
        sp = space_params(3.0)
        C = Halfspace(normal=np.array([2.0, -1.0]), offset=1.0)
        x = np.array([3.0, 1.0])
        y = project(C, x, sp)
        assert x @ C.normal - C.offset > 1.0  # x infeasible
        assert membership_residual(C, y, 3.0) <= 1e-12
        # on the boundary, parametrize y = (s, 2s - 1) and minimise the gap
        s_star = grid_refine_minimum(
            lambda s: abs(x[0] - s) ** 3 + abs(x[1] - (2 * s - 1)) ** 3, -10, 10
        )
        assert y[0] == pytest.approx(s_star, abs=5e-8)
        assert y[1] == pytest.approx(2 * s_star - 1.0, abs=1e-7)

    @pytest.mark.parametrize("p", PS)
    def test_idempotent(self, p):
        sp = space_params(p)
        rng = np.random.default_rng(5)
        for C in all_set_kinds():
            x = rng.uniform(-10, 10, size=(200, 4))
            px = project(C, x, sp)
            ppx = project(C, px, sp)
            assert np.all(lp_norm(ppx - px, p) <= 1e-10)

    def test_p2_box_affine_nonexpansive(self):
        # Hilbert case only; not asserted for p != 2
        sp = space_params(2.0)
        rng = np.random.default_rng(9)
        for C in all_set_kinds()[:2]:
            x = rng.uniform(-10, 10, size=(500, 4))
            y = rng.uniform(-10, 10, size=(500, 4))
            lhs = lp_norm(project(C, x, sp) - project(C, y, sp), 2.0)
            assert np.all(lhs <= lp_norm(x - y, 2.0) + 1e-12)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            project(Box(0.0, 1.0), np.array([np.nan]), space_params(2.0))


class TestScaleFree:
    """P_{cC}(c x) = c P_C(x) for c > 0: every projection is exact at any
    scale, relative to the scale of its input."""

    @staticmethod
    def assert_scaled(C, cC, xs, c, p):
        x = np.array(xs)
        sp = space_params(p)
        ref = project(C, x, sp)
        out = project(cC, c * x, sp)
        scale = c * max(np.max(np.abs(x)), np.max(np.abs(ref)), 1e-3)
        assert np.max(np.abs(out - c * ref)) <= 1e-12 * scale

    @settings(max_examples=150, deadline=None)
    @given(coords, scales, st.sampled_from(SCALE_PS))
    def test_box(self, xs, c, p):
        lo, up = np.array([-1.0, 0.5, -3.0, 0.0]), np.array([1.0, 2.0, -1.0, 0.0])
        self.assert_scaled(Box(lo, up), Box(c * lo, c * up), xs, c, p)

    @settings(max_examples=150, deadline=None)
    @given(coords, scales, st.sampled_from(SCALE_PS))
    def test_affine_equal(self, xs, c, p):
        C = AffineEqual(groups=((0, 1, 2),), fixed=((3, 0.5),))
        cC = AffineEqual(groups=((0, 1, 2),), fixed=((3, c * 0.5),))
        self.assert_scaled(C, cC, xs, c, p)

    @settings(max_examples=150, deadline=None)
    @given(coords, scales, st.sampled_from(SCALE_PS))
    def test_ball(self, xs, c, p):
        center = np.array([1.0, -1.0, 0.0, 2.0])
        self.assert_scaled(Ball(center, 1.5), Ball(c * center, c * 1.5), xs, c, p)

    @settings(max_examples=150, deadline=None)
    @given(coords, scales, st.sampled_from(SCALE_PS))
    def test_halfspace(self, xs, c, p):
        normal = np.array([1.0, -2.0, 0.5, 3.0])
        self.assert_scaled(Halfspace(normal, 1.0), Halfspace(normal, c * 1.0), xs, c, p)

    @settings(max_examples=150, deadline=None)
    @given(coords, scales, st.sampled_from(SCALE_PS))
    def test_halfspace_scaled_normal(self, xs, k, p):
        # (k a, k offset) describes the same set for every k > 0
        normal = np.array([1.0, -2.0, 0.5, 3.0])
        x, sp = np.array(xs), space_params(p)
        ref = project(Halfspace(normal, 1.0), x, sp)
        out = project(Halfspace(k * normal, k * 1.0), x, sp)
        assert np.max(np.abs(out - ref)) <= 1e-12 * max(np.max(np.abs(x)), np.max(np.abs(ref)), 1.0)

    @pytest.mark.parametrize("p", [1.01, 1.5, 3.0, 64.0])
    @pytest.mark.parametrize("s", [1e-150, 1.0, 1e150])
    def test_equal_coordinates_at_extreme_scales(self, p, s):
        # sum |a - s|^p + |a - 3s|^p is symmetric about 2s
        out = project(AffineEqual(((0, 1),)), s * np.array([1.0, 3.0, 5.0]), space_params(p))
        assert out == pytest.approx(s * np.array([2.0, 2.0, 5.0]), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_equal_group_returns_its_value(self, p):
        x = np.array([[0.7, 0.7, 0.7, -1.0], [1e-200, 1e-200, 1e-200, 2.0]])
        out = project(AffineEqual(((0, 1, 2),)), x, space_params(p))
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("k", [1e-150, 1e-4, 1.0, 1e3, 1e150])
    def test_halfspace_near_one(self, k):
        # q = 101: |a|^q of the raw normal overflows at k = 1e3 and vanishes at 1e-4
        C = Halfspace(k * np.array([1.0, 2.0]), 0.0)
        out = project(C, np.array([1.0, 0.0]), space_params(1.01))
        assert out == pytest.approx([1.0, -0.5], rel=1e-12)


class TestSetValidation:
    def test_box_bounds(self):
        for lower, upper in ((1.0, 0.0), (np.nan, 1.0), (0.0, np.nan), ([np.nan, -1.0], [1.0, 1.0])):
            with pytest.raises(ValueError):
                Box(lower=lower, upper=upper)

    def test_ball_radius(self):
        with pytest.raises(ValueError):
            Ball(center=np.zeros(2), radius=0.0)

    def test_halfspace_normal(self):
        with pytest.raises(ValueError):
            Halfspace(normal=np.zeros(3), offset=1.0)

    def test_ball_and_halfspace_are_finite(self):
        for center, radius in (([np.nan, 0.0], 1.0), ([np.inf, 0.0], 1.0), ([0.0, 0.0], np.inf)):
            with pytest.raises(ValueError, match="finite"):
                Ball(center=center, radius=radius)
        for normal, offset in (([np.nan, 1.0], 0.0), ([np.inf, 1.0], 0.0), ([1.0, 0.0], np.inf)):
            with pytest.raises(ValueError, match="finite"):
                Halfspace(normal=normal, offset=offset)

    def test_affine_groups_disjoint(self):
        with pytest.raises(ValueError):
            AffineEqual(groups=((0, 1), (1, 2)))

    def test_json_round_trip(self):
        for C in all_set_kinds():
            doc = set_to_json(C)
            C2 = set_from_json(doc)
            rng = np.random.default_rng(0)
            x = rng.uniform(-5, 5, size=(20, 4))
            sp = space_params(3.0)
            assert np.allclose(project(C, x, sp), project(C2, x, sp))


class TestProjectionInequalities:
    def test_trivial_x_in_set(self):
        sp = space_params(3.0)
        C = Box(lower=np.zeros(2), upper=np.ones(2))
        x = np.array([0.5, 0.5])
        assert projection_inequality_residual(C, x, x, sp) == pytest.approx(0.0, abs=1e-14)

    def test_interval_arithmetic_example(self):
        # 1-d box [0,1], x = 2, y = 0, p = 2: 4 - 1 - 1 = 2
        sp = space_params(2.0)
        C = Box(lower=np.array([0.0]), upper=np.array([1.0]))
        res = projection_inequality_residual(C, np.array([2.0]), np.array([0.0]), sp)
        assert res == pytest.approx(2.0, abs=1e-14)

    def test_rejects_infeasible_y(self):
        sp = space_params(2.0)
        C = Box(lower=np.array([0.0]), upper=np.array([1.0]))
        with pytest.raises(ValueError):
            projection_inequality_residual(C, np.array([2.0]), np.array([5.0]), sp)

    def test_pair_residual_both_in_set(self):
        # both fixed: slack is (2/c_r - 1)||x - y||^r >= 0
        sp = space_params(3.0)
        C = Box(lower=np.full(3, -4.0), upper=np.full(3, 4.0))
        x = np.array([1.0, 2.0, -1.0])
        y = np.array([0.0, -1.0, 3.0])
        expect = (2.0 / sp.c_r - 1.0) * lp_norm(x - y, 3.0) ** 3
        assert projection_pair_residual(C, x, y, sp) == pytest.approx(expect, rel=1e-12)

    def test_pair_residual_x_equals_y(self):
        sp = space_params(4.0)
        C = Ball(center=np.zeros(2), radius=1.0)
        x = np.array([3.0, -2.0])
        assert projection_pair_residual(C, x, x, sp) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", PS)
    def test_sampled_nonnegativity(self, p):
        sp = space_params(p)
        rng = np.random.default_rng(17)
        for C in all_set_kinds():
            x = rng.uniform(-10, 10, size=(500, 4))
            y = sample_points(C, rng, 500, 4, p=p)
            res8 = projection_inequality_residual(C, x, y, sp)
            scale = np.maximum(lp_norm(x - y, p) ** sp.r, 1.0)
            assert np.all(res8 >= -1e-9 * scale)
            z = rng.uniform(-10, 10, size=(500, 4))
            res9 = projection_pair_residual(C, x, z, sp)
            pscale = np.maximum(
                np.maximum(lp_norm(x - project(C, z, sp), p), lp_norm(z - project(C, x, sp), p))
                ** sp.r,
                1.0,
            )
            assert np.all(res9 >= -1e-9 * pscale)


class TestSampling:
    @given(st.integers(min_value=1, max_value=200))
    def test_members_are_exact(self, n):
        rng = np.random.default_rng(n)
        for C in all_set_kinds():
            pts = sample_points(C, rng, n, 4, p=3.0)
            assert pts.shape == (n, 4)
            assert np.all(membership_residual(C, pts, 3.0) <= 1e-12)

    def test_is_member(self):
        C = AffineEqual(groups=((0, 1),))
        assert is_member(C, np.array([2.0, 2.0, 5.0]), 3.0)
        assert not is_member(C, np.array([2.0, 1.0, 5.0]), 3.0)


class TestScaleFreeMembership:
    """``is_member`` is relative to the size of the point, with no absolute
    floor: (x, C) and (c x, c C) get the same verdict at every c > 0."""

    @staticmethod
    def assert_same_verdicts(C, cC, xs, c, p):
        x = np.array(xs)
        for y in (x, project(C, x, space_params(p))):
            assert is_member(cC, c * y, p) == is_member(C, y, p)
        assert is_member(cC, c * y, p)  # a projection is a member

    @settings(max_examples=100, deadline=None)
    @given(coords, scales, st.sampled_from(SCALE_PS))
    def test_box(self, xs, c, p):
        lo, up = np.array([-1.0, 0.5, -3.0, 0.0]), np.array([1.0, 2.0, -1.0, 0.0])
        self.assert_same_verdicts(Box(lo, up), Box(c * lo, c * up), xs, c, p)

    @settings(max_examples=100, deadline=None)
    @given(coords, scales, st.sampled_from(SCALE_PS))
    def test_affine_equal(self, xs, c, p):
        C = AffineEqual(groups=((0, 1, 2),), fixed=((3, 0.5),))
        cC = AffineEqual(groups=((0, 1, 2),), fixed=((3, c * 0.5),))
        self.assert_same_verdicts(C, cC, xs, c, p)

    @settings(max_examples=100, deadline=None)
    @given(coords, scales, st.sampled_from(SCALE_PS))
    def test_ball(self, xs, c, p):
        center = np.array([1.0, -1.0, 0.0, 2.0])
        self.assert_same_verdicts(Ball(center, 1.5), Ball(c * center, c * 1.5), xs, c, p)

    @settings(max_examples=100, deadline=None)
    @given(coords, scales, st.sampled_from(SCALE_PS))
    def test_halfspace(self, xs, c, p):
        normal = np.array([1.0, -2.0, 0.5, 3.0])
        self.assert_same_verdicts(Halfspace(normal, 1.0), Halfspace(normal, c * 1.0), xs, c, p)

    @settings(max_examples=100, deadline=None)
    @given(coords, scales)
    def test_halfspace_scaled_normal(self, xs, k):
        normal, x = np.array([1.0, -2.0, 0.5, 3.0]), np.array(xs)
        assert is_member(Halfspace(k * normal, k * 1.0), x, 3.0) == is_member(
            Halfspace(normal, 1.0), x, 3.0
        )

    def test_origin_and_sphere_through_origin(self):
        assert not is_member(ORIGIN, np.array([1e-20, 0.0]), 2.0)
        assert is_member(ORIGIN, np.zeros(2), 2.0)
        # a point 1e-9 from 0 along the tangent of a circle through 0: its
        # residual is a rounding of the radius, far above 1e-10 * max|x|
        center = np.array([0.872, 0.13])
        C, x = Ball(center, lp_norm(center, 2.0)), 1e-9 * np.array([-0.13, 0.872])
        assert membership_residual(C, x, 2.0) > 1e-10 * np.max(np.abs(x))
        assert is_member(C, x, 2.0)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_equal_coordinates_at_the_float64_edge(self, p):
        # max - min overflows here; the halves do not
        sp = space_params(p)
        out = project(AffineEqual(((0, 1),)), np.array([-1e308, 1e308, 1.0]), sp)
        assert np.array_equal(out, [0.0, 0.0, 1.0])
        out = project(AffineEqual(((0, 1, 2),)), np.array([-1.7e308, 1.7e308, 1.7e308]), sp)
        assert np.all(np.isfinite(out)) and np.all(np.abs(out) <= 1.7e308)


class TestStrictJsonValues:
    @pytest.mark.parametrize("doc, key", [
        ({"kind": "affine_equal", "groups": [[0, 1.7]]}, "groups"),
        ({"kind": "affine_equal", "groups": [[0, True]]}, "groups"),
        ({"kind": "affine_equal", "fixed": [[0.5, 1.0]]}, "fixed"),
        ({"kind": "affine_equal", "fixed": [[0, "1"]]}, "fixed"),
        ({"kind": "ball", "center": [0.0, "0"], "radius": 1.0}, "center"),
        ({"kind": "ball", "center": [0.0, 0.0], "radius": True}, "radius"),
        ({"kind": "box", "lower": False, "upper": 1.0}, "lower"),
        ({"kind": "halfspace", "normal": [1.0, 0.0], "offset": "0"}, "offset"),
    ])
    def test_rejected_naming_key(self, doc, key):
        with pytest.raises(ValueError, match=f"'{key}'"):
            set_from_json(doc)

    @pytest.mark.parametrize("doc, message", [
        pytest.param({"kind": "ball", "center": [float("nan"), 0.0], "radius": 1.0},
                     "finite center", id="non_finite_center"),
        pytest.param({"kind": "box"}, "'lower'", id="box_missing_lower"),
        pytest.param({"kind": "box", "lower": [float("nan"), -1.0], "upper": [1.0, 1.0]},
                     "lower <= upper", id="box_nan_lower"),
        pytest.param(5, "convex set kind", id="not_an_object"),
        pytest.param({"kind": "affine_equal", "groups": [[0, 1]], "pins": []}, "'pins'",
                     id="undeclared_key"),
        pytest.param({"kind": "affine_equal", "groups": [[0, None]]}, "'groups'",
                     id="null_group_index"),
        pytest.param({"kind": "affine_equal", "fixed": [[0, None]]}, "'fixed'",
                     id="null_pin_value"),
        pytest.param({"kind": "affine_equal", "fixed": [[None, 1.0]]}, "'fixed'",
                     id="null_pin_index"),
    ])
    def test_rejected_with_message(self, doc, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            set_from_json(doc)

    def test_readers(self):
        from firmlp.projections import json_float, json_int

        assert json_int(1e5) == 100000 and type(json_int(1e5)) is int
        assert json_int(-3) == -3
        assert json_float(2) == 2.0 and type(json_float(2)) is float
        for bad in (True, "3", 2.9, float("inf"), float("nan"), None, [1]):
            with pytest.raises((TypeError, ValueError)):
                json_int(bad)
        for bad in (True, False, "0.5", None, [0.5]):
            with pytest.raises(TypeError):
                json_float(bad)
