import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from firmlp.certify import Sampler, certify_alpha_firm
from firmlp.operators import (
    Activation,
    Affine,
    Averaged,
    Compose,
    ContractiveProjection,
    ConvexCombo,
    DimensionMismatch,
    EMPTY_INTERSECTION,
    OperatorMeta,
    Resolvent,
    Scale,
    SwapIsometry,
    Truncate,
    apply,
    averaged,
    compose,
    convex_combination,
    guaranteed_nonexpansive_affine,
    identity,
    interpolation_norm_bound,
    merge_fixed_point_sets,
    neural_network,
    operator_from_json,
    operator_to_json,
    stable_activation,
    truncation_operator,
)
from firmlp.projections import AffineEqual, Ball, Box, Halfspace
from firmlp.space import lp_norm, space_params

SP2 = space_params(2.0)
SP3 = space_params(3.0)


def assert_same_meta(a, b):
    assert (a.proven_nonexpansive, a.alpha_firm, a.averaged) == (
        b.proven_nonexpansive, b.alpha_firm, b.averaged
    )
    if isinstance(a.fixed_points, Box):
        assert isinstance(b.fixed_points, Box)
        assert np.array_equal(a.fixed_points.lower, b.fixed_points.lower)
        assert np.array_equal(a.fixed_points.upper, b.fixed_points.upper)
    else:
        assert a.fixed_points == b.fixed_points


class TestApply:
    def test_truncate(self):
        assert np.allclose(apply(Truncate(1), [3.0, 4.0, 5.0]), [3.0, 0.0, 0.0])

    def test_swap(self):
        assert np.allclose(apply(SwapIsometry(0, 1), [1.0, 0.0, 0.0, 0.0]), [0, 1, 0, 0])

    def test_averaged_scale(self):
        T = averaged(Scale(-1.0), 0.5)
        assert np.allclose(T([2.0, 2.0]), [0.0, 0.0])

    def test_compose_is_right_to_left(self):
        A, B = Truncate(1), SwapIsometry(0, 1)
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(apply(Compose((A, B)), x), apply(A, apply(B, x)))

    def test_batched(self):
        T = SwapIsometry(0, 1)
        X = np.arange(12.0).reshape(4, 3)
        out = T(X)
        assert out.shape == (4, 3)
        assert np.allclose(out[:, 0], X[:, 1])

    def test_dimension_errors(self):
        with pytest.raises(DimensionMismatch):
            SwapIsometry(0, 3)([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            Truncate(2)([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            Affine(np.eye(3), np.zeros(3), p=2.0)([1.0, 2.0])

    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
    def test_swap_preserves_norm(self, xs):
        x = np.array(xs)
        U = SwapIsometry(1, 3)
        for p in (1.5, 2.0, 3.0):
            assert lp_norm(U(x), p) == pytest.approx(lp_norm(x, p), rel=1e-15, abs=1e-15)

    @given(
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.floats(0.1, 0.9),
        st.floats(0.1, 0.9),
    )
    def test_convex_combo_linearity(self, xs, w, a):
        x = np.array(xs)
        ops = [averaged(SwapIsometry(0, 1), a), Truncate(1), Scale(0.5)]
        weights = [w / 2, w / 2, 1.0 - w]
        T = ConvexCombo(tuple(ops), tuple(weights))
        direct = sum(wi * op(x) for wi, op in zip(weights, ops))
        assert np.allclose(T(x), direct, atol=1e-12)


class TestAveraged:
    def test_attaches_constant_for_nonexpansive_inner(self):
        T = averaged(SwapIsometry(0, 1), 0.5)
        assert T.meta.alpha_firm == 0.5
        assert T.meta.averaged == 0.5
        assert T.meta.proven_nonexpansive

    def test_identity_inner(self):
        T = averaged(identity(), 0.3)
        x = np.array([1.0, -2.0])
        assert np.allclose(T(x), x)
        assert T.meta.alpha_firm == 0.3

    def test_expansive_inner_gets_nothing(self):
        T = averaged(Scale(2.0), 0.5)
        assert T.meta.alpha_firm is None
        assert T.meta.averaged is None
        assert not T.meta.proven_nonexpansive

    def test_alpha_range(self):
        for a in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                averaged(identity(), a)

    def test_fixed_points_inherited(self):
        T = averaged(SwapIsometry(0, 1), 0.25)
        assert isinstance(T.meta.fixed_points, AffineEqual)


class TestCompose:
    def test_two_half_firm_ops_r2(self):
        ops = [averaged(SwapIsometry(0, 1), 0.5), averaged(SwapIsometry(1, 2), 0.5)]
        T = compose(ops, SP2)
        assert T.meta.alpha_firm == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert T.meta.averaged == pytest.approx(0.75, rel=1e-15)
        assert T.meta.fixed_points == AffineEqual(groups=((0, 1, 2),))

    def test_single_operand_unchanged(self):
        T = compose([averaged(SwapIsometry(0, 1), 0.4)], SP3)
        assert T.meta.alpha_firm == pytest.approx(0.4, rel=1e-15)

    def test_three_ops_r3(self):
        ops = [averaged(SwapIsometry(0, 1), 0.5) for _ in range(3)]
        T = compose(ops, SP3)
        # firm route with n = 3, r = 3: (1 + 0.5/(9*0.5))^-1 = 0.9, but the
        # averaged route 1 - 0.5^3 = 0.875 is weaker, so 0.875 wins
        assert T.meta.averaged == pytest.approx(0.875, rel=1e-15)
        assert T.meta.alpha_firm == pytest.approx(0.875, rel=1e-15)

    def test_firm_route_without_averaged_route(self):
        sp = SP3
        ops = [truncation_operator(1, sp, 4), truncation_operator(2, sp, 4), truncation_operator(1, sp, 4)]
        T = compose(ops, sp)
        amax = 0.2
        expect = 1.0 / (1.0 + (1.0 - amax) / (9.0 * amax))
        assert T.meta.alpha_firm == pytest.approx(expect, rel=1e-15)
        assert T.meta.averaged is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compose([], SP2)

    @pytest.mark.parametrize("sp", [SP2, SP3])
    def test_class_matches_factory(self, sp):
        ops = [averaged(SwapIsometry(0, 1), 0.5), averaged(SwapIsometry(1, 2), 0.5)]
        assert_same_meta(Compose(tuple(ops), sp).meta, compose(ops, sp).meta)
        ops = [truncation_operator(1, sp, 4), averaged(SwapIsometry(0, 1), 0.5)]
        assert_same_meta(Compose(tuple(ops), sp).meta, compose(ops, sp).meta)

    def test_associativity(self):
        rng = np.random.default_rng(0)
        A = averaged(SwapIsometry(0, 1), 0.5)
        B = Truncate(2)
        C = Scale(0.7)
        x = rng.uniform(-5, 5, size=(50, 3))
        left = compose([compose([A, B], SP2), C], SP2)
        right = compose([A, compose([B, C], SP2)], SP2)
        assert np.allclose(left(x), right(x), atol=0)

    def test_heterogeneous_composition_constant_certifies(self):
        from firmlp.certify import Sampler, certify_alpha_firm

        T = compose([averaged(SwapIsometry(0, 1), 0.5), truncation_operator(2, SP3, 5)], SP3)
        # alphas (0.5, 0.2), n = 2, r = 3: (1 + 0.5/(4*0.5))^-1 = 0.8
        assert T.meta.alpha_firm == pytest.approx(0.8, rel=1e-15)
        assert T.meta.averaged is None
        rep = certify_alpha_firm(
            T, T.meta.alpha_firm, SP3, (Sampler(seed=21, dim=5), Sampler(seed=22, dim=5)), n=10_000
        )
        assert rep.passed


class TestConvexCombination:
    def test_two_route_constants(self):
        ops = [averaged(SwapIsometry(0, 1), 0.3), averaged(SwapIsometry(1, 2), 0.6)]
        T = convex_combination(ops, [0.5, 0.5], SP2)
        # firm route max = 0.6; averaged route 0.45 is smaller and wins
        assert T.meta.averaged == pytest.approx(0.45, rel=1e-15)
        assert T.meta.alpha_firm == pytest.approx(0.45, rel=1e-15)

    def test_single_unchanged(self):
        T = convex_combination([averaged(SwapIsometry(0, 1), 0.3)], [1.0], SP2)
        assert T.meta.alpha_firm == pytest.approx(0.3, rel=1e-15)

    def test_equal_alphas(self):
        sp = SP3
        ops = [truncation_operator(k, sp, 5) for k in (1, 2, 3)]
        T = convex_combination(ops, [0.2, 0.3, 0.5], sp)
        assert T.meta.alpha_firm == pytest.approx(0.2, rel=1e-15)

    def test_class_matches_factory(self):
        ops = [averaged(SwapIsometry(0, 1), 0.3), truncation_operator(2, SP3, 4)]
        T = ConvexCombo(tuple(ops), (0.25, 0.75))
        assert T.meta.alpha_firm == pytest.approx(0.3, rel=1e-15)
        assert_same_meta(T.meta, convex_combination(ops, [0.25, 0.75], SP3).meta)

    def test_weight_validation(self):
        ops = [Scale(0.5), Scale(0.25)]
        with pytest.raises(ValueError):
            convex_combination(ops, [0.6, 0.6], SP2)
        with pytest.raises(ValueError):
            convex_combination(ops, [1.2, -0.2], SP2)


class TestTruncation:
    def test_alpha_p3(self):
        T = truncation_operator(1, SP3, 4)
        assert T.meta.alpha_firm == pytest.approx(0.2, rel=1e-15)

    def test_alpha_p4(self):
        T = truncation_operator(1, space_params(4.0), 4)
        assert T.meta.alpha_firm == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_fixes_supported_vectors(self):
        T = truncation_operator(2, SP3, 5)
        x = np.array([1.0, -2.0, 0.0, 0.0, 0.0])
        assert np.allclose(T(x), x)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_class_matches_factory(self, p):
        sp = space_params(p)
        assert_same_meta(Truncate(2, sp, 5).meta, truncation_operator(2, sp, 5).meta)

    def test_range_check(self):
        with pytest.raises(ValueError):
            truncation_operator(4, SP3, 4)
        with pytest.raises(ValueError):
            truncation_operator(0, SP3, 4)


class TestActivations:
    def test_relu(self):
        s = stable_activation("relu")
        assert np.allclose(s([-2.0, 3.0]), [0.0, 3.0])
        assert s.meta.alpha_firm == 0.5

    def test_tanh_fixes_zero(self):
        assert stable_activation("tanh")([0.0])[0] == 0.0

    def test_identity(self):
        x = np.array([1.0, -1.0])
        assert np.allclose(stable_activation("identity")(x), x)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            stable_activation("softmax")

    def test_stability_conditions_sampled(self):
        # increasing, 1-Lipschitz, fixing 0, coordinatewise
        grid = np.linspace(-4, 4, 201)
        for name in ("relu", "tanh", "identity"):
            s = stable_activation(name)
            vals = s(grid[:, None])[:, 0]
            diffs = np.diff(vals)
            assert np.all(diffs >= 0.0)
            assert np.all(diffs <= np.diff(grid) + 1e-12)
            assert s(np.zeros(1))[0] == 0.0


class TestGuaranteedAffine:
    def test_identity_untouched(self):
        T = guaranteed_nonexpansive_affine(np.eye(3), np.zeros(3), 2.0)
        assert np.allclose(T.W, np.eye(3))
        assert T.meta.proven_nonexpansive

    def test_double_identity_halved(self):
        T = guaranteed_nonexpansive_affine(2.0 * np.eye(2), np.zeros(2), 3.0)
        assert np.allclose(T.W, np.eye(2))

    def test_swap_matrix_is_isometry(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        T = guaranteed_nonexpansive_affine(W, np.zeros(2), 1.5)
        assert np.allclose(T.W, W)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_nonexpansive_on_samples(self, p):
        rng = np.random.default_rng(12)
        W = rng.normal(size=(5, 5)) * 3.0
        b = rng.normal(size=5)
        T = guaranteed_nonexpansive_affine(W, b, p)
        x = rng.uniform(-10, 10, size=(10_000, 5))
        y = rng.uniform(-10, 10, size=(10_000, 5))
        lhs = lp_norm(T(x) - T(y), p)
        rhs = lp_norm(x - y, p)
        assert np.all(lhs <= rhs * (1.0 + 1e-12))

    def test_interpolation_bound_dominates_true_norm(self):
        rng = np.random.default_rng(3)
        for p in (1.5, 3.0):
            W = rng.normal(size=(4, 4))
            bound = interpolation_norm_bound(W, p)
            x = rng.uniform(-1, 1, size=(5000, 4))
            ratios = lp_norm(x @ W.T, p) / lp_norm(x, p)
            assert float(ratios.max()) <= bound * (1.0 + 1e-12)


class TestNeuralNetwork:
    def layers(self, d, dim=4, p=2.0, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(d):
            A = guaranteed_nonexpansive_affine(rng.normal(size=(dim, dim)), rng.normal(size=dim) * 0.1, p)
            out.append(averaged(A, 0.5))
        return out

    def test_depth_one_is_single_layer(self):
        (layer,) = self.layers(1)
        net = neural_network([layer], stable_activation("relu"), SP2)
        assert net.meta.alpha_firm == pytest.approx(0.5, rel=1e-15)
        x = np.array([0.3, -0.7, 1.0, 0.0])
        assert np.allclose(net(x), layer(x))

    def test_depth_two_constant_r3(self):
        layers = self.layers(2, p=3.0)
        net = neural_network(layers, stable_activation("relu"), SP3)
        # 3 half-firm factors in an r = 3 space: firm route 0.9, averaged 0.875
        assert net.meta.averaged == pytest.approx(0.875, rel=1e-15)
        assert net.meta.alpha_firm == pytest.approx(0.875, rel=1e-15)

    def test_zero_weight_layers_oracle(self):
        dim = 3
        zero = averaged(Affine(np.zeros((dim, dim)), np.zeros(dim), p=2.0), 0.5)
        net = neural_network([zero, zero], stable_activation("relu"), SP2)
        x = np.array([2.0, -4.0, 1.0])
        # each layer halves, relu clips between the halvings
        expect = 0.5 * np.maximum(0.5 * x, 0.0)
        assert np.allclose(net(x), expect, atol=1e-15)

    def test_layer_without_constant_rejected(self):
        bare = Affine(np.eye(2) * 0.5, np.zeros(2), p=2.0)
        with pytest.raises(ValueError):
            neural_network([bare], stable_activation("relu"), SP2)


_INF = np.inf
_BALL = Ball([0.0, 0.0], 1.0)
_TWO_GROUPS = AffineEqual(groups=((2, 3), (0, 1)))

# One case per branch of the intersection rule.  Expected values: an operand
# returned as is ("operand", k), a box ("box", lower, upper, shape), an
# AffineEqual compared with its exact group order, None or EMPTY_INTERSECTION.
MERGE_CASES = {
    "no_operands": ([], None),
    "missing_descriptor": ([None, AffineEqual(groups=((0, 1),))], None),
    "whole_box_dropped": ([Box(-_INF, _INF), AffineEqual(groups=((0, 1),))], ("operand", 1)),
    "whole_box_array_dropped": ([Box([-_INF, -_INF], [_INF, _INF]), Box(1.0, 2.0)], ("operand", 1)),
    "whole_affine_dropped": ([AffineEqual(), Box(1.0, 2.0)], ("operand", 1)),
    "only_whole": ([AffineEqual(), Box(-_INF, _INF)], ("box", -_INF, _INF, ())),
    "single_ball": ([Box(-_INF, _INF), _BALL], ("operand", 1)),
    "origin_affine_zero_pins": (
        [Box(0.0, 0.0), AffineEqual(groups=((0, 1),), fixed=((2, 0.0),))],
        ("box", 0.0, 0.0, ()),
    ),
    "origin_affine_nonzero_pins": (
        [Box(0.0, 0.0), AffineEqual(groups=((0, 1),), fixed=((2, 1.5),))],
        EMPTY_INTERSECTION,
    ),
    "origin_box_holding_zero": (
        [Box([0.0, 0.0], [0.0, 0.0]), Box([0.0, -1.0], [_INF, 1.0])],
        ("box", 0.0, 0.0, ()),
    ),
    "origin_box_missing_zero": ([Box(0.0, 0.0), Box(1.0, 2.0)], EMPTY_INTERSECTION),
    "origin_ball": ([Box(0.0, 0.0), _BALL], None),
    "disjoint_boxes": ([Box(1.0, 2.0), Box(-2.0, -1.0)], EMPTY_INTERSECTION),
    "box_meet": (
        [Box([-1.0, -1.0], [1.0, 1.0]), Box([0.5, -3.0], [4.0, 3.0]), Box(-_INF, 0.75)],
        ("box", [0.5, -1.0], [0.75, 0.75], (2,)),
    ),
    "pin_conflict": (
        [AffineEqual(fixed=((0, 1.0),)), AffineEqual(fixed=((0, 2.0),))],
        EMPTY_INTERSECTION,
    ),
    "group_pin_conflict": (
        [AffineEqual(groups=((0, 1),)), AffineEqual(fixed=((0, 1.0), (1, 2.0)))],
        EMPTY_INTERSECTION,
    ),
    "pin_spreads_over_group": (
        [AffineEqual(groups=((0, 1),)), AffineEqual(fixed=((1, 2.0),))],
        AffineEqual(fixed=((0, 2.0), (1, 2.0))),
    ),
    "box_and_affine": ([Box(-1.0, 1.0), AffineEqual(groups=((0, 1),))], None),
    "ball_and_box": ([_BALL, Box(-1.0, 1.0)], None),
    "halfspace_and_affine": ([Halfspace([1.0, 0.0], 0.0), AffineEqual(groups=((0, 1),))], None),
    "multi_group_merge": (
        [
            _TWO_GROUPS,
            AffineEqual(groups=((1, 5),), fixed=((4, 0.5),)),
            AffineEqual(groups=((3, 6),)),
        ],
        AffineEqual(groups=((0, 1, 5), (2, 3, 6)), fixed=((4, 0.5),)),
    ),
    # two copies go through the merge, which orders groups by their largest index
    "repeated_operand": ([_TWO_GROUPS, _TWO_GROUPS], AffineEqual(groups=((0, 1), (2, 3)))),
}


class TestFixedPointMerging:
    @pytest.mark.parametrize("case", sorted(MERGE_CASES))
    def test_rule_table(self, case):
        sets, expected = MERGE_CASES[case]
        out = merge_fixed_point_sets(sets)
        if isinstance(expected, tuple) and expected[0] == "operand":
            assert out is sets[expected[1]]
        elif isinstance(expected, tuple):
            _, lower, upper, shape = expected
            assert isinstance(out, Box) and np.shape(out.lower) == np.shape(out.upper) == shape
            assert np.array_equal(out.lower, lower) and np.array_equal(out.upper, upper)
        elif isinstance(expected, AffineEqual):
            assert isinstance(out, AffineEqual)
            assert (out.groups, out.fixed) == (expected.groups, expected.fixed)
        else:
            assert out is expected

    def test_repeated_operand_is_examined_once(self, monkeypatch):
        # a semigroup product of n steps intersects n copies of one fixed set
        S = AffineEqual(groups=((0, 1),), fixed=((2, 0.5),))
        reads, operands = [], []
        read = AffineEqual.__getattribute__

        def counting_read(self, name):
            if name in ("groups", "fixed"):
                reads.append(name)
            return read(self, name)

        module = sys.modules[merge_fixed_point_sets.__module__]
        meet = module._merge_affine_equal

        def counting_meet(sets):
            operands.append(len(sets))
            return meet(sets)

        monkeypatch.setattr(module, "_merge_affine_equal", counting_meet)

        def work(n):
            reads.clear()
            operands.clear()
            with monkeypatch.context() as m:
                m.setattr(AffineEqual, "__getattribute__", counting_read)
                out = merge_fixed_point_sets([S] * n)
            return out, len(reads), list(operands)

        out, reads_1024, operands_1024 = work(1024)
        assert (out.groups, out.fixed) == (S.groups, S.fixed)
        assert (reads_1024, operands_1024) == work(2)[1:]
        assert operands_1024 == [1]

    def test_origin_intersection(self):
        out = merge_fixed_point_sets([Box(0.0, 0.0), AffineEqual(groups=((0, 1),))])
        assert isinstance(out, Box)
        assert np.all(np.asarray(out.lower) == 0.0) and np.all(np.asarray(out.upper) == 0.0)

    def test_contradiction_is_empty(self):
        a = AffineEqual(fixed=((0, 1.0),))
        b = AffineEqual(fixed=((0, 2.0),))
        assert merge_fixed_point_sets([a, b]) is EMPTY_INTERSECTION

    def test_missing_descriptor_is_unknown(self):
        assert merge_fixed_point_sets([None, Box(0.0, 0.0)]) is None

    def test_negated_isometry_composition_gets_no_fixed_set(self):
        # Fix((-Id) o U) is not the intersection of the factor fixed sets;
        # the propagation gate (firm constants on every factor) blocks it.
        U = SwapIsometry(0, 1)
        T = compose([Scale(-1.0), U], SP2)
        assert T.meta.fixed_points is None

    def test_contractive_projection_meta(self):
        P = ContractiveProjection(SwapIsometry(0, 1))
        assert P.meta.alpha_firm == 0.5
        assert isinstance(P.meta.fixed_points, AffineEqual)
        x = np.array([3.0, 1.0, 5.0])
        assert np.allclose(P(x), [2.0, 2.0, 5.0])


    def test_contractive_projection_is_averaged_half(self):
        U = SwapIsometry(1, 2)
        P = ContractiveProjection(U)
        assert isinstance(P, Averaged) and P.alpha == 0.5
        x = np.random.default_rng(4).uniform(-10, 10, size=(1000, 4))
        assert np.array_equal(P(x), 0.5 * (x + U(x)))


class TestMetadataIsDerived:
    @pytest.mark.parametrize(
        "build",
        [
            lambda kw: Scale(2.0, **kw),
            lambda kw: Truncate(1, **kw),
            lambda kw: SwapIsometry(0, 1, **kw),
            lambda kw: Activation("relu", **kw),
            lambda kw: Affine(np.eye(2), np.zeros(2), p=2.0, **kw),
            lambda kw: Averaged(Scale(2.0), 0.5, **kw),
            lambda kw: Compose((Scale(2.0),), **kw),
            lambda kw: ConvexCombo((Scale(2.0),), (1.0,), **kw),
            lambda kw: Resolvent(Scale(2.0), 1.0, p=2.0, **kw),
        ],
    )
    def test_meta_keyword_rejected(self, build):
        for kw in ({"meta": OperatorMeta(proven_nonexpansive=True, alpha_firm=0.01)},
                   {"affine": True}):
            with pytest.raises(TypeError):
                build(kw)

    def test_space_exponent_is_required(self):
        # the l2 bound certifies W, yet ||W||_3 = 1.122: a silent p = 2
        # would attach a firm constant that fails at p = 3
        W = np.array([[1.0, 1.0], [0.0, 0.0]]) / np.sqrt(2.0)
        with pytest.raises(TypeError):
            Affine(W, np.zeros(2))
        with pytest.raises(TypeError):
            Resolvent(Scale(-1.0), 1.0)
        l2_claim = averaged(Affine(W, np.zeros(2), p=2.0), 0.5)
        assert l2_claim.meta.alpha_firm == 0.5
        samplers = (Sampler(seed=3, dim=2), Sampler(seed=4, dim=2))
        assert not certify_alpha_firm(l2_claim, 0.5, SP3, samplers, n=20_000).passed
        assert averaged(Affine(W, np.zeros(2), p=3.0), 0.5).meta.alpha_firm is None


class TestJsonRoundTrip:
    def cases(self):
        yield averaged(SwapIsometry(0, 1), 0.5)
        yield truncation_operator(2, SP3, 5)
        yield compose([averaged(SwapIsometry(0, 1), 0.5), stable_activation("relu")], SP3)
        yield convex_combination(
            [averaged(SwapIsometry(0, 1), 0.5), averaged(SwapIsometry(1, 2), 0.5)],
            [0.5, 0.5],
            SP3,
        )
        yield ContractiveProjection(SwapIsometry(1, 2))
        yield Scale(-1.0)

    def test_round_trip_behaviour(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-5, 5, size=(20, 5))
        for T in self.cases():
            doc = operator_to_json(T)
            T2 = operator_from_json(doc, SP3, 5)
            assert np.allclose(T(x), T2(x), atol=1e-12)
            assert T2.meta.alpha_firm == pytest.approx(T.meta.alpha_firm, rel=1e-15) or (
                T.meta.alpha_firm is None and T2.meta.alpha_firm is None
            )

    def test_resolvent_round_trip(self):
        from firmlp.operators import resolvent_operator

        R = resolvent_operator(Scale(-1.0), 1.0, SP2)
        doc = operator_to_json(R)
        R2 = operator_from_json(doc, SP2, 2)
        x = np.array([3.0, 0.0])
        assert np.allclose(R(x), R2(x), atol=1e-11)

    def test_contractive_projection_kind_reads_as_averaged(self):
        doc = {"kind": "contractive_projection", "isometry": {"kind": "swap", "i": 0, "j": 1}}
        T = operator_from_json(doc, SP3, 3)
        assert isinstance(T, Averaged) and T.alpha == 0.5
        assert operator_to_json(T) == {
            "kind": "averaged", "alpha": 0.5, "inner": {"kind": "swap", "i": 0, "j": 1}
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            operator_from_json({"kind": "mystery"}, SP2, 2)
