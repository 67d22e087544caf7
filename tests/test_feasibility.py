import numpy as np
import pytest

from firmlp.certify import Sampler, certify_alpha_firm, certify_nonexpansive
from firmlp.dynamics import StopRule
from firmlp.feasibility import (
    EmptyIntersectionError,
    FeasibilityError,
    IsometryCheckError,
    alternating_projections,
    averaged_projections,
    fixed_set_equality_check,
    intersect_images,
    load_instance_json,
    projection_from_isometry,
)
from firmlp.operators import Activation, Affine, Scale, SwapIsometry
from firmlp.projections import AffineEqual, membership_residual
from firmlp.space import lp_norm, space_params

SP3 = space_params(3.0)
SWAP_01 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
HOUSEHOLDER_AXIS = np.array([1.0, 2.0, -2.0])
HOUSEHOLDER = np.eye(3) - 2.0 * np.outer(HOUSEHOLDER_AXIS, HOUSEHOLDER_AXIS) / 9.0


def uv_instance(p=3.0, dim=4):
    U = projection_from_isometry(SwapIsometry(0, 1), p, dim)
    V = projection_from_isometry(SwapIsometry(1, 2), p, dim)
    return U, V


class TestProjectionFromIsometry:
    def test_swap_projection_formula(self):
        spec = projection_from_isometry(SwapIsometry(0, 1), 3.0, 4)
        x = np.array([3.0, 1.0, 7.0, -2.0])
        assert np.allclose(spec.projection(x), [2.0, 2.0, 7.0, -2.0])
        assert spec.image == AffineEqual(groups=((0, 1),))
        assert spec.projection.meta.alpha_firm == 0.5

    def test_identity_isometry(self):
        spec = projection_from_isometry(Scale(1.0), 2.0, 3)
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(spec.projection(x), x)

    def test_negation_isometry_gives_zero_map(self):
        spec = projection_from_isometry(Scale(-1.0), 2.0, 3)
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(spec.projection(x), np.zeros(3))
        assert np.all(np.asarray(spec.image.lower) == 0.0)

    def test_rejects_non_involution(self):
        # a rotation-like permutation cycle of length 3 is an isometry but
        # not an involution
        W = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        cycle = Affine(W, np.zeros(3), p=3.0)
        with pytest.raises(IsometryCheckError):
            projection_from_isometry(cycle, 3.0, 3)

    def test_rejects_non_isometry(self):
        for U, p, message in (
            (Scale(0.5), 2.0, "orthogonal"),
            (Scale(0.5), 3.0, "signed permutation"),
            (Activation("tanh"), 3.0, "not affine"),
            # an isometry of l2 only: at p != 2 the isometries are signed permutations
            (Affine(HOUSEHOLDER, np.zeros(3), p=3.0), 3.0, "signed permutation"),
            (Affine(SWAP_01 * (1.0 + 1e-9), np.zeros(3), p=3.0), 3.0, "signed permutation"),
            # an involution W^2 = I whose offset U(U 0) = W b + b is not 0
            (Affine(SWAP_01, np.array([1.0, 0.0, 0.0]), p=3.0), 3.0, "W b \\+ b"),
        ):
            with pytest.raises(IsometryCheckError, match=message):
                projection_from_isometry(U, p, 3)

    def test_householder_reflection_at_p2(self):
        spec = projection_from_isometry(Affine(HOUSEHOLDER, np.zeros(3), p=2.0), 2.0, 3)
        x = np.array([3.0, -1.0, 2.0])
        v = HOUSEHOLDER_AXIS
        assert np.allclose(spec.projection(x), x - v * (v @ x) / (v @ v), atol=1e-14)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rejects_overflowing_candidate(self):
        # U(U x) overflows to Inf, which no isometry does to a finite x
        U = Affine(np.diag([1e300, 1.0]), np.zeros(2), p=3.0)
        with pytest.raises(IsometryCheckError, match="signed permutation"):
            projection_from_isometry(U, 3.0, 2)

    def test_projection_certifies(self):
        spec = projection_from_isometry(SwapIsometry(0, 1), 3.0, 4)
        T = spec.projection
        rep = certify_nonexpansive(T, 3.0, Sampler(seed=1, dim=4), n=2_000)
        assert rep.passed
        rep2 = certify_alpha_firm(
            T, 0.5, SP3, (Sampler(seed=2, dim=4), Sampler(seed=3, dim=4)), n=2_000
        )
        assert rep2.passed


class TestAlternating:
    def test_reference_instance(self):
        U, V = uv_instance()
        x0 = np.array([1.0, 0.0, 0.0, 0.0])
        traj = alternating_projections([U, V], x0, StopRule(), SP3)
        assert traj.converged
        assert np.allclose(traj.limit, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-8)
        assert len(traj.step_norms) <= 10_000

    def test_conserved_sum(self):
        U, V = uv_instance()
        x0 = np.array([1.0, 0.0, 0.0, 0.0])
        traj = alternating_projections([U, V], x0, StopRule(), SP3)
        sums = traj.iterates[:, :3].sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)

    def test_start_in_intersection_is_constant(self):
        U, V = uv_instance()
        x0 = np.array([2.0, 2.0, 2.0, 7.0])
        traj = alternating_projections([U, V], x0, StopRule(), SP3)
        assert len(traj.iterates) == 1
        assert np.allclose(traj.limit, x0)

    def test_single_spec_one_step(self):
        U, _ = uv_instance()
        x0 = np.array([5.0, 1.0, 0.0, 0.0])
        traj = alternating_projections([U], x0, StopRule(), SP3)
        assert len(traj.step_norms) == 1  # idempotent after one application
        assert np.allclose(traj.limit, [3.0, 3.0, 0.0, 0.0])

    def test_fejer_channel(self):
        U, V = uv_instance()
        traj = alternating_projections(
            [U, V], np.array([1.0, 0.0, 0.0, 0.0]), StopRule(), SP3, n_fejer=5
        )
        gaps = np.diff(traj.fejer_distances, axis=0)
        slack = 1e-12 * np.maximum(traj.fejer_distances[0], 1.0)
        assert np.all(gaps <= slack[None, :])

    def test_limit_in_every_image(self):
        U, V = uv_instance()
        traj = alternating_projections(
            [U, V], np.array([0.3, -2.0, 5.0, 1.0]), StopRule(), SP3
        )
        for spec in (U, V):
            assert membership_residual(spec.image, traj.limit, 3.0) <= 1e-8


class TestAveraged:
    def test_reference_instance(self):
        U, V = uv_instance()
        x0 = np.array([1.0, 0.0, 0.0, 0.0])
        traj = averaged_projections([U, V], [0.5, 0.5], x0, StopRule(), SP3)
        assert np.allclose(traj.limit, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-8)

    def test_boundary_weights_rejected(self):
        U, V = uv_instance()
        with pytest.raises(ValueError):
            averaged_projections([U, V], [1.0, 0.0], np.zeros(4), StopRule(), SP3)

    def test_unbalanced_weights(self):
        U, V = uv_instance()
        x0 = np.array([1.0, 0.0, 0.0, 0.0])
        traj = averaged_projections([U, V], [0.3, 0.7], x0, StopRule(), SP3)
        assert np.allclose(traj.limit, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-8)

    def test_start_in_intersection(self):
        U, V = uv_instance()
        x0 = np.array([-1.0, -1.0, -1.0, 4.0])
        traj = averaged_projections([U, V], [0.5, 0.5], x0, StopRule(), SP3)
        assert len(traj.iterates) == 1


class TestIntersections:
    def test_merged_descriptor(self):
        U, V = uv_instance()
        merged = intersect_images([U, V])
        assert merged == AffineEqual(groups=((0, 1, 2),))

    def test_contradiction_raises(self):
        U, V = uv_instance()
        U.image = AffineEqual(groups=((0, 1),), fixed=((3, 1.0),))
        V.image = AffineEqual(groups=((1, 2),), fixed=((3, 2.0),))
        with pytest.raises(EmptyIntersectionError):
            intersect_images([U, V])

    def test_missing_descriptor_needs_declaration(self):
        U, V = uv_instance()
        U.image = None
        with pytest.raises(ValueError):
            intersect_images([U, V])


class TestFixedSetEquality:
    def test_reference_examples(self):
        from firmlp.operators import compose, contractive_projection, convex_combination

        P_u = contractive_projection(SwapIsometry(0, 1))
        P_v = contractive_projection(SwapIsometry(1, 2))
        T = compose([P_v, P_u], SP3)
        S = convex_combination([P_u, P_v], [0.5, 0.5])
        inside = np.array([2.0, 2.0, 2.0, 7.0])
        assert np.allclose(T(inside), inside)
        assert np.allclose(S(inside), inside)
        partial = np.array([1.0, 1.0, 0.0, 0.0])  # in S_U only
        assert not np.allclose(T(partial), partial)

    def test_sampled_check(self):
        U, V = uv_instance()
        rep = fixed_set_equality_check([U, V], SP3, dim=4, n=100, seed=5)
        assert rep.ok
        assert rep.max_composed_displacement <= 1e-10
        assert rep.max_averaged_displacement <= 1e-10
        assert rep.max_limit_membership <= 1e-8


class TestInstanceLoading:
    def test_swap_instance(self):
        doc = [{"kind": "swap", "i": 0, "j": 1}, {"kind": "swap", "i": 1, "j": 2}]
        specs = load_instance_json(doc, SP3, 4)
        assert len(specs) == 2
        assert specs[0].image == AffineEqual(groups=((0, 1),))

    def test_matrix_isometry_with_declared_image(self):
        W = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        doc = [
            {
                "kind": "affine",
                "W": W,
                "b": [0.0, 0.0, 0.0],
                "image": {"kind": "affine_equal", "groups": [[0, 1]], "fixed": []},
            }
        ]
        specs = load_instance_json(doc, SP3, 3)
        assert specs[0].image == AffineEqual(groups=((0, 1),))
        x = np.array([4.0, 0.0, 1.0])
        assert np.allclose(specs[0].projection(x), [2.0, 2.0, 1.0])


class TestScaleFree:
    """The Picard stop and the membership verdict of a feasibility run are
    relative to the size of the start."""

    SCALES = (1e-150, 1e-20, 1.0, 1e150)

    def test_same_steps_and_limit_at_every_scale(self):
        U, V = uv_instance()
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        steps = set()
        for s in self.SCALES:
            traj = alternating_projections([U, V], s * e1, StopRule(), SP3)
            assert traj.converged
            assert traj.limit == pytest.approx(s * np.array([1, 1, 1, 0]) / 3, rel=1e-9, abs=0.0)
            steps.add(len(traj.step_norms))
        assert steps == {17}

    def test_limit_near_zero_is_judged_on_the_start(self):
        # Both schemes shrink (1, 0, -1, 0) towards the limit 0; the stop
        # leaves an error relative to ||x0||, which membership must accept.
        U, V = uv_instance()
        x0 = np.array([1.0, 0.0, -1.0, 0.0])
        schemes = (
            lambda x: alternating_projections([U, V], x, StopRule(), SP3),
            lambda x: averaged_projections([U, V], [0.5, 0.5], x, StopRule(), SP3),
        )
        for scheme in schemes:
            for s in self.SCALES:
                traj = scheme(s * x0)
                assert traj.converged
                assert np.abs(traj.limit).max() <= 1e-8 * s

    def test_loose_stop_misses_the_image_at_every_scale(self):
        U, V = uv_instance()
        for s in self.SCALES:
            with pytest.raises(FeasibilityError, match="misses image subspace"):
                alternating_projections(
                    [U, V], s * np.array([1.0, 0.0, 0.0, 0.0]), StopRule(step_tol=0.1), SP3
                )
