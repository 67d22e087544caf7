import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firmlp import space
from firmlp.certify import (
    DEFAULT_W_GRID,
    Sampler,
    bruck_phi,
    certify_alpha_firm,
    certify_bruck_firm,
    certify_nonexpansive,
    certify_quasi_alpha_firm,
    firm_residual,
    report_to_json,
)
from firmlp.operators import (
    Activation,
    OperatorMeta,
    Scale,
    SwapIsometry,
    averaged,
    compose,
    guaranteed_nonexpansive_affine,
    identity,
    resolvent_operator,
    truncation_operator,
)
from firmlp.projections import AffineEqual, Ball, Box
from firmlp.space import lp_norm, norm_pow, space_params

SP2 = space_params(2.0)
SP3 = space_params(3.0)


class TestFirmResidual:
    def test_identity_always_zero(self):
        rng = np.random.default_rng(0)
        x, y = rng.uniform(-5, 5, size=(2, 6))
        for alpha in (0.1, 0.5, 0.9):
            assert firm_residual(identity(), x, y, alpha, SP3) == pytest.approx(0.0, abs=1e-12)

    def test_truncation_exact_identity(self):
        # at alpha = c_r/(c_r+2) the inequality is an identity: the
        # coefficient is 1 and the coordinates split
        T = truncation_operator(2, SP3, 6)
        rng = np.random.default_rng(1)
        x = rng.uniform(-10, 10, size=(100, 6))
        y = rng.uniform(-10, 10, size=(100, 6))
        res = firm_residual(T, x, y, 0.2, SP3)
        assert np.all(np.abs(res) <= 1e-10 * np.maximum(norm_pow(x - y, SP3), 1.0))

    def test_truncation_below_alpha_goes_negative(self):
        T = truncation_operator(2, SP3, 6)
        rng = np.random.default_rng(2)
        x = rng.uniform(-10, 10, size=(200, 6))
        y = rng.uniform(-10, 10, size=(200, 6))
        res = firm_residual(T, x, y, 0.1, SP3)
        assert res.min() < 0.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            firm_residual(identity(), np.ones(2), np.zeros(2), 1.0, SP2)


class TestSampler:
    @pytest.mark.parametrize("field", ["low", "high", "scale", "min_norm"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"sampler {field} must be finite"):
            Sampler(seed=0, dim=2, **{field: value})

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="sampler low must not exceed high"):
            Sampler(seed=0, dim=2, low=1.0, high=-1.0)
        assert Sampler(seed=0, dim=2, low=1.0, high=1.0).draw(3, 2.0).tolist() == [[1.0, 1.0]] * 3


class TestCertifyAlphaFirm:
    def samplers(self, dim, seed=1):
        return (Sampler(seed=seed, dim=dim), Sampler(seed=seed + 1, dim=dim))

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        # an isometry satisfies the firm inequality at alpha >= 1 trivially;
        # such an alpha is no firm constant and must not certify
        T, x_sampler = SwapIsometry(0, 1), Sampler(seed=3, dim=3)
        with pytest.raises(ValueError, match="alpha must lie in"):
            certify_alpha_firm(T, alpha, SP3, self.samplers(3), n=100)
        with pytest.raises(ValueError, match="alpha must lie in"):
            certify_quasi_alpha_firm(T, alpha, SP3, None, x_sampler, n=100)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be finite"):
            certify_alpha_firm(identity(), 0.5, SP2, self.samplers(2), n=100, tol=tol)

    def test_truncation_estimates_exact_constant(self):
        T = truncation_operator(2, SP3, 6)
        rep = certify_alpha_firm(T, 0.2, SP3, self.samplers(6), n=10_000)
        assert rep.passed
        assert rep.worst_residual >= -1e-10
        assert rep.estimated_min_alpha == pytest.approx(0.2, abs=1e-6)

    def test_averaged_swap(self):
        T = averaged(SwapIsometry(0, 1), 0.5)
        rep = certify_alpha_firm(T, 0.5, SP2, self.samplers(4), n=5_000)
        assert rep.passed

    def test_expansive_fails_with_witness(self):
        rep = certify_alpha_firm(Scale(1.5), 0.5, SP2, self.samplers(3), n=500)
        assert not rep.passed
        assert rep.witness is not None
        x, y = rep.witness
        assert firm_residual(Scale(1.5), x, y, 0.5, SP2) < 0.0
        assert rep.estimated_min_alpha is None

    def test_monotone_in_alpha_on_same_samples(self):
        T = truncation_operator(1, SP3, 5)
        worst = []
        for alpha in (0.2, 0.3, 0.5, 0.7, 0.9):
            rep = certify_alpha_firm(T, alpha, SP3, self.samplers(5), n=2_000)
            worst.append(rep.worst_residual)
        assert all(b >= a - 1e-15 for a, b in zip(worst, worst[1:]))
        assert all(
            certify_alpha_firm(T, a, SP3, self.samplers(5), n=2_000).passed
            for a in (0.2, 0.3, 0.5, 0.7, 0.9)
        )

    def test_estimate_nondecreasing_in_samples(self):
        T = truncation_operator(2, space_params(4.0), 6)
        sp4 = space_params(4.0)
        estimates = [
            certify_alpha_firm(T, 0.5, sp4, self.samplers(6), n=n).estimated_min_alpha
            for n in (100, 1_000, 5_000)
        ]
        assert estimates[0] <= estimates[1] + 1e-15
        assert estimates[1] <= estimates[2] + 1e-15

    def test_degenerate_pairs_counted(self):
        # the identity has (Id-T)x - (Id-T)y = 0 everywhere
        rep = certify_alpha_firm(identity(), 0.5, SP2, self.samplers(3), n=100)
        assert rep.degenerate_pairs == 100
        assert rep.estimated_min_alpha is None
        assert rep.passed

    def test_rounding_level_pairs_are_degenerate(self):
        # relu at p = 16 leaves pairs whose displacement term is ~1e-20 while
        # their gain 1 - ||Tx - Ty||^16 / ||x - y||^16 rounds to 0: such a
        # pair bounds no alpha and must not void the estimate
        sp16 = space_params(16.0)
        samplers = tuple(Sampler(seed=s, dim=4, low=-3.0, high=3.0) for s in (0, 1))
        rep = certify_alpha_firm(Activation("relu"), 0.5, sp16, samplers, n=100_000)
        assert rep.passed
        assert rep.estimated_min_alpha is not None and rep.estimated_min_alpha <= 0.5
        assert rep.degenerate_pairs > 0

    def test_report_json(self):
        T = truncation_operator(1, SP3, 4)
        rep = certify_alpha_firm(T, 0.2, SP3, self.samplers(4), n=50)
        doc = report_to_json(rep)
        assert doc["property"] == "alpha_firm"
        assert isinstance(doc["witness"]["x"], list)
        assert doc["passed"] is rep.passed


class TestRestrictedDomain:
    """Certification on a product of regions D x E, exercised with the
    ball-collapse operator: R maps the ball B(0, rho) by -x/rho and the rest
    to 0; T = (1-a)Id + aR is a-firm only on B(0, rho) x {||y|| > 1 + rho}."""

    class BallCollapse:
        def __init__(self, rho, alpha):
            self.rho, self.alpha = rho, alpha
            self.meta = OperatorMeta()

        def __call__(self, x):
            x = np.asarray(x, dtype=float)
            norms = lp_norm(x, 3.0)
            rx = np.where((norms <= self.rho)[..., None], -x / self.rho, 0.0)
            return (1.0 - self.alpha) * x + self.alpha * rx

    def test_restricted_pass(self):
        rho, alpha = 0.5, 0.4
        T = self.BallCollapse(rho, alpha)
        d_sampler = Sampler(seed=3, dim=4, constraint=Ball(center=np.zeros(4), radius=rho))
        e_sampler = Sampler(seed=4, dim=4, min_norm=1.0 + rho + 1e-6)
        rep = certify_alpha_firm(T, alpha, SP3, (d_sampler, e_sampler), n=4_000)
        assert rep.passed

    def test_unrestricted_fails(self):
        # pairs straddling the ball boundary violate the global inequality
        rho, alpha = 0.5, 0.4
        T = self.BallCollapse(rho, alpha)
        near = (Sampler(seed=3, dim=4, low=-1.0, high=1.0), Sampler(seed=4, dim=4, low=-1.0, high=1.0))
        rep = certify_alpha_firm(T, alpha, SP3, near, n=4_000)
        assert not rep.passed


class TestCertifyNonexpansive:
    def test_isometry_residual_zero(self):
        rep = certify_nonexpansive(SwapIsometry(0, 1), 2.0, Sampler(seed=5, dim=4), n=2_000)
        assert rep.passed
        assert rep.worst_residual == pytest.approx(0.0, abs=1e-15)

    def test_contraction_has_positive_margin(self):
        rep = certify_nonexpansive(Scale(0.5), 2.0, Sampler(seed=5, dim=4), n=2_000)
        assert rep.passed
        assert rep.worst_residual > 0.0

    def test_expansion_fails(self):
        rep = certify_nonexpansive(Scale(2.0), 2.0, Sampler(seed=5, dim=4), n=500)
        assert not rep.passed
        assert rep.witness is not None


class TestQuasi:
    def test_x_in_fix_gives_zero(self):
        T = truncation_operator(2, SP3, 5)
        fix = Sampler(seed=7, dim=5, constraint=T.meta.fixed_points)
        rep = certify_quasi_alpha_firm(T, 0.2, SP3, fix, fix, n=1_000)
        assert rep.passed
        assert rep.worst_residual == pytest.approx(0.0, abs=1e-12)

    def test_truncation_quasi(self):
        T = truncation_operator(2, SP3, 5)
        rep = certify_quasi_alpha_firm(T, 0.2, SP3, None, Sampler(seed=8, dim=5), n=5_000)
        assert rep.passed
        assert rep.estimated_min_alpha == pytest.approx(0.2, abs=1e-6)

    def test_composition_of_contractive_projections(self):
        from firmlp.operators import contractive_projection

        P_u = contractive_projection(SwapIsometry(0, 1))
        P_v = contractive_projection(SwapIsometry(1, 2))
        T = compose([P_v, P_u], SP3)
        rep = certify_quasi_alpha_firm(
            T, T.meta.alpha_firm, SP3, None, Sampler(seed=9, dim=4), n=5_000
        )
        assert rep.passed

    def test_missing_metadata_rejected(self):
        with pytest.raises(ValueError):
            certify_quasi_alpha_firm(
                lambda x: x, 0.5, SP2, None, Sampler(seed=1, dim=3), n=10
            )


class TestBruck:
    def test_phi_endpoints(self):
        T = truncation_operator(1, SP3, 4)
        rng = np.random.default_rng(11)
        x, y = rng.uniform(-3, 3, size=(2, 4))
        assert bruck_phi(T, x, y, 0.0, 3.0) == pytest.approx(lp_norm(x - y, 3.0), rel=1e-15)
        assert bruck_phi(T, x, y, 1.0, 3.0) == pytest.approx(
            lp_norm(T(x) - T(y), 3.0), rel=1e-15
        )

    def test_identity_constant_in_w(self):
        x, y = np.array([1.0, 2.0]), np.array([0.0, -1.0])
        vals = [bruck_phi(identity(), x, y, w, 2.0) for w in (0.0, 0.3, 0.8)]
        assert max(vals) - min(vals) == pytest.approx(0.0, abs=1e-15)

    def test_resolvent_passes_default_grid(self):
        R = resolvent_operator(Scale(-1.0), 1.0, SP2)
        rep = certify_bruck_firm(R, SP2, Sampler(seed=13, dim=3), n=2_000)
        assert rep.passed
        assert rep.estimated_min_alpha == pytest.approx(1.0 / 1.99, rel=1e-12)
        assert len(rep.details["implied_alphas"]) == len(DEFAULT_W_GRID)

    def test_negation_fails_at_midpoint(self):
        rep = certify_bruck_firm(Scale(-1.0), SP2, Sampler(seed=13, dim=3), n=500)
        assert not rep.passed
        assert rep.details["worst_w"] == 0.5

    def test_pass_implies_firm_certification(self):
        # passing at grid point w implies the firm inequality at 1/(1+w)
        R = resolvent_operator(Scale(-1.0), 2.0, SP3)
        w = 0.8
        rep = certify_bruck_firm(R, SP3, Sampler(seed=14, dim=3), w_grid=[w], n=1_000)
        assert rep.passed
        rep2 = certify_alpha_firm(
            R,
            1.0 / (1.0 + w),
            SP3,
            (Sampler(seed=15, dim=3), Sampler(seed=16, dim=3)),
            n=1_000,
        )
        assert rep2.passed

    def test_pass_implies_firm_on_identical_pairs(self):
        # the implication holds pair by pair: check both inequalities on
        # literally the same (x, y) draws
        R = resolvent_operator(Scale(-1.0), 0.5, SP3)
        pts = Sampler(seed=17, dim=4).draw(2_000, 3.0)
        x, y = pts[:1_000], pts[1_000:]
        for w in (0.3, 0.8):
            phi_w = lp_norm((1.0 - w) * (x - y) + w * (R(x) - R(y)), 3.0)
            phi_1 = lp_norm(R(x) - R(y), 3.0)
            scale = np.maximum(lp_norm(x - y, 3.0), 1.0)
            assert np.all(phi_1 <= phi_w + 1e-9 * scale)
            res = firm_residual(R, x, y, 1.0 / (1.0 + w), SP3)
            rscale = np.maximum(norm_pow(x - y, SP3), 1.0)
            assert np.all(res >= -1e-9 * rscale)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            certify_bruck_firm(identity(), SP2, Sampler(seed=1, dim=2), w_grid=[], n=10)
        with pytest.raises(ValueError):
            certify_bruck_firm(identity(), SP2, Sampler(seed=1, dim=2), w_grid=[1.0], n=10)


class TestSamplerDeterminism:
    def test_same_seed_same_draw(self):
        s = Sampler(seed=42, dim=5)
        assert np.array_equal(s.draw(100, 2.0), s.draw(100, 2.0))

    def test_prefix_property(self):
        s = Sampler(seed=42, dim=5)
        assert np.array_equal(s.draw(200, 2.0)[:100], s.draw(100, 2.0))

    def test_gaussian(self):
        s = Sampler(seed=1, dim=3, dist="gaussian", scale=2.0)
        pts = s.draw(1000, 2.0)
        assert pts.shape == (1000, 3)
        assert abs(pts.std() - 2.0) < 0.2

    def test_min_norm(self):
        s = Sampler(seed=2, dim=3, min_norm=5.0)
        pts = s.draw(500, 3.0)
        assert np.all(lp_norm(pts, 3.0) >= 5.0)


class TestScaleFreeCertification:
    """A pair's residual is relative to ||x - y|| with no floor, so a
    verdict does not depend on the size of the sampling window."""

    WINDOWS = (1e-150, 1e-10, 1.0, 1e5, 1e150)

    def test_expansion_fails_in_every_window(self):
        for c in self.WINDOWS:
            rep = certify_nonexpansive(Scale(2.0), 2.0, Sampler(seed=5, dim=4, low=-c, high=c), n=200)
            assert not rep.passed, c
            assert rep.worst_residual == pytest.approx(-1.0, rel=1e-12)

    @pytest.mark.parametrize("p", [3.0, 64.0])
    def test_truncation_passes_at_its_constant_in_every_window(self, p):
        sp = space_params(p)
        T = truncation_operator(2, sp, 5)
        for c in self.WINDOWS:
            samplers = (Sampler(seed=1, dim=5, low=-c, high=c), Sampler(seed=2, dim=5, low=-c, high=c))
            rep = certify_alpha_firm(T, T.meta.alpha_firm, sp, samplers, n=500)
            assert rep.passed, c
            assert abs(rep.worst_residual) <= 1e-12


CHUNK = 128  # two 64-row blocks: the smallest chunk that still splits a batch
SIZES = (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5)


def _chunk_operators():
    """name -> (T, a sampler of Fix T for the quasi property)."""
    rng = np.random.default_rng(5)
    affine = guaranteed_nonexpansive_affine(rng.normal(size=(8, 8)), rng.normal(size=8), 3.0)
    W, b = affine.affine_form(8)
    y_star = np.linalg.solve(np.eye(8) - W, b)  # the affine map's one fixed point
    return {
        "truncation": (truncation_operator(2, SP3, 8), None),
        "relu": (Activation("relu"), None),
        "swap_chain": (compose([averaged(SwapIsometry(i, i + 1), 0.5) for i in range(7)], SP3), None),
        "affine": (affine, Sampler(seed=8, dim=8, constraint=Box(y_star, y_star))),
        "resolvent_neg_id": (resolvent_operator(Scale(-1.0), 1.0, SP3), None),
    }


CHUNK_OPERATORS = _chunk_operators()


def _certify(prop, T, fixed, n):
    if prop == "alpha_firm":
        samplers = (Sampler(seed=3, dim=8), Sampler(seed=4, dim=8, dist="gaussian", scale=3.0))
        return certify_alpha_firm(T, 0.4, SP3, samplers, n=n)
    if prop == "alpha_firm_restricted":  # samplers drawn whole and sliced
        samplers = (
            Sampler(seed=3, dim=8, min_norm=5.0),
            Sampler(seed=9, dim=8, constraint=Ball(center=np.zeros(8), radius=2.0)),
        )
        return certify_alpha_firm(T, 0.4, SP3, samplers, n=n)
    if prop == "quasi":
        return certify_quasi_alpha_firm(T, 0.4, SP3, fixed, Sampler(seed=7, dim=8), n=n)
    if prop == "nonexpansive":
        return certify_nonexpansive(T, 3.0, Sampler(seed=5, dim=8), n=n)
    return certify_bruck_firm(T, SP3, Sampler(seed=6, dim=8), n=n)


def assert_same_report(a, b):
    """Field for field, floats bit for bit (repr round-trips a float)."""
    doc_a, doc_b = report_to_json(a), report_to_json(b)
    assert doc_a.keys() == doc_b.keys()
    for key in doc_a:
        assert repr(doc_a[key]) == repr(doc_b[key]), key


def _flipping(rows, flip, keep):
    """A map that sends the listed rows z to flip * z and every other row
    to keep * z; rows are told apart by their values."""
    marked = {np.asarray(r, dtype=float).tobytes() for r in rows}

    def T(z):
        hit = np.array([r.tobytes() in marked for r in z])
        return np.where(hit[:, None], flip * z, keep * z)

    return T


class TestChunkInvariance:
    """Certification evaluated in row chunks reports what the whole batch
    reports, field for field and bit for bit."""

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("op", sorted(CHUNK_OPERATORS))
    @pytest.mark.parametrize(
        "prop", ["alpha_firm", "alpha_firm_restricted", "quasi", "nonexpansive", "bruck"]
    )
    def test_chunked_report_equals_whole_batch(self, monkeypatch, prop, op, n):
        T, fixed = CHUNK_OPERATORS[op]
        whole = _certify(prop, T, fixed, n)
        monkeypatch.setattr(space, "_CHUNK_ROWS", CHUNK)
        assert len(space._row_chunks(n)) == (1 if n <= CHUNK else 2 if n == CHUNK + 1 else 4)
        chunked = _certify(prop, T, fixed, n)
        assert chunked.samples == n
        assert_same_report(chunked, whole)

    def test_tie_across_chunks_goes_to_the_first_pair(self, monkeypatch):
        # pairs 150 and 300 (chunks 2 and 4) both expand by exactly 2, the
        # rest contract by 1/2: the earlier of the two is the witness
        monkeypatch.setattr(space, "_CHUNK_ROWS", CHUNK)
        n, sampler = 3 * CHUNK + 5, Sampler(seed=5, dim=8)
        pts = sampler.draw(2 * n, 3.0)
        T = _flipping([pts[150], pts[n + 150], pts[300], pts[n + 300]], 2.0, 0.5)
        rep = certify_nonexpansive(T, 3.0, sampler, n=n)
        assert rep.worst_residual == -1.0
        assert np.array_equal(rep.witness[0], pts[150])
        assert np.array_equal(rep.witness[1], pts[n + 150])
        monkeypatch.setattr(space, "_CHUNK_ROWS", n)
        assert_same_report(rep, certify_nonexpansive(T, 3.0, sampler, n=n))

    def test_unbounded_pair_in_last_chunk_voids_the_estimate(self, monkeypatch):
        # a pair with ||Tx - Ty|| = ||x - y|| and nonzero displacement has
        # beta = 0; the earlier chunks' finite estimate must not hide it
        monkeypatch.setattr(space, "_CHUNK_ROWS", CHUNK)
        n = 3 * CHUNK + 5
        samplers = (Sampler(seed=3, dim=8), Sampler(seed=4, dim=8))
        x, y = (s.draw(n, 3.0) for s in samplers)
        last = space._row_chunks(n)[-1].start + 2
        plain = certify_alpha_firm(_flipping([], -1.0, 0.5), 0.4, SP3, samplers, n=n)
        assert plain.estimated_min_alpha is not None
        rep = certify_alpha_firm(_flipping([x[last], y[last]], -1.0, 0.5), 0.4, SP3, samplers, n=n)
        assert rep.estimated_min_alpha is None
        monkeypatch.setattr(space, "_CHUNK_ROWS", n)
        whole = certify_alpha_firm(_flipping([x[last], y[last]], -1.0, 0.5), 0.4, SP3, samplers, n=n)
        assert_same_report(rep, whole)

    def test_unfixed_y_in_last_chunk_raises(self, monkeypatch):
        monkeypatch.setattr(space, "_CHUNK_ROWS", CHUNK)
        n = 3 * CHUNK + 5
        fix = Sampler(seed=8, dim=8, constraint=AffineEqual(groups=((0, 1, 2, 3, 4, 5, 6, 7),)))
        y = fix.draw(n, 3.0)
        x_sampler = Sampler(seed=7, dim=8)
        fixed_everywhere = _flipping([], 1.0, 1.0)
        assert certify_quasi_alpha_firm(fixed_everywhere, 0.5, SP3, fix, x_sampler, n=n).passed
        moved = _flipping([y[n - 1]], 1.5, 1.0)
        with pytest.raises(ValueError, match="not fixed by T"):
            certify_quasi_alpha_firm(moved, 0.5, SP3, fix, x_sampler, n=n)


class TestSamplerChunks:
    """The row chunks of a sampler concatenate to its whole draw."""

    @settings(max_examples=60, deadline=None)
    @given(
        dist=st.sampled_from(["uniform", "gaussian"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=700),
        rows=st.integers(min_value=1, max_value=800),
    )
    def test_streamed_chunks_are_the_draw(self, dist, seed, n, rows):
        s = Sampler(seed=seed, dim=3, dist=dist, scale=2.0)
        with mock.patch.object(space, "_CHUNK_ROWS", rows):
            parts = list(s.chunks(n, 3.0))
            sizes = [sl.stop - sl.start for sl in space._row_chunks(n)]
        assert [len(c) for c in parts] == sizes
        assert np.concatenate(parts).tobytes() == s.draw(n, 3.0).tobytes()

    @pytest.mark.parametrize(
        "sampler",
        [
            Sampler(seed=2, dim=4, constraint=Ball(center=np.zeros(4), radius=2.0)),
            Sampler(seed=2, dim=4, constraint=AffineEqual(groups=((0, 1),), fixed=((2, 0.5),))),
            Sampler(seed=2, dim=4, min_norm=5.0),
            Sampler(seed=2, dim=4, dist="gaussian", min_norm=5.0),
        ],
        ids=["ball", "affine_equal", "min_norm", "gaussian_min_norm"],
    )
    @pytest.mark.parametrize("n", SIZES)
    def test_whole_draw_samplers_are_sliced(self, monkeypatch, sampler, n):
        monkeypatch.setattr(space, "_CHUNK_ROWS", CHUNK)
        parts = list(sampler.chunks(n, 3.0))
        assert len(parts) == len(space._row_chunks(n))
        assert np.concatenate(parts).tobytes() == sampler.draw(n, 3.0).tobytes()

    @given(n=st.integers(min_value=0, max_value=20_000), rows=st.integers(min_value=1, max_value=9_000))
    def test_row_chunks(self, n, rows):
        block = space._ROW_BLOCK
        with mock.patch.object(space, "_CHUNK_ROWS", rows):
            chunks = space._row_chunks(n)
        assert [i for c in chunks for i in range(c.start, c.stop)] == list(range(n))
        assert all(c.start % block == 0 for c in chunks)
        if n <= rows or n < 2 * block:
            assert len(chunks) == 1
        else:
            # no chunk below one block, none above the chunk size rounded up
            # to whole blocks except the last, which carries n's partial block
            assert all(c.stop - c.start >= block for c in chunks)
            assert all(c.stop - c.start <= -(-rows // block) * block for c in chunks[:-1])
            assert len(chunks) == min(-(-n // rows), n // block)


def test_certification_memory_is_bounded_in_n():
    # 2e5 pairs at d = 8: x and y alone take 25.6 MB as whole batches
    T = truncation_operator(2, SP3, 8)
    samplers = (Sampler(seed=1, dim=8), Sampler(seed=2, dim=8))
    tracemalloc.start()
    try:
        rep = certify_alpha_firm(T, T.meta.alpha_firm, SP3, samplers, n=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.samples == 200_000
    assert peak < 5e6, peak
