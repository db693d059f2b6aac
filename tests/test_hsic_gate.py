"""Gate math: projection, kernels, bandwidth, dependence score, fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toposcan.hsic_gate import (
    PROJECTION_CAPACITY,
    BranchPair,
    GateConfig,
    _build_projection,
    _sq_dists,
    effective_projection_width,
    fuse,
    fuse_with_diagnostics,
    gate_weight,
    hsic_estimate,
    median_bandwidth,
    project_and_normalize,
    projection_matrix,
    rbf_kernel,
)


def trace_form_oracle(kc, kt):
    """Independent Tr(Kc H Kt H) / (C-1)^2 with an explicit centering matrix."""
    c = kc.shape[0]
    h = np.eye(c) - np.ones((c, c)) / c
    return float(np.trace(kc @ h @ kt @ h) / (c - 1) ** 2)


def random_psd(rng, c):
    g = rng.standard_normal((c, c + 2))
    return g @ g.T


def difference_sq_dists(x):
    """Reference squared distances from the explicit (C, C, k) difference tensor."""
    diff = x[:, None, :] - x[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def difference_bandwidth(xc, xt):
    """Reference median heuristic over the pooled off-diagonal distances."""
    pooled = [difference_sq_dists(x)[np.triu_indices(x.shape[0], k=1)] for x in (xc, xt)]
    return max(float(np.median(np.concatenate(pooled))), 1e-12)


def descriptor_cases():
    rng = np.random.default_rng(12)
    base = rng.standard_normal((3, 5))
    return {
        "random": rng.standard_normal((6, 5)),
        "duplicate": np.concatenate([base, base]),
        "near_duplicate": base[:1] + 1e-9 * rng.standard_normal((6, 5)),
        "all_zero": np.zeros((4, 5)),
    }


class TestProjection:
    def test_zero_rows_stay_zero(self):
        p = projection_matrix(32, 8, seed=0)
        out = project_and_normalize(np.zeros((1, 4, 32)), p)
        assert np.array_equal(out, np.zeros((1, 4, 8)))
        assert np.all(np.isfinite(out))

    def test_one_hot_under_scaled_identity(self):
        length = 16
        p = np.eye(length) * 3.0
        f = np.zeros((1, length))
        f[0, 5] = 2.0
        out = project_and_normalize(f, p)
        expected = np.zeros(length)
        expected[5] = 1.0
        np.testing.assert_allclose(out[0], expected, atol=1e-15)

    def test_rows_have_unit_norm(self):
        rng = np.random.default_rng(0)
        p = projection_matrix(64, 16, seed=1)
        out = project_and_normalize(rng.standard_normal((3, 5, 64)), p)
        norms = np.linalg.norm(out, axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_effective_width_floor_and_cap(self):
        assert effective_projection_width(64, 1024) == 64
        assert effective_projection_width(64, 16) == 16
        assert effective_projection_width(2, 1024) == 8
        assert effective_projection_width(2, 4) == 8

    def test_determinism_per_key(self):
        a = projection_matrix(128, 32, seed=9)
        b = projection_matrix(128, 32, seed=9)
        assert a is b
        c = projection_matrix(128, 32, seed=10)
        assert not np.array_equal(a, c)

    def test_cache_stays_at_its_bound(self):
        for length in range(1, PROJECTION_CAPACITY + 20):
            projection_matrix(length, 8, seed=77)
        assert _build_projection.cache_info().currsize == PROJECTION_CAPACITY

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            project_and_normalize(np.zeros((1, 2, 10)), projection_matrix(12, 8, 0))

    def test_jl_preserves_distance_ordering(self):
        rng = np.random.default_rng(42)
        # Heterogeneous row scales give the pairwise distances genuine
        # spread; iid rows would concentrate and hide the signal.
        scales = 0.5 + np.arange(32.0)[:, None] / 8.0
        f = rng.standard_normal((32, 1024)) * scales
        p = projection_matrix(1024, 64, seed=0)
        projected = (f @ p) / np.sqrt(1024.0)
        scaled = f / np.sqrt(1024.0)

        def sq_dists(x):
            return difference_sq_dists(x)[np.triu_indices(x.shape[0], k=1)]

        original = sq_dists(scaled)
        reduced = sq_dists(projected)
        corr = np.corrcoef(original, reduced)[0, 1]
        assert corr > 0.5


class TestRbfKernel:
    def test_identical_rows_give_all_ones(self):
        x = np.tile(np.arange(4.0), (3, 1))
        np.testing.assert_array_equal(rbf_kernel(x, 2.0), np.ones((3, 3)))

    def test_distance_two_sigma_sq_gives_inverse_e(self):
        sigma_sq = 1.5
        x = np.zeros((2, 4))
        x[1, 0] = np.sqrt(2.0 * sigma_sq)
        k = rbf_kernel(x, sigma_sq)
        assert k[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(3)
        k = rbf_kernel(rng.standard_normal((6, 5)), 0.7)
        assert np.array_equal(k, k.T)
        assert np.array_equal(np.diag(k), np.ones(6))
        assert np.all((k > 0) & (k <= 1))

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            rbf_kernel(np.zeros((2, 2)), 0.0)

    @pytest.mark.parametrize("case", sorted(descriptor_cases()))
    def test_matches_difference_formula(self, case):
        x = descriptor_cases()[case]
        k = rbf_kernel(x, 0.7)
        np.testing.assert_allclose(k, np.exp(-difference_sq_dists(x) / 1.4), rtol=0, atol=1e-14)
        assert np.array_equal(k, k.T)
        assert np.array_equal(np.diag(k), np.ones(x.shape[0]))
        assert np.all(k <= 1.0)


class TestSquaredDistances:
    @pytest.mark.parametrize("case", sorted(descriptor_cases()))
    def test_matches_difference_formula(self, case):
        x = descriptor_cases()[case]
        d = _sq_dists(x)
        # Gram rounding is absolute, on the scale of the squared row norms.
        scale = max(1.0, float(np.max(np.sum(x * x, axis=1))))
        reference = difference_sq_dists(x)
        np.testing.assert_allclose(d, reference, rtol=1e-12, atol=1e-14 * scale)
        assert np.all(d >= 0.0)
        assert np.all(d[reference == 0.0] == 0.0)  # the diagonal and duplicate rows


class TestMedianBandwidth:
    def test_collapsed_inputs_hit_floor(self):
        x = np.ones((3, 4))
        assert median_bandwidth(x, x) == 1e-12

    def test_pooled_even_count_median(self):
        # two rows at squared distance 4 and two at squared distance 2
        xc = np.zeros((2, 3))
        xc[1, 0] = 2.0
        xt = np.zeros((2, 3))
        xt[1, 0] = np.sqrt(2.0)
        assert median_bandwidth(xc, xt) == pytest.approx(3.0, rel=1e-12)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(8)
        xc, xt = rng.standard_normal((2, 6, 5))
        base = median_bandwidth(xc, xt)
        scaled = median_bandwidth(2.5 * xc, 2.5 * xt)
        assert scaled == pytest.approx(2.5**2 * base, rel=1e-12)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            median_bandwidth(np.zeros((1, 4)), np.zeros((3, 4)))

    @pytest.mark.parametrize("case", sorted(descriptor_cases()))
    def test_matches_difference_formula(self, case):
        x = descriptor_cases()[case]
        y = np.random.default_rng(14).standard_normal(x.shape)
        for xc, xt in ((x, x), (x, y), (y, x)):
            assert median_bandwidth(xc, xt) == pytest.approx(
                difference_bandwidth(xc, xt), rel=1e-12, abs=1e-14
            )

    def test_unequal_row_counts(self):
        rng = np.random.default_rng(15)
        xc, xt = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        # 3 + 10 pooled distances: the median is the 7th smallest.
        expected = difference_bandwidth(xc, xt)
        assert median_bandwidth(xc, xt) == pytest.approx(expected, rel=1e-12)
        assert median_bandwidth(xt, xc) == median_bandwidth(xc, xt)


class TestHsicEstimate:
    def test_constant_branch_scores_zero(self):
        rng = np.random.default_rng(0)
        kc = random_psd(rng, 6)
        assert hsic_estimate(kc, np.ones((6, 6))) == 0.0

    def test_self_dependence_nonnegative(self):
        rng = np.random.default_rng(1)
        k = random_psd(rng, 8)
        assert hsic_estimate(k, k) >= 0.0

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            c = int(rng.integers(2, 65))
            kc, kt = random_psd(rng, c), random_psd(rng, c)
            estimate = hsic_estimate(kc, kt)
            oracle = trace_form_oracle(kc, kt)
            assert estimate == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    def test_rejects_small_or_mismatched(self):
        with pytest.raises(ValueError):
            hsic_estimate(np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(ValueError):
            hsic_estimate(np.ones((3, 3)), np.ones((4, 4)))
        with pytest.raises(ValueError):
            hsic_estimate(np.ones((2, 3)), np.ones((2, 3)))


class TestGateWeight:
    @given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    @settings(max_examples=200)
    def test_weight_strictly_inside_unit_interval(self, hsic):
        w = gate_weight(hsic, GateConfig())
        assert 0.0 < w < 1.0

    def test_zero_score_gives_half(self):
        assert gate_weight(0.0, GateConfig()) == 0.5

    def test_strictly_increasing_in_score(self):
        cfg = GateConfig()
        scores = np.linspace(-5.0, 5.0, 41)
        weights = [gate_weight(s, cfg) for s in scores]
        assert all(a < b for a, b in zip(weights, weights[1:]))


class TestFuse:
    def test_identical_branches_fixed_point(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((2, 6, 40))
        out = fuse(BranchPair(f_cross=f, f_topoa=f.copy()))
        np.testing.assert_allclose(out, f, rtol=1e-12)

    def test_forced_zero_score_blend(self):
        # A channel-constant branch collapses its kernel to all-ones, so
        # the centered product vanishes and w = 0.5 exactly.
        rng = np.random.default_rng(5)
        ft = rng.standard_normal((1, 5, 30))
        fc = np.tile(rng.standard_normal((1, 1, 30)), (1, 5, 1))
        pair = BranchPair(f_cross=fc, f_topoa=ft)
        out, diags = fuse_with_diagnostics(pair, GateConfig())
        assert diags[0].hsic == 0.0
        assert diags[0].w == 0.5
        np.testing.assert_allclose(out, 0.4 * fc + 0.6 * ft, rtol=1e-12, atol=1e-14)

    def test_full_residual_returns_topoa(self):
        rng = np.random.default_rng(6)
        fc, ft = rng.standard_normal((2, 1, 4, 25))
        out = fuse(BranchPair(f_cross=fc, f_topoa=ft), GateConfig(rho=1.0))
        np.testing.assert_allclose(out, ft, rtol=0, atol=0)

    def test_output_within_convex_envelope(self):
        rng = np.random.default_rng(7)
        fc, ft = rng.standard_normal((2, 2, 4, 50))
        out = fuse(BranchPair(f_cross=fc, f_topoa=ft))
        lower = np.minimum(fc, ft)
        upper = np.maximum(fc, ft)
        slack = 1e-12 * np.maximum(np.abs(lower), np.abs(upper))
        assert np.all(out >= lower - slack)
        assert np.all(out <= upper + slack)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        pair = BranchPair(
            f_cross=rng.standard_normal((2, 4, 64)),
            f_topoa=rng.standard_normal((2, 4, 64)),
        )
        cfg = GateConfig(seed=21)
        out1, diag1 = fuse_with_diagnostics(pair, cfg)
        out2, diag2 = fuse_with_diagnostics(pair, cfg)
        assert np.array_equal(out1, out2)
        assert diag1 == diag2

    def test_per_item_gating_is_independent(self):
        rng = np.random.default_rng(9)
        fc, ft = rng.standard_normal((2, 3, 4, 32))
        fc[2] = ft[2] + 0.1 * fc[2]  # a strongly dependent item among two weak ones
        out, diags = fuse_with_diagnostics(BranchPair(f_cross=fc, f_topoa=ft), GateConfig())
        assert len({d.sigma_sq for d in diags}) == 3
        assert len({d.w for d in diags}) == 3
        for b in range(3):
            alone, (diag,) = fuse_with_diagnostics(
                BranchPair(f_cross=fc[b : b + 1], f_topoa=ft[b : b + 1]), GateConfig()
            )
            assert np.array_equal(out[b], alone[0])
            assert diags[b] == diag

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BranchPair(f_cross=np.zeros((1, 2, 3)), f_topoa=np.zeros((1, 2, 4)))

    def test_single_channel_rejected(self):
        with pytest.raises(ValueError):
            fuse(BranchPair(f_cross=np.zeros((1, 1, 8)), f_topoa=np.zeros((1, 1, 8))))


class TestGateConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d_proj": 0},
            {"temperature": 0.0},
            {"temperature": -1.0},
            {"rho": -0.1},
            {"rho": 1.1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GateConfig(**kwargs)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError):
            GateConfig(alpha=alpha)
