"""Gate math: projection, kernels, bandwidth, dependence score, fusion."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toposcan import (
    FeatureMap,
    GridShape,
    build_cross_indices,
    build_topoa_indices,
    default_params,
    multi_direction_scan,
)
from toposcan.hsic_gate import (
    _SKETCHES,
    BranchPair,
    GateConfig,
    _bandwidth,
    _hsic,
    _rbf,
    _sketch,
    _sq_dists,
    _unit_rows,
    effective_projection_width,
    fuse_with_diagnostics,
    gate_weight,
    projection_matrix,
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


def gate_kernel(x, sigma_sq):
    """The gate's kernel of one (C, k) descriptor matrix."""
    return _rbf(_sq_dists(x), sigma_sq)


def gate_bandwidth(xc, xt):
    """The gate's shared bandwidth of one pair of descriptor matrices."""
    return float(_bandwidth(_sq_dists(xc), _sq_dists(xt)))


def difference_bandwidth(xc, xt):
    """Reference median heuristic over the pooled off-diagonal distances."""
    pooled = [difference_sq_dists(x)[np.triu_indices(x.shape[0], k=1)] for x in (xc, xt)]
    return max(float(np.median(np.concatenate(pooled))), 1e-12)


def median_reference(dc, dt):
    """Floored median of the pooled upper-triangle entries of two (..., n, n) stacks,
    extracted by ``np.triu_indices`` and taken by ``np.median``."""
    pooled = np.concatenate([d[(..., *np.triu_indices(d.shape[-1], k=1))] for d in (dc, dt)], -1)
    return np.maximum(np.median(pooled, axis=-1), 1e-12)


def projection_reference(length, width, seed):
    """The dense sign sketch of a fresh draw from its documented generator."""
    draw = np.random.default_rng([seed, width]).integers(0, 2 * width, size=length)
    dense = np.zeros((length, width))
    dense[np.arange(length), draw % width] = np.where(draw < width, 1.0, -1.0)
    return dense


def project_and_normalize(features, width, seed=0):
    """The gate's unit descriptors of (..., C, L) features: one branch
    sketched and normalized by ``_sketch`` and ``_unit_rows``, its signs
    scaled by 2^-k with 2^k >= L as the gate scales them."""
    features = np.asarray(features, dtype=np.float64)
    columns, signs = _sketch(features.shape[-1], width, seed)
    k = (features.shape[-1] - 1).bit_length()
    return _unit_rows(features * np.ldexp(signs, -k), columns, width, k)


def unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


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
        out = project_and_normalize(np.zeros((1, 4, 32)), 8, seed=0)
        assert np.array_equal(out, np.zeros((1, 4, 8)))
        assert np.all(np.isfinite(out))

    def test_one_hot_maps_to_its_signed_column(self):
        length, width = 16, 8
        p = projection_matrix(length, width, seed=3)
        for position in range(length):
            f = np.zeros((1, length))
            f[0, position] = 2.0
            out = project_and_normalize(f, width, seed=3)
            assert np.array_equal(out[0], p[position])

    def test_rows_have_unit_norm(self):
        rng = np.random.default_rng(0)
        out = project_and_normalize(rng.standard_normal((3, 5, 64)), 16, seed=1)
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
        assert np.array_equal(a, b)
        assert not a.flags.writeable
        c = projection_matrix(128, 32, seed=10)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize(
        "seed, order",
        [(101, "increasing"), (102, "decreasing"), (103, "shuffled")],
    )
    def test_every_length_is_a_prefix_of_one_draw(self, seed, order):
        width, lengths = 17, list(range(1, 400, 7))
        if order == "decreasing":
            lengths.reverse()
        elif order == "shuffled":
            np.random.default_rng(seed).shuffle(lengths)
        reference = projection_reference(max(lengths), width, seed)
        for length in lengths:
            p = projection_matrix(length, width, seed)
            assert np.array_equal(p, reference[:length])
            assert not p.flags.writeable
            assert p.flags.c_contiguous

    def test_store_keeps_one_sketch_per_width_and_seed(self):
        before = set(_SKETCHES)
        for length in range(1, 301):
            projection_matrix(length, 8, seed=77)
            project_and_normalize(np.ones((2, length)), 8, seed=77)
        assert set(_SKETCHES) - before <= {(8, 77)}
        columns, signs = _SKETCHES[(8, 77)]
        assert columns.shape == signs.shape == (300,)
        assert not columns.flags.writeable and not signs.flags.writeable

    @pytest.mark.parametrize(
        "length, width, seed", [(1, 8, 0), (7, 8, 5), (300, 17, 2), (4096, 64, 0)]
    )
    def test_dense_sketch_has_one_sign_per_row(self, length, width, seed):
        p = projection_matrix(length, width, seed)
        assert p.shape == (length, width)
        assert np.array_equal(np.count_nonzero(p, axis=1), np.ones(length))
        assert np.array_equal(np.abs(p).sum(axis=1), np.ones(length))
        assert not p.flags.writeable
        assert p.flags.c_contiguous

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 255, 256, 16384])
    def test_bincount_sketch_equals_dense_product(self, length):
        width = effective_projection_width(64, length)
        f = np.random.default_rng(length).standard_normal((2, 3, length))
        reference = unit_rows(f @ projection_matrix(length, width, seed=6) / np.sqrt(length))
        # Descriptor rows have unit norm, so atol is relative to the row.
        np.testing.assert_allclose(
            project_and_normalize(f, width, seed=6), reference, rtol=1e-12, atol=1e-12
        )

    def test_threads_share_one_key(self):
        width, seed = 24, 4242
        lengths = [int(n) for n in np.random.default_rng(5).integers(1, 2000, size=64)]
        reference = projection_reference(max(lengths), width, seed)

        def requests(thread):
            order = np.random.default_rng(thread).permutation(lengths)
            return [(n, projection_matrix(int(n), width, seed)) for n in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads' check-then-store
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                batches = list(pool.map(requests, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        results = [pair for batch in batches for pair in batch]
        assert len(results) == 8 * len(lengths)
        for length, p in results:
            assert np.array_equal(p, reference[:length])

    @pytest.mark.parametrize(
        "shape, width",
        [((1, 2, 0), 8), ((1, 2, 10), 0), ((1, 2, 10), 2.5), ((1, 2, 10), True)],
    )
    def test_rejects_empty_length_and_bad_width(self, shape, width):
        with pytest.raises(ValueError, match="must be"):
            project_and_normalize(np.zeros(shape), width)

    @pytest.mark.parametrize(
        "args", [(5, 8, 1.5), (2.5, 8), (5, 8.0), (0, 8), (5, 0), (5, 8, True)]
    )
    def test_projection_takes_integers_only(self, args):
        with pytest.raises(ValueError, match="must be"):
            projection_matrix(*args)

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_huge_rows_normalize_without_overflow(self, scale):
        # Above about 1e154 a projected row's squared entries overflow, so
        # the norm must come from a scaled copy of the row. An overflow
        # RuntimeWarning fails the test through the pytest configuration.
        rng = np.random.default_rng(8)
        f = rng.standard_normal((2, 6, 256))
        big = project_and_normalize(f * scale, 64)
        np.testing.assert_allclose(big, project_and_normalize(f, 64), rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.linalg.norm(big, axis=-1), 1.0, rtol=1e-12)

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

    @pytest.mark.parametrize(
        "side, channels, batch", [(128, 4, 16), (64, 8, 4), (32, 16, 2), (16, 32, 1), (8, 32, 1)]
    )
    def test_sketch_distorts_scan_descriptors_no_more_than_gaussian(self, side, channels, batch):
        # Stage shapes of the forward, with enough items for about 200
        # channel pairs per stage. Distances are between the gate's unit
        # descriptors and between the unit rows they stand for.
        rng = np.random.default_rng(side)
        shape = GridShape(side, side)
        x = FeatureMap(rng.standard_normal((batch, channels, shape.length)), shape)
        stacks = np.stack([
            multi_direction_scan(x, build(shape), default_params()).data
            for build in (build_topoa_indices, build_cross_indices)
        ])
        width = effective_projection_width(64, shape.length)
        gaussian = rng.standard_normal((shape.length, width))
        upper = np.triu_indices(channels, k=1)

        def dists(x):
            return np.sqrt(_sq_dists(x))[(..., *upper)]

        exact = dists(unit_rows(stacks))

        def median_error(descriptors):
            return np.median(np.abs(dists(descriptors) - exact) / exact)

        sketch_error = median_error(project_and_normalize(stacks, width))
        gaussian_error = median_error(unit_rows(stacks @ gaussian))
        assert sketch_error <= 1.5 * gaussian_error


class TestRbfKernel:
    def test_identical_rows_give_all_ones(self):
        x = np.tile(np.arange(4.0), (3, 1))
        np.testing.assert_array_equal(gate_kernel(x, 2.0), np.ones((3, 3)))

    def test_distance_two_sigma_sq_gives_inverse_e(self):
        sigma_sq = 1.5
        x = np.zeros((2, 4))
        x[1, 0] = np.sqrt(2.0 * sigma_sq)
        k = gate_kernel(x, sigma_sq)
        assert k[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(3)
        k = gate_kernel(rng.standard_normal((6, 5)), 0.7)
        assert np.array_equal(k, k.T)
        assert np.array_equal(np.diag(k), np.ones(6))
        assert np.all((k > 0) & (k <= 1))

    @pytest.mark.parametrize("case", sorted(descriptor_cases()))
    def test_matches_difference_formula(self, case):
        x = descriptor_cases()[case]
        k = gate_kernel(x, 0.7)
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
        assert gate_bandwidth(x, x) == 1e-12

    def test_pooled_even_count_median(self):
        # two rows at squared distance 4 and two at squared distance 2
        xc = np.zeros((2, 3))
        xc[1, 0] = 2.0
        xt = np.zeros((2, 3))
        xt[1, 0] = np.sqrt(2.0)
        assert gate_bandwidth(xc, xt) == pytest.approx(3.0, rel=1e-12)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(8)
        xc, xt = rng.standard_normal((2, 6, 5))
        base = gate_bandwidth(xc, xt)
        scaled = gate_bandwidth(2.5 * xc, 2.5 * xt)
        assert scaled == pytest.approx(2.5**2 * base, rel=1e-12)

    @pytest.mark.parametrize("case", sorted(descriptor_cases()))
    def test_matches_difference_formula(self, case):
        x = descriptor_cases()[case]
        y = np.random.default_rng(14).standard_normal(x.shape)
        for xc, xt in ((x, x), (x, y), (y, x)):
            assert gate_bandwidth(xc, xt) == pytest.approx(
                difference_bandwidth(xc, xt), rel=1e-12, abs=1e-14
            )

    def test_unequal_row_counts(self):
        rng = np.random.default_rng(15)
        xc, xt = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        # 3 + 10 pooled distances: the median is the 7th smallest.
        expected = difference_bandwidth(xc, xt)
        assert gate_bandwidth(xc, xt) == pytest.approx(expected, rel=1e-12)
        assert gate_bandwidth(xt, xc) == gate_bandwidth(xc, xt)


class TestBandwidthByPartition:
    # Row counts (c, t) pool c(c-1)/2 + t(t-1)/2 distances: (2, 2) pools 2,
    # (2, 4) 7, (3, 4) 9, (5, 5) 20, (2, 9) 37, (32, 32) 992.
    COUNTS = [(2, 2), (2, 3), (2, 4), (3, 4), (4, 3), (5, 5), (2, 9), (7, 6), (32, 32)]

    @pytest.mark.parametrize("c,t", COUNTS)
    def test_median_bandwidth_equals_reference_bitwise(self, c, t):
        rng = np.random.default_rng(c * 100 + t)
        for _ in range(5):
            xc, xt = rng.standard_normal((c, 5)), rng.standard_normal((t, 5))
            expected = float(median_reference(_sq_dists(xc), _sq_dists(xt)))
            assert gate_bandwidth(xc, xt) == expected

    @pytest.mark.parametrize("c,t", COUNTS)
    def test_duplicate_rows_equal_reference_bitwise(self, c, t):
        # Repeated rows put zeros off the diagonal, tied with the diagonal's.
        rng = np.random.default_rng(c * 100 + t + 1)
        for repeats in (1, 2, max(c, t)):
            xc = rng.standard_normal((repeats, 4))[rng.integers(0, repeats, c)]
            xt = rng.standard_normal((repeats, 4))[rng.integers(0, repeats, t)]
            expected = float(median_reference(_sq_dists(xc), _sq_dists(xt)))
            assert gate_bandwidth(xc, xt) == expected

    @pytest.mark.parametrize("channels", [2, 3, 4, 8, 16, 32])
    def test_batch_equals_reference_bitwise(self, channels):
        rng = np.random.default_rng(channels)
        xc, xt = rng.standard_normal((2, 6, channels, 9))
        xt[1] = xt[1, rng.integers(0, 2, channels)]  # one item with duplicate rows
        dc, dt = _sq_dists(unit_rows(xc)), _sq_dists(unit_rows(xt))
        got = _bandwidth(dc, dt)
        assert got.shape == (6,)
        assert np.array_equal(got, median_reference(dc, dt))
        for item in range(6):
            assert got[item] == _bandwidth(dc[item], dt[item])


class TestHsicEstimate:
    def test_constant_branch_scores_zero(self):
        rng = np.random.default_rng(0)
        kc = random_psd(rng, 6)
        assert _hsic(np.stack((kc, np.ones((6, 6))))) == 0.0

    def test_self_dependence_nonnegative(self):
        rng = np.random.default_rng(1)
        k = random_psd(rng, 8)
        assert _hsic(np.stack((k, k))) >= 0.0

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            c = int(rng.integers(2, 65))
            kc, kt = random_psd(rng, c), random_psd(rng, c)
            estimate = _hsic(np.stack((kc, kt)))
            oracle = trace_form_oracle(kc, kt)
            assert estimate == pytest.approx(oracle, rel=1e-10, abs=1e-12)


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

    @pytest.mark.parametrize(
        "hsic, cfg",
        [
            (float("nan"), GateConfig()),
            (float("inf"), GateConfig(alpha=0.0)),
            (float("inf"), GateConfig()),
            (-float("inf"), GateConfig()),
        ],
        ids=["nan", "inf-alpha-0", "inf", "-inf"],
    )
    def test_rejects_non_finite_score(self, hsic, cfg):
        with pytest.raises(ValueError, match="hsic must be finite"):
            gate_weight(hsic, cfg)

    def test_bitwise_scipy_expit(self):
        from scipy.special import expit

        unit = GateConfig(alpha=1.0, temperature=1.0)
        scores = np.random.default_rng(17).uniform(-50.0, 50.0, 100_000).tolist()
        cases = [(h, unit) for h in scores + [0.0, -0.0]]
        # Extreme z = alpha * hsic / temperature: exact through alpha, and
        # overflowing to +-inf through a subnormal temperature.
        for z in (0.0, 5e-324, 709.78, 710.0, 745.0, 746.0, 1e308):
            cases += [(1.0, GateConfig(alpha=signed, temperature=1.0)) for signed in (z, -z)]
        for hsic in (1.0, -1.0, 1e-300, -1e-300):
            cases.append((hsic, GateConfig(alpha=1.0, temperature=5e-324)))
        z = np.array([cfg.alpha * h / cfg.temperature for h, cfg in cases])
        assert np.isinf(z).any() and (z == 5e-324).any() and (z == -746.0).any()
        weights = np.array([gate_weight(h, cfg) for h, cfg in cases])
        assert np.array_equal(weights.view(np.uint64), expit(z).view(np.uint64))

    @pytest.mark.parametrize(
        "cfg", [GateConfig(), GateConfig(alpha=40.0, temperature=0.01, rho=0.7)],
        ids=["default", "steep"],
    )
    @pytest.mark.parametrize("side, channels", [(128, 4), (64, 8), (32, 16), (16, 32)])
    def test_fuse_blends_bitwise_as_scipy_expit(self, side, channels, cfg):
        # The fixed_warm stages of a 512x512 input: strides 4, 8, 16 and 32.
        from scipy.special import expit

        rng = np.random.default_rng(side)
        fc = rng.standard_normal((1, channels, side * side))
        ft = 0.5 * fc + rng.standard_normal(fc.shape)
        out, diags = fuse_with_diagnostics(BranchPair(f_cross=fc, f_topoa=ft), cfg)
        w = expit(cfg.alpha * np.array([d.hsic for d in diags]) / cfg.temperature)
        a = cfg.rho + (1.0 - cfg.rho) * w[:, None, None]
        reference = a * ft + (1.0 - a) * fc
        assert np.array_equal(np.array([d.w for d in diags]).view(np.uint64), w.view(np.uint64))
        assert np.array_equal(out.view(np.uint64), reference.view(np.uint64))


class TestFuse:
    def test_identical_branches_fixed_point(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((2, 6, 40))
        out, _ = fuse_with_diagnostics(BranchPair(f_cross=f, f_topoa=f.copy()))
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

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_diagnostics_are_scale_invariant(self, scale):
        fc, ft = np.random.default_rng(0).standard_normal((2, 1, 6, 256))
        _, unit = fuse_with_diagnostics(BranchPair(f_cross=fc, f_topoa=ft))
        _, big = fuse_with_diagnostics(BranchPair(f_cross=fc * scale, f_topoa=ft * scale))
        for name in ("hsic", "sigma_sq", "w"):
            np.testing.assert_allclose(
                getattr(big[0], name), getattr(unit[0], name), rtol=1e-12, atol=0
            )

    @pytest.mark.parametrize("scale", [1e307, 1e308])
    def test_diagnostics_hold_near_the_float_max(self, scale):
        # Features signed like their sketch column add up without cancelling,
        # so the 64 in each column sum past the float max unless the sketch
        # scales them down first. An overflow or invalid-value RuntimeWarning
        # fails the test through the pytest configuration.
        length = 4096
        signs = projection_matrix(length, 64).sum(axis=-1)
        fc, ft = np.random.default_rng(9).uniform(0.5, 1.0, (2, 2, 6, length)) * signs
        _, unit = fuse_with_diagnostics(BranchPair(f_cross=fc, f_topoa=ft))
        _, big = fuse_with_diagnostics(BranchPair(f_cross=fc * scale, f_topoa=ft * scale))
        for item in range(2):
            for name in ("hsic", "sigma_sq", "w"):
                np.testing.assert_allclose(
                    getattr(big[item], name), getattr(unit[item], name), rtol=1e-9, atol=0
                )

    def test_full_residual_returns_topoa(self):
        rng = np.random.default_rng(6)
        fc, ft = rng.standard_normal((2, 1, 4, 25))
        out, _ = fuse_with_diagnostics(BranchPair(f_cross=fc, f_topoa=ft), GateConfig(rho=1.0))
        np.testing.assert_allclose(out, ft, rtol=0, atol=0)

    def test_output_within_convex_envelope(self):
        rng = np.random.default_rng(7)
        fc, ft = rng.standard_normal((2, 2, 4, 50))
        out, _ = fuse_with_diagnostics(BranchPair(f_cross=fc, f_topoa=ft))
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

    @pytest.mark.parametrize("collapse", ["length_one", "proportional_channels"])
    def test_collapsed_descriptors_match_difference_reference(self, collapse):
        # Every descriptor is +/- one unit vector, so "equal" rows differ by
        # rounding only; the gate must score them as the exact formula does.
        rng = np.random.default_rng(16)
        for _ in range(40):
            b, c = int(rng.integers(1, 4)), int(rng.integers(2, 9))
            length = 1 if collapse == "length_one" else int(rng.integers(2, 300))

            def stack():
                scales = rng.standard_normal((b, c, 1)) * 10.0 ** rng.uniform(-3, 3, (b, c, 1))
                return scales * rng.standard_normal((b, 1, length))

            fc, ft = stack(), stack()
            _, diags = fuse_with_diagnostics(BranchPair(f_cross=fc, f_topoa=ft), GateConfig())
            width = effective_projection_width(64, length)
            for item, diag in enumerate(diags):
                xc, xt = (project_and_normalize(f[item], width) for f in (fc, ft))
                sigma_sq = difference_bandwidth(xc, xt)
                kc, kt = (np.exp(-difference_sq_dists(x) / (2 * sigma_sq)) for x in (xc, xt))
                assert diag.sigma_sq == pytest.approx(sigma_sq, rel=1e-12)
                assert diag.hsic == pytest.approx(trace_form_oracle(kc, kt), rel=1e-10, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BranchPair(f_cross=np.zeros((1, 2, 3)), f_topoa=np.zeros((1, 2, 4)))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one batch item"):
            BranchPair(f_cross=np.zeros((0, 2, 4)), f_topoa=np.zeros((0, 2, 4)))

    def test_single_channel_rejected(self):
        with pytest.raises(ValueError):
            fuse_with_diagnostics(
                BranchPair(f_cross=np.zeros((1, 1, 8)), f_topoa=np.zeros((1, 1, 8)))
            )


def per_branch_descriptors(features, width, seed):
    """One branch's sketch and row normalization on its own, the norm taken
    by np.linalg.norm of the rescaled rows."""
    columns, signs = _sketch(features.shape[-1], width, seed)
    rows = math.prod(features.shape[:-1])
    index = (np.arange(rows)[:, None] * width + columns).ravel()
    sums = np.bincount(index, (features * signs).ravel(), minlength=rows * width)
    projected = sums.reshape(*features.shape[:-1], width) / np.sqrt(features.shape[-1])
    _, exponent = np.frexp(np.max(np.abs(projected), axis=-1, keepdims=True))
    scaled = np.ldexp(projected, -exponent)
    norms = np.linalg.norm(scaled, axis=-1, keepdims=True)
    zero = np.ldexp(norms, exponent) < 1e-12
    return np.where(zero, 0.0, scaled / np.where(zero, 1.0, norms))


def per_branch_fuse(fc, ft, cfg):
    """The fused map and per-item (hsic, sigma_sq, w), each branch sketched,
    distanced and kernelled on its own and each kernel centered by np.mean."""

    def center(k):
        cols, rows = k.mean(axis=-2, keepdims=True), k.mean(axis=-1, keepdims=True)
        return k - cols - rows + k.mean(axis=(-2, -1), keepdims=True)

    width = effective_projection_width(cfg.d_proj, fc.shape[-1])
    dc, dt = (_sq_dists(per_branch_descriptors(f, width, cfg.seed)) for f in (fc, ft))
    sigma_sq = median_reference(dc, dt)
    kc, kt = _rbf(dc, sigma_sq), _rbf(dt, sigma_sq)
    scores = np.sum(center(kc) * center(kt), axis=(-2, -1)) / (fc.shape[1] - 1) ** 2
    items = [(h, s, gate_weight(h, cfg)) for h, s in zip(scores.tolist(), sigma_sq.tolist())]
    a = cfg.rho + (1.0 - cfg.rho) * np.array([w for _, _, w in items])[:, None, None]
    return a * ft + (1.0 - a) * fc, items


class TestStackedGate:
    """Both branches share one (2, B, C, .) stack through the gate; every
    output must equal the per-branch composition bitwise."""

    @pytest.mark.parametrize("seed", [0, 77])
    @pytest.mark.parametrize(
        "shape",
        [
            (1, 4, 128 * 128), (1, 8, 64 * 64), (1, 16, 32 * 32), (1, 32, 16 * 16),
            (1, 4, 97 * 97), (1, 8, 49 * 49), (1, 16, 25 * 25), (1, 32, 13 * 13),
            (3, 2, 135), (3, 5, 135), (2, 3, 1), (2, 4, 300),
        ],
    )
    def test_equals_per_branch_reference_bitwise(self, shape, seed):
        cfg = GateConfig(seed=seed)
        rng = np.random.default_rng([seed, *shape])
        width = effective_projection_width(cfg.d_proj, shape[-1])
        for scale in (1e-200, 1.0, 1e200):
            for zero_row in (False, True):
                fc, ft = scale * rng.standard_normal((2, *shape))
                if zero_row:
                    fc[-1, 1] = 0.0  # all zero in one branch only
                out, diags = fuse_with_diagnostics(BranchPair(f_cross=fc, f_topoa=ft), cfg)
                reference, items = per_branch_fuse(fc, ft, cfg)
                assert [(d.hsic, d.sigma_sq, d.w) for d in diags] == items
                assert np.array_equal(out.view(np.uint64), reference.view(np.uint64))
                for f in (fc, ft):
                    got = project_and_normalize(f, width, seed)
                    want = per_branch_descriptors(f, width, seed)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_two_threads_match_serial_calls_bitwise(self):
        # A seed no other test draws, so both threads race to fill the store.
        cfg = GateConfig(seed=90210)
        rng = np.random.default_rng(19)
        pairs = [
            BranchPair(f_cross=rng.standard_normal(shape), f_topoa=rng.standard_normal(shape))
            for shape in ((1, 4, 300), (2, 8, 500))
        ]
        results = [[], []]

        def calls(slot):
            for _ in range(200):
                results[slot].append(fuse_with_diagnostics(pairs[slot], cfg))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=calls, args=(slot,)) for slot in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for pair, got in zip(pairs, results):
            serial_out, serial_diags = fuse_with_diagnostics(pair, cfg)
            assert len(got) == 200
            for out, diags in got:
                assert np.array_equal(out.view(np.uint64), serial_out.view(np.uint64))
                assert diags == serial_diags


class TestGateConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d_proj": 0},
            {"temperature": 0.0},
            {"temperature": -1.0},
            {"rho": -0.1},
            {"rho": 1.1},
            {"temperature": "x"},
            {"rho": "x"},
            {"alpha": "x"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GateConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d_proj": 100.5},
            {"d_proj": 64.0},
            {"d_proj": True},
            {"seed": 1.5},
            {"seed": False},
            {"seed": "3"},
        ],
    )
    def test_takes_integers_only(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            GateConfig(**kwargs)

    def test_numpy_integers_become_ints(self):
        cfg = GateConfig(d_proj=np.int64(32), seed=np.uint32(7))
        assert (cfg.d_proj, cfg.seed) == (32, 7)
        assert type(cfg.d_proj) is int and type(cfg.seed) is int

    def test_reals_become_floats(self):
        cfg = GateConfig(alpha=1, temperature=np.float32(2.0), rho=np.int64(0))
        assert (cfg.alpha, cfg.temperature, cfg.rho) == (1.0, 2.0, 0.0)
        assert all(type(v) is float for v in (cfg.alpha, cfg.temperature, cfg.rho))

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError):
            GateConfig(alpha=alpha)

    @pytest.mark.parametrize(
        "temperature", [float("nan"), float("inf"), -float("inf"), 1e999],
        ids=["nan", "inf", "-inf", "1e999"],
    )
    def test_rejects_non_finite_temperature(self, temperature):
        with pytest.raises(ValueError, match="temperature must be finite"):
            GateConfig(temperature=temperature)
