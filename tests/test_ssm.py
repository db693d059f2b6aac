"""Recurrence correctness against closed forms and the unrolled-kernel oracle."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from toposcan.hsic_gate import BranchPair
from toposcan.scan_order import GridShape, IndexPair, build_cross_indices, build_topoa_indices
from toposcan.ssm import (
    CHUNK,
    FeatureMap,
    SsmParams,
    _scan_last_axis,
    default_params,
    discretize,
    multi_direction_scan,
    scan_sequence,
)


# c = 0 and d = 1: the scan returns its input bit-exactly.
PASSTHROUGH = SsmParams(
    a=[-1.0, -2.0, -3.0, -4.0], b=np.ones(4), c=np.zeros(4), d=1.0, delta=0.1
)


def unrolled_kernel_oracle(x, params):
    """Brute-force y[t] = sum_{s<=t} c . (a_bar^(t-s) * b_bar) x[s] + d x[t]."""
    a_bar, b_bar = discretize(params)
    T = len(x)
    y = np.zeros(T)
    for t in range(T):
        acc = 0.0
        for s in range(t + 1):
            acc += float(params.c @ (a_bar ** (t - s) * b_bar)) * x[s]
        y[t] = acc + params.d * x[t]
    return y


def step_recurrence(x, params):
    """h[k] = a_bar h[k-1] + b_bar x[k], y[k] = c . h[k] + d x[k], one step at a time."""
    a_bar, b_bar = discretize(params)
    h = np.zeros(params.state_dim)
    y = np.empty(len(x))
    for k, value in enumerate(x):
        h = a_bar * h + b_bar * value
        y[k] = params.c @ h + params.d * value
    return y


def unrolled_kernel_matrix(length, params):
    """Dense K[t, s] = c . (a_bar^(t-s) * b_bar) for s <= t, plus d on the diagonal."""
    a_bar, b_bar = discretize(params)
    lag = np.subtract.outer(np.arange(length), np.arange(length))
    impulse = (a_bar ** np.arange(length)[:, None] * b_bar) @ params.c
    return np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0) + params.d * np.eye(length)


def unrolled_kernel_convolution(x, params):
    """The unrolled kernel applied as a direct convolution: (K @ x)[t] = sum_s K[t - s] x[s].

    Same kernel as ``unrolled_kernel_matrix`` without its (T, T) matrix, for
    sequences too long for either that matrix or the Python loop.
    """
    a_bar, b_bar = discretize(params)
    impulse = (a_bar ** np.arange(len(x))[:, None] * b_bar) @ params.c
    return np.convolve(x, impulse)[: len(x)] + params.d * x


def gather_by_inverse_reference(fm, pair, params):
    """Scan both ways one base sequence at a time, then restore by gathering through the inverse rows."""
    g = fm.data[..., pair.base]
    both = np.empty(g.shape)
    for index in np.ndindex(g.shape[:-1]):
        both[index] = _scan_last_axis(g[index], params, two_sided=True)
    inverse = pair.inverse[:2]
    return both[..., 0, inverse[0]] + both[..., 1, inverse[1]]


def scatter_through_base_reference(fm, pair, params):
    """Gather by ``np.take`` on the base rows, scan both ways, scatter each
    row back through its base row into its own buffer, then add."""
    g = np.take(fm.data, pair.base, axis=-1)
    both = _scan_last_axis(g, params, two_sided=True)
    merged, rest = np.empty(fm.data.shape), np.empty(fm.data.shape)
    merged[..., pair.base[0]] = both[..., 0, :]
    rest[..., pair.base[1]] = both[..., 1, :]
    return merged + rest


def random_params(rng, n):
    return SsmParams(
        a=-rng.uniform(0.1, 3.0, n),
        b=rng.standard_normal(n),
        c=rng.standard_normal(n),
        d=float(rng.standard_normal()),
        delta=float(rng.uniform(0.01, 0.5)),
    )


class TestDiscretize:
    def test_small_step_approaches_identity(self):
        params = SsmParams(a=[-1.0], b=[1.0], c=[1.0], d=0.0, delta=1e-8)
        a_bar, b_bar = discretize(params)
        assert abs(a_bar[0] - 1.0) < 1e-6
        assert abs(b_bar[0]) < 1e-6

    def test_closed_form_ln2(self):
        params = SsmParams(a=[-1.0], b=[1.0], c=[1.0], d=0.0, delta=math.log(2.0))
        a_bar, b_bar = discretize(params)
        assert a_bar[0] == pytest.approx(0.5, rel=1e-14)
        assert b_bar[0] == pytest.approx(0.5, rel=1e-14)

    def test_closed_form_general(self):
        params = SsmParams(a=[-2.0], b=[3.0], c=[1.0], d=0.0, delta=1.0)
        a_bar, b_bar = discretize(params)
        assert a_bar[0] == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert b_bar[0] == pytest.approx(3.0 * (math.exp(-2.0) - 1.0) / -2.0, rel=1e-14)

    def test_params_reject_nonnegative_a(self):
        with pytest.raises(ValueError):
            SsmParams(a=[0.0], b=[1.0], c=[1.0], d=0.0, delta=0.1)
        with pytest.raises(ValueError):
            SsmParams(a=[0.5], b=[1.0], c=[1.0], d=0.0, delta=0.1)

    def test_params_reject_bad_delta(self):
        with pytest.raises(ValueError):
            SsmParams(a=[-1.0], b=[1.0], c=[1.0], d=0.0, delta=0.0)
        with pytest.raises(ValueError, match="must be a real number"):
            SsmParams(a=[-1.0], b=[1.0], c=[1.0], d=0.0, delta="0.1")

    @pytest.mark.parametrize("name", ["a", "b", "c", "d", "delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_params_reject_non_finite(self, name, value):
        kwargs = {"a": [-1.0, -2.0], "b": [1.0, 1.0], "c": [1.0, 1.0], "d": 0.0, "delta": 0.1}
        kwargs[name] = [kwargs[name][0], value] if name in ("a", "b", "c") else value
        with pytest.raises(ValueError):
            SsmParams(**kwargs)

    def test_overflowing_causal_operators_rejected(self):
        # Finite coefficients whose product c * b_bar overflows.
        params = SsmParams(a=[-1.0], b=[1e200], c=[1e200], d=0.0, delta=0.1)
        message = "^a, b, c and d give non-finite causal scan operators$"
        with pytest.raises(ValueError, match=message):
            scan_sequence(np.ones(3), params)

    def test_overflowing_two_sided_operators_rejected(self):
        # The causal kernel is finite, but its diagonal doubles past the
        # float range in kernel + kernel.T.
        params = SsmParams(a=[-1.0], b=[1.0], c=[1.0], d=1e308, delta=0.1)
        assert np.array_equal(scan_sequence(np.ones(3), params), np.full(3, 1e308))
        shape = GridShape(3, 3)
        fm = FeatureMap(np.ones((1, 1, shape.length)), shape)
        message = "^a, b, c and d give non-finite two-sided scan operators$"
        with pytest.raises(ValueError, match=message):
            multi_direction_scan(fm, build_topoa_indices(shape), params)

    def test_overflowing_decay_exponent_scans_without_warning(self):
        # delta * a overflows to -inf, so a_bar = 0 and every operator is
        # finite: the scan is d x + c b_bar x with b_bar = 1e-200.
        params = SsmParams(a=[-1e200], b=[1.0], c=[1.0], d=0.5, delta=1e200)
        x = np.random.default_rng(73).standard_normal(3 * CHUNK)
        assert np.array_equal(scan_sequence(x, params), x * 1e-200 + 0.5 * x)
        y = _scan_last_axis(x, params, two_sided=True)
        assert np.array_equal(y, x * 2e-200 + x)

    def test_discretize_overflowing_exponent_is_exact_without_warning(self):
        # delta * a is -inf in float64, so a_bar = 0 and b_bar = -1 / a * b.
        params = SsmParams(a=[-1e200], b=[1.0], c=[1.0], d=0.5, delta=1e200)
        a_bar, b_bar = discretize(params)
        assert (a_bar.tolist(), b_bar.tolist()) == ([0.0], [1e-200])

    @pytest.mark.parametrize("build", [build_topoa_indices, build_cross_indices])
    def test_overflowing_feature_map_scan_names_x(self, build):
        # Finite operators and a finite map whose scan passes the float range.
        shape = GridShape(3, 3)
        fm = FeatureMap(np.full((1, 1, shape.length), 1e308), shape)
        with pytest.raises(ValueError, match="^x overflows the scan under these params$"):
            multi_direction_scan(fm, build(shape), default_params())

    def test_overflowing_sequence_scan_names_x(self):
        with pytest.raises(ValueError, match="^x overflows the scan under these params$"):
            scan_sequence(np.full(200, 1e308), default_params())

    def test_params_copy_the_callers_arrays(self):
        # An alias made before construction writes to the caller's array
        # afterwards; neither the parameters nor their cached operators see it.
        a = np.array([-1.0, -2.0])
        alias = a[:]
        params = SsmParams(a=a, b=np.ones(2), c=np.ones(2), d=0.0, delta=0.1)
        shape = GridShape(9, 15)
        fm = FeatureMap(np.random.default_rng(0).standard_normal((1, 2, shape.length)), shape)
        pair = build_topoa_indices(shape)
        before = multi_direction_scan(fm, pair, params).data
        alias[:] = [-3.0, -4.0]
        assert a.flags.writeable
        assert np.array_equal(params.a, [-1.0, -2.0])
        rebuilt = SsmParams(a=params.a, b=params.b, c=params.c, d=0.0, delta=0.1)
        assert np.array_equal(multi_direction_scan(fm, pair, rebuilt).data, before)


class TestScanSequence:
    def test_zero_input_zero_output(self):
        y = scan_sequence(np.zeros(16), default_params())
        assert np.array_equal(y, np.zeros(16))

    def test_impulse_response_closed_form(self):
        params = default_params()
        a_bar, b_bar = discretize(params)
        x = np.zeros(10)
        x[0] = 1.0
        y = scan_sequence(x, params)
        expected = np.array(
            [float(params.c @ (a_bar**t * b_bar)) for t in range(10)]
        )
        expected[0] += params.d
        np.testing.assert_allclose(y, expected, rtol=1e-12)

    def test_matches_unrolled_kernel(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            params = SsmParams(
                a=-rng.uniform(0.1, 3.0, n),
                b=rng.standard_normal(n),
                c=rng.standard_normal(n),
                d=float(rng.standard_normal()),
                delta=float(rng.uniform(0.01, 0.5)),
            )
            x = rng.standard_normal(int(rng.integers(1, 65)))
            y = scan_sequence(x, params)
            oracle = unrolled_kernel_oracle(x, params)
            np.testing.assert_allclose(y, oracle, rtol=1e-10, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        params = default_params()
        x, z = rng.standard_normal((2, 48))
        alpha, beta = 0.7, -1.3
        combined = scan_sequence(alpha * x + beta * z, params)
        separate = alpha * scan_sequence(x, params) + beta * scan_sequence(z, params)
        np.testing.assert_allclose(combined, separate, rtol=1e-12, atol=1e-14)

    def test_scaling_input_scales_output(self):
        rng = np.random.default_rng(3)
        params = default_params()
        x = rng.standard_normal(32)
        np.testing.assert_allclose(
            scan_sequence(2.0 * x, params), 2.0 * scan_sequence(x, params), rtol=1e-13
        )

    def test_empty_sequence_gives_empty_output(self):
        y = scan_sequence(np.zeros(0), default_params())
        assert y.shape == (0,)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            scan_sequence(np.array([1.0, np.nan]), default_params())

    def test_rejects_non_1d(self):
        with pytest.raises(ValueError):
            scan_sequence(np.zeros((2, 3)), default_params())


class TestChunkBoundaries:
    """Lengths that end inside, on and just past chunk boundaries."""

    @pytest.mark.parametrize(
        "length", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1]
    )
    def test_matches_unrolled_kernel_for_every_state_count(self, length):
        rng = np.random.default_rng(length)
        for n in range(1, 9):
            params = random_params(rng, n)
            x = rng.standard_normal(length)
            y = scan_sequence(x, params)
            oracle = unrolled_kernel_oracle(x, params)
            np.testing.assert_allclose(y, oracle, rtol=1e-10, atol=1e-12)

    def test_long_sequence_matches_unrolled_kernel(self):
        rng = np.random.default_rng(1000)
        params = random_params(rng, 8)
        x = rng.standard_normal(1000)
        y = scan_sequence(x, params)
        np.testing.assert_allclose(y, unrolled_kernel_oracle(x, params), rtol=1e-10, atol=1e-12)

    def test_slow_pole_matches_step_recurrence(self):
        # a_bar = exp(-5e-4): the state decays by only ~3% per chunk, so
        # the carry across 64 chunk ends decides the result.
        params = SsmParams(a=[-0.05], b=[1.0], c=[1.0], d=0.0, delta=0.01)
        x = np.random.default_rng(17).standard_normal(4096)
        y = scan_sequence(x, params)
        np.testing.assert_allclose(y, step_recurrence(x, params), rtol=1e-10, atol=1e-12)

    def test_chunk_operators_are_cached_and_read_only(self):
        params = default_params()
        for name in ("_chunk_operators", "_two_sided_operators"):
            operators = getattr(params, name)
            assert getattr(params, name) is operators
            for arr in operators:
                assert not arr.flags.writeable


class TestTwoSidedScan:
    """The fused scan against scan(x) + scan(x[::-1])[::-1] built from its oracles."""

    @pytest.mark.parametrize(
        "length",
        [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1, 1000],
    )
    def test_matches_two_sided_unrolled_kernel(self, length):
        rng = np.random.default_rng(length + 1)
        for n in range(1, 9):
            params = random_params(rng, n)
            x = rng.standard_normal(length)
            kernel = unrolled_kernel_matrix(length, params)
            oracle = kernel @ x + (kernel @ x[::-1])[::-1]
            y = _scan_last_axis(x, params, two_sided=True)
            np.testing.assert_allclose(y, oracle, rtol=1e-10, atol=1e-12)

    def test_dense_kernel_matches_unrolled_loop(self):
        rng = np.random.default_rng(41)
        params = random_params(rng, 5)
        x = rng.standard_normal(CHUNK + 3)
        np.testing.assert_allclose(
            unrolled_kernel_matrix(len(x), params) @ x,
            unrolled_kernel_oracle(x, params),
            rtol=1e-12,
            atol=1e-14,
        )

    def test_slow_pole_matches_step_recurrence_both_ways(self):
        params = SsmParams(a=[-0.05], b=[1.0], c=[1.0], d=0.0, delta=0.01)
        x = np.random.default_rng(19).standard_normal(4096)
        oracle = step_recurrence(x, params) + step_recurrence(x[::-1], params)[::-1]
        y = _scan_last_axis(x, params, two_sided=True)
        np.testing.assert_allclose(y, oracle, rtol=1e-10, atol=1e-12)


class TestChunkStateCarry:
    """Chunk counts around the carry's blocks of 8 chunk states and its levels:
    no carry (1 chunk), one block (2, 8, 9), two levels (64, 65), three (74, 8^3 + 2)."""

    CHUNK_COUNTS = [1, 2, 8, 9, 64, 65, 74, 8**3 + 2]
    # a = -1e-4 decays by exp(-6.4e-4) ~ 0.9994 per chunk, so states carry
    # across every chunk end; the faster states decay within a few chunks.
    SLOW = SsmParams(
        a=[-1e-4, -0.3, -2.0], b=[1.0, 0.5, -1.0], c=[1.0, -2.0, 0.5], d=0.25, delta=0.1
    )

    def test_convolution_is_the_unrolled_kernel(self):
        x = np.random.default_rng(53).standard_normal(2 * CHUNK + 7)
        for params in (self.SLOW, default_params()):
            np.testing.assert_allclose(
                unrolled_kernel_convolution(x, params),
                unrolled_kernel_oracle(x, params),
                rtol=1e-12,
                atol=1e-14,
            )

    @pytest.mark.parametrize("chunks", CHUNK_COUNTS)
    def test_matches_unrolled_kernel_one_and_two_sided(self, chunks):
        # A length 5 short of whole chunks pads the last chunk.
        rng = np.random.default_rng(chunks)
        x = rng.standard_normal(chunks * CHUNK - 5)
        for params in (self.SLOW, random_params(rng, 4)):
            forward = unrolled_kernel_convolution(x, params)
            backward = unrolled_kernel_convolution(x[::-1], params)[::-1]
            np.testing.assert_allclose(scan_sequence(x, params), forward, rtol=1e-10, atol=1e-12)
            two_sided = _scan_last_axis(x, params, two_sided=True)
            np.testing.assert_allclose(two_sided, forward + backward, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("chunks", CHUNK_COUNTS)
    def test_batched_rows_equal_one_dimensional_scans_bitwise(self, chunks):
        rng = np.random.default_rng(chunks + 7)
        x = rng.standard_normal((3, 2, chunks * CHUNK - 5))
        for two_sided in (False, True):
            batched = _scan_last_axis(x, self.SLOW, two_sided=two_sided)
            for index in np.ndindex(x.shape[:-1]):
                alone = _scan_last_axis(x[index], self.SLOW, two_sided=two_sided)
                assert np.array_equal(batched[index], alone), (index, two_sided)

    def test_carry_operators_are_cached_and_read_only(self):
        params = random_params(np.random.default_rng(59), 3)
        for level in range(3):
            operators = params._carry_operators(level)
            assert params._carry_operators(level) is operators
            for arr in operators:
                assert not arr.flags.writeable

    def test_one_and_two_sided_scans_share_one_carry_per_level(self):
        # 74 chunks reach carry level 2; the two-sided scan carries its
        # backward states as more rows of the same causal carry.
        params = random_params(np.random.default_rng(61), 3)
        x = np.random.default_rng(67).standard_normal(74 * CHUNK)
        scan_sequence(x, params)
        _scan_last_axis(x, params, two_sided=True)
        assert set(params._carry_store) == {0, 1, 2}


def test_importing_the_package_leaves_scipy_signal_unloaded():
    # No SciPy module at all; numpy.random is loaded eagerly so that the
    # gate's first sketch draw does not pay its import.
    code = (
        "import sys, toposcan; "
        "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')); "
        "sys.exit(f'loaded {scipy}' if scipy else 'numpy.random' not in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestMultiDirectionScan:
    def test_passthrough_returns_four_times_input(self):
        rng = np.random.default_rng(5)
        shape = GridShape(6, 7)
        fm = FeatureMap(data=rng.standard_normal((2, 3, shape.length)), shape=shape)
        for indices in (build_topoa_indices(shape), build_cross_indices(shape)):
            out = multi_direction_scan(fm, indices, PASSTHROUGH)
            assert np.array_equal(out.data, 4.0 * fm.data)

    def test_single_pixel_grid(self):
        shape = GridShape(1, 1)
        fm = FeatureMap(data=np.full((1, 2, 1), 1.5), shape=shape)
        params = default_params()
        out = multi_direction_scan(fm, build_topoa_indices(shape), params)
        expected = 4.0 * scan_sequence(np.array([1.5]), params)[0]
        np.testing.assert_allclose(out.data, expected, rtol=1e-14)

    def test_directions_are_genuinely_different(self):
        rng = np.random.default_rng(9)
        shape = GridShape(5, 8)
        fm = FeatureMap(data=rng.standard_normal((1, 2, shape.length)), shape=shape)
        params = default_params()
        topoa = multi_direction_scan(fm, build_topoa_indices(shape), params)
        cross = multi_direction_scan(fm, build_cross_indices(shape), params)
        assert not np.allclose(topoa.data, cross.data)

    def test_shape_mismatch_rejected(self):
        fm = FeatureMap(data=np.zeros((1, 1, 6)), shape=GridShape(2, 3))
        with pytest.raises(ValueError):
            multi_direction_scan(fm, build_topoa_indices(GridShape(3, 3)), default_params())

    def test_batched_channels_match_independent_sequences_bitwise(self):
        # Per-(batch, channel) scans are independent: running them through
        # the batched path must equal one-at-a-time scans exactly.
        rng = np.random.default_rng(13)
        shape = GridShape(4, 6)
        params = default_params()
        fm = FeatureMap(data=rng.standard_normal((2, 3, shape.length)), shape=shape)
        indices = build_topoa_indices(shape)
        out = multi_direction_scan(fm, indices, params)
        for b in range(fm.batch):
            for c in range(fm.channels):
                acc = None
                for k in range(2):
                    g = fm.data[b, c, indices.forward[k]]
                    both = _scan_last_axis(g, params, two_sided=True)
                    restored = both[indices.inverse[k]]
                    acc = restored if acc is None else acc + restored
                assert np.array_equal(out.data[b, c], acc)

    def test_batched_matches_independent_sequences_on_padded_chunks(self):
        # 9 x 15 = 135 steps: two full chunks and a zero-padded third.
        rng = np.random.default_rng(23)
        shape = GridShape(9, 15)
        params = default_params()
        fm = FeatureMap(data=rng.standard_normal((2, 3, shape.length)), shape=shape)
        indices = build_topoa_indices(shape)
        out = multi_direction_scan(fm, indices, params)
        for b in range(fm.batch):
            for c in range(fm.channels):
                acc = None
                for k in range(2):
                    g = fm.data[b, c, indices.forward[k]]
                    both = _scan_last_axis(g, params, two_sided=True)
                    restored = both[indices.inverse[k]]
                    acc = restored if acc is None else acc + restored
                assert np.array_equal(out.data[b, c], acc)

    def test_matches_four_row_definition(self):
        # The definition: gather, scan and scatter each of the four rows,
        # then sum. The implementation's backward scans of rows 0 and 1
        # sum in another order, so it agrees to rounding, not bitwise.
        rng = np.random.default_rng(31)
        for _ in range(12):
            shape = GridShape(int(rng.integers(1, 13)), int(rng.integers(1, 25)))
            params = random_params(rng, int(rng.integers(1, 9)))
            fm = FeatureMap(
                data=rng.standard_normal((int(rng.integers(1, 3)), 2, shape.length)),
                shape=shape,
            )
            for indices in (build_topoa_indices(shape), build_cross_indices(shape)):
                out = multi_direction_scan(fm, indices, params)
                for b in range(fm.batch):
                    for c in range(fm.channels):
                        ref = sum(
                            scan_sequence(fm.data[b, c, indices.forward[k]], params)[
                                indices.inverse[k]
                            ]
                            for k in range(4)
                        )
                        atol = 1e-14 * np.abs(ref).max()
                        np.testing.assert_allclose(out.data[b, c], ref, rtol=0, atol=atol)

    @pytest.mark.parametrize("build", [build_topoa_indices, build_cross_indices])
    def test_scatter_equals_gather_by_inverse_bitwise(self, build):
        rng = np.random.default_rng(37)
        for h in range(1, 13):
            for w in range(1, 13):
                shape = GridShape(h, w)
                pair = build(shape)
                fm = FeatureMap(data=rng.standard_normal((2, 3, shape.length)), shape=shape)
                for params in (default_params(), random_params(rng, 3)):
                    out = multi_direction_scan(fm, pair, params)
                    ref = gather_by_inverse_reference(fm, pair, params)
                    assert np.array_equal(out.data, ref), (h, w)

    def test_passthrough_is_bit_exact_on_padded_chunks(self):
        rng = np.random.default_rng(29)
        shape = GridShape(9, 15)
        fm = FeatureMap(data=rng.standard_normal((2, 3, shape.length)), shape=shape)
        for indices in (build_topoa_indices(shape), build_cross_indices(shape)):
            out = multi_direction_scan(fm, indices, PASSTHROUGH)
            assert np.array_equal(out.data, 4.0 * fm.data)

    @pytest.mark.parametrize("build", [build_topoa_indices, build_cross_indices])
    def test_strided_feature_map_matches_its_contiguous_copy_bitwise(self, build):
        rng = np.random.default_rng(41)
        for shape in (GridShape(9, 15), GridShape(64, 48)):
            view = rng.standard_normal((4, 5, 2 * shape.length))[::2, 1::2, ::2]
            strided = FeatureMap(data=view, shape=shape)
            assert not strided.data.flags.c_contiguous
            copy = FeatureMap(data=np.ascontiguousarray(view), shape=shape)
            pair = build(shape)
            for params in (default_params(), random_params(rng, 3)):
                out = multi_direction_scan(strided, pair, params)
                assert np.array_equal(out.data, multi_direction_scan(copy, pair, params).data)


class TestAxisAlignedPath:
    SHAPES = [GridShape(h, w) for h in range(1, 13) for w in range(1, 13)] + [
        GridShape(h, w) for h, w in [(9, 15), (1, 300), (300, 1), (128, 128)]
    ]

    def test_transposes_equal_the_scatter_through_base_bitwise(self):
        # 9 x 15 pads its last chunk; 1 x 300 and 300 x 1 make the transpose trivial.
        rng = np.random.default_rng(43)
        for shape in self.SHAPES:
            pair = build_cross_indices(shape)
            assert pair.rank is None, shape
            fm = FeatureMap(data=rng.standard_normal((2, 3, shape.length)), shape=shape)
            for params in (default_params(), random_params(rng, 3)):
                out = multi_direction_scan(fm, pair, params)
                assert out.data.shape == fm.data.shape and out.data.flags.c_contiguous
                assert np.array_equal(out.data, scatter_through_base_reference(fm, pair, params))

    def test_other_pairs_keep_the_scatter_through_base(self):
        # Swapped axis-aligned rows and the diagonal family are not axis aligned
        # (on grids at least 2 by 2); they must still scan to the reference.
        rng = np.random.default_rng(47)
        for shape in (GridShape(2, 3), GridShape(9, 15), GridShape(64, 48)):
            swapped = IndexPair(build_cross_indices(shape).base[::-1].copy(), shape)
            fm = FeatureMap(data=rng.standard_normal((3, 2, shape.length)), shape=shape)
            for pair in (swapped, build_topoa_indices(shape)):
                assert pair.rank is not None, shape
                out = multi_direction_scan(fm, pair, default_params())
                ref = scatter_through_base_reference(fm, pair, default_params())
                assert np.array_equal(out.data, ref), shape


class TestGatheredRestore:
    # The four fixed_warm stage shapes, a padded last chunk, and single-row
    # and single-column grids (a 300 x 1 topoa pair is axis aligned instead).
    SHAPES = [GridShape(s, s) for s in (128, 64, 32, 16)] + [
        GridShape(h, w) for h, w in [(9, 15), (1, 300), (300, 1)]
    ]

    def test_rank_restore_equals_the_scatter_through_base_bitwise(self):
        rng = np.random.default_rng(61)
        for shape in self.SHAPES:
            pair = build_topoa_indices(shape)
            assert (pair.rank is None) == (shape.width == 1), shape
            fm = FeatureMap(data=rng.standard_normal((2, 3, shape.length)), shape=shape)
            for params in (default_params(), random_params(rng, 3)):
                out = multi_direction_scan(fm, pair, params)
                assert out.data.shape == fm.data.shape and out.data.flags.c_contiguous
                assert np.array_equal(out.data, scatter_through_base_reference(fm, pair, params))

    def test_permuted_and_swapped_pairs_equal_the_scatter_through_base_bitwise(self):
        # Random permutations and both families with their rows swapped:
        # pairs no builder returns restore by the same rule.
        rng = np.random.default_rng(67)
        grids = [GridShape(h, w) for h in range(1, 13) for w in range(1, 13)]
        for shape in grids + [GridShape(1, 300), GridShape(300, 1)]:
            fm = FeatureMap(data=rng.standard_normal((2, 3, shape.length)), shape=shape)
            permuted = np.stack([rng.permutation(shape.length) for _ in range(2)])
            for base in (
                permuted,
                build_topoa_indices(shape).base[::-1],
                build_cross_indices(shape).base[::-1],
            ):
                pair = IndexPair(base, shape)
                for params in (default_params(), random_params(rng, 3)):
                    out = multi_direction_scan(fm, pair, params)
                    ref = scatter_through_base_reference(fm, pair, params)
                    assert np.array_equal(out.data, ref), shape


class TestFeatureMap:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeatureMap(data=np.array([[[np.inf]]]), shape=GridShape(1, 1))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            FeatureMap(data=np.zeros((1, 1, 5)), shape=GridShape(2, 3))


@pytest.mark.parametrize(
    "make",
    [
        default_params,
        lambda: FeatureMap(data=np.ones((1, 2, 6)), shape=GridShape(2, 3)),
        lambda: BranchPair(f_cross=np.ones((1, 2, 6)), f_topoa=np.zeros((1, 2, 6))),
    ],
    ids=["SsmParams", "FeatureMap", "BranchPair"],
)
def test_array_holders_compare_by_identity_and_hash(make):
    # Generated field equality over arrays would raise on the array's truth value.
    first, second = make(), make()
    assert first == first
    assert first != second
    assert len({first, second, first}) == 2
