"""Symmetry oracles: how the scans and the gate act under grid and channel
symmetries, judged against themselves rather than a second implementation.

A grid transform T acts on a (B, C, L) raster map. A scan is equivariant
under T when scanning T(x) on T's grid gives T(scan(x)). The positive
facts hold bitwise or to rounding. Rounding means the oracles' rtol 1e-10
at the reference's scale. The negative facts are the diagonal order's own
asymmetries; they are pinned so that changing them is a visible decision.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toposcan.hsic_gate import BranchPair, fuse_with_diagnostics
from toposcan.scan_order import GridShape, build_cross_indices, build_topoa_indices
from toposcan.ssm import FeatureMap, SsmParams, multi_direction_scan

RTOL = 1e-10
SMALL_GRIDS = [GridShape(h, w) for h in range(1, 14) for w in range(1, 14)]
BOTH_SIDES_AT_LEAST_2 = [s for s in SMALL_GRIDS if min(s.height, s.width) >= 2]

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def grids(min_side=1, max_side=69):
    side = st.integers(min_value=min_side, max_value=max_side)
    return st.builds(GridShape, height=side, width=side)


def as_grid(x, shape):
    return x.reshape(*x.shape[:-1], shape.height, shape.width)


def transpose(x, shape):
    return as_grid(x, shape).swapaxes(-1, -2).reshape(x.shape), GridShape(shape.width, shape.height)


def rotate_180(x, shape):
    return x[..., ::-1], shape


def flip_left_right(x, shape):
    return as_grid(x, shape)[..., ::-1].reshape(x.shape), shape


def flip_up_down(x, shape):
    return as_grid(x, shape)[..., ::-1, :].reshape(x.shape), shape


def random_params(rng):
    n = int(rng.integers(1, 9))
    return SsmParams(
        a=-rng.uniform(0.1, 3.0, n),
        b=rng.standard_normal(n),
        c=rng.standard_normal(n),
        d=float(rng.standard_normal()),
        delta=float(rng.uniform(0.01, 0.5)),
    )


def scan_pair(build, transform, shape, seed):
    """(scan of T(x) on T's grid, T(scan of x)) for random x and params, B = 2, C = 3."""
    rng = np.random.default_rng(seed)
    params = random_params(rng)
    x = rng.standard_normal((2, 3, shape.length))
    y = multi_direction_scan(FeatureMap(x, shape), build(shape), params).data
    tx, t_shape = transform(x, shape)
    got = multi_direction_scan(FeatureMap(tx, t_shape), build(t_shape), params).data
    return got, transform(y, shape)[0]


def assert_bitwise(build, transform, shape, seed):
    got, want = scan_pair(build, transform, shape, seed)
    assert got.tobytes() == np.ascontiguousarray(want).tobytes(), shape


def assert_to_rounding(build, transform, shape, seed):
    got, want = scan_pair(build, transform, shape, seed)
    atol = RTOL * np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=0, atol=atol, err_msg=str(shape))


def assert_beyond_rounding(build, transform, shape, seed):
    got, want = scan_pair(build, transform, shape, seed)
    assert np.abs(got - want).max() > RTOL * np.abs(want).max(), shape


class TestCrossBranch:
    def test_transpose_is_bitwise_on_every_small_grid(self):
        for k, shape in enumerate(SMALL_GRIDS):
            assert_bitwise(build_cross_indices, transpose, shape, k)

    @given(grids(), seeds)
    @settings(max_examples=40, deadline=None)
    def test_transpose_is_bitwise(self, shape, seed):
        assert_bitwise(build_cross_indices, transpose, shape, seed)

    @given(grids(), seeds)
    @settings(max_examples=40, deadline=None)
    def test_rotation_by_180_holds_to_rounding(self, shape, seed):
        assert_to_rounding(build_cross_indices, rotate_180, shape, seed)


class TestDiagonalBranch:
    # A left-right flip turns the diagonal order into the anti-diagonal
    # (its column mirror), so the two rows only trade places.
    def test_left_right_flip_is_bitwise_on_every_small_grid(self):
        for k, shape in enumerate(SMALL_GRIDS):
            assert_bitwise(build_topoa_indices, flip_left_right, shape, k)

    @given(grids(), seeds)
    @settings(max_examples=40, deadline=None)
    def test_left_right_flip_is_bitwise(self, shape, seed):
        assert_bitwise(build_topoa_indices, flip_left_right, shape, seed)

    # A 180-degree rotation maps segment s to H + W - 2 - s, which keeps
    # the segment's parity, and so its direction, only when H + W is even.
    @pytest.mark.parametrize("transform", [rotate_180, flip_up_down])
    @given(shape=grids(), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_rotation_and_up_down_flip_hold_to_rounding_at_even_h_plus_w(
        self, transform, shape, seed
    ):
        assume((shape.height + shape.width) % 2 == 0)
        assert_to_rounding(build_topoa_indices, transform, shape, seed)

    @pytest.mark.parametrize("transform", [rotate_180, flip_up_down])
    def test_rotation_and_up_down_flip_fail_at_odd_h_plus_w_on_every_small_grid(self, transform):
        for k, shape in enumerate(BOTH_SIDES_AT_LEAST_2):
            if (shape.height + shape.width) % 2:
                assert_beyond_rounding(build_topoa_indices, transform, shape, k)

    # A transpose reverses each segment in place, not the whole order.
    def test_transpose_fails_on_every_small_grid_with_both_sides_at_least_2(self):
        for k, shape in enumerate(BOTH_SIDES_AT_LEAST_2):
            assert_beyond_rounding(build_topoa_indices, transpose, shape, k)

    @pytest.mark.parametrize("transform", [rotate_180, flip_up_down])
    @given(shape=grids(min_side=2, max_side=40), seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_rotation_and_up_down_flip_fail_at_odd_h_plus_w(self, transform, shape, seed):
        assume((shape.height + shape.width) % 2 == 1)
        assert_beyond_rounding(build_topoa_indices, transform, shape, seed)

    @given(grids(min_side=2, max_side=40), seeds)
    @settings(max_examples=20, deadline=None)
    def test_transpose_fails_with_both_sides_at_least_2(self, shape, seed):
        assert_beyond_rounding(build_topoa_indices, transpose, shape, seed)

    # Where a side is 1, every segment holds one cell and no direction is lost.
    @pytest.mark.parametrize("transform", [rotate_180, flip_up_down, transpose])
    def test_single_row_and_column_grids_keep_every_symmetry(self, transform):
        lines = [GridShape(1, n) for n in range(1, 70)] + [GridShape(n, 1) for n in range(1, 70)]
        for k, shape in enumerate(lines):
            assert_to_rounding(build_topoa_indices, transform, shape, k)


def gate_inputs(seed):
    """Random (B, C, L) branch pair, B 1-3, C 2-16, L 1-2000, at a random scale."""
    rng = np.random.default_rng(seed)
    b, c, length = int(rng.integers(1, 4)), int(rng.integers(2, 17)), int(rng.integers(1, 2001))
    f_cross, f_topoa = rng.standard_normal((2, b, c, length)) * rng.uniform(0.1, 10.0)
    return f_cross, f_topoa, rng.permutation(c)


class TestGate:
    # Permuting channels permutes the Gram and kernel rows, so the scores
    # are summed in another order: equal to rounding, not bitwise.
    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_channel_permutation_moves_scores_only_by_rounding(self, seed):
        f_cross, f_topoa, perm = gate_inputs(seed)
        fused, items = fuse_with_diagnostics(BranchPair(f_cross, f_topoa))
        moved_pair = BranchPair(f_cross[:, perm], f_topoa[:, perm])
        permuted, permuted_items = fuse_with_diagnostics(moved_pair)
        for item, moved in zip(items, permuted_items):
            for name in ("hsic", "sigma_sq", "w"):
                want = getattr(item, name)
                assert getattr(moved, name) == pytest.approx(want, rel=RTOL, abs=1e-12), name
        np.testing.assert_allclose(
            permuted, fused[:, perm], rtol=0, atol=RTOL * np.abs(fused).max()
        )

    # The pooled median and the scores' products are symmetric in the branches.
    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_branch_swap_keeps_scores_bitwise(self, seed):
        f_cross, f_topoa, _ = gate_inputs(seed)
        _, items = fuse_with_diagnostics(BranchPair(f_cross, f_topoa))
        _, swapped = fuse_with_diagnostics(BranchPair(f_topoa, f_cross))
        assert [d.as_dict() for d in swapped] == [d.as_dict() for d in items]
