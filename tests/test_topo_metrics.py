"""Topology metrics against hand constructions and brute-force oracles."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toposcan.topo_metrics import (
    TopoErrors,
    aggregate,
    count_components,
    count_holes,
    topo_errors,
    topo_summary,
)


def flood_components_oracle(mask):
    """8-connected component count by explicit flood fill."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    seen = np.zeros_like(mask)
    count = 0
    for si in range(h):
        for sj in range(w):
            if mask[si, sj] and not seen[si, sj]:
                count += 1
                stack = [(si, sj)]
                seen[si, sj] = True
                while stack:
                    i, j = stack.pop()
                    for di in (-1, 0, 1):
                        for dj in (-1, 0, 1):
                            ni, nj = i + di, j + dj
                            if 0 <= ni < h and 0 <= nj < w and mask[ni, nj] and not seen[ni, nj]:
                                seen[ni, nj] = True
                                stack.append((ni, nj))
    return count


def flood_holes_oracle(mask):
    """Background components (4-connected) unreachable from the border."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    background = ~mask
    reached = np.zeros_like(background)
    stack = [
        (i, j)
        for i in range(h)
        for j in range(w)
        if (i in (0, h - 1) or j in (0, w - 1)) and background[i, j]
    ]
    for i, j in stack:
        reached[i, j] = True
    while stack:
        i, j = stack.pop()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < h and 0 <= nj < w and background[ni, nj] and not reached[ni, nj]:
                reached[ni, nj] = True
                stack.append((ni, nj))
    interior = background & ~reached
    holes = 0
    seen = np.zeros_like(interior)
    for si in range(h):
        for sj in range(w):
            if interior[si, sj] and not seen[si, sj]:
                holes += 1
                stack = [(si, sj)]
                seen[si, sj] = True
                while stack:
                    i, j = stack.pop()
                    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        ni, nj = i + di, j + dj
                        if 0 <= ni < h and 0 <= nj < w and interior[ni, nj] and not seen[ni, nj]:
                            seen[ni, nj] = True
                            stack.append((ni, nj))
    return holes


def ring(size=5):
    mask = np.zeros((size, size), dtype=bool)
    mask[1:-1, 1:-1] = True
    mask[2:-2, 2:-2] = False
    return mask


class TestComponents:
    def test_empty_mask(self):
        assert count_components(np.zeros((4, 4), dtype=bool)) == 0

    def test_two_separated_squares(self):
        mask = np.zeros((4, 5), dtype=bool)
        mask[1:3, 0:2] = True
        mask[1:3, 3:5] = True
        assert count_components(mask) == 2

    def test_full_mask(self):
        assert count_components(np.ones((3, 7), dtype=bool)) == 1

    def test_diagonal_touch_is_connected(self):
        mask = np.eye(4, dtype=bool)
        assert count_components(mask) == 1


class TestHoles:
    def test_filled_disk_has_none(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[1:5, 1:5] = True
        assert count_holes(mask) == 0

    def test_ring_has_one(self):
        assert count_holes(ring(5)) == 1
        assert count_components(ring(5)) == 1

    def test_first_count_imports_scipy_ndimage(self):
        code = """
import sys
import numpy as np
import toposcan

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), f"import toposcan loaded {scipy_modules()}"
mask = np.zeros((5, 5), dtype=bool)
mask[1:-1, 1:-1] = True
mask[2:-2, 2:-2] = False
assert toposcan.count_holes(mask) == 1
assert "scipy.ndimage" in sys.modules, scipy_modules()
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_two_separate_rings(self):
        mask = np.zeros((5, 11), dtype=bool)
        mask[:, :5] = ring(5)
        mask[:, 6:] = ring(5)
        assert count_holes(mask) == 2
        assert count_components(mask) == 2

    def test_border_notch_is_not_a_hole(self):
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 1] = False
        assert count_holes(mask) == 0

    def test_empty_mask_summary_invariant(self):
        summary = topo_summary(np.zeros((3, 3), dtype=bool))
        assert summary.components == 0 and summary.holes == 0


class TestErrors:
    def test_identical_masks(self):
        mask = ring(5)
        assert topo_errors(mask, mask) == TopoErrors(0, 0, 1)

    def test_extra_component(self):
        gt = np.zeros((5, 9), dtype=bool)
        gt[1:4, 1:4] = True
        pred = gt.copy()
        pred[1:4, 5:8] = True
        assert topo_errors(pred, gt) == TopoErrors(1, 0, 0)

    def test_extra_hole(self):
        gt = np.zeros((5, 5), dtype=bool)
        gt[1:4, 1:4] = True
        assert topo_errors(ring(5), gt) == TopoErrors(0, 1, 0)

    def test_error_magnitude_is_symmetric(self):
        rng = np.random.default_rng(0)
        a = rng.random((8, 8)) > 0.5
        b = rng.random((8, 8)) > 0.5
        ab, ba = topo_errors(a, b), topo_errors(b, a)
        assert (ab.cce, ab.hce) == (ba.cce, ba.hce)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            topo_errors(np.zeros((2, 2)), np.zeros((3, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "measure",
        [count_components, count_holes, topo_summary, lambda m: topo_errors(np.zeros((3, 3)), m)],
        ids=["count_components", "count_holes", "topo_summary", "topo_errors"],
    )
    def test_non_finite_cell_rejected(self, measure, value):
        # A NaN cell is neither foreground nor background; it must not count as either.
        mask = np.zeros((3, 3))
        mask[1, 1] = value
        with pytest.raises(ValueError, match="mask must be finite"):
            measure(mask)


class TestAggregate:
    def test_single_perfect_pair(self):
        report = aggregate([TopoErrors(0, 0, 1)])
        assert (report.cce, report.hce, report.etm_pct, report.n) == (0.0, 0.0, 100.0, 1)

    def test_mixed_batch_means(self):
        report = aggregate([TopoErrors(1, 0, 0), TopoErrors(3, 1, 0)])
        assert (report.cce, report.hce, report.etm_pct) == (2.0, 0.5, 0.0)

    def test_all_perfect_batch(self):
        report = aggregate([TopoErrors(0, 0, 1)] * 10)
        assert (report.cce, report.hce, report.etm_pct, report.n) == (0.0, 0.0, 100.0, 10)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    @pytest.mark.parametrize("item", [(1, 0, 0), object(), None])
    def test_non_topo_errors_items_rejected(self, item):
        with pytest.raises(ValueError, match="TopoErrors"):
            aggregate([TopoErrors(0, 0, 1), item])

    @pytest.mark.parametrize(
        "fields, message",
        [
            (("a", 0, 0), "cce must be an integer"),
            ((0, 1.0, 0), "hce must be an integer"),
            ((-1, 0, 0), "cce must be >= 0"),
            ((0, 0, 2), "etm must be 0 or 1"),
            ((0, 0, True), "etm must be an integer"),
        ],
    )
    def test_topo_errors_fields_checked(self, fields, message):
        with pytest.raises(ValueError, match=message):
            TopoErrors(*fields)

    def test_topo_errors_store_ints(self):
        errors = TopoErrors(np.int64(2), np.uint8(1), np.int32(0))
        assert errors == TopoErrors(2, 1, 0)
        assert all(type(v) is int for v in (errors.cce, errors.hce, errors.etm))


class TestProperties:
    @given(st.integers(min_value=0, max_value=2**25 - 1))
    @settings(max_examples=120, deadline=None)
    def test_matches_flood_fill_oracles_on_5x5(self, bits):
        mask = np.array(
            [(bits >> k) & 1 for k in range(25)], dtype=bool
        ).reshape(5, 5)
        assert count_components(mask) == flood_components_oracle(mask)
        assert count_holes(mask) == flood_holes_oracle(mask)

    @pytest.mark.parametrize(
        "shape",
        [(1, w) for w in range(1, 11)]
        + [(h, 1) for h in range(2, 11)]
        + [(2, w) for w in range(2, 7)],
    )
    def test_matches_flood_fill_oracles_on_every_thin_mask(self, shape):
        size = shape[0] * shape[1]
        for bits in range(2**size):
            mask = np.array([(bits >> k) & 1 for k in range(size)], dtype=bool).reshape(shape)
            assert count_components(mask) == flood_components_oracle(mask), mask
            assert count_holes(mask) == flood_holes_oracle(mask), mask

    def test_matches_flood_fill_oracles_on_random_non_square_masks(self):
        rng = np.random.default_rng(71)
        checked = 0
        while checked < 300:
            h, w = rng.integers(1, 13, size=2)
            if h == w:
                continue
            checked += 1
            mask = rng.random((h, w)) < rng.choice([0.2, 0.5, 0.8])
            assert count_components(mask) == flood_components_oracle(mask), mask
            assert count_holes(mask) == flood_holes_oracle(mask), mask

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=80, deadline=None)
    def test_translation_invariance(self, bits):
        inner = np.array([(bits >> k) & 1 for k in range(16)], dtype=bool).reshape(4, 4)
        base = np.zeros((9, 9), dtype=bool)
        base[0:4, 0:4] = inner
        shifted = np.zeros((9, 9), dtype=bool)
        shifted[3:7, 4:8] = inner
        assert count_components(base) == count_components(shifted)
        assert count_holes(base) == count_holes(shifted)

    def test_euler_consistency_without_diagonal_contacts(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 40:
            mask = rng.random((7, 7)) > 0.45
            if _has_diagonal_only_contact(mask):
                continue
            checked += 1
            assert count_components(mask) - count_holes(mask) == _euler_characteristic(mask)


def _has_diagonal_only_contact(mask):
    a = mask[:-1, :-1] & mask[1:, 1:] & ~mask[:-1, 1:] & ~mask[1:, :-1]
    b = mask[:-1, 1:] & mask[1:, :-1] & ~mask[:-1, :-1] & ~mask[1:, 1:]
    return bool(np.any(a | b))


def _euler_characteristic(mask):
    """V - E + F of the union of closed unit squares over foreground pixels."""
    mask = np.asarray(mask, dtype=bool)
    padded = np.pad(mask, 1)
    faces = int(mask.sum())
    horizontal_adj = int((mask[:, :-1] & mask[:, 1:]).sum())
    vertical_adj = int((mask[:-1, :] & mask[1:, :]).sum())
    edges = 4 * faces - horizontal_adj - vertical_adj
    corner_occupied = (
        padded[:-1, :-1] | padded[:-1, 1:] | padded[1:, :-1] | padded[1:, 1:]
    )
    vertices = int(corner_occupied.sum())
    return vertices - edges + faces
