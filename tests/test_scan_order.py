"""Scan-order construction: known vectors, permutations, inverses, locality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toposcan.scan_order import (
    GridShape,
    adjacent_step_distances,
    build_base_antidiagonal,
    build_base_diagonal,
    build_cross_indices,
    build_topoa_indices,
)

shapes = st.builds(
    GridShape,
    height=st.integers(min_value=1, max_value=24),
    width=st.integers(min_value=1, max_value=24),
)


def coords(order, shape):
    return np.divmod(np.asarray(order), shape.width)


class TestKnownVectors:
    def test_diagonal_2x2(self):
        assert build_base_diagonal(GridShape(2, 2)).tolist() == [0, 2, 1, 3]

    def test_diagonal_3x3(self):
        assert build_base_diagonal(GridShape(3, 3)).tolist() == [0, 3, 1, 2, 4, 6, 7, 5, 8]

    def test_diagonal_1x1(self):
        assert build_base_diagonal(GridShape(1, 1)).tolist() == [0]

    def test_antidiagonal_2x2(self):
        assert build_base_antidiagonal(GridShape(2, 2)).tolist() == [1, 3, 0, 2]

    def test_antidiagonal_1x1(self):
        assert build_base_antidiagonal(GridShape(1, 1)).tolist() == [0]

    def test_antidiagonal_1x3_is_column_reflected_diagonal(self):
        shape = GridShape(1, 3)
        diag = build_base_diagonal(shape)
        i, j = coords(diag, shape)
        reflected = i * shape.width + (shape.width - 1 - j)
        assert build_base_antidiagonal(shape).tolist() == reflected.tolist()

    def test_forward_rows_2x2(self):
        pair = build_topoa_indices(GridShape(2, 2))
        assert pair.forward[0].tolist() == [0, 2, 1, 3]
        assert pair.forward[2].tolist() == [3, 1, 2, 0]

    def test_forward_1x1_all_rows_trivial(self):
        pair = build_topoa_indices(GridShape(1, 1))
        assert pair.forward.tolist() == [[0]] * 4
        assert pair.inverse.tolist() == [[0]] * 4

    def test_inverse_row0_3x3(self):
        pair = build_topoa_indices(GridShape(3, 3))
        assert pair.inverse[0].tolist() == [0, 2, 3, 1, 4, 7, 5, 6, 8]

    def test_cross_row1_2x2(self):
        pair = build_cross_indices(GridShape(2, 2))
        assert pair.forward[1].tolist() == [0, 2, 1, 3]

    def test_cross_row1_2x3(self):
        pair = build_cross_indices(GridShape(2, 3))
        assert pair.forward[1].tolist() == [0, 3, 1, 4, 2, 5]

    def test_cross_single_row_grid(self):
        pair = build_cross_indices(GridShape(1, 5))
        assert pair.forward[0].tolist() == pair.forward[1].tolist() == list(range(5))


class TestStructure:
    @given(shapes)
    @settings(max_examples=60, deadline=None)
    def test_rows_are_permutations(self, shape):
        expected = list(range(shape.length))
        for pair in (build_topoa_indices(shape), build_cross_indices(shape)):
            for row in pair.forward:
                assert sorted(row.tolist()) == expected

    @given(shapes)
    @settings(max_examples=60, deadline=None)
    def test_scatter_identity(self, shape):
        for pair in (build_topoa_indices(shape), build_cross_indices(shape)):
            for k in range(4):
                assert np.array_equal(
                    pair.inverse[k, pair.forward[k]], np.arange(shape.length)
                )

    @given(shapes, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gather_scatter_round_trip_is_exact(self, shape, seed):
        z = np.random.default_rng(seed).standard_normal(shape.length)
        pair = build_topoa_indices(shape)
        for k in range(4):
            assert np.array_equal(z[pair.forward[k]][pair.inverse[k]], z)

    @given(shapes)
    @settings(max_examples=60, deadline=None)
    def test_reflection_symmetry(self, shape):
        diag = build_base_diagonal(shape)
        i, j = coords(diag, shape)
        reflected = i * shape.width + (shape.width - 1 - j)
        assert np.array_equal(build_base_antidiagonal(shape), reflected)

    @given(shapes)
    @settings(max_examples=60, deadline=None)
    def test_complete_coverage(self, shape):
        pair = build_topoa_indices(shape)
        for row in pair.forward:
            assert set(row.tolist()) == set(range(shape.length))

    def test_arrays_are_read_only(self):
        pair = build_topoa_indices(GridShape(4, 4))
        with pytest.raises(ValueError):
            pair.forward[0, 0] = 7


class TestLocality:
    @given(shapes)
    @settings(max_examples=60, deadline=None)
    def test_diagonal_family_steps_stay_local(self, shape):
        pair = build_topoa_indices(shape)
        allowed = {1.0, math.sqrt(2.0)}
        for row in pair.forward:
            distances = adjacent_step_distances(row, shape)
            assert set(distances.tolist()) <= allowed

    def test_known_distance_multiset_3x3(self):
        shape = GridShape(3, 3)
        distances = adjacent_step_distances(build_base_diagonal(shape), shape)
        r2 = math.sqrt(2.0)
        assert sorted(distances.tolist()) == sorted([1, r2, 1, r2, r2, 1, r2, 1])

    def test_single_cell_has_no_steps(self):
        assert adjacent_step_distances([0], GridShape(1, 1)).size == 0

    def test_cross_scan_violates_locality_on_2x3(self):
        shape = GridShape(2, 3)
        row_major = build_cross_indices(shape).forward[0]
        distances = adjacent_step_distances(row_major, shape)
        # step from (0, 2) to (1, 0) has length sqrt(5)
        assert distances.max() == pytest.approx(math.sqrt(5.0))
        assert distances.max() > math.sqrt(2.0)


class TestValidation:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            adjacent_step_distances([0, 0, 1, 2], GridShape(2, 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            adjacent_step_distances([0, 1, 2, 4], GridShape(2, 2))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            adjacent_step_distances([0, 1, 2], GridShape(2, 2))

    @pytest.mark.parametrize("height,width", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_bad_shapes(self, height, width):
        with pytest.raises(ValueError):
            GridShape(height, width)
