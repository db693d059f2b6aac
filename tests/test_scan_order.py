"""Scan-order construction: known vectors, permutations, inverses, locality."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toposcan.cli import main
from toposcan.scan_order import (
    GridShape,
    IndexPair,
    build_cross_indices,
    build_topoa_indices,
)
from toposcan.ssm import FeatureMap, default_params, multi_direction_scan

shapes = st.builds(
    GridShape,
    height=st.integers(min_value=1, max_value=24),
    width=st.integers(min_value=1, max_value=24),
)


def coords(order, shape):
    return np.divmod(np.asarray(order), shape.width)


def four_row_reference(pair):
    """Four-row reference: stack each base row and its reversal, then invert each row."""
    forward = np.stack([*pair.base, *pair.base[:, ::-1]])
    inverse = np.empty_like(forward)
    for k in range(4):
        inverse[k, forward[k]] = np.arange(pair.shape.length)
    return forward, inverse


def diagonal(shape):
    """The diagonal order: the first base row of the diagonal family."""
    return build_topoa_indices(shape).base[0]


def antidiagonal(shape):
    """The anti-diagonal order: the second base row of the diagonal family."""
    return build_topoa_indices(shape).base[1]


def step_distances(order, shape):
    """Euclidean distances between consecutively visited grid cells."""
    i, j = coords(order, shape)
    return np.hypot(np.diff(i), np.diff(j))


def lexsort_reference(shape, mirror_columns):
    """Diagonal-family order by sorting: cells grouped by segment s = i + j
    (s = i + (W-1-j) with ``mirror_columns``), then by increasing row on even
    s and decreasing row on odd s. Cells are enumerated row-major, so the
    sorted positions are already flat indices."""
    h, w = shape.height, shape.width
    i = np.repeat(np.arange(h, dtype=np.int64), w)
    j = np.tile(np.arange(w, dtype=np.int64), h)
    segment = i + ((w - 1 - j) if mirror_columns else j)
    row_key = np.where(segment % 2 == 1, -i, i)
    return np.lexsort((row_key, segment)).astype(np.int64)


BUILDERS = [build_topoa_indices, build_cross_indices]

REFERENCE_SHAPES = [GridShape(h, w) for h in range(1, 41) for w in range(1, 41)] + [
    GridShape(h, w) for h, w in [(1, 300), (300, 1), (37, 5), (5, 37), (128, 17), (128, 128)]
]


class TestKnownVectors:
    def test_diagonal_2x2(self):
        assert diagonal(GridShape(2, 2)).tolist() == [0, 2, 1, 3]

    def test_diagonal_3x3(self):
        assert diagonal(GridShape(3, 3)).tolist() == [0, 3, 1, 2, 4, 6, 7, 5, 8]

    def test_diagonal_1x1(self):
        assert diagonal(GridShape(1, 1)).tolist() == [0]

    def test_antidiagonal_2x2(self):
        assert antidiagonal(GridShape(2, 2)).tolist() == [1, 3, 0, 2]

    def test_antidiagonal_1x1(self):
        assert antidiagonal(GridShape(1, 1)).tolist() == [0]

    def test_antidiagonal_1x3_is_column_reflected_diagonal(self):
        shape = GridShape(1, 3)
        diag = diagonal(shape)
        i, j = coords(diag, shape)
        reflected = i * shape.width + (shape.width - 1 - j)
        assert antidiagonal(shape).tolist() == reflected.tolist()

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
        diag = diagonal(shape)
        i, j = coords(diag, shape)
        reflected = i * shape.width + (shape.width - 1 - j)
        assert np.array_equal(antidiagonal(shape), reflected)

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


class TestClosedFormRank:
    @pytest.mark.parametrize(
        "build,mirror_columns",
        [(diagonal, False), (antidiagonal, True)],
        ids=["diagonal", "antidiagonal"],
    )
    def test_equals_lexsort_reference_bitwise(self, build, mirror_columns):
        for shape in REFERENCE_SHAPES:
            order = build(shape)
            expected = lexsort_reference(shape, mirror_columns)
            assert order.dtype == np.int64, shape
            assert order.tobytes() == expected.tobytes(), shape


class TestDerivedLayout:
    @pytest.mark.parametrize("build", BUILDERS)
    def test_derived_rows_match_four_row_reference(self, build):
        for h in range(1, 13):
            for w in range(1, 13):
                pair = build(GridShape(h, w))
                forward, inverse = four_row_reference(pair)
                assert np.array_equal(pair.forward, forward), (h, w)
                assert np.array_equal(pair.inverse, inverse), (h, w)

    @pytest.mark.parametrize("build", BUILDERS)
    def test_stores_only_frozen_int64_base(self, build):
        # base always, plus its inverse rows (rank) for pairs that are not axis aligned.
        shape = GridShape(5, 7)
        pair = build(shape)
        aligned = build is build_cross_indices
        assert pair.axis_aligned is aligned
        stored = {k: v for k, v in vars(pair).items() if isinstance(v, np.ndarray)}
        assert set(stored) == ({"base"} if aligned else {"base", "rank"})
        for arr in stored.values():
            assert arr.dtype == np.int64 and arr.shape == (2, shape.length)
            assert arr.flags.owndata and arr.base is None
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 1
        if aligned:
            assert pair.rank is None
        else:
            assert np.array_equal(pair.rank, pair.inverse[:2])

    def test_rank_is_kept_unless_axis_aligned(self):
        rng = np.random.default_rng(17)
        for h in range(1, 9):
            for w in range(1, 9):
                shape = GridShape(h, w)
                topoa, cross = build_topoa_indices(shape), build_cross_indices(shape)
                permuted = np.stack([rng.permutation(shape.length) for _ in range(2)])
                for base in (topoa.base, topoa.base[::-1], cross.base, cross.base[::-1], permuted):
                    pair = IndexPair(base, shape)
                    assert (pair.rank is None) == pair.axis_aligned, (h, w)
                    if pair.rank is not None:
                        assert np.array_equal(pair.rank, four_row_reference(pair)[1][:2]), (h, w)

    @pytest.mark.parametrize("build", BUILDERS)
    def test_derived_arrays_are_read_only(self, build):
        pair = build(GridShape(3, 5))
        for name in ("forward", "inverse"):
            arr = getattr(pair, name)
            assert arr.dtype == np.int64 and arr.shape == (4, 15), name
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[2, 0] = 1

    def test_base_is_always_copied(self):
        # An axis-aligned and a reversed base: each pair keeps its own copy,
        # and the caller's array stays writable.
        row_major = np.arange(6)
        for base in (np.stack([row_major, row_major.reshape(2, 3).T.ravel()]),
                     np.stack([row_major, row_major[::-1]])):
            pair = IndexPair(base, GridShape(2, 3))
            assert np.array_equal(pair.base, base)
            assert not np.shares_memory(pair.base, base)
            assert base.flags.writeable

    @pytest.mark.parametrize("shape", [GridShape(3, 4), GridShape(9, 15)])
    def test_base_view_is_copied(self, shape):
        # A pair built from a view must not change when the view's owner is
        # written: rank would no longer invert base, and the scan would
        # return wrong values without raising.
        fresh = build_topoa_indices(shape)
        owner = fresh.base.copy()
        pair = IndexPair(owner[:], shape)
        owner[[0, 1]] = owner[[1, 0]]  # still two permutations
        assert np.array_equal(pair.base, fresh.base)
        x = FeatureMap(np.random.default_rng(3).standard_normal((2, 3, shape.length)), shape)
        got = multi_direction_scan(x, pair, default_params()).data
        want = multi_direction_scan(x, fresh, default_params()).data
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("shape", [GridShape(3, 4), GridShape(9, 15)])
    def test_owning_base_with_a_live_alias_is_copied(self, shape):
        # The array passed in owns its memory, but a view made before the
        # pair still writes to it.
        fresh = build_topoa_indices(shape)
        owner = fresh.base.copy()
        alias = owner[:]
        pair = IndexPair(owner, shape)
        alias[[0, 1]] = alias[[1, 0]]  # still two permutations
        assert np.array_equal(pair.base, fresh.base)
        assert np.array_equal(pair.rank, fresh.rank)
        x = FeatureMap(np.random.default_rng(5).standard_normal((2, 3, shape.length)), shape)
        got = multi_direction_scan(x, pair, default_params()).data
        want = multi_direction_scan(x, fresh, default_params()).data
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_equality_is_identity_and_pairs_hash(self):
        first = build_topoa_indices(GridShape(3, 3))
        second = build_topoa_indices(GridShape(3, 3))
        assert first == first
        assert first != second
        assert len({first, second, first}) == 2

    @pytest.mark.parametrize("kind", ["topoa", "cross"])
    @pytest.mark.parametrize("h,w", [(1, 1), (2, 3), (9, 15)])
    def test_scan_dump_matches_four_row_reference(self, capsys, kind, h, w):
        build = build_topoa_indices if kind == "topoa" else build_cross_indices
        forward, inverse = four_row_reference(build(GridShape(h, w)))
        payload = {"h": h, "w": w, "forward": forward.tolist(), "inverse": inverse.tolist()}
        assert main(["scan", "dump", "--h", str(h), "--w", str(w), "--kind", kind]) == 0
        assert capsys.readouterr().out == json.dumps(payload) + "\n"


class TestAxisAligned:
    def test_hand_built_row_and_column_major_pair_is_axis_aligned(self):
        for h, w in [(1, 1), (2, 3), (3, 2), (9, 15), (1, 7), (7, 1)]:
            row_major = np.arange(h * w, dtype=np.int64)
            col_major = row_major.reshape(h, w).T.ravel()
            assert IndexPair(np.stack([row_major, col_major]), GridShape(h, w)).axis_aligned
            assert build_cross_indices(GridShape(h, w)).axis_aligned

    def test_swapped_rows_and_topoa_pairs_are_not(self):
        # On an N x 1 grid both families' orders are the raster, so topoa is axis aligned there.
        for h in range(1, 13):
            for w in range(1, 13):
                shape = GridShape(h, w)
                cross = build_cross_indices(shape)
                swapped = IndexPair(cross.base[::-1].copy(), shape)
                topoa = build_topoa_indices(shape)
                assert swapped.axis_aligned == (h == 1 or w == 1), (h, w)
                assert topoa.axis_aligned == (w == 1), (h, w)
                for pair in (swapped, topoa):
                    forward, inverse = four_row_reference(pair)
                    assert np.array_equal(pair.forward, forward), (h, w)
                    assert np.array_equal(pair.inverse, inverse), (h, w)

    def test_flag_is_computed_once_and_cannot_be_set(self):
        # Set at construction as a plain field, before any read.
        for pair, aligned in ((build_cross_indices(GridShape(4, 5)), True),
                              (build_topoa_indices(GridShape(4, 5)), False)):
            assert vars(pair)["axis_aligned"] is aligned
            with pytest.raises(dataclasses.FrozenInstanceError):
                pair.axis_aligned = not aligned


class TestLocality:
    @given(shapes)
    @settings(max_examples=60, deadline=None)
    def test_diagonal_family_steps_stay_local(self, shape):
        pair = build_topoa_indices(shape)
        allowed = {1.0, math.sqrt(2.0)}
        for row in pair.forward:
            distances = step_distances(row, shape)
            assert set(distances.tolist()) <= allowed

    def test_known_distance_multiset_3x3(self):
        shape = GridShape(3, 3)
        distances = step_distances(diagonal(shape), shape)
        r2 = math.sqrt(2.0)
        assert sorted(distances.tolist()) == sorted([1, r2, 1, r2, r2, 1, r2, 1])

    def test_single_cell_has_no_steps(self):
        assert step_distances([0], GridShape(1, 1)).size == 0

    def test_cross_scan_violates_locality_on_2x3(self):
        shape = GridShape(2, 3)
        row_major = build_cross_indices(shape).forward[0]
        distances = step_distances(row_major, shape)
        # step from (0, 2) to (1, 0) has length sqrt(5)
        assert distances.max() == pytest.approx(math.sqrt(5.0))
        assert distances.max() > math.sqrt(2.0)


class TestValidation:
    @pytest.mark.parametrize(
        "base",
        [
            np.stack([np.arange(12)] * 3),  # three rows
            np.arange(12)[None, :],  # one row
            np.stack([np.arange(12)[:11]] * 2),  # rows one short
            np.stack([np.arange(12)] * 2).astype(np.int32),  # not int64
            np.stack([np.arange(12)] * 2).astype(np.float64),  # not integer
            np.stack([np.arange(12), np.arange(1, 13)]),  # 12 is out of range
            np.stack([np.arange(12), np.arange(-1, 11)]),  # -1 would wrap
            np.stack([np.arange(12), np.r_[0, 0, np.arange(2, 12)]]),  # repeat, 1 missing
            np.stack([np.r_[np.arange(11), 10], np.arange(12)]),  # repeat, 11 missing
            [list(range(12))] * 2,  # not an array
        ],
        ids=[
            "three-rows", "one-row", "short-rows", "int32", "float", "too-large",
            "negative", "repeat-first", "repeat-last", "list",
        ],
    )
    def test_index_pair_rejects_malformed_base(self, base):
        with pytest.raises(ValueError):
            IndexPair(base, GridShape(3, 4))

    def test_index_pair_rejects_shape_tuple(self):
        with pytest.raises(ValueError, match="must be a GridShape"):
            IndexPair(build_cross_indices(GridShape(2, 2)).base, (2, 2))

    @pytest.mark.parametrize("height,width", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_bad_shapes(self, height, width):
        with pytest.raises(ValueError):
            GridShape(height, width)
