"""Serialization orders for 2D feature grids.

Two families of scan orders are generated over an H-by-W grid flattened
row-major (cell (i, j) gets index i*W + j):

* the diagonal family: alternating main-diagonal and anti-diagonal
  traversals whose consecutive steps always land on 4- or 8-neighbors,
  so adjacent step distances stay within {1, sqrt(2)};
* the axis-aligned family: row-major, column-major, and their reversals,
  the classic four-direction serialization of visual state-space models.

Each family exposes a 4-by-L forward index matrix together with the
inverse matrix that scatters a scanned sequence back to raster order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridShape",
    "IndexPair",
    "build_base_diagonal",
    "build_base_antidiagonal",
    "build_topoa_indices",
    "build_cross_indices",
    "adjacent_step_distances",
]


@dataclass(frozen=True)
class GridShape:
    """Dimensions of a 2D grid: ``height`` rows by ``width`` columns."""

    height: int
    width: int

    def __post_init__(self) -> None:
        for name in ("height", "width"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        object.__setattr__(self, "height", int(self.height))
        object.__setattr__(self, "width", int(self.width))

    @property
    def length(self) -> int:
        """Number of cells L = height * width."""
        return self.height * self.width


@dataclass(frozen=True)
class IndexPair:
    """Four forward scan orders and their inverses for one grid shape.

    ``forward`` rows are, for the diagonal family: base diagonal, base
    anti-diagonal, and the full-sequence reversals of those two; for the
    axis-aligned family: row-major identity, column-major order, and
    their full-sequence reversals. ``inverse`` satisfies the
    scatter identity ``inverse[k, forward[k, j]] == j`` exactly, so
    gathering a vector by a forward row and re-gathering by the matching
    inverse row restores it bit-for-bit.

    Arrays are int64, shaped (4, L), and frozen read-only.
    """

    forward: np.ndarray
    inverse: np.ndarray
    shape: GridShape

    def __post_init__(self) -> None:
        expected = (4, self.shape.length)
        for name in ("forward", "inverse"):
            arr = getattr(self, name)
            if arr.shape != expected:
                raise ValueError(f"{name} must have shape {expected}, got {arr.shape}")
        self.forward.setflags(write=False)
        self.inverse.setflags(write=False)


def _diagonal_order(shape: GridShape, mirror_columns: bool) -> np.ndarray:
    """Visit cells diagonal by diagonal, alternating direction per diagonal.

    Cells are grouped by segment index s = i + j (or s = i + (W-1-j) when
    ``mirror_columns`` is set, which turns main diagonals into
    anti-diagonals). Within a segment, cells are ordered by increasing
    row index i for even s and decreasing i for odd s; the alternation is
    what keeps consecutive segments joined at 4-neighbors.
    """
    h, w = shape.height, shape.width
    i = np.repeat(np.arange(h, dtype=np.int64), w)
    j = np.tile(np.arange(w, dtype=np.int64), h)
    jj = (w - 1 - j) if mirror_columns else j
    segment = i + jj
    row_key = np.where(segment % 2 == 1, -i, i)
    # lexsort keys are (secondary, primary); cells are enumerated
    # row-major, so the sorted positions are already flat indices.
    return np.lexsort((row_key, segment)).astype(np.int64)


def build_base_diagonal(shape: GridShape) -> np.ndarray:
    """Base diagonal order: segments s = i + j for s = 0 .. H+W-2.

    Even segments are traversed top-to-bottom (increasing i), odd
    segments bottom-to-top, and coordinates are flattened as i*W + j.

    Returns:
        int64 array of length L, a permutation of 0 .. L-1.
    """
    return _diagonal_order(shape, mirror_columns=False)


def build_base_antidiagonal(shape: GridShape) -> np.ndarray:
    """Base anti-diagonal order: segments group cells with equal i - j.

    Equivalent to the base diagonal order of the column-reflected grid
    (j -> W-1-j), re-expressed in the original grid's flat indices.

    Returns:
        int64 array of length L, a permutation of 0 .. L-1.
    """
    return _diagonal_order(shape, mirror_columns=True)


def _invert_rows(forward: np.ndarray) -> np.ndarray:
    inverse = np.empty_like(forward)
    positions = np.arange(forward.shape[1], dtype=np.int64)
    for k in range(forward.shape[0]):
        inverse[k, forward[k]] = positions
    return inverse


def build_topoa_indices(shape: GridShape) -> IndexPair:
    """Build the diagonal-family forward/inverse index pair for a grid.

    Forward rows: [diagonal, anti-diagonal, reversed diagonal, reversed
    anti-diagonal]. The reversals flip the completed length-L sequences,
    not the individual segments.
    """
    diag = build_base_diagonal(shape)
    anti = build_base_antidiagonal(shape)
    forward = np.stack([diag, anti, diag[::-1], anti[::-1]])
    return IndexPair(forward=forward, inverse=_invert_rows(forward), shape=shape)


def build_cross_indices(shape: GridShape) -> IndexPair:
    """Build the axis-aligned forward/inverse index pair for a grid.

    Forward rows: [row-major identity, column-major, reversed row-major,
    reversed column-major]. Column-major visits (i, j) by increasing j
    then i, emitting the row-major flat index i*W + j.
    """
    h, w = shape.height, shape.width
    row_major = np.arange(shape.length, dtype=np.int64)
    col_major = row_major.reshape(h, w).T.ravel()
    forward = np.stack([row_major, col_major, row_major[::-1], col_major[::-1]])
    return IndexPair(forward=forward, inverse=_invert_rows(forward), shape=shape)


def adjacent_step_distances(order: np.ndarray, shape: GridShape) -> np.ndarray:
    """Euclidean distances between consecutively visited grid cells.

    Args:
        order: permutation of 0 .. L-1 giving flat indices in visit order.
        shape: grid the indices refer to.

    Returns:
        float64 array of length L-1 (empty for a single-cell grid).

    Raises:
        ValueError: if ``order`` is not a permutation of 0 .. L-1.
    """
    order = np.asarray(order, dtype=np.int64)
    if order.ndim != 1 or order.shape[0] != shape.length:
        raise ValueError(f"order must be a flat sequence of length {shape.length}")
    seen = np.zeros(shape.length, dtype=bool)
    valid = (order >= 0) & (order < shape.length)
    if not valid.all():
        raise ValueError("order contains out-of-range indices")
    seen[order] = True
    if not seen.all():
        raise ValueError("order is not a permutation: some cells are missing")
    i, j = np.divmod(order, shape.width)
    return np.hypot(np.diff(i).astype(np.float64), np.diff(j).astype(np.float64))
