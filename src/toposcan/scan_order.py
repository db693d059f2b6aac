"""Serialization orders for 2D feature grids.

Two families of scan orders are generated over an H-by-W grid flattened
row-major (cell (i, j) gets index i*W + j):

* the diagonal family: alternating main-diagonal and anti-diagonal
  traversals whose consecutive steps always land on 4- or 8-neighbors,
  so adjacent step distances stay within {1, sqrt(2)}. Each cell's rank in
  the diagonal order is written in closed form, not sorted, and the
  anti-diagonal order is its column mirror;
* the axis-aligned family: row-major, column-major, and their reversals,
  the classic four-direction serialization of visual state-space models.

Each family is stored as its two base orders and, unless axis-aligned,
their inverses, in an ``IndexPair`` that ``build_topoa_indices`` or
``build_cross_indices`` returns; the 4-by-L matrices of the four
directions (base orders, then reversals) and their inverses are derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridShape",
    "IndexPair",
    "build_topoa_indices",
    "build_cross_indices",
]


def _require_int(name: str, value: object, minimum: int | None = None) -> int:
    """``value`` as an ``int`` if it is an int or NumPy integer (never a bool)
    and, when ``minimum`` is given, at least ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _require_real(name: str, value: object) -> float:
    """``value`` as a finite ``float`` if it is a Python or NumPy real (never a bool)."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int beyond the float range
        real = math.inf if value > 0 else -math.inf
    if not math.isfinite(real):
        raise ValueError(f"{name} must be finite, got {real}")
    return real


def _require_instance(name: str, value: object, cls: type) -> object:
    """``value`` unchanged if it is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def _require_real_array(name: str, value: object) -> np.ndarray:
    """``value`` as an ndarray, unconverted, if its dtype is bool, integer or
    float; a complex, str or object array would lose or parse its values."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be a real array (bool, integer or float), got {arr.dtype}")
    return arr


def _require_float_array(name: str, value: object, ndim: int) -> np.ndarray:
    """``value`` as a finite float64 ndarray of rank ``ndim``, uncopied if it is one."""
    with np.errstate(over="ignore"):  # a longdouble beyond float64 fails below as inf
        arr = np.asarray(_require_real_array(name, value), dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _require_mask(value: object) -> np.ndarray:
    """``value`` as a non-empty 2-D real ndarray with finite entries, unconverted."""
    arr = _require_real_array("mask", value)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"mask must be a non-empty 2-D array, got shape {arr.shape}")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValueError("mask must be finite")
    return arr


@dataclass(frozen=True)
class GridShape:
    """Dimensions of a 2D grid: ``height`` rows by ``width`` columns."""

    height: int
    width: int

    def __post_init__(self) -> None:
        for name in ("height", "width"):
            object.__setattr__(self, name, _require_int(name, getattr(self, name), 1))

    @property
    def length(self) -> int:
        """Number of cells L = height * width."""
        return self.height * self.width


def _inverse_rows(base: np.ndarray, length: int) -> np.ndarray:
    """Inverse of each row of ``base``, an int64 (2, length) array of permutations."""
    if not isinstance(base, np.ndarray) or base.dtype != np.int64 or base.shape != (2, length):
        raise ValueError(f"base must be an int64 array of shape (2, {length})")
    if not 0 <= base.min() <= base.max() < length:
        raise ValueError(f"base holds entries outside 0 .. {length - 1}")
    inverse = np.full_like(base, -1)  # a repeated index leaves a -1 behind
    positions = np.arange(length)
    for row, order in zip(inverse, base):
        row[order] = positions
    if inverse.min() < 0:
        raise ValueError(f"base rows must be permutations of 0 .. {length - 1}")
    return inverse


@dataclass(frozen=True, eq=False)
class IndexPair:
    """Two base scan orders for one grid shape.

    ``base`` rows are the diagonal and anti-diagonal (diagonal family) or
    row- and column-major order (axis-aligned family), must permute
    0 .. L-1, and are stored as a read-only int64 (2, L) copy of the
    array passed in, so no later write to that array changes the pair.
    ``axis_aligned`` tells whether the rows are row-major then
    column-major order. Every other pair also keeps ``rank``, the
    read-only int64 (2, L) inverse of ``base``: each cell's position in
    each order; an axis-aligned pair keeps None. Equality is identity, so
    pairs are hashable.

    ``forward`` and ``inverse`` derive the (4, L) matrices of the four
    directions on each call; rows 2 and 3 reverse rows 0 and 1.
    """

    base: np.ndarray
    shape: GridShape
    axis_aligned: bool = field(init=False)
    rank: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _require_instance("shape", self.shape, GridShape)
        base = self.base.copy() if isinstance(self.base, np.ndarray) else self.base
        rank = _inverse_rows(base, self.shape.length)
        axis_aligned = bool(np.array_equal(base, _axis_aligned_base(self.shape)))
        for arr in (base, rank):
            arr.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "axis_aligned", axis_aligned)
        object.__setattr__(self, "rank", None if axis_aligned else rank)

    @property
    def forward(self) -> np.ndarray:
        """Read-only (4, L) scan orders: the base rows, then each reversed."""
        out = np.concatenate([self.base, self.base[:, ::-1]])
        out.setflags(write=False)
        return out

    @property
    def inverse(self) -> np.ndarray:
        """Read-only (4, L) inverses of ``forward``, row for row."""
        rank = _inverse_rows(self.base, self.shape.length) if self.rank is None else self.rank
        out = np.concatenate([rank, self.shape.length - 1 - rank])
        out.setflags(write=False)
        return out


def build_topoa_indices(shape: GridShape) -> IndexPair:
    """Build the diagonal-family index pair for a grid.

    Base rows: [diagonal, anti-diagonal]. The diagonal order visits
    segments s = i + j for s = 0 .. H+W-2; segment s spans rows
    lo = max(s-W+1, 0) .. hi = min(s, H-1) and is traversed top-to-bottom
    on even s, bottom-to-top on odd s, which joins consecutive segments at
    4-neighbors. No sort: each cell's rank is the cell count of the earlier
    segments plus i - lo (even) or hi - i (odd). The anti-diagonal order
    groups cells by i - j: it is the diagonal order of the column-reflected
    grid, each index i*W + j of the diagonal moved to i*W + (W-1-j). The
    derived reversals flip the completed length-L sequences, not the
    individual segments.
    """
    _require_instance("shape", shape, GridShape)
    h, w = shape.height, shape.width
    i, j = np.divmod(np.arange(shape.length, dtype=np.int64), w)
    s = i + j
    counts = np.bincount(s)
    place = np.where(s % 2 == 0, i - np.maximum(s - w + 1, 0), np.minimum(s, h - 1) - i)
    diagonal = np.empty(shape.length, dtype=np.int64)
    diagonal[(np.cumsum(counts) - counts)[s] + place] = np.arange(shape.length)
    mirrored = diagonal + (w - 1) - 2 * (diagonal % w)
    return IndexPair(np.stack([diagonal, mirrored]), shape)


def _axis_aligned_base(shape: GridShape) -> np.ndarray:
    """int64 (2, L) rows [row-major identity, column-major] of ``shape``."""
    row_major = np.arange(shape.length, dtype=np.int64)
    return np.stack([row_major, row_major.reshape(shape.height, shape.width).T.ravel()])


def build_cross_indices(shape: GridShape) -> IndexPair:
    """Build the axis-aligned index pair for a grid.

    Base rows: [row-major identity, column-major]. Column-major visits
    (i, j) by increasing j then i, emitting the row-major flat index
    i*W + j.
    """
    _require_instance("shape", shape, GridShape)
    return IndexPair(_axis_aligned_base(shape), shape)
