"""Fixed-parameter state-space recurrence over serialized feature maps.

The recurrence is the discretized diagonal linear system

    h[k] = a_bar * h[k-1] + b_bar * x[k]        (per state, h[0-] = 0)
    y[k] = sum_n c[n] * h[k, n] + d * x[k]

with zero-order-hold discretization a_bar = exp(delta * a) and
b_bar = (exp(delta * a) - 1) / a * b. ``multi_direction_scan`` runs it
along all four rows of an index pair: gather by the forward row, scan,
scatter back by the inverse row, and sum the four restored maps.

The scan is evaluated in chunks of ``CHUNK`` steps, the block
decomposition of Mamba-2's state-space duality (Dao & Gu, 2024) applied
to the diagonal system of S4 (Gu et al., 2022). Within a chunk, one
matrix product applies the lower-triangular kernel
K[t, s] = sum_n c a_bar^(t-s) b_bar (with d on the diagonal) and yields
each chunk's end states. A first-order filter with decay a_bar^CHUNK
carries the states across chunk ends, and a second product adds their
effect to the following chunk. The modal (per-state) form is kept: one
order-N direct-form filter with denominator poly(a_bar) loses accuracy
as N grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.signal import lfilter

from .scan_order import GridShape, IndexPair

CHUNK = 64
"""Steps per chunk of the chunked scan."""

__all__ = [
    "CHUNK",
    "SsmParams",
    "FeatureMap",
    "default_params",
    "passthrough_params",
    "discretize",
    "scan_sequence",
    "multi_direction_scan",
]


@dataclass(frozen=True)
class SsmParams:
    """Diagonal state-space coefficients.

    Attributes:
        a: per-state transition coefficients, strictly negative (stable).
        b: per-state input coefficients.
        c: per-state output coefficients.
        d: scalar feed-through.
        delta: discretization step size, > 0.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-D array")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.a.shape == self.b.shape == self.c.shape):
            raise ValueError("a, b, c must have identical shapes")
        if not np.all(self.a < 0):
            raise ValueError("all state-transition coefficients must be strictly negative")
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @cached_property
    def _chunk_operators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (step, decay, carry) operators of the chunked scan.

        ``step`` is (CHUNK, CHUNK + N). Its first CHUNK columns hold the
        transposed in-chunk kernel, step[s, t] = sum_n c a_bar^(t-s) b_bar
        for t >= s plus d on the diagonal; its last N columns hold
        a_bar^(CHUNK-1-s) b_bar, which give a chunk's end states.
        ``decay`` is a_bar^CHUNK, and ``carry`` is (N, CHUNK) with entries
        c a_bar^(t+1): the response inside a chunk to the incoming state.
        """
        a_bar, b_bar = discretize(self)
        powers = a_bar ** np.arange(CHUNK + 1)[:, None]  # (CHUNK + 1, N)
        impulse = powers[:CHUNK] @ (self.c * b_bar)
        t = np.arange(CHUNK)
        lag = t[None, :] - t[:, None]
        step = np.empty((CHUNK, CHUNK + self.state_dim))
        step[:, :CHUNK] = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
        step[t, t] += self.d
        step[:, CHUNK:] = powers[CHUNK - 1 - t] * b_bar
        decay = powers[CHUNK]
        carry = (powers[1:] * self.c).T
        for arr in (step, decay, carry):
            arr.setflags(write=False)
        return step, decay, carry


def default_params() -> SsmParams:
    """Default 4-state configuration: a = (-1, -2, -3, -4), b = c = 1, d = 0, delta = 0.1."""
    return SsmParams(
        a=np.array([-1.0, -2.0, -3.0, -4.0]),
        b=np.ones(4),
        c=np.ones(4),
        d=0.0,
        delta=0.1,
    )


def passthrough_params() -> SsmParams:
    """Pass-through configuration (c = 0, d = 1): the scan returns its input bit-exactly."""
    return SsmParams(
        a=np.array([-1.0, -2.0, -3.0, -4.0]),
        b=np.ones(4),
        c=np.zeros(4),
        d=1.0,
        delta=0.1,
    )


@dataclass(frozen=True)
class FeatureMap:
    """Batch of multi-channel feature maps flattened row-major.

    ``data`` has shape (batch, channels, L) with L = height * width of
    ``shape``; values must be finite.
    """

    data: np.ndarray
    shape: GridShape

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 3:
            raise ValueError(f"data must be 3-D (batch, channels, length), got ndim={data.ndim}")
        if data.shape[2] != self.shape.length:
            raise ValueError(
                f"data length {data.shape[2]} does not match grid length {self.shape.length}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "data", data)

    @property
    def batch(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[1]

    @classmethod
    def from_grid(cls, array: np.ndarray) -> "FeatureMap":
        """Wrap a (batch, channels, height, width) array, flattening row-major."""
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 4:
            raise ValueError(f"expected a 4-D array, got ndim={array.ndim}")
        b, c, h, w = array.shape
        return cls(data=array.reshape(b, c, h * w), shape=GridShape(h, w))

    def to_grid(self) -> np.ndarray:
        """View of the data reshaped to (batch, channels, height, width)."""
        b, c, _ = self.data.shape
        return self.data.reshape(b, c, self.shape.height, self.shape.width)


def discretize(params: SsmParams) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold discretization of the diagonal system.

    Returns:
        (a_bar, b_bar) with a_bar = exp(delta * a) and
        b_bar = (exp(delta * a) - 1) / a * b. The formula is singular at
        a = 0, which :class:`SsmParams` already excludes.
    """
    if np.any(params.a == 0):
        raise ValueError("zero-order hold is singular for a == 0")
    a_bar = np.exp(params.delta * params.a)
    b_bar = (a_bar - 1.0) / params.a * params.b
    return a_bar, b_bar


def _scan_last_axis(data: np.ndarray, params: SsmParams) -> np.ndarray:
    """Run the recurrence along the last axis of ``data``, CHUNK steps at a time.

    Each sequence is one 3-D product over (rows, chunks, CHUNK), so a
    sequence's result does not depend on how many others share the call.
    """
    *lead, length = data.shape
    if data.size == 0:
        return np.zeros(data.shape)
    step, decay, carry = params._chunk_operators
    chunks = -(-length // CHUNK)
    if chunks * CHUNK != length:
        padded = np.zeros((*lead, chunks * CHUNK))
        padded[..., :length] = data
        data = padded
    out = data.reshape(-1, chunks, CHUNK) @ step  # (rows, chunks, CHUNK + N)
    y = np.empty((out.shape[0], chunks, CHUNK))
    y[:, 0] = out[:, 0, :CHUNK]
    if chunks > 1:
        ends = out[:, :-1, CHUNK:]
        carried = np.empty(ends.shape)
        for n in range(params.state_dim):
            carried[..., n] = lfilter([1.0], [1.0, -decay[n]], ends[..., n], axis=-1)
        np.matmul(carried, carry, out=y[:, 1:])
        y[:, 1:] += out[:, 1:, :CHUNK]
    return y.reshape(*lead, chunks * CHUNK)[..., :length]


def scan_sequence(x: np.ndarray, params: SsmParams) -> np.ndarray:
    """Apply the discretized recurrence to a 1-D sequence (zero initial state).

    Raises:
        ValueError: for non-1-D or non-finite input.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input sequence must be finite")
    return _scan_last_axis(x, params)


def multi_direction_scan(
    x: FeatureMap,
    indices: IndexPair,
    params: SsmParams,
) -> FeatureMap:
    """Gather, scan, and scatter along all four directions, then sum.

    For each direction k the channels are gathered by ``forward[k]``,
    scanned independently per (batch, channel), and scattered back to
    raster order by ``inverse[k]``. The four restored maps are summed in
    the fixed order k = 0, 1, 2, 3, so results are reproducible.

    Raises:
        ValueError: if ``indices.shape`` does not match the feature map.
    """
    if indices.shape != x.shape:
        raise ValueError(
            f"index shape {indices.shape} does not match feature map shape {x.shape}"
        )
    gathered = x.data[..., indices.forward]  # (B, C, 4, L)
    scanned = _scan_last_axis(gathered, params)
    merged = None
    for k in range(4):
        restored = scanned[:, :, k, :][..., indices.inverse[k]]
        merged = restored if merged is None else merged + restored
    return FeatureMap(data=merged, shape=x.shape)
