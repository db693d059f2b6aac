"""Fixed-parameter state-space recurrence over serialized feature maps.

The recurrence is the discretized diagonal linear system

    h[k] = a_bar * h[k-1] + b_bar * x[k]        (per state, h[0-] = 0)
    y[k] = sum_n c[n] * h[k, n] + d * x[k]

with zero-order-hold discretization a_bar = exp(delta * a) and
b_bar = (exp(delta * a) - 1) / a * b. ``multi_direction_scan`` runs it
along four directions as the forward and backward scans of an index
pair's two base orders, restores the results to raster order by
gathering through each order's stored inverse, and sums the restored
maps as (r0 + r2) + (r1 + r3). An axis-aligned pair's orders are the
raster and its transpose, so it is gathered and restored by transposes
instead, bitwise to the same sum.

The scan is evaluated in chunks of ``CHUNK`` steps, the block
decomposition of Mamba-2's state-space duality (Dao & Gu, 2024) applied
to the diagonal system of S4 (Gu et al., 2022). Within a chunk, one
matrix product applies the lower-triangular kernel
K[t, s] = sum_n c a_bar^(t-s) b_bar (with d on the diagonal) and yields
each chunk's end states. The states are carried across chunk ends by the
same chunked form one level up: per block of 8 chunk ends, one product
runs the first-order recurrence with the per-chunk decay q = a_bar^CHUNK,
the block ends are carried the same way with decay q^8, and so on until
at most 8 remain. A second product adds the carried states' effect to
each chunk. The modal (per-state) form is kept: one order-N
direct-form filter with denominator poly(a_bar) loses accuracy as N
grows.

A forward and a backward scan of one sequence sum to one symmetric
Toeplitz kernel, K[|t - s|] with 2d on the diagonal: the bidirectional
quasiseparable mixer of Hydra (Hwang et al., 2024). The two-sided scan
applies it in the same chunked form. One product per chunk gives the
symmetric local part, the end states and the start states. The start
states in reverse chunk order follow the causal recurrence, so they are
carried as extra rows of the end states' one causal carry, and one more
product adds both to each chunk.

Each operator family is checked where it is first built: coefficients
whose operators overflow fail with ``ValueError`` instead of scanning
to inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .scan_order import GridShape, IndexPair, _require_float_array, _require_instance, _require_real

CHUNK = 64
"""Steps per chunk of the chunked scan."""

_CARRY_BLOCK = 8  # chunk states carried per product, at every level

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


def _frozen_operators(family: str, *operators: np.ndarray) -> tuple[np.ndarray, ...]:
    """``operators``, made read-only, after checking that every entry is finite.

    Raises:
        ValueError: naming ``family`` if an entry is inf or NaN.
    """
    if not all(np.isfinite(arr).all() for arr in operators):
        raise ValueError(f"a, b, c and d give non-finite {family} scan operators")
    for arr in operators:
        arr.setflags(write=False)
    return operators


@dataclass(frozen=True, eq=False)
class SsmParams:
    """Diagonal state-space coefficients; ``a``, ``b`` and ``c`` are read-only copies.

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
            arr = _require_float_array(name, getattr(self, name), 1).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.a.shape == self.b.shape == self.c.shape) or self.a.size == 0:
            raise ValueError("a, b, c must be non-empty and of identical shapes")
        for name in ("d", "delta"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name)))
        if not np.all(self.a < 0):
            raise ValueError("all state-transition coefficients must be strictly negative")
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @cached_property
    def _chunk_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (step, carry) operators of the causal chunked scan.

        ``step`` is (CHUNK, CHUNK + N). Its first CHUNK columns hold the
        transposed in-chunk kernel, step[s, t] = sum_n c a_bar^(t-s) b_bar
        for t >= s plus d on the diagonal; its last N columns hold
        a_bar^(CHUNK-1-s) b_bar, which give a chunk's end states.
        ``carry`` is (N, CHUNK) with entries c a_bar^(t+1): the response
        inside a chunk to the incoming state.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            a_bar, b_bar = discretize(self)
            powers = a_bar ** np.arange(CHUNK + 1)[:, None]  # (CHUNK + 1, N)
            impulse = powers[:CHUNK] @ (self.c * b_bar)
            t = np.arange(CHUNK)
            lag = t[None, :] - t[:, None]
            step = np.empty((CHUNK, CHUNK + self.state_dim))
            step[:, :CHUNK] = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
            step[t, t] += self.d
            step[:, CHUNK:] = powers[CHUNK - 1 - t] * b_bar
            carry = (powers[1:] * self.c).T
        return _frozen_operators("causal", step, carry)

    @cached_property
    def _two_sided_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (step, carry) operators of the two-sided chunked scan.

        ``step`` is (CHUNK, CHUNK + 2N): the symmetric kernel
        step[s, t] = sum_n c a_bar^|t-s| b_bar, whose diagonal counts the
        causal and anti-causal kernels and d once each, then the causal
        end-state columns a_bar^(CHUNK-1-s) b_bar and the anti-causal
        start-state columns a_bar^s b_bar. ``carry`` is (2N, CHUNK): the causal rows c a_bar^(t+1) over the
        anti-causal rows c a_bar^(CHUNK-t), the response inside a chunk to
        the state entering from the chunk before it and after it.
        """
        causal, carry = self._chunk_operators
        kernel = causal[:, :CHUNK]
        with np.errstate(over="ignore", invalid="ignore"):
            symmetric = kernel + kernel.T
        step = np.concatenate([symmetric, causal[:, CHUNK:], causal[::-1, CHUNK:]], axis=1)
        carry = np.concatenate([carry, carry[:, ::-1]])
        return _frozen_operators("two-sided", step, carry)

    @cached_property
    def _carry_store(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        return {}

    def _carry_operators(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (block, entry) operators that carry chunk states at ``level``.

        Level 0 carries chunk states with the per-chunk decay
        q = a_bar^CHUNK, one per state (S = N); level k carries the block
        ends of level k - 1 with q^(8^k). ``block`` is (8S, 8S) with
        block[(u, s), (t, s)] = q_s^(t-u) for t >= u and 0 elsewhere: the
        recurrence over 8 steps from a zero state. ``entry`` is (S, 8S)
        with entry[s, (t, s)] = q_s^(t+1) and 0 elsewhere: the response to
        the state entering a block. Each level is built once; racing
        threads build the same values.
        """
        operators = self._carry_store.get(level)
        if operators is None:
            with np.errstate(over="ignore", invalid="ignore"):
                decay = discretize(self)[0] ** (CHUNK * _CARRY_BLOCK**level)
            powers = decay ** np.arange(_CARRY_BLOCK + 1)[:, None]  # (9, S)
            t = np.arange(_CARRY_BLOCK)
            lag = t[None, :] - t[:, None]  # [u, t]
            kernel = np.where((lag >= 0)[..., None], powers[np.maximum(lag, 0)], 0.0)
            eye = np.eye(decay.shape[0])  # [s, s']
            block = (kernel[:, None] * eye[None, :, None]).reshape(-1, _CARRY_BLOCK * len(eye))
            entry = (powers[1:] * eye[:, None]).reshape(len(eye), -1)
            operators = _frozen_operators("carry", block, entry)
            self._carry_store[level] = operators
        return operators


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


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Batch of multi-channel feature maps flattened row-major.

    ``data`` has shape (batch, channels, L) with L = height * width of
    ``shape``; values must be finite.
    """

    data: np.ndarray
    shape: GridShape

    def __post_init__(self) -> None:
        _require_instance("shape", self.shape, GridShape)
        data = _require_float_array("data", self.data, 3)
        if data.shape[2] != self.shape.length:
            raise ValueError(
                f"data length {data.shape[2]} does not match grid length {self.shape.length}"
            )
        object.__setattr__(self, "data", data)

    @property
    def batch(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[1]


def discretize(params: SsmParams) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold discretization of the diagonal system.

    Returns:
        (a_bar, b_bar) with a_bar = exp(delta * a) and
        b_bar = (exp(delta * a) - 1) / a * b. The formula is singular at
        a = 0, which :class:`SsmParams` already excludes.
    """
    _require_instance("params", params, SsmParams)
    a_bar = np.exp(params.delta * params.a)
    b_bar = (a_bar - 1.0) / params.a * params.b
    return a_bar, b_bar


def _carry_states(states: np.ndarray, params: SsmParams, level: int = 0) -> np.ndarray:
    """h[j] = q * h[j-1] + states[:, j] (h[-1] = 0) of a (rows, m, S) array,
    with S = N and q the decay of ``level`` (see ``SsmParams._carry_operators``).

    One product per row and block of 8 steps runs the recurrence from a
    zero state; the block ends, carried by this same function one level
    up, then enter each later block by one more product.
    """
    block, entry = params._carry_operators(level)
    rows, m, s = states.shape
    blocks = -(-m // _CARRY_BLOCK)
    if blocks * _CARRY_BLOCK != m:
        states = np.concatenate([states, np.zeros((rows, blocks * _CARRY_BLOCK - m, s))], axis=1)
    out = states.reshape(rows, blocks, _CARRY_BLOCK * s) @ block
    if blocks > 1:
        ends = np.ascontiguousarray(out[:, :-1, -s:])
        out[:, 1:] += _carry_states(ends, params, level + 1) @ entry
    return out.reshape(rows, blocks * _CARRY_BLOCK, s)[:, :m]


def _scan_last_axis(data: np.ndarray, params: SsmParams, two_sided: bool = False) -> np.ndarray:
    """Run the recurrence along the last axis of ``data``, CHUNK steps at a time.

    With ``two_sided``, the recurrence also runs from the end and the two
    are summed: the result equals scan(x) + scan(x[::-1])[::-1] to
    rounding, from one symmetric product per chunk and one causal carry.
    Each sequence is one 3-D product over (rows, chunks, CHUNK), so a
    sequence's result does not depend on how many others share the call.
    """
    *lead, length = data.shape
    if data.size == 0:
        return np.zeros(data.shape)
    step, carry = params._two_sided_operators if two_sided else params._chunk_operators
    n = params.state_dim
    chunks = -(-length // CHUNK)
    if chunks * CHUNK != length:
        padded = np.zeros((*lead, chunks * CHUNK))
        padded[..., :length] = data
        data = padded
    out = data.reshape(-1, chunks, CHUNK) @ step  # (rows, chunks, CHUNK + N, or + 2N)
    rows = out.shape[0]
    # The states entering each chunk from the chunk before it (and, two-sided, after it).
    entering = np.zeros((rows, chunks, carry.shape[0]))
    if chunks > 1:
        # Forward end states, then backward start states in reverse chunk order
        # as more rows; zero end padding adds nothing to a state carried backward.
        states = out[:, :-1, CHUNK : CHUNK + n]
        if two_sided:
            states = np.concatenate([states, out[:, :0:-1, CHUNK + n :]])
        carried = _carry_states(states, params)
        entering[:, 1:, :n] = carried[:rows]
        if two_sided:
            entering[:, :-1, n:] = carried[rows:, ::-1]
    y = entering @ carry
    y += out[..., :CHUNK]
    return y.reshape(*lead, chunks * CHUNK)[..., :length]


def scan_sequence(x: np.ndarray, params: SsmParams) -> np.ndarray:
    """Apply the discretized recurrence to a 1-D sequence (zero initial state).

    Raises:
        ValueError: for non-1-D or non-finite input, or ``params`` that is
            not an :class:`SsmParams`.
    """
    _require_instance("params", params, SsmParams)
    return _scan_last_axis(_require_float_array("x", x, 1), params)


def multi_direction_scan(
    x: FeatureMap,
    indices: IndexPair,
    params: SsmParams,
) -> FeatureMap:
    """Scan along all four directions and sum the restored maps.

    Directions 2 and 3 reverse base orders 0 and 1, so the channels are
    gathered once by ``indices.base`` and each base sequence g gets one
    two-sided scan: one symmetric product per chunk, with a forward and a
    backward carry, equal to ``scan(g) + scan(g[::-1])[::-1]`` to
    rounding. Each result is restored to raster order by one gather
    through the inverse of the base row it was gathered by
    (``indices.rank``), and the restored maps sum in the order
    (r0 + r2) + (r1 + r3): bitwise the scatter through ``base``.

    An axis-aligned pair (``indices.axis_aligned``) moves no index: its
    base rows are the raster itself and its transpose, so the gather
    copies the map and its (W, H) transpose, and the restore adds row 0
    to row 1 transposed back, bitwise the same sum.

    Raises:
        ValueError: if an argument is not of its annotated type, or
            ``indices.shape`` does not match the feature map.
    """
    _require_instance("x", x, FeatureMap)
    _require_instance("indices", indices, IndexPair)
    _require_instance("params", params, SsmParams)
    if indices.shape != x.shape:
        raise ValueError(
            f"index shape {indices.shape} does not match feature map shape {x.shape}"
        )
    if indices.axis_aligned:
        batch, channels, length = x.data.shape
        h, w = x.shape.height, x.shape.width
        g = np.empty((batch, channels, 2, length))
        g[..., 0, :] = x.data
        g.reshape(batch, channels, 2, w, h)[..., 1, :, :] = x.data.reshape(
            batch, channels, h, w
        ).swapaxes(-1, -2)
        both = _scan_last_axis(g, params, two_sided=True)
        columns = both[..., 1, :].reshape(batch, channels, w, h).swapaxes(-1, -2)
        merged = both[..., 0, :].reshape(batch, channels, h, w) + columns
        return FeatureMap(data=merged.reshape(batch, channels, length), shape=x.shape)
    g = np.take(x.data, indices.base, axis=-1)  # (B, C, 2, L)
    both = _scan_last_axis(g, params, two_sided=True)
    merged = np.take(both[..., 0, :], indices.rank[0], axis=-1)
    merged += np.take(both[..., 1, :], indices.rank[1], axis=-1)
    return FeatureMap(data=merged, shape=x.shape)
