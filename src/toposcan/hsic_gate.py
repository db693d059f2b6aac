"""Dependence-gated fusion of two scan-branch feature maps.

Per batch item, both branches are projected to a small descriptor per
channel (a seeded sign sketch, then row normalization), RBF kernels
with a shared median-heuristic bandwidth are built over the channel
descriptors, and the dependence between branches is scored as
the normalized Frobenius inner product of the double-centered kernels.
Both branches go through the gate as one (2, batch, channels, .) stack:
one weighted bincount sketches every row, one Gram pass gives the
distances, one exp builds both kernels and one pass centers them.
A scalar sigmoid gate converts the score into a blend weight, and a
residual shortcut keeps a minimum contribution of the diagonal-scan
branch regardless of the measured dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# Eager: NumPy imports numpy.random lazily, and the first sketch draw
# would otherwise pay that import (about 15 ms) inside a caller's first forward.
from numpy.random import default_rng

from .scan_order import _require_float_array, _require_instance, _require_int, _require_real
from .ssm import FeatureMap

__all__ = [
    "GateConfig",
    "BranchPair",
    "GateDiagnostics",
    "effective_projection_width",
    "projection_matrix",
    "gate_weight",
    "fuse_with_diagnostics",
]

ZERO_ROW_EPS = 1e-12
BANDWIDTH_FLOOR = 1e-12
_GRAM_ROUNDING = 8.0 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class GateConfig:
    """Gate hyperparameters.

    Attributes:
        d_proj: projection width cap; the effective width is
            max(8, min(d_proj, L)).
        alpha: scalar scale on the dependence score (0.5 by default; a
            trainable parameter in the original setting, fixed here).
        temperature: sigmoid temperature, finite and > 0.
        rho: residual weight in [0, 1] on the diagonal-scan branch.
        seed: seed of the sign sketch that projects the descriptors.
    """

    d_proj: int = 64
    alpha: float = 0.5
    temperature: float = 1.5
    rho: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_proj", _require_int("d_proj", self.d_proj, 1))
        object.__setattr__(self, "seed", _require_int("seed", self.seed))
        for name in ("alpha", "temperature", "rho"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name)))
        if not self.temperature > 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")


@dataclass(frozen=True, eq=False)
class BranchPair:
    """The two branch outputs to fuse, each shaped (batch, channels, L)."""

    f_cross: np.ndarray
    f_topoa: np.ndarray

    def __post_init__(self) -> None:
        for name in ("f_cross", "f_topoa"):
            arr = _require_float_array(name, getattr(self, name), 3)
            if arr.shape[0] < 1:
                raise ValueError(f"{name} must hold at least one batch item")
            object.__setattr__(self, name, arr)
        if self.f_cross.shape != self.f_topoa.shape:
            raise ValueError(
                f"branch shapes differ: {self.f_cross.shape} vs {self.f_topoa.shape}"
            )

    @classmethod
    def from_feature_maps(cls, cross: FeatureMap, topoa: FeatureMap) -> "BranchPair":
        """Build from two :class:`~toposcan.ssm.FeatureMap` objects."""
        _require_instance("cross", cross, FeatureMap)
        _require_instance("topoa", topoa, FeatureMap)
        return cls(f_cross=cross.data, f_topoa=topoa.data)


@dataclass(frozen=True)
class GateDiagnostics:
    """Per-batch-item gate internals."""

    hsic: float
    sigma_sq: float
    w: float

    def as_dict(self) -> dict:
        return {"hsic": self.hsic, "sigma_sq": self.sigma_sq, "w": self.w}


def effective_projection_width(d_proj: int, length: int) -> int:
    """Projection width actually used: max(8, min(d_proj, length)).

    Raises:
        ValueError: unless both arguments are integers >= 1.
    """
    return max(8, min(_require_int("d_proj", d_proj, 1), _require_int("length", length, 1)))


# No lock: racing threads draw the same values, so a race only repeats a draw.
_SKETCHES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _sketch(length: int, width: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Column and sign of each of the first ``length`` positions.

    One draw v = default_rng([seed mod 2^32, width]).integers(0, 2 * width)
    per position gives the column v mod width and the sign +1 if v < width,
    else -1. The draw is prefix-consistent, so the store keeps one read-only
    (columns, signs) pair per (width, seed), as long as the longest length seen.
    """
    length, width = _require_int("length", length, 1), _require_int("width", width, 1)
    seed = _require_int("seed", seed)
    stored = _SKETCHES.get((width, seed))
    if stored is None or stored[0].shape[0] < length:
        draw = default_rng([seed & 0xFFFFFFFF, width]).integers(0, 2 * width, length)
        stored = (draw % width, np.where(draw < width, 1.0, -1.0))
        for part in stored:
            part.setflags(write=False)
        _SKETCHES[(width, seed)] = stored
    columns, signs = stored
    return columns[:length], signs[:length]


def projection_matrix(length: int, width: int, seed: int = 0) -> np.ndarray:
    """Dense (length, width) form of the gate's seeded sign sketch.

    Row i holds one nonzero: the sign of position i in its column, from
    the draw that :func:`fuse_with_diagnostics` sketches with. No
    1/sqrt(width) scale is applied, because squared norms are already
    unbiased. The matrix is built on each call, read-only and
    C-contiguous; a shorter length gives bitwise the prefix of a longer
    one, and the same arguments always give the same matrix.
    """
    columns, signs = _sketch(length, width, seed)
    dense = np.zeros((len(columns), width))
    dense[np.arange(len(columns)), columns] = signs
    dense.setflags(write=False)
    return dense


def _unit_rows(signed: np.ndarray, columns: np.ndarray, width: int, k: int) -> np.ndarray:
    """Unit-length (..., width) descriptors of (..., L) rows f already
    multiplied by their signs and by 2^-k, with 2^k >= L.

    Each row is (f @ S) / sqrt(L) for the seeded sign sketch S
    (``projection_matrix(L, width, seed)``), computed as one weighted
    ``np.bincount`` that adds 2^-k sign * f to its column, then scaled to
    unit L2 norm. The 2^-k is exact and keeps a column's sum of up to L
    finite features finite. Rows whose norm, 2^k times the scaled one, is
    below ``ZERO_ROW_EPS`` stay zeros instead of being divided. The norm is
    taken of each row divided by a power of two near its largest magnitude
    (``frexp``/``ldexp``), which is exact, so squaring cannot overflow
    however large the features are.
    """
    *lead, length = signed.shape
    rows = math.prod(lead)
    index = (np.arange(rows)[:, None] * width + columns).ravel()
    projected = np.bincount(index, signed.ravel(), minlength=rows * width)
    projected = projected.reshape(*lead, width) / math.sqrt(length)
    _, exponent = np.frexp(np.maximum.reduce(np.abs(projected), axis=-1, keepdims=True))
    scaled = np.ldexp(projected, -exponent)
    scaled_norms = np.sqrt(np.add.reduce(scaled * scaled, axis=-1, keepdims=True))
    zero = np.ldexp(scaled_norms, exponent) < math.ldexp(ZERO_ROW_EPS, -k)
    if not zero.any():
        return scaled / scaled_norms
    return np.where(zero, 0.0, scaled / np.where(zero, 1.0, scaled_norms))


# Squared row distances of (..., C, k) stacks from the Gram identity
# n_i + n_j - 2 x_i.x_j: n is the Gram diagonal, so the diagonal is exactly 0.
# Entries at or below the identity's rounding, 8 eps (n_i + n_j), snap to 0,
# so rows that differ only by rounding count as equal.
def _sq_dists(x: np.ndarray) -> np.ndarray:
    gram = x @ x.swapaxes(-1, -2)
    norms = gram.diagonal(axis1=-2, axis2=-1)
    scale = norms[..., :, None] + norms[..., None, :]
    dists = scale - 2.0 * gram
    return np.where(dists > _GRAM_ROUNDING * scale, dists, 0.0)


def _rbf(sq_dists: np.ndarray, sigma_sq: float | np.ndarray) -> np.ndarray:
    return np.exp(-sq_dists / (2.0 * np.asarray(sigma_sq)[..., None, None]))


# The median of the pooled upper-triangle entries of two (..., n, n) distance
# stacks. Each stack is symmetric, its diagonal is exactly 0 and no entry is
# negative, so the sorted whole matrices are the diagonal zeros, then every
# upper entry twice: ranks k - 1 and k, k = diagonal + upper entries, are the
# middle pair of the upper entries, or their one middle entry twice.
def _bandwidth(dc: np.ndarray, dt: np.ndarray) -> np.ndarray:
    diagonal = dc.shape[-1] + dt.shape[-1]
    pooled = np.concatenate([d.reshape(*d.shape[:-2], -1) for d in (dc, dt)], -1)
    k = (pooled.shape[-1] + diagonal) // 2
    pooled.partition((k - 1, k), axis=-1)
    middle = pooled[..., k - 1 : k + 1]
    if (k - diagonal) % 2:  # an odd count: the middle entry alone, as np.median takes it
        middle = middle[..., 1:]
    return np.maximum(np.add.reduce(middle, axis=-1) / middle.shape[-1], BANDWIDTH_FLOOR)


# Scores of a (2, ..., n, n) stack of kernels: the Frobenius inner product of
# its two double-centered halves over (n - 1)^2. Each mean is its sum over the
# count, as np.mean takes it.
def _hsic(kernels: np.ndarray) -> np.ndarray:
    n = kernels.shape[-1]
    cols = np.add.reduce(kernels, axis=-2, keepdims=True) / n
    rows = np.add.reduce(kernels, axis=-1, keepdims=True) / n
    total = np.add.reduce(kernels, axis=(-2, -1), keepdims=True) / (n * n)
    centered = kernels - cols - rows + total
    return np.add.reduce(centered[0] * centered[1], axis=(-2, -1)) / (n - 1) ** 2


def gate_weight(hsic: float, cfg: GateConfig) -> float:
    """Sigmoid gate w = sigmoid(alpha * hsic / temperature), in [0, 1].

    The sigmoid is 1 / (1 + exp(-z)) with libm's ``math.exp``, and 0.0
    where exp(-z) overflows: bitwise ``scipy.special.expit(z)``, which
    ``np.exp`` is not (it differs in the last ulp on some inputs).

    Raises:
        ValueError: if ``hsic`` is not a finite real number or ``cfg`` not
            a :class:`GateConfig`.
    """
    hsic = _require_real("hsic", hsic)
    _require_instance("cfg", cfg, GateConfig)
    try:
        return 1.0 / (1.0 + math.exp(-(cfg.alpha * hsic / cfg.temperature)))
    except OverflowError:
        return 0.0


def fuse_with_diagnostics(
    pair: BranchPair, cfg: GateConfig | None = None
) -> tuple[np.ndarray, list[GateDiagnostics]]:
    """Fuse the two branches, returning the output and per-item internals.

    Each batch item is gated independently: descriptors, bandwidth,
    kernels, and the dependence score are all computed from that item
    alone. Larger scores weight the diagonal-scan branch more inside the
    convex blend; the residual shortcut then mixes that branch back in
    with weight rho, making the rule intentionally asymmetric.

    Raises:
        ValueError: if ``pair`` is not a :class:`BranchPair`, ``cfg`` is
            neither None nor a :class:`GateConfig`, or there are fewer than
            2 channels.
    """
    _require_instance("pair", pair, BranchPair)
    cfg = GateConfig() if cfg is None else _require_instance("cfg", cfg, GateConfig)
    batch, channels, length = pair.f_cross.shape
    if channels < 2:
        raise ValueError("gating needs at least 2 channels")
    width = effective_projection_width(cfg.d_proj, length)
    columns, signs = _sketch(length, width, cfg.seed)
    k = (length - 1).bit_length()  # the least k with 2^k >= L
    signs = np.ldexp(signs, -k)
    # Both branches go through the gate as one (2, B, C, .) stack.
    signed = np.empty((2, batch, channels, length))
    np.multiply(pair.f_cross, signs, out=signed[0])
    np.multiply(pair.f_topoa, signs, out=signed[1])
    dists = _sq_dists(_unit_rows(signed, columns, width, k))
    sigma_sq = _bandwidth(dists[0], dists[1])
    scores = _hsic(_rbf(dists, sigma_sq))
    items = zip(scores.tolist(), sigma_sq.tolist())
    diagnostics = [GateDiagnostics(h, s, gate_weight(h, cfg)) for h, s in items]
    a = cfg.rho + (1.0 - cfg.rho) * np.array([d.w for d in diagnostics])[:, None, None]
    fused = a * pair.f_topoa
    fused += (1.0 - a) * pair.f_cross
    return fused, diagnostics

