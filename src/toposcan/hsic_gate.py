"""Dependence-gated fusion of two scan-branch feature maps.

Per batch item, both branches are projected to a small descriptor per
channel (seeded Gaussian random projection, then row normalization), RBF
kernels with a shared median-heuristic bandwidth are built over the
channel descriptors, and the dependence between branches is scored as
the normalized Frobenius inner product of the double-centered kernels.
Each branch's distances come once from its Gram matrix, for the whole batch.
A scalar sigmoid gate converts the score into a blend weight, and a
residual shortcut keeps a minimum contribution of the diagonal-scan
branch regardless of the measured dependence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "GateConfig",
    "BranchPair",
    "GateDiagnostics",
    "effective_projection_width",
    "projection_matrix",
    "project_and_normalize",
    "rbf_kernel",
    "median_bandwidth",
    "hsic_estimate",
    "gate_weight",
    "fuse",
    "fuse_with_diagnostics",
]

ZERO_ROW_EPS = 1e-12
BANDWIDTH_FLOOR = 1e-12
# Distinct (length, width, seed) projections kept resident, least recently
# used evicted first.
PROJECTION_CAPACITY = 256


@dataclass(frozen=True)
class GateConfig:
    """Gate hyperparameters.

    Attributes:
        d_proj: projection width cap; the effective width is
            max(8, min(d_proj, L)).
        alpha: scalar scale on the dependence score (0.5 by default; a
            trainable parameter in the original setting, fixed here).
        temperature: sigmoid temperature, > 0.
        rho: residual weight in [0, 1] on the diagonal-scan branch.
        seed: seed for the cached random projection.
    """

    d_proj: int = 64
    alpha: float = 0.5
    temperature: float = 1.5
    rho: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_proj < 1:
            raise ValueError(f"d_proj must be >= 1, got {self.d_proj}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")


@dataclass(frozen=True)
class BranchPair:
    """The two branch outputs to fuse, each shaped (batch, channels, L)."""

    f_cross: np.ndarray
    f_topoa: np.ndarray

    def __post_init__(self) -> None:
        for name in ("f_cross", "f_topoa"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 3:
                raise ValueError(f"{name} must be 3-D (batch, channels, length)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        if self.f_cross.shape != self.f_topoa.shape:
            raise ValueError(
                f"branch shapes differ: {self.f_cross.shape} vs {self.f_topoa.shape}"
            )

    @classmethod
    def from_feature_maps(cls, cross, topoa) -> "BranchPair":
        """Build from two :class:`~toposcan.ssm.FeatureMap` objects."""
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
    """Projection width actually used: max(8, min(d_proj, length))."""
    return max(8, min(d_proj, length))


@functools.lru_cache(maxsize=PROJECTION_CAPACITY)
def _build_projection(length: int, width: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed & 0xFFFFFFFF, length, width])
    matrix = rng.standard_normal((length, width)) / np.sqrt(width)
    matrix.setflags(write=False)
    return matrix


def projection_matrix(length: int, width: int, seed: int = 0) -> np.ndarray:
    """Cached (length, width) Gaussian projection with entries N(0,1)/sqrt(width).

    The 1/sqrt(width) scaling makes projected squared norms unbiased, so
    pairwise distances are preserved in expectation. The same (length,
    width, seed) always yields the bit-identical read-only matrix; the
    PROJECTION_CAPACITY most recently used matrices stay resident.
    """
    if length < 1 or width < 1:
        raise ValueError("projection dimensions must be >= 1")
    return _build_projection(length, width, seed)


def project_and_normalize(features: np.ndarray, projection: np.ndarray) -> np.ndarray:
    """Project channel rows and normalize each to unit length.

    Args:
        features: (..., channels, L) array.
        projection: (L, k) matrix.

    Returns:
        (..., channels, k) descriptors: rows are (f @ P) / sqrt(L),
        then scaled to unit L2 norm. Rows with norm below 1e-12 are
        left as zeros instead of being divided.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-1] != projection.shape[0]:
        raise ValueError(
            f"feature length {features.shape[-1]} does not match projection rows "
            f"{projection.shape[0]}"
        )
    projected = (features @ projection) / np.sqrt(features.shape[-1])
    norms = np.linalg.norm(projected, axis=-1, keepdims=True)
    safe = np.where(norms < ZERO_ROW_EPS, 1.0, norms)
    return np.where(norms < ZERO_ROW_EPS, 0.0, projected / safe)


# Squared row distances of (..., C, k) stacks from the Gram identity
# n_i + n_j - 2 x_i.x_j: n is the Gram diagonal, so the diagonal is exactly 0.
def _sq_dists(x: np.ndarray) -> np.ndarray:
    gram = x @ x.swapaxes(-1, -2)
    norms = np.diagonal(gram, axis1=-2, axis2=-1)
    return np.maximum(norms[..., :, None] + norms[..., None, :] - 2.0 * gram, 0.0)


def _rbf(sq_dists: np.ndarray, sigma_sq: float | np.ndarray) -> np.ndarray:
    return np.exp(-sq_dists / (2.0 * np.asarray(sigma_sq)[..., None, None]))


def _bandwidth(dc: np.ndarray, dt: np.ndarray) -> np.ndarray:
    pooled = np.concatenate([d[(..., *np.triu_indices(d.shape[-1], k=1))] for d in (dc, dt)], -1)
    return np.maximum(np.median(pooled, axis=-1), BANDWIDTH_FLOOR)


def _hsic(kc: np.ndarray, kt: np.ndarray) -> np.ndarray:
    def center(k: np.ndarray) -> np.ndarray:
        cols, rows = k.mean(axis=-2, keepdims=True), k.mean(axis=-1, keepdims=True)
        return k - cols - rows + k.mean(axis=(-2, -1), keepdims=True)

    return np.sum(center(kc) * center(kt), axis=(-2, -1)) / (kc.shape[-1] - 1) ** 2


def rbf_kernel(x: np.ndarray, sigma_sq: float) -> np.ndarray:
    """Gaussian kernel matrix K[i, j] = exp(-|x_i - x_j|^2 / (2 sigma_sq)).

    The result is exactly symmetric with a unit diagonal.

    Raises:
        ValueError: if sigma_sq <= 0 or x is not 2-D.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D descriptor matrix, got ndim={x.ndim}")
    if not sigma_sq > 0:
        raise ValueError(f"sigma_sq must be > 0, got {sigma_sq}")
    return _rbf(_sq_dists(x), sigma_sq)


def median_bandwidth(xc: np.ndarray, xt: np.ndarray) -> float:
    """Median-heuristic bandwidth shared by both branch kernels.

    Pools the off-diagonal pairwise squared distances of both descriptor
    sets and returns their median (mean of the middle pair for even
    counts), floored at 1e-12 so degenerate collapsed inputs cannot
    produce a zero bandwidth.

    Raises:
        ValueError: if either set has fewer than 2 rows.
    """
    xc = np.asarray(xc, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    if xc.shape[0] < 2 or xt.shape[0] < 2:
        raise ValueError("median bandwidth needs at least 2 descriptor rows per branch")
    return float(_bandwidth(_sq_dists(xc), _sq_dists(xt)))


def hsic_estimate(kc: np.ndarray, kt: np.ndarray) -> float:
    """Dependence score from two kernel matrices.

    Both kernels are double centered (row mean, column mean, and global
    mean removed) and combined as their Frobenius inner product divided
    by (C-1)^2. Non-negative for symmetric PSD inputs up to rounding.

    Raises:
        ValueError: for non-square, mismatched, or C < 2 inputs.
    """
    kc = np.asarray(kc, dtype=np.float64)
    kt = np.asarray(kt, dtype=np.float64)
    if kc.ndim != 2 or kc.shape[0] != kc.shape[1]:
        raise ValueError("kernel matrices must be square")
    if kc.shape != kt.shape:
        raise ValueError(f"kernel shapes differ: {kc.shape} vs {kt.shape}")
    if kc.shape[0] < 2:
        raise ValueError("dependence estimate needs at least 2 channels")
    return float(_hsic(kc, kt))


def gate_weight(hsic: float, cfg: GateConfig) -> float:
    """Sigmoid gate w = sigmoid(alpha * hsic / temperature), in (0, 1)."""
    return float(expit(cfg.alpha * hsic / cfg.temperature))


def fuse_with_diagnostics(
    pair: BranchPair, cfg: GateConfig | None = None
) -> tuple[np.ndarray, list[GateDiagnostics]]:
    """Fuse the two branches, returning the output and per-item internals.

    Each batch item is gated independently: descriptors, bandwidth,
    kernels, and the dependence score are all computed from that item
    alone. Larger scores weight the diagonal-scan branch more inside the
    convex blend; the residual shortcut then mixes that branch back in
    with weight rho, making the rule intentionally asymmetric.
    """
    cfg = GateConfig() if cfg is None else cfg
    _, channels, length = pair.f_cross.shape
    if channels < 2:
        raise ValueError("gating needs at least 2 channels")
    projection = projection_matrix(length, effective_projection_width(cfg.d_proj, length), cfg.seed)
    dc = _sq_dists(project_and_normalize(pair.f_cross, projection))
    dt = _sq_dists(project_and_normalize(pair.f_topoa, projection))
    sigma_sq = _bandwidth(dc, dt)
    scores = _hsic(_rbf(dc, sigma_sq), _rbf(dt, sigma_sq))
    items = zip(scores.tolist(), sigma_sq.tolist())
    diagnostics = [GateDiagnostics(h, s, gate_weight(h, cfg)) for h, s in items]
    a = cfg.rho + (1.0 - cfg.rho) * np.array([d.w for d in diagnostics])[:, None, None]
    return a * pair.f_topoa + (1.0 - a) * pair.f_cross, diagnostics


def fuse(pair: BranchPair, cfg: GateConfig | None = None) -> np.ndarray:
    """Fused (batch, channels, L) features; see :func:`fuse_with_diagnostics`."""
    fused, _ = fuse_with_diagnostics(pair, cfg)
    return fused
