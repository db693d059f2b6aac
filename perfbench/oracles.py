"""Independent references the benchmark checks the library against.

Each check returns a list of failure messages; an empty list passes.
Floating-point comparisons use a relative tolerance of 1e-10 with an
absolute floor of 1e-10 times the reference's largest magnitude, so
that entries that cancel to near zero are judged at the scale of the
array they belong to.
"""

from __future__ import annotations

import numpy as np

from toposcan import FeatureMap, GateConfig, SsmParams, gate_weight, projection_matrix
from toposcan.hsic_gate import effective_projection_width

from .model import FAMILIES, StageOut

RTOL = 1e-10


def close(got, ref) -> bool:
    """True when ``got`` matches ``ref`` within RTOL at the reference's scale."""
    ref = np.asarray(ref, dtype=np.float64)
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    return bool(np.allclose(got, ref, rtol=RTOL, atol=RTOL * scale))


def direct_recurrence(x: np.ndarray, params: SsmParams) -> np.ndarray:
    """h[k] = a_bar h[k-1] + b_bar x[k], y[k] = c . h[k] + d x[k], step by step.

    Runs along the last axis of ``x`` with zero initial state and its own
    zero-order-hold discretization.
    """
    x = np.asarray(x, dtype=np.float64)
    a_bar = np.exp(params.delta * params.a)
    b_bar = (a_bar - 1.0) / params.a * params.b
    drive = x[..., None] * b_bar  # (..., L, N)
    states = np.empty_like(drive)
    h = np.zeros(drive.shape[:-2] + (params.state_dim,))
    for k in range(x.shape[-1]):
        h = a_bar * h + drive[..., k, :]
        states[..., k, :] = h
    return states @ params.c + params.d * x


def direct_scan(x: FeatureMap, forward: np.ndarray, params: SsmParams) -> np.ndarray:
    """Four-direction scan: gather by each forward row, recur, add back in place.

    Scatters through ``forward`` itself rather than the inverse rows, so
    a wrong inverse in the library shows as a mismatch.
    """
    scanned = direct_recurrence(x.data[..., forward], params)  # (B, C, 4, L)
    out = np.zeros_like(x.data)
    for k, order in enumerate(forward):
        out[..., order] += scanned[..., k, :]
    return out


def trace_hsic(f_cross: np.ndarray, f_topoa: np.ndarray, cfg: GateConfig) -> tuple[float, float]:
    """(bandwidth, score) for one batch item, in trace form.

    Descriptors are the library's projection of each channel scaled by
    1/sqrt(L) and normalized; distances come from Gram matrices, the
    bandwidth is the median of both branches' off-diagonal squared
    distances, and the score is trace(K H L H) / (C - 1)^2 with
    centering matrix H = I - 11^T / C.
    """
    channels, length = f_cross.shape
    projection = projection_matrix(length, effective_projection_width(cfg.d_proj, length), cfg.seed)

    def descriptors(f: np.ndarray) -> np.ndarray:
        z = f @ projection / np.sqrt(length)
        return z / np.linalg.norm(z, axis=1, keepdims=True)

    def sq_dists(z: np.ndarray) -> np.ndarray:
        gram = z @ z.T
        norms = np.diag(gram)
        return np.maximum(norms[:, None] + norms[None, :] - 2.0 * gram, 0.0)

    dc, dt = sq_dists(descriptors(f_cross)), sq_dists(descriptors(f_topoa))
    upper = np.triu_indices(channels, k=1)
    sigma_sq = float(np.median(np.concatenate([dc[upper], dt[upper]])))
    kc, kt = np.exp(-dc / (2 * sigma_sq)), np.exp(-dt / (2 * sigma_sq))
    h = np.eye(channels) - 1.0 / channels
    return sigma_sq, float(np.trace(kc @ h @ kt @ h)) / (channels - 1) ** 2


def check_outputs(stages: list[FeatureMap], outs: list[StageOut]) -> list[str]:
    """Every item: one fused output per stage, finite, shaped (1, C, L)."""
    if len(outs) != len(stages):
        return [f"{len(outs)} stage outputs for {len(stages)} stages"]
    failures = []
    for s, (x, out) in enumerate(zip(stages, outs)):
        if out.fused.shape != (1, x.channels, x.shape.length):
            failures.append(f"stage {s}: fused shape {out.fused.shape}")
        elif not np.all(np.isfinite(out.fused)):
            failures.append(f"stage {s}: fused output not finite")
    return failures


def check_deep(
    stages: list[FeatureMap], outs: list[StageOut], params: SsmParams, cfg: GateConfig
) -> list[str]:
    """The seed-chosen subset: cached indices, smallest-stage scan, gate scores."""
    failures = []
    for s, (x, out) in enumerate(zip(stages, outs)):
        for family, build in FAMILIES.items():
            fresh, cached = build(x.shape), out.indices[family]
            if not (
                np.array_equal(fresh.forward, cached.forward)
                and np.array_equal(fresh.inverse, cached.inverse)
            ):
                failures.append(f"stage {s}: cached {family} indices differ from a fresh build")
        diag = out.diagnostics[0]
        sigma_sq, score = trace_hsic(out.scans["cross"].data[0], out.scans["topoa"].data[0], cfg)
        if not (close(diag.sigma_sq, sigma_sq) and close(diag.hsic, score)):
            failures.append(
                f"stage {s}: gate (sigma_sq, hsic) = ({diag.sigma_sq}, {diag.hsic}), "
                f"trace form gives ({sigma_sq}, {score})"
            )
        elif not close(diag.w, gate_weight(score, cfg)):
            failures.append(f"stage {s}: gate weight {diag.w} does not follow its score")
    small = min(range(len(stages)), key=lambda s: stages[s].shape.length)
    for family, build in FAMILIES.items():
        ref = direct_scan(stages[small], build(stages[small].shape).forward, params)
        if not close(outs[small].scans[family].data, ref):
            failures.append(f"stage {small}: {family} scan differs from the direct recurrence")
    return failures
