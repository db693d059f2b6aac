"""Mask-level topology metrics for prediction/ground-truth pairs.

Foreground uses 8-connectivity and background 4-connectivity, the
standard complementary pair that avoids connectivity paradoxes. A hole
is a background component that cannot reach the image border.

Labelling is ``scipy.ndimage.label``, imported on the first count rather
than with the package, so a process that never counts loads no SciPy.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .scan_order import _require_instance, _require_int, _require_mask

__all__ = [
    "TopoSummary",
    "TopoErrors",
    "AggregateReport",
    "count_components",
    "count_holes",
    "topo_summary",
    "topo_errors",
    "aggregate",
]

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class TopoSummary:
    """Component and hole counts of one mask."""

    components: int
    holes: int


@dataclass(frozen=True)
class TopoErrors:
    """Per-pair errors: absolute count differences (ints >= 0) and exact-match flag (0 or 1)."""

    cce: int
    hce: int
    etm: int

    def __post_init__(self) -> None:
        for name in ("cce", "hce"):
            object.__setattr__(self, name, _require_int(name, getattr(self, name), 0))
        etm = _require_int("etm", self.etm, 0)
        if etm > 1:
            raise ValueError(f"etm must be 0 or 1, got {etm}")
        object.__setattr__(self, "etm", etm)


@dataclass(frozen=True)
class AggregateReport:
    """Batch means; exact topology match is reported as a percentage."""

    cce: float
    hce: float
    etm_pct: float
    n: int

    def as_dict(self) -> dict:
        return {"cce": self.cce, "hce": self.hce, "etm_pct": self.etm_pct, "n": self.n}


def count_components(mask: np.ndarray) -> int:
    """Number of 8-connected foreground components (0 for an empty mask)."""
    from scipy import ndimage

    mask = _require_mask(mask).astype(bool)
    _, count = ndimage.label(mask, structure=_EIGHT_CONNECTED)
    return int(count)


def count_holes(mask: np.ndarray) -> int:
    """Number of interior holes.

    A hole is a 4-connected background component with no pixel on the
    image border; 4-connectivity is ndimage's default structure. The
    background is labelled inside a one-pixel background frame, which
    joins every component that touches the border into one, so the
    holes are all labels but that one.
    """
    from scipy import ndimage

    mask = _require_mask(mask).astype(bool)
    _, count = ndimage.label(np.pad(~mask, 1, constant_values=True))
    return int(count - 1)


def topo_summary(mask: np.ndarray) -> TopoSummary:
    """Both counts for one mask."""
    return TopoSummary(components=count_components(mask), holes=count_holes(mask))


def topo_errors(pred: np.ndarray, gt: np.ndarray) -> TopoErrors:
    """Compare a predicted mask against ground truth.

    Returns absolute component and hole count differences, plus etm = 1
    iff both differences are zero.

    Raises:
        ValueError: if the mask shapes differ.
    """
    pred = _require_mask(pred).astype(bool)
    gt = _require_mask(gt).astype(bool)
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    cce = abs(count_components(pred) - count_components(gt))
    hce = abs(count_holes(pred) - count_holes(gt))
    return TopoErrors(cce=cce, hce=hce, etm=int(cce == 0 and hce == 0))


def aggregate(items: Iterable[TopoErrors]) -> AggregateReport:
    """Mean errors over a batch of :func:`topo_errors` results.

    Raises:
        ValueError: for ``items`` that is not iterable, an empty batch, or
            an item that is not a :class:`TopoErrors`.
    """
    errors = list(_require_instance("items", items, Iterable))
    if not errors:
        raise ValueError("cannot aggregate an empty batch")
    for idx, item in enumerate(errors):
        _require_instance(f"items[{idx}]", item, TopoErrors)
    cce, hce, etm = np.mean([(e.cce, e.hce, e.etm) for e in errors], axis=0)
    n = len(errors)
    return AggregateReport(cce=float(cce), hce=float(hce), etm_pct=100.0 * float(etm), n=n)
