"""The paper's forward, composed from toposcan's public calls.

Per stage: both index pairs come from their own ``ScanCache`` (the
diagonal family and the axis-aligned family), each branch runs the
four-direction recurrence, and the dependence gate fuses the two. Each
library call sits in a span named after its layer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from toposcan import (
    BranchPair,
    CacheKey,
    FeatureMap,
    GateConfig,
    GateDiagnostics,
    GridShape,
    IndexPair,
    ScanCache,
    build_cross_indices,
    build_topoa_indices,
    default_params,
    fuse_with_diagnostics,
    multi_direction_scan,
    projection_matrix,
)
from toposcan.hsic_gate import effective_projection_width

from .tracing import NULL_TRACER, Tracer

FAMILIES = {"topoa": build_topoa_indices, "cross": build_cross_indices}


@dataclass
class StageOut:
    """What one stage produced, kept for the output checks."""

    fused: np.ndarray
    diagnostics: list[GateDiagnostics]
    indices: dict[str, IndexPair]
    scans: dict[str, FeatureMap]


class _TracedBuilder:
    """Index builder handed to a ScanCache when the run is traced.

    Spans each build and flags it as a duplicate when a build of the
    same shape for the same cache is already in flight.
    """

    def __init__(self, tracer: Tracer, family: str, build: Callable[[GridShape], IndexPair]):
        self._tracer = tracer
        self._family = family
        self._build = build
        self._lock = threading.Lock()
        self._in_flight: dict[GridShape, int] = {}

    def __call__(self, shape: GridShape) -> IndexPair:
        with self._lock:
            dup = self._in_flight.get(shape, 0) > 0
            self._in_flight[shape] = self._in_flight.get(shape, 0) + 1
        try:
            with self._tracer.span("scan_order.build", family=self._family, dup=dup):
                return self._build(shape)
        finally:
            with self._lock:
                self._in_flight[shape] -= 1


class Model:
    """Two scan caches, the default SSM parameters and gate configuration."""

    def __init__(self, capacity: int, tracer: Tracer | None = None):
        self.tracer = tracer or NULL_TRACER
        self.params = default_params()
        self.gate = GateConfig()
        self.caches = {
            family: ScanCache(
                capacity=capacity,
                builder=_TracedBuilder(tracer, family, build) if tracer else build,
            )
            for family, build in FAMILIES.items()
        }

    def forward(self, stages: list[FeatureMap]) -> list[StageOut]:
        span = self.tracer.span
        outs = []
        for x in stages:
            key = CacheKey(x.shape.height, x.shape.width)
            indices, scans = {}, {}
            for family, cache in self.caches.items():
                with span("scan_cache.get", family=family):
                    indices[family] = cache.get_or_build(key)
                with span(
                    "ssm.scan",
                    family=family,
                    updates=x.data.size * 4 * self.params.state_dim,
                    elements=x.data.size,
                    length=x.shape.length,
                ):
                    scans[family] = multi_direction_scan(x, indices[family], self.params)
            if self.tracer.active:
                length = x.shape.length
                width = effective_projection_width(self.gate.d_proj, length)
                with span("hsic_gate.projection", length=length, width=width):
                    projection_matrix(length, width, self.gate.seed)
            with span("hsic_gate.fuse"):
                pair = BranchPair.from_feature_maps(scans["cross"], scans["topoa"])
                fused, diagnostics = fuse_with_diagnostics(pair, self.gate)
            outs.append(StageOut(fused, diagnostics, indices, scans))
        return outs
