"""Topology-aware scan serialization with cached index service and gated fusion."""

from .bench import (
    BenchReport,
    Scenario,
    StageModel,
    analytic_hit_rate,
    emit_report,
    make_scenario,
    run_cache_stress,
    run_scenario,
)
from .hsic_gate import (
    BranchPair,
    GateConfig,
    GateDiagnostics,
    fuse_with_diagnostics,
    gate_weight,
    projection_matrix,
)
from .scan_cache import CacheKey, CacheStats, ScanCache
from .scan_order import (
    GridShape,
    IndexPair,
    build_cross_indices,
    build_topoa_indices,
)
from .ssm import (
    FeatureMap,
    SsmParams,
    default_params,
    discretize,
    multi_direction_scan,
    passthrough_params,
    scan_sequence,
)
from .topo_metrics import (
    AggregateReport,
    TopoErrors,
    TopoSummary,
    aggregate,
    count_components,
    count_holes,
    topo_errors,
    topo_summary,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateReport",
    "BenchReport",
    "BranchPair",
    "CacheKey",
    "CacheStats",
    "FeatureMap",
    "GateConfig",
    "GateDiagnostics",
    "GridShape",
    "IndexPair",
    "Scenario",
    "ScanCache",
    "SsmParams",
    "StageModel",
    "TopoErrors",
    "TopoSummary",
    "aggregate",
    "analytic_hit_rate",
    "build_cross_indices",
    "build_topoa_indices",
    "count_components",
    "count_holes",
    "default_params",
    "discretize",
    "emit_report",
    "fuse_with_diagnostics",
    "gate_weight",
    "make_scenario",
    "multi_direction_scan",
    "passthrough_params",
    "projection_matrix",
    "run_cache_stress",
    "run_scenario",
    "scan_sequence",
    "topo_errors",
    "topo_summary",
]
