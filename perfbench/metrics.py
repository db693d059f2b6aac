"""The benchmark's declared metrics, the formulas behind its computed counts,
and the machine record printed with every result.

``BENCHMARK.json`` at the repository root lists the gated workloads and
their metrics; a test keeps it in step with this module. ``moves`` says
which end-to-end metric, on which workload, a per-layer metric is
expected to move.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import scipy

# Workloads declared in BENCHMARK.json, whose runs gate changes. topo_eval
# is left out: on a shared 2-vCPU host its per-item times swing by up to
# 1.8x for seconds to minutes at a time, so no two sets of its runs agree
# within any bound the gate allows. It still runs from run.py and is the
# only workload that measures mask_io and topo_metrics.
GATED_WORKLOADS = ("fixed_warm", "dynres_2c")

# name, unit, better, bound (the share of the parent's median by which the
# metric may worsen before a change counts as a regression). Timings get
# the widest bound: host CPU speed alone spreads them by 8-21% (quartile
# distance over median) across five runs of unchanged code.
END_TO_END = [
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Printed with the end-to-end metrics but not declared as one: it reads 0
# on a correct program, and a declared metric must never be 0. The
# result's "attempted" and "failed" carry the same information.
FAILED_FRAC = ("failed_frac", "ratio")

# What each per-layer metric should move, and where.
_BUILDS = "throughput_per_s, latency_p95_ms on dynres_2c; no change on fixed_warm"
_CACHE = "latency_p95_ms, throughput_per_s on dynres_2c"
_SCAN = "latency_p50_ms, throughput_per_s on fixed_warm, then on dynres_2c"
_PROJECTION = "setup_s, peak_rss_mb on dynres_2c"
_EVAL = "throughput_per_s on topo_eval"
_TOPO = "latency_p50_ms, throughput_per_s on topo_eval"

# name, unit, better, moves
FORWARD_LAYERS = [
    ("scan_order.builds", "count", "lower", _BUILDS),
    ("scan_order.build_ms", "ms/item", "lower", _BUILDS),
    ("scan_order.build_ms_p50", "ms", "lower", _BUILDS),
    ("scan_cache.requests", "count", "higher", _CACHE),
    ("scan_cache.hits", "count", "higher", _CACHE),
    ("scan_cache.misses", "count", "lower", _CACHE),
    ("scan_cache.evictions", "count", "lower", _CACHE),
    ("scan_cache.hit_rate", "ratio", "higher", _CACHE),
    ("scan_cache.entries", "count", "lower", "peak_rss_mb on dynres_2c"),
    ("scan_cache.get_ms", "ms/item", "lower", _CACHE),
    ("scan_cache.self_ms", "ms/item", "lower", _CACHE),
    ("scan_cache.hit_us_p50", "us", "lower", _CACHE),
    ("scan_cache.dup_builds", "count", "lower", _CACHE),
    ("ssm.scan_ms", "ms/item", "lower", _SCAN),
    ("ssm.scan_ms.topoa", "ms/item", "lower", _SCAN),
    ("ssm.scan_ms.cross", "ms/item", "lower", _SCAN),
    ("ssm.state_updates", "count", "higher", _SCAN),
    ("ssm.bytes_computed", "B", "higher", _SCAN),
    ("ssm.ns_per_update", "ns", "lower", _SCAN),
    ("hsic_gate.fuse_ms", "ms/item", "lower", "latency_p50_ms on fixed_warm"),
    ("hsic_gate.projection_ms", "ms/item", "lower", "latency_p50_ms on fixed_warm; " + _PROJECTION),
    ("hsic_gate.projection_lengths", "count", "lower", _PROJECTION),
    ("hsic_gate.projection_bytes_computed", "B", "lower", _PROJECTION),
    ("harness.input_ms", "ms/item", "lower", "the benchmark's own cost, on both forward workloads"),
]

EVAL_LAYERS = [
    ("mask_io.manifest_ms", "ms/item", "lower", _EVAL),
    ("mask_io.read_ms.p1", "ms/item", "lower", _EVAL),
    ("mask_io.read_ms.p4", "ms/item", "lower", _EVAL),
    ("mask_io.read_ms.raw", "ms/item", "lower", _EVAL),
    ("mask_io.bytes_read", "B", "higher", _EVAL),
    ("mask_io.binarize_ms", "ms/item", "lower", _EVAL),
    ("topo_metrics.errors_ms", "ms/item", "lower", _TOPO),
    ("topo_metrics.aggregate_ms", "ms/item", "lower", _TOPO),
    ("topo_metrics.pixels", "count", "higher", _TOPO),
]

TRACE_LAYERS = [
    ("trace.items", "count", "higher", "the base of every per-item and total metric"),
    ("trace.overhead_pct", "%", "lower", "the benchmark's own cost, traced against untraced"),
]

# Per-layer metrics a traced run emits, by workload kind.
FORWARD_PER_LAYER = FORWARD_LAYERS + TRACE_LAYERS
EVAL_PER_LAYER = EVAL_LAYERS + TRACE_LAYERS

FORMULAS = {
    "ssm.state_updates": "sum over scans of B*C*4*L*N "
    "(batch, channels, directions, grid cells, states)",
    "ssm.bytes_computed": "sum over scans of 16*U + 128*E + 64*L: 16 B per state update "
    "(read input, write state), 128 B per input element (gather and scatter each read and "
    "write 4 float64 copies), 64 B per grid cell (4 forward and 4 inverse int64 indices); "
    "U = state updates, E = B*C*L",
    "hsic_gate.projection_bytes_computed": "sum over distinct (L, width) requested of 8*L*width, "
    "width = max(8, min(d_proj, L)): the float64 projections the never-evicting cache holds",
    "topo_metrics.pixels": "sum over pairs of pixels in the two masks passed to topo_errors",
}


def _cache_sizes() -> dict[str, int | None]:
    sizes: dict[str, int | None] = {"l2_bytes": None, "l3_bytes": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            if (index / "type").read_text().strip() == "Instruction":
                continue
            text = (index / "size").read_text().strip()
            scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
            if f"l{level}_bytes" in sizes:
                sizes[f"l{level}_bytes"] = int(text.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return sizes


def machine_record(seed: int) -> dict:
    """Seed, CPUs, caches and versions behind a result, with the count formulas."""
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        **_cache_sizes(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "formulas": FORMULAS,
    }
