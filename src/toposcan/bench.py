"""Deployment-style benchmark: warm-vs-cold index service under dynamic resolutions.

A scenario produces a stream of external image sides; a stage model maps
each side to the internal feature-map resolutions of a hierarchical
encoder (ceil division per stride). Each sample's forward pass requests
the scan indices for every stage resolution from a shared cache and runs
the four-direction scan on synthetic features, so the measured latency
contains both index service and actual compute.

The measured protocol is: untimed timer warm-up forwards against a
scratch cache, a timed pass against a fresh cache (the cold run, whose
hit rate matches the analytic oracle when capacity is unbounded), more
untimed warm-up forwards against the now-primed cache, then a second
timed pass over the identical sample stream (the warm run).
"""

from __future__ import annotations

import concurrent.futures
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .scan_cache import CacheKey, ScanCache
from .scan_order import GridShape, IndexPair, build_topoa_indices
from .ssm import FeatureMap, SsmParams, default_params, multi_direction_scan

__all__ = [
    "StageModel",
    "Scenario",
    "BenchReport",
    "SCENARIO_NAMES",
    "TIMING_FIELDS",
    "make_scenario",
    "analytic_hit_rate",
    "run_scenario",
    "emit_report",
    "run_cache_stress",
]

SCENARIO_NAMES = ("fixed", "two_scale", "multi_scale", "unique_per_sample")

_DEFAULT_SIZES = {
    "fixed": (512,),
    "two_scale": (256, 512),
    "multi_scale": (256, 320, 384, 448, 512),
}

# Report fields that depend on wall-clock measurement; everything else is
# reproducible bit-for-bit given the same seed and configuration.
TIMING_FIELDS = (
    "cold_ms",
    "warm_ms",
    "reduction_pct",
    "fps",
    "cold_index_ms_total",
    "warm_index_ms_total",
    "index_reduction_pct",
)

WARMUP_FORWARDS = 8

# Each stress thread is an OS thread; the cap keeps a mistyped count from
# asking the OS for thousands of them.
MAX_STRESS_THREADS = 64
# Reference memory grows about quadratically with the key count (grid
# sides reach about sqrt(2 * keys)); the cap keeps it to a few hundred MB.
MAX_STRESS_KEYS = 1024


@dataclass(frozen=True)
class StageModel:
    """Internal-resolution model of a hierarchical encoder.

    Stage s of an external side E works at ceil(E / strides[s]) per axis
    and issues ``requests_per_stage`` index requests per forward pass.
    """

    strides: tuple[int, ...] = (4, 8, 16, 32)
    requests_per_stage: int = 1

    def __post_init__(self) -> None:
        strides = tuple(int(s) for s in self.strides)
        if not strides:
            raise ValueError("stage model needs at least one stride")
        if any(s < 1 for s in strides):
            raise ValueError(f"strides must be positive, got {strides}")
        if any(b <= a for a, b in zip(strides, strides[1:])):
            raise ValueError(f"strides must be strictly increasing, got {strides}")
        if self.requests_per_stage < 1:
            raise ValueError("requests_per_stage must be >= 1")
        object.__setattr__(self, "strides", strides)

    def internal_shape(self, side: int, stride: int) -> GridShape:
        size = -(-side // stride)
        return GridShape(size, size)


@dataclass(frozen=True)
class Scenario:
    """A stream of external image sides.

    Mixture scenarios cycle deterministically through ``sizes`` (exact
    proportions, all scales guaranteed present); the unique-per-sample
    scenario follows side_i = 256 + 2i. The seed drives synthetic
    feature data only, never the size stream.
    """

    name: str
    sample_count: int = 100
    sizes: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.name not in SCENARIO_NAMES:
            raise ValueError(
                f"unknown scenario {self.name!r}; expected one of {SCENARIO_NAMES}"
            )
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        sizes = self.sizes
        if sizes is None and self.name != "unique_per_sample":
            sizes = _DEFAULT_SIZES[self.name]
        if sizes is not None:
            sizes = tuple(int(s) for s in sizes)
            if not sizes or any(s < 1 for s in sizes):
                raise ValueError(f"sizes must be positive, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    def external_sides(self) -> list[int]:
        if self.name == "unique_per_sample":
            return [256 + 2 * i for i in range(self.sample_count)]
        assert self.sizes is not None
        return [self.sizes[i % len(self.sizes)] for i in range(self.sample_count)]


def make_scenario(
    name: str,
    sample_count: int = 100,
    sizes: Sequence[int] | None = None,
    seed: int = 0,
) -> Scenario:
    """Build a scenario from a CLI-style name: any case, dashes for
    underscores, and ``unique`` for ``unique_per_sample``.
    """
    canonical = name.strip().lower().replace("-", "_")
    return Scenario(
        name="unique_per_sample" if canonical == "unique" else canonical,
        sample_count=sample_count,
        sizes=None if sizes is None else tuple(sizes),
        seed=seed,
    )


def key_stream(scenario: Scenario, stages: StageModel) -> list[list[CacheKey]]:
    """Per-sample cache keys requested during one pass over the stream."""
    stream = []
    for side in scenario.external_sides():
        sample_keys = []
        for stride in stages.strides:
            shape = stages.internal_shape(side, stride)
            key = CacheKey(shape.height, shape.width)
            sample_keys.extend([key] * stages.requests_per_stage)
        stream.append(sample_keys)
    return stream


def analytic_hit_rate(scenario: Scenario, stages: StageModel) -> float:
    """Hit-rate percentage under unbounded capacity, by key enumeration.

    Every unique internal-resolution key misses exactly once, so the
    rate is 100 * (total - unique) / total without running the pipeline.
    """
    keys = [key for sample in key_stream(scenario, stages) for key in sample]
    total = len(keys)
    unique = len(set(keys))
    return 100.0 * (total - unique) / total


@dataclass
class BenchReport:
    """Results of one scenario run.

    Latency fields are milliseconds: ``cold_ms``/``warm_ms`` are mean
    per-sample end-to-end latencies of the two measured passes, the
    ``*_index_ms_total`` fields are index-service time summed over each
    pass, and ``fps`` is 1000 / warm_ms. ``hit_rate_pct`` is measured
    over the cold pass (fresh cache); ``warm_hit_rate_pct`` over the
    warm pass.
    """

    scenario: str
    samples: int
    strides: tuple[int, ...]
    requests_per_stage: int
    capacity: int
    seed: int
    batch: int
    channels: int
    total_requests: int
    unique_keys: int
    hit_rate_pct: float
    warm_hit_rate_pct: float
    cold_ms: float
    warm_ms: float
    reduction_pct: float
    fps: float
    cold_index_ms_total: float
    warm_index_ms_total: float
    index_reduction_pct: float
    per_stage: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**asdict(self), "strides": list(self.strides)}

    def stable_dict(self) -> dict:
        """The report minus every wall-clock-dependent field."""
        out = {k: v for k, v in self.to_dict().items() if k not in TIMING_FIELDS}
        out["per_stage"] = [
            {k: v for k, v in stage.items() if not k.endswith("_ms")}
            for stage in self.per_stage
        ]
        return out


def _run_pass(
    cache: ScanCache,
    stream: list[list[CacheKey]],
    samples: Sequence[int],
    stages: StageModel,
    params: SsmParams,
    seed: int,
    batch: int,
    channels: int,
) -> tuple[int, int, list[int]]:
    """Forward the listed samples of ``stream`` through ``cache``.

    Stage s of a sample requests that sample's keys [s*r, (s+1)*r), where
    r is ``stages.requests_per_stage``. Returns (index-service ns,
    end-to-end ns, per-stage index-service ns).
    """
    r = stages.requests_per_stage
    stage_ns = [0] * len(stages.strides)
    total_ns = 0
    for i in samples:
        for s_idx in range(len(stages.strides)):
            keys = stream[i][s_idx * r : (s_idx + 1) * r]
            shape = keys[0].shape
            # Synthetic input preparation stays outside the timers.
            rng = np.random.default_rng([seed & 0xFFFFFFFF, i, s_idx])
            data = rng.standard_normal((batch, channels, shape.length))
            feature_map = FeatureMap(data=data, shape=shape)
            t0 = time.perf_counter_ns()
            for key in keys:
                pair = cache.get_or_build(key)
            t1 = time.perf_counter_ns()
            multi_direction_scan(feature_map, pair, params)
            t2 = time.perf_counter_ns()
            stage_ns[s_idx] += t1 - t0
            total_ns += t2 - t0
    return sum(stage_ns), total_ns, stage_ns


def run_scenario(
    scenario: Scenario,
    stages: StageModel | None = None,
    cache_capacity: int = 64,
    params: SsmParams | None = None,
    batch: int = 1,
    channels: int = 4,
    warmup: int = WARMUP_FORWARDS,
) -> BenchReport:
    """Run the cold/warm measurement protocol for one scenario.

    The cold pass starts from a fresh cache, so its hit rate reflects
    first-touch misses and matches :func:`analytic_hit_rate` whenever
    ``cache_capacity`` is at least the number of unique keys. The warm
    pass reuses the cache primed by the cold pass and replays the
    identical sample stream.
    """
    stages = stages if stages is not None else StageModel()
    params = params if params is not None else default_params()
    seed = scenario.seed
    stream = key_stream(scenario, stages)
    n = len(stream)
    unique_keys = len({key for sample in stream for key in sample})
    warmups = [w % n for w in range(warmup)]

    # Timer warm-up against a scratch cache keeps the measured cold pass
    # genuinely cold.
    scratch = ScanCache(capacity=cache_capacity)
    _run_pass(scratch, stream, warmups, stages, params, seed, batch, channels)

    cache = ScanCache(capacity=cache_capacity)
    cold_index_ns, cold_latency_ns, cold_stage_ns = _run_pass(
        cache, stream, range(n), stages, params, seed, batch, channels
    )
    cold_stats = cache.snapshot_stats()

    # The cold pass doubles as the priming pass; warm-up forwards then
    # run against the primed cache before the warm measurement.
    _run_pass(cache, stream, warmups, stages, params, seed, batch, channels)
    before_warm = cache.snapshot_stats()
    warm_index_ns, warm_latency_ns, warm_stage_ns = _run_pass(
        cache, stream, range(n), stages, params, seed, batch, channels
    )
    warm_stats = cache.snapshot_stats()
    warm_requests = warm_stats.requests - before_warm.requests
    warm_hits = warm_stats.hits - before_warm.hits

    cold_ms = cold_latency_ns / n / 1e6
    warm_ms = warm_latency_ns / n / 1e6
    r = stages.requests_per_stage
    per_stage = [
        {
            "stride": stride,
            "requests": n * r,
            "unique_keys": len({k for sample in stream for k in sample[s * r : (s + 1) * r]}),
            "cold_index_ms": cold_stage_ns[s] / 1e6,
            "warm_index_ms": warm_stage_ns[s] / 1e6,
        }
        for s, stride in enumerate(stages.strides)
    ]

    return BenchReport(
        scenario=scenario.name,
        samples=n,
        strides=stages.strides,
        requests_per_stage=stages.requests_per_stage,
        capacity=cache_capacity,
        seed=seed,
        batch=batch,
        channels=channels,
        total_requests=cold_stats.requests,
        unique_keys=unique_keys,
        hit_rate_pct=100.0 * cold_stats.hits / max(cold_stats.requests, 1),
        warm_hit_rate_pct=100.0 * warm_hits / max(warm_requests, 1),
        cold_ms=cold_ms,
        warm_ms=warm_ms,
        reduction_pct=100.0 * (1.0 - warm_ms / cold_ms) if cold_ms > 0 else 0.0,
        fps=1000.0 / warm_ms if warm_ms > 0 else float("inf"),
        cold_index_ms_total=cold_index_ns / 1e6,
        warm_index_ms_total=warm_index_ns / 1e6,
        index_reduction_pct=(
            100.0 * (1.0 - warm_index_ns / cold_index_ns) if cold_index_ns > 0 else 0.0
        ),
        per_stage=per_stage,
    )


def emit_report(report: BenchReport, format: str = "json") -> bytes:
    """Serialize a report as JSON (full) or CSV (summary columns).

    The CSV carries exactly the header
    ``scenario,cold_ms,warm_ms,reduction_pct,hit_rate_pct`` and one data
    row; float fields use repr so they parse back to identical values.
    """
    if format == "json":
        return (json.dumps(report.to_dict(), indent=2) + "\n").encode("utf-8")
    if format == "csv":
        header = "scenario,cold_ms,warm_ms,reduction_pct,hit_rate_pct"
        floats = [repr(getattr(report, name)) for name in header.split(",")[1:]]
        row = ",".join([report.scenario, *floats])
        return (header + "\n" + row + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {format!r}; expected 'json' or 'csv'")


def run_cache_stress(
    threads: int = 4,
    keys: int = 16,
    iters: int = 200,
    capacity: int | None = None,
    seed: int = 0,
) -> dict:
    """Fire concurrent get_or_build storms and verify oracle equivalence.

    Every response is compared element-wise against an uncached build
    for the same shape; stats conservation is checked afterwards.

    Returns:
        Summary dict including a ``violations`` count (0 on success).

    Raises:
        ValueError: if a count is below 1, ``threads`` exceeds
            ``MAX_STRESS_THREADS`` or ``keys`` exceeds ``MAX_STRESS_KEYS``;
            checked before any reference is built or thread starts.
    """
    if threads < 1 or keys < 1 or iters < 1:
        raise ValueError("threads, keys, and iters must all be >= 1")
    if threads > MAX_STRESS_THREADS:
        raise ValueError(f"threads must be <= {MAX_STRESS_THREADS}, got {threads}")
    if keys > MAX_STRESS_KEYS:
        raise ValueError(f"keys must be <= {MAX_STRESS_KEYS}, got {keys}")
    rng = np.random.default_rng(seed)
    side_max = max(12, int((2 * keys) ** 0.5) + 2)  # keep the draw space ample
    reference: dict[CacheKey, IndexPair] = {}
    while len(reference) < keys:
        h, w = (int(v) for v in rng.integers(1, side_max + 1, size=2))
        device = "host" if len(reference) % 2 == 0 else "accel:0"
        key = CacheKey(h, w, device)
        if key not in reference:
            reference[key] = build_topoa_indices(key.shape)
    pool = list(reference)
    cache = ScanCache(capacity=capacity if capacity is not None else max(1, keys // 2))

    def worker(worker_id: int) -> int:
        wrng = np.random.default_rng([seed & 0xFFFFFFFF, worker_id])
        violations = 0
        for _ in range(iters):
            key = pool[int(wrng.integers(0, len(pool)))]
            pair = cache.get_or_build(key)
            ref = reference[key]
            if not (
                np.array_equal(pair.forward, ref.forward)
                and np.array_equal(pair.inverse, ref.inverse)
            ):
                violations += 1
        return violations

    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as executor:
        violations = sum(executor.map(worker, range(threads)))

    stats = cache.snapshot_stats()
    conserved = stats.requests == stats.hits + stats.misses == threads * iters
    return {
        "threads": threads,
        "keys": keys,
        "iters": iters,
        "capacity": cache.capacity,
        "requests": stats.requests,
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "hit_rate": stats.hit_rate,
        "stats_conserved": bool(conserved),
        "violations": int(violations),
    }
