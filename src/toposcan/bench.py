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
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .scan_cache import CacheKey, ScanCache
from .scan_order import GridShape, IndexPair, _require_instance, _require_int, build_topoa_indices
from .ssm import FeatureMap, SsmParams, default_params, multi_direction_scan

__all__ = [
    "StageModel",
    "Scenario",
    "BenchReport",
    "SCENARIO_NAMES",
    "TIMING_FIELDS",
    "make_scenario",
    "check_requests",
    "analytic_hit_rate",
    "run_scenario",
    "emit_report",
    "run_cache_stress",
]

SCENARIO_NAMES = ("fixed", "two_scale", "multi_scale", "unique_per_sample")

_MIXTURE_SIDES = {
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
# Index requests in one pass (samples x strides). The
# key stream holds one key per request, about 190 bytes each, so the cap
# keeps it near 200 MB.
MAX_REQUESTS = 2**20


@dataclass(frozen=True)
class StageModel:
    """Internal-resolution model of a hierarchical encoder.

    Stage s of an external side E works at ceil(E / strides[s]) per axis
    and issues one index request per forward pass.
    """

    strides: tuple[int, ...] = (4, 8, 16, 32)

    def __post_init__(self) -> None:
        if not isinstance(self.strides, Iterable):
            raise ValueError(f"strides must be a sequence of integers, got {self.strides!r}")
        strides = tuple(_require_int("strides", s, 1) for s in self.strides)
        if not strides:
            raise ValueError("stage model needs at least one stride")
        if any(b <= a for a, b in zip(strides, strides[1:])):
            raise ValueError(f"strides must be strictly increasing, got {strides}")
        object.__setattr__(self, "strides", strides)

    def internal_shape(self, side: int, stride: int) -> GridShape:
        size = -(-side // stride)
        return GridShape(size, size)


@dataclass(frozen=True)
class Scenario:
    """A stream of external image sides.

    Mixture scenarios cycle deterministically through their sides (fixed:
    512; two_scale: 256, 512; multi_scale: 256 to 512 in steps of 64), so
    proportions are exact and every scale is present; the unique-per-sample
    scenario follows side_i = 256 + 2i. The seed drives synthetic
    feature data only, never the size stream.
    """

    name: str
    sample_count: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.name not in SCENARIO_NAMES:
            raise ValueError(
                f"unknown scenario {self.name!r}; expected one of {SCENARIO_NAMES}"
            )
        object.__setattr__(self, "sample_count", _require_int("sample_count", self.sample_count, 1))
        object.__setattr__(self, "seed", _require_int("seed", self.seed))

    def external_sides(self) -> list[int]:
        if self.name == "unique_per_sample":
            return [256 + 2 * i for i in range(self.sample_count)]
        sides = _MIXTURE_SIDES[self.name]
        return [sides[i % len(sides)] for i in range(self.sample_count)]


def make_scenario(name: str, sample_count: int = 100, seed: int = 0) -> Scenario:
    """Build a scenario from a CLI-style name: any case, dashes for
    underscores, and ``unique`` for ``unique_per_sample``.
    """
    if not isinstance(name, str):
        raise ValueError(f"scenario name must be a string, got {name!r}")
    canonical = name.strip().lower().replace("-", "_")
    return Scenario(
        name="unique_per_sample" if canonical == "unique" else canonical,
        sample_count=sample_count,
        seed=seed,
    )


def check_requests(scenario: Scenario, stages: StageModel) -> int:
    """Index requests in one pass; raise ``ValueError`` if over ``MAX_REQUESTS``,
    or if ``scenario`` or ``stages`` is not of its annotated type."""
    _require_instance("scenario", scenario, Scenario)
    _require_instance("stages", stages, StageModel)
    requests = scenario.sample_count * len(stages.strides)
    if requests > MAX_REQUESTS:
        raise ValueError(
            f"samples * strides is {requests} requests, over the budget of {MAX_REQUESTS}"
        )
    return requests


def key_stream(scenario: Scenario, stages: StageModel) -> list[list[CacheKey]]:
    """Per-sample cache keys requested during one pass over the stream, one
    per stage in stride order.

    Raises:
        ValueError: over ``MAX_REQUESTS`` requests, before any key is built.
    """
    check_requests(scenario, stages)
    stream = []
    for side in scenario.external_sides():
        shapes = [stages.internal_shape(side, stride) for stride in stages.strides]
        stream.append([CacheKey(shape.height, shape.width) for shape in shapes])
    return stream


def analytic_hit_rate(scenario: Scenario, stages: StageModel) -> float:
    """Hit-rate percentage under unbounded capacity, from the distinct sides.

    Each distinct stage shape misses once: a square of ceil(side / stride), as
    in ``StageModel.internal_shape``, counted once across strides (256/8 = 512/16).
    """
    total = check_requests(scenario, stages)
    sides = set(scenario.external_sides())
    unique = len({-(-side // stride) for side in sides for stride in stages.strides})
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

    Stage s of a sample requests that sample's key s. Returns
    (index-service ns, end-to-end ns, per-stage index-service ns).
    """
    stage_ns = [0] * len(stages.strides)
    total_ns = 0
    for i in samples:
        for s_idx, key in enumerate(stream[i]):
            # Synthetic input preparation stays outside the timers.
            rng = np.random.default_rng([seed & 0xFFFFFFFF, i, s_idx])
            data = rng.standard_normal((batch, channels, key.shape.length))
            feature_map = FeatureMap(data=data, shape=key.shape)
            t0 = time.perf_counter_ns()
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
    batch: int = 1,
    channels: int = 4,
) -> BenchReport:
    """Run the cold/warm measurement protocol for one scenario.

    Every forward scans with :func:`~toposcan.ssm.default_params`, and
    each timed pass follows ``WARMUP_FORWARDS`` untimed forwards. The cold
    pass starts from a fresh cache, so its hit rate reflects first-touch
    misses and matches :func:`analytic_hit_rate` whenever
    ``cache_capacity`` is at least the number of unique keys. The warm
    pass reuses the cache primed by the cold pass and replays the
    identical sample stream.

    Raises:
        ValueError: if ``scenario`` is not a :class:`Scenario`, ``stages``
            neither None nor a :class:`StageModel`, ``cache_capacity``,
            ``batch`` or ``channels`` not an integer >= 1, or the stream is
            over ``MAX_REQUESTS``.
    """
    _require_instance("scenario", scenario, Scenario)
    stages = stages if stages is not None else StageModel()
    batch, channels = _require_int("batch", batch, 1), _require_int("channels", channels, 1)
    params = default_params()
    seed = scenario.seed
    # Timer warm-up against a scratch cache keeps the measured cold pass
    # genuinely cold; making it here checks the capacity before the stream.
    scratch = ScanCache(capacity=cache_capacity)
    stream = key_stream(scenario, stages)
    n = len(stream)
    unique_keys = len({key for sample in stream for key in sample})
    warmups = [w % n for w in range(WARMUP_FORWARDS)]

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
    per_stage = [
        {
            "stride": stride,
            "requests": n,
            "unique_keys": len({sample[s] for sample in stream}),
            "cold_index_ms": cold_stage_ns[s] / 1e6,
            "warm_index_ms": warm_stage_ns[s] / 1e6,
        }
        for s, stride in enumerate(stages.strides)
    ]

    return BenchReport(
        scenario=scenario.name,
        samples=n,
        strides=stages.strides,
        capacity=cache.capacity,
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
    _require_instance("report", report, BenchReport)
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
        ValueError: if a count is not an integer >= 1, ``seed`` is not an
            integer, ``threads`` exceeds ``MAX_STRESS_THREADS`` or ``keys``
            exceeds ``MAX_STRESS_KEYS``; checked before any reference is
            built or thread starts.
    """
    threads = _require_int("threads", threads, 1)
    keys = _require_int("keys", keys, 1)
    iters = _require_int("iters", iters, 1)
    seed = _require_int("seed", seed)
    if threads > MAX_STRESS_THREADS:
        raise ValueError(f"threads must be <= {MAX_STRESS_THREADS}, got {threads}")
    if keys > MAX_STRESS_KEYS:
        raise ValueError(f"keys must be <= {MAX_STRESS_KEYS}, got {keys}")
    cache = ScanCache(capacity=capacity if capacity is not None else max(1, keys // 2))
    rng = np.random.default_rng(seed & 0xFFFFFFFF)
    side_max = max(12, int((2 * keys) ** 0.5) + 2)  # keep the draw space ample
    reference: dict[CacheKey, IndexPair] = {}
    while len(reference) < keys:
        h, w = (int(v) for v in rng.integers(1, side_max + 1, size=2))
        device = "host" if len(reference) % 2 == 0 else "accel:0"
        key = CacheKey(h, w, device)
        if key not in reference:
            reference[key] = build_topoa_indices(key.shape)
    pool = list(reference)

    def worker(worker_id: int) -> int:
        wrng = np.random.default_rng([seed & 0xFFFFFFFF, worker_id])
        violations = 0
        for _ in range(iters):
            key = pool[int(wrng.integers(0, len(pool)))]
            pair, ref = cache.get_or_build(key), reference[key]
            if not np.array_equal(pair.base, ref.base):
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
