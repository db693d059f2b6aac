"""Set up one workload, run its closed-loop clients, and derive its metrics.

The untraced run times one window of the requested length and yields the
end-to-end metrics. The traced run splits the same length into
TRACE_WINDOWS alternating windows, untraced then traced, so that tracing
overhead is measured against the same warm state; per-layer metrics come
from the spans of the traced windows.
"""

from __future__ import annotations

import resource
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from toposcan import AggregateReport, aggregate, topo_errors
from toposcan.mask_io import binarize, read_manifest, read_mask

from .model import Model
from .oracles import check_deep, check_outputs
from .tracing import NULL_TRACER, Tracer
from .workloads import (
    EvalWorkload,
    ForwardStream,
    ForwardWorkload,
    Manifest,
    make_features,
    write_manifest,
)

TRACE_WINDOWS = 10
MAX_REPORTED_FAILURES = 5


@dataclass
class Tally:
    """One client's record of one window."""

    items: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    check_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def record(self, latency_s: float, check_s: float, failures: list[str]) -> None:
        self.items += 1
        self.latencies_ms.append(latency_s * 1e3)
        self.check_s += check_s
        if failures:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.extend(failures)


def _failure() -> list[str]:
    return [traceback.format_exc()]


class ForwardClient:
    """Closed-loop client: draw an input, run the forward, check it."""

    def __init__(self, spec: ForwardWorkload, seed: int, client: int, model: Model, pool: dict):
        self._stream = ForwardStream(spec, seed, client)
        self._model = model
        self._pool = pool
        self._next_item = client
        self._step = spec.clients

    def run_item(self, tally: Tally) -> None:
        item_id, self._next_item = self._next_item, self._next_item + self._step
        side, index, deep = self._stream.next()
        tracer, outs = self._model.tracer, None
        start = time.perf_counter()
        try:
            with tracer.item(item_id):
                with tracer.span("harness.input"):
                    stages = self._pool[side][index]
                outs = self._model.forward(stages)
            failures = []
        except Exception:
            failures = _failure()
        done = time.perf_counter()
        if outs is not None:
            try:
                failures = check_outputs(stages, outs)
                if deep and not failures:
                    failures = check_deep(stages, outs, self._model.params, self._model.gate)
            except Exception:
                failures = _failure()
        tally.record(done - start, time.perf_counter() - done, failures)


class EvalClient:
    """Closed-loop client walking the manifest in passes.

    The first item of a pass reads the manifest; the last aggregates the
    pass. Each item reads, binarizes and compares one pair.
    """

    def __init__(self, manifest: Manifest, tracer: Tracer | None):
        self._manifest = manifest
        self._tracer = tracer or NULL_TRACER
        self._items = []
        self._errors = []
        self._pos = 0
        self._next_item = 0
        n = len(manifest.expected)
        self._expected_aggregate = AggregateReport(
            cce=sum(e.cce for e in manifest.expected) / n,
            hce=sum(e.hce for e in manifest.expected) / n,
            etm_pct=100.0 * (sum(e.etm for e in manifest.expected) / n),
            n=n,
        )

    def _read(self, path: Path):
        fmt, size = self._manifest.formats[path], self._manifest.sizes[path]
        with self._tracer.span("mask_io.read", fmt=fmt, bytes=size):
            return read_mask(path)

    def run_item(self, tally: Tally) -> None:
        span = self._tracer.span
        pos, item_id = self._pos, self._next_item
        last = pos == len(self._manifest.expected) - 1
        self._pos, self._next_item = 0 if last else pos + 1, item_id + 1
        error = report = None
        start = time.perf_counter()
        try:
            with self._tracer.item(item_id):
                if pos == 0:
                    self._errors = []
                    with span("mask_io.read_manifest"):
                        self._items = read_manifest(self._manifest.path)
                pair = self._items[pos]
                pred, gt = self._read(pair.pred), self._read(pair.gt)
                with span("mask_io.binarize"):
                    pred, gt = binarize(pred, pair.class_id), binarize(gt, pair.class_id)
                with span("topo_metrics.errors", pixels=pred.size + gt.size):
                    error = topo_errors(pred, gt)
                self._errors.append(error)
                if last:
                    with span("topo_metrics.aggregate"):
                        report = aggregate(self._errors)
            failures = []
        except Exception:
            failures = _failure()
        done = time.perf_counter()
        if error is not None and error != self._manifest.expected[pos]:
            failures.append(f"pair {pos}: {error}, built as {self._manifest.expected[pos]}")
        if report is not None and report != self._expected_aggregate:
            failures.append(f"aggregate {report}, built as {self._expected_aggregate}")
        tally.record(done - start, time.perf_counter() - done, failures)


@dataclass
class Run:
    """Everything measured in one run of one workload."""

    setup_s: float
    windows: list[tuple[bool, list[Tally]]]  # (traced, per-client tallies)
    peak_rss_mb: float
    model: Model | None = None
    evictions: int = 0  # library-counted evictions during traced windows
    records: list[dict] = field(default_factory=list)  # spans of a traced run

    @property
    def attempted(self) -> int:
        return sum(t.items for _, tallies in self.windows for t in tallies)

    @property
    def failed(self) -> int:
        return sum(t.failed for _, tallies in self.windows for t in tallies)

    @property
    def failures(self) -> list[str]:
        return [f for _, tallies in self.windows for t in tallies for f in t.failures]


def setup(spec, seed: int, tracer: Tracer | None, workdir: Path):
    """Make the workload's inputs and prime its caches; returns (clients, model)."""
    if isinstance(spec, EvalWorkload):
        manifest = write_manifest(spec, seed, workdir)
        return [EvalClient(manifest, tracer)], None
    pool = {
        side: [make_features(side, seed, i) for i in range(spec.inputs_per_side)]
        for side in spec.sides
    }
    model = Model(spec.capacity, tracer)
    for side in spec.sides:
        model.forward(pool[side][0])
    clients = [ForwardClient(spec, seed, c, model, pool) for c in range(spec.clients)]
    return clients, model


def run_window(clients: list, seconds: float) -> list[Tally]:
    """Run every client closed-loop until ``seconds`` have passed."""
    tallies = [Tally() for _ in clients]
    start = time.perf_counter()
    deadline = start + seconds

    def loop(client, tally: Tally) -> None:
        while time.perf_counter() < deadline:
            client.run_item(tally)
        tally.elapsed_s = time.perf_counter() - start

    if len(clients) == 1:
        loop(clients[0], tallies[0])
    else:
        with ThreadPoolExecutor(max_workers=len(clients)) as pool:
            futures = [pool.submit(loop, c, t) for c, t in zip(clients, tallies)]
            for future in futures:
                future.result()
    return tallies


def measure(spec, seed: int, seconds: float, trace: bool, workdir: Path) -> Run:
    """Set up ``spec`` and run it for ``seconds``, untraced or traced."""
    tracer = Tracer() if trace else None
    if tracer:
        # Setup spans carry no item id: they count towards the projection
        # lengths held, not towards any per-item metric.
        tracer.active = True
    start = time.perf_counter()
    clients, model = setup(spec, seed, tracer, workdir)
    setup_s = time.perf_counter() - start
    if not trace:
        windows = [(False, run_window(clients, seconds))]
        evictions = 0
    else:
        windows, evictions = [], 0
        for w in range(TRACE_WINDOWS):
            tracer.active = w % 2 == 1
            before = _evictions(model)
            windows.append((tracer.active, run_window(clients, seconds / TRACE_WINDOWS)))
            if tracer.active:
                evictions += _evictions(model) - before
        tracer.active = False
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = tracer.records() if tracer else []
    return Run(setup_s, windows, rss_mb, model, evictions, records)


def _evictions(model: Model | None) -> int:
    if model is None:
        return 0
    return sum(c.snapshot_stats().evictions for c in model.caches.values())


def throughput(windows: list[tuple[bool, list[Tally]]], traced: bool) -> float:
    """Items per second of busy time, summed over clients.

    A client's busy time is its elapsed window time minus the time it
    spent in output checks, which run outside the item timer.
    """
    per_client: dict[int, list[float]] = {}
    for is_traced, tallies in windows:
        if is_traced != traced:
            continue
        for k, t in enumerate(tallies):
            items, busy = per_client.get(k, [0, 0.0])
            per_client[k] = [items + t.items, busy + t.elapsed_s - t.check_s]
    return sum(items / busy for items, busy in per_client.values() if busy > 0)


def end_to_end(run: Run) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics of an untraced run, plus their sample counts."""
    latencies = np.array([x for _, ts in run.windows for t in ts for x in t.latencies_ms])
    p95 = float(np.percentile(latencies, 95))
    metrics = {
        "throughput_per_s": throughput(run.windows, traced=False),
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p95_ms": p95,
        "setup_s": run.setup_s,
        "peak_rss_mb": run.peak_rss_mb,
    }
    extra = {
        "failed_frac": run.failed / max(run.attempted, 1),
        "latency_samples": int(latencies.size),
        "beyond_p95": int(np.count_nonzero(latencies > p95)),
    }
    return metrics, extra


def per_layer(run: Run) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced windows.

    ``*_ms`` without a suffix are milliseconds per traced item; ``_p50``
    metrics are medians per call; counts are totals over traced items.
    Forward workloads report the index, scan and gate layers; the
    evaluation workload reports mask I/O and topology metrics. A layer
    that saw no call in the traced windows reports 0.
    """
    timed = [r for r in run.records if r["item"] >= 0]
    items = sum(1 for r in timed if r["name"] == "item")

    def spans(name: str, **attrs) -> list[dict]:
        return [
            r for r in timed
            if r["name"] == name and all(r.get("attrs", {}).get(k) == v for k, v in attrs.items())
        ]

    def dur_ns(rs) -> list[int]:
        return [r["end_ns"] - r["start_ns"] for r in rs]

    def per_item_ms(rs, key="dur") -> float:
        total = sum(r["self_ns"] for r in rs) if key == "self" else sum(dur_ns(rs))
        return total / 1e6 / items if items else 0.0

    def median(values, scale) -> float:
        return float(np.median(values)) * scale if values else 0.0

    def attr_sum(rs, key) -> int:
        return sum(r["attrs"][key] for r in rs)

    if run.model is None:
        errors, reads = spans("topo_metrics.errors"), spans("mask_io.read")
        metrics = {
            "mask_io.manifest_ms": per_item_ms(spans("mask_io.read_manifest")),
            "mask_io.read_ms.p1": per_item_ms(spans("mask_io.read", fmt="p1")),
            "mask_io.read_ms.p4": per_item_ms(spans("mask_io.read", fmt="p4")),
            "mask_io.read_ms.raw": per_item_ms(spans("mask_io.read", fmt="raw")),
            "mask_io.bytes_read": attr_sum(reads, "bytes"),
            "mask_io.binarize_ms": per_item_ms(spans("mask_io.binarize")),
            "topo_metrics.errors_ms": per_item_ms(errors),
            "topo_metrics.aggregate_ms": per_item_ms(spans("topo_metrics.aggregate")),
            "topo_metrics.pixels": attr_sum(errors, "pixels"),
        }
    else:
        builds, gets, scans = spans("scan_order.build"), spans("scan_cache.get"), spans("ssm.scan")
        built_in = {r["parent"] for r in builds}
        hits = [r for r in gets if r["id"] not in built_in]
        updates = attr_sum(scans, "updates")
        # Setup spans count here: the projection cache keeps every length.
        keys = {
            (r["attrs"]["length"], r["attrs"]["width"])
            for r in run.records
            if r["name"] == "hsic_gate.projection"
        }
        metrics = {
            "scan_order.builds": len(builds),
            "scan_order.build_ms": per_item_ms(builds),
            "scan_order.build_ms_p50": median(dur_ns(builds), 1e-6),
            "scan_cache.requests": len(gets),
            "scan_cache.hits": len(hits),
            "scan_cache.misses": len(gets) - len(hits),
            "scan_cache.evictions": run.evictions,
            "scan_cache.hit_rate": len(hits) / len(gets) if gets else 0.0,
            "scan_cache.entries": sum(len(c) for c in run.model.caches.values()),
            "scan_cache.get_ms": per_item_ms(gets),
            "scan_cache.self_ms": per_item_ms(gets, key="self"),
            "scan_cache.hit_us_p50": median(dur_ns(hits), 1e-3),
            "scan_cache.dup_builds": sum(1 for r in builds if r["attrs"]["dup"]),
            "ssm.scan_ms": per_item_ms(scans),
            "ssm.scan_ms.topoa": per_item_ms(spans("ssm.scan", family="topoa")),
            "ssm.scan_ms.cross": per_item_ms(spans("ssm.scan", family="cross")),
            "ssm.state_updates": updates,
            "ssm.bytes_computed": sum(ssm_bytes(r["attrs"]) for r in scans),
            "ssm.ns_per_update": sum(dur_ns(scans)) / updates if updates else 0.0,
            "hsic_gate.fuse_ms": per_item_ms(spans("hsic_gate.fuse")),
            "hsic_gate.projection_ms": per_item_ms(spans("hsic_gate.projection")),
            "hsic_gate.projection_lengths": len(keys),
            "hsic_gate.projection_bytes_computed": sum(8 * n * w for n, w in keys),
            "harness.input_ms": per_item_ms(spans("harness.input")),
        }
    metrics["trace.items"] = items
    metrics["trace.overhead_pct"] = trace_overhead_pct(run.windows)
    return metrics


def ssm_bytes(attrs: dict) -> int:
    """Computed bytes of one four-direction scan; see metrics.FORMULAS."""
    return 16 * attrs["updates"] + 128 * attrs["elements"] + 64 * attrs["length"]


def trace_overhead_pct(windows) -> float:
    """How much slower traced windows ran than untraced ones, in percent."""
    traced, untraced = throughput(windows, traced=True), throughput(windows, traced=False)
    return (untraced / traced - 1.0) * 100.0 if traced > 0 else 0.0
