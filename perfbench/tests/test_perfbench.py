"""The benchmark's own code: generators, oracles, tracing and metric names."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.measure import end_to_end, measure, per_layer
from perfbench.metrics import END_TO_END, EVAL_PER_LAYER, FORWARD_PER_LAYER, GATED_WORKLOADS
from perfbench.model import FAMILIES, Model
from perfbench.oracles import (
    check_deep,
    check_outputs,
    direct_recurrence,
    direct_scan,
    trace_hsic,
)
from perfbench.tracing import Tracer
from perfbench.workloads import (
    WORKLOADS,
    EvalWorkload,
    ForwardStream,
    ForwardWorkload,
    make_features,
    p1_position,
    ring_pair,
    stage_shapes,
    write_manifest,
)
from toposcan import (
    BranchPair,
    GridShape,
    SsmParams,
    default_params,
    fuse_with_diagnostics,
    multi_direction_scan,
    scan_sequence,
    topo_errors,
    topo_summary,
)
from toposcan.mask_io import binarize

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Scaled-down versions of the real workloads: every item gets the deep
# checks, and the caches are small enough to evict.
SMALL_FORWARD = ForwardWorkload(
    name="small_forward", why="", sides=(64, 68, 72, 76), inputs_per_side=2, clients=2,
    capacity=4, check_every=1,
)
SMALL_EVAL = EvalWorkload(name="small_eval", why="", side=128, pairs=3)


class TestGenerators:
    def test_features_are_deterministic_per_seed(self):
        a, b, c = make_features(72, 5, 1), make_features(72, 5, 1), make_features(72, 6, 1)
        assert [x.shape for x in a] == [GridShape(18, 18), GridShape(9, 9), GridShape(5, 5), GridShape(3, 3)]
        assert all(np.array_equal(x.data, y.data) for x, y in zip(a, b))
        assert not np.array_equal(a[0].data, c[0].data)

    def test_streams_are_deterministic_per_seed(self):
        def draw(seed, client):
            stream = ForwardStream(WORKLOADS["dynres_2c"], seed, client)
            return [stream.next() for _ in range(200)]

        assert draw(3, 0) == draw(3, 0)
        assert draw(3, 0) != draw(4, 0)
        assert draw(3, 0) != draw(3, 1)

    def test_stream_covers_every_side_once_per_cycle(self):
        spec = WORKLOADS["dynres_2c"]
        stream = ForwardStream(spec, 9, 0)
        sides = [stream.next()[0] for _ in range(2 * len(spec.sides))]
        assert sorted(sides[: len(spec.sides)]) == list(spec.sides)
        assert sorted(sides[len(spec.sides):]) == list(spec.sides)

    def test_manifest_files_are_deterministic_per_seed(self, tmp_path):
        first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        for d in (first, second, other):
            d.mkdir()
        m1 = write_manifest(SMALL_EVAL, 11, first)
        m2 = write_manifest(SMALL_EVAL, 11, second)
        write_manifest(SMALL_EVAL, 12, other)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert all((first / n).read_bytes() == (second / n).read_bytes() for n in names)
        assert any((first / n).read_bytes() != (other / n).read_bytes() for n in names)
        assert m1.expected == m2.expected
        formats = [m1.formats[first / f"gt_{k:03d}.pbm"] for k in range(SMALL_EVAL.pairs)]
        assert formats.count("p1") == 1 and formats.index("p1") == p1_position(SMALL_EVAL, 11)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_ring_masks_have_their_stated_counts(self, seed):
        pair = ring_pair(256, seed, seed + 1)
        pred = binarize(pair.pred, 1)
        assert set(np.unique(pair.pred)) <= {0, 1, 2}
        got_pred, got_gt = topo_summary(pred), topo_summary(pair.gt)
        assert (got_pred.components, got_pred.holes) == pair.pred_counts
        assert (got_gt.components, got_gt.holes) == pair.gt_counts
        assert topo_errors(pred, pair.gt) == pair.expected


class TestOracles:
    @pytest.mark.parametrize("params", [default_params(), SsmParams(
        a=np.array([-0.5, -3.0]), b=np.array([1.0, -2.0]), c=np.array([0.3, 1.5]), d=0.7, delta=0.2
    )])
    def test_direct_recurrence_matches_scan_sequence(self, params):
        x = np.random.default_rng(0).standard_normal(37)
        np.testing.assert_allclose(direct_recurrence(x, params), scan_sequence(x, params), rtol=1e-12)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_direct_scan_matches_multi_direction_scan(self, family):
        x = make_features(40, 2, 0)[1]
        indices = FAMILIES[family](x.shape)
        got = multi_direction_scan(x, indices, default_params()).data
        np.testing.assert_allclose(direct_scan(x, indices.forward, default_params()), got, rtol=1e-10)

    def test_trace_hsic_matches_gate(self):
        x = make_features(64, 3, 0)[0]
        params = default_params()
        topoa = multi_direction_scan(x, FAMILIES["topoa"](x.shape), params)
        cross = multi_direction_scan(x, FAMILIES["cross"](x.shape), params)
        model = Model(capacity=4)
        _, diags = fuse_with_diagnostics(BranchPair.from_feature_maps(cross, topoa), model.gate)
        sigma_sq, score = trace_hsic(cross.data[0], topoa.data[0], model.gate)
        assert sigma_sq == pytest.approx(diags[0].sigma_sq, rel=1e-10)
        assert score == pytest.approx(diags[0].hsic, rel=1e-10)

    def test_checks_pass_on_library_output_and_catch_a_corrupted_scan(self):
        model = Model(capacity=4)
        stages = make_features(64, 4, 0)
        outs = model.forward(stages)
        assert check_outputs(stages, outs) == []
        assert check_deep(stages, outs, model.params, model.gate) == []
        outs[-1].scans["cross"].data[0, 0, 0] += 1e-6
        assert any("direct recurrence" in f for f in check_deep(stages, outs, model.params, model.gate))
        outs[0].fused[0, 0, 0] = np.nan
        assert check_outputs(stages, outs) == ["stage 0: fused output not finite"]


class TestTracer:
    def test_parents_items_and_self_time(self):
        tracer = Tracer()
        tracer.active = True
        with tracer.item(7):
            with tracer.span("outer", family="x"):
                with tracer.span("inner"):
                    pass
        with tracer.span("untracked"):
            pass
        tracer.active = False
        with tracer.span("inactive"):
            pass
        records = {r["name"]: r for r in tracer.records()}
        assert set(records) == {"item", "outer", "inner", "untracked"}
        assert records["outer"]["parent"] == records["item"]["id"]
        assert records["inner"]["parent"] == records["outer"]["id"]
        assert [records[n]["item"] for n in ("item", "outer", "inner", "untracked")] == [7, 7, 7, -1]
        outer, inner = records["outer"], records["inner"]
        assert outer["self_ns"] == (outer["end_ns"] - outer["start_ns"]) - (inner["end_ns"] - inner["start_ns"])
        assert outer["attrs"] == {"family": "x"}


class TestDeclaredMetrics:
    def test_benchmark_json_matches_declarations(self):
        assert BENCHMARK["workloads"] == [
            {"name": name, "why": WORKLOADS[name].why} for name in GATED_WORKLOADS
        ]
        assert all(isinstance(WORKLOADS[name], ForwardWorkload) for name in GATED_WORKLOADS)
        assert BENCHMARK["end_to_end"] == [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ]
        assert BENCHMARK["per_layer"] == [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in FORWARD_PER_LAYER
        ]

    @pytest.mark.parametrize(
        "spec, declared",
        [(SMALL_FORWARD, FORWARD_PER_LAYER), (SMALL_EVAL, EVAL_PER_LAYER)],
        ids=["forward", "eval"],
    )
    def test_emitted_names_equal_declared_names(self, spec, declared, tmp_path):
        untraced = measure(spec, seed=1, seconds=0.3, trace=False, workdir=tmp_path)
        metrics, _ = end_to_end(untraced)
        assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
        assert untraced.attempted > 0 and untraced.failed == 0, untraced.failures
        traced = measure(spec, seed=1, seconds=0.5, trace=True, workdir=tmp_path)
        layers = per_layer(traced)
        assert list(layers) == [name for name, _, _, _ in declared]
        assert traced.failed == 0, traced.failures
        assert layers["trace.items"] > 0

    def test_small_forward_counts_are_consistent(self, tmp_path):
        run = measure(SMALL_FORWARD, seed=2, seconds=0.5, trace=True, workdir=tmp_path)
        m = per_layer(run)
        assert m["scan_cache.requests"] == m["trace.items"] * 2 * 4
        assert m["scan_cache.hits"] + m["scan_cache.misses"] == m["scan_cache.requests"]
        assert m["scan_order.builds"] == m["scan_cache.misses"] > 0
        assert m["scan_cache.entries"] == 2 * SMALL_FORWARD.capacity
        lengths = {g.length for side in SMALL_FORWARD.sides for g in stage_shapes(side)}
        assert m["hsic_gate.projection_lengths"] == len(lengths)


def test_exits_without_a_result_when_the_library_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixed_warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
