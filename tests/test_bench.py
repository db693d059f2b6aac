"""Harness behavior: analytic oracle, measured runs, reports, stress."""

import json

import numpy as np
import pytest

from toposcan.bench import (
    MAX_REQUESTS,
    Scenario,
    StageModel,
    analytic_hit_rate,
    emit_report,
    key_stream,
    make_scenario,
    run_cache_stress,
    run_scenario,
)

SMALL_STAGES = StageModel(strides=(8, 16, 32))


class TestScenarios:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            Scenario(name="mystery")
        with pytest.raises(ValueError):
            make_scenario("mystery")
        for name in (123, None):
            with pytest.raises(ValueError, match="must be a string"):
                make_scenario(name)

    def test_cli_aliases(self):
        assert make_scenario("two-scale").name == "two_scale"
        assert make_scenario("unique").name == "unique_per_sample"
        assert make_scenario("two_scale").name == "two_scale"
        assert make_scenario("multi_scale").name == "multi_scale"
        assert make_scenario("unique-per-sample").name == "unique_per_sample"
        assert make_scenario("unique_per_sample").name == "unique_per_sample"
        assert make_scenario(" Fixed ").name == "fixed"
        with pytest.raises(ValueError):
            make_scenario("two scale")

    def test_unique_rule(self):
        scenario = Scenario(name="unique_per_sample", sample_count=5)
        assert scenario.external_sides() == [256, 258, 260, 262, 264]

    def test_two_scale_is_half_and_half(self):
        sides = Scenario(name="two_scale", sample_count=10).external_sides()
        assert sides.count(256) == sides.count(512) == 5

    def test_multi_scale_covers_five_sizes(self):
        sides = Scenario(name="multi_scale", sample_count=10).external_sides()
        assert sorted(set(sides)) == [256, 320, 384, 448, 512]

    def test_stage_model_validation(self):
        with pytest.raises(ValueError):
            StageModel(strides=())
        with pytest.raises(ValueError):
            StageModel(strides=(4, 4))
        with pytest.raises(ValueError):
            StageModel(strides=(8, 4))
        with pytest.raises(ValueError, match="sequence of integers"):
            StageModel(strides=5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strides": (4.5, 8)},
            {"strides": (4, 8.0)},
            {"strides": (True, 8)},
        ],
    )
    def test_stage_model_takes_integers_only(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            StageModel(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_count": 3.0},
            {"sample_count": None},
            {"sample_count": np.float64(4.0)},
            {"sample_count": 2.5},
            {"sample_count": True},
            {"sample_count": "10"},
            {"seed": 1.5},
            {"seed": True},
        ],
    )
    def test_scenario_takes_integers_only(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            Scenario(name="fixed", **kwargs)

    def test_numpy_integers_become_ints(self):
        stages = StageModel(strides=(np.int64(4), np.int32(8)))
        scenario = Scenario(name="fixed", sample_count=np.int64(3))
        values = [*stages.strides, scenario.sample_count]
        assert values == [4, 8, 3]
        assert all(type(v) is int for v in values)


class TestAnalyticOracle:
    def test_fixed_hundred_samples(self):
        scenario = Scenario(name="fixed", sample_count=100)
        assert analytic_hit_rate(scenario, StageModel()) == 99.0

    def test_single_sample_distinct_stage_sizes(self):
        scenario = Scenario(name="fixed", sample_count=1)
        assert analytic_hit_rate(scenario, StageModel()) == 0.0

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario(name="fixed", sample_count=7),
            # 256/8 and 512/16 are both 32: shapes coincide across strides.
            Scenario(name="two_scale", sample_count=9),
            Scenario(name="multi_scale", sample_count=23),
            Scenario(name="unique_per_sample", sample_count=300),
        ],
        ids=lambda scenario: scenario.name,
    )
    def test_matches_key_enumeration(self, scenario):
        stages = StageModel()
        keys = [k for sample in key_stream(scenario, stages) for k in sample]
        enumerated = 100.0 * (len(keys) - len(set(keys))) / len(keys)
        assert analytic_hit_rate(scenario, stages) == enumerated

    def test_shapes_shared_across_strides_count_once(self):
        # 256 -> 64,32,16,8 and 512 -> 128,64,32,16: 5 distinct, not 8.
        scenario = Scenario(name="two_scale", sample_count=2)
        assert analytic_hit_rate(scenario, StageModel()) == 100.0 * (8 - 5) / 8

    def test_unique_external_sizes_still_collide_internally(self):
        # ceil((256 + 2i) / stride) repeats across consecutive samples at
        # large strides, so reuse survives fully unique external sizes.
        scenario = Scenario(name="unique_per_sample", sample_count=100)
        assert analytic_hit_rate(scenario, StageModel()) > 0.0


class TestRunScenario:
    def test_measured_matches_analytic_with_headroom(self):
        scenario = make_scenario("two-scale", sample_count=8, seed=1)
        report = run_scenario(scenario, SMALL_STAGES, cache_capacity=1024)
        assert report.hit_rate_pct == analytic_hit_rate(scenario, SMALL_STAGES)
        assert report.warm_hit_rate_pct == 100.0

    def test_warm_index_service_beats_cold_in_every_scenario(self):
        # Strides down to 2 make the cold pass construct 256x256 pairs,
        # dwarfing lookup noise; channels=1 keeps the scan load light.
        stages = StageModel(strides=(2, 4, 8, 16))
        for name in ("fixed", "two-scale", "multi-scale", "unique"):
            scenario = make_scenario(name, sample_count=12, seed=2)
            report = run_scenario(
                scenario, stages, cache_capacity=256, channels=1
            )
            assert report.warm_index_ms_total < report.cold_index_ms_total, name

    def test_capacity_one_thrashes(self):
        scenario = make_scenario("two-scale", sample_count=10, seed=0)
        stages = StageModel(strides=(8, 16))
        generous = run_scenario(scenario, stages, cache_capacity=64)
        thrashed = run_scenario(scenario, stages, cache_capacity=1)
        assert thrashed.hit_rate_pct < generous.hit_rate_pct

    def test_reports_are_deterministic_modulo_timing(self):
        scenario = make_scenario("multi-scale", sample_count=10, seed=5)
        first = run_scenario(scenario, SMALL_STAGES, cache_capacity=64)
        second = run_scenario(scenario, SMALL_STAGES, cache_capacity=64)
        assert first.stable_dict() == second.stable_dict()

    def test_report_invariants(self):
        scenario = make_scenario("fixed", sample_count=6, seed=0)
        report = run_scenario(scenario, SMALL_STAGES, cache_capacity=64)
        assert report.reduction_pct == 100.0 * (1.0 - report.warm_ms / report.cold_ms)
        assert 0.0 <= report.hit_rate_pct <= 100.0
        assert report.fps == 1000.0 / report.warm_ms
        assert report.total_requests == 6 * len(SMALL_STAGES.strides)

    def test_per_stage_report_counts_each_stage_once(self):
        # Each stage issues one request per sample. Sides 256 and 512 give
        # stage keys 16/8 and 32/16: two per stage, three in all.
        scenario = make_scenario("two-scale", sample_count=4, seed=0)
        stages = StageModel(strides=(16, 32))
        report = run_scenario(scenario, stages, cache_capacity=64, channels=1)
        assert report.total_requests == 4 * 2
        assert [s["stride"] for s in report.per_stage] == [16, 32]
        assert [s["requests"] for s in report.per_stage] == [4, 4]
        assert [s["unique_keys"] for s in report.per_stage] == [2, 2]
        assert report.unique_keys == 3
        assert report.hit_rate_pct == analytic_hit_rate(scenario, stages)
        assert report.hit_rate_pct == 100.0 * (8 - 3) / 8
        assert report.warm_hit_rate_pct == 100.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cache_capacity": 2.5},
            {"cache_capacity": True},
            {"cache_capacity": "3"},
            {"batch": 1.5},
            {"batch": False},
            {"batch": 0},
            {"channels": True},
            {"channels": "4"},
            {"channels": 0},
        ],
    )
    def test_counts_take_positive_integers_only(self, kwargs):
        with pytest.raises(ValueError, match="must be"):
            run_scenario(make_scenario("fixed", sample_count=1), SMALL_STAGES, **kwargs)

    def test_capacity_is_checked_before_the_key_stream(self):
        # A stream over the request budget would fail later, once it was built.
        scenario = make_scenario("fixed", sample_count=MAX_REQUESTS)
        with pytest.raises(ValueError, match="capacity must be >= 1, got 0"):
            run_scenario(scenario, SMALL_STAGES, cache_capacity=0)

    def test_numpy_integer_counts_become_ints(self):
        report = run_scenario(
            make_scenario("fixed", sample_count=1),
            StageModel(strides=(16, 32)),
            cache_capacity=np.int64(4),
            batch=np.int32(1),
            channels=np.int16(2),
        )
        values = [report.capacity, report.batch, report.channels]
        assert values == [4, 1, 2]
        assert all(type(v) is int for v in values)


class TestEmitReport:
    @pytest.fixture
    def report(self):
        scenario = make_scenario("fixed", sample_count=4, seed=0)
        return run_scenario(scenario, StageModel(strides=(16, 32)), cache_capacity=8)

    def test_json_schema_and_round_trip(self, report):
        payload = json.loads(emit_report(report, "json"))
        for field in ("scenario", "cold_ms", "warm_ms", "reduction_pct", "hit_rate_pct"):
            assert field in payload
        assert payload == report.to_dict()

    def test_csv_header_and_round_trip(self, report):
        text = emit_report(report, "csv").decode()
        header, row, _ = text.split("\n")
        assert header == "scenario,cold_ms,warm_ms,reduction_pct,hit_rate_pct"
        fields = row.split(",")
        assert fields[0] == report.scenario
        assert float(fields[1]) == report.cold_ms
        assert float(fields[2]) == report.warm_ms
        assert float(fields[3]) == report.reduction_pct
        assert float(fields[4]) == report.hit_rate_pct

    def test_unknown_format_rejected(self, report):
        with pytest.raises(ValueError):
            emit_report(report, "xml")


class TestCacheStress:
    def test_stress_passes_cleanly(self):
        summary = run_cache_stress(threads=4, keys=10, iters=60, seed=3)
        assert summary["violations"] == 0
        assert summary["stats_conserved"] is True
        assert summary["requests"] == 4 * 60

    def test_concurrent_misses_build_each_key_once(self):
        summary = run_cache_stress(threads=8, keys=32, capacity=64)
        assert summary["misses"] == 32
        assert summary["evictions"] == 0
        assert summary["violations"] == 0
        assert summary["stats_conserved"] is True

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_cache_stress(threads=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threads": True},
            {"threads": 2.5},
            {"keys": 2.5},
            {"keys": "16"},
            {"iters": 2.5},
            {"iters": False},
            {"seed": 1.5},
            {"seed": True},
        ],
    )
    def test_counts_take_integers_only(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            run_cache_stress(**kwargs)

    def test_numpy_integer_counts_become_ints(self):
        summary = run_cache_stress(threads=np.int64(1), keys=np.int32(2), iters=np.int16(3))
        values = [summary["threads"], summary["keys"], summary["iters"]]
        assert values == [1, 2, 3]
        assert all(type(v) is int for v in values)

    def test_rejects_thread_count_above_cap(self):
        # 65 is one past the cap: if the check were missing, the pool
        # would start only a handful of threads.
        with pytest.raises(ValueError, match="threads must be <= 64"):
            run_cache_stress(threads=65, keys=1, iters=1)
        # 1025 keys is one past the key cap, which bounds reference memory.
        with pytest.raises(ValueError, match="keys must be <= 1024"):
            run_cache_stress(threads=1, keys=1025, iters=1)
