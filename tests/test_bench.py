"""Harness behavior: analytic oracle, measured runs, reports, stress."""

import json

import pytest

from toposcan.bench import (
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
        with pytest.raises(ValueError):
            StageModel(requests_per_stage=0)


class TestAnalyticOracle:
    def test_fixed_hundred_samples(self):
        scenario = Scenario(name="fixed", sample_count=100)
        assert analytic_hit_rate(scenario, StageModel()) == 99.0

    def test_single_sample_distinct_stage_sizes(self):
        scenario = Scenario(name="fixed", sample_count=1)
        assert analytic_hit_rate(scenario, StageModel()) == 0.0

    def test_two_scale_disjoint_internal_sizes(self):
        # 256 -> 64,32,16,8 and 352 -> 88,44,22,11: disjoint, 8 unique keys
        scenario = Scenario(name="two_scale", sample_count=100, sizes=(256, 352))
        assert analytic_hit_rate(scenario, StageModel()) == 98.0

    def test_requests_per_stage_scales_totals(self):
        scenario = Scenario(name="fixed", sample_count=10)
        stages = StageModel(strides=(8, 16), requests_per_stage=3)
        keys = [k for sample in key_stream(scenario, stages) for k in sample]
        assert len(keys) == 60
        assert analytic_hit_rate(scenario, stages) == 100.0 * (60 - 2) / 60

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

    def test_stages_slice_repeated_requests(self):
        # Each stage issues three requests for its one key, so a pass over
        # the stream requests n * stages * 3 keys. Sides 256 and 512 give
        # stage keys 16/8 and 32/16: two per stage, three in all.
        scenario = make_scenario("two-scale", sample_count=4, seed=0)
        stages = StageModel(strides=(16, 32), requests_per_stage=3)
        report = run_scenario(scenario, stages, cache_capacity=64, channels=1, warmup=2)
        assert report.total_requests == 4 * 2 * 3
        assert [s["stride"] for s in report.per_stage] == [16, 32]
        assert [s["requests"] for s in report.per_stage] == [12, 12]
        assert [s["unique_keys"] for s in report.per_stage] == [2, 2]
        assert report.unique_keys == 3
        assert report.hit_rate_pct == analytic_hit_rate(scenario, stages)
        assert report.hit_rate_pct == 100.0 * (24 - 3) / 24
        assert report.warm_hit_rate_pct == 100.0


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

    def test_rejects_thread_count_above_cap(self):
        # 65 is one past the cap: if the check were missing, the pool
        # would start only a handful of threads.
        with pytest.raises(ValueError, match="threads must be <= 64"):
            run_cache_stress(threads=65, keys=1, iters=1)
        # 1025 keys is one past the key cap, which bounds reference memory.
        with pytest.raises(ValueError, match="keys must be <= 1024"):
            run_cache_stress(threads=1, keys=1025, iters=1)
