"""CLI contract: subcommand output schemas, seeding, and error reporting."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toposcan.bench import MAX_REQUESTS
from toposcan.cli import MAX_CELLS, main
from toposcan.mask_io import write_mask_pbm, write_mask_raw


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScanDump:
    def test_schema_and_values(self, capsys, tmp_path):
        out_path = tmp_path / "pair.json"
        code, _, _ = run_cli(
            capsys, "scan", "dump", "--h", "2", "--w", "2", "--kind", "topoa",
            "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["h"] == 2 and payload["w"] == 2
        assert payload["forward"][0] == [0, 2, 1, 3]
        assert len(payload["forward"]) == len(payload["inverse"]) == 4

    def test_cross_dump_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "dump", "--h", "2", "--w", "3",
                               "--kind", "cross")
        assert code == 0
        payload = json.loads(out)
        assert payload["forward"][1] == [0, 3, 1, 4, 2, 5]


class TestGateDiag:
    def test_deterministic_output(self, capsys):
        args = ("gate", "diag", "--b", "2", "--c", "6", "--l", "64", "--seed", "11")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        items = json.loads(out1)
        assert len(items) == 2
        assert set(items[0]) == {"hsic", "sigma_sq", "w"}

    def test_env_seed_overrides_flag(self, capsys, monkeypatch):
        code, baseline, _ = run_cli(
            capsys, "gate", "diag", "--c", "4", "--l", "32", "--seed", "3"
        )
        monkeypatch.setenv("TOPOSCAN_SEED", "3")
        code2, overridden, _ = run_cli(
            capsys, "gate", "diag", "--c", "4", "--l", "32", "--seed", "999"
        )
        assert code == code2 == 0
        assert overridden == baseline

    def test_bad_env_seed_reports_error(self, capsys, monkeypatch):
        monkeypatch.setenv("TOPOSCAN_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "gate", "diag")
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"

    def test_long_rows_need_no_length_times_width_budget(self, capsys):
        # l * 64 is over MAX_CELLS; the sketch allocates no (l, width) matrix.
        code, out, err = run_cli(capsys, "gate", "diag", "--b", "1", "--c", "2", "--l", "300000")
        assert code == 0
        assert err == ""
        (item,) = json.loads(out)
        assert all(np.isfinite(item[name]) for name in ("hsic", "sigma_sq", "w"))


class TestBench:
    def test_run_csv(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, _, _ = run_cli(
            capsys, "bench", "run", "--scenario", "fixed", "--samples", "3",
            "--strides", "16,32", "--capacity", "8", "--seed", "0",
            "--format", "csv", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "scenario,cold_ms,warm_ms,reduction_pct,hit_rate_pct"
        assert lines[1].startswith("fixed,")

    def test_run_json_stable_fields_deterministic(self, capsys):
        args = ("bench", "run", "--scenario", "two-scale", "--samples", "4",
                "--strides", "16,32", "--capacity", "8", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        first, second = json.loads(out1), json.loads(out2)
        timing = {"cold_ms", "warm_ms", "reduction_pct", "fps",
                  "cold_index_ms_total", "warm_index_ms_total",
                  "index_reduction_pct", "per_stage"}
        assert {k: v for k, v in first.items() if k not in timing} == {
            k: v for k, v in second.items() if k not in timing
        }

    def test_run_json_keys(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "run", "--scenario", "two-scale", "--samples", "8",
            "--strides", "16,32", "--capacity", "64", "--seed", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "scenario", "samples", "strides", "capacity", "seed", "batch", "channels",
            "total_requests", "unique_keys", "hit_rate_pct", "warm_hit_rate_pct",
            "cold_ms", "warm_ms", "reduction_pct", "fps", "cold_index_ms_total",
            "warm_index_ms_total", "index_reduction_pct", "per_stage",
        }
        assert [set(stage) for stage in payload["per_stage"]] == 2 * [
            {"stride", "requests", "unique_keys", "cold_index_ms", "warm_index_ms"}
        ]
        assert (payload["total_requests"], payload["unique_keys"]) == (16, 3)
        assert (payload["hit_rate_pct"], payload["warm_hit_rate_pct"]) == (81.25, 100.0)

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_requests_per_stage_flag_is_gone(self, capsys, command):
        code, out, err = run_cli(
            capsys, "bench", command, "--scenario", "fixed", "--requests-per-stage", "2"
        )
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "ValueError", "message": "unrecognized arguments: --requests-per-stage 2"
        }

    def test_oracle(self, capsys):
        # Pins each scenario's sides at the defaults (100 samples, strides 4,8,16,32).
        expected = {"fixed": 99.0, "two-scale": 98.75, "multi-scale": 95.75, "unique": 75.25}
        for scenario, rate in expected.items():
            code, out, _ = run_cli(capsys, "bench", "oracle", "--scenario", scenario)
            assert code == 0
            assert json.loads(out)["analytic_hit_rate_pct"] == rate, scenario

    @pytest.mark.parametrize("command", ["run", "oracle"])
    @pytest.mark.parametrize(
        "flags",
        [
            ("--samples", "10000000"),
            # Four default strides: one sample past the budget.
            ("--samples", str(MAX_REQUESTS // 4 + 1)),
            # Two strides: one sample past the budget.
            ("--samples", str(MAX_REQUESTS // 2 + 1), "--strides", "16,32"),
        ],
    )
    def test_request_stream_over_budget_reports_error(self, capsys, command, flags):
        code, out, err = run_cli(capsys, "bench", command, "--scenario", "unique", *flags)
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ValueError"
        assert f"over the budget of {MAX_REQUESTS}" in payload["message"]


class TestTopoReport:
    def test_report_over_manifest(self, capsys, tmp_path):
        ring = np.zeros((5, 5), dtype=np.uint8)
        ring[1:4, 1:4] = 1
        ring[2, 2] = 0
        disk = np.zeros((5, 5), dtype=np.uint8)
        disk[1:4, 1:4] = 1
        write_mask_raw(tmp_path / "pred.tmsk", ring)
        write_mask_pbm(tmp_path / "gt.pbm", disk)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "items": [
                {"pred": "pred.tmsk", "gt": "gt.pbm", "class_id": 1},
                {"pred": "gt.pbm", "gt": "gt.pbm"},
            ]
        }))
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "topo", "report", "--manifest", str(manifest),
            "--out", str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report == {"cce": 0.0, "hce": 0.5, "etm_pct": 50.0, "n": 2}

    def test_missing_manifest_reports_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "topo", "report", "--manifest", str(tmp_path / "nope.json")
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] in {"FileNotFoundError", "ValueError"}

    def test_truncated_pbm_header_reports_error(self, capsys, tmp_path):
        (tmp_path / "short.pbm").write_bytes(b"P4\n8")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"items": [{"pred": "short.pbm", "gt": "short.pbm"}]}))
        code, out, err = run_cli(capsys, "topo", "report", "--manifest", str(manifest))
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": "ValueError", "message": "truncated PBM header"}

    def test_non_string_path_reports_error(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"items": [{"pred": None, "gt": "gt.pbm"}]}))
        code, out, err = run_cli(capsys, "topo", "report", "--manifest", str(manifest))
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "must be strings" in payload["message"]

    def test_deeply_nested_manifest_reports_error(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"items":[' * 100_000)
        code, out, err = run_cli(capsys, "topo", "report", "--manifest", str(manifest))
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "nested too deeply" in payload["message"]


class TestCacheStress:
    def test_stress_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "cache", "stress", "--threads", "2", "--keys", "6",
            "--iters", "40", "--seed", "1",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["violations"] == 0
        assert summary["requests"] == 80

    def test_negative_seed_is_masked_like_other_commands(self, capsys):
        # One thread keeps the hit/miss counts deterministic.
        args = ("cache", "stress", "--threads", "1", "--keys", "6", "--iters", "40")
        code, out, err = run_cli(capsys, *args, "--seed", "-5")
        assert (code, err) == (0, "")
        _, masked, _ = run_cli(capsys, *args, "--seed", str(-5 & 0xFFFFFFFF))
        assert json.loads(out) == json.loads(masked)

    def test_thread_count_above_cap_reports_error(self, capsys):
        code, out, err = run_cli(capsys, "cache", "stress", "--threads", "65", "--iters", "1")
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "ValueError", "message": "threads must be <= 64, got 65"
        }
        code, out, err = run_cli(capsys, "cache", "stress", "--keys", "1025", "--iters", "1")
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "ValueError", "message": "keys must be <= 1024, got 1025"
        }


class TestCellBudget:
    @pytest.mark.parametrize(
        "argv",
        [
            ("gate", "diag", "--b", "100000", "--c", "100000", "--l", "100000"),
            # b * c * l one and two cells past the budget, however small the width.
            ("gate", "diag", "--c", "97", "--l", str(257 * 673), "--d-proj", "8"),
            ("gate", "diag", "--c", "2", "--l", str(MAX_CELLS // 2 + 1)),
            ("scan", "dump", "--h", "100000", "--w", "100000"),
            ("bench", "run", "--scenario", "fixed", "--batch", "100000", "--channels", "100000"),
        ],
    )
    def test_oversized_request_reports_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ValueError"
        assert f"over the budget of {MAX_CELLS}" in payload["message"]


# Every count flag, the argv it completes and the library's name for the setting.
COUNT_FLAGS = [
    (("bench", "run", "--scenario", "fixed"), "--samples", "sample_count"),
    (("bench", "run", "--scenario", "fixed"), "--capacity", "capacity"),
    (("bench", "run", "--scenario", "fixed"), "--batch", "batch"),
    (("bench", "run", "--scenario", "fixed"), "--channels", "channels"),
    (("scan", "dump", "--h", "2", "--w", "2"), "--h", "height"),
    (("scan", "dump", "--h", "2", "--w", "2"), "--w", "width"),
    (("gate", "diag"), "--b", "b"),
    (("gate", "diag"), "--c", "c"),
    (("gate", "diag"), "--l", "l"),
    (("gate", "diag"), "--d-proj", "d_proj"),
    (("cache", "stress"), "--threads", "threads"),
    (("cache", "stress"), "--keys", "keys"),
    (("cache", "stress"), "--iters", "iters"),
    (("cache", "stress"), "--capacity", "capacity"),
]


class TestArgvErrors:
    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv,flag,name", COUNT_FLAGS, ids=[f"{a[0]} {a[1]} {flag}" for a, flag, _ in COUNT_FLAGS]
    )
    def test_non_positive_count_reports_error(self, capsys, argv, flag, name, value):
        # The later flag wins, so the bad value replaces any in ``argv``.
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "ValueError", "message": f"{name} must be >= 1, got {value}"
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "dump", "--h", "x", "--w", "2"),  # not a number
            ("scan", "dump", "--w", "2"),  # a required flag missing
            ("bench", "oracle", "--scenario", "bogus"),  # not a choice
            ("bench", "run", "--scenario", "fixed", "--strides", "a,b"),
            ("gate", "diag", "--bogus", "1"),  # not a flag
            ("gate",),  # no command
            (),
        ],
    )
    def test_malformed_argv_reports_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "ValueError"

    @pytest.mark.parametrize(
        "argv,choices",
        [((), "{bench,scan,gate,topo,cache}"), (("bench",), "{run,oracle}"), (("cache",), "{stress}")],
    )
    def test_missing_subcommand_names_the_choices(self, capsys, argv, choices):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "ValueError",
            "message": f"the following arguments are required: {choices}",
        }

    @pytest.mark.parametrize("value", ["inf", "1e999", "nan"])
    def test_non_finite_temperature_reports_error(self, capsys, value):
        code, out, err = run_cli(capsys, "gate", "diag", "--temperature", value)
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "ValueError", "message": f"temperature must be finite, got {float(value)}"
        }

    def test_negative_factors_fail_the_count_rule_not_the_budget(self, capsys):
        # (-100000) ** 2 * 100000 is over MAX_CELLS, but the counts are what is wrong.
        code, _, err = run_cli(
            capsys, "gate", "diag", "--b", "-100000", "--c", "-100000", "--l", "100000"
        )
        assert code == 1
        assert json.loads(err)["message"] == "b must be >= 1, got -100000"

    @pytest.mark.parametrize(
        "argv",
        [(), ("bench", "run"), ("bench", "oracle"), ("scan", "dump"), ("gate", "diag"),
         ("topo", "report"), ("cache", "stress")],
    )
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: toposcan")


def _int_flag(low, high):
    return st.integers(low, high).map(str)


def _flags(**strategies):
    """argv pairs for every flag, each value drawn from its strategy."""
    names = [f"--{name.replace('_', '-')}" for name in strategies]
    return st.tuples(*strategies.values()).map(
        lambda values: [part for pair in zip(names, values) for part in pair]
    )


_SCENARIO = _flags(
    scenario=st.sampled_from(["fixed", "two-scale", "multi-scale", "unique", "bogus"]),
    samples=_int_flag(1, 3),
    strides=st.sampled_from(["16,32", "8,32", "32", "32,16", "0,8", "a,b"]),
)
_SEED = st.integers(-(2**40), 2**40).map(str)
_REAL = st.one_of(st.floats(0.0, 2.0), st.floats(allow_nan=True, allow_infinity=True)).map(str)

COMMANDS = {
    "bench run": st.tuples(
        _SCENARIO,
        _flags(capacity=_int_flag(1, 4), seed=_SEED, batch=_int_flag(1, 2),
               channels=_int_flag(1, 4), format=st.sampled_from(["json", "csv", "xml"])),
    ).map(lambda parts: ["bench", "run", *parts[0], *parts[1]]),
    "bench oracle": _SCENARIO.map(lambda flags: ["bench", "oracle", *flags]),
    "scan dump": _flags(
        h=_int_flag(1, 12), w=_int_flag(1, 12), kind=st.sampled_from(["topoa", "cross", "x"])
    ).map(lambda flags: ["scan", "dump", *flags]),
    "gate diag": _flags(
        b=_int_flag(1, 3), c=_int_flag(1, 6), l=_int_flag(1, 80), seed=_SEED,
        d_proj=_int_flag(1, 100), alpha=_REAL, temperature=_REAL, rho=_REAL,
    ).map(lambda flags: ["gate", "diag", *flags]),
    "topo report": st.sampled_from(["ok.json", "missing.json", "truncated.json"]),
    "cache stress": _flags(
        threads=_int_flag(1, 3), keys=_int_flag(1, 8), iters=_int_flag(1, 20),
        capacity=_int_flag(1, 8), seed=_SEED,
    ).map(lambda flags: ["cache", "stress", *flags]),
}


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifests")
    disk = np.zeros((5, 5), dtype=np.uint8)
    disk[1:4, 1:4] = 1
    write_mask_pbm(root / "disk.pbm", disk)
    (root / "short.pbm").write_bytes(b"P4\n8")
    for name, mask in (("ok.json", "disk.pbm"), ("truncated.json", "short.pbm")):
        (root / name).write_text(json.dumps({"items": [{"pred": mask, "gt": "disk.pbm"}]}))
    return root


class TestFuzz:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_exit_contract(self, manifests, command, data):
        argv = data.draw(COMMANDS[command])
        if command == "topo report":
            argv = ["topo", "report", "--manifest", str(manifests / argv)]
        if data.draw(st.booleans()):  # one flag value replaced by a malformed one
            slot = data.draw(st.sampled_from(range(3, len(argv), 2)))
            argv[slot] = data.draw(st.sampled_from(["0", "-1", "x", "", "1e999"]))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse exiting on its own breaks the contract
                code = exc.code
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            (line,) = err.getvalue().splitlines()
            assert set(json.loads(line)) == {"error", "message"}
