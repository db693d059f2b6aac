"""CLI contract: subcommand output schemas, seeding, and error reporting."""

import json

import numpy as np

from toposcan.cli import main
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

    def test_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "oracle", "--scenario", "fixed", "--samples", "100"
        )
        assert code == 0
        assert json.loads(out)["analytic_hit_rate_pct"] == 99.0


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
