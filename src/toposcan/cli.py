"""Command-line interface.

Subcommands:
    bench run     -- run a dynamic-resolution caching scenario
    bench oracle  -- print the analytic (enumeration-based) hit rate
    scan dump     -- dump a forward/inverse index pair as JSON
    gate diag     -- gate diagnostics on seeded random branch features
    topo report   -- topology metrics over a manifest of mask pairs
    cache stress  -- concurrent cache storm with oracle verification

The environment variable TOPOSCAN_SEED, when set, overrides any --seed.
Contract violations exit nonzero with a one-line error JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench
from .hsic_gate import BranchPair, GateConfig, fuse_with_diagnostics
from .mask_io import binarize, read_manifest, read_mask
from .scan_order import GridShape, build_cross_indices, build_topoa_indices
from .topo_metrics import aggregate, topo_errors

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _strides(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad stride list {text!r}") from exc


def _resolve_seed(args: argparse.Namespace) -> int:
    env = os.environ.get("TOPOSCAN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"TOPOSCAN_SEED must be an integer, got {env!r}") from exc
    return args.seed


def _write_output(payload: bytes, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(payload.decode("utf-8"))
    else:
        with open(out, "wb") as fh:
            fh.write(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toposcan",
        description="Scan-order serialization, index caching, gated fusion, and topology metrics.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    bench_parser = top.add_parser("bench", help="caching scenario benchmarks")
    bench_sub = bench_parser.add_subparsers(dest="command", required=True)

    scenario_args = argparse.ArgumentParser(add_help=False)
    scenario_args.add_argument("--scenario", required=True,
                               choices=["fixed", "two-scale", "multi-scale", "unique"])
    scenario_args.add_argument("--samples", type=_positive_int, default=100)
    scenario_args.add_argument("--strides", type=_strides, default=(4, 8, 16, 32))
    scenario_args.add_argument("--requests-per-stage", type=_positive_int, default=1)

    run = bench_sub.add_parser("run", parents=[scenario_args],
                               help="run a scenario and emit a report")
    run.add_argument("--capacity", type=_positive_int, default=64)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--batch", type=_positive_int, default=1)
    run.add_argument("--channels", type=_positive_int, default=4)
    run.add_argument("--format", choices=["json", "csv"], default="json")
    run.add_argument("--out", default=None)
    run.set_defaults(func=_cmd_bench_run)

    oracle = bench_sub.add_parser("oracle", parents=[scenario_args],
                                  help="print the analytic hit rate")
    oracle.set_defaults(func=_cmd_bench_oracle)

    scan_parser = top.add_parser("scan", help="index-pair utilities")
    scan_sub = scan_parser.add_subparsers(dest="command", required=True)
    dump = scan_sub.add_parser("dump", help="dump an index pair as JSON")
    dump.add_argument("--h", type=_positive_int, required=True)
    dump.add_argument("--w", type=_positive_int, required=True)
    dump.add_argument("--kind", choices=["topoa", "cross"], default="topoa")
    dump.add_argument("--out", default=None)
    dump.set_defaults(func=_cmd_scan_dump)

    gate_parser = top.add_parser("gate", help="fusion gate utilities")
    gate_sub = gate_parser.add_subparsers(dest="command", required=True)
    diag = gate_sub.add_parser("diag", help="gate diagnostics on random features")
    diag.add_argument("--b", type=_positive_int, default=1)
    diag.add_argument("--c", type=_positive_int, default=8)
    diag.add_argument("--l", type=_positive_int, default=256)
    diag.add_argument("--seed", type=int, default=0)
    diag.add_argument("--d-proj", type=_positive_int, default=64)
    diag.add_argument("--alpha", type=float, default=0.5)
    diag.add_argument("--temperature", type=float, default=1.5)
    diag.add_argument("--rho", type=float, default=0.2)
    diag.set_defaults(func=_cmd_gate_diag)

    topo_parser = top.add_parser("topo", help="topology metrics")
    topo_sub = topo_parser.add_subparsers(dest="command", required=True)
    report = topo_sub.add_parser("report", help="metrics over a manifest of mask pairs")
    report.add_argument("--manifest", required=True)
    report.add_argument("--out", default=None)
    report.set_defaults(func=_cmd_topo_report)

    cache_parser = top.add_parser("cache", help="cache exercises")
    cache_sub = cache_parser.add_subparsers(dest="command", required=True)
    stress = cache_sub.add_parser("stress", help="concurrent get-or-build storm")
    stress.add_argument("--threads", type=_positive_int, default=4)
    stress.add_argument("--keys", type=_positive_int, default=16)
    stress.add_argument("--iters", type=_positive_int, default=200)
    stress.add_argument("--capacity", type=_positive_int, default=None)
    stress.add_argument("--seed", type=int, default=0)
    stress.set_defaults(func=_cmd_cache_stress)

    return parser


def _scenario_and_stages(
    args: argparse.Namespace, seed: int = 0
) -> tuple[bench.Scenario, bench.StageModel]:
    scenario = bench.make_scenario(args.scenario, sample_count=args.samples, seed=seed)
    stages = bench.StageModel(
        strides=args.strides, requests_per_stage=args.requests_per_stage
    )
    return scenario, stages


def _cmd_bench_run(args: argparse.Namespace) -> int:
    scenario, stages = _scenario_and_stages(args, seed=_resolve_seed(args))
    report = bench.run_scenario(
        scenario,
        stages,
        cache_capacity=args.capacity,
        batch=args.batch,
        channels=args.channels,
    )
    _write_output(bench.emit_report(report, args.format), args.out)
    return 0


def _cmd_bench_oracle(args: argparse.Namespace) -> int:
    scenario, stages = _scenario_and_stages(args)
    rate = bench.analytic_hit_rate(scenario, stages)
    print(json.dumps({"scenario": scenario.name, "analytic_hit_rate_pct": rate}))
    return 0


def _cmd_scan_dump(args: argparse.Namespace) -> int:
    shape = GridShape(args.h, args.w)
    pair = build_topoa_indices(shape) if args.kind == "topoa" else build_cross_indices(shape)
    payload = {
        "h": shape.height,
        "w": shape.width,
        "forward": pair.forward.tolist(),
        "inverse": pair.inverse.tolist(),
    }
    _write_output((json.dumps(payload) + "\n").encode("utf-8"), args.out)
    return 0


def _cmd_gate_diag(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    cfg = GateConfig(
        d_proj=args.d_proj,
        alpha=args.alpha,
        temperature=args.temperature,
        rho=args.rho,
        seed=seed,
    )
    rng = np.random.default_rng([seed & 0xFFFFFFFF, args.b, args.c, args.l])
    pair = BranchPair(
        f_cross=rng.standard_normal((args.b, args.c, args.l)),
        f_topoa=rng.standard_normal((args.b, args.c, args.l)),
    )
    _, diagnostics = fuse_with_diagnostics(pair, cfg)
    print(json.dumps([d.as_dict() for d in diagnostics]))
    return 0


def _cmd_topo_report(args: argparse.Namespace) -> int:
    items = read_manifest(args.manifest)
    errors = []
    for item in items:
        pred = binarize(read_mask(item.pred), item.class_id)
        gt = binarize(read_mask(item.gt), item.class_id)
        errors.append(topo_errors(pred, gt))
    report = aggregate(errors)
    _write_output((json.dumps(report.as_dict()) + "\n").encode("utf-8"), args.out)
    return 0


def _cmd_cache_stress(args: argparse.Namespace) -> int:
    summary = bench.run_cache_stress(
        threads=args.threads,
        keys=args.keys,
        iters=args.iters,
        capacity=args.capacity,
        seed=_resolve_seed(args),
    )
    print(json.dumps(summary))
    if summary["violations"] or not summary["stats_conserved"]:
        raise ValueError("cache stress detected contract violations")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
