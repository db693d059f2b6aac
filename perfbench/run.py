"""Run the toposcan benchmark on one workload, or on all of them.

    python3 perfbench/run.py --workload fixed_warm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports toposcan from ``src/``.
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs alternating untraced and traced windows and reports the per-layer
metrics, writing every span to ``.perfbench/``. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Each workload's set-up is measured in
SETUP_RUNS fresh processes (two set-up-only children and the measuring
process itself) and reported as their median, so every set-up starts
from cold process-wide caches.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170
# Client threads are the only parallelism: BLAS threads on top of them
# oversubscribe the CPUs and make every timing depend on the scheduler.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _import_library() -> None:
    if not (ROOT / "src" / "toposcan" / "__init__.py").is_file():
        sys.exit(f"perfbench: no toposcan sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.environ.update(BLAS_THREADS)  # before NumPy is first imported


def _child(args: list[str]) -> list[str]:
    """Run this script with ``args`` in a fresh process; its stdout lines."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return done.stdout.splitlines()


def _print_metric(workload: str, name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{workload} {name} {value:.6g} {unit}{note}")


def run_one(name: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> dict:
    from perfbench.measure import end_to_end, measure, per_layer, setup
    from perfbench.metrics import (
        END_TO_END, EVAL_PER_LAYER, FAILED_FRAC, FORWARD_PER_LAYER, machine_record,
    )
    from perfbench.workloads import WORKLOADS

    spec = WORKLOADS[name]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as workdir:
        if setup_only:
            start = time.perf_counter()
            setup(spec, seed, None, Path(workdir))
            return {"setup_s": time.perf_counter() - start}
        setups = []
        if not trace:
            for _ in range(SETUP_RUNS - 1):
                args = ["--workload", name, "--seed", str(seed), "--setup-only"]
                setups.append(json.loads(_child(args)[-1])["setup_s"])
        run = measure(spec, seed, seconds, trace, Path(workdir))

    print("machine", json.dumps(machine_record(seed)))
    for failure in run.failures:
        print(f"{name} FAILED: {failure}", file=sys.stderr)
    if trace:
        metrics = per_layer(run)
        units = {n: u for n, u, _, _ in EVAL_PER_LAYER + FORWARD_PER_LAYER}
        spans_path = ROOT / ".perfbench" / f"trace-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps(run.records))
        print(f"{name} spans {len(run.records)} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics, extra = end_to_end(run)
        metrics["setup_s"] = statistics.median(setups + [run.setup_s])
        units = {n: u for n, u, _, _ in END_TO_END}
        _print_metric(name, FAILED_FRAC[0], extra["failed_frac"], FAILED_FRAC[1],
                      f" ({run.failed} of {run.attempted})")
        extra_notes = {
            "latency_p50_ms": f" (n={extra['latency_samples']})",
            "latency_p95_ms": f" (n={extra['latency_samples']}, {extra['beyond_p95']} beyond)",
            "setup_s": f" (median of {len(setups) + 1} set-ups)",
        }
    for metric, value in metrics.items():
        _print_metric(name, metric, value, units[metric], "" if trace else extra_notes.get(metric, ""))
    if not trace and extra["beyond_p95"] < 10:
        print(f"{name}: only {extra['beyond_p95']} items beyond p95; run longer", file=sys.stderr)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS is the workload's own."""
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(trace))]
        lines = _child(args)
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_library()
    from perfbench.workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_only)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
