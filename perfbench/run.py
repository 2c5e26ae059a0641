"""pressim benchmark: three workloads, each in its own single-threaded process.

    python3 perfbench/run.py --workload engine-8x8 --seed 1 --seconds 20 --trace 0

Run it from the root of a pressim source tree; ``perfbench/README.md`` lists
the workloads and metrics. Per workload it prints the metrics by name and
unit, the behaviour fingerprint, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. Throughputs are taken in host seconds rescaled to a
reference host speed sampled while operations run (``calibrate.py``). Scratch
files and span logs go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("engine-8x8", "train-2x2", "matrix-2x2")

SETUP_SAMPLES = 11  # fresh processes whose set-up time gives setup_s's median
RUN_LIMIT_S = 170  # every process of one workload's run is killed by then


class WorkerFailed(RuntimeError):
    pass


def _worker_env() -> dict[str, str]:
    """Single-threaded numpy, fixed string hashing, no PRESSIM_* overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRESSIM_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py to its end; returns the seconds from spawn to its
    ``ready`` line (set-up) and its result."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=_worker_env(),
        cwd=ROOT,
    )
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    setup_s = result = None
    try:
        for line in proc.stdout:
            if line == "ready\n":
                setup_s = time.perf_counter() - started
            elif line.startswith("result "):
                result = json.loads(line.removeprefix("result "))
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
        watchdog.join()
    if code != 0 or setup_s is None or result is None:
        raise WorkerFailed(f"worker {' '.join(argv)} exited with code {code}")
    return setup_s, result


def src_lines() -> int:
    """Lines of Python under src/ and scripts/ (``wc -l``)."""
    return sum(
        path.read_bytes().count(b"\n")
        for top in ("src", "scripts")
        for path in sorted((ROOT / top).rglob("*.py"))
    )


def _rate(result: dict, work: str, scaled: bool = True) -> float:
    """Median over operations of work done per second, at reference host
    speed (``scaled``) or per host second."""
    scales = result["scales"] if scaled else [1.0] * len(result["seconds"])
    return statistics.median(
        w * k / s for w, s, k in zip(result[work], result["seconds"], scales)
    )


def _median_seconds(result: dict) -> float:
    """Median operation in host seconds."""
    return statistics.median(result["seconds"]) if result["seconds"] else 0.0


def measure(workload: str, seed: int, seconds: float, work_dir: Path) -> dict:
    """End-to-end metrics, untraced; operations' host seconds are rescaled
    to the reference host speed."""
    deadline = time.monotonic() + RUN_LIMIT_S
    argv = ["--workload", workload, "--seed", str(seed), "--work-dir", str(work_dir)]
    argv.append("--sample-host")
    setups = [
        run_worker([*argv, "--setup-only"], deadline)[0]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    setup_s, result = run_worker([*argv, "--seconds", str(seconds)], deadline)
    setups.append(setup_s)
    if result["seconds"]:
        result["host"] = {  # printed only: throughput in unscaled host seconds
            "intersection_ticks_per_s": _rate(result, "intersection_ticks", False),
            "scale": statistics.median(result["scales"]),
        }
        result["metrics"] = {
            "setup_s": (statistics.median(setups), "s"),
            "intersection_ticks_per_s": (_rate(result, "intersection_ticks"), "1/s"),
            "episodes_per_s": (_rate(result, "episodes"), "1/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    return result


def measure_traced(workload: str, seed: int, seconds: float, work_dir: Path) -> dict:
    """Per-layer metrics: half the time untraced, half traced, in two
    processes; the difference of their median operations is the overhead."""
    deadline = time.monotonic() + RUN_LIMIT_S
    argv = ["--workload", workload, "--seed", str(seed), "--work-dir", str(work_dir)]
    argv += ["--seconds", str(seconds / 2)]
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    _, plain = run_worker(argv, deadline)
    _, traced = run_worker([*argv, "--spans", str(spans_path)], deadline)
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["problems"] += plain["problems"]
    if plain["fingerprint"] != traced["fingerprint"]:
        traced["problems"].append(
            f"tracing changed behaviour: {plain['fingerprint']} untraced, "
            f"{traced['fingerprint']} traced"
        )
    if plain["seconds"] and traced["seconds"]:
        metrics = {
            name: (value, _layer_unit(name))
            for name, value in traced["layers"].items()
        }
        metrics["trace.op_s"] = (_median_seconds(plain), "s")
        metrics["trace.overhead_s"] = (
            _median_seconds(traced) - _median_seconds(plain),
            "s",
        )
        metrics["src_lines"] = (src_lines(), "lines")
        traced["metrics"] = metrics
    print(f"spans: {spans_path}")
    return traced


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def report(workload: str, seed: int, result: dict) -> None:
    metrics = result.get("metrics", {})
    correct = bool(metrics) and result["failed"] == 0 and not result["problems"]
    print(
        f"{workload} seed {seed}: {result['attempted']} operations, "
        f"{result['failed']} failed, median {_median_seconds(result):.4f} "
        "host s"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:28} {value:.6g} {unit}")
    for name, value in result.get("host", {}).items():
        print(f"  host {name:28} {value:.6g}")
    fingerprint = result["fingerprint"] or {}
    print("  fingerprint " + " ".join(f"{k}={v}" for k, v in fingerprint.items()))
    if "src_lines" not in metrics:
        print(f"  src_lines {src_lines()}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(line), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "pressim" / "__init__.py").is_file():
        print(f"no pressim source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            run = measure_traced if args.trace else measure
            report(workload, args.seed, run(workload, args.seed, args.seconds, work_dir))
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
