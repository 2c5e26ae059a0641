"""One workload in one process: set up, then time operations for a while.

Started by ``perfbench/run.py``, which times set-up from process start to
the ``ready`` line this prints, and reads the ``result <json>`` line printed
at the end. With ``--spans PATH`` the run is traced: layer boundaries are
wrapped from outside (see ``spans.py``) and the spans are written to PATH.

With ``--sample-host`` the host's speed is sampled while each operation
runs (see ``calibrate.py``): the samples' time is taken out of the
operation's, and the host's slowness over each operation is reported, so
that ``run.py`` can take host drift out.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the source tree on the path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--sample-host", action="store_true")
    args = parser.parse_args()

    import pressim

    if not Path(pressim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"pressim imported from {pressim.__file__}, not this tree", file=sys.stderr)
        return 2

    recorder = None
    if args.spans is not None:
        import spans

        recorder = spans.Recorder()
        spans.instrument(recorder)

    def phase(op: int):
        return recorder.operation(op) if recorder else nullcontext()

    with phase(0):
        workload = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
    print("ready", flush=True)
    if args.setup_only:
        print("result {}", flush=True)
        return 0
    sampler = None
    if args.sample_host:
        import calibrate  # after set-up, so that set-up stays pressim's alone

        sampler = calibrate.HostSampler()

    attempted = failed = 0
    seconds, scales, episodes, ticks, problems = [], [], [], [], []
    reference = None
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < args.seconds:
        attempted += 1
        try:
            with phase(attempted), sampler or nullcontext():
                began = time.perf_counter()
                output = workload.operation()
            elapsed = time.perf_counter() - began - (sampler.spent if sampler else 0.0)
            outcome = workload.check(output)
        except Exception:
            failed += 1
            problems.append(f"operation {attempted} raised:\n{traceback.format_exc()}")
            continue
        if reference is None:
            reference = outcome.fingerprint
        if outcome.fingerprint != reference:
            outcome.problems.append(
                f"fingerprint {outcome.fingerprint} differs from the first {reference}"
            )
        if outcome.problems:
            failed += 1
            problems.extend(f"operation {attempted}: {p}" for p in outcome.problems)
            continue
        seconds.append(elapsed)
        if sampler:
            scales.append(sampler.scale())
        episodes.append(outcome.episodes)
        ticks.append(outcome.intersection_ticks)

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "seconds": seconds,
        "scales": scales,
        "episodes": episodes,
        "intersection_ticks": ticks,
        "fingerprint": reference,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if recorder is not None:
        result["layers"] = recorder.layer_metrics(attempted)
        recorder.write(args.spans)
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
