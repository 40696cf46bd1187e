"""One workload process: set-up, a closed loop of timed ops, the checks.

``run.py`` starts this file once per set-up sample.  Protocol on stdout:
the line ``READY`` once set-up (including the first, untimed op) is done,
then, unless ``--mode setup``, one JSON line with the raw results.
``--mode measure`` times ops with nothing wrapped; ``--mode trace`` first
repeats that untraced loop for half the time (the base of
``trace.overhead_ratio``), then installs the layer wrappers for the rest.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import signal
import sys
import time
import traceback
from typing import Any, Dict, List

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import benchtrace  # noqa: E402
from workloads import WORKLOADS, Workload, peak_rss_kb  # noqa: E402

#: Fewest ops of a measured loop: p90 then has ten samples beyond it, and the
#: peak RSS is read right after this op, whatever the loop's throughput.
MIN_OPS = 100
#: Fewest ops of each half of a traced run.
MIN_TRACE_OPS = 20


def _interrupt(signum: int, frame: Any) -> None:
    raise KeyboardInterrupt(f"signal {signum}")


def timed_loop(
    workload: Workload, seconds: float, min_ops: int, first_index: int = 0, tracer: Any = None
) -> Dict[str, Any]:
    """Closed loop: the next op starts when the previous one has finished.

    Runs for ``seconds`` and at least ``min_ops`` ops, but never past three
    times ``seconds``; a loop cut short of ``min_ops`` marks the run
    incorrect.  ``rss_kb`` is the summed peak RSS right after op ``min_ops``
    (or at the end of a short loop), so it does not grow with the op count.
    """
    latencies: List[float] = []
    rss_kb = 0
    rows: List[Dict[str, float]] = []
    started = time.perf_counter()
    index = first_index
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= 3 * seconds or (elapsed >= seconds and len(latencies) >= min_ops):
            break
        op_started = time.perf_counter()
        latency = None
        try:
            if tracer is None:
                workload.op(index)
            else:
                latency, values = workload.traced_op(index, tracer)
                rows.append(values)
        except Exception:  # every failed op is counted, never fatal
            workload.failed_ops.add(index)
            print(f"[{workload.name}] op {index} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter() - op_started if latency is None else latency)
        index += 1
        if len(latencies) == min_ops:
            rss_kb = summed_peak_rss_kb(workload)
    wall = time.perf_counter() - started
    if len(latencies) < min_ops:
        workload.run_ok = False
        rss_kb = summed_peak_rss_kb(workload)
        print(
            f"[{workload.name}] only {len(latencies)} of {min_ops} ops in {wall:.1f} s: "
            "too few for p90, run marked incorrect",
            file=sys.stderr,
        )
    return {"latencies": latencies, "rows": rows, "wall": wall, "rss_kb": rss_kb}


def summed_peak_rss_kb(workload: Workload) -> int:
    """Peak RSS so far of this process plus the workload's helper processes."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return own_kb + sum(peak_rss_kb(pid) for pid in workload.helper_pids())


def layer_values(workload: Workload, untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer medians over the traced ops plus the accounting check."""
    rows = traced["rows"]
    values: Dict[str, float] = {}
    for name in sorted({key for row in rows for key in row}):
        values[name] = float(np.median([row.get(name, 0.0) for row in rows]))
    values.update(workload.trace_summary(len(rows)))
    traced_p50 = 1e3 * float(np.median(traced["latencies"]))
    untraced_p50 = 1e3 * float(np.median(untraced["latencies"]))
    accounted = sum(values.get(name, 0.0) for name in workload.self_layers)
    values["trace.p50_ms"] = traced_p50
    values["trace.overhead_ratio"] = traced_p50 / untraced_p50
    values["trace.unaccounted_ratio"] = abs(traced_p50 - accounted) / traced_p50
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--tmp", type=pathlib.Path, required=True)
    parser.add_argument("--inject", default=None)
    args = parser.parse_args()

    signal.signal(signal.SIGTERM, _interrupt)
    workload = WORKLOADS[args.workload](args.seed, args.tmp, args.inject)
    result: Dict[str, Any] = {}
    try:
        workload.setup()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "measure":
            loop = timed_loop(workload, args.seconds, MIN_OPS)
            workload.final_checks()
            result.update(
                latencies=loop["latencies"],
                wall=loop["wall"],
                ops=len(loop["latencies"]),
                failed=len(workload.failed_ops),
                run_ok=workload.run_ok,
                peak_rss_kb=loop["rss_kb"],
            )
        else:
            half = args.seconds / 2
            untraced = timed_loop(workload, half, MIN_TRACE_OPS)
            tracer = benchtrace.Tracer()
            workload.install_trace(tracer)
            try:
                traced = timed_loop(
                    workload, half, MIN_TRACE_OPS, first_index=len(untraced["latencies"]), tracer=tracer
                )
            finally:
                tracer.restore()
            workload.final_checks()
            ops = len(untraced["latencies"]) + len(traced["latencies"])
            result.update(
                layers=layer_values(workload, untraced, traced),
                ops=ops,
                failed=len(workload.failed_ops),
                run_ok=workload.run_ok,
            )
        result["fit_rms_mv"] = workload.fit_rms_mv
        result["items_per_op"] = workload.items_per_op
    finally:
        workload.teardown()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
