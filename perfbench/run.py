"""The repository benchmark: three paper workloads, end to end and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload mc-pvt --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run and prints every per-layer metric
(0 where the workload does not exercise the layer).  The last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the reproducibility record (seeds, op count, host fingerprint).

Each workload runs in child processes (``child.py``) started in their own
process group, with a private temporary directory as ``HOME``/``TMPDIR``,
its own cache and artifact roots and no ``REPRO_CACHE_DIR``.  An untraced
run starts ``SETUPS`` children: all but the last stop after set-up, and
``setup_s`` is the median set-up time.  After each child the benchmark
verifies that no process of its group and no new ``/dev/shm`` segment
outlived it; a leak makes the run incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOAD_NAMES = ("mc-pvt", "dse-warm-gateway", "mc-cluster")
#: Set-up samples per untraced run; the median is reported as setup_s.
SETUPS = 3
#: Hard cap on one benchmark invocation.
DEADLINE_SECONDS = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _interrupt(signum: int, frame: Any) -> None:
    raise KeyboardInterrupt(f"signal {signum}")


def process_group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2 :].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def child_environment(tmp: pathlib.Path) -> Dict[str, str]:
    """Environment of a workload child: isolated from the user's cache and home."""
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    home = tmp / "home"
    home.mkdir(parents=True, exist_ok=True)
    env.update(HOME=str(home), TMPDIR=str(tmp), PYTHONPATH=str(ROOT / "src"))
    return env


def run_child(
    args: argparse.Namespace, mode: str, tmp: pathlib.Path, deadline: float, leaks: List[str]
) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Start one workload child; returns (set-up seconds, its result or None)."""
    tmp.mkdir(parents=True)
    command = [
        sys.executable, str(CHILD),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--tmp", str(tmp),
    ]
    if args.inject:
        command += ["--inject", args.inject]
    shm_before = shm_segments()
    started = time.perf_counter()
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        env=child_environment(tmp),
        cwd=ROOT,
        start_new_session=True,
    )
    lines: "queue.Queue[Optional[bytes]]" = queue.Queue()

    def pump() -> None:
        for line in process.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    setup_seconds: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"{args.workload} {mode} child exceeded the time budget")
            try:
                line = lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                break
            text = line.decode("utf-8", errors="replace").strip()
            if text == "READY" and setup_seconds is None:
                setup_seconds = time.perf_counter() - started
            elif text.startswith("{"):
                result = json.loads(text)
        process.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)  # the child tears its helpers down
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        survivors = process_group_members(process.pid)
        if survivors:
            leaks.append(f"processes {survivors} outlived the {mode} child")
            for pid in survivors:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if process.poll() is None:
            process.wait(timeout=10)
        reader.join(timeout=5)
        process.stdout.close()
        new_segments = shm_segments() - shm_before
        if new_segments:
            leaks.append(f"/dev/shm segments {sorted(new_segments)} outlived the {mode} child")
        # HOME points into tmp: anything here used the default cache root.
        if (tmp / "home" / ".cache" / "repro-optima").exists():
            leaks.append(f"the {mode} child wrote to the default cache root")
    if process.returncode != 0 or setup_seconds is None:
        raise BenchError(f"{args.workload} {mode} child exited with {process.returncode}")
    if mode != "setup" and result is None:
        raise BenchError(f"{args.workload} {mode} child printed no result")
    return setup_seconds, result


def git_commit() -> Optional[str]:
    """HEAD commit read from ``.git`` without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_fingerprint() -> Dict[str, Any]:
    from repro.runtime.jobs import code_version

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "code_version": code_version(),
    }


def end_to_end(result: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    latencies_ms = [1e3 * value for value in result["latencies"]]
    ok_ops = result["ops"] - result["failed"]
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": float(np.percentile(latencies_ms, 50)),
        "latency_p90_ms": float(np.percentile(latencies_ms, 90)),
        "samples_per_s": result["items_per_op"] * ok_ops / result["wall"],
        "success_rate": ok_ops / result["ops"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "fit_rms_mV": result["fit_rms_mv"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Fault injection for perfbench/selftest.py; the benchmark proper never sets it.
    parser.add_argument("--inject", choices=("corrupt-digest", "perturb-mc", "kill-serve"))
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _interrupt)

    deadline = time.monotonic() + DEADLINE_SECONDS
    tmp_root = ROOT / ".perfbench_tmp"
    tmp = tmp_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    leaks: List[str] = []
    try:
        if args.trace:
            _, result = run_child(args, "trace", tmp / "trace", deadline, leaks)
            values = result["layers"]
            wanted = spec["per_layer"]
        else:
            setups = []
            for index in range(SETUPS):
                mode = "measure" if index == SETUPS - 1 else "setup"
                seconds, result = run_child(args, mode, tmp / f"{mode}-{index}", deadline, leaks)
                setups.append(seconds)
            values = end_to_end(result, setups)
            wanted = spec["end_to_end"]
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    for leak in leaks:
        print(f"leak: {leak}", file=sys.stderr)

    metrics = {
        metric["name"]: {"value": float(values.get(metric["name"], 0.0)), "unit": metric["unit"]}
        for metric in wanted
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        # A claim tuned on --seed should be confirmed on this second seed.
        "holdout_seed": args.seed + 1_000_003,
        "ops": result["ops"],
        "trace": args.trace,
        "host": host_fingerprint(),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": bool(result["run_ok"] and result["failed"] == 0 and not leaks),
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
