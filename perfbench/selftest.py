"""Self-tests of the benchmark's checks: injected faults must count as failures.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py

Each case runs ``run.py`` with one injected fault and expects exit code 0, a
result line with ``correct: false`` and the stated number of failed ops:
never a pass, never a crash.  A clean case without a fault must pass, and
a loop cut short of 100 ops must not.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent

#: (workload, injected fault, --seconds, expected failed ops; None = at least one)
CASES = (
    ("mc-pvt", None, 4, 0),
    # One op loses bit-identity with the serial engine, the next is 5% off.
    ("mc-pvt", "perturb-mc", 4, 2),
    # The sampled op's merged voltages differ from the unsharded panel.
    ("mc-cluster", "perturb-mc", 4, 1),
    # One received corner table no longer hashes to the in-process digest.
    ("dse-warm-gateway", "corrupt-digest", 4, 1),
    # serve is SIGKILLed after op 5: every later op fails at the gateway.
    ("dse-warm-gateway", "kill-serve", 4, None),
    # The loop stops at 3 x 0.05 s, short of 100 ops: no op fails, but the
    # run must not pass with a p90 from too few samples.
    ("mc-pvt", None, 0.05, "short"),
)


def run_case(workload: str, inject: str, seconds: float, expected: object) -> str:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", str(seconds), "--trace", "0",
    ]
    if inject:
        command += ["--inject", inject]
    completed = subprocess.run(
        command, cwd=HERE.parent, capture_output=True, text=True, timeout=170
    )
    if completed.returncode != 0:
        return f"exit code {completed.returncode}: {completed.stderr[-1500:]}"
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    failed, correct = result["failed"], result["correct"]
    if expected == 0:
        return "" if correct and failed == 0 else f"clean run failed: {result}"
    if correct:
        return f"fault passed as correct: {result}"
    if expected == "short":
        return "" if result["attempted"] < 100 else f"loop was not short: {result}"
    if expected is not None and failed != expected:
        return f"expected {expected} failed ops, got {failed}"
    if expected is None and failed < 1:
        return f"expected failed ops, got {failed}"
    if result["metrics"]["success_rate"]["value"] >= 1.0:
        return "failures not reflected in success_rate"
    return ""


def main() -> int:
    problems = 0
    for workload, inject, seconds, expected in CASES:
        problem = run_case(workload, inject, seconds, expected)
        label = f"{workload} {inject or 'clean'} {seconds} s"
        print(f"{'FAIL' if problem else 'ok  '} {label} {problem}".rstrip(), flush=True)
        problems += bool(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
