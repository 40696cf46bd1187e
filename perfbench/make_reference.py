"""Regenerate ``reference.json``: the committed values the statistical checks use.

Run from the repository root after a change that is meant to move the
Monte-Carlo statistics (for example a declared random-stream change)::

    python3 perfbench/make_reference.py

The reference runs use seeds no workload seed stream produces, and many more
samples than one op, so the reference's own error is small next to an op's.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.analysis.pvt_sweeps import mismatch_monte_carlo  # noqa: E402
from repro.circuits.technology import tsmc65_like  # noqa: E402
from repro.core.calibration import calibrated_suite  # noqa: E402
from repro.core.dse import explore_design_space  # noqa: E402
from repro.core.pvt import monte_carlo_error_distribution  # noqa: E402

MC_PVT_SAMPLES = 16384
MC_CLUSTER_SAMPLES = 8000


def main() -> None:
    suite = calibrated_suite(tsmc65_like()).suite
    config = explore_design_space(suite).best_fom().config
    errors = monte_carlo_error_distribution(suite, config, samples=MC_PVT_SAMPLES, seed=777_001)
    panel = mismatch_monte_carlo(tsmc65_like(), samples=MC_CLUSTER_SAMPLES, seed=777_002)
    final = panel["final_voltages"]
    reference = {
        "mc-pvt": {
            "corner": config.name,
            "samples": MC_PVT_SAMPLES,
            "mean_error_lsb": float(np.mean(errors)),
            "sample_std_lsb": float(np.std(errors, ddof=1)),
        },
        "mc-cluster": {
            "samples": MC_CLUSTER_SAMPLES,
            "sigma_at_sampling_times_v": [float(s) for s in panel["sigma_at_sampling_times"]],
            "final_voltage_mean_v": float(np.mean(final)),
            "final_voltage_std_v": float(np.std(final, ddof=1)),
        },
    }
    path = pathlib.Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=2) + "\n")
    print(json.dumps(reference, indent=2))


if __name__ == "__main__":
    main()
