"""Recompute bench/avg_lp_reference.json, the reference means of avg_lp.

Each avg_lp config is run once with far more replications than a benchmark
run pools, from a seed outside the range the benchmark draws op seeds from.
Run from the repository root (takes several minutes on one core):

    python3 bench/make_reference.py
"""

import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from disclab import experiments  # noqa: E402

from workloads import LP_CONFIGS, LP_REFERENCE, lp_config  # noqa: E402

REFERENCE_SEED = 2 ** 62 + 1  # op seeds are drawn below 2^62
REFERENCE_REPS = {"p1.5_d2_N8_opt": 20_000}
DEFAULT_REPS = 40_000


def main() -> None:
    configs = {}
    for kind in LP_CONFIGS:
        reps = REFERENCE_REPS.get(kind, DEFAULT_REPS)
        cfg = lp_config(kind, REFERENCE_SEED, reps)
        t0 = time.perf_counter()
        rep = experiments.run_average_discrepancy(cfg)
        configs[kind] = {
            "mean_Lp_p": rep.mean_Lp_p,
            "sd_per_rep": rep.std_error * math.sqrt(reps),
            "replications": reps,
            "seed": REFERENCE_SEED,
        }
        print(f"{kind}: {configs[kind]} ({time.perf_counter() - t0:.0f} s)", flush=True)
    with open(LP_REFERENCE, "w") as fh:
        json.dump({"configs": configs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
