"""Regenerate ``reference.json``: every workload row at many more samples.

Run from the repository root::

    python3 bench/make_reference.py [workload ...]

Each workload runs through ``psbar_xsec.cli.run`` at ``REF_SEED`` (a seed
the benchmark never passes) with ``REF_SCALE[name]`` times its sample count.
Named workloads replace their entries; the others are kept.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import replace

from workloads import (
    BENCH_DIR,
    REFERENCE_PATH,
    WORKLOADS,
    workers_for_host,
)

REF_SEED = 1_000_003
REF_SCALE = {"sdcs_50ev": 16, "tcs_10ev": 16, "sweep_small_n": 64,
             "smoke_sdcs": 64, "smoke_tcs": 64}


def _git_commit(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv) -> int:
    root = os.path.dirname(BENCH_DIR)
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy
    import scipy
    from psbar_xsec.cli import RunConfig, run

    names = argv or list(WORKLOADS)
    doc = {"workloads": {}}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    threads = workers_for_host()
    for name in names:
        wl = WORKLOADS[name]
        samples = wl.samples * REF_SCALE[name]
        cfg = RunConfig(**replace(wl, samples=samples).config_kwargs(REF_SEED, threads, "unused"))
        t0 = time.perf_counter()
        records = run(cfg)
        elapsed = time.perf_counter() - t0
        doc["workloads"][name] = {
            "seed": REF_SEED,
            "samples": samples,
            "threads": threads,
            "elapsed_s": round(elapsed, 1),
            "rows": [
                {
                    "key": [r.state.label, r.E_i, r.mu, r.theta_deg],
                    "value": r.value,
                    "std_err": r.std_err,
                    "status": r.status,
                }
                for r in records
            ],
        }
        print(f"{name}: {len(records)} rows at {samples} samples in {elapsed:.0f} s",
              flush=True)
    doc["command"] = "python3 bench/make_reference.py " + " ".join(names)
    doc["generated_with"] = {
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
