"""Benchmark entry point for psbar_xsec sweeps.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics
declared in BENCHMARK.json with tracing off: set-up time over fresh
processes, then the workload's ``cli.run`` + ``cli.emit`` repeated in one
fresh process until S seconds are measured.  Times are reported at a fixed
reference host speed (``PROBE_REF_S``), measured beside them.  ``--trace 1``
runs the workload untraced on the pool and then traced (in-process, one
worker) and reports the per-layer metrics; it does a fixed amount of work so its counts
repeat exactly.  Every output row is checked against ``reference.json``.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import BENCH_DIR, WORKLOADS, workers_for_host

ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
#: set-up samples per run: this many set-up-only processes plus the
#: measuring process's own set-up
SETUP_PROCESSES = 2
#: probe time (worker.probe_s) at the reference host speed; set-up and wall
#: times are reported as if the host ran at that speed
PROBE_REF_S = 0.035
#: every run must finish within this many seconds
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    """A worker process failed, timed out or printed no result."""


def call_worker(args, deadline: float) -> dict:
    """Run worker.py in a fresh process group; parse its last output line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before " + " ".join(args))
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], cwd=ROOT, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # the worker's pool processes share its group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"worker {' '.join(args)} timed out after {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(name: str, seed: int, seconds: float, deadline: float) -> dict:
    """Set-up and sweep times, each scaled to the reference host speed.

    Every timing is divided by a probe of the host's speed taken beside it
    (see ``worker.probe_s``) and multiplied by ``PROBE_REF_S``, so a host
    that slows down for minutes moves the probe, not the metric.  Set-up is
    probed right after it, in the same process; each sweep repetition by the
    mean of the probes before and after it.
    """
    setups = [call_worker(["setup"], deadline) for _ in range(SETUP_PROCESSES)]
    res = call_worker(["measure", name, str(seed), repr(seconds)], deadline)
    setup_s = [s["setup_s"] for s in setups] + [res["setup_s"]]
    setup_probe = [s["probe_s"] for s in setups] + [res["probes"][0]]
    probes = res["probes"]
    rep_probe = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
    attempted, failed = res["attempted"], res["failed"]
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(
                t * PROBE_REF_S / p for t, p in zip(setup_s, setup_probe)),
            "wall_norm_s": statistics.median(
                t * PROBE_REF_S / p for t, p in zip(res["walls"], rep_probe)),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,  # ru_maxrss is in KiB on Linux
            "ok_frac": (attempted - failed) / attempted,
        },
        # unscaled timings, for the record
        "detail": {"setup_s": setup_s, "setup_probe_s": setup_probe, "walls": res["walls"],
                   "cpus": res["cpus"], "probes": probes, "workers": workers_for_host()},
    }


def per_layer(name: str, seed: int, deadline: float) -> dict:
    res = call_worker(["trace", name, str(seed)], deadline)
    res["detail"] = {"workers": workers_for_host()}
    return res


def environment() -> dict:
    import numpy
    import scipy

    blas = {k: os.environ[k] for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "workers": workers_for_host(),
        "blas_threads_env": blas or "unset",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        manifest = load_manifest()
        if args.trace:
            res = per_layer(args.workload, args.seed, deadline)
            declared = manifest["per_layer"]
        else:
            res = end_to_end(args.workload, args.seed, args.seconds, deadline)
            declared = manifest["end_to_end"]
    except (OSError, ValueError, KeyError, WorkerError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    values = res["metrics"]
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        print(f"benchmark failed: metrics {sorted(values)} do not match the "
              f"declared {sorted(names)}", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": environment(), **res["detail"]}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
