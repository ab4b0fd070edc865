"""Fresh-process side of the benchmark; ``run.py`` starts one per task.

    python3 bench/worker.py setup
    python3 bench/worker.py measure WORKLOAD SEED SECONDS
    python3 bench/worker.py trace WORKLOAD SEED

Prints one JSON object as its last line of standard output.  Sweeps use
``workers_for_host()`` pool workers.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

from workloads import (
    BENCH_DIR,
    WORKLOADS,
    check_rows,
    load_reference,
    read_emitted_csv,
    rel_err,
    workers_for_host,
)

ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
#: series loops per probe timing, and timings per probe (median taken):
#: about 1 s in all, long enough to see the host's current speed through
#: its second-to-second jitter
PROBE_LOOPS = 100
PROBE_REPEATS = 25


def probe_s() -> float:
    """Time of a fixed numpy/Python loop: the host's current speed.

    The loop has the shape of the package's hot path (a power series over
    complex arrays, one numpy call per term) but runs none of its code, so
    no change to the package moves it.  Median of ``PROBE_REPEATS`` timings.
    """
    z = np.linspace(0.5, 2.0, 1024) * (0.3 + 1.0j)
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        for _ in range(PROBE_LOOPS):
            term = np.ones_like(z)
            total = term.copy()
            for k in range(1, 40):
                term = term * z / k
                total += term
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_and_warm():
    """Import the package and make one tiny call; returns (cli, states, seconds).

    This is the set-up a user pays on every command-line run: the scipy and
    numpy imports plus lazy set-up on the first Sobol draw and 1F1 call.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import psbar_xsec.cli as cli
    import psbar_xsec.states as states

    if not cli.__file__.startswith(os.path.join(ROOT, "src", "")):
        raise ImportError(f"psbar_xsec imported from {cli.__file__}, not this checkout")
    cfg = cli.RunConfig(
        mode="sdcs", states=["1s"], energies=[10.0], mus=[0.0], angles=[30.0],
        samples=1024, seed=1, threads=1,
    )
    cli.run(cfg)
    return cli, states, time.perf_counter() - t0


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_once(cli, workload, seed: int, threads: int, path: str) -> dict:
    """One timed ``cli.run`` + ``cli.emit``; a raising sweep is recorded."""
    cfg = cli.RunConfig(**workload.config_kwargs(seed, threads, path))
    if os.path.exists(path):
        os.remove(path)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    error = None
    try:
        cli.emit(cli.run(cfg), path, "csv")
    except Exception:  # one bad grid point aborts the whole sweep today
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "cpu_s": _cpu_s() - cpu0, "error": error, "path": path}


def judge(states, workload, rep: dict, reference) -> list:
    """Verdicts for every expected row; all fail if the sweep raised."""
    rows = [] if rep["error"] else read_emitted_csv(rep["path"])
    return check_rows(workload, rows, reference, lambda label: states.threshold_ev(
        states.PsState.from_label(label)))


def _failed(verdicts) -> int:
    return sum(1 for v in verdicts if not v["ok"])


def cmd_setup() -> dict:
    *_, setup_s = import_and_warm()
    return {"setup_s": setup_s, "probe_s": probe_s()}


def cmd_measure(name: str, seed: int, seconds: float) -> dict:
    """Repeat the workload until ``seconds`` of it have been measured.

    A probe timing is taken before the first repetition and after every
    one, so each repetition lies between two probes of the host's speed.
    """
    cli, states, setup_s = import_and_warm()
    workload = WORKLOADS[name]
    reference = load_reference()
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}.csv")
    probes = [probe_s()]
    walls, cpus, attempted, failed = [], [], 0, 0
    while not walls or sum(walls) < seconds:
        rep = run_once(cli, workload, seed, workers_for_host(), path)
        probes.append(probe_s())
        verdicts = judge(states, workload, rep, reference)
        walls.append(rep["wall_s"])
        cpus.append(rep["cpu_s"])
        attempted += len(verdicts)
        failed += _failed(verdicts)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": setup_s,
        "walls": walls,
        "cpus": cpus,
        "probes": probes,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_kb": max(own, kids),
    }


@contextmanager
def recording_pool_sizes(cli):
    """Yield a list that gets the size of every pool ``cli.run`` opens."""
    sizes = []
    real = cli.ProcessPoolExecutor

    def recording(*args, **kwargs):
        pool = real(*args, **kwargs)
        sizes.append(pool._max_workers)
        return pool

    cli.ProcessPoolExecutor = recording
    try:
        yield sizes
    finally:
        cli.ProcessPoolExecutor = real


def cmd_trace(name: str, seed: int) -> dict:
    """One untraced pooled sweep, then the same sweep traced on one worker.

    Counts depend only on (workload, seed), so two traced runs agree on them
    exactly.  The rows of both sweeps must be identical, as the package
    promises for any worker count.  Tracing overhead compares the traced
    wall time with the CPU time of the untraced sweep, which is what that
    sweep takes on one worker.
    """
    from tracer import Tracer, per_layer_metrics

    cli, states, _ = import_and_warm()
    workload = WORKLOADS[name]
    reference = load_reference()
    os.makedirs(OUT_DIR, exist_ok=True)

    with recording_pool_sizes(cli) as pool_sizes:
        pooled = run_once(cli, workload, seed, workers_for_host(),
                          os.path.join(OUT_DIR, f"{name}.pool.csv"))
    # the serial path (one grid point, or one worker) opens no pool
    workers = max(pool_sizes, default=1)
    tracer = Tracer().install()
    try:
        traced = run_once(cli, workload, seed, 1, os.path.join(OUT_DIR, f"{name}.traced.csv"))
    finally:
        tracer.remove()

    pooled_verdicts = judge(states, workload, pooled, reference)
    traced_verdicts = judge(states, workload, traced, reference)
    attempted = len(pooled_verdicts) + len(traced_verdicts)
    failed = _failed(pooled_verdicts) + _failed(traced_verdicts)
    rows = 0
    if not pooled["error"] and not traced["error"]:
        rows = len(read_emitted_csv(pooled["path"]))
        with open(pooled["path"], "rb") as a, open(traced["path"], "rb") as b:
            if a.read() != b.read():
                print("rows of the pooled and the traced sweep differ", file=sys.stderr)
                failed = attempted

    zs = [v["z"] for v in traced_verdicts if v["z"] is not None]
    err = rel_err(traced_verdicts)
    metrics = per_layer_metrics(tracer)
    metrics.update({
        "xsec.z_rms": math.sqrt(sum(z * z for z in zs) / len(zs)) if zs else 0.0,
        "xsec.rel_err": err if err is not None else 0.0,
        "xsec.s_to_1pct": pooled["wall_s"] * (err / 0.01) ** 2 if err is not None else 0.0,
        "cli.rows": rows,
        "cli.rows_below_threshold": sum(
            1 for v in traced_verdicts if v["status"] == "below_threshold"),
        "cli.workers": workers,
        "cli.wall_s": pooled["wall_s"],
        "cli.pool_util": pooled["cpu_s"] / (workers * pooled["wall_s"]),
        "trace.overhead": traced["wall_s"] / pooled["cpu_s"] - 1.0,
    })
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv) -> int:
    cmd, args = argv[0], argv[1:]
    if cmd == "setup":
        out = cmd_setup()
    elif cmd == "measure":
        out = cmd_measure(args[0], int(args[1]), float(args[2]))
    elif cmd == "trace":
        out = cmd_trace(args[0], int(args[1]))
    else:
        print(f"unknown command {cmd!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
