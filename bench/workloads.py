"""Benchmark workloads and the row check against the committed reference.

Each workload is one ``psbar_xsec.cli.RunConfig`` sweep.  The three were
chosen to load different layers:

* ``sdcs_50ev`` -- few rows, many samples per amplitude call: per-point cost
  of the large-|z| 1F1 branches (double-double series, asymptotic) dominates.
* ``tcs_10ev`` -- one total cross section: the angular quadrature (16 + 8
  SDCS nodes) on the serial path, with no process pool; low energy, so the
  radius map is a large share.
* ``sweep_small_n`` -- many rows, few samples per call: per-call set-up of the
  series loops, Sobol engines, the pool and the emitter dominate; includes 2p
  (three amplitude calls per row), two screening values sharing random
  numbers, and rows below the formation threshold.

This module imports nothing from ``psbar_xsec`` so the runner can use it
without importing the package under test.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

#: rows whose |z| against the reference exceeds this fail the check.  The
#: largest |z| seen from the seed code over ten seeds per workload is
#: recorded in RESULTS.md; quoted errors that shrink several-fold trip it.
Z_MAX = 6.0

RowKey = Tuple[str, float, float, Optional[float]]


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    states: Tuple[str, ...]
    energies: Tuple[float, ...]
    mus: Tuple[float, ...]
    angles: Optional[Tuple[float, ...]]
    samples: int
    n_theta: int = 16

    def config_kwargs(self, seed: int, threads: int, output: str) -> dict:
        """Keyword arguments for ``psbar_xsec.cli.RunConfig``."""
        return dict(
            mode=self.mode,
            states=list(self.states),
            energies=list(self.energies),
            mus=list(self.mus),
            angles=None if self.angles is None else list(self.angles),
            samples=self.samples,
            seed=seed,
            n_theta=self.n_theta,
            output=output,
            fmt="csv",
            threads=threads,
        )

    def row_keys(self) -> List[RowKey]:
        """Expected rows in the sweep's grid order (state, energy, mu, angle)."""
        thetas = self.angles if self.mode == "sdcs" else (None,)
        return [
            (s, e, m, t)
            for s in self.states
            for e in self.energies
            for m in self.mus
            for t in thetas
        ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sdcs_50ev",
            mode="sdcs",
            states=("1s",),
            energies=(50.0,),
            mus=(0.1,),
            angles=(0.0, 30.0, 60.0, 90.0, 120.0, 150.0),
            samples=1 << 18,
        ),
        Workload(
            name="tcs_10ev",
            mode="tcs",
            states=("1s",),
            energies=(10.0,),
            mus=(0.0,),
            angles=None,
            samples=1 << 16,
            n_theta=16,
        ),
        Workload(
            name="sweep_small_n",
            mode="sdcs",
            states=("1s", "2p"),
            energies=(5.0, 8.0, 20.0),
            mus=(0.0, 0.1),
            angles=(0.0, 40.0, 80.0, 120.0, 160.0),
            samples=1 << 13,
        ),
        # tiny grids for the smoke test (test_bench.py), not listed in BENCHMARK.json
        Workload(
            name="smoke_sdcs",
            mode="sdcs",
            states=("1s", "2p"),
            energies=(5.0, 50.0),
            mus=(0.0, 0.1),
            angles=(30.0,),
            samples=1024,
        ),
        Workload(
            name="smoke_tcs",
            mode="tcs",
            states=("1s",),
            energies=(10.0,),
            mus=(0.0,),
            angles=None,
            samples=1024,
            n_theta=8,
        ),
    )
}


def workers_for_host() -> int:
    """Pool size: at most two workers, fewer on a one-core host."""
    return min(2, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# reference values and the row check
# ---------------------------------------------------------------------------


def load_reference() -> Dict[str, Dict[RowKey, dict]]:
    """Committed reference rows, keyed by workload name then row key."""
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        name: {tuple(r["key"]): r for r in entry["rows"]}
        for name, entry in doc["workloads"].items()
    }


def read_emitted_csv(path: str) -> List[dict]:
    """Rows of an emitted CSV, by column name (extra columns are ignored)."""
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            theta = rec["theta_deg"]
            value = rec["value_au"]
            err = rec["std_err_au"]
            out.append(
                {
                    "key": (
                        rec["state"],
                        float(rec["E_i_eV"]),
                        float(rec["mu_au"]),
                        float(theta) if theta else None,
                    ),
                    "value": float(value) if value else None,
                    "std_err": float(err) if err else None,
                    "status": rec["status"],
                }
            )
    return out


def check_rows(workload: Workload, rows: List[dict], reference, threshold_ev) -> List[dict]:
    """Judge every expected row; one verdict per expected row, grid order.

    A row passes when it is present in grid order, carries the status the
    formation threshold predicts (``threshold_ev(label)`` in eV), and, for
    ``ok`` rows, has a finite non-negative value and error whose z-score
    against the reference, (value - ref) / sqrt(err^2 + err_ref^2), stays
    within ``Z_MAX``.  Verdicts carry z and err/ref for the metrics.
    """
    expected = workload.row_keys()
    ref_rows = reference[workload.name]
    verdicts = []
    for i, key in enumerate(expected):
        got = rows[i] if i < len(rows) else None
        verdict = {"key": key, "ok": False, "status": None, "z": None, "ratio": None}
        verdicts.append(verdict)
        if got is None or got["key"] != key:
            verdict["reason"] = "missing or out of order"
            continue
        verdict["status"] = got["status"]
        want_status = "below_threshold" if key[1] <= threshold_ev(key[0]) else "ok"
        if got["status"] != want_status:
            verdict["reason"] = f"status {got['status']!r}, expected {want_status!r}"
            continue
        if want_status != "ok":
            verdict["ok"] = True
            continue
        value, err = got["value"], got["std_err"]
        if not (
            value is not None and err is not None
            and math.isfinite(value) and math.isfinite(err)
            and value >= 0.0 and err >= 0.0
        ):
            verdict["reason"] = f"invalid value/std_err {value!r}/{err!r}"
            continue
        ref = ref_rows[key]
        scale = math.hypot(err, ref["std_err"])
        z = (value - ref["value"]) / scale if scale > 0.0 else math.inf
        verdict["z"] = z
        # a reference clamped to zero leaves the row out of rel_err
        verdict["ratio"] = err / ref["value"] if ref["value"] > 0.0 else None
        if abs(z) > Z_MAX:
            verdict["reason"] = f"|z| = {abs(z):.2f} above {Z_MAX}"
            continue
        verdict["ok"] = True
    if len(rows) > len(expected):
        verdicts.append(
            {"key": None, "ok": False, "status": None, "z": None, "ratio": None,
             "reason": "extra rows"}
        )
    return verdicts


def rel_err(verdicts: List[dict]) -> Optional[float]:
    """Geometric mean of std_err / reference value over passing ok rows."""
    logs = [
        math.log(v["ratio"])
        for v in verdicts
        if v["ok"] and v["ratio"] is not None and v["ratio"] > 0.0
    ]
    if not logs:
        return None
    return math.exp(sum(logs) / len(logs))
