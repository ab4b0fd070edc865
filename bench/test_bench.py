"""Smoke test of the benchmark at tiny sample counts.

Runs ``run.py`` on the two smoke workloads and checks that every declared
metric is printed with its unit, and that the traced counts satisfy
identities that hold exactly for the package's RQMC amplitude.
"""

import importlib
import json
import math
import os
import subprocess
import sys
from types import ModuleType, SimpleNamespace

import pytest

import worker
from psbar_xsec import states
from tracer import Tracer
from workloads import WORKLOADS, Z_MAX, check_rows, load_reference, workers_for_host

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
REPLICATES = 8  # scrambled Sobol replicates per amplitude call

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_shape(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_end_to_end_metrics_printed_with_units():
    result = _bench("smoke_tcs", 0)
    _check_shape(result, MANIFEST["end_to_end"])
    for m in MANIFEST["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0.0


@pytest.mark.parametrize("workload", ["smoke_sdcs", "smoke_tcs"])
def test_traced_counts_satisfy_identities(workload):
    result = _bench(workload, 1)
    _check_shape(result, MANIFEST["per_layer"])
    v = {name: m["value"] for name, m in result["metrics"].items()}

    # every distortion point takes exactly one 1F1 branch; asymptotic points
    # that miss tolerance are summed again by the double-double series
    branch_points = sum(v[f"specfun.hyp1f1.{b}.points"] for b in ("f64", "dd", "asym"))
    assert branch_points == v["specfun.distortion.points"] + v["specfun.hyp1f1.asym_fallback.points"]

    # 1024 samples -> 2^7 points per replicate
    assert v["amplitude.points"] == v["amplitude.calls"] * REPLICATES * 2**7
    assert v["amplitude.points"] == v["specfun.distortion.points"]
    assert v["xsec.amplitude_calls"] == v["amplitude.calls"] > 0
    assert v["specfun.hyp1f1.dd.terms"] > 0
    assert 2 * v["cli.rows"] == result["attempted"]
    # one grid point takes the serial path; otherwise the pool is capped
    # by the host's worker count
    assert v["cli.workers"] == (1 if workload == "smoke_tcs" else workers_for_host())


def _threshold(label):
    return states.threshold_ev(states.PsState.from_label(label))


def _reference_rows(name):
    ref = load_reference()[name]
    return [dict(ref[key], key=key) for key in WORKLOADS[name].row_keys()]


def test_check_accepts_reference_and_flags_bad_rows():
    wl = WORKLOADS["smoke_sdcs"]
    rows = _reference_rows("smoke_sdcs")
    assert all(v["ok"] for v in check_rows(wl, rows, load_reference(), _threshold))

    ok = [i for i, r in enumerate(rows) if r["status"] == "ok"]
    below = [i for i, r in enumerate(rows) if r["status"] == "below_threshold"]
    assert ok and below
    bad = [dict(r) for r in rows]
    # quoted error shrunk: the value sits 2 Z_MAX reference sigmas off
    r = bad[ok[0]]
    r["value"] += 2 * Z_MAX * r["std_err"]
    r["std_err"] = 1e-6 * r["std_err"]
    bad[ok[1]]["value"] = math.nan
    bad[below[0]]["status"] = "ok"
    verdicts = check_rows(wl, bad, load_reference(), _threshold)
    assert [i for i, v in enumerate(verdicts) if not v["ok"]] == sorted([ok[0], ok[1], below[0]])
    # a missing row fails it and every row after it
    verdicts = check_rows(wl, rows[1:], load_reference(), _threshold)
    assert not any(v["ok"] for v in verdicts)


def test_raising_sweep_counts_every_row_failed(tmp_path):
    def run(cfg):
        raise RuntimeError("grid point failed")

    cli = SimpleNamespace(RunConfig=lambda **kw: kw, run=run, emit=None)
    wl = WORKLOADS["smoke_sdcs"]
    rep = worker.run_once(cli, wl, 1, 1, str(tmp_path / "rows.csv"))
    assert "grid point failed" in rep["error"]
    verdicts = worker.judge(states, wl, rep, load_reference())
    assert len(verdicts) == len(wl.row_keys())
    assert not any(v["ok"] for v in verdicts)


def test_tracer_counts_fallback_and_restores():
    # no sweep here reaches the fallback, so drive the hooks directly
    mod = ModuleType("fake_specfun")

    def hyp(a, z):
        mod._asymptotic(a, z)
        return mod._taylor_dd(a, z[:2])

    mod.hyp, mod._asymptotic, mod._taylor_dd = hyp, lambda a, z: z, lambda a, z: z
    originals = dict(vars(mod))
    t = Tracer()
    t.wrap(mod, "hyp", "specfun.hyp1f1", lambda args: len(args[1]))
    t.wrap(mod, "_asymptotic", "specfun.hyp1f1.asym", lambda args: len(args[1]),
           before=t._mark_asym)
    t.wrap(mod, "_taylor_dd", "specfun.hyp1f1.dd", lambda args: len(args[1]),
           before=t._mark_fallback)
    mod.hyp(0j, [1, 2, 3])
    mod._taylor_dd(0j, [4])  # not after an asymptotic call: no fallback
    t.remove()

    assert t.counts["asym_fallback_points"] == 2
    totals = t.layer_totals()
    assert totals["specfun.hyp1f1.dd"]["calls"] == 2
    assert totals["specfun.hyp1f1.dd"]["points"] == 3
    outer = totals["specfun.hyp1f1"]
    assert 0.0 <= outer["self_s"] <= outer["s"]
    assert dict(vars(mod)) == originals


def test_tracer_refuses_missing_layer_function(monkeypatch):
    # a renamed layer function must fail the traced run, not read as zero
    spf = importlib.import_module("psbar_xsec.specfun")
    amp = importlib.import_module("psbar_xsec.amplitude")
    monkeypatch.delattr(spf, "_taylor_dd")
    before = dict(vars(amp))
    with pytest.raises(AttributeError, match="psbar_xsec.specfun._taylor_dd"):
        Tracer().install()
    assert dict(vars(amp)) == before
