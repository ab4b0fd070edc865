import dataclasses
import importlib
import json
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import psbar_xsec.cli as cli
from psbar_xsec.cli import (
    CSV_HEADER,
    ConfigError,
    RunConfig,
    _parse_floats,
    build_parser,
    emit,
    main,
    parse_config,
    read_records,
    run,
)
from psbar_xsec.states import PsState, threshold_ev
from psbar_xsec.xsec import CrossSectionRecord

FAST = dict(samples=2048, seed=9, threads=1)
# the package re-exports the function under the module's name
amplitude_mod = importlib.import_module("psbar_xsec.amplitude")


def _cfg(**kw):
    base = dict(
        mode="sdcs", states=["1s"], energies=[10.0], mus=[0.0],
        angles=[30.0, 150.0], output="out.csv", **FAST,
    )
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_float_lists_and_ranges():
    assert _parse_floats("0,0.05,0.1") == [0.0, 0.05, 0.1]
    assert _parse_floats("0:180:19") == pytest.approx(list(np.linspace(0, 180, 19)))
    assert _parse_floats("8:50:22") == pytest.approx(list(np.linspace(8, 50, 22)))
    assert _parse_floats("5:5:1") == [5.0]
    with pytest.raises(ConfigError):
        _parse_floats("1:2")
    with pytest.raises(ConfigError):
        _parse_floats("1:2:0")


def test_config_file_round_trip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        """
        # demo sweep
        mode = tcs
        states = 1s, 2s
        energies = 8:50:22
        mus = 0, 0.05, 0.1
        samples = 20000
        seed = 7
        n_theta = 8
        output = sweep.csv
        format = csv
        m_resolved = true
        """
    )
    cfg = parse_config(str(p))
    assert cfg.mode == "tcs"
    assert cfg.states == ["1s", "2s"]
    assert len(cfg.energies) == 22
    assert cfg.mus == [0.0, 0.05, 0.1]
    assert cfg.n_theta == 8
    assert cfg.m_resolved is True


def test_config_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("mode = sdcs\nangles 0:180:19\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        parse_config(str(p))
    p.write_text("mode = sdcs\nnot_a_key = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(str(p))
    for bad in ("samples = many", "gnuplot = ture", "m_resolved = 2"):
        p.write_text(f"mode = sdcs\n{bad}\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2: bad value"):
            parse_config(str(p))


def test_config_validation(capsys, monkeypatch, tmp_path):
    with pytest.raises(ConfigError):
        _cfg(mode="other").validate()
    with pytest.raises(ConfigError):
        _cfg(states=[]).validate()
    with pytest.raises(ConfigError):
        _cfg(angles=[-10.0, 20.0]).validate()
    with pytest.raises(ConfigError):
        _cfg(angles=None).validate()
    with pytest.raises(ValueError):
        _cfg(states=["5g"]).validate()
    # budgets the estimators reject fail before any grid point runs
    with pytest.raises(ConfigError, match="samples"):
        _cfg(samples=10).validate()
    with pytest.raises(ConfigError, match="n_theta"):
        _cfg(mode="tcs", angles=None, n_theta=4).validate()
    # grid values the physics rejects also fail up front
    for energies in ([-3.0, 10.0], [0.0], [math.nan], [math.inf]):
        with pytest.raises(ConfigError, match="energies"):
            _cfg(energies=energies).validate()
    for mus in ([0.0, -0.1], [math.nan], [math.inf]):
        with pytest.raises(ConfigError, match="mus"):
            _cfg(mus=mus).validate()
    # a worker count below one used to run serial; PSBAR_THREADS=0 is the
    # way to ask for every core
    for threads in (0, -4):
        with pytest.raises(ConfigError, match="threads"):
            _cfg(threads=threads).validate()
    assert main(["sdcs", "--threads", "-4", "--out", "unused.csv"]) == 2
    assert "threads must be >= 1" in capsys.readouterr().err
    # the same holds for PSBAR_THREADS, which a negative value used to turn
    # into a silent serial run; it is refused before any group runs
    monkeypatch.setattr(cli, "_eval_group", lambda *a: pytest.fail("work started"))
    out = tmp_path / "unused.csv"
    for env in ("-4", "two", "1.5"):
        monkeypatch.setenv("PSBAR_THREADS", env)
        with pytest.raises(ConfigError, match="PSBAR_THREADS"):
            run(_cfg(threads=None))
        assert main(["sdcs", "--out", str(out)]) == 2
        assert "PSBAR_THREADS must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()
    # 0 or unset: every core
    monkeypatch.setenv("PSBAR_THREADS", "0")
    assert cli._worker_count(None) == (os.cpu_count() or 1)
    monkeypatch.delenv("PSBAR_THREADS")
    assert cli._worker_count(None) == (os.cpu_count() or 1)
    assert cli._worker_count(3) == 3


# ---------------------------------------------------------------------------
# grid runs
# ---------------------------------------------------------------------------


def test_grid_cardinality_single_point():
    recs = run(_cfg(angles=[60.0]))
    assert len(recs) == 1


def test_grid_cardinality_tcs_product():
    cfg = _cfg(mode="tcs", states=["3s", "1s"], energies=[20.0, 30.0, 40.0],
               mus=[0.0, 0.1], angles=None, n_theta=8)
    recs = run(cfg)
    assert len(recs) == 12
    # deterministic ordering: states outermost, mus innermost
    labels = [r.state.label for r in recs]
    assert labels == ["3s"] * 6 + ["1s"] * 6


def test_below_threshold_rows_not_skipped():
    # 0.08 eV above the 1s threshold the Coulomb coupling 1/k1 is ~13,
    # beyond the verified 1F1 range: those points are error rows
    near = threshold_ev(PsState(1, 0)) + 0.08
    recs = run(_cfg(energies=[5.0, 10.0, near]))
    assert len(recs) == 6
    below = [r for r in recs if r.E_i == 5.0]
    assert all(r.status == "below_threshold" for r in below)
    assert all(r.value is None and r.std_err is None for r in below)
    assert all(r.status == "ok" for r in recs if r.E_i == 10.0)
    assert [r.status for r in recs if r.E_i == near] == ["error", "error"]


def _recording_pools(monkeypatch):
    """List that gets the keyword arguments of every pool ``run`` opens."""
    pools = []
    real_pool = cli.ProcessPoolExecutor
    monkeypatch.setattr(cli, "ProcessPoolExecutor",
                        lambda **kw: pools.append(kw) or real_pool(**kw))
    return pools


def test_deterministic_across_worker_counts(tmp_path, monkeypatch):
    # every way of spreading the work gives the same bytes.  Two (state,
    # energy) groups take one worker each.  With fewer groups than workers
    # and at least _SPLIT_MIN_SAMPLES samples, each amplitude call splits
    # its replicates over the pool; below that a single group runs serial.
    pools = _recording_pools(monkeypatch)
    split = dict(samples=cli._SPLIT_MIN_SAMPLES)
    cases = [
        (_cfg(energies=[10.0, 20.0], angles=[30.0, 90.0, 150.0]), [(2, 2), (4, 2)]),
        (_cfg(energies=[10.0, 20.0], angles=[30.0], **split), [(4, 4)]),
        (_cfg(angles=[0.0, 30.0, 90.0], **split), [(2, 2)]),
        (_cfg(mode="tcs", angles=None, n_theta=8, **split), [(2, 2)]),
        (_cfg(states=["2p"], energies=[6.0], angles=[40.0], **split), [(2, 2)]),
        (_cfg(angles=[0.0, 30.0, 90.0]), [(2, None)]),
    ]
    for cfg, pooled in cases:
        serial = tmp_path / "serial.csv"
        emit(run(dataclasses.replace(cfg, threads=1)), str(serial))
        assert pools == []
        for threads, workers in pooled:
            out = tmp_path / f"t{threads}.csv"
            emit(run(dataclasses.replace(cfg, threads=threads)), str(out))
            assert pools == ([] if workers is None else [{"max_workers": workers}])
            pools.clear()
            assert out.read_bytes() == serial.read_bytes()


def test_row_independent_of_other_angles_and_mus():
    # a row reads the shared sample cloud at its own azimuth, so it is the
    # same bits whether swept alone or beside other angles and mus
    alone = run(_cfg(angles=[30.0]))
    within = run(_cfg(angles=[0.0, 30.0, 90.0], mus=[0.1, 0.0]))
    assert len(within) == 6
    assert within[4] == alone[0]


def test_seed_changes_values_not_structure(tmp_path):
    r1 = run(_cfg())
    r2 = run(dataclasses.replace(_cfg(), seed=10))
    assert len(r1) == len(r2)
    assert [r.status for r in r1] == [r.status for r in r2]
    assert any(a.value != b.value for a, b in zip(r1, r2))


# ---------------------------------------------------------------------------
# emit / read
# ---------------------------------------------------------------------------


def test_emit_empty_is_error(tmp_path):
    with pytest.raises(ValueError):
        emit([], str(tmp_path / "x.csv"))
    assert not (tmp_path / "x.csv").exists()


def test_csv_shape_and_round_trip(tmp_path):
    cfg = _cfg(angles=list(np.linspace(0.0, 180.0, 19)))
    recs = run(cfg)
    path = tmp_path / "s.csv"
    emit(recs, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 19
    assert read_records(str(path)) == recs


def test_json_emission_keys(tmp_path):
    recs = run(_cfg(energies=[5.0, 10.0], angles=[45.0]))
    path = tmp_path / "s.json"
    emit(recs, str(path), fmt="json")
    data = json.load(open(path))
    assert len(data) == 2
    assert set(data[0]) == {
        "state", "E_i_eV", "mu_au", "theta_deg", "value_au", "std_err_au", "status",
    }
    below = [d for d in data if d["E_i_eV"] == 5.0][0]
    assert below["status"] == "below_threshold"
    assert below["value_au"] is None


def test_tcs_rows_have_empty_theta(tmp_path):
    cfg = _cfg(mode="tcs", energies=[10.0], angles=None, n_theta=8)
    recs = run(cfg)
    path = tmp_path / "t.csv"
    emit(recs, str(path))
    row = path.read_text().splitlines()[1].split(",")
    assert row[3] == ""
    assert row[6] == "ok"


def test_full_precision_numbers_survive_round_trip(tmp_path):
    recs = run(_cfg(angles=[62.5]))
    path = tmp_path / "p.csv"
    emit(recs, str(path))
    back = read_records(str(path))
    assert back[0].value == recs[0].value  # bit-exact float round trip
    assert back[0].std_err == recs[0].std_err


# ---------------------------------------------------------------------------
# argument parser / main
# ---------------------------------------------------------------------------


def test_parser_sdcs_example():
    args = build_parser().parse_args(
        "sdcs --state 1s --energy-ev 10 --mu 0.05 --angles 0:180:19 "
        "--samples 1000000 --seed 42 --out sdcs.csv".split()
    )
    assert args.mode == "sdcs"
    assert args.samples == 1_000_000
    assert args.seed == 42


def test_main_runs_sweep_and_writes(tmp_path, monkeypatch, capsys):
    out = tmp_path / "cli.csv"
    rc = main(
        [
            "sdcs", "--state", "1s", "--energy-ev", "10", "--mu", "0",
            "--angles", "30,150", "--samples", "2048", "--seed", "3",
            "--threads", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    assert out.exists()
    assert "wrote 2 records" in capsys.readouterr().out


def test_main_gnuplot_script(tmp_path):
    out = tmp_path / "cli.csv"
    rc = main(
        [
            "sdcs", "--state", "1s", "--energy-ev", "10", "--mu", "0",
            "--angles", "30,150", "--samples", "2048", "--seed", "3",
            "--threads", "1", "--out", str(out), "--gnuplot",
        ]
    )
    assert rc == 0
    script = out.with_suffix(".csv.plt")
    assert script.exists()
    assert str(out) in script.read_text()


def _replicate_failing_in_worker(*args):
    # module level, so that the pool can pickle it by name
    where = "a worker" if multiprocessing.parent_process() else "the main process"
    raise FloatingPointError(f"injected failure in {where}")


def test_failing_point_becomes_error_row(tmp_path, monkeypatch, capsys):
    # the unit of work, and of failure, is one (state, energy) group
    real_sdcs = cli.sdcs

    def sdcs_failing_at_20ev(kin, *args, **kwargs):
        if kin.E_i == 20.0:
            raise FloatingPointError("injected failure")
        return real_sdcs(kin, *args, **kwargs)

    monkeypatch.setattr(cli, "sdcs", sdcs_failing_at_20ev)
    out = tmp_path / "e.csv"
    rc = main(
        [
            "sdcs", "--energy-ev", "10,20,30", "--angles", "30,150",
            "--samples", "2048", "--seed", "3", "--threads", "1", "--out", str(out),
        ]
    )
    assert rc == 1
    recs = read_records(str(out))
    assert [r.status for r in recs] == ["ok", "ok", "error", "error", "ok", "ok"]
    assert all(r.value is None and r.E_i == 20.0 for r in recs[2:4])
    assert [r.theta_deg for r in recs[2:4]] == [30.0, 150.0]
    err = capsys.readouterr().err
    assert "E_i=20.0 eV" in err and "injected failure" in err

    # one group on two workers: its replicates run in the pool, and a
    # replicate that fails there fails the group
    monkeypatch.setattr(amplitude_mod, "_replicate_sums", _replicate_failing_in_worker)
    rc = main(
        [
            "sdcs", "--energy-ev", "10", "--angles", "30,150",
            "--samples", str(cli._SPLIT_MIN_SAMPLES), "--seed", "3", "--threads", "2",
            "--out", str(out),
        ]
    )
    assert rc == 1
    recs = read_records(str(out))
    assert [r.status for r in recs] == ["error", "error"]
    err = capsys.readouterr().err
    assert "E_i=10.0 eV" in err and "injected failure in a worker" in err


def test_config_file_and_flags_agree(tmp_path, monkeypatch):
    seen = []
    rec = CrossSectionRecord(PsState.from_label("1s"), 10.0, 0.0, None, 1.0, 0.1)
    monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or [rec])
    monkeypatch.chdir(tmp_path)
    settings = [
        ("states", "--state", "1s,2p"), ("energies_ev", "--energy-ev", "8:20:3"),
        ("mus", "--mu", "0,0.1"), ("samples", "--samples", "4096"),
        ("seed", "--seed", "5"), ("threads", "--threads", "2"),
        ("eps_hplus_override_ev", "--eps-hplus-override", "0.7"),
    ]
    per_mode = {
        "sdcs": [("angles_deg", "--angles", "0:90:4")],
        "tcs": [("n_theta", "--n-theta", "8")],
    }
    for mode in ("sdcs", "tcs"):
        for out in ([], [("output", "--out", "x.json")]):
            given = settings + per_mode[mode] + out
            flags = [mode, "--gnuplot", "--m-resolved"]
            flags += [tok for _, flag, value in given for tok in (flag, value)]
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(
                f"mode = {mode}\ngnuplot = on\nm_resolved = yes\n"
                + "".join(f"{key} = {value}\n" for key, _, value in given)
            )
            assert main(flags) == 0
            assert main(["--config", str(cfg_file)]) == 0
            from_flags, from_file = seen[-2:]
            assert from_flags == from_file
            assert from_file.output == ("x.json" if out else f"{mode}.csv")
            assert from_file.fmt == ("json" if out else "csv")


def test_module_entry_point_has_no_runtime_warning():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "psbar_xsec.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout.lower()


def test_main_bad_config_returns_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode = nope\n")
    assert main(["--config", str(bad)]) == 2


def test_bad_flag_value_reports_parser_reason(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sdcs", "--energy-ev", "1:2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --energy-ev: range must be start:stop:count, got '1:2'" in err


def test_main_no_mode_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_env_threads_respected(tmp_path, monkeypatch):
    # two groups and PSBAR_THREADS=2: one pool of two workers, one group
    # each; on a host that reports one core, every core would be serial
    pools = _recording_pools(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setenv("PSBAR_THREADS", "2")
    recs = run(_cfg(energies=[10.0, 20.0], threads=None))
    assert len(recs) == 4
    assert pools == [{"max_workers": 2}]


def test_m_resolved_flag():
    cfg = _cfg(states=["2p"], energies=[6.0], angles=[40.0], m_resolved=True)
    recs = run(cfg)
    assert len(recs) == 1 and recs[0].status == "ok"
