"""Configuration-driven sweep runner and CSV/JSON emitter.

Runs (state, energy, screening[, angle]) grids and writes one row per grid
point.  The unit of work is one (state, energy) group covering every mu
and angle, which share one sample cloud.  ``run`` spreads the work over
worker processes in one of three ways, chosen from the worker count
(``threads``, else ``PSBAR_THREADS``, where 0 or unset means every core),
the number of groups and the sample count:

* fewer groups than workers (a single-point run) and at least
  ``_SPLIT_MIN_SAMPLES`` samples: the groups run here one after another,
  and each amplitude call splits its ``REPLICATES`` replicates over a pool
  of up to that many workers;
* otherwise, one worker or one group: every group here, one after another;
* otherwise: one pool task per group, on up to one worker per group.

Groups below the formation threshold become explicit ``below_threshold``
rows; a group that fails becomes ``error`` rows (the message goes to
stderr) and the sweep goes on.  Results are bit-identical for a fixed seed
whatever the worker count and whichever way the work is spread: every
replicate of every group derives its random stream from the master seed,
the state, the energy and the replicate index, and rows are assembled in
grid order (state, energy, mu, angle).

The settings table ``_SETTINGS`` is the one list of config-file keys and
command-line flags; ``parse_config`` and ``build_parser`` are generated
from it and defaults live only in ``RunConfig``.  Config files are flat
``key = value`` text with ``#`` comments; values may be scalars, comma
lists (``0,0.05,0.1``) or inclusive ranges (``start:stop:count``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from .amplitude import _BLOCK, REPLICATES, IntegrationSpec
from .states import (
    BelowThresholdError,
    HARTREE_EV,
    PsState,
    ScreeningConfig,
    kinematics,
)
from .xsec import CrossSectionRecord, sdcs, tcs

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_config",
    "run",
    "emit",
    "read_records",
    "main",
    "CSV_HEADER",
]

CSV_HEADER = "state,E_i_eV,mu_au,theta_deg,value_au,std_err_au,status"

#: fewest samples at which amplitude calls split their replicates over a
#: pool: one full evaluation block per replicate.  Smaller calls finish
#: before the workers pay for themselves (a 1024-sample 1s TCS point takes
#: 0.05 s serial and 0.08 s on a pool of two).
_SPLIT_MIN_SAMPLES = REPLICATES * _BLOCK


class ConfigError(ValueError):
    """Malformed run configuration; message carries field/line context."""


def _parse_floats(text: str) -> List[float]:
    """Comma list ``a,b,c`` or inclusive range ``start:stop:count``."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ConfigError(f"range count must be >= 1, got {count}")
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count)]
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _parse_labels(text: str) -> List[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected one of {'/'.join(_BOOLS)}, got {text!r}") from None


@dataclass
class RunConfig:
    mode: str = "sdcs"
    states: List[str] = field(default_factory=lambda: ["1s"])
    energies: List[float] = field(default_factory=lambda: [10.0])
    mus: List[float] = field(default_factory=lambda: [0.0])
    # degrees; sdcs mode only
    angles: Optional[List[float]] = field(default_factory=lambda: _parse_floats("0:180:19"))
    samples: int = 1_000_000
    seed: int = 1
    n_theta: int = 16
    output: Optional[str] = None  # None: <mode>.<fmt>
    fmt: Optional[str] = None  # None: json for a .json output, else csv
    threads: Optional[int] = None
    eps_hplus_override_ev: Optional[float] = None  # electron affinity, eV
    gnuplot: bool = False
    m_resolved: bool = False

    def __post_init__(self):
        if self.fmt is None:
            json_out = self.output is not None and self.output.endswith(".json")
            self.fmt = "json" if json_out else "csv"
        if self.output is None:
            self.output = f"{self.mode}.{self.fmt}"

    def validate(self) -> "RunConfig":
        if self.mode not in ("sdcs", "tcs"):
            raise ConfigError(f"mode must be sdcs or tcs, got {self.mode!r}")
        if not self.states or not self.energies or not self.mus:
            raise ConfigError("states, energies and mus must be non-empty")
        for label in self.states:
            PsState.from_label(label)
        if not all(math.isfinite(e) and e > 0.0 for e in self.energies):
            raise ConfigError(f"energies must be finite and > 0, got {self.energies}")
        if not all(math.isfinite(mu) and mu >= 0.0 for mu in self.mus):
            raise ConfigError(f"mus must be finite and >= 0, got {self.mus}")
        if self.mode == "sdcs":
            if not self.angles:
                raise ConfigError("sdcs mode needs an angle grid")
            if min(self.angles) < 0.0 or max(self.angles) > 180.0:
                raise ConfigError("angles must lie within [0, 180] degrees")
        elif self.n_theta < 8:
            raise ConfigError(f"tcs mode needs n_theta >= 8, got {self.n_theta}")
        if self.samples < 1000:
            raise ConfigError(f"need at least 1000 samples, got {self.samples}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        if self.threads is not None and self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        return self


# One run setting: its RunConfig field, config-file keys, command-line flag
# (None: the subcommand), value parser, help text and the subcommands that
# take the flag.
_Setting = namedtuple("_Setting", "field keys flag parse help modes",
                      defaults=(("sdcs", "tcs"),))
_SETTINGS = (
    _Setting("mode", ("mode",), None, str.lower, "sdcs or tcs"),
    _Setting("states", ("states",), "--state", _parse_labels,
             "comma list: 1s,2s,2p,3s"),
    _Setting("energies", ("energies", "energies_ev"), "--energy-ev", _parse_floats,
             "incident energies in eV: list a,b,c or range start:stop:count"),
    _Setting("mus", ("mus",), "--mu", _parse_floats, "screening parameters, a.u."),
    _Setting("angles", ("angles", "angles_deg"), "--angles", _parse_floats,
             "degrees, range start:stop:count or list", ("sdcs",)),
    _Setting("samples", ("samples",), "--samples", int, "samples per amplitude"),
    _Setting("seed", ("seed",), "--seed", int, "master seed"),
    _Setting("n_theta", ("n_theta",), "--n-theta", int,
             "Gauss-Legendre order of the angular integral", ("tcs",)),
    _Setting("output", ("output",), "--out", str, "output path"),
    _Setting("fmt", ("format",), "--format", str.lower, "csv or json"),
    _Setting("threads", ("threads",), "--threads", int,
             "worker processes, >= 1 (default: PSBAR_THREADS, where 0 or "
             "unset means every core); each worker takes whole (state, "
             "energy) groups, or, with fewer groups than workers and at least "
             f"{_SPLIT_MIN_SAMPLES} samples, replicates of each amplitude"),
    _Setting("eps_hplus_override_ev", ("eps_hplus_override_ev",),
             "--eps-hplus-override", float,
             "electron affinity of the ion in eV (default 0.75)"),
    _Setting("gnuplot", ("gnuplot",), "--gnuplot", _parse_bool,
             "also emit a plot script"),
    _Setting("m_resolved", ("m_resolved",), "--m-resolved", _parse_bool,
             "report the labelled m substate instead of the m average"),
)
_SETTING_BY_KEY = {key: s for s in _SETTINGS for key in s.keys}


def parse_config(path: str) -> RunConfig:
    """Parse a flat key = value run configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        setting = _SETTING_BY_KEY.get(key)
        if setting is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[setting.field] = setting.parse(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return RunConfig(**values).validate()


# ---------------------------------------------------------------------------
# grid execution
# ---------------------------------------------------------------------------


def _eval_group(task, pool: Optional[Executor] = None) -> List[CrossSectionRecord]:
    """Worker entry: every row of one (state, energy).  Must stay top-level.

    All mus and angles of the group share one sample cloud per m substate,
    so the group is also the unit of failure: a group that fails becomes
    ``error`` rows and the sweep goes on.  ``pool`` runs the replicates of
    the group's amplitude calls.
    """
    cfg, label, energy = task
    state = PsState.from_label(label)
    eps_ev = cfg.eps_hplus_override_ev
    eps_hplus = None if eps_ev is None else -0.5 - eps_ev / HARTREE_EV
    spec = IntegrationSpec(samples=cfg.samples, seed=cfg.seed)
    screens = [ScreeningConfig(mu) for mu in cfg.mus]
    thetas = cfg.angles if cfg.mode == "sdcs" else [None]
    m_average = not cfg.m_resolved
    try:
        if cfg.mode == "tcs":
            return tcs(
                energy, state, screens, spec, n_theta=cfg.n_theta,
                m_average=m_average, eps_hplus_override=eps_hplus, pool=pool,
            )
        kin = kinematics(energy, state, eps_hplus_override=eps_hplus)
        recs = sdcs(kin, state, screens, spec, m_average,
                    thetas=[math.radians(t) for t in thetas], pool=pool)
        # carry the requested angles exactly (not the radian round-trip)
        return [replace(rec, theta_deg=theta)
                for rec, theta in zip(recs, thetas * len(screens))]
    except BelowThresholdError:
        status = "below_threshold"
    except Exception as exc:  # one failing group must not end the sweep
        print(
            f"error: grid points (state={label}, E_i={energy} eV) failed: "
            f"{type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        status = "error"
    return [
        CrossSectionRecord(
            state=state, E_i=energy, mu=mu, theta_deg=theta,
            value=None, std_err=None, status=status,
        )
        for mu in cfg.mus
        for theta in thetas
    ]


def _worker_count(threads: Optional[int]) -> int:
    """Worker processes of a run: ``threads``, else ``PSBAR_THREADS``.

    0 or unset means every core; a negative or non-integer
    ``PSBAR_THREADS`` is a :class:`ConfigError`.
    """
    if threads is not None:
        return threads
    text = os.environ.get("PSBAR_THREADS", "0")
    if not text.strip().isdecimal():
        raise ConfigError(f"PSBAR_THREADS must be an integer >= 0, got {text!r}")
    return int(text) or os.cpu_count() or 1


def run(cfg: RunConfig) -> List[CrossSectionRecord]:
    """Evaluate the whole grid; one record per point, in grid order.

    One task per (state, energy) covers every mu and angle.  With fewer
    such groups than workers and enough samples, the groups run here and
    each amplitude call splits its replicates over the pool instead (see
    the module docstring).  Rows come back in grid order (state, energy,
    mu, angle), the same bits for any worker count.
    """
    cfg.validate()
    workers = _worker_count(cfg.threads)
    tasks = [(cfg, label, energy) for label in cfg.states for energy in cfg.energies]
    if len(tasks) < workers and cfg.samples >= _SPLIT_MIN_SAMPLES:
        with ProcessPoolExecutor(max_workers=min(workers, REPLICATES)) as pool:
            groups = [_eval_group(t, pool) for t in tasks]
    elif workers <= 1 or len(tasks) == 1:
        groups = [_eval_group(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            groups = list(pool.map(_eval_group, tasks))
    return [rec for group in groups for rec in group]


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _row(r: CrossSectionRecord) -> tuple:
    """One output row in CSV_HEADER column order (the record's field order)."""
    return (r.state.label, r.E_i, r.mu, r.theta_deg, r.value, r.std_err, r.status)


def _fmt(x) -> str:
    if x is None:
        return ""
    return x if isinstance(x, str) else format(x, ".17e")


def emit(records: Sequence[CrossSectionRecord], path: str, fmt: str = "csv") -> str:
    """Write records to path; returns the path.  Empty input is an error."""
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        lines = [CSV_HEADER] + [",".join(map(_fmt, _row(r))) for r in records]
        payload = "\n".join(lines) + "\n"
    elif fmt == "json":
        columns = CSV_HEADER.split(",")
        payload = json.dumps(
            [dict(zip(columns, _row(r))) for r in records], indent=1
        ) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    return path


def read_records(path: str) -> List[CrossSectionRecord]:
    """Parse an emitted CSV back into records (round-trip helper)."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        for raw in fh:
            raw = raw.rstrip("\n")
            if not raw:
                continue
            label, *numbers, status = raw.split(",")
            records.append(
                CrossSectionRecord(
                    PsState.from_label(label),
                    *(float(x) if x else None for x in numbers),
                    status,
                )
            )
    return records


def _emit_gnuplot(cfg: RunConfig, records: Sequence[CrossSectionRecord]) -> str:
    """Ready-to-run plot script next to the data file."""
    script = cfg.output + ".plt"
    n_mu = len(cfg.mus)
    lines = [
        "set datafile separator ','",
        "set ylabel 'cross section (a.u.)'",
        "set logscale y",
        "set key outside",
    ]
    if cfg.mode == "sdcs":
        n_ang = len(cfg.angles)
        n_groups = len(records) // n_ang
        lines += [
            "set xlabel 'ejected electron angle (deg)'",
            f"plot for [i=0:{n_groups - 1}] '{cfg.output}' skip 1 "
            "using 4:5 every ::(i*%d)::(i*%d+%d) with linespoints "
            "title sprintf('group %%d', i+1)" % (n_ang, n_ang, n_ang - 1),
        ]
    else:
        lines += [
            "set xlabel 'incident energy (eV)'",
            f"plot for [j=0:{n_mu - 1}] '{cfg.output}' skip 1 "
            f"using 2:5 every {n_mu}::j with linespoints "
            "title sprintf('mu index %d', j)",
        ]
    with open(script, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return script


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _flag_type(parse):
    """argparse ``type`` for a setting parser that reports the parser's reason."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psbar-xsec",
        description="Ion-formation cross sections for Ps impact on "
        "ground-state antihydrogen in a Debye plasma.",
    )
    parser.add_argument("--config", default=None,
                        help="run configuration file (used in place of a subcommand)")
    sub = parser.add_subparsers(dest="mode")
    for mode, text in (("sdcs", "differential cross section vs angle"),
                       ("tcs", "total cross section")):
        # flags not given stay unset, so the defaults are RunConfig's
        p = sub.add_parser(mode, help=text, argument_default=argparse.SUPPRESS)
        for s in _SETTINGS:
            if s.flag is None or mode not in s.modes:
                continue
            if s.parse is _parse_bool:
                p.add_argument(s.flag, dest=s.field, action="store_true", help=s.help)
            else:
                p.add_argument(s.flag, dest=s.field, type=_flag_type(s.parse),
                              help=s.help)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    config = args.pop("config")
    try:
        if config is not None:
            cfg = parse_config(config)
        elif args["mode"] is not None:
            cfg = RunConfig(**args).validate()
        else:
            parser.print_help()
            return 2
        records = run(cfg)
        emit(records, cfg.output, cfg.fmt)
        print(f"wrote {len(records)} records to {cfg.output}")
        if cfg.gnuplot:
            print(f"wrote plot script {_emit_gnuplot(cfg, records)}")
        n_failed = sum(r.status == "error" for r in records)
        if n_failed:
            print(f"error: {n_failed} grid points failed", file=sys.stderr)
            return 1
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
