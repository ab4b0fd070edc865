"""Configuration-driven sweep runner and CSV/JSON emitter.

Runs (state, energy, screening[, angle]) grids in parallel worker
processes and writes one row per grid point.  Grid points below the
formation threshold become explicit ``below_threshold`` rows.  Results
are deterministic for a fixed seed regardless of the worker count: every
grid point derives its own random stream from the master seed and its
grid coordinates, and rows are assembled in grid order
(state, energy, mu, angle).

Config files are flat ``key = value`` text with ``#`` comments; values
may be scalars, comma lists (``0,0.05,0.1``) or inclusive ranges
(``start:stop:count``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from .amplitude import IntegrationSpec
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


class ConfigError(ValueError):
    """Malformed run configuration; message carries field/line context."""


@dataclass
class RunConfig:
    mode: str = "sdcs"
    states: List[str] = field(default_factory=lambda: ["1s"])
    energies: List[float] = field(default_factory=lambda: [10.0])
    mus: List[float] = field(default_factory=lambda: [0.0])
    angles: Optional[List[float]] = None  # degrees; sdcs mode only
    samples: int = 1_000_000
    seed: int = 1
    n_theta: int = 16
    output: str = "xsec.csv"
    fmt: str = "csv"
    threads: Optional[int] = None
    eps_hplus_override_ev: Optional[float] = None  # electron affinity, eV
    gnuplot: bool = False
    m_resolved: bool = False

    def validate(self) -> "RunConfig":
        if self.mode not in ("sdcs", "tcs"):
            raise ConfigError(f"mode must be sdcs or tcs, got {self.mode!r}")
        if not self.states or not self.energies or not self.mus:
            raise ConfigError("states, energies and mus must be non-empty")
        for label in self.states:
            PsState.from_label(label)
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
        return self


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


def parse_config(path: str) -> RunConfig:
    """Parse a flat key = value run configuration file."""
    cfg = RunConfig()
    try:
        lines = open(path, "r", encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        try:
            if key == "mode":
                cfg.mode = value.lower()
            elif key == "states":
                cfg.states = [tok.strip() for tok in value.split(",") if tok.strip()]
            elif key in ("energies", "energies_ev"):
                cfg.energies = _parse_floats(value)
            elif key == "mus":
                cfg.mus = _parse_floats(value)
            elif key in ("angles", "angles_deg"):
                cfg.angles = _parse_floats(value)
            elif key == "samples":
                cfg.samples = int(value)
            elif key == "seed":
                cfg.seed = int(value)
            elif key == "n_theta":
                cfg.n_theta = int(value)
            elif key == "output":
                cfg.output = value
            elif key == "format":
                cfg.fmt = value.lower()
            elif key == "threads":
                cfg.threads = int(value)
            elif key == "eps_hplus_override_ev":
                cfg.eps_hplus_override_ev = float(value)
            elif key in ("gnuplot", "m_resolved"):
                setattr(cfg, key, value.lower() in ("1", "true", "yes", "on"))
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return cfg.validate()


# ---------------------------------------------------------------------------
# grid execution
# ---------------------------------------------------------------------------


def _eps_hplus_au(cfg: RunConfig) -> Optional[float]:
    if cfg.eps_hplus_override_ev is None:
        return None
    return -0.5 - cfg.eps_hplus_override_ev / HARTREE_EV


def _eval_point(task) -> CrossSectionRecord:
    """Worker entry: one grid point.  Must stay top-level (pickling)."""
    (mode, label, energy, mu, theta_deg, samples, seed, n_theta,
     eps_hplus, m_resolved) = task
    state = PsState.from_label(label)
    screen = ScreeningConfig(mu)
    spec = IntegrationSpec(samples=samples, seed=seed)
    try:
        if mode == "sdcs":
            kin = kinematics(
                energy, state, theta_e=math.radians(theta_deg),
                eps_hplus_override=eps_hplus,
            )
            rec = sdcs(kin, state, screen, spec, m_average=not m_resolved)
            # carry the requested angle exactly (not the radian round-trip)
            return replace(rec, theta_deg=theta_deg)
        return tcs(
            energy, state, screen, spec, n_theta=n_theta,
            m_average=not m_resolved, eps_hplus_override=eps_hplus,
        )
    except BelowThresholdError:
        return CrossSectionRecord(
            state=state, E_i=energy, mu=mu,
            theta_deg=theta_deg if mode == "sdcs" else None,
            value=None, std_err=None, status="below_threshold",
        )
    except Exception as exc:
        raise RuntimeError(
            f"grid point (state={label}, E_i={energy} eV, mu={mu}"
            + (f", theta={theta_deg} deg" if mode == "sdcs" else "")
            + f") failed: {exc}"
        ) from exc


def _grid(cfg: RunConfig):
    eps_hplus = _eps_hplus_au(cfg)
    thetas = cfg.angles if cfg.mode == "sdcs" else [None]
    for label in cfg.states:
        for energy in cfg.energies:
            for mu in cfg.mus:
                for theta in thetas:
                    yield (
                        cfg.mode, label, energy, mu, theta, cfg.samples,
                        cfg.seed, cfg.n_theta, eps_hplus, cfg.m_resolved,
                    )


def run(cfg: RunConfig) -> List[CrossSectionRecord]:
    """Evaluate the whole grid; one record per point, in grid order."""
    cfg.validate()
    tasks = list(_grid(cfg))
    threads = cfg.threads
    if threads is None:
        threads = int(os.environ.get("PSBAR_THREADS", "0")) or os.cpu_count() or 1
    if threads <= 1 or len(tasks) == 1:
        return [_eval_point(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        return list(pool.map(_eval_point, tasks))


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else format(x, ".17e")


def emit(records: Sequence[CrossSectionRecord], path: str, fmt: str = "csv") -> str:
    """Write records to path; returns the path.  Empty input is an error."""
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in records:
            lines.append(
                ",".join(
                    (
                        r.state.label,
                        _fmt(r.E_i),
                        _fmt(r.mu),
                        _fmt(r.theta_deg),
                        _fmt(r.value),
                        _fmt(r.std_err),
                        r.status,
                    )
                )
            )
        payload = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = json.dumps(
            [
                {
                    "state": r.state.label,
                    "E_i_eV": r.E_i,
                    "mu_au": r.mu,
                    "theta_deg": r.theta_deg,
                    "value_au": r.value,
                    "std_err_au": r.std_err,
                    "status": r.status,
                }
                for r in records
            ],
            indent=1,
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
            parts = raw.split(",")
            label, e_i, mu, theta, value, err, status = parts
            records.append(
                CrossSectionRecord(
                    state=PsState.from_label(label),
                    E_i=float(e_i),
                    mu=float(mu),
                    theta_deg=float(theta) if theta else None,
                    value=float(value) if value else None,
                    std_err=float(err) if err else None,
                    status=status,
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


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--state", default="1s", help="comma list: 1s,2s,2p,3s")
    p.add_argument("--energy-ev", default="10", help="list a,b,c or range start:stop:count")
    p.add_argument("--mu", default="0", help="screening parameters, a.u.")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="output path")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--gnuplot", action="store_true", help="also emit a plot script")
    p.add_argument("--m-resolved", action="store_true",
                   help="report the labelled m substate instead of the m average")
    p.add_argument("--eps-hplus-override", type=float, default=None, metavar="EV",
                   help="electron affinity of the ion in eV (default 0.75)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psbar-xsec",
        description="Ion-formation cross sections for Ps impact on "
        "ground-state antihydrogen in a Debye plasma.",
    )
    parser.add_argument("--config", default=None, help="run configuration file")
    sub = parser.add_subparsers(dest="mode")
    p_sdcs = sub.add_parser("sdcs", help="differential cross section vs angle")
    _add_common(p_sdcs)
    p_sdcs.add_argument("--angles", default="0:180:19",
                        help="degrees, range start:stop:count or list")
    p_tcs = sub.add_parser("tcs", help="total cross section")
    _add_common(p_tcs)
    p_tcs.add_argument("--n-theta", type=int, default=16,
                       help="Gauss-Legendre order of the angular integral")
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(mode=args.mode)
    cfg.states = [tok.strip() for tok in args.state.split(",") if tok.strip()]
    cfg.energies = _parse_floats(args.energy_ev)
    cfg.mus = _parse_floats(args.mu)
    if args.mode == "sdcs":
        cfg.angles = _parse_floats(args.angles)
    else:
        cfg.n_theta = args.n_theta
    cfg.samples = args.samples
    cfg.seed = args.seed
    cfg.threads = args.threads
    cfg.gnuplot = args.gnuplot
    cfg.m_resolved = args.m_resolved
    cfg.eps_hplus_override_ev = args.eps_hplus_override
    if args.fmt is not None:
        cfg.fmt = args.fmt
    if args.out is not None:
        cfg.output = args.out
        if args.fmt is None and args.out.endswith(".json"):
            cfg.fmt = "json"
    else:
        cfg.output = f"{args.mode}.{cfg.fmt}"
    return cfg.validate()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            cfg = parse_config(args.config)
        elif args.mode is not None:
            cfg = _config_from_args(args)
        else:
            parser.print_help()
            return 2
        records = run(cfg)
        emit(records, cfg.output, cfg.fmt)
        print(f"wrote {len(records)} records to {cfg.output}")
        if cfg.gnuplot:
            print(f"wrote plot script {_emit_gnuplot(cfg, records)}")
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
