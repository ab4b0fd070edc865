"""Outside-in layer trace of ``psbar_xsec``.

Wraps layer functions at the module attribute where their caller looks them
up, so the package itself is not modified.  Every wrapped call records a
span (name, start, end, parent) in memory; counts are kept beside the spans.
Per-layer times and work counts are derived from the spans afterwards.

Only meaningful in one process: spans opened in pool workers never return to
the parent, so traced sweeps must run with ``threads=1``.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List


def _n_rows(i: int) -> Callable:
    """Points function: length of positional argument i."""
    return lambda args: len(args[i])


class _TracedSobolModule:
    """Stands in for ``scipy.stats.qmc`` inside the amplitude module."""

    def __init__(self, tracer: "Tracer", qmc):
        self._tracer = tracer
        self._qmc = qmc

    def Sobol(self, *args, **kwargs):
        with self._tracer.span("amplitude.sobol"):
            engine = self._qmc.Sobol(*args, **kwargs)
        return _TracedSobolEngine(self._tracer, engine)


class _TracedSobolEngine:
    def __init__(self, tracer: "Tracer", engine):
        self._tracer = tracer
        self._engine = engine

    def random_base2(self, m):
        with self._tracer.span("amplitude.sobol"):
            return self._engine.random_base2(m)


class Tracer:
    """Span recorder plus the wrapping of psbar_xsec's layer functions."""

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.points: List[int] = []
        self.asym_parents: set = set()  # 1F1 spans that ran the asymptotic branch
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, points: int = 0):
        """Record one span, nested under the innermost open one."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.points.append(points)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        try:
            yield index
        finally:
            self.ends[index] = time.perf_counter_ns()
            self._stack.pop()

    # -- wrapping ---------------------------------------------------------

    def _patch(self, module, attr: str, make: Callable) -> None:
        if not hasattr(module, attr):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._restore.append((module, attr, original))

    def wrap(self, module, attr: str, name: str, points=None, before=None, after=None):
        """Record a span named ``name`` around ``module.attr``.

        ``points(args)`` gives the span's work count; ``before(args)`` runs
        inside the span before the call and ``after(result)`` after it.
        """

        def make(original):
            def traced(*args, **kwargs):
                with self.span(name, points(args) if points else 0):
                    if before is not None:
                        before(args)
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(result)
                    return result

            return traced

        self._patch(module, attr, make)

    def count_calls(self, module, attr: str, counter: str) -> None:
        def make(original):
            def counted(*args, **kwargs):
                self.counts[counter] += 1
                return original(*args, **kwargs)

            return counted

        self._patch(module, attr, make)

    def install(self) -> "Tracer":
        """Wrap every layer function; raises if any of them is missing.

        A missing name would otherwise read as a layer that takes no time
        and does no work, so a rename in the package must fail the run.
        """
        # the package re-exports functions under module names (the attribute
        # psbar_xsec.amplitude is the function), so take the modules directly
        mod = {n: importlib.import_module(f"psbar_xsec.{n}")
               for n in ("cli", "xsec", "amplitude", "specfun", "_dd")}
        cli, xsec, amp, spf = mod["cli"], mod["xsec"], mod["amplitude"], mod["specfun"]

        # xsec layer: cli calls sdcs/tcs/kinematics; tcs calls sdcs/kinematics
        for owner in (cli, xsec):
            self.wrap(owner, "sdcs", "xsec.sdcs")
            self.wrap(owner, "kinematics", "states.kinematics")
        self.wrap(cli, "tcs", "xsec.tcs")
        self.wrap(xsec, "amplitude", "amplitude")

        # amplitude layer: names the amplitude module binds itself
        self._patch(amp, "qmc", lambda qmc: _TracedSobolModule(self, qmc))
        self.wrap(amp, "_vectors_from_uniform_mix", "amplitude.sampling", _n_rows(0))
        self.wrap(amp, "_vectors_from_uniform", "amplitude.sampling", _n_rows(0))
        self.wrap(amp, "gammaincinv", "amplitude.radius_map", _n_rows(1))
        self.wrap(amp, "_integrand_6d", "amplitude.integrand", _n_rows(0),
                  after=self._count_zeros)
        self.wrap(amp, "_inner_r3_many", "amplitude.inner_r3", _n_rows(0))
        self.wrap(amp, "_ps_wavefunction_many", "states.ps_orbital", _n_rows(1))
        self.wrap(amp, "_coulomb_distortion_many", "specfun.distortion", _n_rows(1))

        # specfun layer: _hyp1f1_b1_many looks its branches up in specfun
        self.wrap(spf, "_hyp1f1_b1_many", "specfun.hyp1f1", _n_rows(1))
        self.wrap(spf, "_taylor_f64", "specfun.hyp1f1.f64", _n_rows(1))
        self.wrap(spf, "_asymptotic", "specfun.hyp1f1.asym", _n_rows(1),
                  before=self._mark_asym)
        self.wrap(spf, "_taylor_dd", "specfun.hyp1f1.dd", _n_rows(1),
                  before=self._mark_fallback)
        # two exact divisions per double-double series term
        self.count_calls(mod["_dd"], "dd_div_exact", "dd_div_exact")
        if self.missing:
            self.remove()
            raise AttributeError("tracer: layer functions not found: "
                                 + ", ".join(self.missing))
        return self

    def remove(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- hooks ------------------------------------------------------------

    def _count_zeros(self, vals) -> None:
        # samples that add nothing: rejected (invalid-geometry) points, which
        # the integrand zeroes, and points far out where the closed-form r3
        # integral cancels to exactly zero (the atom is neutral)
        self.counts["integrand_zero"] += int((vals == 0).sum())

    # both run inside a branch span, whose parent is the _hyp1f1_b1_many call

    def _mark_asym(self, args) -> None:
        self.asym_parents.add(self.parents[self._stack[-1]])

    def _mark_fallback(self, args) -> None:
        if self.parents[self._stack[-1]] in self.asym_parents:
            self.counts["asym_fallback_points"] += len(args[1])

    # -- summaries --------------------------------------------------------

    def layer_totals(self) -> Dict[str, dict]:
        """Per span name: calls, points, total and self time in seconds."""
        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        out: Dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "points": 0, "s": 0.0, "self_s": 0.0}
        )
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            row = out[name]
            row["calls"] += 1
            row["points"] += self.points[i]
            row["s"] += dur * 1e-9
            row["self_s"] += (dur - child_ns[i]) * 1e-9
        return out


def per_layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Layer metrics named as in BENCHMARK.json (trace-derived part)."""
    t = tracer.layer_totals()

    def get(name: str, field: str) -> float:
        return t[name][field] if name in t else 0

    m: Dict[str, float] = {}
    for key in ("s", "self_s", "points"):
        m[f"specfun.distortion.{key}"] = get("specfun.distortion", key)
    for branch in ("f64", "dd", "asym"):
        for key in ("s", "calls", "points"):
            m[f"specfun.hyp1f1.{branch}.{key}"] = get(f"specfun.hyp1f1.{branch}", key)
    m["specfun.hyp1f1.asym_fallback.points"] = tracer.counts["asym_fallback_points"]
    m["specfun.hyp1f1.dd.terms"] = tracer.counts["dd_div_exact"] // 2

    amp_s = get("amplitude", "s")
    amp_points = get("amplitude.integrand", "points")
    m["amplitude.s"] = amp_s
    m["amplitude.self_s"] = get("amplitude", "self_s")
    m["amplitude.calls"] = get("amplitude", "calls")
    m["amplitude.points"] = amp_points
    m["amplitude.points_per_s"] = amp_points / amp_s if amp_s > 0 else 0.0
    m["amplitude.sobol.s"] = get("amplitude.sobol", "s")
    m["amplitude.radius_map.s"] = get("amplitude.radius_map", "s")
    m["amplitude.radius_map.points"] = get("amplitude.radius_map", "points")
    m["amplitude.sampling.self_s"] = get("amplitude.sampling", "self_s")
    m["amplitude.inner_r3.s"] = get("amplitude.inner_r3", "s")
    m["amplitude.integrand.self_s"] = get("amplitude.integrand", "self_s")
    m["amplitude.integrand.zero_frac"] = (
        tracer.counts["integrand_zero"] / amp_points if amp_points else 0.0
    )
    m["states.ps_orbital.s"] = get("states.ps_orbital", "s")
    m["states.kinematics.calls"] = get("states.kinematics", "calls")
    m["xsec.sdcs.calls"] = get("xsec.sdcs", "calls")
    m["xsec.amplitude_calls"] = get("amplitude", "calls")
    m["xsec.self_s"] = get("xsec.sdcs", "self_s") + get("xsec.tcs", "self_s")
    return m
