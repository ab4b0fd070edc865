"""Complex special functions for the Coulomb-distorted ejected electron.

The distorted continuum state of the ejected electron combines the
normalization e^{-pi alpha/2} Gamma(1 - i alpha) and the confluent
hypergeometric function 1F1(a; 1; z) with a on (or one unit off) the
imaginary axis and z on the imaginary axis.  The complex gamma comes from
scipy (``scipy.special.gamma`` and ``rgamma``); scipy's hyp1f1 only takes
real parameters, so the hypergeometric evaluation lives here.  The
eikonal phase is computed inline by ``amplitude._wave_factors``.

Evaluation strategy for 1F1(a; 1; z), calibrated against 40-digit mpmath
reference values:

* plain float64 Taylor series while the partial sums stay small enough
  that cancellation keeps ~8 significant digits (|z| below roughly
  19 - 1.6|a|);
* Taylor series in double-double arithmetic up to the asymptotic
  switchover (partial sums grow like e^|z|, so the 32-digit accumulator
  holds ~1e-12 accuracy through |z| ~ 60);
* the large-|z| asymptotic expansion (two gamma-prefactor terms, each
  series truncated at its smallest term) beyond |z| = max(30, 22+2.6|a|),
  with the smallest retained term as an error estimate; if the estimate
  misses tolerance the double-double series is used as a fallback.

The branches are verified only for |a| <= 8 (ejected electron above
~0.21 eV); beyond that the error grows quickly (1e-8 at |a| = 9, 1e-3 at
12), so larger |a| raises :class:`ConvergenceError` instead of returning
a wrong value.

The double-double band costs ~125 series terms of ~100 array operations
each, whatever the number of points.  The Coulomb distortion has one a per
(energy, state) and z on one ray, so it reads that band from a
:class:`_BandTable`: a piecewise-Chebyshev interpolant of the series over
the whole band, summed once on the first band point and then evaluated per
point by a Clenshaw recurrence.  The table lives on the
:class:`DistortionParams` instance, and so for one amplitude call, not in a
process-wide cache: every call that meets the band sums the series once,
and a call's cost does not depend on what ran before it in the process.
An amplitude call that spreads its replicates over worker processes fills
the table first (:meth:`DistortionParams.fill_band_table`); the
coefficients travel inside the pickled instance, so the workers only read
them.

All functions are pure apart from the table a :class:`DistortionParams`
fills on first use, which is a deterministic function of alpha1; callers
may evaluate from any number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gamma, rgamma

from . import _dd

__all__ = [
    "DistortionParams",
    "SpecialFunctionError",
    "ConvergenceError",
    "hyp1f1_b1",
    "coulomb_distortion",
    "EPS_GEOM",
]

#: integration points with r + z below this are on the negative polar axis
#: (measure zero) and are rejected rather than fed to the log.
EPS_GEOM = 1e-12

_HYP_TOL = 1e-9  # internal accuracy target, one digit under the 1e-8 contract
_A_MAX = 8.0  # largest |a| at which every 1F1 branch is verified
_DD_MAX_ABS_Z = 60.0
_TAYLOR_MAX_TERMS = 900
#: band-table panels: width in |z| and Chebyshev degree of each panel
_PANEL_WIDTH = 1.0
_PANEL_DEGREE = 24


class SpecialFunctionError(Exception):
    """Base class for special-function failures."""


class ConvergenceError(SpecialFunctionError):
    """No 1F1 branch meets the accuracy target at the requested arguments."""


@dataclass(frozen=True)
class DistortionParams:
    """Coulomb and eikonal coupling strengths of the ejected electron.

    The standard construction ties both couplings to the ejected momentum
    (alpha1 = eta1 = 1/k1); build through :meth:`for_momentum` to get that
    exactly.  Direct construction is permitted so tests can switch the
    distortion off (alpha1 = eta1 = 0 recovers the plane-wave Born limit).

    Each instance carries the :class:`_BandTable` of its 1F1, filled the
    first time one of its points falls in the double-double band (or by
    :meth:`fill_band_table`), so build one instance per amplitude call and
    pass it to every row block.  The table is part of the instance's
    pickled state: fill it before sending the instance to worker processes.
    """

    alpha1: float
    eta1: float
    k1: float

    @classmethod
    def for_momentum(cls, k1: float) -> "DistortionParams":
        if not k1 > 0.0:
            raise ValueError(f"ejected momentum must be positive, got {k1}")
        return cls(alpha1=1.0 / k1, eta1=1.0 / k1, k1=k1)

    @cached_property
    def band_table(self) -> "_BandTable":
        """Band table of 1F1(i alpha1; 1; i x), x >= 0 (empty until first used)."""
        return _BandTable(1j * self.alpha1)

    def fill_band_table(self) -> None:
        """Fill the band table now rather than on the first band point.

        A filled table is pickled with the instance, so a copy sent to a
        worker process reads it and sums no series.  Does nothing where
        the distortion never reads the table: alpha1 = 0, and |alpha1|
        above the verified range, where 1F1 raises instead.
        """
        if 0.0 < abs(self.alpha1) <= _A_MAX:
            self.band_table.fill()


# ---------------------------------------------------------------------------
# confluent hypergeometric function, second parameter fixed at 1
# ---------------------------------------------------------------------------


def _taylor_f64(a: complex, z: np.ndarray) -> np.ndarray:
    """Plain float64 Taylor sum of 1F1(a; 1; z); fine while |z| is small."""
    term = np.ones_like(z, dtype=np.complex128)
    total = term.copy()
    for k in range(_TAYLOR_MAX_TERMS):
        term = term * ((a + k) / ((k + 1.0) * (k + 1.0))) * z
        total += term
        if k > 3 and np.all(np.abs(term) <= 1e-17 * np.abs(total)):
            return total
    return total


def _dd_series(a: complex, z: np.ndarray) -> np.ndarray:
    """Taylor sum of 1F1(a; 1; z) in double-double arithmetic."""
    zr = np.ascontiguousarray(z.real)
    zi = np.ascontiguousarray(z.imag)
    zrl = np.zeros_like(zr)
    zil = np.zeros_like(zr)
    tr, trl = np.ones_like(zr), np.zeros_like(zr)
    ti, til = np.zeros_like(zr), np.zeros_like(zr)
    sr, srl = np.ones_like(zr), np.zeros_like(zr)
    si, sil = np.zeros_like(zr), np.zeros_like(zr)
    for k in range(_TAYLOR_MAX_TERMS):
        den = float((k + 1) * (k + 1))  # exact in float64 for all k used here
        # term *= (a + k)
        tr, trl, ti, til = _dd.cdd_mul(
            tr, trl, ti, til, a.real + k, 0.0, a.imag, 0.0
        )
        # term *= z
        tr, trl, ti, til = _dd.cdd_mul(tr, trl, ti, til, zr, zrl, zi, zil)
        # term /= (k+1)^2
        tr, trl = _dd.dd_div_exact(tr, trl, den)
        ti, til = _dd.dd_div_exact(ti, til, den)
        sr, srl = _dd.dd_add(sr, srl, tr, trl)
        si, sil = _dd.dd_add(si, sil, ti, til)
        if k > 3 and np.all(
            _dd.cdd_abs(tr, ti) <= 1e-26 * _dd.cdd_abs(sr, si)
        ):
            break
    return (sr + srl) + 1j * (si + sil)


class _BandTable:
    """Piecewise-Chebyshev table of the double-double band of 1F1(a; 1; z).

    Covers z = ray * t, with ``ray`` a unit complex number and t from
    ``_f64_band_edge(|a|)`` up to the first panel edge at or above
    ``_asymptotic_edge(|a|)``, in panels of width ``_PANEL_WIDTH`` in t.
    The first call (or :meth:`fill`) sums ``_dd_series`` once over the
    first-kind Chebyshev nodes of every panel; each call then evaluates
    its points by a Clenshaw recurrence, gathering one coefficient row per
    step so that memory stays linear in the number of points.
    """

    def __init__(self, a: complex, ray: complex = 1j):
        self.a = complex(a)
        self.ray = complex(ray)
        self.lo = _f64_band_edge(abs(self.a))
        width = _asymptotic_edge(abs(self.a)) - self.lo
        self.n_panels = math.ceil(width / _PANEL_WIDTH)
        self._coef = None  # (degree + 1, n_panels), filled on first use

    def fill(self) -> None:
        """Sum the series on the nodes, unless already done."""
        if self._coef is not None:
            return
        n = _PANEL_DEGREE + 1
        theta = math.pi * (np.arange(n) + 0.5) / n
        t = self.lo + _PANEL_WIDTH * (
            np.arange(self.n_panels)[:, None] + 0.5 * (np.cos(theta) + 1.0)
        )
        vals = _dd_series(self.a, self.ray * t.ravel()).reshape(t.shape)
        # discrete Chebyshev transform: c_j = (2/n) sum_k f(x_k) T_j(x_k)
        coef = (2.0 / n) * (np.cos(np.outer(np.arange(n), theta)) @ vals.T)
        coef[0] *= 0.5
        self._coef = coef

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """1F1(a; 1; z) at points z on the table's ray, inside the band."""
        self.fill()
        t = (np.abs(z) - self.lo) / _PANEL_WIDTH
        panel = np.clip(np.floor(t).astype(np.intp), 0, self.n_panels - 1)
        s2 = 4.0 * (t - panel) - 2.0  # twice the panel's local variable
        b1 = np.zeros(t.shape, dtype=np.complex128)
        b2 = np.zeros_like(b1)
        for c in self._coef[:0:-1]:
            b1, b2 = c[panel] + s2 * b1 - b2, b1
        return self._coef[0][panel] + 0.5 * s2 * b1 - b2


def _taylor_dd(
    a: complex, z: np.ndarray, table: "_BandTable | None" = None
) -> np.ndarray:
    """Double-double Taylor value of 1F1(a; 1; z) for the cancellation band.

    ``table``, a :class:`_BandTable` for this a with z on its ray, serves
    the points from the table; without it the series is summed here.
    """
    if table is not None:
        return table(z)
    return _dd_series(a, z)


def _asymptotic(a: complex, z: np.ndarray):
    """Large-|z| expansion of 1F1(a; 1; z).

    Returns (values, relative error estimate per point).  Both component
    series are divergent; each is truncated at its smallest term, which
    also bounds the truncation error.
    """
    sgn = np.where(z.imag >= 0.0, 1.0, -1.0)
    logz = np.log(z)
    pref1 = np.exp(1j * math.pi * a * sgn - a * logz) * rgamma(1.0 - a)
    pref2 = np.exp(z + (a - 1.0) * logz) * rgamma(a)

    def summed(c: complex, w: np.ndarray):
        term = np.ones_like(w, dtype=np.complex128)
        total = term.copy()
        frozen = np.zeros(w.shape, dtype=bool)
        err = np.full(w.shape, np.inf)
        prev_mag = np.abs(term)
        for k in range(200):
            term = term * ((c + k) * (c + k)) / ((k + 1.0) * w)
            mag = np.abs(term)
            # freeze points whose terms started growing (past the optimal
            # truncation) or that converged; the smallest term bounds the
            # local truncation error.
            growing = (mag >= prev_mag) & (k > 1) & ~frozen
            err[growing] = prev_mag[growing]
            frozen |= growing
            done = mag <= 1e-17 * np.abs(total)
            err[done & ~frozen] = mag[done & ~frozen]
            frozen |= done
            if np.all(frozen):
                break
            add = ~frozen
            total[add] += term[add]
            prev_mag = mag
        err[~frozen] = prev_mag[~frozen]
        return total, err

    s1, e1 = summed(a, -z)
    s2, e2 = summed(1.0 - a, z)
    vals = pref1 * s1 + pref2 * s2
    abs_err = np.abs(pref1) * e1 + np.abs(pref2) * e2
    rel_err = abs_err / np.maximum(np.abs(vals), 1e-300)
    return vals, rel_err


def _f64_band_edge(a_mag: float) -> float:
    """|z| below which the float64 Taylor sum keeps ~9 digits."""
    return max(6.0, 19.0 - 1.6 * a_mag)


def _asymptotic_edge(a_mag: float) -> float:
    """|z| above which the asymptotic expansion reaches 1e-9."""
    return max(30.0, 22.0 + 2.6 * a_mag)


def _hyp1f1_b1_many(
    a: complex, z: np.ndarray, table: "_BandTable | None" = None
) -> np.ndarray:
    """Vectorized 1F1(a; 1; z) over an array of z, fixed a.

    ``table`` (see :func:`_taylor_dd`) serves the double-double band.
    """
    a = complex(a)
    a_mag = abs(a)
    if a_mag > _A_MAX:
        raise ConvergenceError(
            f"1F1({a}; 1; z): |a| = {a_mag:.4g} is above {_A_MAX:g}, where "
            "no branch is verified (ejected electron too close to threshold)"
        )
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty(z.shape, dtype=np.complex128)
    az = np.abs(z)
    lo = _f64_band_edge(a_mag)
    hi = _asymptotic_edge(a_mag)

    small = az < lo
    mid = (az >= lo) & (az < hi)
    big = az >= hi

    if np.any(small):
        out[small] = _taylor_f64(a, z[small])
    if np.any(mid):
        out[mid] = _taylor_dd(a, z[mid], table)
    if np.any(big):
        vals, rel = _asymptotic(a, z[big])
        bad = rel > _HYP_TOL
        if np.any(bad):
            zb = z[big][bad]
            # beyond ~e^60 of cancellation even the double-double series is out
            rescue = np.abs(zb) <= _DD_MAX_ABS_Z
            if not np.all(rescue):
                worst = zb[~rescue][0]
                raise ConvergenceError(
                    f"1F1({a}; 1; z) did not converge at z = {worst}: "
                    "asymptotic error estimate above tolerance and |z| too "
                    "large for the double-double series"
                )
            vals[bad] = _taylor_dd(a, zb)
        out[big] = vals
    return out


def hyp1f1_b1(a: complex, z: complex) -> complex:
    """Confluent hypergeometric function 1F1(a; 1; z).

    Intended for a = +-i alpha, z = +-i x (x >= 0), the Coulomb
    distortion's form.  Verified against 40-digit mpmath to 1e-9 relative
    for |alpha| <= 8, x in [0, 1000], both signs, every branch.  Raises
    :class:`ConvergenceError` for |a| > 8 (an ejected electron below
    ~0.21 eV, where the branches lose accuracy: 1e-8 at |a| = 9, 1e-3 at
    12; see ROADMAP.md) and if no branch meets tolerance.
    """
    result = _hyp1f1_b1_many(complex(a), np.array([complex(z)]))[0]
    if not (math.isfinite(result.real) and math.isfinite(result.imag)):
        raise ConvergenceError(f"1F1({a}; 1; {z}) produced a non-finite value")
    return complex(result)


# ---------------------------------------------------------------------------
# Coulomb distortion
# ---------------------------------------------------------------------------


def _coulomb_norm(alpha1: float) -> complex:
    """exp(-pi alpha1/2) Gamma(1 - i alpha1): the continuum normalization."""
    return math.exp(-0.5 * math.pi * alpha1) * gamma(1.0 - 1j * alpha1)


def _coulomb_distortion_many(
    p: DistortionParams,
    r1: np.ndarray,
    k1_vec: np.ndarray,
) -> np.ndarray:
    """Vectorized normalization x hypergeometric over rows of r1 (N, 3)."""
    if p.alpha1 == 0.0:
        return np.ones(r1.shape[0], dtype=np.complex128)
    radii = np.sqrt(np.einsum("ij,ij->i", r1, r1))
    x = p.k1 * radii + r1 @ k1_vec
    vals = _hyp1f1_b1_many(1j * p.alpha1, 1j * x, p.band_table)
    return _coulomb_norm(p.alpha1) * vals


def coulomb_distortion(p: DistortionParams, r1, k1_vec) -> complex:
    """Coulomb distortion factor of the ejected electron at position r1.

    Returns exp(-pi alpha1/2) Gamma(1 - i alpha1)
    1F1[i alpha1; 1; i(k1 r1 + k1.r1)], the complex conjugate of the
    state's own factor: the form that enters the transition amplitude as
    part of the bra.  The plane-wave factor is not included.
    """
    r1 = np.asarray(r1, dtype=float).reshape(1, 3)
    k1_vec = np.asarray(k1_vec, dtype=float)
    k1 = float(np.linalg.norm(k1_vec))
    if p.alpha1 != 0.0 and not math.isclose(k1, p.k1, rel_tol=1e-12):
        raise ValueError(f"|k1_vec| = {k1} does not match params.k1 = {p.k1}")
    out = complex(_coulomb_distortion_many(p, r1, k1_vec)[0])
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise ConvergenceError("coulomb_distortion produced a non-finite value")
    return out
