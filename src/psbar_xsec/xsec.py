"""Single-differential and total cross sections from transition amplitudes.

The single differential cross section is the flux ratio times the squared
amplitude, (k1/k_i) |T|^2.  |T|^2 is estimated without noise bias by
subtracting the amplitude's statistical variance from |T_hat|^2 (clamped
at zero); the quoted uncertainty is first order, 2 |T| sigma_T.

The total cross section integrates the SDCS over the ejected-electron
solid angle with Gauss-Legendre quadrature in cos(theta) times 2 pi
(azimuthal symmetry).  Its error combines the statistical part with the
difference against a half-order quadrature of the same integrand.

For the 2p state the reported value averages the three magnetic
substates, (1/3) sum_m; per-m records are available with
``m_average=False``.

Only |T|^2 enters, so the phase convention of the amplitude (the
distortion enters the bra as its complex conjugate) does not affect any
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .amplitude import AmplitudeValue, IntegrationSpec, amplitude
from .states import (
    Kinematics,
    PsState,
    ScreeningConfig,
    kinematics,
)

__all__ = ["CrossSectionRecord", "sdcs", "tcs", "integrate_over_angles"]


@dataclass(frozen=True)
class CrossSectionRecord:
    """One (state, energy, screening[, angle]) cross-section result."""

    state: PsState
    E_i: float  # eV
    mu: float  # a.u.
    theta_deg: Optional[float]  # None for total cross sections
    value: Optional[float]  # a.u.; None for below-threshold rows
    std_err: Optional[float]
    status: str = "ok"

    def __post_init__(self):
        if self.status == "ok":
            if self.value is None or self.value < 0.0:
                raise ValueError(f"cross section must be >= 0, got {self.value}")
            if self.std_err is None or self.std_err < 0.0:
                raise ValueError(f"std_err must be >= 0, got {self.std_err}")


def _tsq_debiased(amp_val: AmplitudeValue):
    """Unbiased |T|^2 estimate and its first-order error."""
    tsq = abs(amp_val.t) ** 2
    tsq_unbiased = max(0.0, tsq - amp_val.std_err**2)
    sigma = 2.0 * abs(amp_val.t) * amp_val.std_err
    return tsq_unbiased, sigma


def _m_states(state: PsState, m_average: bool):
    if state.l > 0 and m_average:
        return [PsState(state.n, state.l, m) for m in range(-state.l, state.l + 1)]
    return [state]


def sdcs(
    kin: Kinematics,
    state: PsState,
    screen: ScreeningConfig,
    spec: IntegrationSpec,
    m_average: bool = True,
) -> CrossSectionRecord:
    """Single differential cross section (k1/k_i)|T|^2 at kin.theta_e."""
    flux = kin.k1 / kin.k_i
    members = _m_states(state, m_average)
    tsqs, sigmas = [], []
    for st in members:
        av = amplitude(kin, st, screen, spec)
        tsq, sig = _tsq_debiased(av)
        tsqs.append(tsq)
        sigmas.append(sig)
    n = len(members)
    value = flux * sum(tsqs) / n
    std_err = flux * math.sqrt(sum(s * s for s in sigmas)) / n
    return CrossSectionRecord(
        state=state,
        E_i=kin.E_i,
        mu=screen.mu,
        theta_deg=math.degrees(kin.theta_e),
        value=value,
        std_err=std_err,
    )


def integrate_over_angles(sdcs_at, n_theta: int):
    """2 pi Gauss-Legendre integral over cos(theta) of a differential value.

    ``sdcs_at(theta)`` must return (value, std_err); the returned pair is
    (integral, statistical error).  Replacing the integrand by a constant
    1 recovers the full solid angle 4 pi.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    total = 0.0
    stat2 = 0.0
    for x, w in zip(nodes, weights):
        value, err = sdcs_at(math.acos(x))
        total += w * value
        stat2 += (w * err) ** 2
    return 2.0 * math.pi * total, 2.0 * math.pi * math.sqrt(stat2)


def tcs(
    E_i: float,
    state: PsState,
    screen: ScreeningConfig,
    spec: IntegrationSpec,
    n_theta: int = 16,
    m_average: bool = True,
    eps_hplus_override: Optional[float] = None,
) -> CrossSectionRecord:
    """Total cross section at incident energy E_i (eV).

    Runs the full n_theta rule and an n_theta//2 rule; the difference of
    the two estimates enters the quoted error alongside the statistics of
    the full rule.  Raises :class:`BelowThresholdError` below threshold.
    """
    if n_theta < 8:
        raise ValueError(f"need n_theta >= 8, got {n_theta}")

    def sdcs_at(theta):
        kin = kinematics(
            E_i, state, theta_e=theta, eps_hplus_override=eps_hplus_override
        )
        rec = sdcs(kin, state, screen, spec, m_average)
        return rec.value, rec.std_err

    full, stat = integrate_over_angles(sdcs_at, n_theta)
    half, _ = integrate_over_angles(sdcs_at, n_theta // 2)
    quad_err = abs(full - half)
    return CrossSectionRecord(
        state=state,
        E_i=E_i,
        mu=screen.mu,
        theta_deg=None,
        value=max(0.0, full),
        std_err=math.hypot(stat, quad_err),
    )
