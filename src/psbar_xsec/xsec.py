"""Single-differential and total cross sections from transition amplitudes.

The single differential cross section is the flux ratio times the squared
amplitude, (k1/k_i) |T|^2.  |T|^2 is estimated without noise bias by
subtracting the amplitude's statistical variance from |T_hat|^2.  Over R
replicate estimates T_a that difference is exactly the cross-replicate
U-statistic Re sum_{a != b} T_a conj(T_b) / (R (R - 1)), so it is already
unbiased; an SDCS is still clamped at zero, because a cross section row
must not be negative.  Its quoted uncertainty is first order,
2 |T| sigma_T.

The total cross section integrates the SDCS over the ejected-electron
solid angle with Gauss-Legendre quadrature in cos(theta) times 2 pi
(azimuthal symmetry).  One amplitude call per m substate covers the
nodes of the full rule and of the half-order rule.  The nodes share
samples, so their errors are correlated: the statistical error is a
delete-one-replicate jackknife of the whole (unclamped) sum, and the
quadrature error is the difference between the full and the half-order
rule on the same samples.  The reported value is the unclamped sum,
clamped at zero only at the end.

For the 2p state the reported value averages the three magnetic
substates, (1/3) sum_m; per-m records are available with
``m_average=False``.  m = -1 is not sampled: T_-1 = -T_+1 (see
:func:`~psbar_xsec.amplitude.amplitude`), so it enters as a second copy
of m = +1 with a fully correlated error.

Only |T|^2 enters, so the phase convention of the amplitude (the
distortion enters the bra as its complex conjugate) does not affect any
result.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .amplitude import IntegrationSpec, amplitude
from .states import (
    Kinematics,
    PsState,
    ScreeningConfig,
    kinematics,
)

__all__ = ["CrossSectionRecord", "sdcs", "tcs", "angular_rule"]

Screens = Union[ScreeningConfig, Sequence[ScreeningConfig]]


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


def _tsq_debiased(reps: np.ndarray):
    """(T_hat, sigma_T, |T_hat|^2 - sigma_T^2) over the replicate axis 0.

    Sums run replicate by replicate, so each element's bits do not depend
    on the shape of the rest of the array (the other mus and angles).
    """
    r = len(reps)
    t = sum(reps) / r
    var = sum(np.abs(rep - t) ** 2 for rep in reps) / (r * (r - 1))
    return t, np.sqrt(var), np.abs(t) ** 2 - var


def _substates(state: PsState, m_average: bool) -> List[Tuple[PsState, float]]:
    """(sampled substate, weight) pairs of the reported |T|^2 average.

    The m average samples m >= 0 only; each m > 0 also stands for -m,
    whose amplitude has the same modulus, so it carries twice the weight.
    """
    if state.l > 0 and m_average:
        return [
            (PsState(state.n, state.l, m), (1.0 if m == 0 else 2.0) / (2 * state.l + 1))
            for m in range(state.l + 1)
        ]
    return [(state, 1.0)]


def _screen_list(screen: Screens) -> List[ScreeningConfig]:
    return [screen] if isinstance(screen, ScreeningConfig) else list(screen)


def sdcs(
    kin: Kinematics,
    state: PsState,
    screen: Screens,
    spec: IntegrationSpec,
    m_average: bool = True,
    thetas: Optional[Sequence[float]] = None,
    pool: Optional[Executor] = None,
) -> Union[CrossSectionRecord, List[CrossSectionRecord]]:
    """Single differential cross section (k1/k_i)|T|^2.

    With one ScreeningConfig and no ``thetas``, returns the record at
    ``kin.theta_e``.  Given a sequence of screenings and/or ``thetas``
    (radians), returns one record per (mu, theta), mu outermost, all from
    one amplitude call per m substate.  ``pool`` is handed to
    :func:`~psbar_xsec.amplitude.amplitude`, which runs the replicates on it.
    """
    screens = _screen_list(screen)
    angles = [kin.theta_e] if thetas is None else list(thetas)
    flux = kin.k1 / kin.k_i
    value = 0.0
    var = 0.0
    for sub, weight in _substates(state, m_average):
        reps = amplitude(kin, sub, [s.mu for s in screens], angles, spec, pool=pool)
        t, sigma, tsq = _tsq_debiased(reps)
        value = value + weight * np.maximum(0.0, tsq)
        var = var + (weight * 2.0 * np.abs(t) * sigma) ** 2
    value = flux * value
    err = flux * np.sqrt(var)
    records = [
        CrossSectionRecord(
            state=state,
            E_i=kin.E_i,
            mu=sc.mu,
            theta_deg=math.degrees(theta),
            value=float(value[i, j]),
            std_err=float(err[i, j]),
        )
        for i, sc in enumerate(screens)
        for j, theta in enumerate(angles)
    ]
    if isinstance(screen, ScreeningConfig) and thetas is None:
        return records[0]
    return records


def angular_rule(n_theta: int) -> Tuple[np.ndarray, np.ndarray]:
    """Polar angles and weights of the n_theta-point solid-angle rule.

    Gauss-Legendre in cos(theta) times 2 pi: sum_j w_j f(theta_j) is the
    integral of an azimuthally symmetric f over the full solid angle.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    return np.arccos(nodes), 2.0 * math.pi * weights


def tcs(
    E_i: float,
    state: PsState,
    screen: Screens,
    spec: IntegrationSpec,
    n_theta: int = 16,
    m_average: bool = True,
    eps_hplus_override: Optional[float] = None,
    pool: Optional[Executor] = None,
) -> Union[CrossSectionRecord, List[CrossSectionRecord]]:
    """Total cross section at incident energy E_i (eV).

    Evaluates the n_theta rule and an n_theta//2 rule on shared samples;
    the error combines the jackknife error of the full rule with the
    difference of the two.  With a sequence of screenings, returns one
    record per mu.  Raises :class:`BelowThresholdError` below threshold.
    ``pool`` is handed to :func:`~psbar_xsec.amplitude.amplitude`.
    """
    if n_theta < 8:
        raise ValueError(f"need n_theta >= 8, got {n_theta}")
    kin = kinematics(E_i, state, eps_hplus_override=eps_hplus_override)
    screens = _screen_list(screen)
    full_thetas, full_w = angular_rule(n_theta)
    half_thetas, half_w = angular_rule(n_theta // 2)
    thetas = np.concatenate([full_thetas, half_thetas])

    # debiased |T|^2 per (mu, node), on all replicates and leaving each out
    tsq = 0.0
    tsq_loo = 0.0
    for sub, weight in _substates(state, m_average):
        reps = amplitude(kin, sub, [s.mu for s in screens], thetas, spec, pool=pool)
        tsq = tsq + weight * _tsq_debiased(reps)[2]
        tsq_loo = tsq_loo + weight * np.stack(
            [_tsq_debiased(np.delete(reps, a, axis=0))[2] for a in range(len(reps))]
        )
    flux = kin.k1 / kin.k_i
    full = flux * np.sum(tsq[:, :n_theta] * full_w, axis=-1)
    half = flux * np.sum(tsq[:, n_theta:] * half_w, axis=-1)
    loo = flux * np.sum(tsq_loo[:, :, :n_theta] * full_w, axis=-1)
    r = len(loo)
    loo_mean = sum(loo) / r
    stat = np.sqrt((r - 1) / r * sum((x - loo_mean) ** 2 for x in loo))
    records = [
        CrossSectionRecord(
            state=state,
            E_i=E_i,
            mu=sc.mu,
            theta_deg=None,
            value=max(0.0, float(full[i])),
            std_err=math.hypot(float(stat[i]), abs(float(full[i] - half[i]))),
        )
        for i, sc in enumerate(screens)
    ]
    return records[0] if isinstance(screen, ScreeningConfig) else records
