"""Bound states, binding energies, screening and collision kinematics.

Everything internal is in Hartree atomic units; the only eV quantity is
the incident positronium kinetic energy (and the optional electron
affinity override), converted at 27.2114 eV/hartree.

Model choices baked in here:

* infinite antiproton mass: initial-channel reduced mass 2 (the Ps mass),
  final-channel reduced mass 1 (electron against a heavy ion);
* bound states stay unscreened hydrogenic/Chandrasekhar orbitals; the
  plasma screening enters only through the channel perturbation;
* the default ion binding uses the 0.75 eV electron affinity on top of
  the 13.6 eV ground-state binding; the Chandrasekhar variational value
  (affinity 0.362 eV) can be selected through the override argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "HARTREE_EV",
    "PS_BOHR",
    "EPS_HBAR_DEFAULT",
    "AFFINITY_EV_DEFAULT",
    "eps_hplus_default",
    "PsState",
    "ScreeningConfig",
    "ChandrasekharParams",
    "Kinematics",
    "BelowThresholdError",
    "QuadratureConvergenceError",
    "ps_energy",
    "ps_wavefunction",
    "hbar_wavefunction",
    "hplus_wavefunction",
    "hplus_variational_energy",
    "kinematics",
    "threshold_ev",
]

HARTREE_EV = 27.2114
PS_BOHR = 2.0  # positronium Bohr radius (reduced mass 1/2)

EPS_HBAR_DEFAULT = -0.5
AFFINITY_EV_DEFAULT = 0.75

_ALLOWED_NL = {(1, 0), (2, 0), (2, 1), (3, 0)}
_LABELS = {(1, 0): "1s", (2, 0): "2s", (2, 1): "2p", (3, 0): "3s"}


def eps_hplus_default() -> float:
    """Ion binding: ground-state binding plus the 0.75 eV affinity (a.u.)."""
    return EPS_HBAR_DEFAULT - AFFINITY_EV_DEFAULT / HARTREE_EV


class BelowThresholdError(ValueError):
    """Collision energy below the ion-formation threshold."""


class QuadratureConvergenceError(RuntimeError):
    """Radial quadrature failed to converge under refinement."""


@dataclass(frozen=True)
class PsState:
    """Positronium quantum labels (n, l, m)."""

    n: int
    l: int
    m: int = 0

    def __post_init__(self):
        if (self.n, self.l) not in _ALLOWED_NL:
            raise ValueError(
                f"unsupported positronium state (n={self.n}, l={self.l}); "
                f"supported: 1s, 2s, 2p, 3s"
            )
        if abs(self.m) > self.l:
            raise ValueError(f"|m| = {abs(self.m)} exceeds l = {self.l}")

    @property
    def label(self) -> str:
        return _LABELS[(self.n, self.l)]

    @classmethod
    def from_label(cls, label: str) -> "PsState":
        key = label.strip().lower()
        for nl, name in _LABELS.items():
            if name == key:
                return cls(n=nl[0], l=nl[1], m=0)
        raise ValueError(f"unknown state label {label!r}; expected 1s/2s/2p/3s")


@dataclass(frozen=True)
class ScreeningConfig:
    """Debye screening parameter mu (inverse Bohr radii); mu = 0 is vacuum."""

    mu: float = 0.0

    def __post_init__(self):
        if self.mu < 0.0 or not math.isfinite(self.mu):
            raise ValueError(f"screening parameter must be finite and >= 0, got {self.mu}")

    @property
    def screening_length(self) -> float:
        return math.inf if self.mu == 0.0 else 1.0 / self.mu


@dataclass(frozen=True)
class ChandrasekharParams:
    """Open-shell two-exponent variational ground state of the positive ion."""

    norm: float = 0.3948
    alpha: float = 1.03925
    beta: float = 0.28309


@dataclass(frozen=True)
class Kinematics:
    """One collision configuration, all momenta/energies in a.u.

    E_i is kept in eV as given by the caller; k1 (ejected electron
    momentum) follows from energy conservation, see :func:`kinematics`.
    """

    E_i: float  # incident Ps kinetic energy, eV
    k_i: float  # incident momentum, a.u.
    k1: float  # ejected electron momentum, a.u.
    theta_e: float  # ejection polar angle, radians
    mu_i: float
    mu_f: float


def ps_energy(state: PsState) -> float:
    """Positronium binding energy, -1/(4 n^2) a.u."""
    return -1.0 / (4.0 * state.n * state.n)


def _ps_radial(state: PsState, rho: np.ndarray) -> np.ndarray:
    """Radial factor R_nl(rho) of the Ps orbital, Bohr radius PS_BOHR."""
    a = PS_BOHR
    s = rho / a
    pref = a ** -1.5
    if (state.n, state.l) == (1, 0):
        return 2.0 * pref * np.exp(-s)
    if (state.n, state.l) == (2, 0):
        return pref / (2.0 * math.sqrt(2.0)) * (2.0 - s) * np.exp(-0.5 * s)
    if (state.n, state.l) == (2, 1):
        return pref / (2.0 * math.sqrt(6.0)) * s * np.exp(-0.5 * s)
    # (3, 0)
    return (
        2.0
        * pref
        / (3.0 * math.sqrt(3.0))
        * (1.0 - 2.0 * s / 3.0 + 2.0 * s * s / 27.0)
        * np.exp(-s / 3.0)
    )


def _ps_wavefunction_many(state: PsState, rho_vec: np.ndarray) -> np.ndarray:
    """Orbital values for an (N, 3) array of relative coordinates."""
    rho = np.sqrt(np.einsum("ij,ij->i", rho_vec, rho_vec))
    radial = _ps_radial(state, rho)
    if state.l == 0:
        return radial / math.sqrt(4.0 * math.pi) + 0.0j
    # l = 1 spherical harmonics in the global frame
    safe = np.where(rho > 0.0, rho, 1.0)
    cos_t = np.where(rho > 0.0, rho_vec[:, 2] / safe, 0.0)
    if state.m == 0:
        ylm = math.sqrt(3.0 / (4.0 * math.pi)) * cos_t + 0.0j
    else:
        sin_t_eiphi = (rho_vec[:, 0] + 1j * rho_vec[:, 1]) / safe
        if state.m == 1:
            ylm = -math.sqrt(3.0 / (8.0 * math.pi)) * sin_t_eiphi
        else:
            ylm = math.sqrt(3.0 / (8.0 * math.pi)) * np.conj(sin_t_eiphi)
        ylm = np.where(rho > 0.0, ylm, 0.0)
    return radial * ylm


def ps_wavefunction(state: PsState, rho) -> complex:
    """Positronium orbital at relative coordinate rho (3-vector, a.u.)."""
    rho = np.asarray(rho, dtype=float).reshape(1, 3)
    return complex(_ps_wavefunction_many(state, rho)[0])


def _hbar_radial(r: np.ndarray) -> np.ndarray:
    return np.exp(-r) / math.sqrt(math.pi)


def hbar_wavefunction(r3) -> float:
    """Ground-state orbital of the heavy atom, (1/sqrt(pi)) e^{-r}."""
    r3 = np.asarray(r3, dtype=float)
    return float(_hbar_radial(np.linalg.norm(r3) if r3.shape else r3))


def hplus_wavefunction(p: ChandrasekharParams, r2, r3):
    """Symmetric two-exponent ion ground state; radial arguments in a.u."""
    r2 = np.asarray(r2, dtype=float)
    r3 = np.asarray(r3, dtype=float)
    if np.any(r2 < 0.0) or np.any(r3 < 0.0):
        raise ValueError("radial distances must be non-negative")
    val = (p.norm / (4.0 * math.pi)) * (
        np.exp(-p.alpha * r2 - p.beta * r3) + np.exp(-p.beta * r2 - p.alpha * r3)
    )
    return float(val) if val.ndim == 0 else val


# ---------------------------------------------------------------------------
# variational energy of the two-positron ion (consistency oracle)
# ---------------------------------------------------------------------------


def _radial_grid(n_per_panel: int):
    """Composite Gauss-Legendre grid on [0, 160] a.u. with geometric panels."""
    edges = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0, 160.0]
    x, w = np.polynomial.legendre.leggauss(n_per_panel)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _hplus_energy_on_grid(p: ChandrasekharParams, n_per_panel: int) -> float:
    a, b = p.alpha, p.beta
    r, w = _radial_grid(n_per_panel)

    def rad(c, power=2):
        return np.sum(w * np.exp(-c * r) * r**power)

    i_aa, i_bb, i_ab = rad(2 * a), rad(2 * b), rad(a + b)
    overlap = 2.0 * (i_aa * i_bb + i_ab**2)

    # kinetic: lap e^{-cr} = (c^2 - 2c/r) e^{-cr}
    def kin(c1, c2):
        return -0.5 * (c2**2 * rad(c1 + c2, 2) - 2.0 * c2 * rad(c1 + c2, 1))

    t_tot = 2.0 * (kin(a, a) * i_bb + kin(b, b) * i_aa + 2.0 * kin(a, b) * i_ab)

    # nuclear attraction of both light particles to the unit central charge
    v_ne = -2.0 * (rad(2 * a, 1) * i_bb + rad(2 * b, 1) * i_aa + 2.0 * rad(a + b, 1) * i_ab)

    # mutual repulsion: s-type densities leave only the monopole 1/r_> term
    xg, wg = np.polynomial.legendre.leggauss(n_per_panel)

    def panel_quad(c3, lo, hi, power):
        """int_lo^hi e^{-c3 t} t^power dt with panels sized to the decay."""
        edges = [lo]
        for u in (0.5, 1.5, 4.0, 10.0, 22.0, 46.0):
            v = lo + u / c3
            if v < hi:
                edges.append(v)
        edges.append(hi)
        total = 0.0
        for a_, b_ in zip(edges[:-1], edges[1:]):
            t = 0.5 * (b_ - a_) * xg + 0.5 * (a_ + b_)
            total += 0.5 * (b_ - a_) * np.sum(wg * np.exp(-c3 * t) * t**power)
        return total

    def pair_repulsion(c2, c3):
        total = 0.0
        for r2v, w2 in zip(r, w):
            inner = panel_quad(c3, 0.0, r2v, 2) / r2v + panel_quad(c3, r2v, 160.0, 1)
            total += w2 * math.exp(-c2 * r2v) * r2v**2 * inner
        return total

    v_ee = 2.0 * (pair_repulsion(2 * a, 2 * b) + pair_repulsion(a + b, a + b))

    return (t_tot + v_ne + v_ee) / overlap


def hplus_variational_energy(p: ChandrasekharParams = ChandrasekharParams()) -> float:
    """Energy expectation of the two-positron ion wavefunction, a.u.

    Evaluates <H>/<overlap> for the unscreened two-light-particle
    Hamiltonian with a unit central charge by radial quadrature (the
    mutual repulsion keeps only its monopole term for s-type densities).
    Acts as an independent consistency check on the tabulated orbital
    parameters; the defaults give about -0.5133 a.u.
    """
    coarse = _hplus_energy_on_grid(p, 24)
    fine = _hplus_energy_on_grid(p, 40)
    if abs(fine - coarse) > 1e-7 * max(1.0, abs(fine)):
        raise QuadratureConvergenceError(
            f"ion energy quadrature not converged: {coarse} vs {fine}"
        )
    return fine


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------


def kinematics(
    E_i: float,
    state: PsState,
    theta_e: float = 0.0,
    eps_hplus_override: Optional[float] = None,
) -> Kinematics:
    """Collision kinematics for incident energy E_i (eV).

    Raises :class:`BelowThresholdError` when the ejected-electron energy
    E1 = E_i + eps_ps + eps_hbar - eps_hplus is not positive.
    """
    if not E_i > 0.0:
        raise ValueError(f"incident energy must be positive, got {E_i} eV")
    mu_i, mu_f = 2.0, 1.0
    eps_hplus = eps_hplus_default() if eps_hplus_override is None else eps_hplus_override
    e_au = E_i / HARTREE_EV
    e1 = e_au + ps_energy(state) + EPS_HBAR_DEFAULT - eps_hplus
    if e1 <= 0.0:
        raise BelowThresholdError(
            f"E_i = {E_i} eV is below the {state.label} threshold "
            f"({threshold_ev(state, eps_hplus):.4f} eV)"
        )
    return Kinematics(
        E_i=E_i,
        k_i=math.sqrt(2.0 * mu_i * e_au),
        k1=math.sqrt(2.0 * mu_f * e1),
        theta_e=theta_e,
        mu_i=mu_i,
        mu_f=mu_f,
    )


def threshold_ev(state: PsState, eps_hplus: Optional[float] = None) -> float:
    """Ion-formation threshold in eV from energy conservation."""
    if eps_hplus is None:
        eps_hplus = eps_hplus_default()
    return (eps_hplus - ps_energy(state) - EPS_HBAR_DEFAULT) * HARTREE_EV
