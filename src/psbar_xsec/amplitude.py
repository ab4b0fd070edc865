"""Transition amplitude for ion formation by positronium impact.

The prior-form amplitude is a nine-dimensional integral over the
electron, the positronium positron, and the atom positron.  The atom
positron only appears through exponential orbitals and screened-Coulomb
kernels, so its three dimensions integrate in closed form: the
symmetrized ion orbital times the atom orbital yields plain overlap
factors for the two coordinates that survive, and Yukawa kernels
convolved against exponentials reduce to :func:`yukawa_exp_convolution`.
What remains is a six-dimensional integral evaluated by randomized
quasi-Monte Carlo with exponential importance densities matched to the
bound-state decay scales.

A plain Monte Carlo estimator of the full nine-dimensional integral,
with every perturbation term evaluated pointwise, is kept as
:func:`amplitude_oracle_9d` to validate the reduction end to end.  Both
take the geometry, the validity mask and the angle-independent wave part
(Coulomb distortion, complex conjugate in the bra, x eikonal phase x
outgoing plane wave) from one kernel, ``_wave_factors``, and multiply by
the incident plane wave, the one factor that depends on the ejection
angle.

Geometry: the ejected-electron momentum defines the polar axis, and |k1|
depends only on (energy, state).  So one sample cloud per (energy, state)
serves every ejection angle and every screening parameter: only the
incident plane wave depends on the angle and only the closed-form
atom-positron integral on mu.  All evaluations are pure functions of
(inputs, seed): results are identical for any worker count, any
scheduling order and any other angles or mus requested alongside.
"""

from __future__ import annotations

import math
import zlib
from concurrent.futures import Executor
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import gammaincinv
from scipy.stats import qmc

from .specfun import (
    EPS_GEOM,
    DistortionParams,
    _coulomb_distortion_many,
)
from .states import (
    ChandrasekharParams,
    Kinematics,
    PsState,
    ScreeningConfig,
    _hbar_radial,
    _ps_wavefunction_many,
    hplus_wavefunction,
)

__all__ = [
    "IntegrationSpec",
    "AmplitudeValue",
    "REPLICATES",
    "yukawa_exp_convolution",
    "inner_r3_reduction",
    "reduced_integrand",
    "amplitude",
    "amplitude_oracle_9d",
    "beam_vectors",
]

REPLICATES = 8
#: rows per evaluation block of both estimators: bounds peak memory
#: whatever the sample count
_BLOCK = 1 << 13
_U_EPS = 2.0**-53
#: the H-bar+ ion orbital every estimator uses
_CHAND = ChandrasekharParams()


@dataclass(frozen=True)
class IntegrationSpec:
    """Monte Carlo budget and reproducibility knobs."""

    samples: int = 1_000_000
    seed: int = 1

    def __post_init__(self):
        if self.samples < 1000:
            raise ValueError(f"need at least 1000 samples, got {self.samples}")


@dataclass(frozen=True)
class AmplitudeValue:
    """Complex amplitude with a 1-sigma statistical error (a.u.)."""

    t: complex
    std_err: float

    def __post_init__(self):
        if not (math.isfinite(self.std_err) and self.std_err >= 0.0):
            raise ValueError(f"invalid std_err {self.std_err}")


# ---------------------------------------------------------------------------
# closed-form pieces of the atom-positron integral
# ---------------------------------------------------------------------------


def yukawa_exp_convolution(c: float, mu: float, x):
    """J(c, mu, x) = int e^{-c r'} e^{-mu |x - r'|} / |x - r'| d3r'.

    Closed form via Fourier convolution:

        J = 8 pi c (e^{-mu x} - e^{-c x}) / ((c^2 - mu^2)^2 x)
            - 4 pi e^{-c x} / (c^2 - mu^2),

    evaluated through expm1 for the difference and switched to the Taylor
    expansion in (c - mu) x when that product is small, which keeps the
    removable singularities at x -> 0 and c -> mu to full precision.
    """
    if not c > 0.0:
        raise ValueError(f"decay constant must be positive, got {c}")
    if mu < 0.0:
        raise ValueError(f"screening parameter must be >= 0, got {mu}")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    if np.any(x_arr < 0.0):
        raise ValueError("distance must be >= 0")

    s = c + mu
    d = c - mu
    u = d * x_arr
    out = np.empty_like(x_arr)

    small = np.abs(u) < 0.5
    if np.any(small):
        xs = x_arr[small]
        us = u[small]
        # sum_k (-u)^k [ s x (k+1)/(k+2)! + 1/(k+1)! ]
        total = np.zeros_like(xs)
        fact = 1.0  # (k+1)! running value
        powu = np.ones_like(xs)
        for k in range(18):
            fact *= k + 1
            total += powu * (s * xs * (k + 1) / (fact * (k + 2)) + 1.0 / fact)
            powu *= -us
        out[small] = 4.0 * math.pi * np.exp(-mu * xs) / (s * s) * total
    big = ~small
    if np.any(big):
        xb = x_arr[big]
        diff = -np.expm1(-d * xb) * np.exp(-mu * xb)  # e^{-mu x} - e^{-c x}
        out[big] = (
            8.0 * math.pi * c * diff / ((s * d) ** 2 * xb)
            - 4.0 * math.pi * np.exp(-c * xb) / (s * d)
        )
    return float(out[0]) if scalar else out


def _overlap_ion_atom(r2, chand: ChandrasekharParams):
    """int Phi_ion(r2, r3) phi_atom(r3) d3r3 as a function of r2."""
    a, b = chand.alpha, chand.beta
    return (2.0 * chand.norm / math.sqrt(math.pi)) * (
        np.exp(-a * r2) / (b + 1.0) ** 3 + np.exp(-b * r2) / (a + 1.0) ** 3
    )


def _inner_r3_many(r1, r2, mu: float, chand: ChandrasekharParams):
    """Atom-positron integral of the perturbation, vectorized over radii.

    r1 and r2 must be positive arrays (callers mask zeros beforehand).
    """
    a, b = chand.alpha, chand.beta
    kf = chand.norm / (4.0 * math.pi * math.sqrt(math.pi))
    ea = np.exp(-a * r2)
    eb = np.exp(-b * r2)
    yuk_r1 = ea * yukawa_exp_convolution(b + 1.0, mu, r1) + eb * yukawa_exp_convolution(
        a + 1.0, mu, r1
    )
    yuk_r2 = ea * yukawa_exp_convolution(b + 1.0, mu, r2) + eb * yukawa_exp_convolution(
        a + 1.0, mu, r2
    )
    direct = _overlap_ion_atom(r2, chand) * (
        np.exp(-mu * r1) / r1 - np.exp(-mu * r2) / r2
    )
    return direct - kf * yuk_r1 + kf * yuk_r2


def inner_r3_reduction(
    r1,
    r2,
    screen: ScreeningConfig = ScreeningConfig(0.0),
    chand: ChandrasekharParams = ChandrasekharParams(),
) -> complex:
    """Exact atom-positron integral for one (r1, r2) configuration.

    The result is real; it is returned as complex for uniformity with the
    rest of the integrand pipeline.
    """
    r1n = float(np.linalg.norm(np.asarray(r1, dtype=float)))
    r2n = float(np.linalg.norm(np.asarray(r2, dtype=float)))
    if r1n <= 0.0 or r2n <= 0.0:
        raise ValueError("coincident-with-origin configurations are singular")
    val = _inner_r3_many(np.array([r1n]), np.array([r2n]), screen.mu, chand)[0]
    return complex(val)


# ---------------------------------------------------------------------------
# geometry and the reduced six-dimensional integrand
# ---------------------------------------------------------------------------


def _incident_momentum(k_i: float, theta: float, phi: float = 0.0) -> np.ndarray:
    """Incident momentum at polar angle theta and azimuth phi about k1 (+z)."""
    st = math.sin(theta)
    return k_i * np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def beam_vectors(kin: Kinematics) -> Tuple[np.ndarray, np.ndarray]:
    """(ejected momentum along +z, incident momentum in the x-z plane)."""
    return np.array([0.0, 0.0, kin.k1]), _incident_momentum(kin.k_i, kin.theta_e)


def _incident_wave(r1v: np.ndarray, r2v: np.ndarray, ki_vec: np.ndarray) -> np.ndarray:
    """exp(i ki . (r1 + r2)/2): the only factor that depends on the angle."""
    return np.exp(1j * (0.5 * (r1v + r2v) @ ki_vec))


def _wave_factors(
    r1v: np.ndarray,
    r2v: np.ndarray,
    distortion: DistortionParams,
    k1_vec: np.ndarray,
):
    """Geometry and angle-independent wave part on (N, 3) r1, r2 rows.

    Returns (r1, r2, rhov, valid, wave).  ``valid`` rejects zero radii and
    points with r1 or rho on the negative polar axis of k1; ``wave`` is
    Coulomb distortion x eikonal phase x exp(-i k1.r1), meaningful only
    where ``valid`` holds.  The incident plane wave is ``_incident_wave``.
    """
    r1 = np.sqrt(np.einsum("ij,ij->i", r1v, r1v))
    r2 = np.sqrt(np.einsum("ij,ij->i", r2v, r2v))
    rhov = r1v - r2v
    rho = np.sqrt(np.einsum("ij,ij->i", rhov, rhov))

    khat = k1_vec / float(np.linalg.norm(k1_vec))
    b1 = r1 + r1v @ khat
    b2 = rho + rhov @ khat
    valid = (b1 > EPS_GEOM) & (b2 > EPS_GEOM) & (r1 > 0.0) & (r2 > 0.0)
    b1s = np.where(valid, b1, 1.0)
    b2s = np.where(valid, b2, 1.0)

    dist = _coulomb_distortion_many(distortion, r1v, k1_vec)
    eik = np.exp(-1j * distortion.eta1 * (np.log(b1s) - np.log(b2s)))
    return r1, r2, rhov, valid, dist * eik * np.exp(-1j * (r1v @ k1_vec))


def _integrand_6d(
    r1v: np.ndarray,
    r2v: np.ndarray,
    mus: Sequence[float],
    state: PsState,
    distortion: DistortionParams,
    k1_vec: np.ndarray,
    chand: ChandrasekharParams,
) -> np.ndarray:
    """Angle-independent part of the reduced integrand, one row per mu.

    Returns (len(mus), N) values on (N, 3) electron / Ps-positron rows:
    ``_wave_factors``' wave x atom-positron integral x Ps orbital, zero at
    invalid points.  Times ``_incident_wave`` it is the full integrand.
    """
    r1, r2, rhov, valid, wave = _wave_factors(r1v, r2v, distortion, k1_vec)
    r1s = np.where(valid, r1, 1.0)
    r2s = np.where(valid, r2, 1.0)
    common = np.where(valid, wave * _ps_wavefunction_many(state, rhov), 0.0)
    return np.stack([common * _inner_r3_many(r1s, r2s, mu, chand) for mu in mus])


def reduced_integrand(
    r1,
    r2,
    kin: Kinematics,
    screen: ScreeningConfig,
    state: PsState,
    distortion: Optional[DistortionParams] = None,
) -> complex:
    """Value of the reduced (atom-positron already integrated) integrand.

    r1 is the electron and r2 the Ps-positron position.  Points on the
    negative polar axis of k1 give exactly zero.  ``distortion`` may
    override the couplings (zero couplings give the plane-wave Born
    integrand).
    """
    if distortion is None:
        distortion = DistortionParams.for_momentum(kin.k1)
    k1_vec, ki_vec = beam_vectors(kin)
    r1v = np.asarray(r1, dtype=float).reshape(1, 3)
    r2v = np.asarray(r2, dtype=float).reshape(1, 3)
    vals = _integrand_6d(r1v, r2v, [screen.mu], state, distortion, k1_vec, _CHAND)
    return complex(vals[0, 0] * _incident_wave(r1v, r2v, ki_vec)[0])


# ---------------------------------------------------------------------------
# importance sampling maps
# ---------------------------------------------------------------------------


def _radii_from_uniform(u: np.ndarray, rate: float) -> np.ndarray:
    """Inverse-CDF map: gamma(shape 3) radius for a 3D density ~ e^{-rate r}."""
    return gammaincinv(3.0, u) / rate


def _isotropic(r: np.ndarray, u_ct: np.ndarray, u_phi: np.ndarray) -> np.ndarray:
    ct = 2.0 * u_ct - 1.0
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    phi = 2.0 * math.pi * u_phi
    vec = np.empty((r.shape[0], 3))
    vec[:, 0] = r * st * np.cos(phi)
    vec[:, 1] = r * st * np.sin(phi)
    vec[:, 2] = r * ct
    return vec


def _vectors_from_uniform(u3: np.ndarray, rate: float):
    """Map (N, 3) uniforms to sampled vectors and their 3D density values."""
    r = _radii_from_uniform(u3[:, 0], rate)
    vec = _isotropic(r, u3[:, 1], u3[:, 2])
    dens = rate**3 / (8.0 * math.pi) * np.exp(-rate * r)
    return vec, dens


def _vectors_from_uniform_mix(u3: np.ndarray, rates, weights):
    """Mixture of exponential-tail proposals, one component per decay rate.

    The radius uniform picks the component (a stratified split of [0,1])
    and is rescaled within it; the returned density is the full mixture,
    so the weights 1/p stay bounded for any integrand term decaying at
    least as fast as the slowest rate.
    """
    u0 = u3[:, 0]
    r = np.empty_like(u0)
    lo = 0.0
    for rate, w in zip(rates, weights):
        sel = (u0 >= lo) & (u0 < lo + w)
        if np.any(sel):
            r[sel] = _radii_from_uniform((u0[sel] - lo) / w, rate)
        lo += w
    vec = _isotropic(r, u3[:, 1], u3[:, 2])
    dens = np.zeros_like(r)
    for rate, w in zip(rates, weights):
        dens += w * rate**3 / (8.0 * math.pi) * np.exp(-rate * r)
    return vec, dens


def _rho_rate(state: PsState) -> float:
    # matches the e^{-rho/(2n)} tail of the Ps orbital (Bohr radius 2)
    return 1.0 / (2.0 * state.n)


def _r2_mixture(chand: ChandrasekharParams):
    # both ion-orbital decay scales; the slow one keeps the weights bounded
    return (chand.alpha, chand.beta), (0.5, 0.5)


def _task_seed(
    master: int,
    state: PsState,
    kin: Kinematics,
    tag: str,
    replicate: int,
) -> np.random.SeedSequence:
    """Deterministic per-task seed, independent of scheduling order.

    The key is (state, energy, tag, replicate).  The ejection angle and the
    screening parameter are deliberately not part of it: every angle and
    every mu of one (energy, state) read the same sample cloud, so
    screened-minus-unscreened differences are common-random-number
    estimates and a row does not depend on what else the sweep asks for.
    """
    e_bits = int(np.float64(kin.E_i).view(np.uint64))
    key = (
        state.n,
        state.l,
        state.m & 0xFFFFFFFF,
        e_bits >> 32,
        e_bits & 0xFFFFFFFF,
        zlib.crc32(tag.encode("ascii")),
        replicate,
    )
    return np.random.SeedSequence(entropy=master, spawn_key=key)


def _azimuth(theta: float) -> float:
    """Azimuth of k_i about k1 at which ejection angle theta reads the cloud.

    A fixed pseudo-random function of theta alone (a hash of its bits), so
    angles that share one sample cloud see it from unrelated directions,
    which decorrelates their estimates, and a row never depends on which
    other angles are requested.  Rotating k_i about k1 leaves every s and
    m = 0 amplitude unchanged and multiplies T_m by e^{i m phi}.
    """
    bits = np.float64(theta).tobytes()
    return 2.0 * math.pi * zlib.crc32(bits) / 2.0**32


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _replicate_sums(
    kin: Kinematics,
    sampled: PsState,
    mus: Sequence[float],
    ki_vecs: Sequence[np.ndarray],
    distortion: DistortionParams,
    seed: int,
    m: int,
    rep: int,
) -> np.ndarray:
    """Unnormalized sums of one replicate, complex (len(mus), len(ki_vecs)).

    Draws replicate ``rep``'s scrambled Sobol block of 2^m points and
    evaluates it in blocks of ``_BLOCK`` rows.  A pure function of its
    arguments, so it gives the same bits in any process; must stay
    top-level so that a process pool can run it.
    """
    ss = _task_seed(seed, sampled, kin, "qmc6d", rep)
    sob = qmc.Sobol(d=6, scramble=True, seed=np.random.default_rng(ss))
    u_rep = np.clip(sob.random_base2(m), _U_EPS, 1.0 - _U_EPS)
    rates2, w2mix = _r2_mixture(_CHAND)
    rate_rho = _rho_rate(sampled)
    k1_vec = np.array([0.0, 0.0, kin.k1])
    sums = np.zeros((len(mus), len(ki_vecs)), dtype=np.complex128)
    for start in range(0, len(u_rep), _BLOCK):
        u = u_rep[start:start + _BLOCK]
        r2v, p2 = _vectors_from_uniform_mix(u[:, 0:3], rates2, w2mix)
        rhov, pr = _vectors_from_uniform(u[:, 3:6], rate_rho)
        r1v = r2v + rhov
        vals = _integrand_6d(
            r1v, r2v, mus, sampled, distortion, k1_vec, _CHAND
        ) / (p2 * pr)
        for j, ki_vec in enumerate(ki_vecs):
            sums[:, j] += np.sum(vals * _incident_wave(r1v, r2v, ki_vec), axis=1)
    return sums


def amplitude(
    kin: Kinematics,
    state: PsState,
    mus: Sequence[float],
    thetas: Sequence[float],
    spec: IntegrationSpec,
    pool: Optional[Executor] = None,
) -> np.ndarray:
    """Randomized-QMC estimates of the prior-form transition amplitude.

    Returns the per-replicate estimates, complex (REPLICATES, len(mus),
    len(thetas)), for every screening parameter and ejection angle
    (radians; ``kin.theta_e`` is not used).  Each replicate is one
    independently scrambled Sobol block, drawn once and evaluated in blocks
    of ``_BLOCK`` rows; its sampling, 1F1, eikonal phase and orbital serve
    every (mu, theta).  Each angle reads it at its own azimuth
    (``_azimuth``) and is rotated back to the x-z plane.  A negative m is
    not sampled: the reflection y -> -y gives T_-m = (-1)^m T_m.  Fixed
    (spec, kinematics, state) give bit-identical estimates for each
    (mu, theta) whatever else is requested and whatever the worker count.

    ``pool``, an executor, runs the replicates (``_replicate_sums``) as
    its tasks, one per replicate; without it they run here, one after
    another.  Before handing them to the pool, the 1F1 band table is
    filled here, and each task carries it inside the pickled
    :class:`DistortionParams`, so no worker sums the series again.
    """
    sampled = PsState(state.n, state.l, abs(state.m))
    distortion = DistortionParams.for_momentum(kin.k1)
    phis = [_azimuth(theta) for theta in thetas]
    ki_vecs = [_incident_momentum(kin.k_i, t, p) for t, p in zip(thetas, phis)]
    m = max(7, round(math.log2(max(1.0, spec.samples / REPLICATES))))
    one = partial(_replicate_sums, kin, sampled, mus, ki_vecs, distortion,
                  spec.seed, m)
    if pool is None:
        sums = np.stack([one(rep) for rep in range(REPLICATES)])
    else:
        distortion.fill_band_table()
        sums = np.stack(list(pool.map(one, range(REPLICATES))))

    pref = -kin.mu_f / (2.0 * math.pi)
    if state.m < 0:
        pref *= (-1.0) ** state.m
    if sampled.m:
        sums *= np.exp(-1j * sampled.m * np.asarray(phis))
    return pref * sums / (1 << m)


def amplitude_oracle_9d(
    kin: Kinematics,
    state: PsState,
    screen: ScreeningConfig,
    spec: IntegrationSpec,
    vi_signs: Sequence[float] = (1.0, -1.0, -1.0, 1.0),
) -> AmplitudeValue:
    """Plain Monte Carlo estimate of the full nine-dimensional integral.

    Samples all three light-particle coordinates from exponential
    proposals and evaluates the symmetrized ion orbital, the atom
    orbital, and all four perturbation terms pointwise.  Exists to
    validate the analytic atom-positron reduction; ``vi_signs`` lets
    tests flip or drop individual perturbation terms.
    """
    distortion = DistortionParams.for_momentum(kin.k1)
    k1_vec, ki_vec = beam_vectors(kin)
    mu = screen.mu
    rates2, w2mix = _r2_mixture(_CHAND)
    rate_rho = _rho_rate(state)
    rate3 = 1.0 + _CHAND.beta
    s1, s2, s3, s4 = (float(s) for s in vi_signs)

    rng = np.random.default_rng(_task_seed(spec.seed, state, kin, "mc9d", 0))
    n_total = 0
    acc = 0.0 + 0.0j
    acc_re2 = 0.0
    acc_im2 = 0.0
    remaining = int(spec.samples)
    while remaining > 0:
        n = min(_BLOCK, remaining)
        remaining -= n
        u = np.clip(rng.random((n, 9)), _U_EPS, 1.0 - _U_EPS)
        r2v, p2 = _vectors_from_uniform_mix(u[:, 0:3], rates2, w2mix)
        rhov, pr = _vectors_from_uniform(u[:, 3:6], rate_rho)
        r3v, p3 = _vectors_from_uniform(u[:, 6:9], rate3)
        r1v = r2v + rhov

        r1, r2, rhov, valid, wave = _wave_factors(r1v, r2v, distortion, k1_vec)
        wave = wave * _incident_wave(r1v, r2v, ki_vec)
        r3 = np.sqrt(np.einsum("ij,ij->i", r3v, r3v))
        d13 = r1v - r3v
        d23 = r2v - r3v
        r13 = np.sqrt(np.einsum("ij,ij->i", d13, d13))
        r23 = np.sqrt(np.einsum("ij,ij->i", d23, d23))
        valid &= (r13 > 0.0) & (r23 > 0.0)
        r1s = np.where(valid, r1, 1.0)
        r2s = np.where(valid, r2, 1.0)
        r13s = np.where(valid, r13, 1.0)
        r23s = np.where(valid, r23, 1.0)

        vi = (
            s1 * np.exp(-mu * r1s) / r1s
            + s2 * np.exp(-mu * r2s) / r2s
            + s3 * np.exp(-mu * r13s) / r13s
            + s4 * np.exp(-mu * r23s) / r23s
        )
        ion = hplus_wavefunction(_CHAND, r2, r3)
        atom = _hbar_radial(r3)
        ps = _ps_wavefunction_many(state, rhov)

        vals = wave * vi * ion * atom * ps
        vals[~valid] = 0.0
        vals = vals / (p2 * pr * p3)

        acc += np.sum(vals)
        acc_re2 += np.sum(vals.real**2)
        acc_im2 += np.sum(vals.imag**2)
        n_total += n

    pref = -kin.mu_f / (2.0 * math.pi)
    mean = acc / n_total
    var_re = max(0.0, acc_re2 / n_total - mean.real**2)
    var_im = max(0.0, acc_im2 / n_total - mean.imag**2)
    t = pref * complex(mean)
    std_err = abs(pref) * math.sqrt((var_re + var_im) / max(1, n_total - 1))
    return AmplitudeValue(t=t, std_err=std_err)
