import cmath
import math

import numpy as np
import pytest
import scipy.special as sp

from psbar_xsec.specfun import (
    EPS_GEOM,
    ConvergenceError,
    DegenerateGeometryError,
    DistortionParams,
    GammaPoleError,
    cgamma,
    coulomb_distortion,
    eikonal_phase,
    hyp1f1_b1,
    _asymptotic,
    _asymptotic_edge,
    _f64_band_edge,
    _hyp1f1_b1_many,
    _taylor_dd,
    _taylor_f64,
)
from oracles import hyp1f1_series_200


# ---------------------------------------------------------------------------
# complex gamma
# ---------------------------------------------------------------------------


def test_gamma_at_one():
    assert cgamma(1.0) == pytest.approx(1.0, rel=1e-14)


def test_gamma_at_half():
    assert cgamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gamma_reflection_modulus_at_1_plus_i():
    # |Gamma(1+iy)|^2 = pi y / sinh(pi y), evaluated at y = 1
    got = abs(cgamma(1 + 1j))
    want = math.sqrt(math.pi / math.sinh(math.pi))
    assert got == pytest.approx(want, rel=1e-12)


def test_gamma_recurrence_random():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        # stay away from the poles on the negative real axis
        if abs(z.imag) < 0.1 and z.real < 0.5:
            continue
        lhs = cgamma(z + 1.0)
        rhs = z * cgamma(z)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
        checked += 1


def test_gamma_matches_scipy_wide_strip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        z = complex(rng.uniform(-8, 8), rng.uniform(-50, 50))
        if abs(z.imag) < 1e-3 and z.real <= 0 and abs(z.real - round(z.real)) < 0.05:
            continue
        assert abs(cgamma(z) - sp.gamma(z)) <= 1e-12 * abs(sp.gamma(z))


def test_gamma_pole_raises():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(GammaPoleError):
            cgamma(z)


# ---------------------------------------------------------------------------
# confluent hypergeometric, b = 1
# ---------------------------------------------------------------------------


def test_hyp1f1_a_zero_is_one():
    assert hyp1f1_b1(0.0, 3.0 - 2.0j) == pytest.approx(1.0, abs=1e-15)


def test_hyp1f1_z_zero_is_one():
    assert hyp1f1_b1(0.5j, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_hyp1f1_against_series_small_z():
    rng = np.random.default_rng(2)
    for _ in range(40):
        a = 1j * rng.uniform(-3, 3)
        z = 1j * rng.uniform(-8, 8)
        want = hyp1f1_series_200(a, z)
        assert abs(hyp1f1_b1(a, z) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 5.0])
@pytest.mark.parametrize("y", [0.1, 1.0, 10.0, 50.0, 200.0])
def test_kummer_identity_grid(alpha, y):
    # 1F1(a; 1; z) = e^z 1F1(1-a; 1; -z)
    a = 1j * alpha
    z = 1j * y
    lhs = hyp1f1_b1(a, z)
    rhs = cmath.exp(z) * hyp1f1_b1(1.0 - a, -z)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("alpha", [0.2, 1.0])
def test_branch_agreement_in_crossover_band(alpha):
    # series and asymptotic evaluations must agree near the switchover
    a = 1j * alpha
    for x in np.linspace(25.0, 35.0, 11):
        z = np.array([1j * x])
        series = _taylor_dd(a, z)[0]
        asym, _ = _asymptotic(a, z)
        assert abs(series - asym[0]) <= 1e-6 * abs(series)


def test_float64_taylor_matches_dd_below_band():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = 1j * rng.uniform(-1.5, 1.5)
        z = np.array([1j * rng.uniform(-15, 15)])
        f64 = _taylor_f64(a, z)[0]
        dd = _taylor_dd(a, z)[0]
        assert abs(f64 - dd) <= 1e-9 * abs(dd)


def test_hyp1f1_large_z_production_scale():
    # |z| ~ 1e4 exercises the far asymptotic branch
    val = hyp1f1_b1(0.5j, 1e4j)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    # sanity: normalized Coulomb combination stays order unity
    alpha = 0.5
    norm = math.exp(-math.pi * alpha / 2.0) * cgamma(1.0 - 1j * alpha)
    assert 0.1 < abs(norm * val) < 10.0


def test_hyp1f1_nonconvergence_raises():
    # coupling too strong for the asymptotic branch, |z| too big for the
    # double-double series
    with pytest.raises(ConvergenceError):
        hyp1f1_b1(40.0j, 70.0j)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("alpha", [0.3, 2.0, 5.0, 8.0])
def test_hyp1f1_contract_vs_mpmath(alpha, sign):
    # the documented contract: 1F1(+-i alpha; 1; +-i x) to 1e-9 relative
    # for alpha <= 8 and x in [0, 1000], on every branch
    mpmath = pytest.importorskip("mpmath")
    x = np.concatenate([np.linspace(0.0, 60.0, 61), np.geomspace(60.0, 1000.0, 12)[1:]])
    assert np.any(x < _f64_band_edge(alpha))
    assert np.any((x >= _f64_band_edge(alpha)) & (x < _asymptotic_edge(alpha)))
    assert np.any(x >= _asymptotic_edge(alpha))
    got = _hyp1f1_b1_many(sign * 1j * alpha, sign * 1j * x)
    with mpmath.workdps(40):
        want = np.array([
            complex(mpmath.hyp1f1(mpmath.mpc(0, sign * alpha), 1, mpmath.mpc(0, sign * xi)))
            for xi in x
        ])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-9


def test_hyp1f1_conjugation_symmetry():
    a, z = 0.8j, 27.0j
    assert hyp1f1_b1(-a, -z) == pytest.approx(hyp1f1_b1(a, z).conjugate(), rel=1e-10)


# ---------------------------------------------------------------------------
# Coulomb distortion factor
# ---------------------------------------------------------------------------


def test_distortion_params_for_momentum():
    p = DistortionParams.for_momentum(0.75)
    assert p.alpha1 == p.eta1 == 1.0 / 0.75
    with pytest.raises(ValueError):
        DistortionParams.for_momentum(0.0)


def test_coulomb_distortion_free_limit():
    p = DistortionParams(alpha1=0.0, eta1=0.0, k1=2.0)
    val = coulomb_distortion(p, [0.3, -0.2, 1.4], [0.0, 0.0, 2.0])
    assert val == pytest.approx(1.0, abs=1e-14)


def test_coulomb_distortion_vanishing_argument():
    # r1 antiparallel to k1: hypergeometric argument is zero
    k1 = 1.3
    p = DistortionParams.for_momentum(k1)
    for conj in (True, False):
        val = coulomb_distortion(p, [0.0, 0.0, -2.0], [0.0, 0.0, k1], conjugated=conj)
        sign = -1.0 if conj else 1.0
        want = math.exp(-math.pi * p.alpha1 / 2.0) * cgamma(1.0 + sign * 1j * p.alpha1)
        assert val == pytest.approx(want, rel=1e-12)


def test_coulomb_distortion_series_oracle():
    # k1 = 1 a.u., r1 = z_hat: check against direct power-series summation
    k1 = 1.0
    p = DistortionParams.for_momentum(k1)
    r1 = [0.0, 0.0, 1.0]
    x = k1 * 1.0 + k1 * 1.0
    for conj in (True, False):
        sign = 1.0 if conj else -1.0
        want = (
            math.exp(-math.pi * p.alpha1 / 2.0)
            * cgamma(1.0 - sign * 1j * p.alpha1)
            * hyp1f1_series_200(sign * 1j * p.alpha1, sign * 1j * x)
        )
        got = coulomb_distortion(p, r1, [0.0, 0.0, k1], conjugated=conj)
        assert got == pytest.approx(want, rel=1e-10)


def test_coulomb_distortion_conjugation_pair():
    p = DistortionParams.for_momentum(0.62)
    r1 = [1.0, -0.4, 0.7]
    k = [0.0, 0.0, 0.62]
    a = coulomb_distortion(p, r1, k, conjugated=True)
    b = coulomb_distortion(p, r1, k, conjugated=False)
    assert a == pytest.approx(b.conjugate(), rel=1e-12)


def test_coulomb_distortion_continuity_along_ray():
    p = DistortionParams.for_momentum(1.1)
    k = [0.0, 0.0, 1.1]
    rng = np.random.default_rng(8)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    h = 1e-6
    for t in (0.5, 2.0, 7.0):
        f0 = coulomb_distortion(p, t * direction, k)
        f1 = coulomb_distortion(p, (t + h) * direction, k)
        assert abs(f1 - f0) < 100.0 * h  # bounded derivative, no jumps


# ---------------------------------------------------------------------------
# eikonal phase
# ---------------------------------------------------------------------------


def test_eikonal_zero_coupling():
    assert eikonal_phase([1.0, 0.0, 0.5], [0.2, 0.1, -0.1], 0.0) == 1.0 + 0.0j


def test_eikonal_identical_vectors():
    v = [0.4, -0.3, 1.1]
    assert eikonal_phase(v, v, 1.7) == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_eikonal_unit_modulus():
    rng = np.random.default_rng(17)
    for _ in range(100):
        r1 = rng.normal(size=3) * 3.0
        r12 = rng.normal(size=3) * 3.0
        if np.linalg.norm(r1) + r1[2] < 1e-6 or np.linalg.norm(r12) + r12[2] < 1e-6:
            continue
        val = eikonal_phase(r1, r12, 1.3)
        assert abs(abs(val) - 1.0) < 1e-14


def test_eikonal_degenerate_axis_raises():
    with pytest.raises(DegenerateGeometryError):
        eikonal_phase([0.0, 0.0, -2.0], [0.3, 0.0, 0.4], 0.9)
    # just above the guard is fine: transverse offset x gives r+z ~ x^2/(2r)
    val = eikonal_phase([3.0e-6, 0.0, -2.0], [0.3, 0.0, 0.4], 0.9)
    assert abs(abs(val) - 1.0) < 1e-12
