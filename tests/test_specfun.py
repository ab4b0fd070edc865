import cmath
import math

import numpy as np
import pytest
import scipy.special as sp

from psbar_xsec.amplitude import _wave_factors, beam_vectors
from psbar_xsec.specfun import (
    _PANEL_WIDTH,
    ConvergenceError,
    DistortionParams,
    coulomb_distortion,
    hyp1f1_b1,
    _asymptotic,
    _asymptotic_edge,
    _BandTable,
    _coulomb_distortion_many,
    _coulomb_norm,
    _f64_band_edge,
    _hyp1f1_b1_many,
    _taylor_dd,
    _taylor_f64,
)
from psbar_xsec.states import PsState, kinematics
from oracles import hyp1f1_series_200


# ---------------------------------------------------------------------------
# continuum normalization (complex gamma from scipy)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, 2.6, 8.0])
def test_coulomb_norm_vs_mpmath(alpha):
    # exp(-pi alpha/2) Gamma(1 - i alpha), the normalization every sweep uses
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = complex(mpmath.exp(-mpmath.pi * alpha / 2) * mpmath.gamma(mpmath.mpc(1, -alpha)))
    assert abs(_coulomb_norm(alpha) - want) <= 1e-13 * abs(want)


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
    assert 0.1 < abs(_coulomb_norm(0.5) * val) < 10.0


def test_hyp1f1_nonconvergence_raises():
    # |a| above 8, where no branch is verified: raise on every branch,
    # even where the float64 series would return a value
    for a, z in ((40.0j, 70.0j), (10.0j, 5.0j), (-20.0j, 30.0j)):
        with pytest.raises(ConvergenceError):
            hyp1f1_b1(a, z)
    # the distortion's band table does not bypass the guard: alpha = 10,
    # every point in the double-double band (x = 2 k1 r1 along k1)
    p = DistortionParams.for_momentum(0.1)
    x = np.array([10.0, 20.0, 30.0, 40.0])
    lo, hi = _f64_band_edge(p.alpha1), _asymptotic_edge(p.alpha1)
    assert np.all((x >= lo) & (x < hi))
    r1 = np.outer(x / (2.0 * p.k1), [0.0, 0.0, 1.0])
    with pytest.raises(ConvergenceError):
        _coulomb_distortion_many(p, r1, np.array([0.0, 0.0, p.k1]))


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("alpha", [0.3, 2.0, 5.0, 8.0])
def test_hyp1f1_contract_vs_mpmath(alpha, sign):
    # the documented contract: 1F1(+-i alpha; 1; +-i x) to 1e-9 relative
    # for alpha <= 8 and x in [0, 1000], on every branch, with the
    # double-double band both summed directly and read from a band table
    mpmath = pytest.importorskip("mpmath")
    lo, hi = _f64_band_edge(alpha), _asymptotic_edge(alpha)
    table = _BandTable(sign * 1j * alpha, sign * 1j)
    # every panel edge and both band edges, each also 1e-12 either side
    marks = np.append(lo + _PANEL_WIDTH * np.arange(table.n_panels + 1), hi)
    x = np.concatenate([
        np.linspace(0.0, 60.0, 61), np.geomspace(60.0, 1000.0, 12)[1:],
        marks - 1e-12, marks, marks + 1e-12,
    ])
    assert np.any(x < lo)
    assert np.any((x >= lo) & (x < hi))
    assert np.any(x >= hi)
    with mpmath.workdps(40):
        want = np.array([
            complex(mpmath.hyp1f1(mpmath.mpc(0, sign * alpha), 1, mpmath.mpc(0, sign * xi)))
            for xi in x
        ])
    for band in (None, table):
        got = _hyp1f1_b1_many(sign * 1j * alpha, sign * 1j * x, band)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-9


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, 2.0, 5.0])
def test_band_table_matches_dd_series(alpha, sign):
    # interpolation adds nothing visible to the series it tabulates
    a = sign * 1j * alpha
    rng = np.random.default_rng(11)
    z = sign * 1j * rng.uniform(_f64_band_edge(alpha), _asymptotic_edge(alpha), 1000)
    direct = _taylor_dd(a, z)
    tabled = _taylor_dd(a, z, _BandTable(a, sign * 1j))
    assert np.max(np.abs(tabled - direct) / np.abs(direct)) <= 1e-12


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
    val = coulomb_distortion(p, [0.0, 0.0, -2.0], [0.0, 0.0, k1])
    want = math.exp(-math.pi * p.alpha1 / 2.0) * sp.gamma(1.0 - 1j * p.alpha1)
    assert val == pytest.approx(want, rel=1e-12)


def test_coulomb_distortion_series_oracle():
    # k1 = 1 a.u., r1 = z_hat: check against direct power-series summation
    k1 = 1.0
    p = DistortionParams.for_momentum(k1)
    r1 = [0.0, 0.0, 1.0]
    x = k1 * 1.0 + k1 * 1.0
    want = (
        math.exp(-math.pi * p.alpha1 / 2.0)
        * sp.gamma(1.0 - 1j * p.alpha1)
        * hyp1f1_series_200(1j * p.alpha1, 1j * x)
    )
    got = coulomb_distortion(p, r1, [0.0, 0.0, k1])
    assert got == pytest.approx(want, rel=1e-10)


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
# eikonal phase (computed inline by amplitude._wave_factors)
# ---------------------------------------------------------------------------


def _beams(E=10.0, theta=60.0):
    return beam_vectors(kinematics(E, PsState(1, 0), theta_e=math.radians(theta)))


def _plane(r1v, k1_vec):
    # the outgoing plane wave; the incident one is not part of _wave_factors
    return np.exp(-1j * (r1v @ k1_vec))


def test_eikonal_degenerate_axis_raises():
    # log(r1 + z1) has no value on the negative polar axis of k1: the old
    # scalar phase raised there, _wave_factors now rejects the point instead
    k1_vec, _ = _beams()
    p = DistortionParams.for_momentum(float(k1_vec[2]))
    rhov = np.array([0.3, 0.0, 0.4])
    r1v = np.array([[0.0, 0.0, -2.0], [3.0e-6, 0.0, -2.0]])
    *_, valid, wave = _wave_factors(r1v, r1v - rhov, p, k1_vec)
    assert not valid[0]
    # just above the guard is fine: transverse offset x gives r+z ~ x^2/(2r)
    assert valid[1]
    dist = coulomb_distortion(p, r1v[1], k1_vec)
    plane = _plane(r1v, k1_vec)[1]
    assert abs(abs(wave[1] / (dist * plane)) - 1.0) < 1e-12


def test_eikonal_zero_coupling():
    # zero couplings: no distortion and no phase, exactly the plane waves
    k1_vec, _ = _beams()
    free = DistortionParams(alpha1=0.0, eta1=0.0, k1=float(k1_vec[2]))
    rng = np.random.default_rng(4)
    r1v, r2v = rng.normal(size=(2, 200, 3)) * 3.0
    *_, valid, wave = _wave_factors(r1v, r2v, free, k1_vec)
    assert np.all(valid)
    assert np.array_equal(wave, _plane(r1v, k1_vec))


def test_eikonal_identical_vectors():
    # equal bases r1 + z1 = rho + z_rho (both 9 here) give a phase of exactly 1
    k1_vec, _ = _beams()
    p = DistortionParams.for_momentum(float(k1_vec[2]))
    r1v = np.array([[3.0, 0.0, 4.0]])
    r2v = r1v - np.array([[0.0, 0.0, 4.5]])
    *_, valid, wave = _wave_factors(r1v, r2v, p, k1_vec)
    assert valid[0]
    dist = coulomb_distortion(p, r1v[0], k1_vec)
    assert wave[0] == pytest.approx(dist * _plane(r1v, k1_vec)[0], abs=1e-14)


def test_eikonal_unit_modulus():
    # plane waves and eikonal phase are unit modulus: |wave| = |distortion|
    k1_vec, _ = _beams(E=50.0, theta=110.0)
    p = DistortionParams.for_momentum(float(k1_vec[2]))
    rng = np.random.default_rng(17)
    r1v, r2v = rng.normal(size=(2, 300, 3)) * 3.0
    # a point just above the negative-axis guard: r + z ~ x^2/(2r) = 2.25e-12
    r1v[0] = [3.0e-6, 0.0, -2.0]
    *_, valid, wave = _wave_factors(r1v, r2v, p, k1_vec)
    assert valid[0] and np.count_nonzero(valid) > 290
    dist = np.array([coulomb_distortion(p, r, k1_vec) for r in r1v[valid]])
    assert np.max(np.abs(np.abs(wave[valid]) - np.abs(dist)) / np.abs(dist)) <= 1e-14
