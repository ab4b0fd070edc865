import importlib
import math
import pickle

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import qmc

from psbar_xsec.amplitude import (
    AmplitudeValue,
    IntegrationSpec,
    REPLICATES,
    _BLOCK,
    _incident_wave,
    _integrand_6d,
    _r2_mixture,
    _rho_rate,
    _task_seed,
    _vectors_from_uniform,
    _vectors_from_uniform_mix,
    amplitude,
    amplitude_oracle_9d,
    beam_vectors,
    inner_r3_reduction,
    reduced_integrand,
    yukawa_exp_convolution,
)
from psbar_xsec import _dd
from psbar_xsec.specfun import (
    DistortionParams,
    _asymptotic_edge,
    _coulomb_distortion_many,
    _f64_band_edge,
)
from psbar_xsec.states import (
    ChandrasekharParams,
    PsState,
    ScreeningConfig,
    kinematics,
)
from oracles import inner_r3_quad, ps_orbital_1s, yukawa_exp_convolution_quad

# the package re-exports the function under the module's name
amplitude_mod = importlib.import_module("psbar_xsec.amplitude")
CH = ChandrasekharParams()
ST_1S = PsState(1, 0)


def _amp(kin, state, mu, spec):
    """Production estimate at kin.theta_e, reduced over replicates here."""
    reps = amplitude(kin, state, [mu], [kin.theta_e], spec)[:, 0, 0]
    se = math.hypot(np.std(reps.real, ddof=1), np.std(reps.imag, ddof=1))
    return AmplitudeValue(t=complex(reps.mean()), std_err=se / math.sqrt(len(reps)))


# ---------------------------------------------------------------------------
# Yukawa-exponential convolution
# ---------------------------------------------------------------------------


def test_yukawa_conv_domain_errors():
    with pytest.raises(ValueError):
        yukawa_exp_convolution(0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        yukawa_exp_convolution(-1.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        yukawa_exp_convolution(1.0, -0.2, 1.0)
    with pytest.raises(ValueError):
        yukawa_exp_convolution(1.0, 0.2, -1.0)


def test_yukawa_conv_coulomb_case_vs_quadrature():
    for c in (0.7, 1.28309, 2.03925):
        for x in (0.05, 0.5, 2.0, 11.0):
            want = yukawa_exp_convolution_quad(c, 0.0, x)
            got = yukawa_exp_convolution(c, 0.0, x)
            assert got == pytest.approx(want, rel=1e-10)


def test_yukawa_conv_screened_vs_quadrature():
    for (c, mu) in ((1.3, 0.05), (2.0, 0.3), (1.0, 0.9)):
        for x in (0.1, 1.0, 6.0):
            want = yukawa_exp_convolution_quad(c, mu, x)
            got = yukawa_exp_convolution(c, mu, x)
            assert got == pytest.approx(want, rel=1e-9)


def test_yukawa_conv_point_charge_asymptotics():
    # far away the orbital acts as a point charge of weight 8 pi / c^3
    c = 1.1
    x = 40.0 / c
    want = 8.0 * math.pi / c**3 / x
    assert yukawa_exp_convolution(c, 0.0, x) == pytest.approx(want, rel=1e-6)
    # screened version carries e^{-mu x} and the screened weight
    mu = 0.08
    want_mu = 8.0 * math.pi * c / (c * c - mu * mu) ** 2 * math.exp(-mu * x) / x
    assert yukawa_exp_convolution(c, mu, x) == pytest.approx(want_mu, rel=1e-4)


def test_yukawa_conv_degenerate_decay_continuity():
    # c == mu is a removable singularity: smooth approach, full accuracy
    # arbitrarily close to the degenerate line
    mu, x = 0.9, 2.4
    exact = yukawa_exp_convolution(mu, mu, x)
    prev_gap = math.inf
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        gap = abs(yukawa_exp_convolution(mu + eps, mu, x) - exact)
        assert gap < prev_gap  # monotone approach, no 1/(c-mu) blowup
        assert gap <= 10.0 * eps
        prev_gap = gap
    near = yukawa_exp_convolution(mu + 1e-6, mu, x)
    assert near == pytest.approx(
        yukawa_exp_convolution_quad(mu + 1e-6, mu, x), rel=1e-8
    )
    # limit value (pi/mu^2)(1 + mu x) e^{-mu x}
    want = math.pi / mu**2 * (1.0 + mu * x) * math.exp(-mu * x)
    assert exact == pytest.approx(want, rel=1e-12)


def test_yukawa_conv_at_zero_distance():
    # J(c, mu, 0) = 4 pi / (c+mu)^2; series branch handles x -> 0
    c, mu = 1.7, 0.3
    assert yukawa_exp_convolution(c, mu, 0.0) == pytest.approx(
        4.0 * math.pi / (c + mu) ** 2, rel=1e-12
    )


# ---------------------------------------------------------------------------
# inner r3 reduction
# ---------------------------------------------------------------------------


def test_inner_reduction_vs_3d_quadrature():
    rng = np.random.default_rng(31)
    for mu in (0.0, 0.1):
        for _ in range(6):
            r1v = rng.normal(size=3) * 2.0
            r2v = rng.normal(size=3) * 2.0
            want = inner_r3_quad(r1v, r2v, mu, CH.norm, CH.alpha, CH.beta)
            got = inner_r3_reduction(r1v, r2v, ScreeningConfig(mu), CH)
            assert got.real == pytest.approx(want, rel=1e-6)
            assert got.imag == 0.0


def test_inner_reduction_coincident_points_cancel():
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = rng.normal(size=3)
        assert inner_r3_reduction(v, v, ScreeningConfig(0.13), CH) == 0.0


def test_inner_reduction_screening_continuity_at_zero():
    rng = np.random.default_rng(12)
    r1v, r2v = rng.normal(size=3), rng.normal(size=3) * 1.5
    a = inner_r3_reduction(r1v, r2v, ScreeningConfig(0.0), CH)
    b = inner_r3_reduction(r1v, r2v, ScreeningConfig(1e-6), CH)
    assert b.real == pytest.approx(a.real, rel=1e-4)


# ---------------------------------------------------------------------------
# reduced integrand
# ---------------------------------------------------------------------------


def _test_kin(E=10.0, theta=60.0, state=ST_1S):
    return kinematics(E, state, theta_e=math.radians(theta))


def test_reduced_integrand_modulus_bound():
    # all phase factors are unit modulus, so |f| <= |C 1F1| |inner| |ps|
    kin = _test_kin()
    dist = DistortionParams.for_momentum(kin.k1)
    k1v, kiv = beam_vectors(kin)
    rng = np.random.default_rng(3)
    from psbar_xsec.amplitude import _coulomb_distortion_many
    from psbar_xsec.states import _ps_wavefunction_many

    for _ in range(30):
        r1 = rng.normal(size=3) * 2.0
        r2 = rng.normal(size=3) * 2.0
        f = reduced_integrand(r1, r2, kin, ScreeningConfig(0.0), ST_1S)
        cdval = _coulomb_distortion_many(dist, r1.reshape(1, 3), k1v)[0]
        inner = inner_r3_reduction(r1, r2, ScreeningConfig(0.0), CH)
        ps = _ps_wavefunction_many(ST_1S, (r1 - r2).reshape(1, 3))[0]
        bound = abs(cdval) * abs(inner) * abs(ps)
        assert abs(f) <= bound * (1.0 + 1e-10)


def test_reduced_integrand_born_limit_vs_reference():
    # with both couplings off, only plane waves x inner x orbital remain;
    # compare to an independently assembled reference
    kin = _test_kin(E=12.0, theta=40.0)
    mu = 0.07
    born = DistortionParams(alpha1=0.0, eta1=0.0, k1=kin.k1)
    k1v = np.array([0.0, 0.0, kin.k1])
    kiv = kin.k_i * np.array([math.sin(kin.theta_e), 0.0, math.cos(kin.theta_e)])
    rng = np.random.default_rng(21)
    for _ in range(8):
        r1v = rng.normal(size=3) * 1.5
        r2v = rng.normal(size=3) * 1.5
        rho = float(np.linalg.norm(r1v - r2v))
        ref = (
            np.exp(1j * (0.5 * (r1v + r2v) @ kiv - r1v @ k1v))
            * inner_r3_quad(r1v, r2v, mu, CH.norm, CH.alpha, CH.beta)
            * ps_orbital_1s(rho)
        )
        got = reduced_integrand(
            r1v, r2v, kin, ScreeningConfig(mu), ST_1S, distortion=born
        )
        assert got == pytest.approx(ref, rel=1e-6)


def test_reduced_integrand_exponential_decay_along_ray():
    kin = _test_kin(E=10.0)
    r1v = np.array([0.6, 0.2, 0.8])
    direction = np.array([0.36, 0.48, 0.8])
    near = abs(
        reduced_integrand(r1v, 2.0 * direction, kin, ScreeningConfig(0.0), ST_1S)
    )
    far = abs(
        reduced_integrand(r1v, 30.0 * direction, kin, ScreeningConfig(0.0), ST_1S)
    )
    assert far < 1e-8 * near


def test_reduced_integrand_zero_on_negative_polar_axis():
    # k1 lies along +z: b1 = r1 + z1 = 0 for the electron on the negative
    # z axis, b2 = rho + z_rho = 0 for rho there, and r2 = 0 is singular
    kin = _test_kin(E=10.0, theta=60.0)
    sc = ScreeningConfig(0.05)
    r2 = np.array([0.4, -0.3, 0.9])
    for r1v, r2v in (
        ((0.0, 0.0, -2.0), r2),
        (r2 + (0.0, 0.0, -1.5), r2),
        ((0.5, 0.1, -0.7), (0.0, 0.0, 0.0)),
    ):
        assert reduced_integrand(r1v, r2v, kin, sc, ST_1S) == 0.0
    # a point off the axis by much more than EPS_GEOM is kept
    assert reduced_integrand((1e-3, 0.0, -2.0), r2, kin, sc, ST_1S) != 0.0


@pytest.mark.parametrize("E, theta, mu", [(6.0, 30.0, 0.0), (20.0, 110.0, 0.1)])
def test_reduced_integrand_2p_mirror_identity(E, theta, mu):
    # the reflection R: y -> -y leaves k1 and k_i (x-z plane) and every
    # radius fixed and maps Y_1,+1(R rho) to -Y_1,-1(rho), so the m = +1
    # integrand at mirrored points is minus the m = -1 one: T_+1 = -T_-1
    kin = _test_kin(E=E, theta=theta, state=PsState(2, 1))
    sc = ScreeningConfig(mu)
    reflect = np.array([1.0, -1.0, 1.0])
    rng = np.random.default_rng(21)
    for _ in range(200):
        r1, r2 = rng.normal(size=(2, 3)) * 3.0
        plus = reduced_integrand(reflect * r1, reflect * r2, kin, sc, PsState(2, 1, +1))
        minus = reduced_integrand(r1, r2, kin, sc, PsState(2, 1, -1))
        assert minus != 0.0
        assert plus == -minus


# ---------------------------------------------------------------------------
# integration spec validation
# ---------------------------------------------------------------------------


def test_integration_spec_validation():
    with pytest.raises(ValueError):
        IntegrationSpec(samples=10)


def test_amplitude_value_validation():
    with pytest.raises(ValueError):
        AmplitudeValue(t=1.0 + 0.0j, std_err=-1.0)
    with pytest.raises(ValueError):
        AmplitudeValue(t=1.0 + 0.0j, std_err=math.nan)


# ---------------------------------------------------------------------------
# estimator behaviour
# ---------------------------------------------------------------------------


def test_amplitude_deterministic_repeat():
    spec = IntegrationSpec(samples=8192, seed=123)
    kin = _test_kin()
    a = amplitude(kin, ST_1S, [0.0, 0.1], [0.3, kin.theta_e], spec)
    b = amplitude(kin, ST_1S, [0.0, 0.1], [0.3, kin.theta_e], spec)
    assert a.shape == (REPLICATES, 2, 2)
    assert np.array_equal(a, b)


def test_oracle_deterministic_repeat():
    spec = IntegrationSpec(samples=20000, seed=321)
    kin = _test_kin()
    a = amplitude_oracle_9d(kin, ST_1S, ScreeningConfig(0.0), spec)
    b = amplitude_oracle_9d(kin, ST_1S, ScreeningConfig(0.0), spec)
    assert a.t == b.t and a.std_err == b.std_err


def test_doubling_samples_shrinks_error_on_average():
    kin = _test_kin(E=10.0, theta=30.0)
    small, large = [], []
    for seed in range(10):
        spec_n = IntegrationSpec(samples=8192, seed=seed)
        spec_2n = IntegrationSpec(samples=16384, seed=seed)
        small.append(_amp(kin, ST_1S, 0.0, spec_n).std_err)
        large.append(_amp(kin, ST_1S, 0.0, spec_2n).std_err)
    assert np.mean(large) < np.mean(small)


def test_error_scales_roughly_root_n():
    kin = _test_kin(E=10.0, theta=30.0)
    ratios = []
    for seed in range(6):
        se1 = _amp(kin, ST_1S, 0.0, IntegrationSpec(samples=8192, seed=seed)).std_err
        se4 = _amp(kin, ST_1S, 0.0, IntegrationSpec(samples=131072, seed=seed)).std_err
        ratios.append(se1 / se4)
    # 16x the samples: plain MC gives 4; randomized QMC should do at least that
    assert np.mean(ratios) > 3.0


def test_zero_perturbation_gives_exact_zero():
    kin = _test_kin()
    spec = IntegrationSpec(samples=5000, seed=2)
    val = amplitude_oracle_9d(kin, ST_1S, ScreeningConfig(0.1), spec,
                              vi_signs=(0.0, 0.0, 0.0, 0.0))
    assert val.t == 0.0 and val.std_err == 0.0


def test_vi_sign_flip_changes_result():
    # forward kinematics where the positron-positron term is well resolved
    kin = _test_kin(E=10.0, theta=20.0)
    spec = IntegrationSpec(samples=100_000, seed=2)
    base = amplitude_oracle_9d(kin, ST_1S, ScreeningConfig(0.1), spec)
    flipped = amplitude_oracle_9d(kin, ST_1S, ScreeningConfig(0.1), spec,
                                  vi_signs=(1.0, -1.0, -1.0, -1.0))
    assert abs(base.t - flipped.t) > 5.0 * math.hypot(base.std_err, flipped.std_err)


def test_production_agrees_with_9d_oracle():
    kin = _test_kin(E=10.0, theta=60.0)
    for mu in (0.0, 0.1):
        prod = _amp(kin, ST_1S, mu, IntegrationSpec(samples=262144, seed=42))
        orac = amplitude_oracle_9d(kin, ST_1S, ScreeningConfig(mu),
                                   IntegrationSpec(2_000_000, 42))
        diff = abs(prod.t - orac.t)
        comb = math.hypot(prod.std_err, orac.std_err)
        assert diff < 4.0 * comb


def test_screening_continuity_small_mu():
    spec = IntegrationSpec(samples=65536, seed=9)
    kin = _test_kin(E=10.0, theta=45.0)
    a = _amp(kin, ST_1S, 0.0, spec)
    b = _amp(kin, ST_1S, 1e-5, spec)
    assert abs(a.t - b.t) < 5.0 * math.hypot(a.std_err, b.std_err)


def test_frame_rotation_invariance():
    # rigid rotation of both beam vectors: same integral within statistics
    kin = _test_kin(E=10.0, theta=50.0)
    ang = 0.7
    rot = np.array(
        [
            [math.cos(ang), 0.0, math.sin(ang)],
            [0.0, 1.0, 0.0],
            [-math.sin(ang), 0.0, math.cos(ang)],
        ]
    )
    k1v, kiv = beam_vectors(kin)
    dist = DistortionParams.for_momentum(kin.k1)
    rates2, w2 = _r2_mixture(CH)

    def estimate(k1_vec, ki_vec, seed):
        ests = []
        for rep in range(REPLICATES):
            ss = _task_seed(seed, ST_1S, kin, "rotation-test", rep)
            sob = qmc.Sobol(d=6, scramble=True, seed=np.random.default_rng(ss))
            u = np.clip(sob.random_base2(12), 2.0**-53, 1 - 2.0**-53)
            r2v, p2 = _vectors_from_uniform_mix(u[:, 0:3], rates2, w2)
            rhov, pr = _vectors_from_uniform(u[:, 3:6], _rho_rate(ST_1S))
            r1v = r2v + rhov
            vals = _integrand_6d(r1v, r2v, [0.0], ST_1S, dist, k1_vec, CH)[0]
            vals = vals * _incident_wave(r1v, r2v, ki_vec)
            ests.append(np.mean(vals / (p2 * pr)))
        ests = np.asarray(ests)
        t = ests.mean()
        se = math.hypot(
            float(np.std(ests.real, ddof=1)), float(np.std(ests.imag, ddof=1))
        ) / math.sqrt(REPLICATES)
        return t, se

    t0, se0 = estimate(k1v, kiv, seed=1)
    t1, se1 = estimate(rot @ k1v, rot @ kiv, seed=2)
    assert abs(abs(t0) - abs(t1)) < 4.0 * math.hypot(se0, se1)


def test_std_err_is_positive_and_finite():
    val = _amp(_test_kin(), ST_1S, 0.0, IntegrationSpec(samples=4096, seed=3))
    assert val.std_err > 0.0 and math.isfinite(val.std_err)


def test_integrand_sees_bounded_blocks(monkeypatch):
    # 2^17 samples are 2^14 rows per replicate: two blocks, never one
    rows = []
    real = amplitude_mod._integrand_6d

    def recording(r1v, *args):
        rows.append(len(r1v))
        return real(r1v, *args)

    monkeypatch.setattr(amplitude_mod, "_integrand_6d", recording)
    amplitude(_test_kin(), ST_1S, [0.0], [0.5], IntegrationSpec(samples=1 << 17, seed=1))
    assert max(rows) == _BLOCK == 1 << 13
    assert sum(rows) == 1 << 17


def test_dd_series_summed_once_per_call(monkeypatch):
    # the double-double series fills the band table once per amplitude
    # call: 2^14 and 2^17 samples (one and two blocks per replicate) sum
    # the same terms, and the next call, with fresh DistortionParams, sums
    # them again rather than reading a table left by the first
    calls = []
    real = _dd.dd_div_exact

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(_dd, "dd_div_exact", counting)
    kin = _test_kin(E=50.0)
    counts = []
    for samples in (1 << 14, 1 << 17, 1 << 14):
        calls.clear()
        amplitude(kin, ST_1S, [0.0], [0.5], IntegrationSpec(samples=samples, seed=2))
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[0] == counts[1] == counts[2]


def test_filled_band_table_travels_with_pickled_params(monkeypatch):
    # an amplitude call fills the band table before it hands its replicates
    # to a pool; the pickled copy a worker gets keeps the coefficients and
    # reads them without summing the double-double series again
    calls = []
    real = _dd.dd_div_exact

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(_dd, "dd_div_exact", counting)
    kin = _test_kin(E=50.0)
    dist = DistortionParams.for_momentum(kin.k1)
    dist.fill_band_table()
    assert calls
    copy = pickle.loads(pickle.dumps(dist))
    assert np.array_equal(copy.band_table._coef, dist.band_table._coef)
    # points on +k1, where the 1F1 argument is 2 k1 z: across the whole band
    a = dist.alpha1
    x = np.linspace(_f64_band_edge(a), _asymptotic_edge(a), 500, endpoint=False)
    r1 = np.zeros((len(x), 3))
    r1[:, 2] = x / (2.0 * kin.k1)
    k1_vec = np.array([0.0, 0.0, kin.k1])
    calls.clear()
    got = _coulomb_distortion_many(copy, r1, k1_vec)
    assert calls == []
    assert np.array_equal(got, _coulomb_distortion_many(dist, r1, k1_vec))


def test_azimuth_rotation_and_mirror_of_2p(monkeypatch):
    # each angle reads the cloud at its own azimuth phi and turns T_+1 back
    # by e^{-i phi}; reading the cloud rotated by -phi about k1 in the x-z
    # plane instead must give the same estimates up to rounding (a wrong
    # turn would be off by the factor e^{2i phi})
    kin = _test_kin(E=6.0, theta=40.0, state=PsState(2, 1))
    spec = IntegrationSpec(samples=4096, seed=5)
    plus = PsState(2, 1, 1)
    theta = kin.theta_e
    phi = amplitude_mod._azimuth(theta)
    assert abs(math.sin(phi)) > 0.3
    at_phi = amplitude(kin, plus, [0.0, 0.05], [theta], spec)

    c, s = math.cos(phi), math.sin(phi)
    unrotate = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])

    def rotated(sample):
        def draw(*args):
            vec, dens = sample(*args)
            return vec @ unrotate.T, dens
        return draw

    with monkeypatch.context() as mp:
        for name in ("_vectors_from_uniform", "_vectors_from_uniform_mix"):
            mp.setattr(amplitude_mod, name, rotated(getattr(amplitude_mod, name)))
        mp.setattr(amplitude_mod, "_azimuth", lambda th: 0.0)
        in_plane = amplitude(kin, plus, [0.0, 0.05], [theta], spec)
    assert np.max(np.abs(at_phi - in_plane)) <= 1e-9 * np.max(np.abs(at_phi))
    # m = -1 is the mirror image of m = +1, exactly
    minus = amplitude(kin, PsState(2, 1, -1), [0.0, 0.05], [theta], spec)
    assert np.array_equal(minus, -at_phi)
