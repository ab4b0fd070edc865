import math

import numpy as np
import pytest

from psbar_xsec.amplitude import IntegrationSpec, amplitude
from psbar_xsec.states import (
    BelowThresholdError,
    PsState,
    ScreeningConfig,
    kinematics,
)
from psbar_xsec.xsec import CrossSectionRecord, angular_rule, sdcs, tcs

ST = PsState(1, 0)
SC0 = ScreeningConfig(0.0)


def _amp(kin, spec):
    """(T_hat, sigma_T) of the 1s amplitude at kin.theta_e, from its replicates."""
    reps = amplitude(kin, ST, [0.0], [kin.theta_e], spec)[:, 0, 0]
    se = math.hypot(np.std(reps.real, ddof=1), np.std(reps.imag, ddof=1))
    return reps.mean(), se / math.sqrt(len(reps))


def test_record_validation():
    with pytest.raises(ValueError):
        CrossSectionRecord(ST, 10.0, 0.0, 30.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        CrossSectionRecord(ST, 10.0, 0.0, 30.0, 1.0, -0.1)
    ok = CrossSectionRecord(ST, 5.0, 0.0, None, None, None, status="below_threshold")
    assert ok.value is None


def test_sdcs_nonnegative_and_flux_factor():
    spec = IntegrationSpec(samples=16384, seed=4)
    kin = kinematics(10.0, ST, theta_e=math.radians(35.0))
    rec = sdcs(kin, ST, SC0, spec)
    assert rec.value >= 0.0
    assert rec.std_err >= 0.0
    assert rec.theta_deg == pytest.approx(35.0)
    # reconstruct from the amplitude it wraps
    t, se = _amp(kin, spec)
    flux = kin.k1 / kin.k_i
    want = flux * max(0.0, abs(t) ** 2 - se**2)
    assert rec.value == pytest.approx(want, rel=1e-12)


def test_sdcs_first_order_error_propagation():
    # relative error of the SDCS is twice the amplitude's, to first order
    spec = IntegrationSpec(samples=131072, seed=4)
    kin = kinematics(10.0, ST, theta_e=math.radians(20.0))
    rec = sdcs(kin, ST, SC0, spec)
    t, se = _amp(kin, spec)
    lhs = rec.std_err / rec.value
    rhs = 2.0 * se / abs(t)
    assert lhs == pytest.approx(rhs, rel=0.05)


def test_below_threshold_raises_not_silent_zero():
    spec = IntegrationSpec(samples=2048, seed=1)
    with pytest.raises(BelowThresholdError):
        kinematics(5.0, ST, theta_e=0.5)
    with pytest.raises(BelowThresholdError):
        tcs(5.0, ST, SC0, spec)


def test_angular_integral_of_unity_is_full_solid_angle():
    thetas, weights = angular_rule(16)
    assert np.sum(weights) == pytest.approx(4.0 * math.pi, rel=1e-13)
    assert np.all((thetas > 0.0) & (thetas < math.pi))


def test_angular_integral_resolves_smooth_shape():
    # integrand cos^2(theta/2): integral over solid angle = 2 pi
    thetas, weights = angular_rule(16)
    val = weights @ np.cos(thetas / 2.0) ** 2
    assert val == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_tcs_needs_minimum_order():
    spec = IntegrationSpec(samples=2048, seed=1)
    with pytest.raises(ValueError):
        tcs(10.0, ST, SC0, spec, n_theta=4)


def test_tcs_value_error_and_determinism():
    spec = IntegrationSpec(samples=8192, seed=6)
    a = tcs(10.0, ST, SC0, spec, n_theta=8)
    b = tcs(10.0, ST, SC0, spec, n_theta=8)
    assert a == b
    assert a.value >= 0.0 and a.std_err > 0.0
    assert a.theta_deg is None


def test_tcs_error_calibrated_across_seeds():
    # the nodes share samples, so their errors are correlated; the quoted
    # error (jackknife over replicates, plus full-minus-half rule) must
    # still match the spread of the TCS from seed to seed
    recs = [tcs(10.0, ST, SC0, IntegrationSpec(samples=8192, seed=seed), n_theta=8)
            for seed in range(20)]
    values = np.array([r.value for r in recs])
    errs = np.array([r.std_err for r in recs])
    z_rms = math.sqrt(np.mean(((values - values.mean()) / errs) ** 2))
    assert 0.5 <= z_rms <= 2.0


def test_tcs_matches_dense_trapezoid():
    spec = IntegrationSpec(samples=32768, seed=11)
    rec = tcs(10.0, ST, SC0, spec, n_theta=16)
    thetas = np.linspace(0.0, math.pi, 41)
    recs = sdcs(kinematics(10.0, ST), ST, SC0, spec, thetas=thetas)
    vals = [r.value * math.sin(th) for r, th in zip(recs, thetas)]
    errs = [r.std_err * math.sin(th) for r, th in zip(recs, thetas)]
    trap = 2.0 * math.pi * np.trapezoid(vals, thetas)
    trap_err = 2.0 * math.pi * math.sqrt(np.trapezoid(np.square(errs), thetas))
    comb = math.hypot(rec.std_err, trap_err) + 0.03 * trap  # trapezoid bias
    assert abs(rec.value - trap) < 3.0 * comb


def test_2p_m_average_and_resolved():
    spec = IntegrationSpec(samples=8192, seed=13)
    st = PsState(2, 1, 0)
    kin = kinematics(6.0, st, theta_e=math.radians(40.0))
    avg = sdcs(kin, st, SC0, spec, m_average=True)
    per_m = []
    for m in (-1, 0, 1):
        stm = PsState(2, 1, m)
        per_m.append(sdcs(kin, stm, SC0, spec, m_average=False))
    mean = sum(r.value for r in per_m) / 3.0
    assert avg.value == pytest.approx(mean, rel=1e-12)
    # reflection symmetry: m = +1 and m = -1 give identical estimates with
    # identical random streams only up to statistics; check loosely
    sig = math.hypot(per_m[0].std_err, per_m[2].std_err)
    assert abs(per_m[0].value - per_m[2].value) <= 5.0 * sig + 1e-12
