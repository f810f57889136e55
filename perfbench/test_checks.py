"""Tests of the benchmark's own references and checks.

    python3 -m pytest -q perfbench

The references are pinned against values derived by hand, and every check
is shown to reject a slightly wrong output.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402


# ---------------------------------------------------------------------------
# references against hand values


def test_bs_call_atm_is_erf():
    # at K = 1: C = N(s/2) - N(-s/2) = erf(s / (2 sqrt 2)), s = vol sqrt(T)
    for vol, t in ((0.2, 1.0), (0.35, 0.25), (0.05, 2.0)):
        s = vol * math.sqrt(t)
        assert checks.bs_call(1.0, t, vol) == pytest.approx(
            math.erf(s / (2.0 * math.sqrt(2.0))), rel=1e-13)
    assert checks.bs_call(1.0, 1.0, 0.2) == pytest.approx(0.0796556745540577,
                                                          rel=1e-13)


def test_bs_call_limits():
    # deep in the money the call is its intrinsic value, far out it is 0
    assert checks.bs_call(0.2, 0.25, 0.1) == pytest.approx(0.8, abs=1e-15)
    assert abs(checks.bs_call(5.0, 0.25, 0.1)) < 1e-200


def test_stationary_variance_hand_values():
    # p = 1: alpha / (1 - gamma / (2 lam)); M2 has alpha 0.0064, lam 4, gamma 2
    assert checks.stationary_variance([[4.0]], [1.0], 0.0064, [[2.0]]) == \
        pytest.approx(0.0064 / 0.75, rel=1e-14)
    # diagonal lam: Q1_ij = b_i b_j / (lam_i + lam_j)
    s2 = checks.stationary_variance(np.diag([1.0, 3.0]), [1.0, 1.0], 0.02,
                                    np.diag([0.5, 0.6]))
    assert s2 == pytest.approx(0.02 / (1.0 - 0.5 / 2.0 - 0.6 / 6.0), rel=1e-14)
    # MM1, a cascade: Q1 = [[1/2, 1/14], [1/14, 1/84]], tr(Gamma Q1) = 53/525
    s2 = checks.stationary_variance([[1.0, 0.0], [-1.0, 6.0]], [1.0, 0.0],
                                    0.01, 2.0 * np.outer([0.2, 0.8], [0.2, 0.8]))
    assert s2 == pytest.approx(0.01 * 525.0 / 472.0, rel=1e-13)


def test_scalar_closed_forms_hand_values():
    # M2 (beta = 0): m2 = alpha / (2 lam - gamma), kurtosis
    # (2 lam - gamma)(lam - gamma) / (lam (2 lam - 3 gamma)) = 6 * 2 / (4 * 2)
    m2, m3, m4, s2, kurt = checks.scalar_closed_forms(4.0, 0.0064, 0.0, 2.0)
    assert (m2, m3) == (pytest.approx(0.0064 / 6.0, rel=1e-15), 0.0)
    assert s2 == pytest.approx(0.0064 / 0.75, rel=1e-14)
    assert kurt == pytest.approx(1.5, rel=1e-14)
    # M4-like tilt: kurtosis (2l - g)/(2l - 3g) * ((l - g)/l
    #   + (2l - g)/(l - g) * beta^2 / (l alpha)) with l = 6, g = 3
    lam, alpha, beta, gamma = 6.0, 0.0133, -0.18, 3.0
    m2, m3, m4, s2, kurt = checks.scalar_closed_forms(lam, alpha, beta, gamma)
    assert m2 == pytest.approx(0.0133 / 9.0, rel=1e-14)
    assert m3 == pytest.approx(-0.36 * 0.0133 / 27.0, rel=1e-14)
    assert s2 == pytest.approx(alpha / (1.0 - gamma / (2.0 * lam)), rel=1e-14)
    assert kurt == pytest.approx(3.0 * (0.5 + 3.0 * 0.0324 / (6.0 * 0.0133)),
                                 rel=1e-13)


def test_rank_one_floor_hand_values():
    # R4: alpha - beta0^2 / gamma0 = 0.01 - 0.0064 / 2
    assert checks.rank_one_floor(0.01, -0.08, 2.0) == pytest.approx(0.0068)
    w = np.array(inputs.R4["w"])
    assert checks.variance_floor(0.01, -0.08 * w, 2.0 * np.outer(w, w)) == \
        pytest.approx(0.0068, rel=1e-12)
    # full-rank Gamma: alpha - beta' Gamma^-1 beta
    assert checks.variance_floor(0.02, [0.01, -0.02], np.diag([0.5, 2.0])) == \
        pytest.approx(0.02 - 0.0001 / 0.5 - 0.0004 / 2.0, rel=1e-14)


def test_generated_models_meet_the_sufficient_condition():
    rng = np.random.default_rng(5)
    for p, cascade in inputs.HIGHP:
        doc = inputs.generated_model(rng, p, cascade)
        lam, b, alpha, beta, gamma = inputs.raw_params(doc)
        kt = inputs.kappa_tilde(lam, b, np.asarray(doc["w"]), doc["gamma0"])
        assert 0.15 <= kt <= 0.5 and gamma.min() >= 0.0
        assert beta @ beta <= alpha * np.trace(gamma) + 1e-15
        blocks = np.abs(np.diag(lam, -1)) > 0
        assert blocks.any() == cascade


# ---------------------------------------------------------------------------
# each check rejects a perturbed output


def test_node_ivol_rejects_vol_off_by_1e4():
    k, t, vol = 1.1, 0.5, 0.2
    call = float(checks.bs_call(k, t, vol))
    put = call - 1.0 + k
    assert checks.node_ivol(call, put, k, t, vol)[0]
    assert not checks.node_ivol(call, put, k, t, vol + 1e-4)[0]
    assert not checks.node_ivol(call, put, k, t, vol - 1e-4)[0]


def test_node_ivol_nan_rule():
    # K < 1: the put is out of the money; NaN is allowed only at its bounds
    assert not checks.node_ivol(0.3000001, 1e-7, 0.7, 0.25, math.nan)[0]
    assert checks.node_ivol(0.3, 0.0, 0.7, 0.25, math.nan)[0]
    # K > 1: the call is out of the money
    assert checks.node_ivol(0.0, 0.4, 1.4, 0.25, math.nan)[0]
    assert not checks.node_ivol(1e-5, 0.40001, 1.4, 0.25, math.nan)[0]


def test_close_rejects_sigma_infty_off_in_sixth_digit():
    s2 = checks.stationary_variance([[4.0]], [1.0], 0.0064, [[2.0]])
    sigma = math.sqrt(s2)
    assert checks.close(sigma ** 2, s2, 1e-10)[0]
    assert not checks.close((sigma * (1.0 + 1e-6)) ** 2, s2, 1e-10)[0]


def test_zband_rejects_six_standard_errors():
    assert checks.zband(1.0 + 4.9e-4, 1e-4, 1.0)[0]
    assert not checks.zband(1.0 + 6e-4, 1e-4, 1.0)[0]


def test_call_shape_rejects_a_bump():
    k = np.exp(np.linspace(-0.4, 0.4, 17))
    calls = checks.bs_call(k, 0.5, 0.2)
    assert checks.call_shape(k, calls)[0]
    # 1e-9 above the chord through its neighbours breaks convexity
    bumped = calls.copy()
    w = (k[9] - k[8]) / (k[9] - k[7])
    bumped[8] = w * calls[7] + (1.0 - w) * calls[9] + 1e-9
    assert not checks.call_shape(k, bumped)[0]
    rising = calls.copy()
    rising[-1] = rising[-2] + 1e-9
    assert not checks.call_shape(k, rising)[0]


def test_parity_rejects_a_gap():
    k = np.array([0.9, 1.0, 1.1])
    calls = checks.bs_call(k, 1.0, 0.2)
    puts = calls - 1.0 + k
    assert checks.parity(calls, puts, k, 1e-4)[0]
    assert not checks.parity(calls + np.array([0, 6e-4, 0]), puts, k, 1e-4)[0]


def test_flat_vol_band_rejects_a_shifted_vol():
    k, t, sigma, se = 1.05, 1.0, 0.2, 1e-4
    band = checks.Z * se / checks.bs_vega(k, t, sigma)
    assert checks.flat_vol_band(sigma + 0.9 * band, se, k, t, sigma)[0]
    assert not checks.flat_vol_band(sigma + 1.1 * band, se, k, t, sigma)[0]


def test_density_mass_rejects_a_scaled_pdf():
    ys = np.linspace(-8.0, 8.0, 2001)
    pdf = np.exp(-0.5 * ys ** 2) / math.sqrt(2.0 * math.pi)
    mass = 1.0 - 2.0 * checks.ndtr(-8.0)
    assert checks.close(checks.trapezoid_mass(ys, pdf), mass, 1e-5)[0]
    assert not checks.close(checks.trapezoid_mass(ys, 1.001 * pdf), mass,
                            1e-5)[0]


def test_parse_csv_reads_provenance_and_columns():
    text = ("# qhr 0.1.0\n# forward T=0.25 mean=1.0 se=0.001\n"
            "maturity,log_moneyness,ivol\n0.25,-0.1,nan\n0.25,0,0.2\n")
    comments, header, rows = checks.parse_csv(text)
    assert comments[1].startswith("# forward") and header[2] == "ivol"
    cols = checks.table(text)
    assert np.isnan(cols["ivol"][0]) and cols["ivol"][1] == 0.2
