"""One-factor closed forms and the stationary Pearson density."""

import json
import math
import os
import subprocess
import sys
import textwrap

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import qhr
from qhr import model, moments, scalar


# Exact quantiles of the law at each u, rounded to float: an upper-tail u
# pins the quantile of the exact upper mass 1 - u of the float u.  Rebuilt
# in 40-digit mpmath, from integrals of the density in y, by
# `python tests/highprec_reference.py --pearson`.
PEARSON_QUANTILES = {
    "M3": ((6.0, 0.0133, -0.18, 3.0), (
        (1e-12, -24.29755456162198),
        (1e-08, -3.7664855955087875),
        (0.0001, -0.510993968887893),
        (0.3, -0.00787047939279285),
        (0.7, 0.02123790664609581),
        (0.9999, 0.06530289518442314),
        (0.99999999, 0.10197856977394565),
        (0.999999999999, 0.2254443918208356),
    )),
    "M4": ((6.0, 0.0161811, -0.228, 3.8), (
        (1e-12, -66.98062319991489),
        (1e-08, -7.223817804673369),
        (0.0001, -0.7011139225788512),
        (0.3, -0.006981150484333092),
        (0.7, 0.02350736088765806),
        (0.9999, 0.06662582689177057),
        (0.99999999, 0.11050682552882037),
        (0.999999999999, 0.3468660666447746),
    )),
    "M1": ((6.0, 0.0064, 0.0, 3.6334), (
        (1e-300, -1.494571976236492e+68),
        (1e-200, -8.575339821024703e+44),
        (1e-100, -4.920234971300975e+21),
        (1e-12, -17.364854155079485),
        (0.0001, -0.23698772165286994),
        (0.3, -0.011439543411343121),
        (0.7, 0.011439543411343117),
        (0.9999, 0.23698772165287618),
        (0.999999999999, 17.364943435835663),
    )),
    "M2": ((4.0, 0.0064, 0.0, 2.0), (
        (1e-300, -3.967754201611321e+58),
        (1e-200, -3.96775420161132e+38),
        (1e-100, -3.9677542016113203e+18),
        (1e-12, -9.966410338720909),
        (0.0001, -0.24482521374463487),
        (0.3, -0.014152574937131188),
        (0.7, 0.014152574937131185),
        (0.9999, 0.2448252137446405),
        (0.999999999999, 9.96645443535185),
    )),
    "df 3": ((1.0, 0.01, 0.0, 1.0), (
        (1e-300, -5.964668192930997e+98),
        (1e-200, -2.7685537280513827e+65),
        (1e-100, -1.2850488069380328e+32),
        (1e-12, -596.4668125869429),
        (0.0001, -1.2819336578451508),
        (0.3, -0.033739756644903134),
        (0.7, 0.03373975664490313),
        (0.9999, 1.281933657845198),
        (0.999999999999, 596.471210942538),
    )),
    "gamma/lam 1e-4": ((3.0, 0.01, -1e-06, 0.0003), (
        (1e-12, -0.28736112094074767),
        (1e-06, -0.19411252913356994),
        (0.1, -0.052319615030298715),
        (0.5, 1.1110888885670715e-07),
        (0.999999, 0.19410772885493552),
        (0.999999999999, 0.28735046543396714),
    )),
    "gamma/lam 1e-6": ((3.0, 0.01, -1e-06, 3e-06), (
        (1e-12, -0.28718872723547023),
        (1e-06, -0.19406065809101564),
        (0.1, -0.05231919915290761),
        (0.5, 1.1111108888844675e-07),
        (0.999999, 0.19405585917861107),
        (0.999999999999, 0.2871780788787766),
    )),
    "gamma/lam 1e-8": ((3.0, 0.01, -1e-06, 3e-08), (
        (1e-12, -0.28718700413204806),
        (1e-06, -0.19406013948584594),
        (0.1, -0.05231919499391304),
        (0.5, 1.1111111088844993e-07),
        (0.999999, 0.194055340587102),
        (0.999999999999, 0.28717635584683043),
    )),
}


def closed_form_log_i(a, nu):
    """log I, I = int cos(t)^a exp(nu t) dt over (-pi/2, pi/2), from
    pi Gamma(a+1) / (2^a |Gamma(1 + a/2 + i nu/2)|^2) (Heinrich 2004, "A
    guide to the Pearson type IV distribution") at the working precision;
    in floats that form loses digits in proportion to a."""
    a, nu = mp.mpf(a), mp.mpf(nu)
    return (mp.log(mp.pi) + mp.loggamma(a + 1) - a * mp.log(2)
            - 2 * mp.re(mp.loggamma(mp.mpc(1 + a / 2, nu / 2))))


def reference_logpdf(sp, ys):
    """log p(y) at the working precision: the density in y, normalised by
    closed_form_log_i through the angle map."""
    lam, alpha, beta, gamma = (mp.mpf(v) for v in (sp.lam, sp.alpha,
                                                   sp.beta, sp.gamma))
    sqd = mp.sqrt(alpha * gamma - beta**2)
    a, nu = 2 * lam / gamma, 2 * lam * beta / (gamma * sqd)
    log_scale = mp.log(gamma / sqd) - closed_form_log_i(a, nu)
    return [log_scale - (a / 2 + 1) * mp.log1p(z * z) + nu * mp.atan(z)
            for z in ((beta + gamma * mp.mpf(y)) / sqd for y in ys)]


def tail_rule_log_i(pp):
    """log I from the tail rule's total log Z at the mode, plus the angle
    law's log density there, cos(theta*)^a exp(nu theta*) with
    tan theta* = -cot, at the working precision."""
    a, nu, cot = (mp.mpf(v) for v in (pp._a, pp._nu, pp._cot))
    return mp.mpf(pp._log_z) - a / 2 * mp.log1p(cot**2) - nu * mp.atan(cot)


# Points of the logpdf checks, as quantiles of each law
LOGPDF_QUANTILES = (1e-10, 1e-8, 1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9,
                    0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8, 1 - 1e-10)


def logpdf_error(pp):
    """Largest relative error of pp.pdf at LOGPDF_QUANTILES against
    reference_logpdf at 50 digits."""
    ys = pp.ppf(np.array(LOGPDF_QUANTILES))
    with mp.workdps(50):
        return max(abs(float(mp.expm1(mp.mpf(got) - ref))) for got, ref in
                   zip(pp.logpdf(ys), reference_logpdf(pp.params, ys)))


@pytest.fixture(scope="module")
def sp_m2(models):
    return scalar.ScalarParams.from_model_params(models["M2"])


@pytest.fixture(scope="module")
def sp_m3(models):
    return scalar.ScalarParams.from_model_params(models["M3"])


class TestScalarParams:
    def test_round_trip(self, models):
        sp = scalar.ScalarParams.from_model_params(models["M3"])
        assert (sp.lam, sp.alpha, sp.beta, sp.gamma) == (6.0, 0.0133, -0.18,
                                                         3.0)
        back = sp.to_model_params(label="again")
        assert back.p == 1
        assert back.label == "again"
        assert float(back.gamma_mat[0, 0]) == 3.0

    def test_multifactor_rejected(self, models):
        with pytest.raises(ValueError):
            scalar.ScalarParams.from_model_params(models["MM1"])

    def test_zero_b_rejected(self):
        # b = 0 leaves the offset deterministic: no Pearson IV law to scale
        params = model.ModelParams(lam=[[6.0]], b=[0.0], alpha=0.0133,
                                   beta=[-0.05], gamma_mat=[[0.5]])
        with pytest.raises(ValueError, match=r"requires b != 0"):
            scalar.ScalarParams.from_model_params(params)

    def test_stationary_flag(self):
        assert scalar.ScalarParams(3.0, 0.01, 0.0, 1.9).stationary
        assert not scalar.ScalarParams(3.0, 0.01, 0.0, 2.0).stationary

    def test_parameter_checks(self):
        with pytest.raises(ValueError):
            scalar.ScalarParams(0.0, 0.01, 0.0, 1.0)
        with pytest.raises(ValueError):
            scalar.ScalarParams(1.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("values,clauses", [
        # gamma < 0: sigma^2(y) < 0 for |y| > 0.19
        ((3.0, 0.018, 0.0, -0.5), "bordered matrix not psd"),
        # beta^2 > alpha*gamma: sigma^2(y) < 0 near y = -2
        ((3.0, 0.01, 0.2, 0.1), "bordered matrix not psd"),
        ((-1.0, -0.01, 0.0, 1.0),
         "alpha must be positive; lambda eigenvalues must be positive; "
         "bordered matrix not psd"),
    ])
    def test_inadmissible_law_names_the_clauses(self, values, clauses):
        # the clauses model.validate names for the same one-factor model,
        # so no closed form is ever evaluated on such a law
        with pytest.raises(ValueError) as info:
            scalar.ScalarParams(*values)
        assert str(info.value) == f"inadmissible law: {clauses}"
        assert "; ".join(model.validate(model.ModelParams(
            lam=[[values[0]]], b=[1.0], alpha=values[1], beta=[values[2]],
            gamma_mat=[[values[3]]]))) == clauses

    def test_edge_of_the_psd_link_is_admissible(self):
        # beta^2 = alpha*gamma is admissible; only the angle law needs
        # delta > 0
        sp = scalar.ScalarParams(3.0, 0.01, -0.1, 1.0)
        assert scalar.scalar_kurtosis(sp) > 0
        with pytest.raises(ValueError, match="alpha\\*gamma - beta"):
            scalar.PearsonIV(sp)

    @pytest.mark.parametrize("field", ["lam", "alpha", "beta", "gamma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, bad):
        values = {**dict(lam=3.0, alpha=0.01, beta=0.0, gamma=1.0),
                  field: bad}
        with pytest.raises(ValueError, match=f"{field} is not finite"):
            scalar.ScalarParams(**values)


class TestKurtosis:
    def test_reference_values(self, models):
        k1 = scalar.scalar_kurtosis(
            scalar.ScalarParams.from_model_params(models["M1"]))
        assert f"{k1:.2f}" == "3.00"
        k4 = scalar.scalar_kurtosis(
            scalar.ScalarParams.from_model_params(models["M4"]))
        assert f"{k4:.2f}" == "32.29"

    def test_bounds_attained(self):
        lam, gamma, alpha = 5.0, 2.5, 0.02
        lo, hi = scalar.scalar_kurtosis_bounds(lam, gamma)
        at_zero = scalar.scalar_kurtosis(
            scalar.ScalarParams(lam, alpha, 0.0, gamma))
        at_edge = scalar.scalar_kurtosis(
            scalar.ScalarParams(lam, alpha, -math.sqrt(alpha * gamma), gamma))
        assert at_zero == pytest.approx(lo, rel=1e-13)
        assert at_edge == pytest.approx(hi, rel=1e-13)
        assert lo < hi

    def test_scale_invariance(self, sp_m3):
        # kurtosis depends on (gamma/lam, beta^2/alpha) only
        c = 7.3
        scaled = scalar.ScalarParams(sp_m3.lam, c * sp_m3.alpha,
                                     math.sqrt(c) * sp_m3.beta, sp_m3.gamma)
        assert scalar.scalar_kurtosis(scaled) == pytest.approx(
            scalar.scalar_kurtosis(sp_m3), rel=1e-13)

    def test_nonstationary_rejected(self):
        with pytest.raises(moments.NotStationaryError):
            scalar.scalar_kurtosis(scalar.ScalarParams(1.0, 0.01, 0.0, 0.7))
        with pytest.raises(moments.NotStationaryError):
            scalar.scalar_kurtosis_bounds(1.0, 0.7)
        with pytest.raises(ValueError):
            scalar.scalar_kurtosis_bounds(1.0, -0.1)


def _assert_pinned_quantiles(label, rtol):
    """ppf and cdf at PEARSON_QUANTILES, to rtol of the tail mass."""
    params, pins = PEARSON_QUANTILES[label]
    pp = scalar.PearsonIV(scalar.ScalarParams(*params))
    for u, y in pins:
        # 1 - u is exact for u >= 0.5: the upper tail is checked through
        # ppf(u), as 1 - cdf cancels; the density over the tail is taken in
        # logs, as the density at u = 1e-300 underflows
        tail = u if u < 0.5 else 1.0 - u
        miss = abs(pp.ppf(u) - y) * np.exp(pp.logpdf(y) - math.log(tail))
        assert miss < rtol, (label, u, miss)
        assert abs(pp.cdf(y) - u) < rtol * tail + 2e-16 * (u >= 0.5), (
            label, u)


class TestPearsonDensity:
    def test_normalized(self, sp_m2, sp_m3):
        for sp in (sp_m2, sp_m3):
            pp = scalar.PearsonIV(sp)
            lo, hi = pp.ppf(1e-12), pp.ppf(1.0 - 1e-12)
            val, err = integrate.quad(pp.pdf, lo, hi, limit=200)
            tail = 2e-12  # mass outside the clipped support
            assert abs(val - 1.0) < 1e-8 + tail + 10 * err

    def test_dlogpdf_matches_numerical_derivative(self, sp_m3):
        pp = scalar.PearsonIV(sp_m3)
        ys = np.linspace(pp.ppf(0.01), pp.ppf(0.99), 41)
        h = 1e-6
        numeric = (pp.logpdf(ys + h) - pp.logpdf(ys - h)) / (2.0 * h)
        assert np.abs(pp.dlogpdf(ys) - numeric).max() < 1e-5

    @pytest.mark.parametrize("name", ["M1", "M2", "M3", "M4"])
    def test_dlogpdf_tends_to_zero_at_infinity(self, models, name):
        pp = scalar.PearsonIV(scalar.ScalarParams.from_model_params(
            models[name]))
        assert not pp.gaussian
        with np.errstate(all="raise"):
            assert pp.dlogpdf(np.inf) == 0.0
            assert pp.dlogpdf(-np.inf) == 0.0
            assert np.array_equal(pp.dlogpdf([-np.inf, np.inf]), [0.0, 0.0])
        # finite arguments keep their values
        ys = np.array([-0.3, -0.01, 0.0, 0.02, 0.5])
        assert np.array_equal(pp.dlogpdf(np.append(ys, np.inf))[:-1],
                              pp.dlogpdf(ys))

    def test_pearson_ode_residual(self, sp_m2, sp_m3):
        # p'/p + 2*(beta + (lam+gamma) y)/sigma^2(y) = 0
        for sp in (sp_m2, sp_m3):
            pp = scalar.PearsonIV(sp)
            ys = np.linspace(pp.ppf(1e-4), pp.ppf(1.0 - 1e-4), 101)
            sig2 = sp.alpha + 2.0 * sp.beta * ys + sp.gamma * ys**2
            resid = pp.dlogpdf(ys) + 2.0 * (sp.beta
                                            + (sp.lam + sp.gamma) * ys) / sig2
            assert np.abs(resid).max() < 1e-9

    def test_student_branch_is_beta_exactly_zero(self, sp_m2, sp_m3):
        # `student` names the law, which the angle rule evaluates as any
        # other
        assert scalar.PearsonIV(sp_m2).student
        assert not scalar.PearsonIV(sp_m3).student
        tiny = scalar.ScalarParams(lam=sp_m2.lam, alpha=sp_m2.alpha,
                                   beta=1e-16, gamma=sp_m2.gamma)
        assert not scalar.PearsonIV(tiny).student
        flat = scalar.ScalarParams(lam=1.0, alpha=0.04, beta=0.0, gamma=0.0)
        pp = scalar.PearsonIV(flat)
        assert pp.gaussian and not pp.student

    def test_symmetric_case_is_scaled_student_t(self, sp_m2):
        pp = scalar.PearsonIV(sp_m2)
        df = 2.0 * sp_m2.lam / sp_m2.gamma + 1.0
        scale = math.sqrt(sp_m2.alpha / (2.0 * sp_m2.lam + sp_m2.gamma))
        assert pp.student_df == pytest.approx(df, rel=1e-14)
        assert pp.student_scale == pytest.approx(scale, rel=1e-14)
        ys = np.linspace(-0.5, 0.5, 41)
        ref = stats.t.pdf(ys / scale, df) / scale
        assert np.allclose(pp.pdf(ys), ref, rtol=1e-10)
        us = np.linspace(0.02, 0.98, 20)
        ref_q = scale * stats.t.ppf(us, df)
        assert np.allclose(pp.ppf(us), ref_q, rtol=1e-8, atol=1e-12)

    def test_cdf_ppf_round_trip(self, sp_m3, models):
        pp = scalar.PearsonIV(sp_m3)
        us = np.linspace(0.001, 0.999, 25)
        back = pp.cdf(pp.ppf(us))
        assert np.abs(back - us).max() < 1e-9
        # the heavy lower tails of M3 (df 5) and M4 (df 4.16), where the
        # angle density is a high power of the distance to the grid's end
        tail = np.geomspace(1e-10, 1e-4, 13)
        for name in ("M3", "M4"):
            pp = scalar.PearsonIV(
                scalar.ScalarParams.from_model_params(models[name]))
            back = pp.cdf(pp.ppf(tail))
            assert np.abs(back / tail - 1.0).max() < 1e-9, name
        # and against the exact law, down to 1e-12 in both tails, and to
        # 1e-300 in the lower tail of the symmetric laws
        for label in ("M3", "M4", "M1", "M2", "df 3"):
            _assert_pinned_quantiles(label, 1e-12)

    @pytest.mark.parametrize("label", [
        "gamma/lam 1e-4", "gamma/lam 1e-6", "gamma/lam 1e-8"])
    def test_narrow_skewed_law_quantiles(self, label):
        # a = 2 lam/gamma up to 2e8: the angle density is far narrower than
        # any fixed grid of the angle range
        _assert_pinned_quantiles(label, 1e-9)

    def test_cdf_monotone_with_limits(self, sp_m3):
        pp = scalar.PearsonIV(sp_m3)
        ys = np.linspace(-2.0, 2.0, 301)
        cdf = pp.cdf(ys)
        assert np.all(np.diff(cdf) >= 0)
        assert pp.cdf(-50.0) < 1e-12
        assert pp.cdf(50.0) > 1.0 - 1e-12

    def test_stationary_variance_by_quadrature(self, sp_m2, sp_m3):
        for sp in (sp_m2, sp_m3):
            pp = scalar.PearsonIV(sp)
            q_inf, m3_inf, _ = scalar.scalar_closed_moments(sp)
            mean, _ = integrate.quad(lambda y: y * pp.pdf(y), pp.ppf(1e-13),
                                     pp.ppf(1.0 - 1e-13), limit=300)
            var, _ = integrate.quad(lambda y: y * y * pp.pdf(y),
                                    pp.ppf(1e-13), pp.ppf(1.0 - 1e-13),
                                    limit=300)
            assert abs(mean) < 1e-10
            # truncation at the 1e-13 quantiles still clips a little of the
            # y^2 tail when df is small, so ask for 1e-5 not machine precision
            assert var == pytest.approx(q_inf, rel=1e-5)

    def test_sampling_moments(self, sp_m3):
        pp = scalar.PearsonIV(sp_m3)
        draws = pp.sample(200_000, seed=5)
        q_inf, m3_inf, _ = scalar.scalar_closed_moments(sp_m3)
        assert draws.mean() == pytest.approx(0.0, abs=4 * math.sqrt(
            q_inf / draws.size))
        assert draws.var() == pytest.approx(q_inf, rel=0.05)
        assert np.mean(draws**3) < 0  # beta < 0 skews the offset down
        again = pp.sample(200_000, seed=5)
        assert np.array_equal(draws, again)

    def test_gaussian_branch(self):
        sp = scalar.ScalarParams(3.0, 0.018, 0.0, 0.0)
        pp = scalar.PearsonIV(sp)
        assert pp.gaussian
        sd = math.sqrt(sp.alpha / (2.0 * sp.lam))
        ys = np.linspace(-0.2, 0.2, 21)
        assert np.allclose(pp.pdf(ys), stats.norm.pdf(ys, scale=sd),
                           rtol=1e-12)
        assert np.allclose(pp.dlogpdf(ys), -ys / sd**2, rtol=1e-12)
        us = np.linspace(0.01, 0.99, 11)
        assert np.allclose(pp.ppf(us), stats.norm.ppf(us, scale=sd),
                           rtol=1e-10, atol=1e-14)
        draws = pp.sample(50_000, seed=11)
        assert draws.std() == pytest.approx(sd, rel=0.02)

    def test_bit_identical_to_scipy_stats(self, sp_m2):
        # the Gaussian closed forms are what scipy.stats.norm evaluates, bit
        # for bit; the Student laws' quantiles, from the angle rule, match
        # scipy.stats.t relative to |q| + scale
        rng = np.random.default_rng(41)
        us = np.concatenate([rng.random(2000), [0.5, 1e-12, 1.0 - 1e-12]])
        gauss = scalar.PearsonIV(scalar.ScalarParams(3.0, 0.018, 0.0, 0.0))
        sd = gauss._sd
        ys = rng.normal(scale=4.0 * sd, size=2000)
        assert np.array_equal(gauss.logpdf(ys),
                              stats.norm.logpdf(ys, scale=sd))
        assert np.array_equal(gauss.cdf(ys), stats.norm.cdf(ys, scale=sd))
        assert np.array_equal(gauss.ppf(us), stats.norm.ppf(us, scale=sd))
        for y, u in zip(ys[:50], us[:50]):
            assert gauss.logpdf(y) == stats.norm.logpdf(y, scale=sd)
            assert gauss.cdf(y) == stats.norm.cdf(y, scale=sd)
            assert gauss.ppf(u) == stats.norm.ppf(u, scale=sd)
        for sp in (sp_m2, scalar.ScalarParams(3.0, 0.01, 0.0, 1.2),
                   scalar.ScalarParams(3.0, 0.01, 0.0, 0.3)):
            pp = scalar.PearsonIV(sp)
            want = pp.student_scale * stats.t.ppf(us, pp.student_df)
            err = np.abs(pp.ppf(us) - want) / (np.abs(want)
                                                 + pp.student_scale)
            assert err.max() < 1e-14, (sp, err.max())
            for u, q in zip(us[:50], want[:50]):
                assert abs(pp.ppf(u) - q) < 1e-14 * (abs(q)
                                                     + pp.student_scale)

    def test_quantile_ends(self, sp_m2, sp_m3):
        # both branches, beta = 0 included: NaN outside [0, 1], -inf at 0,
        # +inf at 1
        gauss = scalar.ScalarParams(3.0, 0.018, 0.0, 0.0)
        us = np.array([-0.2, 0.0, 1.0, 1.5, np.nan])
        for sp in (gauss, sp_m2, sp_m3):
            pp = scalar.PearsonIV(sp)
            out = pp.ppf(us)
            assert np.isnan(out[[0, 3, 4]]).all()
            assert out[1] == -np.inf and out[2] == np.inf
            assert [pp.ppf(u) for u in (0.0, 1.0)] == [-np.inf, np.inf]
            assert math.isnan(pp.ppf(-0.2)) and math.isnan(pp.ppf(1.5))
            inner = pp.ppf(np.array([1e-12, 0.5, 1.0 - 1e-12]))
            assert np.isfinite(inner).all() and np.all(np.diff(inner) > 0)

    def test_rejects_inadmissible_links(self):
        with pytest.raises(ValueError):
            scalar.PearsonIV(scalar.ScalarParams(3.0, 0.018, 0.05, 0.0))
        with pytest.raises(ValueError):
            # delta = alpha*gamma - beta^2 = 0 degenerates the angle map
            scalar.PearsonIV(scalar.ScalarParams(3.0, 0.01, math.sqrt(0.01),
                                                 1.0))
        with pytest.raises(ValueError, match="bordered matrix not psd"):
            # sigma^2(y) < 0 for |y| > 0.19: not the Gaussian limit
            scalar.PearsonIV(scalar.ScalarParams(3.0, 0.018, 0.0, -0.5))

    @pytest.mark.parametrize("label,params,rtol", [
        ("M1", None, 1e-14), ("M2", None, 1e-14), ("M3", None, 1e-14),
        ("M4", None, 1e-14),
        ("a = 2e4", (3.0, 0.01, -1e-6, 3e-4), 1e-13),
        ("a = 2e6", (3.0, 0.01, -1e-6, 3e-6), 1e-12),
        ("a = 2e8", (3.0, 0.01, -1e-6, 3e-8), 1e-11)])
    def test_logpdf_matches_mpmath(self, models, label, params, rtol):
        # relative to the mode, no term of logpdf grows with a = 2 lam/gamma
        sp = (scalar.ScalarParams.from_model_params(models[label])
              if params is None else scalar.ScalarParams(*params))
        err = logpdf_error(scalar.PearsonIV(sp))
        assert err < rtol, (label, err)

    def test_logpdf_at_infinity(self, models):
        for name in ("M1", "M3"):
            pp = scalar.PearsonIV(
                scalar.ScalarParams.from_model_params(models[name]))
            assert (pp.logpdf(np.array([-np.inf, np.inf])) == -np.inf).all()

    @pytest.mark.parametrize("label,params,rtol", [
        ("M1", None, 1e-15), ("M2", None, 1e-15), ("M3", None, 1e-15),
        ("M4", None, 1e-15),
        ("a = 2e4", (3.0, 0.01, -1e-6, 3e-4), 1e-12),
        ("a = 2e6", (3.0, 0.01, -1e-6, 3e-6), 1e-12),
        ("a = 2e8", (3.0, 0.01, -1e-6, 3e-8), 1e-10)])
    def test_angle_normalizer_matches_closed_form(self, models, label,
                                                  params, rtol):
        # the tail rule's total, with the mode's density, against the
        # closed form at 50 digits
        sp = (scalar.ScalarParams.from_model_params(models[label])
              if params is None else scalar.ScalarParams(*params))
        pp = scalar.PearsonIV(sp)
        with mp.workdps(50):
            err = abs(float(mp.expm1(tail_rule_log_i(pp)
                                     - closed_form_log_i(pp._a, pp._nu))))
        assert err < rtol, (label, err)

    def test_symmetric_cdf_is_student_t(self, models):
        # the angle rule against scipy's Student t, relative to the nearer
        # tail
        rng = np.random.default_rng(43)
        for name in ("M1", "M2"):
            pp = scalar.PearsonIV(
                scalar.ScalarParams.from_model_params(models[name]))
            ys = rng.normal(scale=4.0 * pp.student_scale, size=500)
            want = stats.t.cdf(ys, pp.student_df, scale=pp.student_scale)
            err = np.abs(pp.cdf(ys) - want) / np.minimum(want, 1.0 - want)
            assert err.max() < 1e-12, (name, err.max())

    # lam = 3, alpha = 0.01: admissible laws down to gamma/lam = 1/150, with
    # a = 2 lam/gamma up to 300
    @pytest.mark.parametrize("gamma,beta", [
        (0.15, 0.0), (0.1, 0.0), (0.08, 0.0), (0.05, 0.0), (0.02, 0.0),
        (0.05, -0.01), (0.02, -0.005)])
    def test_small_gamma_law_round_trips(self, gamma, beta):
        pp = scalar.PearsonIV(scalar.ScalarParams(3.0, 0.01, beta, gamma))
        us = np.concatenate([np.geomspace(1e-6, 0.5, 40),
                             1.0 - np.geomspace(1e-4, 0.5, 40)])
        qs = pp.ppf(us)
        assert np.isfinite(qs).all()
        assert np.abs(pp.cdf(qs) / us - 1.0).max() < 1e-12


def test_far_tail_of_a_strongly_skewed_law():
    # a = 4, nu = 15.6: at u = 1e-100 the Laplace start leaves the log tail
    # 187 too high, and each Halley step passes t = 0.  Such a step is a
    # Newton step in log t: halving t 40 times would not reach the root.
    alpha, gamma = 0.03125, 0.5
    beta = 0.96875 * math.sqrt(alpha * gamma)
    pp = scalar.PearsonIV(scalar.ScalarParams(1.0, alpha, beta, gamma))
    us = np.geomspace(1e-130, 1e-70, 13)
    qs = pp.ppf(us)
    assert np.isfinite(qs).all() and np.all(np.diff(qs) > 0)
    assert np.abs(pp.cdf(qs) / us - 1.0).max() < 1e-12


# u from 1e-300 to 1/2 in the lower tail, and 1 - u from 1e-12 to 0.4 in
# the upper one: exact in floats, increasing
PROPERTY_US = np.concatenate([np.geomspace(1e-300, 0.5, 31),
                              1.0 - np.geomspace(0.4, 1e-12, 12)])


@settings(deadline=None, max_examples=60)
@given(lam=st.floats(0.5, 10.0), ratio=st.floats(1.0 / 150.0, 0.66),
       alpha=st.floats(1e-3, 0.05),
       skew=st.one_of(st.just(0.0), st.floats(-0.9, 0.9)))
def test_ppf_round_trips_on_random_laws(lam, ratio, alpha, skew):
    # admissible laws, gamma/lam from 1/150 to 2/3 (a = 2 lam/gamma up to
    # 300) and beta up to 0.9 sqrt(alpha*gamma), beta = 0 (the Student
    # laws) drawn as often as not: ppf is finite and increasing, and cdf
    # there returns u within 1e-12 of the nearer tail.  The upper tail
    # 1 - u is read from the law mirrored by beta -> -beta at -q, as 1 - cdf
    # cancels.  Past |beta| = 0.9 sqrt(alpha*gamma) the angle law's terms
    # a log sin u and nu u cancel to more than that (1.3e-12 at
    # gamma/lam = 0.01 and |beta| = 0.99 sqrt(alpha*gamma)).
    gamma = ratio * lam
    beta = skew * math.sqrt(alpha * gamma)
    pp = scalar.PearsonIV(scalar.ScalarParams(lam, alpha, beta, gamma))
    mirror = scalar.PearsonIV(scalar.ScalarParams(lam, alpha, -beta, gamma))
    qs = pp.ppf(PROPERTY_US)
    assert np.isfinite(qs).all() and np.all(np.diff(qs) > 0)
    lower = PROPERTY_US < 0.5
    tails = np.where(lower, PROPERTY_US, 1.0 - PROPERTY_US)
    mass = np.where(lower, pp.cdf(qs), mirror.cdf(-qs))
    assert np.abs(mass / tails - 1.0).max() < 1e-12


def test_import_leaves_heavy_scipy_unloaded():
    # a fresh interpreter: this process already holds scipy.stats.  No law,
    # and no density run, loads a heavy scipy submodule.
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        import qhr, qhr.cli
        heavy = ("scipy.stats", "scipy.integrate", "scipy.interpolate",
                 "scipy.optimize")
        loaded = [[m for m in heavy if m in sys.modules]]
        from qhr import scalar
        gauss = scalar.PearsonIV(scalar.ScalarParams(3.0, 0.018, 0.0, 0.0))
        laws = [scalar.PearsonIV(scalar.ScalarParams.from_model_params(
            qhr.load_fixture(name))) for name in ("M2", "M3", "M4")]
        values = [gauss.ppf(0.3)] + [v for pp in laws for v in (
            pp.ppf(0.3), pp.cdf(0.1), float(pp.sample(1000, 7).sum()))]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [qhr.cli.main(["density", "--model", name])
                     for name in ("M1", "M3")]
        loaded.append([m for m in heavy if m in sys.modules])
        print(json.dumps([loaded, codes, values]))
    """)
    src = os.path.dirname(os.path.dirname(qhr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, codes, values = json.loads(proc.stdout)
    assert loaded == [[], []] and codes == [0, 0]
    gauss = scalar.PearsonIV(scalar.ScalarParams(3.0, 0.018, 0.0, 0.0))
    laws = [scalar.PearsonIV(scalar.ScalarParams.from_model_params(
        qhr.load_fixture(name))) for name in ("M2", "M3", "M4")]
    assert values == [gauss.ppf(0.3)] + [v for pp in laws for v in (
        pp.ppf(0.3), pp.cdf(0.1), float(pp.sample(1000, 7).sum()))]
