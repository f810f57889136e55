"""End-to-end acceptance checks.

One test per agreed deliverable property: reference-table reproduction for
the bundled models, structural identities of the moment system, the
stationary law of the scalar offset, and statistical agreement between the
analytic formulas and the Monte Carlo pipelines.  Monte Carlo comparisons
use pinned seeds and a 3-standard-error band; tolerances on table values are
one unit in the last displayed digit.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.linalg import expm

from kron_reference import full_system
from qhr import forward, moments, pricing
from qhr.mc import McConfig, StationaryInit, estimate_cov_eta_xi2, simulate
from qhr.model import JordanSpec, ModelParams, diagnostics, load_fixture
from qhr.moments import build_moment_system, check_stability_sufficient
from qhr.scalar import PearsonIV, ScalarParams


# --------------------------------------------------------------------------
# reference diagnostics for the bundled models, in display units
# (rates and kurtosis plain, volatilities in percent, y_min at 4 decimals)

SCALAR_TABLE = {
    #        2l-g   s_min  y_min  sqrt(v_inf)  kurt
    "M1": (8.37, 8.00, 0.00, 9.58, 3.00),
    "M2": (6.00, 8.00, 0.00, 9.24, 1.50),
    "M3": (9.00, 5.00, 0.06, 13.32, 5.15),
    "M4": (8.20, 5.00, 0.06, 15.39, 32.29),
}

MULTI_TABLE = {
    #        mu2   mu3   mu4   kappa  k_tilde  y_min               s_min  sqrt(v_inf)  kurt
    "MM1": (1.75, 2.28, 2.60, 0.10, 0.49, (0.0000, 0.0000), 10.00, 10.55, 1.03),
    "MM2": (1.66, 2.01, 2.11, 0.14, 0.68, (0.0000, 0.0000), 10.00, 10.79, 1.07),
    "MM3": (1.66, 2.01, 2.11, 0.14, 0.68, (0.0192, 0.0767), 5.00, 12.95, 1.90),
    "MM4": (1.66, 1.98, 1.99, 0.16, 2.26, (0.0148, 0.0592), 5.00, 13.10, 2.17),
    "MM5": (8.62, 8.42, 5.22, 0.26, 0.54, (0.0606, 0.0121), 5.00, 13.94, 5.93),
}

# second-moment block spectra for the mixture form of the same models
# (diagonal filter matrix, unit loading, rank-one quadratic coefficient)
SPECTRUM_ROWS = [
    ("MM1", np.diag([1.0, 6.0]), (1.0, 1.0), (0.2, 0.8), 2.0,
     [(1.89, 0.0), (6.20, 0.0), (7.00, 0.0), (10.91, 0.0)]),
    ("MM2", np.diag([1.0, 6.0]), (1.0, 1.0), (0.2, 0.8), 2.8,
     [(1.83, 0.0), (5.79, 0.0), (7.00, 0.0), (10.58, 0.0)]),
    ("MM3", np.diag([1.0, 6.0]), (1.0, 1.0), (0.2, 0.8), 2.8,
     [(1.83, 0.0), (5.79, 0.0), (7.00, 0.0), (10.58, 0.0)]),
    ("MM4", np.diag([1.0, 12.0]), (1.0, 1.0), (0.2, 0.8), 4.7,
     [(1.74, 0.0), (11.09, 0.0), (13.00, 0.0), (21.47, 0.0)]),
    ("MM5", np.array([[6.0, 0.0], [-6.0, 6.0]]), (1.0, 0.0), (1.0, 0.2), 3.0,
     [(7.15, 0.0), (12.00, 0.0), (12.93, -0.96), (12.93, 0.96)]),
]

ULP = 0.01 + 1e-9


def _zband(mean, se, target, label, bad, limit=3.0, floor=1e-12):
    """Collect a mismatch when |mean - target| exceeds limit * se, with an
    absolute floor for estimates whose error cancels exactly."""
    diff = abs(mean - target)
    if se == 0.0:
        if diff > floor:
            bad.append(f"{label}: diff {diff:.3e} with zero standard error")
    elif diff > limit * se:
        bad.append(f"{label}: z = {diff / se:.2f}")


def test_01_scalar_model_table_reproduced():
    t0 = time.monotonic()
    bad = []
    for name, row in SCALAR_TABLE.items():
        d = diagnostics(load_fixture(name))
        got = (d.mu2, 100.0 * d.sigma_min, float(d.y_min[0]),
               100.0 * d.sigma_infty, d.kurt_infty)
        cols = ("2lam-gam", "sigma_min", "y_min", "sigma_infty", "kurt")
        for col, g, want in zip(cols, got, row):
            if abs(g - want) > ULP:
                bad.append(f"{name} {col}: computed {g:.4f}, table {want}")
    elapsed = time.monotonic() - t0
    assert not bad, "; ".join(bad)
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_02_multifactor_model_table_reproduced():
    t0 = time.monotonic()
    bad = []
    for name, row in MULTI_TABLE.items():
        d = diagnostics(load_fixture(name))
        mu2, mu3, mu4, kap, kt, y_min, s_min, s_inf, kurt = row
        scalar_cols = (
            ("mu2", d.mu2, mu2, ULP),
            ("mu3", d.mu3, mu3, ULP),
            ("mu4", d.mu4, mu4, ULP),
            ("kappa", d.kappa, kap, ULP),
            ("kappa_tilde", d.kappa_tilde, kt, ULP),
            ("sigma_min", 100.0 * d.sigma_min, s_min, ULP),
            ("sigma_infty", 100.0 * d.sigma_infty, s_inf, ULP),
            ("kurt", d.kurt_infty, kurt, ULP),
        )
        for col, g, want, tol in scalar_cols:
            if abs(g - want) > tol:
                bad.append(f"{name} {col}: computed {g:.4f}, table {want}")
        for i, want in enumerate(y_min):
            if abs(float(d.y_min[i]) - want) > 1e-4 + 1e-9:
                bad.append(f"{name} y_min[{i}]: computed "
                           f"{float(d.y_min[i]):.6f}, table {want}")
    elapsed = time.monotonic() - t0
    assert not bad, "; ".join(bad)
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_03_second_moment_spectra_reproduced():
    bad = []
    for name, lam, b, w, g0, want in SPECTRUM_ROWS:
        w = np.asarray(w)
        params = ModelParams(lam=lam, b=np.asarray(b), alpha=0.01,
                             beta=np.zeros(2), gamma_mat=g0 * np.outer(w, w))
        eigs = diagnostics(params).eig_block2
        if np.all(np.abs(lam - np.diag(np.diag(lam))) < 1e-14):
            # distinct diagonal filter rates: the spectrum must be real
            if np.abs(eigs.imag).max() > 1e-8:
                bad.append(f"{name}: complex eigenvalue in a distinct-root "
                           f"model: {eigs}")
        for ev, (re, im) in zip(eigs, want):
            if abs(ev.real - re) > ULP or abs(ev.imag - im) > ULP:
                bad.append(f"{name}: eigenvalue {ev:.4f} vs table "
                           f"{re}{im:+}j")
    assert not bad, "; ".join(bad)


def _random_canonical_model(rng):
    """Random admissible model in canonical filter coordinates: a random
    block partition with well-separated positive rates, an entrywise
    positive quadratic coefficient scaled so the sufficient-condition
    statistic lands uniformly inside (0, 2/3).  The statistic is built from
    the fastest rate, as in `check_stability_sufficient`; the slowest-rate
    form is not sufficient once the rates are well separated."""
    p = int(rng.integers(1, 4))
    sizes = []
    left = p
    while left > 0:
        s = int(rng.integers(1, left + 1))
        sizes.append(s)
        left -= s
    rates = np.sort(rng.uniform(0.3, 15.0, len(sizes)))[::-1]
    while len(rates) > 1 and np.min(-np.diff(rates)) < 1e-3:
        rates = np.sort(rng.uniform(0.3, 15.0, len(sizes)))[::-1]
    spec = JordanSpec(tuple((float(r), s) for r, s in zip(rates, sizes)))
    lam = spec.lambda_matrix()
    b = spec.b_vector()
    m = rng.uniform(0.0, 1.0, (p, p))
    gam = m.T @ m
    linv_b = np.linalg.solve(lam, b)
    quad_form = float(linv_b @ gam @ linv_b)
    lam_max = float(np.linalg.eigvals(lam).real.max())
    target = rng.uniform(0.05, 0.95) * (2.0 / 3.0)
    gam *= target / (lam_max * quad_form)
    return ModelParams(lam=lam, b=b, alpha=0.01, beta=np.zeros(p),
                       gamma_mat=gam)


def test_04_sufficient_stability_condition_sound():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240817)
    bad = []
    for i in range(500):
        params = _random_canonical_model(rng)
        kt, passes = check_stability_sufficient(params)
        assert passes, f"draw {i}: statistic {kt:.4f} not below 2/3"
        eigs = np.linalg.eigvals(full_system(params).a_full)
        worst = float(eigs.real.min())
        if worst <= 0.0:
            bad.append(f"draw {i}: kappa_tilde = {kt:.4f} < 2/3 but "
                       f"min Re eig(A) = {worst:.4f}")
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    assert not bad, (f"{len(bad)}/500 admissible models violate the "
                     f"sufficient condition: " + "; ".join(bad[:6]))


def _monomial_estimates(batch, idx):
    """Monte Carlo estimates of the monomials y^e of degree 1..4 (the S
    coordinates) at one snapshot, with pair-aware standard errors."""
    return batch.mean_se(moments.monomials(batch.y[idx], 4).T)


def test_05_conditional_moments_match_simulation():
    cfg = McConfig(n_paths=100_000, horizon=1.0, seed=22,
                   steps_per_year=500, antithetic=True)
    bad = []
    for name in ("M1", "MM3"):
        params = load_fixture(name)
        sys_ = build_moment_system(params)
        p = params.lam.shape[0]
        batch = simulate(params, cfg, probes=[0.1, 0.5])
        for t in (0.1, 0.5, 1.0):
            ana = moments.conditional_moments(sys_, np.zeros(p), t)
            mean, se = _monomial_estimates(batch, batch.time_index(t))
            for j in range(ana.size):
                _zband(mean[j], se[j], ana[j], f"{name} t={t} comp {j}", bad)
    assert not bad, "; ".join(bad)


def test_06_forward_variance_matches_simulation():
    starts = {"M2": ([0.0], [0.08], [-0.06]),
              "MM3": ([0.0, 0.0], [0.08, 0.03], [-0.05, 0.02])}
    cfg = McConfig(n_paths=50_000, horizon=2.0, seed=7,
                   steps_per_year=2000, antithetic=True)
    bad = []
    for name, y0s in starts.items():
        params = load_fixture(name)
        sys_ = build_moment_system(params)
        for y0 in y0s:
            y0 = np.asarray(y0)
            eta0 = moments.monomials(y0, 2)
            batch = simulate(params, replace(cfg, y0=y0),
                             probes=[0.25, 1.0])
            for s in (0.25, 1.0, 2.0):
                ana = forward.forward_variance(sys_, eta0, s)
                mean, se = batch.mean_se(batch.sigma2(batch.time_index(s)))
                _zband(mean, se, ana, f"{name} y0={y0.tolist()} s={s}", bad)
    assert not bad, "; ".join(bad)
    # every bundled model relaxes to the stationary variance level
    for name in list(SCALAR_TABLE) + list(MULTI_TABLE):
        params = load_fixture(name)
        sys_ = build_moment_system(params)
        rate = float(np.linalg.eigvals(params.lam).real.min())
        v_far = forward.forward_variance(sys_, np.zeros(sys_.n_eta),
                                         10.0 / rate)
        rel = abs(v_far - sys_.sigma2_infty) / sys_.sigma2_infty
        assert rel < 1e-3, f"{name}: relative gap {rel:.2e}"


def test_07_stationary_offset_law():
    t0 = time.monotonic()
    # normalization and the defining log-derivative identity
    for name in ("M3", "M4"):
        sp = ScalarParams.from_model_params(load_fixture(name))
        law = PearsonIV(sp)
        lo, hi = law.ppf(1e-12), law.ppf(1.0 - 1e-12)
        mass, err = quad(law.pdf, lo, hi, limit=200)
        assert abs(mass - 1.0) < 1e-8, f"{name}: mass {mass}"
        ys = law.ppf(np.linspace(0.001, 0.999, 61))
        sig2 = sp.alpha + 2.0 * sp.beta * ys + sp.gamma * ys * ys
        resid = law.dlogpdf(ys) + 2.0 * (sp.beta + (sp.lam + sp.gamma) * ys) / sig2
        assert np.abs(resid).max() < 1e-9, f"{name}: residual {resid}"
    # symmetric case degenerates to a rescaled Student t
    sp2 = ScalarParams.from_model_params(load_fixture("M2"))
    law2 = PearsonIV(sp2)
    u = np.linspace(0.02, 0.98, 20)
    df = 2.0 * sp2.lam / sp2.gamma + 1.0
    scale = math.sqrt(sp2.alpha / (2.0 * sp2.lam + sp2.gamma))
    ref = scale * stats.t.ppf(u, df=df)
    assert np.abs(law2.ppf(u) - ref).max() < 1e-8
    # a long simulation is distributed per the analytic law
    cfg = McConfig(n_paths=100_000, horizon=2.5, seed=42,
                   steps_per_year=1000, antithetic=False)
    sample = np.sort(simulate(load_fixture("M2"), cfg).y_terminal[:, 0])
    n = sample.size
    grid = law2.cdf(sample)
    ks = max(np.abs(grid - np.arange(1, n + 1) / n).max(),
             np.abs(grid - np.arange(n) / n).max())
    crit = 1.628 / math.sqrt(n)  # 1% point of the Kolmogorov statistic
    assert ks < crit, f"KS statistic {ks:.5f} >= {crit:.5f}"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f} s"


def test_08_forward_curve_pca_identities():
    params = load_fixture("MM1")
    sys_ = build_moment_system(params)
    omega = moments.omega(sys_)
    dec = forward.pca(sys_, omega)
    vals = dec.eigenvalues
    nonzero = int(np.sum(vals > 1e-10 * vals.max()))
    assert nonzero == 3, f"{nonzero} components with nonzero variance"
    # covariance reconstruction on a horizon grid
    grid = np.linspace(0.05, 3.0, 20)
    psis = sys_.psi(grid)
    cov = psis @ omega @ psis.T
    curves = dec.factor_curves(grid)
    recon = curves @ np.diag(vals) @ curves.T
    rel = np.abs(recon - cov).max() / np.abs(cov).max()
    assert rel < 1e-8, f"reconstruction error {rel:.2e}"
    # factor curves are orthonormal under the time integral
    ts = np.linspace(0.0, 30.0, 60_001)
    u = dec.factor_curves(ts)
    gram = np.trapezoid(u[:, :, None] * u[:, None, :], ts, axis=0)
    off = np.abs(gram - np.eye(gram.shape[0])).max()
    assert off < 1e-3, f"orthonormality defect {off:.2e}"


FLAT_MODEL = ModelParams(lam=np.array([[1.0]]), b=np.array([1.0]),
                         alpha=0.04, beta=np.zeros(1),
                         gamma_mat=np.zeros((1, 1)), label="flat")


def test_09_option_pricing_sanity():
    grid = pricing.OptionGrid(maturities=(0.25, 1.0),
                              log_moneyness=(-0.2, -0.1, 0.0, 0.1, 0.2))
    cfg = McConfig(n_paths=100_000, horizon=1.0, seed=42,
                   steps_per_year=250, antithetic=True)
    bad = []
    for params in (load_fixture("M3"), load_fixture("MM3"), FLAT_MODEL):
        name = params.label
        t0 = time.monotonic()
        surf = pricing.with_implied_vols(
            pricing.price_options(params, grid, cfg))
        for i, t in enumerate(surf.maturities):
            _zband(surf.forward_mean[i], surf.forward_se[i], 1.0,
                   f"{name} forward t={t:.3f}", bad)
            for j in range(surf.ell.size):
                gap = surf.parity_gap()[i, j]
                if abs(gap) > 3.0 * surf.forward_se[i]:
                    bad.append(f"{name} parity t={t:.3f} node {j}: "
                               f"gap {gap:.2e}")
                v = surf.ivol[i, j]
                if np.isnan(v):
                    # only a deep corner may price inside its static bound
                    if abs(surf.ell[j]) < 0.2 - 1e-12:
                        bad.append(f"{name} t={t:.3f} node {j}: no vol")
                    continue
                back = pricing.bs_price(math.exp(surf.ell[j]), t, v)
                if abs(back - surf.call_price[i, j]) > 1e-8:
                    bad.append(f"{name} round trip t={t:.3f} node {j}")
        if name == "flat":
            for i, t in enumerate(surf.maturities):
                for j in range(surf.ell.size):
                    ref = pricing.bs_price(math.exp(surf.ell[j]), t, 0.2)
                    _zband(surf.call_price[i, j], surf.call_se[i, j], ref,
                           f"flat vs closed form t={t:.3f} node {j}", bad)
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"{name} took {elapsed:.1f} s"
    assert not bad, "; ".join(bad)


def test_10_atm_skew_term_structure():
    eps = 0.01
    grid = pricing.OptionGrid(maturities=(1.0 / 12.0, 0.25, 0.5, 1.0, 1.5, 2.0),
                              log_moneyness=(-eps, 0.0, eps))
    cfg = McConfig(n_paths=200_000, horizon=2.0, seed=123,
                   steps_per_year=500, antithetic=True)

    def skew_curve(params, y0):
        surf = pricing.price_options(params, grid,
                                     replace(cfg, y0=np.array([y0])))
        surf = pricing.with_implied_vols(surf)
        _, skew = pricing.atm_term_structures(surf, eps=eps)
        return surf, skew

    for name in ("M3", "M4"):
        params = load_fixture(name)
        for y0 in (-0.1, 0.0):
            _, skew = skew_curve(params, y0)
            assert np.all(skew < 0.0), f"{name} y0={y0}: {skew}"
            assert np.all(np.diff(np.abs(skew)) < 0.0), \
                f"{name} y0={y0} not decreasing: {skew}"
        _, skew = skew_curve(params, 0.1)
        assert skew[0] > 0.0 and skew[-1] < 0.0, \
            f"{name} y0=0.1 short-end not inverted: {skew}"
    # the symmetric model has no skew beyond Monte Carlo noise
    surf, skew = skew_curve(load_fixture("M1"), 0.0)
    for i, t in enumerate(surf.maturities):
        vega = [pricing.bs_vega(math.exp(surf.ell[j]), t, surf.ivol[i, j])
                for j in (0, 2)]
        se = math.hypot(surf.call_se[i, 0] / vega[0],
                        surf.call_se[i, 2] / vega[1]) / (2.0 * eps)
        assert abs(skew[i]) < 3.0 * se, \
            f"M1 t={t:.3f}: skew {skew[i]:.5f}, band {3 * se:.5f}"


def test_11_squared_increment_autocovariance():
    params = load_fixture("M2")
    sys_ = build_moment_system(params)
    r = 1.0 / 12.0
    spy = 1200
    cov_cfg = McConfig(n_paths=200_000, horizon=r, seed=99,
                       steps_per_year=spy, antithetic=False,
                       y0=StationaryInit(burn_in=1.5))
    cov, cov_se = estimate_cov_eta_xi2(params, r, cov_cfg)
    n = sys_.p + sys_.p ** 2
    at = sys_.a_tilde
    bad = []
    for seed in (123, 321):
        cfg = McConfig(n_paths=400_000, horizon=1.0 / 3.0, seed=seed,
                       steps_per_year=spy, antithetic=False,
                       y0=StationaryInit(burn_in=1.5))
        batch = simulate(params, cfg, probes=[0.0, r, 2.0 * r, 0.25])
        xi = {t: batch.xi(batch.time_index(t))
              for t in (0.0, r, 2.0 * r, 0.25, 1.0 / 3.0)}
        first = (xi[r] - xi[0.0]) ** 2
        for h in (1.0 / 12.0, 0.25):
            second = (xi[h + r] - xi[h]) ** 2
            u = first - first.mean()
            v = second - second.mean()
            npaths = u.size
            direct = float(np.mean(u * v)) * npaths / (npaths - 1.0)
            direct_se = float(np.std(u * v, ddof=1)) / math.sqrt(npaths)
            ana = moments.squared_increment_autocov(sys_, cov, r, h)
            w_vec = sys_.g @ expm(-at * h) @ np.linalg.solve(
                at, expm(at * r) - np.eye(n))
            ana_se = float(np.sqrt(np.sum((w_vec * cov_se) ** 2)))
            z = (ana - direct) / math.hypot(ana_se, direct_se)
            if abs(z) > 3.0:
                bad.append(f"seed {seed} h={h:.4f}: z = {z:+.2f}")
    assert not bad, "; ".join(bad)
