"""Moment ODE assembly, stationary solution, stability tests, covariances.

Independent oracles: the Kronecker construction of the full moment matrix
(kron_reference), scalar closed-form moments, scipy's Lyapunov solver for
the stationary second moment, an ODE integrator for the conditional decay,
and exact rational values for the sufficient stability scalar.
"""

import itertools

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from kron_reference import (duplication, full_system, kron_powers,
                            stacked_orbits, symmetric_orbits)
from qhr import linalg, model, moments, scalar


def scalar_model(lam, alpha, beta, gamma):
    return model.ModelParams(lam=[[lam]], b=[1.0], alpha=alpha,
                             beta=[beta], gamma_mat=[[gamma]])


def sym_block(sys, i, j=None):
    """Block (i, j) of a_sym (1-based moment orders; j defaults to i)."""
    o = sys.sym_offsets
    j = i if j is None else j
    return sys.a_sym[o[i - 1]:o[i], o[j - 1]:o[j]]


def order(sys, k):
    """The S coordinates of moment order k."""
    return slice(sys.sym_offsets[k - 1], sys.sym_offsets[k])


def stacked(sys, m):
    """An S vector spread to the stacked Kronecker layout."""
    return m[stacked_orbits(sys.p)[1]]


class TestAssembly:
    def test_scalar_diagonal_blocks(self, systems):
        sys = systems["M1"]
        lam, gam = 6.0, 3.6334
        assert sym_block(sys, 2).item() == pytest.approx(2 * lam - gam)
        assert sym_block(sys, 3).item() == pytest.approx(3 * lam - 3 * gam)
        assert sym_block(sys, 4).item() == pytest.approx(4 * lam - 6 * gam)

    def test_zero_beta_removes_subdiagonal(self, systems):
        for name in ("M1", "M2", "MM1", "MM2"):
            sys = systems[name]
            for k in (2, 3, 4):
                assert np.all(sym_block(sys, k, k - 1) == 0.0), name

    def test_block_slices(self, systems):
        sys = systems["MM3"]
        assert sys.sym_offsets == (0, 2, 5, 9, 14)
        assert sys.a_sym.shape == (14, 14)

    def test_g_layout(self, systems, models):
        sys = systems["MM3"]
        params = models["MM3"]
        gam = params.gamma_mat
        assert np.array_equal(sys.g[:2], 2.0 * params.beta)
        # coefficients of y1^2, y1 y2, y2^2
        assert np.array_equal(sys.g[2:], [gam[0, 0], gam[0, 1] + gam[1, 0],
                                          gam[1, 1]])

    def test_stationary_point_solves_system(self, systems):
        for name, sys in systems.items():
            resid = sys.a_sym @ sys.m_infty - sys.source
            scale = max(np.abs(sys.source).max(), 1e-30)
            assert np.abs(resid).max() < 1e-10 * scale, name

    def test_stationary_matches_full_solve(self, models, systems):
        sys = systems["MM5"]
        full = full_system(models["MM5"])
        direct = np.linalg.solve(full.a_full, full.source)
        assert np.allclose(stacked(sys, sys.m_infty), direct, rtol=1e-9,
                           atol=1e-16)

    def test_first_moment_vanishes(self, systems):
        for sys in systems.values():
            assert np.all(sys.m_infty[:sys.p] == 0.0)

    def test_a_tilde_is_top_corner(self, systems):
        sys = systems["MM1"]
        n = sys.p + sys.p * (sys.p + 1) // 2
        assert sys.n_eta == n
        assert np.array_equal(sys.a_tilde, sys.a_sym[:n, :n])


class TestStationarySummary:
    def test_kappa_against_lyapunov_oracle(self, models, systems):
        # kappa = tr(Gamma Q) with lam Q + Q lam' = b b'
        for name, params in models.items():
            sys = systems[name]
            summ = moments.stationary_summary(sys, params)
            q = scipy.linalg.solve_lyapunov(params.lam,
                                            np.outer(params.b, params.b))
            kappa = float(np.trace(params.gamma_mat @ q))
            assert summ.kappa == pytest.approx(kappa, rel=1e-10), name
            assert summ.sigma2_infty == pytest.approx(
                params.alpha / (1.0 - kappa), rel=1e-10), name

    def test_scalar_q_infty(self, models, systems):
        summ = moments.stationary_summary(systems["M2"], models["M2"])
        assert summ.q_infty.item() == pytest.approx(0.0064 / 6.0, rel=1e-14)

    def test_scalar_closed_forms(self, models, systems):
        for name in ("M1", "M2", "M3", "M4"):
            sys = systems[name]
            sp = scalar.ScalarParams.from_model_params(models[name])
            q, m3, m4 = scalar.scalar_closed_moments(sp)
            assert sys.m_infty[order(sys, 2)].item() == pytest.approx(
                q, rel=1e-12), name
            assert sys.m_infty[order(sys, 3)].item() == pytest.approx(
                m3, rel=1e-12, abs=1e-18), name
            assert sys.m_infty[order(sys, 4)].item() == pytest.approx(
                m4, rel=1e-12), name
            summ = moments.stationary_summary(sys, models[name])
            assert summ.kurt_infty == pytest.approx(
                scalar.scalar_kurtosis(sp), rel=1e-10), name

    @pytest.mark.parametrize("b", [2.0, -0.5])
    def test_scalar_closed_forms_carry_b(self, b):
        # y's diffusion is b^2 sigma^2(y): the scalar law scales alpha, beta
        # and gamma by b^2
        params = model.ModelParams(lam=[[6.0]], b=[b], alpha=0.0133,
                                   beta=[-0.05], gamma_mat=[[0.5]])
        sys = moments.build_moment_system(params)
        sp = scalar.ScalarParams.from_model_params(params)
        got = sys.m_infty[[order(sys, k).start for k in (2, 3, 4)]]
        assert np.allclose(got, scalar.scalar_closed_moments(sp),
                           rtol=1e-12, atol=0)
        summ = moments.stationary_summary(sys, params)
        assert summ.kurt_infty == pytest.approx(scalar.scalar_kurtosis(sp),
                                                rel=1e-12)

    def test_sigma2_infty_property_consistent(self, models, systems):
        # one formula, alpha + g'eta_infty, behind both
        for name, sys in systems.items():
            summ = moments.stationary_summary(sys, models[name])
            assert sys.sigma2_infty == summ.sigma2_infty, name

    def test_second_moment_matrix(self, models, systems):
        sys = systems["MM4"]
        m2 = stacked(sys, sys.m_infty)[2:6].reshape(2, 2)
        assert np.allclose(m2, m2.T, atol=1e-14)
        assert np.linalg.eigvalsh(m2).min() > 0
        q = scipy.linalg.solve_lyapunov(
            models["MM4"].lam, np.outer(models["MM4"].b, models["MM4"].b)
            * model.variance(models["MM4"], np.zeros(2)))
        # not equal (the variance feedback matters), but same scale
        assert m2[0, 0] > 0.5 * q[0, 0]


class TestStabilityScalar:
    def test_exact_rational_values(self, models):
        # lam_max * (w'lam^-1 b)^2 * gamma0 for the rank-one family; the
        # fast rate puts MM1-MM4 above the 2/3 threshold
        expected = {
            "MM1": (4.0 / 3.0, False),
            "MM2": (28.0 / 15.0, False),
            "MM3": (28.0 / 15.0, False),
            "MM4": (12.0 * 4.7 * (4.0 / 15.0) ** 2, False),
            "MM5": (18.0 * (31.0 / 180.0) ** 2, True),
        }
        for name, (value, want_pass) in expected.items():
            kt, passes = moments.check_stability_sufficient(models[name])
            assert kt == pytest.approx(value, rel=1e-12), name
            assert passes is want_pass, name

    def test_decoupled_fast_factor_fails(self):
        # the second factor alone is a scalar model with gamma/lam = 0.9, so
        # its fourth moments explode; a slowest-rate statistic reads 0.09
        params = model.ModelParams(lam=np.diag([1.0, 10.0]), b=[1.0, 1.0],
                                   alpha=0.01, beta=[0.0, 0.0],
                                   gamma_mat=np.diag([0.0, 9.0]))
        kt, passes = moments.check_stability_sufficient(params)
        assert kt == pytest.approx(0.9, rel=1e-12)
        assert not passes
        sys = moments.build_moment_system(params)
        assert not sys.stable
        assert sys.block_eig_min[2] == pytest.approx(-14.0, rel=1e-12)

    def test_scalar_reduces_to_gamma_over_lam(self, models):
        kt, passes = moments.check_stability_sufficient(models["M2"])
        assert kt == pytest.approx(0.5, rel=1e-14)
        assert passes

    def test_entrywise_negative_gamma_fails(self):
        params = model.ModelParams(lam=np.diag([2.0, 3.0]), b=[1.0, 1.0],
                                   alpha=0.01, beta=[0.0, 0.0],
                                   gamma_mat=[[0.1, -0.02], [-0.02, 0.1]])
        kt, passes = moments.check_stability_sufficient(params)
        assert kt < 2.0 / 3.0
        assert not passes


def test_stationary_summary_rejects_another_model(models, systems):
    # M2's sigma^2_inf with M1's kappa_tilde would be a mix of two models
    with pytest.raises(ValueError, match="built from"):
        moments.stationary_summary(systems["M2"], models["M1"])
    # the same model in a new object is accepted, bit for bit
    m2 = models["M2"]
    again = model.ModelParams(lam=m2.lam.copy(), b=m2.b, alpha=m2.alpha,
                              beta=m2.beta, gamma_mat=m2.gamma_mat)
    got = moments.stationary_summary(systems["M2"], again)
    want = moments.stationary_summary(systems["M2"], m2)
    assert (got.kappa_tilde, got.kurt_infty) == (want.kappa_tilde,
                                                 want.kurt_infty)


class TestUnstableModels:
    def test_unstable_flagged(self):
        params = scalar_model(1.0, 0.01, 0.0, 1.2)
        sys = moments.build_moment_system(params)
        assert not sys.stable
        assert sys.block_eig_min[0] > 0  # 2 - 1.2
        assert sys.block_eig_min[1] < 0  # 3 - 3.6
        with pytest.raises(moments.NotStationaryError, match="not all stable"):
            moments.stationary_summary(sys, params)
        with pytest.raises(moments.NotStationaryError):
            moments.omega(sys)

    def test_one_gate_for_every_stationary_quantity(self):
        # every quantity that needs the stationary law raises the same
        # error: for unstable blocks 2..4 it names the smallest real part
        # of each; for a negative rate (lam = -1, gamma = -3, whose blocks
        # 2..4 are 1, 6 and 14, and kappa = 1.5) it names block 1
        from qhr import forward, mc
        cases = [
            (scalar_model(1.0, 0.01, 0.0, 1.2),
             r"not all stable \(smallest real parts: 0\.8, -0\.6, -3\.2\)"),
            (scalar_model(-1.0, 0.01, 0.0, -3.0),
             r"moment block 1 \(lam\) not stable \(smallest real part: -1\)"),
        ]
        om = np.eye(2)
        cfg = mc.McConfig(n_paths=10, horizon=1.0, seed=1)
        for params, want in cases:
            sys = moments.build_moment_system(params)
            assert not sys.stable
            calls = {
                "omega": lambda: moments.omega(sys),
                "variance_autocov":
                    lambda: moments.variance_autocov(sys, om, 0.0),
                "squared_increment_mean":
                    lambda: moments.squared_increment_mean(sys, 0.1),
                "squared_increment_autocov": lambda:
                    moments.squared_increment_autocov(sys, np.zeros(2), 0.1,
                                                      0.2),
                "stationary_summary":
                    lambda: moments.stationary_summary(sys, params),
                "forward_variance":
                    lambda: forward.forward_variance(sys, np.zeros(2), 0.5),
                "forward_min_envelope":
                    lambda: forward.forward_min_envelope(sys, 0.5),
                "pca": lambda: forward.pca(sys, om),
                "stationary_init":
                    lambda: mc.stationary_init(params, None, cfg),
            }
            for name, call in calls.items():
                with pytest.raises(moments.NotStationaryError, match=want):
                    call()

    def test_block_one_is_lam(self, models, systems):
        for name, sys in systems.items():
            want = linalg.eigenvalues(models[name].lam)
            assert np.array_equal(sys.block_spectra[0], want), name
            assert sys.block_spectra[0][0].real > 0, name

    def test_constants_are_not_rebuilt(self, systems, monkeypatch):
        # g is built once with the system: the loading curve, the variance
        # level and its autocovariance read it without assembling the
        # system, and sigma^2's coefficients with it, again
        def rebuilt(*_):
            raise AssertionError("moment system rebuilt")

        monkeypatch.setattr(moments, "build_moment_system", rebuilt)
        for name in ("M2", "MM3", "MM5"):
            sys = systems[name]
            om = moments.omega(sys)
            sys.psi(np.array([0.0, 0.5]))
            assert sys.sigma2_infty > 0, name
            moments.variance_autocov(sys, om, 0.25)

    def test_exactly_singular_block(self):
        with pytest.raises(moments.SingularAError):
            moments.build_moment_system(scalar_model(1.0, 0.01, 0.0, 1.0))


class TestConditionalMoments:
    def test_t_zero_returns_start(self, systems):
        sys = systems["MM3"]
        y0 = np.array([0.05, -0.02])
        m0 = moments.conditional_moments(sys, y0, 0.0)
        expected = kron_powers(y0)[stacked_orbits(sys.p)[0]]
        assert np.allclose(m0, expected, rtol=1e-12, atol=1e-18)

    def test_long_horizon_reaches_stationary(self, systems):
        sys = systems["M3"]
        m = moments.conditional_moments(sys, [0.2], 40.0)
        assert np.allclose(m, sys.m_infty, rtol=1e-10, atol=1e-15)

    def test_matches_ode_integrator(self, systems):
        for name, y0 in (("M3", [0.1]), ("MM3", [0.06, -0.03])):
            sys = systems[name]
            target = moments.conditional_moments(sys, y0, 0.5)
            full = full_system(sys.params)
            sol = scipy.integrate.solve_ivp(
                lambda t, m: full.source - full.a_full @ m, (0.0, 0.5),
                kron_powers(y0), rtol=1e-11, atol=1e-14, dense_output=True)
            ref = sol.y[stacked_orbits(sys.p)[0], -1]
            scale = np.abs(ref).max()
            assert np.abs(target - ref).max() < 1e-8 * scale, name

    def test_conditional_eta_consistent(self, systems):
        sys = systems["MM1"]
        y0 = np.array([0.04, 0.01])
        eta = moments.monomials(y0, 2)
        out = moments.conditional_eta(sys, eta, 0.7)
        full = moments.conditional_moments(sys, y0, 0.7)
        assert np.allclose(out, full[:5], rtol=1e-11, atol=1e-16)

    def test_horizon_grids_equal_single_horizons(self, systems):
        # one propagation per grid; each row is the single-horizon call
        ts = np.concatenate([[0.0], np.geomspace(1e-3, 5.0, 20), [60.0]])
        for name, y0 in (("M3", [0.1]), ("MM3", [0.06, -0.03])):
            sys = systems[name]
            eta = moments.monomials(y0, 2)
            assert np.array_equal(
                moments.conditional_eta(sys, eta, ts),
                [moments.conditional_eta(sys, eta, s) for s in ts]), name
            assert np.array_equal(
                moments.conditional_moments(sys, y0, ts),
                [moments.conditional_moments(sys, y0, s) for s in ts]), name

    def test_wrong_length_eta_rejected(self, systems):
        # eta holds the 5 S coordinates at p = 2, not the 6 stacked entries
        sys = systems["MM3"]
        eta = kron_powers([0.04, 0.01], 2)
        with pytest.raises(ValueError, match="length 5"):
            moments.conditional_eta(sys, eta, 0.7)
        with pytest.raises(ValueError, match="length 5"):
            moments.conditional_eta(sys, eta[:4], 0.7)

    def test_negative_time_rejected(self, systems):
        with pytest.raises(ValueError):
            moments.conditional_moments(systems["M1"], [0.0], -1.0)
        with pytest.raises(ValueError):
            moments.conditional_eta(systems["M1"],
                                    moments.monomials([0.0], 2), -0.5)


def reference_conditional_moments(sys, y0, t):
    """Full-space conditional moments in the stacked layout, as computed
    before the decay ran on the symmetric subspace."""
    decay = linalg.expm(-full_system(sys.params).a_full * t)
    m_infty = stacked(sys, sys.m_infty)
    return m_infty + decay @ (kron_powers(y0) - m_infty)


def cascade_systems():
    """One p = 3 and one p = 4 rank-one model with a Jordan block of size 2
    and beta != 0, beside the bundled ones."""
    specs = (
        (((12.0, 2), (1.5, 1)), (0.5, 0.3, 0.2)),
        (((20.0, 2), (4.0, 1), (0.8, 1)), (0.1, 0.4, 0.3, 0.2)),
    )
    out = {}
    for blocks, w in specs:
        params = model.rank_one(model.JordanSpec(blocks), w=w, alpha=0.01,
                                beta0=-0.05, gamma0=1.0)
        out[f"cascade p={params.p}"] = moments.build_moment_system(params)
    return out


def full_block_eig_min(sys):
    """Smallest real part of each full diagonal block A_kk, k = 2..4."""
    blocks = full_system(sys.params).blocks
    return tuple(float(linalg.eigenvalues(blocks[(k, k)])[0].real)
                 for k in (2, 3, 4))


def random_jordan_model(rng):
    """Random canonical model with p <= 4: a random Jordan partition, a
    random psd Gamma scaled so that the fastest-rate statistic of
    check_stability_sufficient lies in (0.1, 3) x 2/3, on both sides of
    the exact stability boundary, and a nonzero beta with
    beta' Gamma^+ beta < alpha (the bordered matrix stays psd)."""
    p = int(rng.integers(1, 5))
    sizes = []
    left = p
    while left > 0:
        s = int(rng.integers(1, left + 1))
        sizes.append(s)
        left -= s
    rates = np.sort(rng.uniform(0.3, 15.0, len(sizes)))[::-1]
    while len(rates) > 1 and np.min(-np.diff(rates)) < 1e-3:
        rates = np.sort(rng.uniform(0.3, 15.0, len(sizes)))[::-1]
    spec = model.JordanSpec(tuple((float(r), s) for r, s in
                                  zip(rates, sizes)))
    lam = spec.lambda_matrix()
    b = spec.b_vector()
    m = rng.uniform(-0.3, 1.0, (p, p))
    gam = m.T @ m
    x = np.linalg.solve(lam, b)
    lam_max = float(np.linalg.eigvals(lam).real.max())
    gam *= rng.uniform(0.1, 3.0) * (2.0 / 3.0) / (lam_max * float(x @ gam @ x))
    alpha = 0.01
    u = rng.standard_normal(p)
    beta = gam @ u
    beta *= rng.uniform(0.1, 0.9) * np.sqrt(alpha / float(u @ gam @ u))
    return model.ModelParams(lam=lam, b=b, alpha=alpha, beta=beta,
                             gamma_mat=gam)


class TestSymmetricSubspace:
    def test_a_maps_symmetric_subspace_into_itself(self, systems):
        # a_full D = D a_sym, D the duplication map of the stacked orbits:
        # the generator's matrix is the Kronecker one restricted to S
        for name, sys in {**systems, **cascade_systems()}.items():
            full = full_system(sys.params)
            dup = duplication(sys)
            resid = np.abs(full.a_full @ dup - dup @ sys.a_sym).max()
            assert resid <= 1e-12 * np.abs(full.a_full).max(), name
            assert np.array_equal(full.source, dup @ sys.source), name

    @pytest.mark.parametrize("blocks", [
        ((30.0, 1), (12.0, 1), (4.0, 1), (1.5, 1), (0.6, 1)),
        ((30.0, 2), (8.0, 2), (2.0, 1), (0.6, 1)),
    ])
    def test_generator_matches_kronecker_at_higher_p(self, blocks):
        spec = model.JordanSpec(blocks)
        w = np.linspace(1.0, 2.0, spec.p) / spec.p
        params = model.rank_one(spec, w=w, alpha=0.01, beta0=-0.05,
                                gamma0=2.0)
        sys = moments.build_moment_system(params)
        full = full_system(params)
        dup = duplication(sys)
        resid = np.abs(full.a_full @ dup - dup @ sys.a_sym).max()
        assert resid <= 1e-12 * np.abs(full.a_full).max()
        assert sys.stable == all(e > 0 for e in full_block_eig_min(sys))

    def test_dimension(self, systems):
        sys = systems["MM1"]
        assert sys.a_sym.shape == (2 + 3 + 4 + 5,) * 2
        rep, inv = stacked_orbits(sys.p)
        assert inv.shape == (2 + 4 + 8 + 16,)
        assert np.array_equal(inv[rep], np.arange(sys.a_sym.shape[0]))

    def test_exponents_follow_orbit_order(self):
        # row i of exponents counts the indices of the sorted tuple of
        # orbit i: the orbits of each order, in order
        for p in range(1, 7):
            tuples = [np.unravel_index(rep, (p,) * k) for k in (1, 2, 3, 4)
                      for rep in symmetric_orbits(p, k)[0]]
            want = [np.bincount(np.ravel(t), minlength=p) for t in tuples]
            params = model.ModelParams(lam=np.eye(p), b=np.ones(p),
                                       alpha=0.01, beta=np.zeros(p),
                                       gamma_mat=np.zeros((p, p)))
            got = moments.build_moment_system(params).exponents
            assert np.array_equal(got, want), p

    def test_block_eig_min_matches_full_blocks(self, systems):
        for name, sys in systems.items():
            got = np.array(sys.block_eig_min)
            want = np.array(full_block_eig_min(sys))
            assert np.allclose(got, want, rtol=1e-10, atol=0), name

    def test_conditional_moments_match_full_space(self, systems):
        for name, sys in {**systems, **cascade_systems()}.items():
            y0 = np.linspace(0.06, -0.04, sys.p)
            for t in (0.0, 0.5, 5.0):
                want = reference_conditional_moments(sys, y0, t)[
                    stacked_orbits(sys.p)[0]]
                got = moments.conditional_moments(sys, y0, t)
                scale = np.abs(want).max()
                assert np.abs(got - want).max() <= 1e-12 * scale, (name, t)

    def test_stable_flag_agrees_with_full_blocks(self):
        # the stable flag is defined on S; on random models straddling the
        # boundary it must agree with the full diagonal blocks, and any
        # draw where it does not is named
        rng = np.random.default_rng(20261018)
        disagree = []
        n_stable = 0
        n_draws = 400
        for i in range(n_draws):
            params = random_jordan_model(rng)
            sys = moments.build_moment_system(params)
            full = full_block_eig_min(sys)
            n_stable += sys.stable
            if sys.stable != all(e > 0 for e in full):
                disagree.append(
                    f"draw {i} (p = {params.p}): mu on S "
                    f"{sys.block_eig_min}, full blocks {full}")
        assert 0.2 * n_draws < n_stable < 0.8 * n_draws, n_stable
        assert not disagree, "; ".join(disagree)


class TestMonomials:
    def test_layout(self):
        # y1, y2, y1^2, y1 y2, y2^2
        assert np.array_equal(moments.monomials([1.0, 2.0], 2),
                              [1.0, 2.0, 1.0, 2.0, 4.0])
        rows = moments.monomials([[1.0, 2.0], [3.0, -1.0]], 2)
        assert np.array_equal(rows, [[1.0, 2.0, 1.0, 2.0, 4.0],
                                     [3.0, -1.0, 9.0, -3.0, 1.0]])

    def test_equal_kronecker_powers_at_orbit_representatives(self):
        rng = np.random.default_rng(5)
        for p in range(1, 7):
            rep, _ = stacked_orbits(p)
            ys = rng.standard_normal((50, p))
            rows = moments.monomials(ys, 4)
            for y, row in zip(ys, rows):
                assert np.array_equal(row, kron_powers(y)[rep]), p
                assert np.array_equal(moments.monomials(y, 4), row), p

    def test_one_table_at_any_degree(self):
        # the monomial tree is the one table of S: its index sends each
        # row's exponents back to that row, with no cap on the degree, and
        # each degree-2 row's (parent, last) is its sorted index pair
        for p in (1, 2, 3):
            for degree in range(1, 9):
                expo, parent, last, offsets, index = moments._monomial_tree(
                    p, degree)
                assert np.array_equal(index(expo), np.arange(len(expo))), \
                    (p, degree)
                assert index(np.zeros(p, dtype=int)) == -1
                if degree < 2:
                    continue
                rows = slice(offsets[1], offsets[2])
                assert list(zip(parent[rows], last[rows])) == list(
                    itertools.combinations_with_replacement(range(p), 2)), \
                    (p, degree)

    def test_quadratic_pairs_name_the_degree_two_rows(self, systems):
        for name, sys in systems.items():
            i, j = sys.quadratic_pairs
            want = np.zeros((i.size, sys.p), dtype=int)
            np.add.at(want, (np.arange(i.size), i), 1)
            np.add.at(want, (np.arange(i.size), j), 1)
            assert np.array_equal(sys.exponents[sys.p:sys.n_eta], want), name


class TestOmega:
    def test_structure(self, models, systems):
        sys = systems["MM3"]
        om = moments.omega(sys)
        n = sys.p + sys.p * (sys.p + 1) // 2
        assert om.shape == (n, n)
        assert np.array_equal(om, om.T)
        assert np.linalg.eigvalsh(om).min() > -1e-12
        # y block is the raw second moment (E[y] = 0)
        m2 = stacked(sys, sys.m_infty)[2:6].reshape(2, 2)
        assert np.allclose(om[:2, :2], m2, rtol=1e-12)

    def test_matches_kronecker_blocks(self, systems):
        # spread to the stacked layout, Omega is the Kronecker assembly of
        # E[eta eta'] from the moment blocks minus eta_infty eta_infty'
        for name, sys in {**systems, **cascade_systems()}.items():
            p = sys.p
            m = stacked(sys, sys.m_infty)
            o = np.cumsum([0, p, p**2, p**3, p**4])
            m2 = m[o[1]:o[2]].reshape(p, p)
            m3 = m[o[2]:o[3]].reshape(p, p * p)
            m4 = m[o[3]:o[4]].reshape(p * p, p * p)
            kron = np.block([[m2, m3], [m3.T, m4]]) - np.outer(
                m[:o[2]], m[:o[2]])
            dup = np.eye(sys.n_eta)[stacked_orbits(p, 2)[1]]
            assert np.array_equal(dup @ moments.omega(sys) @ dup.T, kron), name

    def test_lag_zero_is_variance_of_variance(self, models, systems):
        for name in ("M4", "MM3"):
            sys = systems[name]
            summ = moments.stationary_summary(sys, models[name])
            om = moments.omega(sys)
            var_sig2 = summ.e_sigma4 - summ.sigma2_infty**2
            assert moments.variance_autocov(sys, om, 0.0) == pytest.approx(
                var_sig2, rel=1e-10), name

    def test_lag_grid_equals_single_lags(self, systems):
        lags = np.concatenate([[0.0], np.geomspace(1e-3, 5.0, 20), [60.0]])
        for name in ("M3", "MM3", "MM5"):
            sys = systems[name]
            om = moments.omega(sys)
            grid = moments.variance_autocov(sys, om, lags)
            assert np.array_equal(
                grid, [moments.variance_autocov(sys, om, s) for s in lags])
            assert isinstance(moments.variance_autocov(sys, om, 0.5), float)

    def test_autocov_decays(self, systems):
        sys = systems["M3"]
        om = moments.omega(sys)
        c0 = moments.variance_autocov(sys, om, 0.0)
        c5 = moments.variance_autocov(sys, om, 5.0)
        assert abs(c5) < 1e-3 * c0
        with pytest.raises(ValueError):
            moments.variance_autocov(sys, om, -0.1)


class TestSquaredIncrements:
    def test_mean(self, models, systems):
        sys = systems["M2"]
        summ = moments.stationary_summary(sys, models["M2"])
        r = 1.0 / 12.0
        assert moments.squared_increment_mean(sys, r) == pytest.approx(
            r * summ.sigma2_infty, rel=1e-14)

    def test_autocov_formula_properties(self, systems, rng):
        sys = systems["M2"]
        cov = rng.standard_normal(2) * 1e-6
        r, h = 1.0 / 12.0, 0.25
        val = moments.squared_increment_autocov(sys, cov, r, h)
        # same quantity with the commuted operator ordering
        a = sys.a_tilde
        w = sys.g @ np.linalg.solve(a, linalg.expm(-a * h)
                                    @ (linalg.expm(a * r) - np.eye(2)))
        assert val == pytest.approx(float(w @ cov), rel=1e-10)
        # linear in the simulated covariance input
        val2 = moments.squared_increment_autocov(sys, 2.0 * cov, r, h)
        assert val2 == pytest.approx(2.0 * val, rel=1e-12)
        assert moments.squared_increment_autocov(
            sys, np.zeros(2), r, h) == 0.0
        # long lags decay
        far = moments.squared_increment_autocov(sys, cov, r, 30.0)
        assert abs(far) < 1e-9 * max(abs(val), 1e-30)
        with pytest.raises(moments.WindowOrderError):
            moments.squared_increment_autocov(sys, cov, h, r)

    @pytest.mark.parametrize("name", ["MM1", "MM3", "M2"])
    @pytest.mark.parametrize("r,h", [(1.0 / 12.0, 0.25), (1.0, 3.0),
                                     (5.0, 6.0), (20.0, 25.0)])
    def test_autocov_matches_high_precision(self, systems, name, r, h):
        # g' e^{-A~h} A~^-1 (e^{A~r} - I) c in 160-digit arithmetic from the
        # same float inputs; evaluated in doubles, the growing e^{A~r}
        # cancels and loses every digit on MM1 and MM3 by r = 5
        sys = systems[name]
        cov = 1e-4 * np.linspace(1.0, 2.0, sys.n_eta)
        with mpmath.workdps(160):
            a = mpmath.matrix(sys.a_tilde.tolist())
            grow = mpmath.expm(a * r) - mpmath.eye(sys.n_eta)
            w = mpmath.lu_solve(a, grow * mpmath.matrix(cov.tolist()))
            v = mpmath.expm(-a * h) * w
            ref = sum(gi * vi for gi, vi in zip(sys.g.tolist(), v))
            rel = abs((moments.squared_increment_autocov(sys, cov, r, h) - ref)
                      / ref)
        assert rel < 1e-12

    @pytest.mark.parametrize("r,h", [(-1.0, 0.0), (np.nan, 1.0),
                                     (np.inf, np.inf), (0.5, np.nan)])
    def test_bad_windows_rejected(self, systems, r, h):
        # a window must satisfy 0 <= r < inf and r <= h; the error names r
        sys = systems["MM1"]
        with pytest.raises(moments.WindowOrderError, match=f"r={r}"):
            moments.squared_increment_autocov(sys, np.zeros(sys.n_eta), r, h)
        if not 0 <= r < np.inf:
            with pytest.raises(moments.WindowOrderError, match=f"r={r}"):
                moments.squared_increment_mean(sys, r)

    def test_wrong_length_covariance_rejected(self, systems):
        # one entry per S coordinate of eta: 5 at p = 2
        sys = systems["MM3"]
        cov = np.array([1e-6, -2e-6, 3e-7, 4e-7, 5e-7])
        assert np.isfinite(moments.squared_increment_autocov(sys, cov,
                                                             0.1, 0.2))
        stacked_cov = np.array([1e-6, -2e-6, 3e-7, 4e-7, 4e-7, 5e-7])
        with pytest.raises(ValueError, match="length 5"):
            moments.squared_increment_autocov(sys, stacked_cov, 0.1, 0.2)

    def test_requires_stationarity(self):
        params = scalar_model(1.0, 0.01, 0.0, 1.2)
        sys = moments.build_moment_system(params)
        with pytest.raises(moments.NotStationaryError):
            moments.squared_increment_mean(sys, 0.1)
        with pytest.raises(moments.NotStationaryError):
            moments.squared_increment_autocov(sys, np.zeros(2), 0.1, 0.2)
