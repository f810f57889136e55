"""Forward variance curves, the minimum envelope, and the factor PCA."""

import re

import numpy as np
import pytest

from qhr import cli, forward, model, moments


@pytest.fixture(scope="module")
def omegas(systems):
    return {name: moments.omega(sys) for name, sys in systems.items()}


def _seeded_rank_one(blocks, seed):
    """Rank-one model with the given canonical rate ladder, each rate scaled
    by U(0.9, 1.1), Dirichlet weights w, and Gamma scaled so that the
    fastest-rate kappa_tilde lies in [0.15, 0.5]."""
    rng = np.random.default_rng(seed)
    spec = model.JordanSpec(tuple((rate * rng.uniform(0.9, 1.1), n)
                                  for rate, n in blocks))
    w = rng.dirichlet(np.ones(spec.p))
    alpha = float(np.exp(rng.uniform(np.log(0.005), np.log(0.03))))
    lam = spec.lambda_matrix()
    x = np.linalg.solve(lam, spec.b_vector())
    gamma0 = rng.uniform(0.15, 0.5) / (np.linalg.eigvals(lam).real.max()
                                       * float(w @ x) ** 2)
    beta0 = -rng.uniform(0.0, 0.9) * np.sqrt(alpha * gamma0)
    return model.rank_one(spec, w=w, alpha=alpha, beta0=beta0,
                          gamma0=gamma0)


def _r4():
    """Admissible, stationary rank-one model whose envelope slices near
    s = 0.35 have a Psi_Q eigenvalue 4e-11 times the largest one."""
    return model.rank_one(model.JordanSpec(((20, 2), (19, 1), (15, 1))),
                          w=(0.03, 0.14, 0.02, 0.81), alpha=0.01,
                          beta0=-0.08, gamma0=2.0)


class TestForwardVariance:
    def test_zero_horizon_recovers_spot_variance(self, models, systems, rng):
        for name in ("M3", "MM3", "MM5"):
            sys = systems[name]
            params = models[name]
            for _ in range(5):
                y0 = rng.standard_normal(params.p) * 0.1
                eta = moments.monomials(y0, 2)
                v = forward.forward_variance(sys, eta, 0.0)
                assert v == pytest.approx(model.variance(params, y0),
                                          rel=1e-11), name

    def test_stack_of_states_equals_single_states(self, systems):
        grid = np.concatenate([[0.0], np.geomspace(1e-3, 5.0, 40), [60.0]])
        for name in ("M3", "MM3", "MM5"):
            sys = systems[name]
            ys = np.linspace(-0.08, 0.08, 3 * sys.p).reshape(3, sys.p)
            etas = moments.monomials(ys, 2)
            stack = forward.forward_variance(sys, etas, grid)
            assert stack.shape == (3, grid.size)
            assert np.array_equal(stack, [forward.forward_variance(
                sys, eta, grid) for eta in etas]), name
            assert np.array_equal(
                forward.forward_variance(sys, etas, 0.5),
                [forward.forward_variance(sys, eta, 0.5) for eta in etas])

    def test_long_horizon_limit(self, systems):
        sys = systems["MM3"]
        eta = moments.monomials([0.3, -0.2], 2)
        v = forward.forward_variance(sys, eta, 50.0)
        assert v == pytest.approx(sys.sigma2_infty, rel=1e-12)

    def test_zero_state_curve_is_envelope_base(self, systems):
        sys = systems["MM4"]
        zero = np.zeros(sys.n_eta)
        for s in (0.0, 0.3, 1.7):
            v0, _ = forward.forward_min_envelope(sys, s)
            assert v0 == pytest.approx(
                forward.forward_variance(sys, zero, s), rel=1e-12)

    def test_envelope_at_zero(self, models, systems):
        for name in ("M3", "M4", "MM3", "MM5"):
            params = models[name]
            v0, vmin = forward.forward_min_envelope(systems[name], 0.0)
            assert v0 == pytest.approx(params.alpha, rel=1e-10), name
            _, sigma_min = model.variance_min(params)
            assert vmin == pytest.approx(sigma_min**2, rel=1e-8,
                                         abs=1e-12), name

    def test_envelope_flat_without_linear_term(self, systems):
        # beta = 0 kills the linear loading, so the zero state is the minimum
        for name in ("M1", "MM1"):
            sys = systems[name]
            for s in (0.0, 0.5, 2.0):
                v0, vmin = forward.forward_min_envelope(sys, s)
                assert vmin == pytest.approx(v0, rel=1e-12), name

    def test_envelope_bounds_path_states(self, systems, rng):
        sys = systems["MM3"]
        for s in (0.0, 0.25, 1.0):
            _, vmin = forward.forward_min_envelope(sys, s)
            for _ in range(40):
                y0 = rng.standard_normal(2) * 0.3
                eta = moments.monomials(y0, 2)
                v = forward.forward_variance(sys, eta, s)
                assert v >= vmin - 1e-12

    def test_loading_curve_solves_adjoint_ode(self, systems):
        sys = systems["MM3"]
        assert np.allclose(sys.psi(0.0), sys.g, atol=0)
        s, h = 0.4, 1e-6
        deriv = (sys.psi(s + h) - sys.psi(s - h)) / (2.0 * h)
        assert np.allclose(deriv, -sys.a_tilde.T @ sys.psi(s),
                           rtol=1e-6, atol=1e-10)

    # references: psi(s) = e^{-A~'s} g, eta_infty and the minimum of the
    # slice, all in 60-digit mpmath arithmetic from the same float inputs
    @pytest.mark.parametrize("name,s,ref,rtol", [
        ("R4", 0.35, 0.007216635246406006, 1e-8),
        ("MM5", 0.004, 0.0025294898601923837, 1e-10),
        ("MM3", 0.0013, 0.0025003654425424537, 1e-12),
    ])
    def test_envelope_matches_high_precision_reference(self, systems, name,
                                                        s, ref, rtol):
        sys = (moments.build_moment_system(_r4()) if name == "R4"
               else systems[name])
        _, vmin = forward.forward_min_envelope(sys, s)
        assert vmin == pytest.approx(ref, rel=rtol)

    def test_envelope_defined_on_nearly_singular_slices(self):
        params = _r4()
        sys = moments.build_moment_system(params)
        grid = np.concatenate([[0.0], forward.default_grid()])
        v0, vmin = forward.forward_min_envelope(sys, grid)
        assert np.all(vmin <= v0)
        assert vmin[0] == pytest.approx(model.variance_min(params)[1]**2,
                                        rel=1e-8)

    def test_wrong_length_state_rejected(self, systems):
        # the 6 stacked entries (y; y (x) y) at p = 2 are not the 5 S
        # coordinates
        eta = np.array([0.1, 0.2, 0.01, 0.02, 0.02, 0.04])
        with pytest.raises(ValueError, match="length 5"):
            forward.forward_variance(systems["MM3"], eta, 0.5)

    def test_negative_horizon_rejected(self, systems):
        with pytest.raises(ValueError):
            forward.forward_variance(systems["M1"], np.zeros(2), -0.1)
        with pytest.raises(ValueError):
            forward.forward_min_envelope(systems["M1"], -0.1)
        with pytest.raises(ValueError, match="s=-0.2"):
            forward.forward_min_envelope(systems["MM3"], [0.1, -0.2, -0.3])
        with pytest.raises(ValueError, match="s=-0.3"):
            systems["MM3"].psi(np.array([0.0, -0.3]))

    @pytest.mark.parametrize("s", [np.nan, np.inf, -0.1])
    def test_one_horizon_contract(self, systems, s):
        # every way through time goes through one check, which names the
        # horizon
        sys = systems["MM3"]
        om = moments.omega(sys)
        y0 = np.array([0.1, -0.2])
        eta = moments.monomials(y0, 2)
        calls = [
            lambda: sys.psi(s),
            lambda: moments.conditional_moments(sys, y0, s),
            lambda: moments.conditional_eta(sys, eta, s),
            lambda: moments.variance_autocov(sys, om, s),
            lambda: forward.forward_variance(sys, eta, s),
            lambda: forward.forward_min_envelope(sys, s),
            lambda: forward.pca(sys, om).factor_curves(s),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"s={s}")):
                call()

    def test_indefinite_slice_raises(self):
        params = model.ModelParams(lam=np.diag([1.0, 2.0]), b=[1.0, 1.0],
                                   alpha=0.01, beta=[0.0, 0.0],
                                   gamma_mat=np.diag([0.2, -0.1]))
        sys = moments.build_moment_system(params)
        assert sys.stable
        with pytest.raises(forward.NonConvexSliceError, match="indefinite"):
            forward.forward_min_envelope(sys, 0.0)

    def test_unbounded_linear_part_raises(self):
        params = model.ModelParams(lam=np.diag([1.0, 2.0]), b=[1.0, 1.0],
                                   alpha=0.01, beta=[0.01, 0.0],
                                   gamma_mat=np.diag([0.0, 0.3]))
        sys = moments.build_moment_system(params)
        assert sys.stable
        with pytest.raises(forward.NonConvexSliceError, match="escapes"):
            forward.forward_min_envelope(sys, 0.0)


class TestGridEvaluation:
    """A grid of horizons gives exactly the per-horizon values, stacked."""

    GRID = np.concatenate([[0.0], np.geomspace(1e-3, 5.0, 40), [60.0]])

    @pytest.mark.parametrize("name", ["M3", "MM1", "MM3", "MM5"])
    def test_psi(self, systems, name):
        sys = systems[name]
        rows = sys.psi(self.GRID)
        assert rows.shape == (self.GRID.size, sys.n_eta)
        assert np.array_equal(rows, np.array([sys.psi(s) for s in self.GRID]))
        assert sys.psi(np.zeros(0)).shape == (0, sys.n_eta)

    @pytest.mark.parametrize("name", ["M3", "M4", "MM3", "MM5"])
    def test_forward_variance_and_envelope(self, systems, name):
        sys = systems[name]
        eta = moments.monomials(np.full(sys.p, 0.05), 2)
        v = forward.forward_variance(sys, eta, self.GRID)
        assert np.array_equal(v, [forward.forward_variance(sys, eta, s)
                                  for s in self.GRID])
        v0, vmin = forward.forward_min_envelope(sys, self.GRID)
        pointwise = np.array([forward.forward_min_envelope(sys, s)
                              for s in self.GRID])
        assert np.array_equal(np.column_stack([v0, vmin]), pointwise)
        assert isinstance(forward.forward_variance(sys, eta, 0.5), float)
        assert all(isinstance(x, float)
                   for x in forward.forward_min_envelope(sys, 0.5))

    @pytest.mark.parametrize("name", ["M3", "MM1", "MM5"])
    def test_factor_curves(self, systems, omegas, name):
        dec = forward.pca(systems[name], omegas[name])
        assert np.array_equal(dec.factor_curves(self.GRID),
                              [dec.factor_curves(t) for t in self.GRID])


class TestPca:
    def test_rank_counts(self, systems, omegas):
        # beta = 0 scalar: only the q loading survives
        assert forward.pca(systems["M1"], omegas["M1"]).rank == 1
        # scalar with linear term: y and q loadings
        assert forward.pca(systems["M3"], omegas["M3"]).rank == 2
        # beta = 0 two-factor: the three symmetric q coordinates
        assert forward.pca(systems["MM1"], omegas["MM1"]).rank == 3
        # the fourth component carries 8e-11 of the variance and stays
        assert forward.pca(systems["MM5"], omegas["MM5"]).rank == 4

    def test_eigenvalues_sorted_nonnegative(self, systems, omegas):
        dec = forward.pca(systems["MM3"], omegas["MM3"])
        vals = dec.eigenvalues
        assert np.all(np.diff(vals) <= 1e-18)
        assert vals.min() > -1e-15

    def test_factor_gram_identity(self, systems, omegas):
        # integral of u u' = projection F_S projection' = I on the retained
        # components; entry (i, j) is resolved to eps lambda_1 / (lambda_i
        # lambda_j)^1/2, so it is checked scaled by that
        dec = forward.pca(systems["MM3"], omegas["MM3"])
        assert dec.eigenvalues.sum() > 0
        gram = dec.projection @ dec.f_matrix @ dec.projection.T
        root = np.sqrt(dec.eigenvalues)
        scaled = root[:, None] * (gram - np.eye(dec.rank)) * root
        assert np.abs(scaled).max() < 1e-12 * dec.eigenvalues[0]

    # the canonical rate ladders of perfbench's generated models
    @pytest.mark.parametrize("blocks", [
        ((20.0, 1), (4.0, 1), (0.8, 1)),
        ((12.0, 2), (1.5, 1)),
        ((25.0, 1), (8.0, 1), (2.5, 1), (0.8, 1)),
        ((20.0, 2), (4.0, 1), (0.8, 1)),
        ((30.0, 1), (12.0, 1), (4.0, 1), (1.5, 1), (0.6, 1)),
        ((25.0, 2), (5.0, 2), (0.8, 1)),
    ])
    def test_components_carry_the_whole_variance(self, blocks):
        # sum_i lambda_i u_i(0)^2 = Var(sigma^2): no component is lost
        for seed in (7, 8):
            sys = moments.build_moment_system(_seeded_rank_one(blocks, seed))
            om = moments.omega(sys)
            dec = forward.pca(sys, om)
            var0 = float(np.sum(dec.eigenvalues
                                * dec.factor_curves(0.0) ** 2))
            assert var0 == pytest.approx(
                moments.variance_autocov(sys, om, 0.0), rel=1e-12), seed

    def test_reconstruction(self, systems, omegas):
        for name in ("M3", "MM1", "MM3"):
            sys = systems[name]
            om = omegas[name]
            dec = forward.pca(sys, om)
            grid = np.geomspace(0.02, 3.0, 12)
            psis = [sys.psi(t) for t in grid]
            us = [dec.factor_curves(t) for t in grid]
            direct = np.array([[p1 @ om @ p2 for p2 in psis] for p1 in psis])
            recon = np.array([[u1 @ (dec.eigenvalues * u2) for u2 in us]
                              for u1 in us])
            scale = np.abs(direct).max()
            assert np.abs(recon - direct).max() < 1e-9 * scale, name

    def test_orthonormal_curves(self, systems, omegas):
        sys = systems["M3"]
        dec = forward.pca(sys, omegas["M3"])
        ts = np.linspace(0.0, 6.0, 6001)
        u = dec.factor_curves(ts)
        gram = np.trapezoid(u[:, :, None] * u[:, None, :], ts, axis=0)
        assert np.abs(gram - np.eye(dec.rank)).max() < 1e-3

    def test_requires_stationarity(self):
        params = model.ModelParams(lam=[[1.0]], b=[1.0], alpha=0.01,
                                   beta=[0.0], gamma_mat=[[1.2]])
        sys = moments.build_moment_system(params)
        with pytest.raises(moments.NotStationaryError):
            forward.pca(sys, np.eye(2))


class TestCurveEmission:
    def test_default_grid(self):
        grid = forward.default_grid()
        assert grid.size == 200
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(5.0)
        assert np.all(np.diff(grid) > 0)

    def test_csv_layout(self, capsys, systems, omegas):
        # qhr pca: the provenance block, one variance line per component,
        # the header and u_i(t) sqrt(lambda_i) per grid point
        assert cli.main(["pca", "--model", "M3", "--grid", "0.1,0.5,1"]) == 0
        lines = capsys.readouterr().out.splitlines()[3:]
        dec = forward.pca(systems["M3"], omegas["M3"])
        assert lines[0].startswith("# component 1 variance = ")
        header_at = dec.eigenvalues.size
        assert lines[header_at].split(",")[0] == "t"
        assert len(lines) == header_at + 1 + 3
        first = [float(tok) for tok in lines[header_at + 1].split(",")]
        assert first[0] == pytest.approx(0.1)
        expected = dec.factor_curves(0.1) * np.sqrt(dec.eigenvalues)
        assert np.allclose(first[1:], expected, rtol=1e-12)

    def test_csv_grid_validation(self, capsys):
        # a descending grid is a failure (exit 1), an empty one a usage
        # error (exit 2); neither prints a report
        for grid, rc in (("0.5,0.1", 1), ("", 2)):
            assert cli.main(["pca", "--model", "M3", f"--grid={grid}"]) == rc
            assert capsys.readouterr().out == ""
