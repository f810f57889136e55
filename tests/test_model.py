"""Parameter validation, canonical form, variance link, filters, transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kron_reference import full_system
from qhr import model


class TestJordanSpec:
    def test_matrix_and_loading(self):
        spec = model.JordanSpec(((6.0, 2), (1.0, 1)))
        assert spec.p == 3
        expected = np.array([[6.0, 0.0, 0.0],
                             [-6.0, 6.0, 0.0],
                             [0.0, 0.0, 1.0]])
        assert np.array_equal(spec.lambda_matrix(), expected)
        assert np.array_equal(spec.b_vector(), [1.0, 0.0, 1.0])

    def test_rate_ordering_enforced(self):
        with pytest.raises(ValueError):
            model.JordanSpec(((1.0, 1), (6.0, 1)))
        with pytest.raises(ValueError):
            model.JordanSpec(((2.0, 1), (2.0, 1)))

    def test_positivity(self):
        with pytest.raises(ValueError):
            model.JordanSpec(((-1.0, 1),))
        with pytest.raises(ValueError):
            model.JordanSpec(((3.0, 0),))
        with pytest.raises(ValueError):
            model.JordanSpec(())


class TestModelParams:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            model.ModelParams(lam=[[1.0, 0.0]], b=[1.0], alpha=0.01,
                              beta=[0.0], gamma_mat=[[1.0]])
        with pytest.raises(ValueError):
            model.ModelParams(lam=[[1.0]], b=[1.0, 2.0], alpha=0.01,
                              beta=[0.0], gamma_mat=[[1.0]])
        with pytest.raises(ValueError, match="w must have length p"):
            model.ModelParams(lam=[[1.0]], b=[1.0], alpha=0.01, beta=[0.0],
                              gamma_mat=[[1.0]], w=[1.0, 0.0])

    def test_p_and_coercion(self):
        params = model.ModelParams(lam=[[2.0]], b=[1], alpha=1,
                                   beta=[0], gamma_mat=[[1]])
        assert params.p == 1
        assert params.alpha == 1.0
        assert params.lam.dtype == float

    def test_generator_must_match_beta_and_gamma(self, models):
        # save_model writes (w, beta0, gamma0), so a contradicting beta or
        # Gamma would change the model across a round trip
        mm3 = models["MM3"]
        keep = dict(lam=mm3.lam, b=mm3.b, alpha=mm3.alpha, beta=mm3.beta,
                    gamma_mat=mm3.gamma_mat, w=mm3.w, beta0=mm3.beta0,
                    gamma0=mm3.gamma0)
        with pytest.raises(ValueError, match="beta contradicts"):
            model.ModelParams(**{**keep, "beta": [0.01, 0.02]})
        with pytest.raises(ValueError, match="Gamma contradicts"):
            model.ModelParams(**{**keep, "gamma_mat": 1.5 * mm3.gamma_mat})
        # a generator alone is checked only against what it generates
        model.ModelParams(**{**keep, "gamma0": None,
                             "gamma_mat": 1.5 * mm3.gamma_mat})
        model.ModelParams(**{**keep, "beta": (1 + 1e-12) * mm3.beta})

    @pytest.mark.parametrize("field", ["lam", "b", "alpha", "beta",
                                       "gamma_mat", "w", "beta0", "gamma0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, models, field, bad):
        mm3 = models["MM3"]
        keep = dict(lam=mm3.lam, b=mm3.b, alpha=mm3.alpha, beta=mm3.beta,
                    gamma_mat=mm3.gamma_mat, w=mm3.w, beta0=mm3.beta0,
                    gamma0=mm3.gamma0)
        value = np.array(keep[field], dtype=float)
        value.flat[0] = bad
        with pytest.raises(ValueError, match=f"{field} is not finite"):
            model.ModelParams(**{**keep, field: value})


class TestValidate:
    def test_fixtures_admissible(self, models):
        for name, params in models.items():
            assert model.validate(params) == [], name

    def test_alpha_positive(self, models):
        bad = model.ModelParams(lam=[[1.0]], b=[1.0], alpha=0.0,
                                beta=[0.0], gamma_mat=[[1.0]])
        assert "alpha must be positive" in model.validate(bad)

    def test_gamma_symmetric(self):
        bad = model.ModelParams(lam=np.eye(2), b=[1.0, 0.0], alpha=0.01,
                                beta=[0.0, 0.0],
                                gamma_mat=[[1.0, 0.3], [0.0, 1.0]])
        assert "gamma must be symmetric" in model.validate(bad)

    def test_lambda_real(self):
        bad = model.ModelParams(lam=[[0.0, -1.0], [1.0, 0.0]], b=[1.0, 0.0],
                                alpha=0.01, beta=[0.0, 0.0],
                                gamma_mat=np.eye(2))
        assert "lambda eigenvalues must be real" in model.validate(bad)

    def test_lambda_positive(self):
        bad = model.ModelParams(lam=[[-2.0]], b=[1.0], alpha=0.01,
                                beta=[0.0], gamma_mat=[[1.0]])
        assert "lambda eigenvalues must be positive" in model.validate(bad)

    def test_bordered_psd(self):
        # beta^2 > alpha*gamma violates the Schur complement condition
        bad = model.ModelParams(lam=[[1.0]], b=[1.0], alpha=0.01,
                                beta=[0.5], gamma_mat=[[1.0]])
        assert "bordered matrix not psd" in model.validate(bad)


class TestCanonicalize:
    def test_distinct_rates(self, models):
        canon = model.canonicalize(models["MM1"])
        assert canon.jordan.blocks == ((6.0, 1), (1.0, 1))
        assert np.allclose(canon.params.lam, np.diag([6.0, 1.0]), atol=1e-12)
        assert np.allclose(canon.params.b, [1.0, 1.0], atol=1e-12)
        # M^-1 lam M reproduces the canonical matrix
        m = canon.transform
        assert np.allclose(np.linalg.solve(m, models["MM1"].lam @ m),
                           canon.params.lam, atol=1e-12)

    def test_jordan_block(self, models):
        canon = model.canonicalize(models["MM5"])
        assert canon.jordan.blocks == ((6.0, 2),)
        assert np.allclose(canon.params.lam,
                           [[6.0, 0.0], [-6.0, 6.0]], atol=1e-10)
        assert np.allclose(canon.params.b, [1.0, 0.0], atol=1e-12)

    def test_variance_invariant(self, models, rng):
        for name in ("MM1", "MM3", "MM5"):
            params = models[name]
            canon = model.canonicalize(params)
            ys = rng.standard_normal((100, params.p)) * 0.2
            direct = model.variance(params, ys)
            mapped = model.variance(canon.params,
                                    ys @ np.linalg.inv(canon.transform).T)
            assert np.allclose(direct, mapped, rtol=1e-11, atol=1e-13), name

    def test_already_canonical_is_identity(self):
        params = model.ModelParams(lam=np.diag([6.0, 1.0]), b=[1.0, 1.0],
                                   alpha=0.01, beta=[0.0, 0.0],
                                   gamma_mat=0.5 * np.eye(2))
        canon = model.canonicalize(params)
        assert np.allclose(canon.transform, np.eye(2), atol=1e-12)

    def test_complex_spectrum_raises(self):
        params = model.ModelParams(lam=[[1.0, -2.0], [2.0, 1.0]],
                                   b=[1.0, 0.0], alpha=0.01,
                                   beta=[0.0, 0.0], gamma_mat=np.eye(2))
        with pytest.raises(model.ComplexEigenvaluesError):
            model.canonicalize(params)

    def test_non_cyclic_loading_raises(self):
        # two separate factors at the same rate cannot be identified
        params = model.ModelParams(lam=np.diag([3.0, 3.0]), b=[1.0, 1.0],
                                   alpha=0.01, beta=[0.0, 0.0],
                                   gamma_mat=np.eye(2))
        with pytest.raises(model.RepeatedEigenvalueAcrossBlocksError):
            model.canonicalize(params)

    def test_unloaded_factor_raises(self):
        params = model.ModelParams(lam=np.diag([3.0, 5.0]), b=[1.0, 0.0],
                                   alpha=0.01, beta=[0.0, 0.0],
                                   gamma_mat=np.eye(2))
        with pytest.raises(model.RepeatedEigenvalueAcrossBlocksError):
            model.canonicalize(params)


class TestVariance:
    def test_scalar_value(self, models):
        # alpha + 2*beta*y + gamma*y^2 at the minimum point of M3
        assert model.variance(models["M3"], [0.06]) == pytest.approx(
            0.0025, abs=1e-15)

    def test_batch_shape(self, models, rng):
        ys = rng.standard_normal((7, 3, 2))
        out = model.variance(models["MM1"], ys)
        assert out.shape == (7, 3)
        single = model.variance(models["MM1"], ys[2, 1])
        assert single == pytest.approx(out[2, 1], rel=1e-15)

    def test_layout_does_not_change_bits(self, models, rng):
        # the engine's component-major y gives F-ordered (n, p) chunks; on
        # the 2-row chunk at the end of this array einsum rounded an
        # F-ordered chunk differently from the same rows C-ordered
        params = models["MM3"]
        n = 9 * 4096 + 2
        rows = 0.05 * rng.standard_normal((n, params.p))[n - 2:]
        chunk = rows.T.copy().T
        assert not chunk.flags.c_contiguous
        assert (model.variance(params, chunk).tobytes()
                == model.variance(params, rows).tobytes())

    def test_shape_does_not_change_bits(self, models, rng):
        # a 2-row or 1-row array has the bits of the same rows inside a
        # longer array
        params = models["MM3"]
        n = 9 * 4096 + 2
        y = 0.05 * rng.standard_normal((n, params.p))
        whole = model.variance(params, y)
        assert (model.variance(params, y[n - 2:]).tobytes()
                == whole[n - 2:].tobytes())
        for k in range(n - 8, n):
            assert model.variance(params, y[k]) == whole[k]

    def test_minimum_scalar(self, models):
        y_min, sigma_min = model.variance_min(models["M3"])
        assert y_min == pytest.approx([0.06], rel=1e-12)
        assert sigma_min == pytest.approx(0.05, rel=1e-12)

    def test_minimum_rank_one(self, models):
        # singular Gamma: minimum-norm stationary point -beta0/gamma0 *
        # w/|w|^2, variance alpha - beta0^2/gamma0 there
        params = models["MM3"]
        y_min, sigma_min = model.variance_min(params)
        w = params.w
        expected = -params.beta0 / params.gamma0 * w / (w @ w)
        assert np.allclose(y_min, expected, rtol=1e-10)
        assert sigma_min**2 == pytest.approx(
            params.alpha - params.beta0**2 / params.gamma0, rel=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_variance_respects_floor(self, models, seed):
        params = models["MM4"]
        _, sigma_min = model.variance_min(params)
        gen = np.random.default_rng(seed)
        ys = gen.standard_normal((64, 2))
        assert np.all(model.variance(params, ys) >= sigma_min**2 - 1e-12)


class TestFilters:
    def test_psi_values(self):
        lam = 4.0
        assert model.filter_psi(lam, 1, 0.0) == lam
        # order-2 kernel peaks at t = 1/lam
        ts = np.linspace(0.01, 2.0, 400)
        vals = model.filter_psi(lam, 2, ts)
        assert ts[np.argmax(vals)] == pytest.approx(1.0 / lam, abs=0.01)

    def test_psi_integrates_to_one(self):
        ts = np.linspace(0.0, 30.0, 40001)
        for order in (1, 2, 3):
            vals = model.filter_psi(1.5, order, ts)
            assert np.trapezoid(vals, ts) == pytest.approx(1.0, abs=1e-6)

    def test_psi_input_checks(self):
        with pytest.raises(ValueError):
            model.filter_psi(0.0, 1, 1.0)
        with pytest.raises(ValueError):
            model.filter_psi(1.0, 0, 1.0)

    @pytest.mark.parametrize("lag", [-1.0, np.nan, np.inf])
    def test_lags_must_be_finite_and_nonnegative(self, models, lag):
        # the filter weights past returns only: phi and psi_i are defined
        # on 0 <= t < inf, and the error names the first bad lag
        params = models["MM3"]
        w = params.w / (params.w @ params.b)
        with pytest.raises(ValueError, match=f"s={lag}"):
            model.filter_phi(params, w, [0.5, lag])
        with pytest.raises(ValueError, match=f"s={lag}"):
            model.filter_psi(4.0, 2, lag)

    def test_phi_diagonal_closed_form(self):
        params = model.ModelParams(lam=np.diag([4.0, 1.0]), b=[1.0, 1.0],
                                   alpha=0.01, beta=[0.0, 0.0],
                                   gamma_mat=np.zeros((2, 2)))
        w = np.array([0.3, 0.7])
        ts = np.linspace(0.0, 3.0, 50)
        vals = model.filter_phi(params, w, ts)
        expected = 0.3 * 4.0 * np.exp(-4.0 * ts) + 0.7 * np.exp(-ts)
        assert np.allclose(vals, expected, rtol=1e-12, atol=1e-14)

    def test_phi_jordan_block_is_erlang_mixture(self):
        # phi = sum_i (w_i - w_{i+1}) psi_i for a single bidiagonal block
        spec = model.JordanSpec(((4.0, 3),))
        params = model.ModelParams(lam=spec.lambda_matrix(),
                                   b=spec.b_vector(), alpha=0.01,
                                   beta=np.zeros(3),
                                   gamma_mat=np.zeros((3, 3)))
        w = np.array([1.0, 0.8, 0.5])
        ts = np.linspace(0.0, 2.0, 40)
        vals = model.filter_phi(params, w, ts)
        weights = [w[0] - w[1], w[1] - w[2], w[2]]
        expected = sum(c * model.filter_psi(4.0, i + 1, ts)
                       for i, c in enumerate(weights))
        assert np.allclose(vals, expected, rtol=1e-10, atol=1e-12)

    def test_phi_warns_on_unnormalized_weights(self, models):
        with pytest.warns(UserWarning, match="not normalized"):
            model.filter_phi(models["MM1"], [0.5, 0.5], [0.1])

    def test_filter_check(self, models):
        # kernel integrates to w'b: exactly 1 for normalized weights
        spec = model.JordanSpec(((4.0, 3),))
        params = model.ModelParams(lam=spec.lambda_matrix(),
                                   b=spec.b_vector(), alpha=0.01,
                                   beta=np.zeros(3),
                                   gamma_mat=np.zeros((3, 3)))
        report = model.filter_check(params, [1.0, 0.8, 0.5])
        assert report["integral"] == pytest.approx(1.0, abs=1e-4)
        assert report["min_phi"] > -1e-12
        # the bundled multifactor weights are scaled for the variance link,
        # not for kernel mass
        mm3 = models["MM3"]
        with pytest.warns(UserWarning, match="not normalized"):
            report = model.filter_check(mm3, mm3.w)
        assert report["integral"] == pytest.approx(float(mm3.w @ mm3.b),
                                                   abs=1e-4)

    def test_filter_check_flags_sign_change(self):
        params = model.ModelParams(lam=np.diag([4.0, 1.0]), b=[1.0, 1.0],
                                   alpha=0.01, beta=[0.0, 0.0],
                                   gamma_mat=np.zeros((2, 2)))
        report = model.filter_check(params, [2.0, -1.0])
        assert report["min_phi"] < 0


class TestRankOne:
    def test_construction(self):
        spec = model.JordanSpec(((6.0, 1), (1.0, 1)))
        params = model.rank_one(spec, [0.2, 0.8], alpha=0.0144,
                                beta0=-0.18, gamma0=2.8)
        assert np.allclose(params.beta, [-0.036, -0.144])
        assert np.allclose(params.gamma_mat,
                           2.8 * np.outer([0.2, 0.8], [0.2, 0.8]))
        assert model.validate(params) == []

    def test_constraints(self):
        spec = model.JordanSpec(((6.0, 1), (1.0, 1)))
        with pytest.raises(model.ConstraintViolationError):
            model.rank_one(spec, [0.2, 0.8, 0.1], 0.01, 0.0, 1.0)
        with pytest.raises(model.ConstraintViolationError):
            model.rank_one(spec, [0.2, 0.8], 0.0, 0.0, 1.0)
        with pytest.raises(model.ConstraintViolationError):
            model.rank_one(spec, [0.2, 0.8], 0.01, 0.0, -1.0)
        with pytest.raises(model.ConstraintViolationError):
            model.rank_one(spec, [0.2, 0.8], 0.01, 0.5, 1.0)

    def test_boundary_beta0_allowed(self):
        spec = model.JordanSpec(((2.0, 1),))
        params = model.rank_one(spec, [1.0], alpha=0.04, beta0=-0.2,
                                gamma0=1.0)
        assert model.validate(params) == []


class TestChangeOfMeasure:
    def test_identity(self, models):
        params = models["MM3"]
        out, shift = model.change_of_measure(params, 0.0, np.zeros(2))
        assert np.allclose(shift, 0.0, atol=0)
        assert np.allclose(out.lam, params.lam, atol=0)
        assert np.allclose(out.beta, params.beta, atol=0)
        assert out.alpha == pytest.approx(params.alpha, rel=1e-15)

    def test_variance_shift_invariance(self, models, rng):
        params = models["MM3"]
        out, shift = model.change_of_measure(params, 0.03, [0.2, -0.1])
        ys = rng.standard_normal((50, 2)) * 0.1
        assert np.allclose(model.variance(out, ys),
                           model.variance(params, ys + shift),
                           rtol=1e-11, atol=1e-14)
        # mean reversion picks up the rank-one drift coupling
        assert np.allclose(out.lam,
                           params.lam - np.outer(params.b, [0.2, -0.1]),
                           atol=1e-14)

    def test_rank_one_generators_propagate(self, models):
        params = models["MM3"]
        out, shift = model.change_of_measure(params, 0.02, [0.1, 0.1])
        assert out.beta0 == pytest.approx(
            params.beta0 + params.gamma0 * float(params.w @ shift), rel=1e-12)
        assert np.allclose(out.beta, out.beta0 * out.w, rtol=1e-12)

    def test_singular_transform(self):
        params = model.ModelParams(lam=[[2.0]], b=[1.0], alpha=0.01,
                                   beta=[0.0], gamma_mat=[[1.0]])
        with pytest.raises(model.SingularTransformError):
            model.change_of_measure(params, 0.05, [2.0])

    def test_mu1_length_checked(self):
        params = model.ModelParams(lam=[[2.0]], b=[1.0], alpha=0.01,
                                   beta=[0.0], gamma_mat=[[1.0]])
        with pytest.raises(ValueError, match="mu1 must have length p"):
            model.change_of_measure(params, 0.05, [0.1, 0.2])

    def test_warns_when_spectrum_degrades(self):
        params = model.ModelParams(lam=[[2.0]], b=[1.0], alpha=0.01,
                                   beta=[0.0], gamma_mat=[[1.0]])
        with pytest.warns(UserWarning, match="spectrum"):
            model.change_of_measure(params, 0.05, [3.0])


class TestModelFiles:
    def test_round_trip(self, models, tmp_path):
        for name in ("M3", "MM3"):
            path = tmp_path / f"{name}.json"
            model.save_model(models[name], path)
            back = model.load_model(path)
            orig = models[name]
            assert np.allclose(back.lam, orig.lam, atol=0)
            assert np.allclose(back.b, orig.b, atol=0)
            assert back.alpha == orig.alpha
            assert np.allclose(back.beta, orig.beta, atol=0)
            assert np.allclose(back.gamma_mat, orig.gamma_mat, atol=0)
            assert back.label == orig.label
            if orig.w is not None:
                assert np.allclose(back.w, orig.w, atol=0)
                assert back.beta0 == orig.beta0
                assert back.gamma0 == orig.gamma0

    def test_generator_scalars_require_w(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"lambda": [[1.0]], "b": [1.0], "alpha": 0.01, '
                        '"beta0": 0.1, "gamma0": 1.0}')
        with pytest.raises(ValueError, match="beta0 requires w"):
            model.load_model(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"lambda": [[1.0]], "b": [1.0], "alpha": 0.01, '
                        '"beta": [0.0]}')
        with pytest.raises(ValueError, match="gamma"):
            model.load_model(path)
        path.write_text('{"lambda": [[1.0]], "b": [1.0], "alpha": 0.01, '
                        '"gamma": [[1.0]]}')
        with pytest.raises(ValueError, match="needs beta or beta0"):
            model.load_model(path)

    def test_gamma0_requires_w(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"lambda": [[1.0]], "b": [1.0], "alpha": 0.01, '
                        '"beta": [0.0], "gamma0": 1.0}')
        with pytest.raises(ValueError, match="gamma0 requires w"):
            model.load_model(path)

    def test_fixture_listing(self):
        names = model.list_fixtures()
        for expected in ("M1", "M2", "M3", "M4", "MM1", "MM2", "MM3",
                         "MM4", "MM5"):
            assert expected in names

    def test_unknown_fixture(self):
        with pytest.raises(FileNotFoundError):
            model.load_fixture("NOPE")


class TestDiagnostics:
    def test_scalar_rates(self, models):
        diag = model.diagnostics(models["M1"])
        lam, gam = 6.0, 3.6334
        assert diag.mu2 == pytest.approx(2 * lam - gam, rel=1e-12)
        assert diag.mu3 == pytest.approx(3 * lam - 3 * gam, rel=1e-12)
        assert diag.mu4 == pytest.approx(4 * lam - 6 * gam, rel=1e-12)
        assert diag.sigma_min == pytest.approx(0.08, rel=1e-12)
        assert diag.kurt_infty == pytest.approx(3.0, abs=0.01)

    def test_second_block_spectrum_matches_full_block(self, models):
        # eig(A_22 on S) and lam_i + lam_j (i < j) are the whole spectrum
        # of the Kronecker block A_22
        for name, params in models.items():
            got = model.diagnostics(params).eig_block2
            want = np.linalg.eigvals(full_system(params).blocks[(2, 2)])
            want = want[np.lexsort((want.imag, want.real))]
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() < 1e-12 * np.abs(want).max(), name

    def test_second_block_spectrum_bit_identical_to_sliced_block(
            self, models, systems):
        # the spectrum stored by the moment system's build, against the
        # eigvals of the sliced S block plus lam_i + lam_j (i < j)
        for name, params in models.items():
            sys = systems[name]
            b2 = slice(sys.sym_offsets[1], sys.sym_offsets[2])
            rates = np.linalg.eigvals(params.lam)
            pairs = np.triu_indices(params.p, 1)
            want = np.concatenate([np.linalg.eigvals(sys.a_sym[b2, b2]),
                                   (rates[:, None] + rates)[pairs]])
            want = want[np.lexsort((want.imag, want.real))]
            got = model.diagnostics(params).eig_block2
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("lam,b,beta,gamma", [
        ([[3.0]], [1.0], [0.0], [[-0.5]]),
        ([[6.0, 0.0], [-6.0, 6.0]], [1.0, 0.0], [0.0, 0.0],
         [[0.5, 1.0], [1.0, 0.5]])], ids=["p1-negative", "p2-indefinite"])
    def test_inadmissible_model_rejected(self, lam, b, beta, gamma):
        # gamma < 0, or an indefinite Gamma: sigma^2 is unbounded below
        params = model.ModelParams(lam=lam, b=b, alpha=0.018, beta=beta,
                                   gamma_mat=gamma)
        assert model.validate(params) == ["bordered matrix not psd"]
        with pytest.raises(ValueError, match="inadmissible model: "
                           "bordered matrix not psd"):
            model.diagnostics(params)

    def test_sigma_infty_consistency(self, models):
        for name, params in models.items():
            diag = model.diagnostics(params)
            assert diag.sigma_infty**2 == pytest.approx(
                params.alpha / (1.0 - diag.kappa), rel=1e-12), name
