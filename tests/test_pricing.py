"""Black-Scholes utilities, implied-vol inversion, and smile construction."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr

from qhr import mc, pricing


class TestBlackScholes:
    def test_put_call_parity(self):
        for k in (0.7, 1.0, 1.3):
            for t in (0.1, 1.0, 3.0):
                c = pricing.bs_price(k, t, 0.2, "call")
                p = pricing.bs_price(k, t, 0.2, "put")
                assert c - p == pytest.approx(1.0 - k, abs=1e-15)

    def test_atm_closed_form(self):
        # at K = 1 the call collapses to 2 Phi(vol sqrt(T) / 2) - 1
        vol, t = 0.2, 1.0
        want = 2.0 * stats.norm.cdf(0.5 * vol * math.sqrt(t)) - 1.0
        assert pricing.bs_price(1.0, t, vol) == pytest.approx(want,
                                                              rel=1e-14)

    def test_zero_vol_is_intrinsic(self):
        assert pricing.bs_price(0.8, 1.0, 0.0) == pytest.approx(0.2)
        assert pricing.bs_price(1.2, 1.0, 0.0) == 0.0
        assert pricing.bs_price(1.2, 1.0, 0.0, "put") == pytest.approx(0.2)

    def test_monotone_in_vol_and_bounded(self):
        k, t = 1.1, 0.5
        vols = np.linspace(0.01, 2.0, 50)
        prices = np.array([pricing.bs_price(k, t, v) for v in vols])
        assert np.all(np.diff(prices) > 0)
        assert prices[0] > 0.0
        assert prices[-1] < 1.0

    def test_vectorized_strikes(self):
        ks = np.array([0.9, 1.0, 1.1])
        out = pricing.bs_price(ks, 1.0, 0.2)
        assert out.shape == (3,)
        assert out[0] == pricing.bs_price(0.9, 1.0, 0.2)

    def test_side_validation(self):
        with pytest.raises(ValueError):
            pricing.bs_price(1.0, 1.0, 0.2, "straddle")

    def test_bit_identical_to_scipy_stats(self):
        # ndtr and the explicit density are what scipy.stats.norm evaluates
        rng = np.random.default_rng(31)
        ells = rng.uniform(-1.5, 1.5, 400)
        mats = np.exp(rng.uniform(np.log(0.01), np.log(5.0), 400))
        vols = np.exp(rng.uniform(np.log(1e-3), np.log(3.0), 400))
        for ell, t, v in zip(ells, mats, vols):
            k, t, v = math.exp(ell), float(t), float(v)
            sq = v * math.sqrt(t)
            d1 = -np.log(np.asarray(k)) / sq + 0.5 * sq
            want = float(stats.norm.cdf(d1) - k * stats.norm.cdf(d1 - sq))
            assert pricing.bs_price(k, t, v) == want
            d1 = -math.log(k) / sq + 0.5 * sq
            assert pricing.bs_vega(k, t, v) == stats.norm.pdf(d1) * math.sqrt(t)
        ks = np.exp(ells)
        sq = 0.2 * math.sqrt(0.75)
        d1 = -np.log(ks) / sq + 0.5 * sq
        want = stats.norm.cdf(d1) - ks * stats.norm.cdf(d1 - sq)
        assert np.array_equal(pricing.bs_price(ks, 0.75, 0.2), want)

    def test_vega_matches_difference_quotient(self):
        k, t, v = 1.05, 0.75, 0.3
        h = 1e-6
        num = (pricing.bs_price(k, t, v + h)
               - pricing.bs_price(k, t, v - h)) / (2.0 * h)
        assert pricing.bs_vega(k, t, v) == pytest.approx(num, rel=1e-8)


class TestImpliedVol:
    def test_round_trip_grid(self):
        # the inversion contract is a repriced error below tol; the vol
        # itself is only pinned down when the time value is informative
        for vol in (0.08, 0.2, 0.5):
            for t in (0.1, 1.0, 3.0):
                for k in (0.7, 0.9, 1.0, 1.1, 1.4):
                    price = pricing.bs_price(k, t, vol)
                    time_value = price - max(1.0 - k, 0.0)
                    try:
                        got = pricing.implied_vol(price, k, t)
                    except pricing.OutOfBoundsError:
                        assert time_value < 1e-9
                        continue
                    back = pricing.bs_price(k, t, got)
                    assert abs(back - price) < 1e-9
                    if time_value > 1e-9:
                        assert abs(got - vol) < 1e-8

    def test_deep_out_of_the_money_recovers_vol(self):
        # the call is worth about 1e-29 here; an absolute residual test
        # accepts the bracket floor 1.01e-6 at the first guess
        k = math.exp(0.4)
        got = pricing.implied_vol(pricing.bs_price(k, 0.25, 0.12), k, 0.25)
        assert got == pytest.approx(0.12, rel=1e-10)

    def test_round_trip_sweep(self):
        # vol-space recovery over a (ln K, T, v) box; an in-the-money call
        # whose time value is lost to the rounding of the call price can
        # not pin its vol, so those nodes only need a small repriced error
        for ell in np.linspace(-0.6, 0.6, 13):
            k = math.exp(ell)
            for t in (0.02, 0.25, 1.0, 3.0):
                for vol in (0.03, 0.12, 0.4, 1.5):
                    price = pricing.bs_price(k, t, vol)
                    time_value = price - max(1.0 - k, 0.0)
                    case = (ell, t, vol)
                    try:
                        got = pricing.implied_vol(price, k, t)
                    except pricing.OutOfBoundsError:
                        assert time_value <= 1e-15 * price, case
                        continue
                    if k >= 1.0 or time_value > 1e-9:
                        assert got == pytest.approx(vol, rel=1e-9), case
                    else:
                        back = pricing.bs_price(k, t, got)
                        assert abs(back - price) < 1e-13, case

    @settings(deadline=None, max_examples=1000)
    @given(ell=st.floats(-1.0, 1.0),
           log_t=st.floats(math.log(0.004), math.log(5.0)),
           log_v=st.floats(math.log(0.02), math.log(2.0)))
    # subnormal calls, 1.05e-313 and 9.0e-311: the first used to raise
    # ArithmeticError, the second to return a vol 0.57 % off
    @example(ell=0.7372, log_t=math.log(0.10486), log_v=math.log(0.06046))
    @example(ell=0.4547, log_t=math.log(0.01121), log_v=math.log(0.114))
    def test_wide_box(self, ell, log_t, log_v):
        # where the price determines the vol (a normal float whose time
        # value exceeds 1e-6 of it) the vol comes back within 1e-8; anywhere
        # else the answer is a vol that reprices within the inversion's own
        # tolerance, or OutOfBoundsError
        k, t, vol = math.exp(ell), math.exp(log_t), math.exp(log_v)
        price = pricing.bs_price(k, t, vol)
        time_value = price - max(1.0 - k, 0.0)
        try:
            got = pricing.implied_vol(price, k, t)
        except pricing.OutOfBoundsError:
            got = None
        if price >= np.finfo(float).tiny and time_value > 1e-6 * price:
            assert got == pytest.approx(vol, rel=1e-8, abs=0)
        elif got is not None:
            sq = got * math.sqrt(t)
            d1 = -math.log(k) / sq + 0.5 * sq
            tol = max(pricing._IVOL_TOL * time_value,
                      4.0 * np.finfo(float).eps * (1.0 + d1 * d1) * ndtr(d1))
            assert abs(pricing.bs_price(k, t, got) - price) <= tol

    def test_below_intrinsic(self):
        with pytest.raises(pricing.OutOfBoundsError) as exc:
            pricing.implied_vol(0.29, 0.7, 1.0)
        assert exc.value.boundary == "lower"

    @pytest.mark.parametrize("ell, t, vol", [(-0.3, 0.25, 0.08),
                                             (-0.45, 0.25, 0.12)])
    def test_time_value_at_the_rounding_of_the_price(self, ell, t, vol):
        # the time value is 1.1e-16, below 4 eps of the price: these used
        # to return 0.080279 and 0.119610
        k = math.exp(ell)
        price = pricing.bs_price(k, t, vol)
        assert 0.0 < price - (1.0 - k) <= 4.0 * np.finfo(float).eps * price
        with pytest.raises(pricing.OutOfBoundsError) as exc:
            pricing.implied_vol(price, k, t)
        assert exc.value.boundary == "lower"

    def test_above_forward(self):
        with pytest.raises(pricing.OutOfBoundsError) as exc:
            pricing.implied_vol(1.0, 1.0, 1.0)
        assert exc.value.boundary == "upper"

    def test_below_bracket(self):
        # positive but smaller than the vol-floor price
        tiny = pricing.bs_price(1.0, 1.0, 1e-6) * 0.5
        with pytest.raises(pricing.OutOfBoundsError) as exc:
            pricing.implied_vol(tiny, 1.0, 1.0)
        assert exc.value.boundary == "lower"

    def test_above_bracket(self):
        big = 0.5 * (pricing.bs_price(1.0, 3.0, 5.0) + 1.0)
        with pytest.raises(pricing.OutOfBoundsError) as exc:
            pricing.implied_vol(big, 1.0, 3.0)
        assert exc.value.boundary == "upper"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pricing.implied_vol(0.1, 1.0, 0.0)
        with pytest.raises(ValueError):
            pricing.implied_vol(0.1, -1.0, 1.0)


class TestOptionGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            pricing.OptionGrid(maturities=(), log_moneyness=(0.0,))
        with pytest.raises(ValueError):
            pricing.OptionGrid(maturities=(0.0, 1.0), log_moneyness=(0.0,))
        with pytest.raises(ValueError):
            pricing.OptionGrid(maturities=(1.0,), log_moneyness=())

    def test_coerces_floats(self):
        g = pricing.OptionGrid(maturities=(1,), log_moneyness=(0,))
        assert g.maturities == (1.0,)
        assert isinstance(g.maturities[0], float)


@pytest.fixture(scope="module")
def surface(models):
    grid = pricing.OptionGrid(maturities=(0.25, 1.0),
                              log_moneyness=(-0.1, -0.01, 0.0, 0.01, 0.1))
    cfg = mc.McConfig(n_paths=20_000, horizon=1.0, seed=42,
                      steps_per_year=100)
    return pricing.price_options(models["M3"], grid, cfg)


class TestSurface:
    def test_shapes_and_metadata(self, surface):
        assert surface.call_price.shape == (2, 5)
        assert surface.maturities.shape == (2,)
        assert surface.seed == 42
        assert surface.n_paths == 20_000

    def test_parity_gap_equals_forward_error(self, surface):
        # calls and puts come from the same paths, so the parity gap is
        # the forward-mean error replicated across strikes, exactly
        gap = surface.parity_gap()
        want = surface.forward_mean - 1.0
        assert np.allclose(gap, want[:, None], atol=1e-14)

    def test_forward_is_martingale(self, surface):
        z = (surface.forward_mean - 1.0) / surface.forward_se
        assert np.all(np.abs(z) < 4.0)

    def test_prices_respect_static_bounds(self, surface):
        k = np.exp(surface.ell)
        assert np.all(surface.call_price > np.maximum(1.0 - k, 0.0) - 1e-12)
        assert np.all(surface.call_price < 1.0)
        assert np.all(surface.call_se > 0.0)

    def test_call_decreasing_in_strike(self, surface):
        assert np.all(np.diff(surface.call_price, axis=1) < 0)

    def test_implied_vols_fill(self, surface):
        s2 = pricing.with_implied_vols(surface)
        assert s2.ivol.shape == surface.call_price.shape
        assert np.all(np.isfinite(s2.ivol))
        assert np.all((s2.ivol > 0.03) & (s2.ivol < 0.5))
        # repricing through the implied vol recovers the MC price
        for i in range(2):
            for j in range(5):
                back = pricing.bs_price(math.exp(surface.ell[j]),
                                        surface.maturities[i],
                                        s2.ivol[i, j])
                assert back == pytest.approx(surface.call_price[i, j],
                                             abs=1e-9)

    def test_atm_term_structures(self, surface):
        s2 = pricing.with_implied_vols(surface)
        atm_vol, atm_skew = pricing.atm_term_structures(s2, eps=0.01)
        assert atm_vol.shape == (2,)
        assert np.all(atm_vol > 0)
        # negative feedback (beta < 0) tilts the smile down
        assert np.all(atm_skew < 0)

    def test_missing_nodes(self, surface):
        with pytest.raises(pricing.MissingNodesError):
            pricing.atm_term_structures(surface, eps=0.05)

    @pytest.mark.parametrize("eps", [0.0, 1e-300, -1e-17, float("nan"),
                                     float("inf"), 1e3])
    def test_degenerate_eps_rejected(self, surface, eps):
        # e^(+-eps) rounds to 1, to 0 or is not finite: no difference quotient
        with pytest.raises(ValueError, match="eps"):
            pricing.atm_term_structures(surface, eps=eps)

    def test_inverts_at_the_payoff_strike(self, surface):
        # math.exp(-0.01) is one ulp above np.exp(-0.01), the strike the
        # payoffs were taken at; each node inverts at np.exp(ell)[j]
        s2 = pricing.with_implied_vols(surface)
        j, k = 1, np.exp(np.float64(-0.01))
        assert k != math.exp(-0.01)
        for i, t in enumerate(surface.maturities):
            want = pricing.implied_vol(surface.call_price[i, j], k, t)
            assert s2.ivol[i, j].tobytes() == np.float64(want).tobytes()
        assert np.exp(surface.ell)[j] == k

    def test_undefined_atm_vol_is_a_missing_node(self, surface):
        s2 = pricing.with_implied_vols(surface)
        ivol = s2.ivol.copy()
        ivol[1, np.argmin(np.abs(s2.ell))] = np.nan
        with pytest.raises(pricing.MissingNodesError,
                           match="undefined at an ATM node for maturity"):
            pricing.atm_term_structures(replace(s2, ivol=ivol), eps=0.01)

    def test_deterministic_given_seed(self, models):
        grid = pricing.OptionGrid(maturities=(0.5,), log_moneyness=(0.0,))
        cfg = mc.McConfig(n_paths=2_000, horizon=0.5, seed=9,
                          steps_per_year=100)
        a = pricing.price_options(models["M2"], grid, cfg)
        b = pricing.price_options(models["M2"], grid, cfg)
        assert np.array_equal(a.call_price, b.call_price)
        assert np.array_equal(a.ivol is None, b.ivol is None)

    def test_snapped_maturities_recorded(self, models):
        # 0.3 * 70 = 21 steps exactly; 0.333 * 70 = 23.31 snaps to 23
        grid = pricing.OptionGrid(maturities=(0.3, 0.333),
                                  log_moneyness=(0.0,))
        cfg = mc.McConfig(n_paths=500, horizon=1.0, seed=10,
                          steps_per_year=70)
        s = pricing.price_options(models["M1"], grid, cfg)
        assert s.maturities[0] == pytest.approx(21.0 / 70.0)
        assert s.maturities[1] == pytest.approx(23.0 / 70.0)

    def test_half_step_maturity_priced_at_its_snapped_step(self, models):
        # 0.006 * 250 = 1.5 snaps to step 2: the row of 0.008, the row
        # 0.006 alone gives, not a second copy of 0.004's
        cfg = mc.McConfig(n_paths=2_000, horizon=0.006, seed=11,
                          steps_per_year=250)
        both = pricing.price_options(models["M3"], pricing.OptionGrid(
            maturities=(0.004, 0.006), log_moneyness=(0.0,)), cfg)
        alone = pricing.price_options(models["M3"], pricing.OptionGrid(
            maturities=(0.006,), log_moneyness=(0.0,)), cfg)
        assert both.maturities.tolist() == [0.004, 0.008]
        for field in ("maturities", "call_price", "call_se", "put_price",
                      "put_se", "forward_mean", "forward_se"):
            assert (getattr(both, field)[1:].tobytes()
                    == getattr(alone, field).tobytes())

    def test_y0_override(self, models):
        grid = pricing.OptionGrid(maturities=(0.25,), log_moneyness=(0.0,))
        cfg = mc.McConfig(n_paths=2_000, horizon=0.25, seed=12,
                          steps_per_year=100)
        hot = pricing.price_options(models["M2"], grid,
                                    replace(cfg, y0=np.array([0.2])))
        cold = pricing.price_options(models["M2"], grid, cfg)
        # starting offset raises instantaneous variance, so ATM gets dearer
        assert hot.call_price[0, 0] > cold.call_price[0, 0]


class TestAtmNodes:
    """The 0 and +-eps columns are the nearest nodes of the row, accepted
    within min(1e-9, eps/4), so an eps below 1e-9 still finds three
    distinct columns, each at its own target."""

    ELLS = (-2e-9, -5e-10, -1e-10, 0.0, 1e-10, 5e-10, 2e-9)

    @pytest.fixture(scope="class")
    def tiny(self, models):
        grid = pricing.OptionGrid(maturities=(0.25, 0.5),
                                  log_moneyness=self.ELLS)
        cfg = mc.McConfig(n_paths=8192, horizon=0.5, seed=12345)
        return pricing.with_implied_vols(
            pricing.price_options(models["M3"], grid, cfg))

    @pytest.mark.parametrize("eps", [1e-10, 5e-10])
    def test_small_eps_matches_wider_quotient(self, tiny, eps):
        vol, skew = pricing.atm_term_structures(tiny, eps=eps)
        _, ref = pricing.atm_term_structures(tiny, eps=2e-9)
        assert np.all(ref < -0.3)
        assert np.allclose(skew, ref, rtol=1e-5, atol=0.0)
        atm = tiny.ivol[:, self.ELLS.index(0.0)]
        assert vol.tobytes() == atm.tobytes()

    def test_near_node_is_not_taken(self, tiny):
        # 1e-10 is within 1e-9 of 3e-10 but not within 3e-10 / 4
        sub = replace(tiny, ell=tiny.ell[..., 2:5], ivol=tiny.ivol[:, 2:5])
        with pytest.raises(pricing.MissingNodesError, match="3e-10"):
            pricing.atm_term_structures(sub, eps=3e-10)


def reference_price_options(params, grid, cfg):
    """price_options as it reduced (strikes, paths) payoff matrices, kept
    verbatim as the reference for the one-strike-at-a-time reduction."""
    mats = np.asarray(grid.maturities, dtype=float)
    batch = mc.simulate(params, replace(cfg, horizon=float(mats.max())),
                        probes=list(mats))
    n_t = mats.size
    ells = np.asarray(grid.log_moneyness, dtype=float)
    n_l = ells.size
    shape = (n_t, n_l)
    call_m = np.empty(shape)
    call_s = np.empty(shape)
    put_m = np.empty(shape)
    put_s = np.empty(shape)
    fwd_m = np.empty(n_t)
    fwd_s = np.empty(n_t)
    actual = np.empty(n_t)
    for i, t in enumerate(mats):
        idx = batch.time_index(t)
        actual[i] = batch.times[idx]
        ex = np.exp(batch.x[idx])
        k = np.exp(ells)
        call_m[i], call_s[i] = batch.mean_se(
            np.maximum(ex[None, :] - k[:, None], 0.0))
        put_m[i], put_s[i] = batch.mean_se(
            np.maximum(k[:, None] - ex[None, :], 0.0))
        fwd_m[i], fwd_s[i] = batch.mean_se(ex)
    return pricing.SmileSurface(maturities=actual, ell=ells, call_price=call_m,
                                call_se=call_s, put_price=put_m,
                                put_se=put_s, forward_mean=fwd_m,
                                forward_se=fwd_s, seed=cfg.seed,
                                n_paths=batch.n_paths)


class TestReductionMatchesMatrixReference:
    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("name", ["MM3", "M3"])
    def test_bit_identical(self, models, name, antithetic, threads,
                           monkeypatch):
        # a partial last block: 2 * 4096 + 10 paths; the streamed prices
        # are reduced on the worker threads, the reference on stored paths
        monkeypatch.setenv("QHR_THREADS", threads)
        grid = pricing.OptionGrid(maturities=(0.1, 0.25, 0.5),
                                  log_moneyness=(-0.4, -0.1, 0.0, 0.05, 0.3))
        cfg = mc.McConfig(n_paths=2 * mc._BLOCK + 10, horizon=1.0, seed=19,
                          steps_per_year=50, antithetic=antithetic)
        got = pricing.price_options(models[name], grid, cfg)
        ref = reference_price_options(models[name], grid, cfg)
        for field in ("maturities", "ell", "call_price", "call_se",
                      "put_price", "put_se", "forward_mean", "forward_se"):
            assert np.array_equal(getattr(got, field), getattr(ref, field))
        assert got.n_paths == ref.n_paths


class TestStreamedMemory:
    def test_peak_does_not_grow_with_maturities(self, models, monkeypatch):
        # stored snapshots of x, y and ivar would add 100 000 * 8 bytes per
        # array and maturity: about 41 MiB for 18 more maturities
        monkeypatch.setenv("QHR_THREADS", "2")
        cfg = mc.McConfig(n_paths=100_000, horizon=2.0, seed=12345)
        ells = (-0.01, 0.0, 0.01)
        peaks = []
        for mats in ((1.0 / 12.0, 0.25, 0.5, 1.0, 1.5, 2.0),
                     tuple(np.linspace(1.0 / 12.0, 2.0, 24))):
            grid = pricing.OptionGrid(maturities=mats, log_moneyness=ells)
            tracemalloc.start()
            try:
                pricing.price_options(models["M3"], grid, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2**20
