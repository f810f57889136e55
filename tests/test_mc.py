"""Path simulation: determinism, exact discrete-chain identities, and the
statistical behaviour of the estimators."""

import hashlib
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from qhr import mc, model, moments, scalar


def scalar_model(lam, alpha, beta, gamma):
    return model.ModelParams(lam=[[lam]], b=[1.0], alpha=alpha,
                             beta=[beta], gamma_mat=[[gamma]])


def flat_model(alpha):
    """Constant volatility: the offset feeds back into nothing."""
    return scalar_model(1.0, alpha, 0.0, 0.0)


# a p = 3 rank-one cascade: one Jordan block of rate 4
CASCADE = model.rank_one(model.JordanSpec(((4.0, 3),)), w=(0.5, 0.3, 0.2),
                         alpha=0.01, beta0=-0.05, gamma0=1.0)


def burn_in_residual(params, steps, steps_per_year, gaussian):
    """The largest |m(tau) - m_infty| over the moments of degree 1..4, each
    in units of s^degree (s^2 the largest stationary E[y_i^2]), after each
    step count of steps from zero or from the Gaussian with the stationary
    mean (0) and covariance, whose moments Isserlis' theorem gives; the
    propagation is scipy's expm."""
    sys_ = moments.build_moment_system(params)
    p = sys_.p
    assert not sys_.m_infty[:p].any()
    i, j = sys_.quadratic_pairs
    cov = np.empty((p, p))
    cov[i, j] = cov[j, i] = sys_.m_infty[p:sys_.n_eta]
    m0 = np.zeros_like(sys_.m_infty)
    for row, e in enumerate(sys_.exponents if gaussian else ()):
        k = np.repeat(np.arange(p), e)
        if k.size == 2:
            m0[row] = cov[k[0], k[1]]
        elif k.size == 4:
            m0[row] = (cov[k[0], k[1]] * cov[k[2], k[3]]
                       + cov[k[0], k[2]] * cov[k[1], k[3]]
                       + cov[k[0], k[3]] * cov[k[1], k[2]])
    scale = cov.diagonal().max() ** (0.5 * sys_.exponents.sum(axis=1))
    return [np.max(np.abs(scipy.linalg.expm(-sys_.a_sym * n / steps_per_year)
                          @ (m0 - sys_.m_infty)) / scale) for n in steps]


def chain_mean(params, y0, dt, n_steps):
    """E[y_N] for the Euler chain: the shock term has zero mean, so the
    mean contracts by (I - lam dt) each step regardless of the quadratic."""
    step = np.eye(params.p) - params.lam * dt
    return np.linalg.matrix_power(step, n_steps) @ np.asarray(y0, float)


def chain_m24(sp, dt, n_steps):
    """(E[y^2], E[y^4]) of the scalar Euler chain started at zero, beta=0.

    Conditioning on y and using the Gaussian moments of the shock gives a
    closed two-term recursion; this is an exact property of the discrete
    scheme, not of the continuous model."""
    m2 = m4 = 0.0
    for _ in range(n_steps):
        a = 1.0 - sp.lam * dt
        m4 = (a**4 * m4 + 6.0 * a * a * dt * (sp.alpha * m2 + sp.gamma * m4)
              + 3.0 * dt * dt * (sp.alpha**2 + 2.0 * sp.alpha * sp.gamma * m2
                                 + sp.gamma**2 * m4))
        m2 = a * a * m2 + dt * (sp.alpha + sp.gamma * m2)
    return m2, m4


def reference_euler_block(params, y, n_steps, dt, rng, antithetic, snap_rows,
                          sinks, col):
    """Row-major Euler step over one block of paths, kept verbatim from the
    engine before super-blocks: the arithmetic mc._euler_block reproduces."""
    nb = y.shape[0]
    n_base = nb // 2 if antithetic else nb
    alpha = params.alpha
    beta2 = 2.0 * params.beta
    gam = params.gamma_mat
    lam_t = params.lam.T
    b = params.b
    sqdt = math.sqrt(dt)
    x = np.zeros(nb)
    ivar = np.zeros(nb)
    floored = 0
    x_out, y_out, ivar_out = sinks

    def record(row):
        x_out[row, col] = x
        y_out[row, col] = y
        ivar_out[row, col] = ivar

    if 0 in snap_rows:
        record(snap_rows[0])
    for step in range(1, n_steps + 1):
        sig2 = alpha + y @ beta2 + np.einsum("ij,ij->i", y @ gam, y)
        bad = sig2 < 0.0
        if bad.any():
            floored += int(bad.sum())
            sig2 = np.where(bad, 0.0, sig2)
        sig = np.sqrt(sig2)
        z = rng.standard_normal(n_base)
        if antithetic:
            zf = np.empty(nb)
            zf[0::2] = z
            zf[1::2] = -z
        else:
            zf = z
        shock = sig * (sqdt * zf)
        x += shock - (0.5 * dt) * sig2
        ivar += dt * sig2
        y += shock[:, None] * b - (y @ lam_t) * dt
        if step in snap_rows:
            record(snap_rows[step])
    return floored


def reference_simulate(params, cfg, probes, phase=mc._PHASE_MAIN):
    """(x, y, ivar, floored_steps) from reference_euler_block run serially
    over the _BLOCK-path blocks, each on its own substream of phase."""
    n_steps = int(round(cfg.horizon * cfg.steps_per_year))
    steps = sorted({int(round(t * cfg.steps_per_year)) for t in probes}
                   | {n_steps})
    snap_rows = {s: i for i, s in enumerate(steps)}
    n, p = cfg.n_paths, params.p
    sinks = (np.empty((len(steps), n)), np.empty((len(steps), n, p)),
             np.empty((len(steps), n)))
    start = np.zeros(p) if cfg.y0 is None else cfg.y0
    y0 = np.tile(np.asarray(start, dtype=float), (n, 1))
    floored = 0
    for lo in range(0, n, mc._BLOCK):
        hi = min(lo + mc._BLOCK, n)
        rng = mc._block_rng(cfg.seed, phase, lo // mc._BLOCK)
        floored += reference_euler_block(
            params, y0[lo:hi].copy(), n_steps, 1.0 / cfg.steps_per_year, rng,
            cfg.antithetic, snap_rows, sinks, slice(lo, hi))
    return sinks + (floored,)


class TestKernelMatchesRowMajorReference:
    # a partial last block; the ten blocks form two super-blocks of five
    N_PATHS = 9 * mc._BLOCK + 2
    BURN_IN = 0.2

    # p = 1 with degenerate coefficients: flat (beta = Gamma = 0) and M2
    # (beta = 0), whose zero products carry signs that bytes compare
    MODELS = ["M3", "MM3", "MM5", "flat", "M2"]

    @staticmethod
    def _params(models, name):
        return flat_model(0.04) if name == "flat" else models[name]

    def _compare(self, params, antithetic, threads, monkeypatch, y0=0.02):
        monkeypatch.setenv("QHR_THREADS", threads)
        cfg = mc.McConfig(n_paths=self.N_PATHS, horizon=0.1, seed=31,
                          steps_per_year=100, antithetic=antithetic,
                          y0=np.full(params.p, y0))
        batch = mc.simulate(params, cfg, probes=[0.0, 0.05])
        ref = reference_simulate(params, cfg, [0.0, 0.05])
        got = (batch.x, batch.y, batch.ivar, batch.floored_steps)
        return got, ref

    def _compare_burn_in(self, params, antithetic, threads, monkeypatch):
        """stationary_init against the reference run from zero over the
        burn-in on the burn-in substreams: (got, reference (x, y, ivar,
        floored_steps))."""
        monkeypatch.setenv("QHR_THREADS", threads)
        cfg = mc.McConfig(n_paths=self.N_PATHS, horizon=0.1, seed=31,
                          steps_per_year=100, antithetic=antithetic,
                          y0=mc.StationaryInit(self.BURN_IN))
        got = mc.stationary_init(params, self.BURN_IN, cfg)
        bcfg = mc.McConfig(n_paths=self.N_PATHS, horizon=self.BURN_IN,
                           seed=31, steps_per_year=100, antithetic=antithetic)
        return got, reference_simulate(params, bcfg, [], mc._PHASE_BURNIN)

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("name", MODELS)
    def test_bit_identical_for_p_up_to_two(self, models, name, antithetic,
                                           threads, monkeypatch):
        for y0 in (0.02, 0.0):
            got, ref = self._compare(self._params(models, name), antithetic,
                                     threads, monkeypatch, y0)
            for g, r in zip(got[:3], ref[:3]):
                assert g.tobytes() == r.tobytes()
            assert got[3] == ref[3]

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("name", MODELS)
    def test_burn_in_bit_identical_for_p_up_to_two(self, models, name,
                                                   antithetic, threads,
                                                   monkeypatch):
        params = self._params(models, name)
        got, ref = self._compare_burn_in(params, antithetic, threads,
                                         monkeypatch)
        assert got.shape == (self.N_PATHS, params.p)
        assert got.tobytes() == ref[1][-1].tobytes()

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_burn_in_floors_like_the_reference(self, antithetic,
                                               monkeypatch):
        # stable, with sigma^2 < 0 for 0.0177 < y < 0.282: some paths
        # diffuse from zero into that band during the burn-in
        params = scalar_model(4.0, 0.01, -0.3, 2.0)
        got, ref = self._compare_burn_in(params, antithetic, "3",
                                         monkeypatch)
        assert ref[3] > 0
        assert np.array_equal(got, ref[1][-1])

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_three_factors_agree_to_rounding(self, antithetic, monkeypatch):
        # for p >= 3 BLAS and einsum may order the contractions differently
        # from the component-major sums; 10 steps of double rounding on
        # values of order 0.1 stay far inside 1e-12 of the largest entry
        # (20 burn-in steps from zero likewise)
        params = model.rank_one(model.JordanSpec(((12, 1), (4, 1), (1, 1))),
                                w=(0.5, 0.3, 0.2), alpha=0.01, beta0=-0.1,
                                gamma0=1.0)
        got, ref = self._compare(params, antithetic, "3", monkeypatch)
        for g, r in zip(got[:3], ref[:3]):
            assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))
        assert got[3] == ref[3]
        got, ref = self._compare_burn_in(params, antithetic, "3",
                                         monkeypatch)
        ref = ref[1][-1]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("y0, every_step", [(0.15, True), (0.0178, False)])
    def test_floored_steps_match_exactly(self, antithetic, y0, every_step,
                                         monkeypatch):
        # TestFlooring's model has sigma^2 < 0 for 0.0177 < y < 0.282: from
        # 0.15 every path floors on every step; from 0.0178 the paths leave
        # the band after one step and only some of them come back
        params = scalar_model(1.0, 0.01, -0.3, 2.0)
        got, ref = self._compare(params, antithetic, "3", monkeypatch, y0)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)
        all_steps = 10 * self.N_PATHS
        assert (got[3] == all_steps) == every_step
        assert got[3] >= self.N_PATHS


class TestDeterminism:
    def test_same_seed_same_paths(self, models):
        cfg = mc.McConfig(n_paths=512, horizon=0.3, seed=77,
                          steps_per_year=100)
        b1 = mc.simulate(models["M3"], cfg, probes=[0.1])
        b2 = mc.simulate(models["M3"], cfg, probes=[0.1])
        assert np.array_equal(b1.x, b2.x)
        assert np.array_equal(b1.y, b2.y)
        assert np.array_equal(b1.ivar, b2.ivar)

    def test_seed_changes_paths(self, models):
        cfg1 = mc.McConfig(n_paths=512, horizon=0.3, seed=77,
                           steps_per_year=100)
        cfg2 = mc.McConfig(n_paths=512, horizon=0.3, seed=78,
                           steps_per_year=100)
        b1 = mc.simulate(models["M3"], cfg1)
        b2 = mc.simulate(models["M3"], cfg2)
        assert not np.array_equal(b1.x, b2.x)

    def test_thread_count_does_not_change_results(self, models,
                                                  monkeypatch):
        # 10k paths spans three 4096-path blocks; the negative-variance
        # model floors every path on step one
        cases = [(models["MM3"], True, None), (models["MM3"], False, None),
                 (scalar_model(1.0, 0.01, -0.3, 2.0), True, [0.15])]
        for params, antithetic, y0 in cases:
            cfg = mc.McConfig(n_paths=10_000, horizon=0.2, seed=5,
                              steps_per_year=50, antithetic=antithetic,
                              y0=y0)
            runs = []
            for threads in ("1", "2", "3", "4"):
                monkeypatch.setenv("QHR_THREADS", threads)
                runs.append(mc.simulate(params, cfg))
            serial = runs[0]
            for threaded in runs[1:]:
                assert np.array_equal(serial.x, threaded.x)
                assert np.array_equal(serial.y, threaded.y)
                assert np.array_equal(serial.ivar, threaded.ivar)
                assert serial.floored_steps == threaded.floored_steps
        assert serial.floored_steps >= 10_000

    @pytest.mark.parametrize("value", ["x", "0", "-3", "1.5"])
    def test_threads_setting_must_be_positive_integer(self, models,
                                                      monkeypatch, value):
        cfg = mc.McConfig(n_paths=100, horizon=0.1, seed=1,
                          steps_per_year=50)
        monkeypatch.setenv("QHR_THREADS", value)
        with pytest.raises(mc.ConfigInvalidError, match=repr(value)):
            mc.simulate(models["M1"], cfg)

    def test_super_blocks_partition_the_blocks(self):
        # the partition reads the block count alone, not the thread count
        assert [len(r) for r in mc._super_blocks(25)] == [7, 6, 6, 6]
        assert [len(r) for r in mc._super_blocks(4)] == [4]
        assert [len(r) for r in mc._super_blocks(1)] == [1]
        assert [len(r) for r in mc._super_blocks(9)] == [5, 4]
        for n_blocks in (1, 7, 8, 16, 17, 100):
            runs = mc._super_blocks(n_blocks)
            assert np.array_equal(np.concatenate(runs), np.arange(n_blocks))
            assert max(len(r) for r in runs) <= mc._SUPER
            assert len(runs) == -(-n_blocks // mc._SUPER)

    def test_default_threads_count_the_cpus_the_process_may_use(
            self, monkeypatch):
        monkeypatch.delenv("QHR_THREADS", raising=False)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert mc._n_threads() == 1
        monkeypatch.setattr(mc.os, "sched_getaffinity",
                            lambda pid: set(range(20)))
        assert mc._n_threads() == 8
        # without an affinity call the count falls back to the CPUs
        monkeypatch.delattr(mc.os, "sched_getaffinity")
        assert mc._n_threads() == 2
        monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
        assert mc._n_threads() == 1
        monkeypatch.setenv("QHR_THREADS", "3")
        assert mc._n_threads() == 3


class TestPartition:
    """Every sink call and every array is the same at any thread count and
    any ring size: the super-blocks depend on the path count alone, and
    each block draws its normals from its own generator."""

    # 1, 2, 4, 8 and 25 blocks, and a ragged 4 * 4096 + 2
    N_PATHS = [mc._BLOCK, 2 * mc._BLOCK, 4 * mc._BLOCK, 8 * mc._BLOCK,
               25 * mc._BLOCK, 4 * mc._BLOCK + 2]

    @staticmethod
    def _run(params, cfg, probes):
        """{(row, lo): (x, y, ivar)} from stream, the floored steps, and
        the stationary start."""
        seen = {}

        def sink(row, lo, x, y, ivar):
            assert (row, lo) not in seen
            seen[row, lo] = (x.copy(), y.copy(), ivar.copy())

        floored, burn_in = mc.stream(params, cfg, probes, sink)
        start = mc.stationary_init(params, cfg.y0.burn_in, cfg)
        return seen, floored, burn_in, start

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("name", ["M3", "MM3", "cascade"])
    @pytest.mark.parametrize("n_paths", N_PATHS)
    def test_outputs_do_not_depend_on_the_thread_count(
            self, models, name, n_paths, antithetic, monkeypatch):
        params = CASCADE if name == "cascade" else models[name]
        # 7 burn-in steps and 7 main steps; the small ring takes them in
        # chunks of 3, 3 and 1
        cfg = mc.McConfig(n_paths=n_paths, horizon=0.028, seed=17,
                          antithetic=antithetic,
                          y0=mc.StationaryInit(burn_in=0.028))
        probes = [0.0, 0.012]
        monkeypatch.setenv("QHR_THREADS", "1")
        want = self._run(params, cfg, probes)
        assert len(want[0]) == 3 * len(mc._super_blocks(-(-n_paths
                                                           // mc._BLOCK)))
        per = mc._BLOCK // 2 if antithetic else mc._BLOCK
        small = 3 * 16 * min(n_paths // (2 if antithetic else 1), 8 * per)
        for threads, ring in [("2", None), ("3", None), ("8", None),
                              ("1", small), ("3", small)]:
            monkeypatch.setenv("QHR_THREADS", threads)
            if ring is not None:
                monkeypatch.setattr(mc, "_RING_BYTES", ring)
            got = self._run(params, cfg, probes)
            assert got[0].keys() == want[0].keys()
            for key, arrays in want[0].items():
                for g, w in zip(got[0][key], arrays):
                    assert g.tobytes() == w.tobytes()
            assert got[1:3] == want[1:3]
            assert got[3].tobytes() == want[3].tobytes()

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_small_ring_matches_the_row_major_reference(self, models,
                                                        antithetic,
                                                        monkeypatch):
        # chunks of 2 steps, the last of 1, over 9 * 4096 + 2 paths
        monkeypatch.setenv("QHR_THREADS", "2")
        monkeypatch.setattr(mc, "_RING_BYTES", 2 * 16 * 5 * mc._BLOCK)
        cfg = mc.McConfig(n_paths=9 * mc._BLOCK + 2, horizon=0.1, seed=31,
                          steps_per_year=50, antithetic=antithetic,
                          y0=np.full(2, 0.02))
        batch = mc.simulate(models["MM3"], cfg, probes=[0.0, 0.06])
        ref = reference_simulate(models["MM3"], cfg, [0.0, 0.06])
        for g, r in zip((batch.x, batch.y, batch.ivar), ref[:3]):
            assert g.tobytes() == r.tobytes()
        assert batch.floored_steps == ref[3]


class TestThreadHygiene:
    """No thread outlives a run, whether it returns or its sink raises."""

    CFG = mc.McConfig(n_paths=9 * mc._BLOCK + 2, horizon=0.2, seed=4,
                      steps_per_year=50)

    @staticmethod
    def _bounded(call, timeout=120.0):
        """call() on a thread of its own, failing the test unless it ends
        within timeout seconds (a worker left waiting would hang it);
        returns its result or raises its exception."""
        outcome = []

        def target():
            try:
                outcome.append((True, call()))
            except Exception as exc:
                outcome.append((False, exc))

        thread = threading.Thread(target=target)
        thread.start()
        thread.join(timeout)
        assert not thread.is_alive()
        ok, value = outcome[0]
        if not ok:
            raise value
        return value

    @pytest.mark.parametrize("threads", ["1", "2", "8"])
    def test_runs_leave_no_thread(self, models, threads, monkeypatch):
        from qhr import pricing

        monkeypatch.setenv("QHR_THREADS", threads)
        before = threading.active_count()
        grid = pricing.OptionGrid((0.1, 0.2), (-0.1, 0.0, 0.1))
        stationary = replace(self.CFG, y0=mc.StationaryInit())
        for call in (lambda: mc.simulate(models["MM3"], self.CFG, [0.1]),
                     lambda: pricing.price_options(models["MM3"], grid,
                                                   self.CFG),
                     lambda: mc.simulate(models["MM1"], stationary)):
            self._bounded(call)
            assert threading.active_count() == before

    @pytest.mark.parametrize("threads", ["1", "2", "8"])
    def test_a_raising_sink_leaves_no_thread(self, models, threads,
                                             monkeypatch):
        monkeypatch.setenv("QHR_THREADS", threads)
        before = threading.active_count()
        calls = []

        def sink(row, lo, x, y, ivar):
            calls.append((row, lo))
            # the second of the two super-blocks, at t = 0.1 (row 1 of
            # t = 0, 0.1 and the horizon 0.2)
            if row == 1 and lo == mc._BLOCK * 5:
                raise RuntimeError("sink failed")

        with pytest.raises(RuntimeError, match="sink failed"):
            self._bounded(lambda: mc.stream(models["MM3"], self.CFG,
                                            [0.0, 0.1], sink))
        assert threading.active_count() == before
        # the failing super-block stopped before its horizon row
        assert (1, mc._BLOCK * 5) in calls
        assert (2, mc._BLOCK * 5) not in calls


class TestExactChainIdentities:
    def test_flat_model_integrated_variance(self):
        params = flat_model(0.04)
        cfg = mc.McConfig(n_paths=64, horizon=0.5, seed=1,
                          steps_per_year=200)
        batch = mc.simulate(params, cfg, probes=[0.25])
        for i, t in enumerate(batch.times):
            assert np.allclose(batch.ivar[i], 0.04 * t, rtol=1e-12)

    def test_xi_is_martingale_part(self, models):
        cfg = mc.McConfig(n_paths=256, horizon=0.4, seed=2,
                          steps_per_year=100)
        batch = mc.simulate(models["M3"], cfg)
        assert np.array_equal(batch.xi(-1),
                              batch.x[-1] + 0.5 * batch.ivar[-1])

    def test_antithetic_mirrors_offsets_exactly(self, models):
        # beta = 0 and y0 = 0 make sigma even in y, so negating every
        # shock negates the whole offset path in exact float arithmetic
        cfg = mc.McConfig(n_paths=1000, horizon=0.5, seed=3,
                          steps_per_year=200, antithetic=True)
        for name in ("M1", "MM1"):
            batch = mc.simulate(models[name], cfg, probes=[0.1, 0.3])
            pair_sum = batch.y[:, 0::2] + batch.y[:, 1::2]
            assert np.max(np.abs(pair_sum)) == 0.0

    def test_scalar_second_and_fourth_moments(self):
        sp = scalar.ScalarParams(6.0, 0.01, 0.0, 1.0)
        params = scalar_model(sp.lam, sp.alpha, sp.beta, sp.gamma)
        dt, n_steps = 1.0 / 250, 125
        m2_ref, m4_ref = chain_m24(sp, dt, n_steps)
        for seed in (10, 11, 12):
            cfg = mc.McConfig(n_paths=40_000, horizon=0.5, seed=seed,
                              steps_per_year=250)
            batch = mc.simulate(params, cfg)
            y = batch.y_terminal[:, 0]
            for stat, ref in ((y**2, m2_ref), (y**4, m4_ref)):
                mean, se = batch.mean_se(stat)
                assert abs(mean - ref) < 4.0 * se

    def test_second_moment_heavier_tail_model(self, models):
        sp = scalar.ScalarParams.from_model_params(models["M2"])
        dt, n_steps = 1.0 / 250, 125
        m2_ref, _ = chain_m24(sp, dt, n_steps)
        for seed in (20, 21, 22):
            cfg = mc.McConfig(n_paths=40_000, horizon=0.5, seed=seed,
                              steps_per_year=250)
            batch = mc.simulate(models["M2"], cfg)
            mean, se = batch.mean_se(batch.y_terminal[:, 0] ** 2)
            assert abs(mean - m2_ref) < 4.0 * se

    def test_two_factor_mean_decay(self, models):
        params = models["MM1"]
        y0 = np.array([0.05, 0.02])
        dt, n_steps = 1.0 / 250, 50
        ref = chain_mean(params, y0, dt, n_steps)
        cfg = mc.McConfig(n_paths=40_000, horizon=0.2, seed=30,
                          steps_per_year=250, y0=y0)
        batch = mc.simulate(params, cfg)
        for j in range(2):
            mean, se = batch.mean_se(batch.y_terminal[:, j])
            assert abs(mean - ref[j]) < 4.0 * se


class TestMartingale:
    def test_flat_model_exact_gaussian(self):
        params = flat_model(0.04)
        cfg = mc.McConfig(n_paths=50_000, horizon=1.0, seed=4,
                          steps_per_year=100)
        batch = mc.simulate(params, cfg)
        mean, se = batch.mean_se(np.exp(batch.x_terminal))
        assert abs(mean - 1.0) < 3.0 * se
        # with constant vol the shock part of x cancels within each
        # antithetic pair, leaving the drift up to rounding
        mx, sx = batch.mean_se(batch.x_terminal)
        assert mx == pytest.approx(-0.5 * 0.04, abs=1e-14)
        assert sx < 1e-16

    def test_feedback_model(self, models):
        cfg = mc.McConfig(n_paths=50_000, horizon=1.0, seed=6,
                          steps_per_year=250)
        batch = mc.simulate(models["M3"], cfg)
        mean, se = batch.mean_se(np.exp(batch.x_terminal))
        assert abs(mean - 1.0) < 3.0 * se

    def test_antithetic_shrinks_error_bar(self, models):
        kw = dict(n_paths=20_000, horizon=0.5, seed=8, steps_per_year=100)
        anti = mc.simulate(models["M2"], mc.McConfig(antithetic=True, **kw))
        plain = mc.simulate(models["M2"], mc.McConfig(antithetic=False,
                                                      **kw))
        _, se_a = anti.mean_se(np.exp(anti.x_terminal))
        _, se_p = plain.mean_se(np.exp(plain.x_terminal))
        assert se_a < 0.75 * se_p


class TestStationaryStart:
    def test_burn_in_matches_chain_fixed_point(self, models):
        sp = scalar.ScalarParams.from_model_params(models["M2"])
        dt = 1.0 / 250
        # fixed point of the chain m2 recursion; differs from the continuous
        # stationary value at order lam^2 dt
        m2_chain = sp.alpha / (2.0 * sp.lam - sp.gamma - sp.lam**2 * dt)
        cfg = mc.McConfig(n_paths=40_000, horizon=0.1, seed=9,
                          steps_per_year=250, y0=mc.StationaryInit())
        y0 = mc.stationary_init(models["M2"], None, cfg)
        assert y0.shape == (40_000, 1)
        pair = 0.5 * (y0[0::2, 0] ** 2 + y0[1::2, 0] ** 2)
        se = pair.std(ddof=1) / math.sqrt(pair.size)
        assert abs(pair.mean() - m2_chain) < 4.0 * se

    def test_marker_equals_precomputed_array(self, models):
        cfg = mc.McConfig(n_paths=2_000, horizon=0.2, seed=13,
                          steps_per_year=100,
                          y0=mc.StationaryInit(burn_in=1.5))
        via_marker = mc.simulate(models["MM3"], cfg)
        y0 = mc.stationary_init(models["MM3"], 1.5, cfg)
        direct = mc.simulate(models["MM3"],
                             mc.McConfig(n_paths=2_000, horizon=0.2,
                                         seed=13, steps_per_year=100,
                                         y0=y0))
        assert np.array_equal(via_marker.x, direct.x)
        assert np.array_equal(via_marker.y, direct.y)

    def test_unstable_model_rejected(self):
        params = scalar_model(1.0, 0.01, 0.0, 1.2)
        cfg = mc.McConfig(n_paths=100, horizon=0.1, seed=1,
                          steps_per_year=50, y0=mc.StationaryInit())
        with pytest.raises(moments.NotStationaryError):
            mc.simulate(params, cfg)

    @pytest.mark.parametrize("name", [*model.list_fixtures(), "cascade"])
    def test_default_burn_in_meets_the_tolerance(self, models, name):
        # n is the shortest step count whose residual, recomputed here from
        # Isserlis' moments and scipy's expm, is at most the tolerance
        params = CASCADE if name == "cascade" else models[name]
        n, r = mc.default_burn_in(params, 250)
        ref = burn_in_residual(params, [n - 1, n], 250, gaussian=True)
        assert ref[1] <= mc.BURN_IN_TOL
        assert r == pytest.approx(ref[1], rel=1e-6)
        assert ref[0] > mc.BURN_IN_TOL

    def test_slowest_rate_rule_left_more_than_the_tolerance(self, models):
        # the rule default_burn_in replaces, 10 / lam_min years from zero
        for name in ("M1", "M3", "M4", "MM5"):
            params = models[name]
            years = 10.0 / np.linalg.eigvals(params.lam).real.min()
            steps = round(years * 250)
            assert burn_in_residual(params, [steps], 250,
                                    gaussian=False)[0] > mc.BURN_IN_TOL

    def test_gaussian_stationary_law_needs_no_burn_in(self):
        # beta = Gamma = 0: y is an Ornstein-Uhlenbeck process, whose
        # stationary law is the moment-matched Gaussian itself
        n, r = mc.default_burn_in(flat_model(0.04), 250)
        assert n == 0
        assert r < 1e-12

    def test_point_mass_law_needs_no_burn_in(self):
        # b = 0: y never leaves 0, so s = 0 and the residual is 0 / 0
        params = model.ModelParams(lam=[[6.0]], b=[0.0], alpha=0.0133,
                                   beta=[-0.05], gamma_mat=[[0.5]])
        assert mc.default_burn_in(params, 250) == (0, 0.0)
        cfg = mc.McConfig(n_paths=100, horizon=0.1, seed=1,
                          y0=mc.StationaryInit())
        batch = mc.simulate(params, cfg)
        assert batch.burn_in == mc.BurnIn(0, 0.0, 0)
        assert not batch.y.any()

    def test_default_burn_in_gives_up_past_its_cap(self):
        # rate 1e-5: the degree-3 and -4 moments need ~1e5 years
        with pytest.raises(mc.ConfigInvalidError, match="explicit burn_in"):
            mc.default_burn_in(scalar_model(1e-5, 0.01, -0.05, 1e-6), 250)

    def test_run_reports_its_burn_in(self, models):
        # the BurnIn on the batch is the one default_burn_in describes
        cfg = mc.McConfig(n_paths=100, horizon=0.1, seed=2,
                          y0=mc.StationaryInit())
        batch = mc.simulate(models["MM1"], cfg)
        steps, residual = mc.default_burn_in(models["MM1"], 250)
        assert batch.burn_in == mc.BurnIn(steps, residual, 0)
        assert mc.simulate(models["MM1"], replace(cfg, y0=None)).burn_in is None

    def test_default_burn_in_takes_the_step_grid(self, models):
        # the same length in years to within one coarse step
        n250, _ = mc.default_burn_in(models["MM1"], 250)
        n50, _ = mc.default_burn_in(models["MM1"], 50)
        assert abs(n250 / 250 - n50 / 50) <= 1 / 50

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_gaussian_start_matches_the_stationary_moments(self, models,
                                                           antithetic):
        # partners start at mu + L z and mu - L z (mu = 0), and the start's
        # covariance is E[yy'] within its sampling error
        params = models["MM3"]
        sys_ = moments.build_moment_system(params)
        mu, root = mc._gaussian_start(sys_)
        cfg = mc.McConfig(n_paths=40_000, horizon=0.1, seed=4,
                          antithetic=antithetic)
        y = mc._gaussian_draws(mu, root, cfg)
        if antithetic:
            assert np.array_equal(y[0::2], -y[1::2])
        eta = moments.monomials(y, 2)[:, 2:]
        want = sys_.m_infty[2:sys_.n_eta]
        se = eta.std(axis=0, ddof=1) / math.sqrt(len(y))
        assert np.all(np.abs(eta.mean(axis=0) - want) < 4.0 * se)

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("name", ["MM1", "cascade"])
    def test_default_start_bit_identical_across_threads(
            self, models, name, antithetic, monkeypatch):
        # 8194 paths: the last block holds 2; every block draws its start
        # from its own generator, so the first block's 4096 starts are those
        # of a 4096-path run
        params = CASCADE if name == "cascade" else models[name]
        cfg = mc.McConfig(n_paths=8194, horizon=0.1, seed=6,
                          steps_per_year=100, antithetic=antithetic)
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("QHR_THREADS", threads)
            runs.append(mc.stationary_init(params, None, cfg).tobytes())
        assert runs[0] == runs[1] == runs[2]
        sys_ = moments.build_moment_system(params)
        mu, root = mc._gaussian_start(sys_)
        start = mc._gaussian_draws(mu, root, cfg)
        short = mc._gaussian_draws(mu, root, mc.McConfig(
            n_paths=4096, horizon=0.1, seed=6, antithetic=antithetic))
        assert np.array_equal(start[:4096], short)

    @pytest.mark.parametrize("antithetic, digest", [
        (True, "a14bf8e13d97858c955a70cef35f16056e4e2da9fab39fe27005eed271b3d"
               "747"),
        (False, "85905f16d0ea3818c37e6be033fbacea82ee66de60045ad0bce69d6f2a2d"
                "97b4"),
    ])
    def test_explicit_burn_in_keeps_its_bits(self, models, antithetic, digest,
                                             monkeypatch):
        # an explicit burn-in still runs from zero: the sha256 of the MM3
        # sample is the one the slowest-rate rule's code produced
        for threads in ("1", "2"):
            monkeypatch.setenv("QHR_THREADS", threads)
            cfg = mc.McConfig(n_paths=8194, horizon=0.1, seed=5,
                              antithetic=antithetic,
                              y0=mc.StationaryInit(burn_in=1.5))
            y = mc.stationary_init(models["MM3"], 1.5, cfg)
            assert hashlib.sha256(y.tobytes()).hexdigest() == digest


class TestCovEstimator:
    def test_symmetric_model_kills_linear_term(self, models):
        cfg = mc.McConfig(n_paths=20_000, horizon=1.0, seed=14,
                          steps_per_year=250, y0=mc.StationaryInit())
        cov, se = mc.estimate_cov_eta_xi2(models["M2"], 1.0 / 12, cfg)
        assert cov.shape == (2,)
        assert se.shape == (2,)
        # y -> -y symmetry leaves xi^2 invariant, so the y covariance
        # vanishes; the y^2 covariance is genuinely positive
        assert abs(cov[0]) < 4.0 * se[0] + 1e-12
        assert cov[1] > 2.0 * se[1]

    def test_two_factor_shape_and_determinism(self, models):
        cfg = mc.McConfig(n_paths=4_000, horizon=1.0, seed=15,
                          steps_per_year=100,
                          y0=mc.StationaryInit(burn_in=2.0))
        cov1, se1 = mc.estimate_cov_eta_xi2(models["MM1"], 0.25, cfg)
        cov2, _ = mc.estimate_cov_eta_xi2(models["MM1"], 0.25, cfg)
        assert cov1.shape == (5,)  # y1, y2, y1^2, y1 y2, y2^2
        assert np.all(np.isfinite(se1))
        assert np.array_equal(cov1, cov2)

    def test_point_start_is_refused(self, models):
        # a vector or per-path start used to be replaced by StationaryInit()
        # without a word; no start at all still means that default
        base = dict(n_paths=200, horizon=1.0, seed=14, steps_per_year=20)
        for y0 in (np.array([0.3]), np.full((200, 1), 0.3)):
            with pytest.raises(mc.ConfigInvalidError, match="y0"):
                mc.estimate_cov_eta_xi2(models["M3"], 0.25,
                                        mc.McConfig(**base, y0=y0))
        got = mc.estimate_cov_eta_xi2(models["M3"], 0.25, mc.McConfig(**base))
        want = mc.estimate_cov_eta_xi2(
            models["M3"], 0.25, mc.McConfig(**base, y0=mc.StationaryInit()))
        assert all(map(np.array_equal, got, want))


class TestFlooring:
    def test_negative_variance_floored_and_counted(self):
        # beta chosen so sigma^2(y0) < 0: every path floors on step one
        params = scalar_model(1.0, 0.01, -0.3, 2.0)
        cfg = mc.McConfig(n_paths=200, horizon=0.1, seed=16,
                          steps_per_year=100, y0=np.array([0.15]))
        batch = mc.simulate(params, cfg)
        assert batch.floored_steps >= 200
        assert np.all(np.isfinite(batch.x))
        assert np.all(batch.ivar >= 0.0)

    def test_positive_definite_link_never_floors(self, models):
        cfg = mc.McConfig(n_paths=2_000, horizon=1.0, seed=17,
                          steps_per_year=100)
        batch = mc.simulate(models["M3"], cfg)
        assert batch.floored_steps == 0
        assert batch.burn_in_floored_steps == 0

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_burn_in_floors_are_reported(self, antithetic):
        # stable, with sigma^2 < 0 for 0.0177 < y < 0.282: paths diffuse
        # from zero into that band during the burn-in
        params = scalar_model(4.0, 0.01, -0.3, 2.0)
        cfg = mc.McConfig(n_paths=2_000, horizon=0.2, seed=3,
                          steps_per_year=100, antithetic=antithetic,
                          y0=mc.StationaryInit(burn_in=0.5))
        batch = mc.simulate(params, cfg)
        y = np.zeros((cfg.n_paths, 1))
        # the burn-in of 0.5 years is 50 steps
        floored = mc._advance(params, cfg, mc._PHASE_BURNIN, y, 50, {}, None)
        assert batch.burn_in_floored_steps > 0
        assert batch.burn_in_floored_steps == floored
        y0, burn_in = mc.stationary_init(params, 0.5, cfg,
                                         return_burn_in=True)
        assert burn_in == mc.BurnIn(steps=50, residual=None,
                                    floored_steps=floored)
        assert batch.burn_in == burn_in
        assert y0.tobytes() == y.tobytes()
        assert mc.stationary_init(params, 0.5, cfg).tobytes() == y.tobytes()

    def test_stationary_start_without_floors(self, models):
        cfg = mc.McConfig(n_paths=2_000, horizon=0.2, seed=3,
                          steps_per_year=100,
                          y0=mc.StationaryInit(burn_in=1.0))
        assert mc.simulate(models["MM1"], cfg).burn_in_floored_steps == 0


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(n_paths=0, horizon=1.0, seed=1),
        dict(n_paths=101, horizon=1.0, seed=1, antithetic=True),
        dict(n_paths=100, horizon=1.0, seed=1, steps_per_year=0),
        dict(n_paths=100, horizon=0.0, seed=1),
        dict(n_paths=100, horizon=-0.5, seed=1),
    ])
    def test_bad_config(self, models, kw):
        with pytest.raises(mc.ConfigInvalidError):
            mc.simulate(models["M1"], mc.McConfig(**kw))

    def test_horizon_below_one_step(self, models):
        cfg = mc.McConfig(n_paths=10, horizon=0.001, seed=1,
                          steps_per_year=250)
        with pytest.raises(mc.ConfigInvalidError):
            mc.simulate(models["M1"], cfg)

    def test_probe_outside_horizon(self, models):
        cfg = mc.McConfig(n_paths=10, horizon=0.5, seed=1,
                          steps_per_year=100)
        with pytest.raises(mc.ConfigInvalidError):
            mc.simulate(models["M1"], cfg, probes=[0.8])
        with pytest.raises(mc.ConfigInvalidError):
            mc.simulate(models["M1"], cfg, probes=[-0.1])

    def test_y0_shape_errors(self, models):
        cfg = mc.McConfig(n_paths=10, horizon=0.1, seed=1,
                          steps_per_year=100, y0=np.array([0.1, 0.2, 0.3]))
        with pytest.raises(mc.ConfigInvalidError):
            mc.simulate(models["MM1"], cfg)
        cfg = mc.McConfig(n_paths=10, horizon=0.1, seed=1,
                          steps_per_year=100, y0=np.zeros((4, 2)))
        with pytest.raises(mc.ConfigInvalidError):
            mc.simulate(models["MM1"], cfg)

    @pytest.mark.parametrize("y0", [
        np.array([np.nan]), np.array([np.inf]),
        np.array([[0.0], [np.nan], [0.0], [0.0]])])
    def test_non_finite_y0_rejected(self, models, y0):
        # the variance floor cannot flag a NaN variance: no NaN rows
        cfg = mc.McConfig(n_paths=4, horizon=0.1, seed=1,
                          steps_per_year=100, y0=y0)
        with pytest.raises(mc.ConfigInvalidError, match="finite"):
            mc.simulate(models["M3"], cfg)


class TestSnapshots:
    def test_probe_times_snap_to_grid(self, models):
        cfg = mc.McConfig(n_paths=16, horizon=0.5, seed=18,
                          steps_per_year=250)
        batch = mc.simulate(models["M1"], cfg, probes=[0.0801, 0.25])
        assert batch.times[0] == pytest.approx(0.08)
        assert batch.times[-1] == pytest.approx(0.5)
        assert batch.time_index(0.0801) == 0
        assert batch.time_index(0.25) == 1
        with pytest.raises(KeyError):
            batch.time_index(0.15)

    def test_time_zero_probe(self, models):
        cfg = mc.McConfig(n_paths=16, horizon=0.2, seed=19,
                          steps_per_year=100, y0=np.array([0.03]))
        batch = mc.simulate(models["M2"], cfg, probes=[0.0])
        assert batch.times[0] == 0.0
        assert np.all(batch.x[0] == 0.0)
        assert np.all(batch.y[0] == 0.03)
        assert np.all(batch.ivar[0] == 0.0)

    def test_snapshot_times_match_a_stored_batch(self, models):
        cfg = mc.McConfig(n_paths=16, horizon=0.5, seed=18,
                          steps_per_year=250)
        probes = np.array([0.25, 0.0801, 0.25])
        batch = mc.simulate(models["M1"], cfg, probes=probes)
        assert np.array_equal(mc.snapshot_times(cfg, probes), batch.times)

    def test_half_step_lookup_takes_the_snapped_row(self, models):
        # 0.015 * 100 = 1.5 snaps to step 2 (halves to even), as the probe
        # itself did, not to the 0.01 row half a step away
        cfg = mc.McConfig(n_paths=16, horizon=0.05, seed=18,
                          steps_per_year=100)
        batch = mc.simulate(models["M1"], cfg, probes=[0.01, 0.015])
        assert batch.times[batch.time_index(0.015)] == 0.02


class TestBlockStats:
    def paths(self, n):
        rng = np.random.default_rng(404)
        return rng.lognormal(0.0, 0.4, size=(3, n)) - 0.9

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_one_block_is_the_two_pass_formula(self, antithetic):
        v = self.paths(mc._BLOCK)
        batch = mc.PathBatch(None, None, v, None, None, antithetic, 0, 1)
        u = 0.5 * (v[:, 0::2] + v[:, 1::2]) if antithetic else v
        mean, se = batch.mean_se(v)
        assert np.array_equal(mean, u.mean(axis=-1))
        assert np.array_equal(
            se, u.std(axis=-1, ddof=1) / math.sqrt(u.shape[-1]))

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_merged_blocks_match_the_whole_sample(self, antithetic):
        v = self.paths(25 * mc._BLOCK - 300)
        batch = mc.PathBatch(None, None, v, None, None, antithetic, 0, 1)
        u = 0.5 * (v[:, 0::2] + v[:, 1::2]) if antithetic else v
        mean, se = batch.mean_se(v)
        assert mean == pytest.approx(u.mean(axis=-1), rel=1e-14)
        assert se == pytest.approx(
            u.std(axis=-1, ddof=1) / math.sqrt(u.shape[-1]), rel=1e-13)
        # a row alone gets the bits it gets inside the matrix
        for row in range(3):
            assert batch.mean_se(v[row]) == (mean[row], se[row])

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_folding_order_does_not_change_bits(self, antithetic):
        n = 9 * mc._BLOCK + 2
        v = self.paths(n)
        batch = mc.PathBatch(None, None, v, None, None, antithetic, 0, 1)
        stats = mc.BlockStats((2, 3), n, antithetic)
        # block-aligned runs of several sizes, last run first
        cuts = [0, mc._BLOCK, 4 * mc._BLOCK, 5 * mc._BLOCK, n]
        for lo, hi in reversed(list(zip(cuts[:-1], cuts[1:]))):
            stats.add(0, lo, v[:, lo:hi])
            for row in range(3):
                stats.add((1, row), lo, v[row, lo:hi])
        mean, se = stats.result()
        want = batch.mean_se(v)
        for i in range(2):
            assert np.array_equal(mean[i], want[0])
            assert np.array_equal(se[i], want[1])

    def test_streamed_partials_under_thread_switching(self, models,
                                                      monkeypatch):
        # more workers than cores, switching threads every microsecond: a
        # lost or misplaced block partial changes the bits (or leaves NaN)
        monkeypatch.setenv("QHR_THREADS", "8")
        n = 9 * mc._BLOCK + 2
        cfg = mc.McConfig(n_paths=n, horizon=0.2, seed=8, steps_per_year=50)
        probes = [0.1]
        stats = mc.BlockStats((2, 2), n, True)

        def fold(row, lo, x, y, ivar):
            stats.add((row, 0), lo, x)
            stats.add((row, 1), lo, ivar)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            mc.stream(models["MM3"], cfg, probes, fold)
        finally:
            sys.setswitchinterval(interval)
        batch = mc.simulate(models["MM3"], cfg, probes)
        mean, se = stats.result()
        for row in range(2):
            for j, v in enumerate((batch.x[row], batch.ivar[row])):
                assert (mean[row, j], se[row, j]) == batch.mean_se(v)
