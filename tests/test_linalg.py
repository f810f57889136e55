"""Matrix exponentials, eigenvalues, the Lyapunov solve, and the symmetric
orbits and Kronecker operator recursions kept as the moment-matrix
reference.

Oracles: brute-force permutation classes, Taylor series, tensor calculus
identities for the operator family (kron_reference), and closed-form and
Kronecker-system Lyapunov solutions.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg

from kron_reference import build_kron_operators, symmetric_orbits
import qhr
from qhr import linalg, model, moments


class TestSymmetricOrbits:
    def test_orbit_count(self):
        for p in range(1, 7):
            for k in range(1, 5):
                rep, inv = symmetric_orbits(p, k)
                assert rep.size == math.comb(p + k - 1, k), (p, k)
                assert inv.shape == (p**k,)
                assert np.array_equal(inv[rep], np.arange(rep.size))

    def test_orbits_are_permutation_classes(self):
        # brute force: flat indices share an orbit iff their tuples are
        # permutations of each other; the representative is the sorted tuple
        p, k = 3, 3
        rep, inv = symmetric_orbits(p, k)
        tuples = list(itertools.product(range(p), repeat=k))
        for f, tup in enumerate(tuples):
            assert tuples[rep[inv[f]]] == tuple(sorted(tup))

    def test_kronecker_power_round_trip(self):
        # integer entries keep every product exact, so y^(x)4 is exactly
        # symmetric
        y = np.array([1.0, 2.0, 3.0, 5.0])
        power = np.kron(np.kron(np.kron(y, y), y), y)
        rep, inv = symmetric_orbits(4, 4)
        assert np.array_equal(power[rep][inv], power)


class TestExpm:
    def test_nilpotent_exact(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(linalg.expm(a), np.eye(2) + a)

    def test_zero_matrix(self):
        assert np.array_equal(linalg.expm(np.zeros((3, 3))), np.eye(3))

    def test_matches_taylor_series(self, rng):
        a = rng.standard_normal((4, 4)) * 0.05
        total = np.eye(4)
        term = np.eye(4)
        for k in range(1, 30):
            term = term @ a / k
            total = total + term
        assert np.allclose(linalg.expm(a), total, rtol=1e-13, atol=1e-14)

    def test_commuting_product_rule(self, rng):
        a = rng.standard_normal((3, 3))
        p = 0.3 * a + 0.1 * a @ a
        q = -0.2 * a + 0.05 * a @ a
        lhs = linalg.expm(p + q)
        rhs = linalg.expm(p) @ linalg.expm(q)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            linalg.expm(np.array([[1e6]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        with pytest.raises(OverflowError, match="non-finite matrix"):
            linalg.expm(np.array([[0.0, bad], [0.0, 0.0]]))


def rank_one_operators():
    """-A~ of rank-one models on perfbench's rate ladders, p = 3..6 (one
    mixture and one cascade per p, the cascade alone at p = 6)."""
    ladders = [((20.0, 1), (4.0, 1), (0.8, 1)), ((12.0, 2), (1.5, 1)),
               ((25.0, 1), (8.0, 1), (2.5, 1), (0.8, 1)),
               ((20.0, 2), (4.0, 1), (0.8, 1)),
               ((30.0, 1), (12.0, 1), (4.0, 1), (1.5, 1), (0.6, 1)),
               ((25.0, 2), (5.0, 2), (0.8, 1)),
               ((30.0, 2), (8.0, 2), (2.0, 1), (0.6, 1))]
    out = []
    for blocks in ladders:
        p = sum(n for _, n in blocks)
        w = np.linspace(1.0, 2.0, p) / np.linspace(1.0, 2.0, p).sum()
        params = model.rank_one(model.JordanSpec(blocks), w=w, alpha=0.01,
                                beta0=-0.05, gamma0=0.5)
        sys = moments.build_moment_system(params)
        assert sys.stable
        out.append(-sys.a_tilde)
    return out


class TestExpmAction:
    """e^{a t} v over horizons: one Pade exponential of a h, its squarings
    and a Taylor block of v."""

    def test_grid_rows_equal_single_horizon_calls(self, rng):
        # n = 27, with rows that take no power of e^{ah} and rows that take
        # up to nine; each single call runs on a fresh propagator
        a = rng.standard_normal((27, 27)) * 0.5
        v = rng.standard_normal(27)
        ts = np.concatenate([[0.0], np.geomspace(1e-3, 8.0, 120)])
        grid = linalg.ExpmAction(a)(v, ts)
        assert grid.shape == (121, 27)
        for t, row in zip(ts, grid):
            assert np.array_equal(row, linalg.ExpmAction(a)(v, t)), t
        assert linalg.ExpmAction(a)(v, np.zeros(0)).shape == (0, 27)

    def test_kept_taylor_block_follows_the_vector(self, rng):
        a = rng.standard_normal((6, 6))
        v, u = rng.standard_normal((2, 6))
        action = linalg.ExpmAction(a)
        for x in (v, u, v, u.reshape(6, 1)):
            assert np.array_equal(action(x, [0.3, 2.5]),
                                  linalg.ExpmAction(a)(x, [0.3, 2.5]))

    def test_zero_horizon_returns_v(self, rng):
        a = rng.standard_normal((5, 5)) * 40.0
        v = rng.standard_normal(5)
        action = linalg.ExpmAction(a)
        assert np.array_equal(action(v, 0.0), v)
        assert np.array_equal(action(v, [0.0, 0.0]), [v, v])

    def test_zero_and_nilpotent_exact(self):
        v = np.array([3.0, -1.0, 2.0])
        ts = np.array([0.0, 0.75, 3.0, 10.5, 1e3])
        got = linalg.ExpmAction(np.zeros((3, 3)))(v, ts)
        assert np.array_equal(got, np.tile(v, (ts.size, 1)))
        # e^{Nt} v = v + t N v + t^2 N^2 v / 2 for N nilpotent of order 3
        n = np.diag([1.0, 2.0], k=1)
        got = linalg.ExpmAction(n)(v, ts)
        exact = (v + ts[:, None] * (n @ v)
                 + ts[:, None] ** 2 / 2 * (n @ n @ v))
        assert np.array_equal(got, exact)

    @pytest.mark.parametrize("case", ["jordan", "mm3"])
    def test_matches_high_precision(self, systems, case):
        # normwise: |error|_1 <= 1e-14 |e^{at}|_1 |v|_1, the size of a
        # rounding of the operator.  Relative to the result the Jordan
        # block at t = 60 is off by 1.8e-14: its condition is about
        # |a| t = 180
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        if case == "jordan":
            a = -2.0 * np.eye(3) + np.diag([1.0, 1.0], k=1)
            v = np.array([0.3, -1.1, 0.7])
        else:
            a = -systems["MM3"].a_tilde.T
            v = systems["MM3"].g
        ts = [0.0, 1e-3, 1.0, 5.0, 60.0]
        got = linalg.ExpmAction(a)(v, ts)
        for t, row in zip(ts, got):
            exact = mpmath.expm(mpmath.matrix(a.tolist()) * t)
            ref = np.array([float(x) for x in exact * mpmath.matrix(v)])
            scale = float(mpmath.mnorm(exact, 1)) * np.abs(v).sum()
            assert np.abs(row - ref).sum() <= 1e-14 * scale, t

    def test_matches_scipy_on_rank_one_models(self):
        for a in rank_one_operators():
            v = np.linspace(1.0, -1.0, a.shape[0])
            slowest = linalg.eigenvalues(-a)[0].real
            ts = np.concatenate([[0.0], np.geomspace(1e-3, 5.0, 60),
                                 [60.0 / slowest]])
            got = linalg.ExpmAction(a)(v, ts)
            ref = scipy.linalg.expm(a * ts[:, None, None]) @ v
            err = np.abs(got - ref).max(axis=1)
            assert np.all(err <= 1e-12 * np.abs(ref).max(axis=1)), a.shape

    def test_matches_scipy_on_bundled_loading_operators(self, systems):
        # psi's operator -A~' of the nine bundled models and R4 over the
        # curves grid; scipy's expm is the reference
        r4 = model.rank_one(model.JordanSpec(((20, 2), (19, 1), (15, 1))),
                            w=(0.03, 0.14, 0.02, 0.81), alpha=0.01,
                            beta0=-0.08, gamma0=2.0)
        built = list(systems.values()) + [moments.build_moment_system(r4)]
        for sys in built:
            a = -sys.a_tilde.T
            slowest = linalg.eigenvalues(sys.a_tilde)[0].real
            ts = np.concatenate([[0.0], np.geomspace(1e-3, 5.0, 600),
                                 [60.0 / slowest]])
            got = linalg.ExpmAction(a)(sys.g, ts)
            ref = scipy.linalg.expm(a * ts[:, None, None]) @ sys.g
            err = np.abs(got - ref).max(axis=1)
            assert np.all(err <= 1e-12 * np.abs(ref).max(axis=1)), sys.p

    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    def test_nonfinite_result_names_first_bad_time(self):
        # a finite horizon whose result overflows raises OverflowError; a
        # horizon outside 0 <= s < inf is rejected before any arithmetic
        grow = linalg.ExpmAction(np.array([[1.0]]))
        with pytest.raises(OverflowError, match="t=2000.0"):
            grow([1.0], [1.0, 2e3, 3e3])
        with pytest.raises(ValueError, match="s=nan"):
            grow([1.0], [1.0, 2e3, np.nan])
        with pytest.raises(ValueError, match="s=inf"):
            linalg.ExpmAction(np.array([[-1.0]]))([1.0], [1.0, np.inf])
        with pytest.raises(ValueError, match="s=-0.5"):
            grow([1.0], [1.0, -0.5])

    def test_horizons_are_a_scalar_or_a_1d_array(self):
        action = linalg.ExpmAction(np.array([[-1.0]]))
        with pytest.raises(ValueError, match="scalar or a 1-D array"):
            action([1.0], np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar or a 1-D array"):
            linalg.horizons([[0.5]])
        assert linalg.horizons(0.5).shape == ()
        assert linalg.horizons([0.0, 2.0]).dtype == float


class TestEigenvalues:
    def test_ordering_real_then_imag(self):
        a = scipy.linalg.block_diag([[3.0]], [[1.0, -2.0], [2.0, 1.0]],
                                    [[-0.5]])
        vals = linalg.eigenvalues(a)
        assert np.allclose(vals,
                           [-0.5, 1.0 - 2.0j, 1.0 + 2.0j, 3.0], atol=1e-12)

    def test_repeated_eigenvalue(self):
        vals = linalg.eigenvalues(np.diag([2.0, 2.0, 1.0]))
        assert np.allclose(vals, [1.0, 2.0, 2.0], atol=0)


def insert_b_patterns(vectors, b, n_b):
    """Sum of Kronecker products over all placements of n_b copies of b
    among the given vectors (order of the non-b vectors preserved)."""
    k = len(vectors) + n_b
    total = np.zeros(b.size ** k if b.size > 1 else 1)
    total = None
    for positions in itertools.combinations(range(k), n_b):
        factors = []
        it = iter(vectors)
        for slot in range(k):
            factors.append(b if slot in positions else next(it))
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        total = term if total is None else total + term
    return total


class TestOperatorRecursions:
    def test_scalar_unroll(self):
        lam = 1.7
        ops = build_kron_operators([[lam]], [1.0])
        assert [m.item() for m in ops.lambda_k] == pytest.approx(
            [lam, 2 * lam, 3 * lam, 4 * lam])
        assert [m.item() for m in ops.c_k] == pytest.approx([1.0, 2.0, 3.0,
                                                             4.0])
        assert ops.b_k[0] is None
        assert [m.item() for m in ops.b_k[1:]] == pytest.approx([1.0, 3.0,
                                                                 6.0])

    def test_shapes(self):
        p = 3
        lam = np.diag([1.0, 2.0, 3.0])
        ops = build_kron_operators(lam, np.ones(p))
        for k in range(1, 5):
            assert ops.lambda_k[k - 1].shape == (p**k, p**k)
            assert ops.c_k[k - 1].shape == (p**k, p**(k - 1))
        assert ops.b_k[0] is None
        for k in range(2, 5):
            assert ops.b_k[k - 1].shape == (p**k, p**(k - 2))

    def test_lambda2_is_lyapunov_operator(self, rng):
        # lambda_(2) vec(X) = vec(lam X + X lam')
        lam = rng.standard_normal((3, 3))
        ops = build_kron_operators(lam, np.ones(3), order=2)
        x = rng.standard_normal((3, 3))
        lhs = ops.lambda_k[1] @ x.reshape(-1, order="F")
        rhs = (lam @ x + x @ lam.T).reshape(-1, order="F")
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)

    def test_lambda_k_leibniz_rule(self, rng):
        # lambda_(k) acts on elementary tensors as a sum over slots
        lam = rng.standard_normal((2, 2))
        ops = build_kron_operators(lam, np.ones(2))
        vecs = [rng.standard_normal(2) for _ in range(4)]

        def tensor(factors):
            out = factors[0]
            for f in factors[1:]:
                out = np.kron(out, f)
            return out

        for k in (2, 3, 4):
            vs = vecs[:k]
            lhs = ops.lambda_k[k - 1] @ tensor(vs)
            rhs = sum(tensor(vs[:i] + [lam @ vs[i]] + vs[i + 1:])
                      for i in range(k))
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_c_k_inserts_one_b(self, rng):
        b = rng.standard_normal(2)
        ops = build_kron_operators(np.eye(2), b)
        vecs = [rng.standard_normal(2) for _ in range(3)]

        def tensor(factors):
            out = factors[0]
            for f in factors[1:]:
                out = np.kron(out, f)
            return out

        for k in (1, 2, 3, 4):
            arg = np.array([1.0]) if k == 1 else tensor(vecs[:k - 1])
            lhs = ops.c_k[k - 1] @ arg
            rhs = insert_b_patterns(vecs[:k - 1], b, 1)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_b_k_inserts_two_bs(self, rng):
        b = rng.standard_normal(2)
        ops = build_kron_operators(np.eye(2), b)
        vecs = [rng.standard_normal(2) for _ in range(2)]

        def tensor(factors):
            out = factors[0]
            for f in factors[1:]:
                out = np.kron(out, f)
            return out

        for k in (2, 3, 4):
            arg = np.array([1.0]) if k == 2 else tensor(vecs[:k - 2])
            lhs = (ops.b_k[k - 1] @ arg).reshape(-1)
            rhs = insert_b_patterns(vecs[:k - 2], b, 2)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_dimension_cap(self):
        params = model.ModelParams(lam=np.eye(7), b=np.ones(7), alpha=0.01,
                                   beta=np.zeros(7), gamma_mat=np.zeros((7, 7)))
        with pytest.raises(linalg.DimensionCapError, match="dimension 7"):
            moments.build_moment_system(params)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            moments.build_moment_system(model.ModelParams(
                lam=np.eye(2), b=np.ones(3), alpha=0.01, beta=np.zeros(2),
                gamma_mat=np.zeros((2, 2))))


class TestSolveLyapunov:
    def test_scalar_closed_form(self):
        f = linalg.solve_lyapunov(np.array([[2.5]]), np.array([3.0]))
        assert f.item() == pytest.approx(9.0 / 5.0, rel=1e-14)

    def test_matches_scipy(self, rng):
        m = rng.standard_normal((5, 5))
        a = m @ m.T + 0.5 * np.eye(5) + 0.3 * rng.standard_normal((5, 5))
        if np.min(np.linalg.eigvals(a).real) <= 0:
            a = a + 2.0 * np.eye(5)
        g = rng.standard_normal(5)
        f = linalg.solve_lyapunov(a, g)
        ref = scipy.linalg.solve_lyapunov(a.T, np.outer(g, g))
        assert np.allclose(f, ref, rtol=1e-9, atol=1e-12)

    def test_matches_kronecker_system(self, rng):
        # vec(F) = (a (x) I + I (x) a)^-T vec(g g')
        a = np.diag([1.0, 3.0, 9.0, 30.0]) + 0.1 * rng.standard_normal((4, 4))
        g = rng.standard_normal(4)
        big = np.kron(a, np.eye(4)) + np.kron(np.eye(4), a)
        ref = np.linalg.solve(big.T, np.kron(g, g)).reshape((4, 4), order="F")
        f = linalg.solve_lyapunov(a, g)
        assert np.abs(f - ref).max() < 1e-13 * np.abs(ref).max()

    def test_residual_and_symmetry(self, rng):
        a = np.diag([1.0, 3.0, 7.0]) + 0.2 * rng.standard_normal((3, 3))
        g = rng.standard_normal(3)
        f = linalg.solve_lyapunov(a, g)
        assert np.allclose(f, f.T, atol=0)
        resid = a.T @ f + f @ a - np.outer(g, g)
        assert np.abs(resid).max() < 1e-10
        assert np.linalg.eigvalsh(f).min() > -1e-12

    def test_is_loading_gram_matrix(self):
        # F = integral of psi psi' dt with psi(t) = exp(-a t)' g; check the
        # quadrature on a well-separated diagonal system where the integral
        # is exact: F_ij = g_i g_j / (a_i + a_j).
        a = np.diag([1.0, 4.0])
        g = np.array([2.0, -1.0])
        f = linalg.solve_lyapunov(a, g)
        expected = np.array([[4.0 / 2.0, -2.0 / 5.0], [-2.0 / 5.0, 1.0 / 8.0]])
        assert np.allclose(f, expected, rtol=1e-13)

    def test_unstable_raises(self):
        with pytest.raises(linalg.UnstableError):
            linalg.solve_lyapunov(np.array([[-1.0]]), np.array([1.0]))
        with pytest.raises(linalg.UnstableError):
            linalg.solve_lyapunov(np.array([[0.0]]), np.array([1.0]))


def _run_python(args, threads):
    """A fresh interpreter on qhr's source with OPENBLAS_NUM_THREADS set."""
    src = os.path.dirname(os.path.dirname(qhr.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _blas_threads(setup):
    """{path: thread count} of every OpenBLAS mapped into a fresh
    interpreter, started with two BLAS threads, after it has run setup."""
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find OpenBLAS in")
    code = textwrap.dedent(setup) + textwrap.dedent("""
        import ctypes, json
        getters = ("openblas_get_num_threads",
                   "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "scipy_openblas_get_num_threads64_")
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[5].strip() for line in maps
                     if "openblas" in line}
        found = {}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for name in getters:
                getter = getattr(lib, name, None)
                if getter is not None:
                    getter.argtypes, getter.restype = (), ctypes.c_int
                    found[path] = getter()
                    break
        print(json.dumps(found))
    """)
    found = json.loads(_run_python(["-c", code], threads=2))
    if not found:
        pytest.skip("no OpenBLAS loaded")
    return found


class TestBlasThreads:
    def test_import_pins_every_openblas_to_one_thread(self):
        # numpy, and its OpenBLAS, is loaded first, as in a notebook: the
        # environment's two threads are already in force when qhr arrives
        found = _blas_threads("""
            import numpy
            import qhr
        """)
        assert found == dict.fromkeys(found, 1)

    def test_first_scipy_use_pins_its_openblas(self):
        # pca and density import scipy.linalg and scipy.special, which map
        # scipy's own OpenBLAS at the environment's two threads
        found = _blas_threads("""
            import contextlib, io
            import qhr.cli
            with contextlib.redirect_stdout(io.StringIO()):
                for name, model in (("pca", "MM3"), ("density", "M3")):
                    assert qhr.cli.main([name, "--model", model]) == 0
        """)
        assert found == dict.fromkeys(found, 1)

    def test_output_does_not_depend_on_blas_threads(self, tmp_path):
        # a p = 6 rank-one cascade on perfbench's G6c ladder, whose
        # smallest pca components a two-thread BLAS rounds differently
        jordan = model.JordanSpec(((30.0, 2), (8.0, 2), (2.0, 1), (0.6, 1)))
        w = np.array([0.3, 0.1, 0.25, 0.05, 0.2, 0.1])
        x = np.linalg.solve(jordan.lambda_matrix(), jordan.b_vector())
        gamma0 = 0.3 / (30.0 * float(w @ x) ** 2)  # fastest-rate kappa 0.3
        alpha = 0.01
        params = model.rank_one(jordan, w, alpha,
                                -0.5 * math.sqrt(alpha * gamma0), gamma0)
        path = str(tmp_path / "g6c.json")
        model.save_model(params, path)
        commands = [["pca"], ["diagnostics", "--format", "csv"]]
        outputs = {threads: [_run_python(["-m", "qhr.cli", *cmd,
                                          "--model", path], threads)
                             for cmd in commands]
                   for threads in (1, 2)}
        assert all(outputs[1])
        assert outputs[1] == outputs[2]
