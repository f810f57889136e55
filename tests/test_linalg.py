"""Symmetric orbits, matrix exponentials, eigenvalues, the Lyapunov solve,
and the Kronecker operator recursions kept as the moment-matrix reference.

Oracles: brute-force permutation classes, Taylor series, tensor calculus
identities for the operator family (kron_reference), and closed-form and
Kronecker-system Lyapunov solutions.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from kron_reference import build_kron_operators
from qhr import linalg, model, moments


class TestSymmetricOrbits:
    def test_orbit_count(self):
        for p in range(1, 7):
            for k in range(1, 5):
                rep, inv = linalg.symmetric_orbits(p, k)
                assert rep.size == math.comb(p + k - 1, k), (p, k)
                assert inv.shape == (p**k,)
                assert np.array_equal(inv[rep], np.arange(rep.size))

    def test_orbits_are_permutation_classes(self):
        # brute force: flat indices share an orbit iff their tuples are
        # permutations of each other; the representative is the sorted tuple
        p, k = 3, 3
        rep, inv = linalg.symmetric_orbits(p, k)
        tuples = list(itertools.product(range(p), repeat=k))
        for f, tup in enumerate(tuples):
            assert tuples[rep[inv[f]]] == tuple(sorted(tup))

    def test_kronecker_power_round_trip(self):
        # integer entries keep every product exact, so y^(x)4 is exactly
        # symmetric
        y = np.array([1.0, 2.0, 3.0, 5.0])
        power = np.kron(np.kron(np.kron(y, y), y), y)
        rep, inv = linalg.symmetric_orbits(4, 4)
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
        with pytest.raises(OverflowError, match="t=2000.0"):
            linalg.expm(np.array([[1.0]]), [1.0, 2e3, 3e3])

    def test_time_grid_stacks_single_exponentials(self, rng):
        a = rng.standard_normal((4, 4))
        ts = np.array([0.0, 0.3, 1.7])
        assert np.array_equal(linalg.expm(a, ts),
                              [linalg.expm(a * t) for t in ts])

    def test_long_grid_rows_equal_single_exponentials(self, rng):
        # rows with and without squarings share chunks, and the grid spans
        # several chunks
        a = rng.standard_normal((27, 27)) * 0.5
        ts = np.concatenate([[0.0], np.geomspace(1e-3, 8.0, 120)])
        assert ts.size > 3 * (linalg._BLOCK // 27**2)
        grid = linalg.expm(a, ts)
        for t, row in zip(ts, grid):
            assert np.array_equal(row, linalg.expm(a * t)), t

    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    def test_nonfinite_input_names_first_bad_time(self):
        with pytest.raises(OverflowError, match="t=inf"):
            linalg.expm(np.array([[-1.0]]), [1.0, np.inf])
        with pytest.raises(OverflowError, match="t=2000.0"):
            linalg.expm(np.array([[1.0]]), [1.0, 2e3, np.nan])

    def test_matches_scipy_on_bundled_loading_operators(self, systems):
        # -A~ of the nine bundled models and R4 over the curves grid; scipy's
        # expm is the reference
        r4 = model.rank_one(model.JordanSpec(((20, 2), (19, 1), (15, 1))),
                            w=(0.03, 0.14, 0.02, 0.81), alpha=0.01,
                            beta0=-0.08, gamma0=2.0)
        operators = [sys.a_tilde for sys in systems.values()]
        operators.append(moments.build_moment_system(r4).a_tilde)
        for a_tilde in operators:
            slowest = linalg.eigenvalues(a_tilde)[0].real
            ts = np.concatenate([[0.0], np.geomspace(1e-3, 5.0, 600),
                                 [60.0 / slowest]])
            got = linalg.expm(-a_tilde, ts)
            ref = scipy.linalg.expm(-a_tilde * ts[:, None, None])
            err = np.abs(got - ref).sum(axis=1).max(axis=1)
            scale = np.abs(ref).sum(axis=1).max(axis=1)
            assert np.all(err <= 1e-12 * scale), a_tilde.shape


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
