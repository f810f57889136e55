"""Dense linear algebra substrate.

Kronecker/vec algebra, symmetric-tensor index orbits, the nested operator
recursions used by the moment system, matrix exponentials, Lyapunov solves,
eigenvalue extraction and a rank-revealing pivoted Cholesky factorization.
Everything here is plain dense numpy; the state dimension is capped so the
largest matrix stays at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Largest supported offset dimension p.  The full moment matrix has
# p + p^2 + p^3 + p^4 rows, i.e. 1554 at the cap, and its restriction to
# the symmetric subspace 209.  On a 2-core machine, at the cap, building
# the moment system takes about 0.06 s (half of it the full-space
# stationary solves, a fifth the Kronecker operators) and one
# conditional_moments call, an expm on the 209 rows, 5-10 ms.
DIM_CAP = 6


class DimensionCapError(ValueError):
    """State dimension too large for the dense moment machinery."""


class UnstableError(ValueError):
    """An operator expected to be stable (positive real spectrum) is not."""


class NotPsdError(ValueError):
    """Matrix expected symmetric positive semidefinite is not."""


def kron(a, b):
    """Kronecker product with block (i, j) equal to a[i, j] * b."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def vec(a):
    """Stack the columns of a matrix into one vector."""
    return np.asarray(a, dtype=float).reshape(-1, order="F")


def unvec(v, rows, cols):
    """Inverse of :func:`vec` for a rows-by-cols matrix."""
    return np.asarray(v, dtype=float).reshape((rows, cols), order="F")


def symmetric_orbits(p, k):
    """Orbits of the index tuples of a k-fold Kronecker power of R^p under
    permutation; a symmetric tensor is constant on each orbit.

    Returns (rep, inv): rep[o] is the flat index of orbit o's sorted tuple,
    and inv[f] the orbit of flat index f, so x[rep] keeps one entry per
    orbit of a symmetric x and v[inv] spreads it back.  There are
    C(p+k-1, k) orbits."""
    tuples = np.indices((p,) * k).reshape(k, -1)
    sorted_flat = np.ravel_multi_index(np.sort(tuples, axis=0), (p,) * k)
    rep, inv = np.unique(sorted_flat, return_inverse=True)
    return rep, inv


@dataclass(frozen=True)
class KronOperatorSet:
    """Nested Kronecker operators for moment orders k = 1..4.

    lambda_k[k-1] is p^k x p^k, c_k[k-1] is p^k x p^(k-1) and, for k >= 2,
    b_k[k-1] is p^k x p^(k-2).  The order-1 B operator is degenerate (zero)
    and stored as None.
    """

    p: int
    lambda_k: tuple
    b_k: tuple
    c_k: tuple


def build_kron_operators(lam, b, order=4, dim_cap=DIM_CAP):
    """Build the operator family by the defining recursions.

    lambda_(k+1) = I_p (x) lambda_(k) + lam (x) I_(p^k)
    c_(1) = b,        c_(k+1) = I_p (x) c_(k) + b (x) I_(p^k)
    b_(2) = b (x) b,  b_(k+1) = I_p (x) b_(k) + b (x) c_(k)   (k >= 2)
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    p = lam.shape[0]
    if lam.shape != (p, p) or b.shape != (p,):
        raise ValueError("lam must be p x p and b length p")
    if p > dim_cap:
        raise DimensionCapError(
            f"state dimension {p} exceeds the configured cap {dim_cap}"
        )
    bcol = b.reshape(-1, 1)
    lam_k = [lam]
    c_k = [bcol]
    b_k = [None, np.kron(b, b).reshape(-1, 1)]
    for k in range(1, order):
        pk = p**k
        eye_p = np.eye(p)
        eye_pk = np.eye(pk)
        lam_k.append(np.kron(eye_p, lam_k[-1]) + np.kron(lam, eye_pk))
        if k >= 2:
            b_k.append(np.kron(eye_p, b_k[-1]) + np.kron(bcol, c_k[-1]))
        c_k.append(np.kron(eye_p, c_k[-1]) + np.kron(bcol, eye_pk))
    return KronOperatorSet(p=p, lambda_k=tuple(lam_k), b_k=tuple(b_k[:order]),
                           c_k=tuple(c_k))


def expm(a, t=1.0):
    """Matrix exponential e^{a t} (scaling and squaring, Pade approximant).

    t is a scalar or a 1-D array of times; an array gives one matrix per
    time, stacked along the leading axis.  Handles non-diagonalizable
    input; raises OverflowError, naming the first such t, when a result is
    not finite.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    t = np.asarray(t, dtype=float)
    out = scipy.linalg.expm(a * t[..., None, None])
    bad = np.atleast_1d(t)[~np.isfinite(out).all(axis=(-2, -1)).reshape(-1)]
    if bad.size:
        raise OverflowError(f"matrix exponential overflowed at t={bad[0]}")
    return out


def eigenvalues(a):
    """All eigenvalues ordered by ascending real part (then imaginary)."""
    vals = np.linalg.eigvals(np.atleast_2d(np.asarray(a, dtype=float)))
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def solve_lyapunov(a_tilde, g, rtol=1e-9):
    """Solve a_tilde' F + F a_tilde = g g' for the symmetric psd F.

    F is the accumulated outer product of the decaying loading curve
    psi(t) = exp(-a_tilde t)' g, so a_tilde must have eigenvalues with
    strictly positive real part.  Solved through the Kronecker linear
    system vec(F) = ((a_tilde (x) I) + (I (x) a_tilde))^-T (g (x) g).
    """
    a_tilde = np.atleast_2d(np.asarray(a_tilde, dtype=float))
    g = np.asarray(g, dtype=float).reshape(-1)
    n = a_tilde.shape[0]
    if np.min(np.linalg.eigvals(a_tilde).real) <= 0:
        raise UnstableError("a_tilde must have strictly positive real spectrum")
    big = np.kron(a_tilde, np.eye(n)) + np.kron(np.eye(n), a_tilde)
    f = np.linalg.solve(big.T, np.kron(g, g)).reshape((n, n), order="F")
    f = 0.5 * (f + f.T)
    rhs = np.outer(g, g)
    resid = np.linalg.norm(a_tilde.T @ f + f @ a_tilde - rhs)
    scale = max(np.linalg.norm(rhs), np.finfo(float).tiny)
    if resid > rtol * scale:
        raise ArithmeticError(f"Lyapunov residual {resid:.3e} too large")
    return f


def pivoted_cholesky(f, tol=1e-10):
    """Rank-revealing Cholesky F = R R' with diagonal pivoting.

    Returns (r, rank, r_pinv) where r has full column rank and r_pinv is
    its left pseudo-inverse (r_pinv @ r == I).  Pivoting stops once the
    largest remaining diagonal falls below tol times the trace; a
    significantly negative pivot candidate raises NotPsdError.
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    n = f.shape[0]
    if f.shape != (n, n):
        raise ValueError("matrix must be square")
    d = np.diag(f).astype(float).copy()
    max_diag0 = max(d.max(initial=0.0), 0.0)
    cut = tol * max(np.trace(f), np.finfo(float).tiny)
    neg_cut = tol * max(max_diag0, 1.0)
    r = np.zeros((n, n))
    rank = 0
    for k in range(n):
        j = int(np.argmax(d))
        if d.min() < -neg_cut:
            raise NotPsdError("negative pivot encountered")
        if d[j] <= cut:
            break
        piv = np.sqrt(d[j])
        col = (f[:, j] - r[:, :k] @ r[j, :k]) / piv
        r[:, k] = col
        d -= col**2
        d[j] = 0.0
        rank = k + 1
    r = r[:, :rank]
    r_pinv = np.linalg.pinv(r) if rank else np.zeros((0, n))
    return r, rank, r_pinv
