"""Dense linear algebra substrate.

Matrix exponentials, Lyapunov solves and eigenvalue extraction.  Everything here is plain dense numpy and scipy; the
state dimension is capped so the largest matrix stays at desk scale.  The
matrix exponential is qhr's own scaling-and-squaring Pade (13, 13),
vectorised over a grid of times; scipy supplies the Lyapunov solve.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# Largest supported offset dimension p.  The moment system on the
# symmetric subspace has C(p+4, 4) - 1 rows: 209 at the cap, 329 at p = 7,
# 494 at p = 8.  Measured on a shared 2-core machine (median of three runs
# of seven), one build, one conditional_moments call (an expm on all rows)
# and one pca take 12.6, 10.0 and 1.3 ms at p = 6; 30.5, 28.1 and 1.6 ms
# at p = 7; and 69.7, 66.6 and 2.1 ms at p = 8 with the cap raised.
DIM_CAP = 6


class DimensionCapError(ValueError):
    """State dimension too large for the dense moment machinery."""


class UnstableError(ValueError):
    """An operator expected to be stable (positive real spectrum) is not."""


def expm(a, t=1.0):
    """Matrix exponential e^{a t}, by scaling and squaring on the (13, 13)
    Pade approximant (Higham 2005, "The scaling and squaring method for the
    matrix exponential revisited").

    t is a scalar or a 1-D array of times; an array gives one matrix per
    time, stacked along the leading axis.  The stack is computed in chunks
    of rows, every step vectorised over the chunk, and each row depends
    only on its own x = a * t: row i equals expm(a * t[i]) bit for bit.
    Handles non-diagonalizable input; raises OverflowError, naming the
    first such t, when a result is not finite.
    """
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    times = t.reshape(-1)
    n = a.shape[-1]
    rows = max(1, _BLOCK // (n * n))
    if 0 < times.size <= rows:
        out = _expm_rows(a, times)
    else:
        out = np.empty((times.size, n, n))
        for lo in range(0, times.size, rows):
            out[lo:lo + rows] = _expm_rows(a, times[lo:lo + rows])
    return out.reshape(t.shape + (n, n))


# Doubles in one (rows, n, n) stack of an expm chunk.  The largest
# temporaries of _pade13 hold four such stacks, 2^16 doubles (512 KB), so a
# chunk's working set stays in cache.
_BLOCK = 2 ** 14

# theta_13 of Higham 2005, Table 2.3: the largest 1-norm of x for which
# the (13, 13) approximant is accurate to unit roundoff.
_THETA13 = 5.371920351148152

# Pade coefficients c_k = C(13, k) / (26! / (26 - k)!), normalised to
# c_0 = 1 so that zero and nilpotent input give exact results.
_C = [math.comb(13, k) / math.perm(26, k) for k in range(14)]

# The approximant is (V - U)^-1 (V + U) with U = x (x6 W1 + W2) and
# V = x6 Z1 + Z2.  Row j of _EVEN holds the coefficients of x2, x4, x6 and
# I in the even polynomials W1, Z1, W2 and Z2.
_EVEN = np.array([[_C[9], _C[11], _C[13], 0.0],
                  [_C[8], _C[10], _C[12], 0.0],
                  [_C[3], _C[5], _C[7], _C[1]],
                  [_C[2], _C[4], _C[6], _C[0]]])


def _expm_rows(a, times):
    """e^{a t} for each t of a non-empty 1-D array, stacked.  Each row
    takes the fewest squarings s that bring its 1-norm to at most
    _THETA13."""
    x = a * times[:, None, None]
    colsums = np.abs(x).sum(axis=1)
    top = colsums.max()
    if top < _THETA13:
        return _pade13(x)
    norms = colsums.max(axis=1)
    if not top < np.inf:
        bad = int(np.flatnonzero(~np.isfinite(norms))[0])
        if bad:
            _expm_rows(a, times[:bad])  # an earlier overflow is named first
        raise OverflowError(f"matrix exponential overflowed at t={times[bad]}")
    s = np.maximum(np.frexp(norms / _THETA13)[1], 0)
    r = _pade13(x * np.ldexp(1.0, -s)[:, None, None])
    counts = s.tolist()
    for j in range(max(counts)):
        if j < min(counts):
            r = r @ r
        else:
            live = np.flatnonzero(s > j)
            part = r[live]
            r[live] = part @ part
    if not np.isfinite(r).all():
        bad = np.flatnonzero(~np.isfinite(r).all(axis=(1, 2)))[0]
        raise OverflowError(f"matrix exponential overflowed at t={times[bad]}")
    return r


def _pade13(x):
    """The (13, 13) Pade approximant of e^x for each matrix of a stack."""
    k, n, _ = x.shape
    powers = np.zeros((k, 4, n, n))
    powers.reshape(k, 4 * n * n)[:, 3 * n * n::n + 1] = 1.0  # identity
    x2 = np.matmul(x, x, out=powers[:, 0])
    x4 = np.matmul(x2, x2, out=powers[:, 1])
    x6 = np.matmul(x4, x2, out=powers[:, 2])
    # one (4, 4) by (4, n^2) product per row gives W1, Z1, W2 and Z2
    even = (_EVEN @ powers.reshape(k, 4, n * n)).reshape(k, 4, n, n)
    uv = x6[:, None] @ even[:, :2]
    uv += even[:, 2:]
    u = x @ uv[:, 0]
    v = uv[:, 1]
    return np.linalg.solve(v - u, v + u)


def eigenvalues(a):
    """All eigenvalues ordered by ascending real part (then imaginary)."""
    vals = np.linalg.eigvals(np.atleast_2d(np.asarray(a, dtype=float)))
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


# solve_lyapunov's bound on its residual, relative to |g g'|
_LYAP_RTOL = 1e-9


def solve_lyapunov(a_tilde, g):
    """Solve a_tilde' F + F a_tilde = g g' for the symmetric psd F.

    F is the accumulated outer product of the decaying loading curve
    psi(t) = exp(-a_tilde t)' g, so a_tilde must have eigenvalues with
    strictly positive real part.  Solved by Bartels-Stewart
    (scipy.linalg.solve_continuous_lyapunov); a residual above _LYAP_RTOL
    times |g g'| raises ArithmeticError.
    """
    a_tilde = np.atleast_2d(np.asarray(a_tilde, dtype=float))
    g = np.asarray(g, dtype=float).reshape(-1)
    if np.min(np.linalg.eigvals(a_tilde).real) <= 0:
        raise UnstableError("a_tilde must have strictly positive real spectrum")
    rhs = np.outer(g, g)
    f = scipy.linalg.solve_continuous_lyapunov(a_tilde.T, rhs)
    f = 0.5 * (f + f.T)
    resid = np.linalg.norm(a_tilde.T @ f + f @ a_tilde - rhs)
    scale = max(np.linalg.norm(rhs), np.finfo(float).tiny)
    if resid > _LYAP_RTOL * scale:
        raise ArithmeticError(f"Lyapunov residual {resid:.3e} too large")
    return f
