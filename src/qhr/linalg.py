"""Dense linear algebra substrate.

Symmetric-tensor index orbits (the coordinates of the symmetric subspace
the moment system lives on), matrix exponentials, Lyapunov solves and
eigenvalue extraction.  Everything here is plain dense numpy and scipy; the
state dimension is capped so the largest matrix stays at desk scale.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Largest supported offset dimension p.  The moment system on the
# symmetric subspace has C(p+4, 4) - 1 rows: 209 at the cap, 329 at p = 7,
# 494 at p = 8.  Measured on a shared 2-core machine (median of 5), one
# build, one conditional_moments call (an expm on all rows) and one pca
# take 12, 16 and 0.8 ms at p = 6; 32, 40 and 1.3 ms at p = 7; and 76, 106
# and 1.7 ms at p = 8 with the cap raised.
DIM_CAP = 6


class DimensionCapError(ValueError):
    """State dimension too large for the dense moment machinery."""


class UnstableError(ValueError):
    """An operator expected to be stable (positive real spectrum) is not."""


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
    strictly positive real part.  Solved by Bartels-Stewart
    (scipy.linalg.solve_continuous_lyapunov); a residual above rtol times
    |g g'| raises ArithmeticError.
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
    if resid > rtol * scale:
        raise ArithmeticError(f"Lyapunov residual {resid:.3e} too large")
    return f
