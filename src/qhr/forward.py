"""Forward-variance term structure and its principal component analysis.

The forward variance v_t(s) = E[sigma^2_{t+s} | F_t] is affine in the state
eta_t = (y_t; y_t (x) y_t):

    v_t(s) = sigma2_infty + psi(s)'(eta_t - eta_infty),
    psi(s) = (e^{-A~ s})' g,

with eta, A~ and g in the S coordinates of moments.MomentSystem: p + p(p+1)/2
of them, the monomials y_i and y_i y_j (i <= j).  MomentSystem.psi is the
single evaluator of psi.  This module evaluates the curve over whole grids
of horizons, splits it into its y-linear and y-quadratic parts to get the
lower envelope over initial states, and diagonalizes the curve covariance
into orthonormal factor curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .moments import MomentSystem


class NonConvexSliceError(ValueError):
    """The quadratic part of the forward slice is not bounded below."""


# Grid rows are contracted one at a time by stacked matmuls, which round
# exactly as the per-horizon products do; one gemv over the whole grid
# would change last digits of the CLI output.
def _matvec(m, x):
    """Row-wise product m_i x_i (m may be one matrix for all rows)."""
    return (m @ x[..., None])[..., 0]


def _dot(a, b):
    """Row-wise dot product a_i'b_i (b may be one vector for all rows)."""
    return _matvec(a[..., None, :], b)[..., 0]


def forward_variance(sys, eta, s):
    """v_t(s) for a given state, at a horizon or over a 1-D grid of them; at
    s=0 this equals sigma^2(y) exactly when the state was formed from a path
    (eta = monomials(y, 2)).  eta holds the n_eta S coordinates of the
    state, or is a (k, n_eta) stack of states: a stack takes one psi call
    and gives one row (one value at a single horizon) per state, each equal
    to that state's own call bit for bit."""
    sys.require_stable()
    loading = sys.psi(s)

    def curve(state):
        return sys.sigma2_infty + _dot(loading, sys.as_eta(state)
                                       - sys.eta_infty)

    etas = np.asarray(eta, dtype=float)
    if etas.ndim == 2:
        return np.array([curve(state) for state in etas])
    v = curve(etas)
    return float(v) if np.ndim(v) == 0 else v


def forward_min_envelope(sys, s):
    """Zero-state curve v0(s) and the minimum of v_t(s) over all spot states
    y (with q = y (x) y), at a horizon or over a 1-D grid of them.

    The slice is v0 + y'psi_y + y'Psi_Q y.  With Psi_Q = V diag(mu) V' and
    c = V'psi_y its minimum is v0 - sum_k c_k^2 / (4 mu_k) over mu_k above
    the rounding level cut = p eps max|mu|.  A slice bounded below by 0 has
    c_k^2 <= 4 mu_k v0, so a dropped direction with c_k^2 > 4 cut v0, or a
    negative eigenvalue, makes it unbounded below; the error names the
    first such horizon."""
    sys.require_stable()
    p = sys.p
    grid = np.atleast_1d(np.asarray(s, dtype=float))
    psi = sys.psi(grid)
    v0 = sys.sigma2_infty - _dot(psi, sys.eta_infty)
    # the coefficient of y_i y_j (i < j) is split evenly over (i, j), (j, i)
    i, j = sys.quadratic_pairs
    q_mat = np.empty((grid.size, p, p))
    q_mat[:, i, j] = q_mat[:, j, i] = \
        psi[:, p:] * np.where(i == j, 1.0, 0.5)
    mu, vecs = np.linalg.eigh(q_mat)
    c2 = _matvec(vecs.swapaxes(1, 2), psi[:, :p])**2
    mu_abs = np.abs(mu).max(axis=1)
    indefinite = mu.min(axis=1) < -1e-10 * np.maximum(mu_abs, 1.0)
    cut = (p * np.finfo(float).eps * mu_abs)[:, None]
    keep = mu > cut
    escapes = np.any(~keep & (c2 > 4.0 * cut * np.maximum(v0, 0.0)[:, None]),
                     axis=1)
    bad = np.flatnonzero(indefinite | escapes)
    if bad.size:
        i = bad[0]
        if indefinite[i]:
            raise NonConvexSliceError(
                f"quadratic loading indefinite at s={grid[i]}: "
                f"min eig {mu[i].min():.3e}")
        raise NonConvexSliceError(
            f"linear loading escapes the quadratic range at s={grid[i]}")
    depth = np.divide(c2, mu, out=np.zeros_like(mu), where=keep).sum(axis=1)
    v_min = v0 - 0.25 * depth
    return (float(v0[0]), float(v_min[0])) if np.ndim(s) == 0 else (v0, v_min)


# ---------------------------------------------------------------------------
# principal components


@dataclass(frozen=True)
class PcaDecomposition:
    """Orthonormal factor decomposition of the forward-curve covariance.

    factor_curves(t) returns u(t) with Cov(v(s1), v(s2)) = u(s1)' diag(
    eigenvalues) u(s2) and integral of u u' over [0, inf) equal to the
    identity.  f_matrix is the accumulated loading Gram matrix F_S in S
    coordinates, projection maps psi(t) to u(t) and rank counts the
    components kept."""

    eigenvalues: np.ndarray
    f_matrix: np.ndarray
    projection: np.ndarray
    system: MomentSystem

    @property
    def rank(self):
        return len(self.eigenvalues)

    def factor_curves(self, t):
        """u(t) at a horizon, or one row per horizon of a 1-D grid."""
        return _matvec(self.projection, self.system.psi(t))


def pca(sys, omega_mat):
    """Diagonalize the stationary covariance of the forward curve.

    F_S = integral of psi psi' dt comes from a Lyapunov solve.  With
    Omega = L L' (L = V diag(w)^1/2 from Omega = V diag(w) V', rounding-level
    negative w set to 0), the eigenpairs (lambda, W) of L' F_S L give the
    component variances and the factor curves u(t) = lambda^-1/2 W' L'
    psi(t).  Components whose variance is at the rounding level of the
    largest one (n eps lambda_max, n the number of S coordinates) carry no
    curve and are dropped."""
    sys.require_stable()
    f = linalg.solve_lyapunov(sys.a_tilde, sys.g)
    w, v = np.linalg.eigh(omega_mat)
    low = v * np.sqrt(np.maximum(w, 0.0))
    core = low.T @ f @ low
    vals, vecs = np.linalg.eigh(0.5 * (core + core.T))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    keep = vals > sys.n_eta * np.finfo(float).eps * vals[0]
    vals, vecs = vals[keep], vecs[:, keep]
    return PcaDecomposition(eigenvalues=vals, f_matrix=f,
                            projection=(vecs / np.sqrt(vals)).T @ low.T,
                            system=sys)


# default_grid's first and last horizon and its number of points
_GRID_START, _GRID_END, _GRID_POINTS = 1e-3, 5.0, 200


def default_grid():
    """Geometric maturity grid used for curve emission."""
    return np.geomspace(_GRID_START, _GRID_END, _GRID_POINTS)
