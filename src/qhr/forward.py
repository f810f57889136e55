"""Forward-variance term structure and its principal component analysis.

The forward variance v_t(s) = E[sigma^2_{t+s} | F_t] is affine in the state
eta_t = (y_t; y_t (x) y_t):

    v_t(s) = sigma2_infty + psi(s)'(eta_t - eta_infty),
    psi(s) = (e^{-A~ s})' g,   g = (2 beta; vec Gamma).

MomentSystem.psi is the single evaluator of psi.  This module evaluates the
curve over whole grids of horizons, splits it into its y-linear and
y-quadratic parts to get the lower envelope over initial states, and
diagonalizes the curve covariance into orthonormal factor curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .moments import EtaState, MomentSystem, NotStationaryError


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
    (q = y (x) y)."""
    if not sys.stable:
        raise NotStationaryError("forward variance undefined: not stationary")
    vec = eta.vector if isinstance(eta, EtaState) else \
        np.asarray(eta, dtype=float).reshape(-1)
    v = sys.sigma2_infty + _dot(sys.psi(s), vec - sys.eta_infty)
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
    if not sys.stable:
        raise NotStationaryError("envelope undefined: not stationary")
    p = sys.p
    grid = np.atleast_1d(np.asarray(s, dtype=float))
    psi = sys.psi(grid)
    v0 = sys.sigma2_infty - _dot(psi, sys.eta_infty)
    # unvec of each row's q part, symmetrized: q duplicates off-diagonal
    # coordinates, and symmetrizing leaves the quadratic form unchanged
    q_mat = psi[:, p:].reshape(-1, p, p).swapaxes(1, 2)
    q_mat = 0.5 * (q_mat + q_mat.swapaxes(1, 2))
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


def duplication_matrix(p):
    """D with vec(S) = D vech(S) for symmetric S (vech stacks the lower
    triangle column by column)."""
    cols = []
    for j in range(p):
        for i in range(j, p):
            m = np.zeros((p, p))
            m[i, j] = 1.0
            m[j, i] = 1.0
            cols.append(linalg.vec(m))
    return np.column_stack(cols)


@dataclass(frozen=True)
class PcaDecomposition:
    """Orthonormal factor decomposition of the forward-curve covariance.

    factor_curves(t) returns u(t) with Cov(v(s1), v(s2)) = u(s1)' diag(
    eigenvalues) u(s2) and integral of u u' over [0, inf) equal to the
    identity.  f_matrix and r_factor are the (reduced) accumulated loading
    Gram matrix and its rank-revealing Cholesky factor; projection maps
    psi(t) to u(t)."""

    eigenvalues: np.ndarray
    rank: int
    f_matrix: np.ndarray
    r_factor: np.ndarray
    projection: np.ndarray
    system: MomentSystem

    def factor_curves(self, t):
        """u(t) at a horizon, or one row per horizon of a 1-D grid."""
        return _matvec(self.projection, self.system.psi(t))


def pca(sys, omega_mat, tol=1e-10):
    """Diagonalize the stationary covariance of the forward curve.

    The q block is first projected onto the p(p+1)/2 distinct symmetric
    coordinates (duplicates carry no extra information), then
    F = integral of psi psi' dt is accumulated by a Lyapunov solve,
    factorized as F = R R', and R' Omega R is diagonalized.  Factor curves
    are u(t) = V' R^+ psi(t)."""
    if not sys.stable:
        raise NotStationaryError("pca undefined: not stationary")
    p = sys.p
    dup = duplication_matrix(p)
    dup_pinv = np.linalg.solve(dup.T @ dup, dup.T)
    reduce_psi = np.zeros((p + dup.shape[1], p + p**2))
    reduce_psi[:p, :p] = np.eye(p)
    reduce_psi[p:, p:] = dup.T
    reduce_eta = np.zeros_like(reduce_psi)
    reduce_eta[:p, :p] = np.eye(p)
    reduce_eta[p:, p:] = dup_pinv

    f_full = linalg.solve_lyapunov(sys.a_tilde, sys.g)
    f_red = reduce_psi @ f_full @ reduce_psi.T
    f_red = 0.5 * (f_red + f_red.T)
    omega_red = reduce_eta @ omega_mat @ reduce_eta.T
    omega_red = 0.5 * (omega_red + omega_red.T)

    r, rank, r_pinv = linalg.pivoted_cholesky(f_red, tol=tol)
    core = r.T @ omega_red @ r
    core = 0.5 * (core + core.T)
    vals, vecs = np.linalg.eigh(core)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    return PcaDecomposition(eigenvalues=vals, rank=rank, f_matrix=f_red,
                            r_factor=r,
                            projection=vecs.T @ r_pinv @ reduce_psi,
                            system=sys)


def default_grid(points=200, start=1e-3, end=5.0):
    """Geometric maturity grid used for curve emission."""
    return np.geomspace(start, end, points)


def pca_curves_csv(dec, grid):
    """Render factor curves scaled by their standard deviations.

    Component variances appear as comment lines; data columns are t followed
    by u_i(t) * sqrt(eigenvalue_i)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be ascending and non-empty")
    lines = []
    for i, v in enumerate(dec.eigenvalues, start=1):
        lines.append(f"# component {i} variance = {v:.17g}")
    cols = ["t"] + [f"pc{i}" for i in range(1, len(dec.eigenvalues) + 1)]
    lines.append(",".join(cols))
    scaled = dec.factor_curves(grid) * np.sqrt(np.maximum(dec.eigenvalues,
                                                          0.0))
    for t, u in zip(grid, scaled):
        row = [f"{t:.17g}"] + [f"{x:.17g}" for x in u]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
