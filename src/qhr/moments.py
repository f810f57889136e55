"""Conditional and stationary Kronecker moments of the offset process.

The moments m^(k) = E[y^(x)k] up to order four follow a lower block
triangular linear ODE

    dm0/dt = a - A m0,

whose blocks come from the nested Kronecker operators.  This module builds
that system, solves for the stationary point, exposes conditional moment
evolution, the stationary covariance Omega of eta = (y; y(x)y), stability
tests and the stationary autocovariance functions of the variance and of
squared price increments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg


class SingularAError(ValueError):
    """A diagonal block of the moment matrix is singular."""


class NotStationaryError(ValueError):
    """Stationary moments do not exist for this model."""


class WindowOrderError(ValueError):
    """Lag must be at least the averaging window length."""


@dataclass(frozen=True)
class EtaState:
    """State of the first two moment blocks: y and q (= y(x)y on a path)."""

    y: np.ndarray
    q: np.ndarray

    @classmethod
    def from_y(cls, y):
        y = np.asarray(y, dtype=float).reshape(-1)
        return cls(y=y, q=np.kron(y, y))

    @property
    def vector(self):
        return np.concatenate([self.y, self.q])


@dataclass(frozen=True)
class MomentSystem:
    """Assembled moment ODE for one model.

    a_blocks maps (row, col) 1-based block indices to the nonzero blocks of
    A; a_full is the stacked (p+p^2+p^3+p^4) square matrix, source the
    constant term, m_infty the stationary point and a_tilde the top-left
    (p+p^2) square sub-matrix governing eta.

    The moments E[y^(x)k] are symmetric tensors, so they live in the
    symmetric subspace S, one coordinate per orbit of index tuples
    (linalg.symmetric_orbits): 209 rows instead of 1554 at p = 6.  A maps S
    into itself, and a_sym is its restriction, a_full @ D = D @ a_sym with
    D the duplication map.  sym_rep holds the stacked index of each orbit's
    representative (m[sym_rep] are the S coordinates of a symmetric m) and
    sym_inv the orbit of each stacked index (x[sym_inv] spreads them back).
    block_eig_min (mu_2..mu_4) and stable come from the diagonal blocks of
    a_sym: they describe A where the moments live, not how B_(k) acts on
    non-symmetric tensors."""

    p: int
    params: object
    ops: linalg.KronOperatorSet
    a_blocks: dict
    a_full: np.ndarray
    source: np.ndarray
    m_infty: np.ndarray
    a_tilde: np.ndarray
    a_sym: np.ndarray
    sym_rep: np.ndarray
    sym_inv: np.ndarray
    block_offsets: tuple
    stable: bool
    block_eig_min: tuple

    def block(self, k):
        """Slice of a stacked moment vector holding the order-k block."""
        return slice(self.block_offsets[k - 1], self.block_offsets[k])

    @property
    def g(self):
        """Loading of eta in the variance link: sigma^2 = alpha + g'eta."""
        return np.concatenate([2.0 * self.params.beta,
                               linalg.vec(self.params.gamma_mat)])

    @property
    def eta_infty(self):
        return self.m_infty[:self.p + self.p**2]

    @property
    def sigma2_infty(self):
        return self.params.alpha + float(
            self.g[self.p:] @ self.m_infty[self.block(2)])

    @property
    def kappa(self):
        """kappa = gamma_vec' lambar^-1 bbar (stationarity needs kappa < 1)."""
        bbar = np.kron(self.params.b, self.params.b)
        return float(linalg.vec(self.params.gamma_mat)
                     @ np.linalg.solve(self.ops.lambda_k[1], bbar))

    def psi(self, s):
        """Loading curve psi(s) = (e^{-A~ s})' g of the forward variance,
        v_t(s) = sigma2_infty + psi(s)'(eta_t - eta_infty).

        s is a horizon or a 1-D array of horizons; an array gives one row
        per horizon.  A negative horizon raises ValueError naming the first
        one."""
        s = np.asarray(s, dtype=float)
        if s.ndim > 1:
            raise ValueError("horizons must be a scalar or a 1-D array")
        negative = s[s < 0]
        if negative.size:
            raise ValueError(f"horizon must be nonnegative, got s={negative[0]}")
        decay = linalg.expm(-self.a_tilde, s)
        return (np.swapaxes(decay, -1, -2) @ self.g[:, None])[..., 0]


def build_moment_system(params):
    """Assemble A, the source term and the stationary moments.

    Blocks: A_kk = lam_(k) - B_(k) (x) gamma', A_{k,k-1} = -2 B_(k) (x)
    beta', A_{k,k-2} = -alpha B_(k), everything else zero; source
    a = (0; alpha*bbar; 0; 0).  The stationary point is found by forward
    substitution down the block triangle."""
    p = params.p
    ops = linalg.build_kron_operators(params.lam, params.b, order=4)
    gam_row = linalg.vec(params.gamma_mat).reshape(1, -1)
    beta_row = params.beta.reshape(1, -1)
    alpha = params.alpha
    bbar = np.kron(params.b, params.b)

    blocks = {(1, 1): ops.lambda_k[0]}
    for k in (2, 3, 4):
        bk = ops.b_k[k - 1]
        blocks[(k, k)] = ops.lambda_k[k - 1] - np.kron(bk, gam_row)
        blocks[(k, k - 1)] = -2.0 * np.kron(bk, beta_row)
        if k >= 3:
            blocks[(k, k - 2)] = -alpha * bk

    sizes = [p, p**2, p**3, p**4]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = offsets[-1]
    a_full = _stack(blocks, offsets)

    source = np.zeros(n)
    source[offsets[1]:offsets[2]] = alpha * bbar

    m_blocks = [np.zeros(p)]
    try:
        m2 = np.linalg.solve(blocks[(2, 2)], alpha * bbar)
        m3 = np.linalg.solve(blocks[(3, 3)], -blocks[(3, 2)] @ m2)
        m4 = np.linalg.solve(blocks[(4, 4)],
                             -blocks[(4, 3)] @ m3 - blocks[(4, 2)] @ m2)
    except np.linalg.LinAlgError as exc:
        raise SingularAError(f"singular moment block: {exc}") from exc
    m_blocks += [m2, m3, m4]
    m_infty = np.concatenate(m_blocks)
    if not np.all(np.isfinite(m_infty)):
        raise SingularAError("stationary moments are not finite")

    # restrict every block to S: rows at each orbit's representative,
    # columns summed over each orbit (the duplication map D_j)
    orbits = [linalg.symmetric_orbits(p, k) for k in (1, 2, 3, 4)]
    dup = [np.eye(rep.size)[inv] for rep, inv in orbits]
    sym_blocks = {(i, j): blk[orbits[i - 1][0]] @ dup[j - 1]
                  for (i, j), blk in blocks.items()}
    sym_offsets = np.concatenate([[0], np.cumsum([rep.size
                                                  for rep, _ in orbits])])
    eig_min = tuple(
        float(linalg.eigenvalues(sym_blocks[(k, k)])[0].real)
        for k in (2, 3, 4))
    return MomentSystem(
        p=p,
        params=params,
        ops=ops,
        a_blocks=blocks,
        a_full=a_full,
        source=source,
        m_infty=m_infty,
        a_tilde=a_full[:p + p**2, :p + p**2],
        a_sym=_stack(sym_blocks, sym_offsets),
        sym_rep=np.concatenate([offsets[k] + rep
                                for k, (rep, _) in enumerate(orbits)]),
        sym_inv=np.concatenate([sym_offsets[k] + inv
                                for k, (_, inv) in enumerate(orbits)]),
        block_offsets=tuple(int(o) for o in offsets),
        stable=all(e > 0 for e in eig_min),
        block_eig_min=eig_min,
    )


def _stack(blocks, offsets):
    """Square matrix holding blocks[(i, j)] at block row i, block column j."""
    out = np.zeros((offsets[-1], offsets[-1]))
    for (i, j), blk in blocks.items():
        out[offsets[i - 1]:offsets[i], offsets[j - 1]:offsets[j]] = blk
    return out


@dataclass(frozen=True)
class StationarySummary:
    q_infty: np.ndarray
    kappa: float
    kappa_tilde: float
    sigma2_infty: float
    e_sigma4: float
    kurt_infty: float
    stable: bool


def check_stability_sufficient(params):
    """Cheap sufficient test: Gamma entrywise nonnegative and
    kappa_tilde = lam_max * b' lam^-T Gamma lam^-1 b < 2/3.

    The statistic is built from the fastest rate lam_max.  It is invariant
    under a change of filter coordinates, reduces to gamma/lam for p = 1 and
    is exact for a decoupled factor.  The slowest rate is not sufficient:
    with lam = diag(1, 10), b = (1, 1) and Gamma = diag(0, 9) the second
    factor alone is a scalar model with gamma/lam = 0.9 > 2/3, yet
    lam_min * b' lam^-T Gamma lam^-1 b = 0.09.

    Returns (kappa_tilde, passes).  The test can fail for models that the
    exact block-eigenvalue criterion accepts."""
    lam_max = float(np.linalg.eigvals(params.lam).real.max())
    x = np.linalg.solve(params.lam, params.b)
    kappa_tilde = lam_max * float(x @ params.gamma_mat @ x)
    passes = bool(params.gamma_mat.min() >= -1e-14) and kappa_tilde < 2.0 / 3.0
    return kappa_tilde, passes


def stationary_summary(sys, params):
    """Stationary variance level, fourth moment and kurtosis.

    sigma2_infty = alpha/(1-kappa) with kappa = gamma_vec' lambar^-1 bbar;
    E[sigma^4] = E[(alpha + g'eta)^2] expanded with the stationary first and
    second moments of eta."""
    if not sys.stable:
        bad = ", ".join(f"{e:.4g}" for e in sys.block_eig_min)
        raise NotStationaryError(
            f"moment blocks not all stable (smallest real parts: {bad})")
    kappa = sys.kappa
    if kappa >= 1.0:
        raise NotStationaryError(f"kappa = {kappa:.4g} >= 1")
    sigma2 = params.alpha / (1.0 - kappa)
    g = sys.g
    eta_inf = sys.eta_infty
    second = _eta_second_moment(sys)
    e_sig4 = params.alpha**2 + 2.0 * params.alpha * float(g @ eta_inf) \
        + float(g @ second @ g)
    kappa_tilde, _ = check_stability_sufficient(params)
    return StationarySummary(
        q_infty=sys.m_infty[sys.block(2)].copy(),
        kappa=kappa,
        kappa_tilde=kappa_tilde,
        sigma2_infty=sigma2,
        e_sigma4=e_sig4,
        kurt_infty=e_sig4 / sigma2**2,
        stable=sys.stable,
    )


def _eta_second_moment(sys):
    """E[eta eta'] assembled from the stationary moment blocks."""
    p = sys.p
    m2 = linalg.unvec(sys.m_infty[sys.block(2)], p, p)
    m3 = linalg.unvec(sys.m_infty[sys.block(3)], p, p**2)
    m4 = linalg.unvec(sys.m_infty[sys.block(4)], p**2, p**2)
    top = np.hstack([m2, m3])
    bottom = np.hstack([m3.T, m4])
    out = np.vstack([top, bottom])
    return 0.5 * (out + out.T)


def omega(sys):
    """Stationary covariance of eta: second moment minus eta_infty outer
    product (the y block is already centered since E[y] = 0)."""
    if not sys.stable:
        raise NotStationaryError("omega undefined for unstable model")
    eta_inf = sys.eta_infty
    out = _eta_second_moment(sys) - np.outer(eta_inf, eta_inf)
    return 0.5 * (out + out.T)


def conditional_moments(sys, y0, t):
    """Conditional moments at horizon t from a point start y0:
    m0(t) = m_infty + e^{-At}(m0(0) - m_infty) with m0(0) stacking the
    Kronecker powers of y0.  The decay runs on the symmetric subspace,
    where m0(0) - m_infty lives: e^{-A_sym t} on its orbit coordinates."""
    y0 = np.asarray(y0, dtype=float).reshape(-1)
    if t < 0:
        raise ValueError("t must be nonnegative")
    m0 = [y0]
    for _ in range(3):
        m0.append(np.kron(m0[-1], y0))
    m0 = np.concatenate(m0)
    decay = linalg.expm(-sys.a_sym * t)
    diff = (m0 - sys.m_infty)[sys.sym_rep]
    return sys.m_infty + (decay @ diff)[sys.sym_inv]


def conditional_eta(sys, eta, s):
    """Conditional mean of eta at horizon s from state eta (first two moment
    blocks only): eta_infty + e^{-A~s}(eta - eta_infty)."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    vec0 = eta.vector if isinstance(eta, EtaState) else np.asarray(eta, float)
    diff = vec0 - sys.eta_infty
    return sys.eta_infty + linalg.expm(-sys.a_tilde * s) @ diff


def variance_autocov(sys, omega_mat, s):
    """Stationary autocovariance of the instantaneous variance at lag s:
    Cov(sigma^2_{t+s}, sigma^2_t) = psi(s)' Omega g, psi = MomentSystem.psi."""
    if not sys.stable:
        raise NotStationaryError("autocovariance undefined: not stationary")
    return float(sys.psi(s) @ omega_mat @ sys.g)


def squared_increment_mean(sys, r):
    """E[(xi_{t+r} - xi_t)^2] = r * sigma2_infty under stationarity."""
    if not sys.stable:
        raise NotStationaryError("mean undefined: not stationary")
    return float(r) * sys.sigma2_infty


def increment_cov(sys, r, h):
    """Cov(xi increments over disjoint windows) vanishes: returns 0.0."""
    if h < r:
        raise WindowOrderError("lag h must be at least the window r")
    return 0.0


def squared_increment_autocov(sys, cov_eta_xi2, r, h):
    """Autocovariance of squared increments of the martingale part:

    Cov((xi_t^(r))^2, (xi_{t+h}^(r))^2) = g' e^{-A~h} h_r,
    h_r = A~^-1 (e^{A~r} - I) Cov(eta_r, xi_r^2),

    valid for h >= r >= 0 (h measured between window starts).  The input
    vector Cov(eta_r, xi_r^2) has no closed form and is estimated by
    simulation elsewhere."""
    if h < r:
        raise WindowOrderError("lag h must be at least the window r")
    if not sys.stable:
        raise NotStationaryError("autocovariance undefined: not stationary")
    cov = np.asarray(cov_eta_xi2, dtype=float).reshape(-1)
    n = sys.p + sys.p**2
    if cov.shape != (n,):
        raise ValueError(f"cov_eta_xi2 must have length {n}")
    at = sys.a_tilde
    h_r = np.linalg.solve(at, (linalg.expm(at * r) - np.eye(n)) @ cov)
    return float(sys.psi(h) @ h_r)
