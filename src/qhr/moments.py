"""Conditional and stationary moments of the offset process.

y is a polynomial diffusion: its drift -lam y is affine and its diffusion
sigma^2(y) b b' quadratic, so the generator

    L f = -(lam y)'grad f + 1/2 sigma^2(y) b' (grad grad' f) b

maps polynomials of degree <= 4 into themselves.  The moments E[y^(x)k] are
symmetric tensors, so they live in the symmetric subspace S whose
coordinates are the monomials y^e of degree 1..4 (one per orbit of index
tuples, linalg.symmetric_orbits).  On S the moments follow the lower block
triangular linear ODE

    dm/dt = source - A m,

with -A the matrix of L on those monomials and source its image of the
constant.  This module assembles that system straight from L, solves for
the stationary point, exposes conditional moment evolution, the stationary
covariance Omega of eta = (y; y(x)y), stability tests and the stationary
autocovariance functions of the variance and of squared price increments.
Omega, the loadings g and psi, and A~ are in S coordinates; stacked
Kronecker moments and raw eta vectors stay the layout at the API edge.
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

    The S coordinates are the monomials y^e, e = exponents[i], of degree
    1..4, degree by degree (sym_offsets); 209 of them at p = 6, where the
    stacked Kronecker moments have 1554 entries (block_offsets).  a_sym is
    -L on them and source the image of the constant.  m_infty is the
    stationary point in the stacked Kronecker layout; sym_rep holds the
    stacked index of each orbit's representative (m[sym_rep] are the S
    coordinates of a symmetric m) and sym_inv the orbit of each stacked
    index (x[sym_inv] spreads S coordinates back).  block_eig_min
    (mu_2..mu_4) and stable come from the diagonal blocks of a_sym; kappa
    is the stationarity scalar of the variance level."""

    p: int
    params: object
    exponents: np.ndarray
    a_sym: np.ndarray
    source: np.ndarray
    m_infty: np.ndarray
    sym_rep: np.ndarray
    sym_inv: np.ndarray
    block_offsets: tuple
    sym_offsets: tuple
    stable: bool
    block_eig_min: tuple
    kappa: float

    def block(self, k):
        """Slice of a stacked moment vector holding the order-k block."""
        return slice(self.block_offsets[k - 1], self.block_offsets[k])

    @property
    def n_eta(self):
        """Number of S coordinates of eta = (y; y(x)y)."""
        return self.sym_offsets[2]

    @property
    def a_tilde(self):
        """A on the S coordinates of eta (its top-left corner)."""
        return self.a_sym[:self.n_eta, :self.n_eta]

    @property
    def g(self):
        """Loading of eta in the variance link, sigma^2 = alpha + g'eta_S:
        (2 beta; Gamma_ii for y_i^2, Gamma_ij + Gamma_ji for y_i y_j)."""
        return _sigma2_coefficients(self.params, self.sym_inv)[1:self.n_eta + 1]

    @property
    def eta_infty(self):
        return self.m_infty[:self.p + self.p**2]

    @property
    def eta_infty_sym(self):
        return self.m_infty[self.sym_rep[:self.n_eta]]

    @property
    def sigma2_infty(self):
        return self.params.alpha + float(
            self.g @ self.eta_infty_sym)

    def eta_coordinates(self, eta):
        """S coordinates of an eta given as EtaState or as a raw stacked
        vector (y; q).  A q that is not symmetric has none: ValueError
        naming the first asymmetric pair."""
        vec = eta.vector if isinstance(eta, EtaState) else \
            np.asarray(eta, dtype=float).reshape(-1)
        p = self.p
        if vec.shape != (p + p * p,):
            raise ValueError(f"eta must have length {p + p * p}")
        q = vec[p:].reshape(p, p)
        # a NaN pair is left to propagate, as any other NaN input does
        bad = np.argwhere((q != q.T) & ~(np.isnan(q) & np.isnan(q.T)))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"q is not symmetric: entry ({i}, {j}) is "
                             f"{float(q[i, j])!r}, entry ({j}, {i}) is "
                             f"{float(q[j, i])!r}")
        return vec[self.sym_rep[:self.n_eta]]

    def psi(self, s):
        """Loading curve psi(s) = (e^{-A~ s})' g of the forward variance,
        v_t(s) = sigma2_infty + psi(s)'(eta_t - eta_infty) in S coordinates.

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


def _sigma2_coefficients(params, sym_inv):
    """Coefficients of sigma^2(y) on the monomials of degree 0..2, in the
    order 1, S coordinates of y, S coordinates of y(x)y."""
    p = params.p
    quad = np.bincount(sym_inv[p:p + p * p] - p,
                       weights=params.gamma_mat.reshape(-1))
    return np.concatenate([[params.alpha], 2.0 * params.beta, quad])


def _index(exponents):
    """Map from exponent vectors (last axis) to their rows in exponents."""
    radix = 5 ** np.arange(exponents.shape[1])
    table = np.full(5 ** exponents.shape[1], -1)
    table[exponents @ radix] = np.arange(len(exponents))
    return lambda e: table[e @ radix]


def build_moment_system(params):
    """Assemble A, the source term and the stationary moments from L.

    For a monomial y^a the drift term moves one exponent from i to l with
    weight a_i lam_il; the diffusion term 1/2 sigma^2(y) b_i b_j d_i d_j
    lowers the degree by two with weight W_ad = 1/2 sum b_i b_j a_i
    (a_j - delta_ij) and multiplies by sigma^2(y), which feeds the degree
    k-2, k-1 and k blocks through alpha, 2 beta'y and y'Gamma y.  The
    stationary point is found by forward substitution down the block
    triangle."""
    p = params.p
    if p > linalg.DIM_CAP:
        raise linalg.DimensionCapError(
            f"state dimension {p} exceeds the configured cap {linalg.DIM_CAP}")
    orbits = [linalg.symmetric_orbits(p, k) for k in (1, 2, 3, 4)]
    eye = np.eye(p, dtype=int)
    # the monomials of degree 0..4: the constant, then S
    expo = np.concatenate([np.zeros((1, p), dtype=int)] + [
        sum(eye[i] for i in np.unravel_index(rep, (p,) * k))
        for k, (rep, _) in enumerate(orbits, start=1)])
    index = _index(expo)
    n = len(expo)

    drift = np.zeros((n, n))
    r, i = np.nonzero(expo)
    r, i, l = np.repeat(r, p), np.repeat(i, p), np.tile(np.arange(p), r.size)
    np.add.at(drift, (r, index(expo[r] - eye[i] + eye[l])),
              expo[r, i] * params.lam[i, l])

    lower = np.zeros((n, n))
    count = expo[:, :, None] * (expo[:, None, :] - eye)
    r, i, j = np.nonzero(count > 0)
    np.add.at(lower, (r, index(expo[r] - eye[i] - eye[j])),
              0.5 * count[r, i, j] * (params.b[i] * params.b[j]))

    sym_offsets = tuple(int(o) for o in np.cumsum(
        [0] + [rep.size for rep, _ in orbits]))
    sym_inv = np.concatenate([off + inv for off, (_, inv) in
                              zip(sym_offsets, orbits)])
    coef = _sigma2_coefficients(params, sym_inv)
    deg = expo.sum(axis=1)
    r, c = np.nonzero(deg[:, None] + deg[None, :coef.size] <= 4)
    times_sigma2 = np.zeros((n, n))
    times_sigma2[r, index(expo[r] + expo[c])] = coef[c]
    diffusion = lower @ times_sigma2

    a_sym = drift[1:, 1:] - diffusion[1:, 1:]
    source = diffusion[1:, 0]
    blocks = [slice(sym_offsets[k - 1], sym_offsets[k]) for k in (1, 2, 3, 4)]
    b2 = blocks[1]
    m_sym = np.zeros(n - 1)
    try:
        for blk in blocks[1:]:
            rhs = source[blk] - a_sym[blk, :blk.start] @ m_sym[:blk.start]
            m_sym[blk] = np.linalg.solve(a_sym[blk, blk], rhs)
        # kappa = gamma' lam_(2)^-1 bbar, lam_(2) the drift part of A_22
        kappa = float(coef[1:][b2] @ np.linalg.solve(drift[1:, 1:][b2, b2],
                                                     lower[1:, 0][b2]))
    except np.linalg.LinAlgError as exc:
        raise SingularAError(f"singular moment block: {exc}") from exc
    if not np.all(np.isfinite(m_sym)):
        raise SingularAError("stationary moments are not finite")

    offsets = np.cumsum([0, p, p**2, p**3, p**4])
    eig_min = tuple(float(linalg.eigenvalues(a_sym[blk, blk])[0].real)
                    for blk in blocks[1:])
    return MomentSystem(
        p=p,
        params=params,
        exponents=expo[1:],
        a_sym=a_sym,
        source=source,
        m_infty=m_sym[sym_inv],
        sym_rep=np.concatenate([offsets[k] + rep
                                for k, (rep, _) in enumerate(orbits)]),
        sym_inv=sym_inv,
        block_offsets=tuple(int(o) for o in offsets),
        sym_offsets=sym_offsets,
        stable=all(e > 0 for e in eig_min),
        block_eig_min=eig_min,
        kappa=kappa,
    )


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

    sigma2_infty = alpha/(1-kappa) with kappa = g_q' lam_(2)^-1 bbar on S;
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
    eta_inf = sys.eta_infty_sym
    e_sig4 = params.alpha**2 + 2.0 * params.alpha * float(g @ eta_inf) \
        + float(g @ _eta_second_moment(sys) @ g)
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
    """E[eta eta'] on S: E[y^a y^b] is the stationary moment of y^(a+b)."""
    e = sys.exponents[:sys.n_eta]
    return sys.m_infty[sys.sym_rep][_index(sys.exponents)(e[:, None] + e)]


def omega(sys):
    """Stationary covariance of eta in S coordinates: second moment minus
    the eta_infty outer product (the y block is already centered since
    E[y] = 0)."""
    if not sys.stable:
        raise NotStationaryError("omega undefined for unstable model")
    eta_inf = sys.eta_infty_sym
    return _eta_second_moment(sys) - np.outer(eta_inf, eta_inf)


def conditional_moments(sys, y0, t):
    """Conditional moments at horizon t from a point start y0:
    m0(t) = m_infty + e^{-At}(m0(0) - m_infty) with m0(0) stacking the
    Kronecker powers of y0.  The decay runs on S: e^{-A_sym t} on the
    monomial coordinates."""
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
    blocks only): eta_infty + e^{-A~s}(eta - eta_infty), returned in the
    stacked layout of eta."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    diff = sys.eta_coordinates(eta) - sys.eta_infty_sym
    decay = linalg.expm(-sys.a_tilde * s) @ diff
    return sys.eta_infty + decay[sys.sym_inv[:sys.p + sys.p**2]]


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


def squared_increment_autocov(sys, cov_eta_xi2, r, h):
    """Autocovariance of squared increments of the martingale part:

    Cov((xi_t^(r))^2, (xi_{t+h}^(r))^2) = g' e^{-A~h} h_r,
    h_r = A~^-1 (e^{A~r} - I) Cov(eta_r, xi_r^2),

    valid for h >= r >= 0 (h measured between window starts).  The input
    vector Cov(eta_r, xi_r^2), in the stacked layout of eta, is estimated
    by simulation elsewhere (qhr does not compute it in closed form yet,
    ROADMAP item 2); its q part must be symmetric."""
    if h < r:
        raise WindowOrderError("lag h must be at least the window r")
    if not sys.stable:
        raise NotStationaryError("autocovariance undefined: not stationary")
    cov = sys.eta_coordinates(cov_eta_xi2)
    at = sys.a_tilde
    h_r = np.linalg.solve(at, (linalg.expm(at * r) - np.eye(sys.n_eta)) @ cov)
    return float(sys.psi(h) @ h_r)
