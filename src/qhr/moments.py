"""Conditional and stationary moments of the offset process.

y is a polynomial diffusion: its drift -lam y is affine and its diffusion
sigma^2(y) b b' quadratic, so the generator

    L f = -(lam y)'grad f + 1/2 sigma^2(y) b' (grad grad' f) b

maps polynomials of degree <= 4 into themselves.  The moments E[y^(x)k] are
symmetric tensors, so they live in the symmetric subspace S whose
coordinates are the monomials y^e of degree 1..4: degree by degree, and
within a degree in the lexicographic order of the sorted index tuple
(exponents, monomials).  On S the moments follow the lower block
triangular linear ODE

    dm/dt = source - A m,

with -A the matrix of L on those monomials and source its image of the
constant.  This module assembles that system straight from L, solves for
the stationary point, exposes conditional moment evolution, the stationary
covariance Omega of eta = (y; y(x)y), stability tests and the stationary
autocovariance functions of the variance and of squared price increments.
S is the only layout: every moment vector taken or returned, eta included,
holds the S coordinates, and monomials(y, k) gives them for a point y.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg


class SingularAError(ValueError):
    """A diagonal block of the moment matrix is singular."""


class NotStationaryError(ValueError):
    """Stationary moments do not exist for this model."""


class WindowOrderError(ValueError):
    """The averaging window r is negative or not finite, or exceeds the lag."""


@functools.lru_cache(maxsize=None)
def _monomial_tree(p, degree):
    """The monomials of degree 1..degree in p variables, in S order, as
    (exponents, parent, last, offsets): y^e = y^parent * y_last, where last
    is the largest index of e's sorted index tuple and parent the row of
    e with that index removed (-1 at degree 1); offsets are the degree
    boundaries.  The arrays are read-only."""
    by_degree = [list(itertools.combinations_with_replacement(range(p), k))
                 for k in range(1, degree + 1)]
    offsets = tuple(itertools.accumulate(map(len, by_degree), initial=0))
    tuples = list(itertools.chain.from_iterable(by_degree))
    row = {t: i for i, t in enumerate(tuples)}
    expo = np.array([[t.count(i) for i in range(p)] for t in tuples])
    parent = np.array([row.get(t[:-1], -1) for t in tuples])
    last = np.array([t[-1] for t in tuples])
    for a in (expo, parent, last):
        a.flags.writeable = False
    return expo, parent, last, offsets


def monomials(y, degree):
    """S coordinates of a point: y^e for the monomials of degree 1..degree,
    in the order of MomentSystem.exponents.  y is one point (p entries) or
    holds one point per row along its last axis.  Each degree is one
    product y^parent * y_last over the degree below, so the values equal
    the Kronecker powers of y at the sorted index tuples bit for bit.
    monomials(y, 2) is the eta of a path state."""
    y = np.asarray(y, dtype=float)
    _, parent, last, offsets = _monomial_tree(y.shape[-1], degree)
    out = np.empty(y.shape[:-1] + (offsets[-1],))
    out[..., :offsets[1]] = y
    for lo, hi in zip(offsets[1:-1], offsets[2:]):
        out[..., lo:hi] = out[..., parent[lo:hi]] * y[..., last[lo:hi]]
    return out


@dataclass(frozen=True)
class MomentSystem:
    """Assembled moment ODE for one model, in S coordinates.

    The S coordinates are the monomials y^e, e = exponents[i], of degree
    1..4, degree by degree (sym_offsets) and within a degree in the
    lexicographic order of the sorted index tuple; 209 of them at p = 6.
    a_sym is -L on them, source the image of the constant and m_infty the
    stationary point.  eta = (y; y(x)y) is the first n_eta of them, and g
    its loading in the variance link, sigma^2 = alpha + g'eta (2 beta;
    Gamma_ii for y_i^2, Gamma_ij + Gamma_ji for y_i y_j).  block_spectra
    holds the spectra of the diagonal blocks 1..4 of a_sym (block 1 is
    lam), each by ascending real part; stable says all lie in the open
    right half plane, the one test behind require_stable.  kappa is the
    stationarity scalar of the variance level.  build_moment_system
    computes every field once."""

    p: int
    params: object
    exponents: np.ndarray
    a_sym: np.ndarray
    source: np.ndarray
    m_infty: np.ndarray
    sym_offsets: tuple
    g: np.ndarray
    block_spectra: tuple
    stable: bool
    kappa: float

    @property
    def n_eta(self):
        """Number of S coordinates of eta = (y; y(x)y)."""
        return self.sym_offsets[2]

    @property
    def a_tilde(self):
        """A on the S coordinates of eta (its top-left corner)."""
        return self.a_sym[:self.n_eta, :self.n_eta]

    @property
    def block_eig_min(self):
        """mu_2..mu_4: the smallest real part of diagonal blocks 2..4."""
        return tuple(float(s[0].real) for s in self.block_spectra[1:])

    @property
    def eta_infty(self):
        return self.m_infty[:self.n_eta]

    @property
    def sigma2_infty(self):
        return self.params.alpha + float(self.g @ self.eta_infty)

    def require_stable(self):
        """Raise NotStationaryError unless every diagonal block of a_sym is
        stable: naming block 1 and its smallest real part when lam fails,
        and otherwise the smallest real part of each of blocks 2..4."""
        if not self.stable:
            lam_min = float(self.block_spectra[0][0].real)
            if not lam_min > 0:
                raise NotStationaryError(
                    f"moment block 1 (lam) not stable (smallest real part: "
                    f"{lam_min:.4g})")
            bad = ", ".join(f"{e:.4g}" for e in self.block_eig_min)
            raise NotStationaryError(
                f"moment blocks not all stable (smallest real parts: {bad})")

    def as_eta(self, eta):
        """eta as a float vector of its n_eta S coordinates; ValueError for
        any other length."""
        vec = np.asarray(eta, dtype=float).reshape(-1)
        if vec.shape != (self.n_eta,):
            raise ValueError(f"eta must have length {self.n_eta} (the S "
                             f"coordinates of (y; y(x)y)), got {vec.size}")
        return vec

    def psi(self, s):
        """Loading curve psi(s) = e^{-A~'s} g of the forward variance,
        v_t(s) = sigma2_infty + psi(s)'(eta_t - eta_infty) in S coordinates.

        s is a horizon 0 <= s < inf or a 1-D array of them (one row each).
        A grid is one propagation, and each row equals the single-horizon
        call bit for bit."""
        return _decay(self._loading_decay, self.g, s)

    # The propagators of the moment ODE, built on first use and kept with
    # their powers of e^{-A h}: psi, conditional_moments and conditional_eta
    # are called many times on one system.
    @functools.cached_property
    def _loading_decay(self):
        return linalg.ExpmAction(-self.a_tilde.T)

    @functools.cached_property
    def _moment_decay(self):
        return linalg.ExpmAction(-self.a_sym)

    @functools.cached_property
    def _eta_decay(self):
        return linalg.ExpmAction(-self.a_tilde)


def _horizons(s):
    """s as floats, scalar or 1-D; ValueError names the first bad horizon."""
    s = np.asarray(s, dtype=float)
    if s.ndim > 1:
        raise ValueError("horizons must be a scalar or a 1-D array")
    ok = (s >= 0) & (s < np.inf)
    if not ok.all():
        raise ValueError(f"horizon must be finite and >= 0, got s={s[~ok][0]}")
    return s


def _decay(action, v, s):
    """e^{-A s} v at checked horizons s, action the linalg.ExpmAction of
    -A: qhr's one propagator through time.  One row per horizon of a grid."""
    return action(v, _horizons(s))


def pairs(exponents):
    """Index pairs (i, j), i <= j, of the degree-2 rows of exponents, in
    their order: row y_i y_j."""
    e = exponents[exponents.sum(axis=1) == 2]
    ij = np.repeat(np.tile(np.arange(e.shape[1]), len(e)), e.reshape(-1))
    return ij.reshape(-1, 2).T


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
    sym_expo, _, _, sym_offsets = _monomial_tree(p, 4)
    eye = np.eye(p, dtype=int)
    # the monomials of degree 0..4: the constant, then S
    expo = np.concatenate([np.zeros((1, p), dtype=int), sym_expo])
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

    # sigma^2(y) on the monomials of degree 0..2: alpha, then g
    i, j = pairs(expo)
    gam = params.gamma_mat
    coef = np.concatenate([[params.alpha], 2.0 * params.beta,
                           np.where(i == j, gam[i, j], gam[i, j] + gam[j, i])])
    g = coef[1:]
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
        kappa = float(g[b2] @ np.linalg.solve(drift[1:, 1:][b2, b2],
                                              lower[1:, 0][b2]))
    except np.linalg.LinAlgError as exc:
        raise SingularAError(f"singular moment block: {exc}") from exc
    if not np.all(np.isfinite(m_sym)):
        raise SingularAError("stationary moments are not finite")

    spectra = tuple(linalg.eigenvalues(a_sym[blk, blk]) for blk in blocks)
    return MomentSystem(
        p=p,
        params=params,
        exponents=sym_expo,
        a_sym=a_sym,
        source=source,
        m_infty=m_sym,
        sym_offsets=sym_offsets,
        g=g,
        block_spectra=spectra,
        stable=all(s[0].real > 0 for s in spectra),
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

    sigma2_infty is sys.sigma2_infty = alpha + g'eta_infty, which equals
    alpha/(1-kappa), kappa = g_q' lam_(2)^-1 bbar on S, in exact
    arithmetic; the gate keeps kappa < 1, because det A_22 = det lam_(2)
    (1-kappa) and both determinants are positive once blocks 1 and 2 are
    stable.  E[sigma^4] = E[(alpha + g'eta)^2] expanded with the
    stationary first and second moments of eta.  q_infty = E[y y'] in S
    coordinates (the moments of y_i y_j, i <= j)."""
    sys.require_stable()
    sigma2 = sys.sigma2_infty
    g = sys.g
    eta_inf = sys.eta_infty
    e_sig4 = params.alpha**2 + 2.0 * params.alpha * float(g @ eta_inf) \
        + float(g @ _eta_second_moment(sys) @ g)
    kappa_tilde, _ = check_stability_sufficient(params)
    return StationarySummary(
        q_infty=sys.m_infty[sys.p:sys.n_eta].copy(),
        kappa=sys.kappa,
        kappa_tilde=kappa_tilde,
        sigma2_infty=sigma2,
        e_sigma4=e_sig4,
        kurt_infty=e_sig4 / sigma2**2,
    )


def _eta_second_moment(sys):
    """E[eta eta'] on S: E[y^a y^b] is the stationary moment of y^(a+b)."""
    e = sys.exponents[:sys.n_eta]
    return sys.m_infty[_index(sys.exponents)(e[:, None] + e)]


def omega(sys):
    """Stationary covariance of eta in S coordinates: second moment minus
    the eta_infty outer product (the y block is already centered since
    E[y] = 0)."""
    sys.require_stable()
    eta_inf = sys.eta_infty
    return _eta_second_moment(sys) - np.outer(eta_inf, eta_inf)


def conditional_moments(sys, y0, t):
    """Conditional moments at horizon 0 <= t < inf from a point start y0,
    in S coordinates: m(t) = m_infty + e^{-A_sym t}(m(0) - m_infty), m(0)
    the monomials of y0.  One row per horizon of a 1-D grid t."""
    y0 = np.asarray(y0, dtype=float).reshape(-1)
    diff = monomials(y0, 4) - sys.m_infty
    return sys.m_infty + _decay(sys._moment_decay, diff, t)


def conditional_eta(sys, eta, s):
    """Conditional mean of eta at horizon 0 <= s < inf from state eta, in
    S coordinates: eta_infty + e^{-A~s}(eta - eta_infty).  A 1-D grid of
    lags s is one propagation, with one row per lag."""
    diff = sys.as_eta(eta) - sys.eta_infty
    return sys.eta_infty + _decay(sys._eta_decay, diff, s)


def variance_autocov(sys, omega_mat, s):
    """Stationary autocovariance of the instantaneous variance at lag s:
    Cov(sigma^2_{t+s}, sigma^2_t) = psi(s)' Omega g, psi = MomentSystem.psi.
    A 1-D grid of lags is one psi call and gives one value per lag, each
    equal to the single-lag value bit for bit."""
    sys.require_stable()
    cov = (sys.psi(s)[..., None, :] @ omega_mat @ sys.g)[..., 0]
    return float(cov) if cov.ndim == 0 else cov


def _check_window(r, h=np.inf):
    """WindowOrderError naming r unless 0 <= r < inf and r <= h."""
    if not 0 <= r < np.inf:
        raise WindowOrderError(
            f"window must be finite and nonnegative, got r={r}")
    if not r <= h:
        raise WindowOrderError(
            f"lag h must be at least the window r, got r={r}, h={h}")


def squared_increment_mean(sys, r):
    """E[(xi_{t+r} - xi_t)^2] = r * sigma2_infty, 0 <= r < inf."""
    _check_window(r)
    sys.require_stable()
    return float(r) * sys.sigma2_infty


def squared_increment_autocov(sys, cov_eta_xi2, r, h):
    """Autocovariance of squared increments of the martingale part:

    Cov((xi_t^(r))^2, (xi_{t+h}^(r))^2) = g' e^{-A~h} A~^-1 (e^{A~r} - I) c
                                        = (psi(h - r) - psi(h))' A~^-1 c,

    c = Cov(eta_r, xi_r^2), for 0 <= r < inf and h >= r between window
    starts.  The forms agree as e^{-A~h}, A~^-1 and e^{A~r} commute, and
    the second has no growing exponential.  c, in the S coordinates of
    eta, is estimated by simulation (no closed form yet, ROADMAP item 1)."""
    _check_window(r, h)
    sys.require_stable()
    a_inv_c = np.linalg.solve(sys.a_tilde, sys.as_eta(cov_eta_xi2))
    return float(np.subtract(*sys.psi([h - r, h])) @ a_inv_c)
