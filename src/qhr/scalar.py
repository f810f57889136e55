"""Closed forms and the stationary law for the one-factor model.

For p = 1 the offset follows dy = -lam*y dt + sigma(y) dW with
sigma^2(y) = alpha + 2*beta*y + gamma*y^2.  Its stationary moments have
closed forms, the kurtosis of the instantaneous volatility admits explicit
bounds, and the stationary law itself is a Pearson type IV density

    p(y) = C * sigma^2(y)^(-lam/gamma - 1)
             * exp(nu * arctan((beta + gamma*y)/sqrt(delta))),

with delta = alpha*gamma - beta^2 > 0 and nu = 2*lam*beta/(gamma*sqrt(delta)).
Everything here doubles as an analytic oracle for the general-p machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, loggamma, ndtr, ndtri, stdtr, stdtrit

from .model import ModelParams
from .moments import NotStationaryError


@dataclass(frozen=True)
class ScalarParams:
    """One-factor parameters.  Stationary (through fourth moments) iff
    gamma < 2*lam/3."""

    lam: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("lam", "alpha", "beta", "gamma"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    @property
    def stationary(self):
        return self.gamma < 2.0 * self.lam / 3.0

    @classmethod
    def from_model_params(cls, params):
        if params.p != 1:
            raise ValueError("scalar reduction requires p = 1")
        return cls(lam=float(params.lam[0, 0]), alpha=params.alpha,
                   beta=float(params.beta[0]),
                   gamma=float(params.gamma_mat[0, 0]))

    def to_model_params(self, label=""):
        return ModelParams(lam=[[self.lam]], b=[1.0], alpha=self.alpha,
                           beta=[self.beta], gamma_mat=[[self.gamma]],
                           label=label)


def _require_stationary(sp):
    if not sp.stationary:
        raise NotStationaryError(
            f"gamma = {sp.gamma:.6g} >= 2*lam/3 = {2 * sp.lam / 3:.6g}")


def scalar_closed_moments(sp):
    """Stationary (q_inf, m3_inf, m4_inf) = (E[y^2], E[y^3], E[y^4])."""
    _require_stationary(sp)
    lam, alpha, beta, gamma = sp.lam, sp.alpha, sp.beta, sp.gamma
    q_inf = alpha / (2.0 * lam - gamma)
    m3_inf = 2.0 * beta / (lam - gamma) * q_inf
    m4_inf = 3.0 * (2.0 * lam - gamma) / (2.0 * lam - 3.0 * gamma) \
        * (1.0 + 4.0 * beta**2 / (alpha * (lam - gamma))) * q_inf**2
    return q_inf, m3_inf, m4_inf


def scalar_kurtosis(sp):
    """Stationary kurtosis of sigma^2: E[sigma^4]/(E[sigma^2])^2."""
    _require_stationary(sp)
    lam, alpha, beta, gamma = sp.lam, sp.alpha, sp.beta, sp.gamma
    return (2.0 * lam - gamma) / (2.0 * lam - 3.0 * gamma) * (
        (lam - gamma) / lam
        + (2.0 * lam - gamma) / (lam - gamma) * beta**2 / (lam * alpha))


def scalar_kurtosis_bounds(lam, gamma):
    """Range of the stationary kurtosis over admissible beta
    (beta^2 <= alpha*gamma); depends only on gamma/lam.  The lower end is
    attained at beta = 0, the upper at beta^2 = alpha*gamma."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if not gamma < 2.0 * lam / 3.0:
        raise NotStationaryError(
            f"gamma = {gamma:.6g} >= 2*lam/3 = {2 * lam / 3:.6g}")
    common = (2.0 * lam - gamma) / (2.0 * lam - 3.0 * gamma)
    return common * (lam - gamma) / lam, common * lam / (lam - gamma)


class PearsonIV:
    """Stationary law of the one-factor offset.

    Three branches, each with one way to evaluate pdf, cdf and ppf.  gamma
    -> 0 (the OU limit) is Gaussian.  beta = 0 is a Student t with
    2*lam/gamma + 1 degrees of freedom and scale sqrt(alpha/(2 lam + gamma))
    (stdtr, stdtrit).  Otherwise the angle theta = arctan((beta +
    gamma*y)/sqrt(delta)) has density proportional to cos(theta)^a *
    exp(nu*theta), a = 2 lam/gamma, whose integral over (-pi/2, pi/2) is
    pi Gamma(a+1) / (2^a |Gamma(1 + a/2 + i nu/2)|^2) (Heinrich 2004, "A
    guide to the Pearson type IV distribution"); the CDF is cached on a
    dense theta grid as a monotone spline, and ppf takes Newton steps on it
    from linear interpolation of the grid.
    """

    _GRID = 4096

    def __init__(self, sp):
        self.params = sp
        lam, alpha, beta, gamma = sp.lam, sp.alpha, sp.beta, sp.gamma
        # the branch: gaussian, student (beta = 0) or neither
        self.gaussian = gamma < 1e-12 * lam
        self.student = not self.gaussian and beta == 0.0
        if self.gaussian:
            if abs(beta) > 1e-8:
                raise ValueError("gamma ~ 0 requires beta = 0 (psd link)")
            self._sd = math.sqrt(alpha / (2.0 * lam))
            self.norm_const = 1.0 / (self._sd * math.sqrt(2.0 * math.pi))
            return
        delta = alpha * gamma - beta**2
        if delta <= 0:
            raise ValueError("alpha*gamma - beta^2 must be positive")
        self._sqd = math.sqrt(delta)
        self._a = a = 2.0 * lam / gamma
        self._nu = nu = 2.0 * lam * beta / (gamma * self._sqd)
        # log of the angle normalizer I = int cos(t)^a exp(nu t) dt
        self._log_i = (math.log(math.pi) + gammaln(a + 1.0)
                       - a * math.log(2.0)
                       - 2.0 * loggamma(complex(1.0 + 0.5 * a, 0.5 * nu)).real)
        # log C from  1 = C * (sqd/gamma) * (delta/gamma)^(-lam/gamma-1) * I
        self._log_c = -(math.log(self._sqd / gamma)
                        + (-lam / gamma - 1.0) * math.log(delta / gamma)
                        + self._log_i)
        self.norm_const = math.exp(self._log_c)
        if self.student:
            return
        # only this branch needs the trapezoid CDF and its spline; importing
        # them here keeps scipy.integrate and scipy.interpolate out of
        # `import qhr`
        from scipy import integrate, interpolate
        theta = np.linspace(-0.5 * math.pi, 0.5 * math.pi, self._GRID)
        cdf = integrate.cumulative_trapezoid(
            np.exp(self._theta_logpdf(theta)), theta, initial=0.0)
        cdf /= cdf[-1]
        self._theta_grid = theta
        self._cdf_grid = cdf
        # subnormal tail slopes overflow Pchip's harmonic mean to inf, and
        # the derivative it then takes, 1/inf = 0, is the right limit
        with np.errstate(over="ignore"):
            self._cdf_spline = interpolate.PchipInterpolator(theta, cdf)

    # -- coordinate maps ---------------------------------------------------
    def _theta_of_y(self, y):
        sp = self.params
        return np.arctan((sp.beta + sp.gamma * np.asarray(y, float))
                         / self._sqd)

    def _y_of_theta(self, theta):
        sp = self.params
        return (self._sqd * np.tan(theta) - sp.beta) / sp.gamma

    def _theta_logpdf(self, theta):
        """Log density of the angle variable."""
        out = np.full_like(np.asarray(theta, float), -np.inf)
        inside = np.abs(theta) < 0.5 * math.pi
        t = np.asarray(theta, float)[inside]
        out[inside] = self._a * np.log(np.cos(t)) + self._nu * t - self._log_i
        return out

    # -- public law --------------------------------------------------------
    def logpdf(self, y):
        y = np.asarray(y, dtype=float)
        sp = self.params
        if self.gaussian:
            out = (-(y / self._sd)**2 / 2.0 - np.log(np.sqrt(2 * np.pi))
                   - np.log(self._sd))
        else:
            sig2 = sp.alpha + 2.0 * sp.beta * y + sp.gamma * y * y
            out = self._log_c + (-sp.lam / sp.gamma - 1.0) * np.log(sig2) \
                + self._nu * self._theta_of_y(y)
        return float(out) if out.ndim == 0 else out

    def pdf(self, y):
        return np.exp(self.logpdf(y))

    def dlogpdf(self, y):
        """d/dy of logpdf; satisfies the Pearson differential equation
        p'/p = -2(beta + (lam + gamma) y) / sigma^2(y)."""
        y = np.asarray(y, dtype=float)
        sp = self.params
        if self.gaussian:
            out = -y / self._sd**2
        else:
            sig2 = sp.alpha + 2.0 * sp.beta * y + sp.gamma * y * y
            out = ((-sp.lam / sp.gamma - 1.0)
                   * (2.0 * sp.beta + 2.0 * sp.gamma * y) / sig2
                   + self._nu * (sp.gamma / self._sqd)
                   / (1.0 + ((sp.beta + sp.gamma * y) / self._sqd) ** 2))
        return float(out) if out.ndim == 0 else out

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        if self.gaussian:
            out = ndtr(y / self._sd)
        elif self.student:
            out = stdtr(self.student_df, y / self.student_scale)
        else:
            out = np.clip(self._cdf_spline(self._theta_of_y(y)), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    @property
    def student_scale(self):
        """Scale s with y/s Student-t distributed when beta = 0."""
        sp = self.params
        return math.sqrt(sp.alpha / (2.0 * sp.lam + sp.gamma))

    @property
    def student_df(self):
        sp = self.params
        return 2.0 * sp.lam / sp.gamma + 1.0

    def ppf(self, u):
        """Quantile function: NaN outside [0, 1], -inf at 0 and +inf at 1.
        beta = 0 maps exactly through the Student t (NaN where that
        quantile cannot be trusted, see _student_quantile); otherwise Newton
        steps on the CDF spline from linear interpolation of its grid."""
        u = np.asarray(u, dtype=float)
        if self.gaussian:
            out = ndtri(u) * self._sd
            return float(out) if u.ndim == 0 else out
        if self.student:
            out = _quantile_ends(u, self.student_scale
                                 * _student_quantile(self.student_df, u))
            return float(out) if u.ndim == 0 else out
        u1 = np.atleast_1d(u)
        uu = np.clip(u1, self._cdf_grid[1], self._cdf_grid[-2])
        theta = np.interp(uu, self._cdf_grid, self._theta_grid)
        lo, hi = self._theta_grid[1], self._theta_grid[-2]
        # the spline's own slope: in the tail cells the density differs from
        # it by a large factor, and Newton on the density's slope stalls
        for _ in range(4):
            slope = self._cdf_spline(theta, 1)
            step = (self._cdf_spline(theta) - uu) / np.maximum(slope, 1e-300)
            theta = np.clip(theta - step, lo, hi)
        out = _quantile_ends(u1, self._y_of_theta(theta))
        return float(out[0]) if np.ndim(u) == 0 else out

    def sample(self, n, seed):
        rng = np.random.default_rng(seed)
        if self.gaussian:
            return rng.normal(scale=self._sd, size=n)
        if self.student:
            return self.student_scale * rng.standard_t(self.student_df,
                                                       size=n)
        return self.ppf(rng.random(n))


def _student_quantile(df, u):
    """stdtrit(df, u), with NaN for 0 < u < 1 wherever that quantile is not
    finite or stdtr(df, q) misses u by more than 1e-6 relative.  scipy's
    stdtrit returns +inf at u = 1e-300 for df 3, 5 and 9, and at df 3 and
    u = 1e-200 a quantile whose stdtr is 8e-200."""
    q = stdtrit(df, u)
    trusted = np.isfinite(q) & (np.abs(stdtr(df, q) - u) <= 1e-6 * u)
    return np.where((u > 0.0) & (u < 1.0) & ~trusted, np.nan, q)


def _quantile_ends(u, out):
    """Set the quantiles at and beyond u = 0 and 1 as ndtri does: stdtrit
    returns +inf at u = 0, and the Newton quantile clips to its grid."""
    out = np.where(u == 0.0, -np.inf, np.where(u == 1.0, np.inf, out))
    return np.where((u < 0.0) | (u > 1.0), np.nan, out)

