"""Closed forms and the stationary law for the one-factor model.

For p = 1 the offset follows dy = -lam*y dt + sigma(y) dW with
sigma^2(y) = alpha + 2*beta*y + gamma*y^2.  Its stationary moments have
closed forms, the kurtosis of the instantaneous volatility admits explicit
bounds, and the stationary law itself is a Pearson type IV density

    p(y) = C * sigma^2(y)^(-lam/gamma - 1)
             * exp(nu * arctan((beta + gamma*y)/sqrt(delta))),

with delta = alpha*gamma - beta^2 > 0 and nu = 2*lam*beta/(gamma*sqrt(delta)).
beta = 0 is its nu = 0 member, a scaled Student t, and takes the same
evaluation; gamma -> 0 is the Gaussian limit.  Everything here doubles as
an analytic oracle for the general-p machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _scipy
from .model import ModelParams, validate
from .moments import NotStationaryError

_NODES = 24    # Gauss nodes of the Pearson IV tail rule
_DROP = 45.0   # drop of the log density across a tail window (e^-45)
_CHUNK = 4096  # points per block of the tail rule's (points x nodes) arrays


@dataclass(frozen=True)
class ScalarParams:
    """One-factor parameters of an admissible model: construction raises
    ValueError naming the clauses of model.validate the law fails (lam > 0,
    alpha > 0, beta^2 <= alpha*gamma, so gamma >= 0).  Stationary (through
    fourth moments) iff gamma < 2*lam/3."""

    lam: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("lam", "alpha", "beta", "gamma"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} is not finite")
        bad = validate(self.to_model_params())
        if bad:
            raise ValueError("inadmissible law: " + "; ".join(bad))

    @property
    def stationary(self):
        return self.gamma < 2.0 * self.lam / 3.0

    @classmethod
    def from_model_params(cls, params):
        """The law of a one-factor model's offset.  Its diffusion is
        b^2 sigma^2(y), so alpha, beta and gamma are each scaled by b^2;
        the kurtosis of sigma^2 does not change with that scale.  b = 0
        raises ValueError: the offset is then deterministic and has no
        Pearson IV law."""
        if params.p != 1:
            raise ValueError("scalar reduction requires p = 1")
        b2 = float(params.b[0]) ** 2
        if b2 == 0.0:
            raise ValueError("scalar reduction requires b != 0")
        return cls(lam=float(params.lam[0, 0]), alpha=params.alpha * b2,
                   beta=float(params.beta[0]) * b2,
                   gamma=float(params.gamma_mat[0, 0]) * b2)

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

    Two branches, each with one way to evaluate pdf, cdf and ppf.  gamma
    -> 0 (the OU limit) is Gaussian.  Otherwise the angle
    theta = arctan((beta + gamma*y)/sqrt(delta)) has density proportional
    to cos(theta)^a * exp(nu*theta), a = 2 lam/gamma; beta = 0 (nu = 0) is
    the Student t with 2*lam/gamma + 1 degrees of freedom and scale
    sqrt(alpha/(2 lam + gamma)), and takes the same rule.  In
    u = theta + pi/2 the log density a log sin u + nu u is concave: the
    mass of a tail, from the nearer end of (0, pi), is a fixed-node Gauss
    rule on a window across which it drops by _DROP (concavity bounds the
    rest), on the law mirrored by nu -> -nu above the mode.  The two tails
    at the mode give Z, the angle law's mass over its density at the mode:
    pdf is the log density relative to the mode less log Z, cdf divides a
    tail by Z and ppf takes Halley steps on its log.  ScalarParams admits
    no gamma < 0 beyond rounding (the Gaussian limit takes that); beta^2 =
    alpha*gamma (delta = 0, no angle map) raises ValueError here.
    """

    def __init__(self, sp):
        self.params = sp
        lam, alpha, beta, gamma = sp.lam, sp.alpha, sp.beta, sp.gamma
        self.gaussian = gamma < 1e-12 * lam
        if self.gaussian:
            if abs(beta) > 1e-8:
                raise ValueError("gamma ~ 0 requires beta = 0 (psd link)")
            self._sd = math.sqrt(alpha / (2.0 * lam))
            return
        delta = alpha * gamma - beta**2
        if delta <= 0:
            raise ValueError("alpha*gamma - beta^2 must be positive")
        self._sqd = math.sqrt(delta)
        self._a = a = 2.0 * lam / gamma
        self._nu = nu = 2.0 * lam * beta / (gamma * self._sqd)
        # the mode of u = theta + pi/2 is at cot u = -nu/a; the second rule
        # carries the weight u^(a mod 1) of windows that reach u = 0
        self._cot = -nu / a
        self._mode = math.atan2(1.0, self._cot)
        jacobi = _scipy("special").roots_jacobi
        self._rules = [(0.5 - 0.5 * x, np.log(0.5 * w) - b * np.log1p(x))
                       for b in (0.0, a % 1.0)
                       for x, w in [jacobi(_NODES, 0.0, b)]]
        lower, upper = self._log_tail(np.array(
            [self._mode, math.pi - self._mode]), np.array([1.0, -1.0]))[0]
        self._log_z = np.logaddexp(lower, upper)
        self._cdf_mode = math.exp(lower - self._log_z)
        # logpdf's constant: dtheta/dy = (gamma/sqd)/(1 + z^2), less log Z
        self._log_scale = math.log(gamma / self._sqd) - self._log_z

    def _log_tail(self, t, side):
        """(log m, psi) at distances t from the end of (0, pi), u below the
        mode (side 1) or pi - u above it (side -1): m is the mass from that
        end to t, psi the log density at t, both relative to the mode."""
        out, a = np.empty((2, t.size)), self._a
        for k in range(0, t.size, _CHUNK):
            tk, sk = t[k:k + _CHUNK, None], side[k:k + _CHUNK, None]
            c, top = sk * self._cot, np.where(sk > 0, self._mode,
                                              math.pi - self._mode)

            def rel(s, cot):  # psi(v - s) - psi(v) where cot v = cot
                h = np.sin(0.5 * s)
                return a * (np.log1p(-2.0 * h * (
                    h + cot * np.sqrt(1.0 - h * h))) + c * s)
            # log1p loses the ratio sin(t)/sin(top) where that is small
            ratio, cot = np.sin(tk) / np.sin(top), 1.0 / np.tan(tk)
            far = ratio < 0.5
            psi = np.where(far, a * (np.log(ratio) + c * (top - tk)),
                           rel(np.where(far, 0.0, top - tk), c))
            # the window of the local quadratic, then Newton on its drop,
            # convex in the width, so each step stays at or above the root;
            # one that passes 3/4 of t takes all of (0, t), u = 0 included
            g = a * (cot - c)
            span = 2.0 * _DROP / (g + np.hypot(g, np.sqrt(
                2.0 * _DROP * a) * np.hypot(1.0, cot)))
            for _ in range(2):
                span = np.minimum(span, 0.75 * tk)
                span += (rel(span, cot) + _DROP) / (a / np.tan(tk - span)
                                                    - a * c)
            whole = span >= 0.75 * tk
            span = np.where(whole, tk, span)
            nodes, logw = (np.where(whole, r1, r0)
                           for r0, r1 in zip(*self._rules))
            mass = (span * np.exp(logw + rel(span * nodes, cot))).sum(1)
            out[:, k:k + _CHUNK] = psi[:, 0] + np.log(mass), psi[:, 0]
        return out

    # -- public law --------------------------------------------------------
    def logpdf(self, y):
        """The Gaussian closed form, or else the angle law's log density
        relative to its mode, (a/2) log of cos^2 theta over cos^2 theta*
        and nu (theta - theta*), so that no term grows with a."""
        y = np.asarray(y, dtype=float)
        if self.gaussian:
            out = (-(y / self._sd)**2 / 2.0 - np.log(np.sqrt(2 * np.pi))
                   - np.log(self._sd))
        else:
            z, top = self._z(y), -self._cot
            out = (self._log_scale - np.log1p(z * z)
                   - 0.5 * self._a * np.log1p((z - top) * (z + top)
                                              / (1.0 + top * top)))
            if self._nu:  # 0 for beta = 0, where arctan2 is NaN at inf
                out = out + self._nu * np.arctan2(z - top, 1.0 + z * top)
        return float(out) if out.ndim == 0 else out

    def pdf(self, y):
        return np.exp(self.logpdf(y))

    def dlogpdf(self, y):
        """d/dy of logpdf; satisfies the Pearson differential equation
        p'/p = -2(beta + (lam + gamma) y) / sigma^2(y)."""
        y = np.asarray(y, dtype=float)
        if self.gaussian:
            out = -y / self._sd**2
        else:
            z = self._z(y)
            tail = np.isinf(z)  # the ratio, inf/inf there, tends to 0
            z = np.where(tail, 0.0, z)
            out = np.where(tail, 0.0, self.params.gamma / self._sqd * (
                self._nu - (self._a + 2.0) * z) / (1.0 + z * z))
        return float(out) if out.ndim == 0 else out

    def _z(self, y):
        """tan theta = (beta + gamma y)/sqrt(delta)."""
        return (self.params.beta + self.params.gamma * y) / self._sqd

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        if self.gaussian:
            out = _scipy("special").ndtr(y / self._sd)
        else:
            z = self._z(y)
            side = np.where(np.arctan2(1.0, -z) <= self._mode, 1.0, -1.0)
            m = np.exp(self._log_tail(np.maximum(np.arctan2(
                1.0, -side * z), 1e-300).ravel(), side.ravel())[0]
                - self._log_z).reshape(y.shape)
            out = np.where(side > 0, m, 1.0 - m)
        return float(out) if out.ndim == 0 else out

    def ppf(self, u):
        """Quantile function: NaN outside [0, 1], -inf at 0 and +inf at 1.
        Beyond the Gaussian limit, Halley steps, at most twice Newton's, on
        the log of the nearer tail, concave in t, from the Laplace quantile
        of that half of the law or its power-law tail; NaN if not within
        1e-5 in 40 steps."""
        u = np.asarray(u, dtype=float)
        if self.gaussian:
            out = _scipy("special").ndtri(u) * self._sd
        else:
            out = self._pearson_ppf(u.ravel()).reshape(u.shape)
        return float(out) if u.ndim == 0 else out

    def _pearson_ppf(self, u):
        a, inside = self._a, (u > 0.0) & (u < 1.0)
        side = np.where(u <= self._cdf_mode, 1.0, -1.0)
        top = np.where(side > 0, self._mode, math.pi - self._mode)
        tail = np.where(side > 0, u, 1.0 - u)
        share = np.where(inside, tail, 0.5) / np.where(
            side > 0, self._cdf_mode, 1.0 - self._cdf_mode)
        t = top + np.sin(top) / math.sqrt(a) * _scipy("special").ndtri(
            0.5 * share)
        t = np.where(t > 0.0, t, top * share ** (1.0 / (a + 1.0)))
        todo = np.flatnonzero(inside)
        for _ in range(40):
            if not todo.size:
                break
            tt, st = t[todo], side[todo]
            log_m, psi = self._log_tail(tt, st)
            f = log_m - np.log(tail[todo]) - self._log_z
            slope = np.exp(psi - log_m)
            bend = a * (1.0 / np.tan(tt) - st * self._cot) / slope - 1.0
            tt -= f / slope / np.maximum(1.0 - 0.5 * f * bend, 0.5)
            # a step past 0 is a Newton step in log t instead, where the
            # tail is the power t^(a+1): from a Laplace start, a far tail
            # can miss by e^190, more than 40 halvings of t make up
            t[todo] = np.minimum(np.where(tt > 0.0, tt, t[todo] * np.exp(
                -f / (t[todo] * slope))), top[todo])
            todo = todo[np.abs(f) > 1e-5]
        t[todo] = np.nan
        y = (-side * self._sqd / np.tan(t) - self.params.beta) \
            / self.params.gamma
        y = np.where(u == 0.0, -np.inf, np.where(u == 1.0, np.inf, y))
        return np.where((u >= 0.0) & (u <= 1.0), y, np.nan)

    def sample(self, n, seed):
        return self.ppf(np.random.default_rng(seed).random(n))
