"""Independent references and output checks.

Every reference here is computed apart from qhr, from the model parameters
alone (numpy, scipy.linalg and scipy.special), or is a property the method
must have.  Nothing is compared against stored output.  Each check returns
``(ok, detail)``; the worker counts one operation per statistical check and
folds exact checks into the operation whose output they test.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.special import ndtr

# Half-width of every Monte Carlo band, in standard errors.  At 5 a correct
# program fails one check in about 1.7 million.
Z = 5.0
# Relative price error allowed when a finite implied vol is repriced.
IVOL_RTOL = 1e-6
# Pathwise identities (parity, monotone and convex calls) hold up to rounding.
PATH_TOL = 1e-12


# ---------------------------------------------------------------------------
# references


def bs_call(strike, maturity, vol):
    """Black-Scholes call with S0 = 1 and zero rates, on scipy.special.ndtr."""
    k = np.asarray(strike, dtype=float)
    sq = vol * math.sqrt(maturity)
    d1 = -np.log(k) / sq + 0.5 * sq
    return ndtr(d1) - k * ndtr(d1 - sq)


def bs_vega(strike, maturity, vol):
    sq = vol * math.sqrt(maturity)
    d1 = -math.log(strike) / sq + 0.5 * sq
    return math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi) * math.sqrt(maturity)


def stationary_variance(lam, b, alpha, gamma):
    """sigma^2_infty = alpha / (1 - tr(Gamma Q1)) with
    Lambda Q1 + Q1 Lambda' = b b' (Bartels-Stewart)."""
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    q1 = scipy.linalg.solve_continuous_lyapunov(lam, np.outer(b, b))
    return alpha / (1.0 - float(np.trace(np.asarray(gamma, float) @ q1)))


def scalar_closed_forms(lam, alpha, beta, gamma):
    """One-factor stationary moments from the moment recursions.

    E[y] = 0; 2 lam m2 = alpha + gamma m2; (lam - gamma) m3 = 2 beta m2;
    (4 lam - 6 gamma) m4 = 6 (alpha m2 + 2 beta m3).  Returns
    (m2, m3, m4, sigma2_infty, kurtosis of sigma^2)."""
    m2 = alpha / (2.0 * lam - gamma)
    m3 = 2.0 * beta * m2 / (lam - gamma)
    m4 = 6.0 * (alpha * m2 + 2.0 * beta * m3) / (4.0 * lam - 6.0 * gamma)
    s2 = alpha + gamma * m2
    s4 = (alpha * alpha + 4.0 * beta * beta * m2 + gamma * gamma * m4
          + 2.0 * alpha * gamma * m2 + 4.0 * beta * gamma * m3)
    return m2, m3, m4, s2, s4 / (s2 * s2)


def variance_floor(alpha, beta, gamma):
    """min over y of alpha + 2 beta'y + y'Gamma y = alpha - beta' Gamma^+ beta."""
    beta = np.asarray(beta, dtype=float).reshape(-1)
    gp = np.linalg.pinv(np.atleast_2d(np.asarray(gamma, float)), rcond=1e-10)
    return float(alpha - beta @ gp @ beta)


def rank_one_floor(alpha, beta0, gamma0):
    """alpha - beta0^2 / gamma0 for beta = beta0 w, Gamma = gamma0 w w'."""
    return alpha - beta0 * beta0 / gamma0


def variance_at(alpha, beta, gamma, y):
    y = np.asarray(y, dtype=float).reshape(-1)
    return float(alpha + 2.0 * np.asarray(beta, float) @ y
                 + y @ np.asarray(gamma, float) @ y)


def slowest_rate(lam, b, gamma):
    """Smallest real part among the eigenvalues of Lambda and of the
    second-moment operator Lambda (+) Lambda - vec-outer(b (x) b, Gamma),
    the decay rates of the forward curve."""
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    p = lam.shape[0]
    a22 = (np.kron(np.eye(p), lam) + np.kron(lam, np.eye(p))
           - np.outer(np.kron(b, b),
                      np.asarray(gamma, float).reshape(-1, order="F")))
    return min(np.linalg.eigvals(lam).real.min(),
               np.linalg.eigvals(a22).real.min())


# ---------------------------------------------------------------------------
# checks


def close(value, ref, rtol, atol=0.0):
    value, ref = float(value), float(ref)
    ok = abs(value - ref) <= rtol * abs(ref) + atol
    return ok, f"{value!r} vs {ref!r} (rtol {rtol:g})"


def zband(mean, se, target, floor=1e-14):
    mean, se, target = float(mean), float(se), float(target)
    ok = abs(mean - target) <= Z * se + floor
    z = (mean - target) / se if se > 0 else float("inf")
    return ok, f"{mean!r} vs {target!r}, z = {z:+.2f}"


def node_ivol(call, put, strike, maturity, vol):
    """One surface node.  A finite vol must reprice the call with the ndtr
    Black-Scholes to IVOL_RTOL.  A NaN is allowed only where the
    out-of-the-money price (put for K < 1, call otherwise) is at or outside
    its static bounds; otherwise the node could have been inverted."""
    if math.isnan(vol):
        if strike < 1.0:
            inside = 0.0 < put < strike
        else:
            inside = 0.0 < call < 1.0
        otm = float(put if strike < 1.0 else call)
        return (not inside, f"NaN vol although the out-of-the-money price "
                            f"{otm!r} is inside its bounds")
    back = float(bs_call(strike, maturity, vol))
    return close(back, call, IVOL_RTOL)


def call_shape(strikes, calls):
    """Calls on common paths are non-increasing and convex in K, with
    slopes in [-1, 0]."""
    k = np.asarray(strikes, dtype=float)
    c = np.asarray(calls, dtype=float)
    slope = np.diff(c) / np.diff(k)
    ok = (np.all(slope <= PATH_TOL) and np.all(slope >= -1.0 - PATH_TOL)
          and np.all(np.diff(slope) >= -PATH_TOL * np.maximum(1.0, np.abs(slope[1:]))))
    return bool(ok), f"slopes {slope.tolist()}"


def parity(calls, puts, strikes, forward_se):
    """C - P - (1 - K) equals the forward's error; within the band of 1."""
    gap = np.asarray(calls) - np.asarray(puts) - (1.0 - np.asarray(strikes))
    worst = float(np.abs(gap).max())
    return worst <= Z * forward_se + PATH_TOL, f"max gap {worst:.3e}, se {forward_se:.3e}"


def flat_vol_band(vol, call_se, strike, maturity, sigma):
    """A flat-vol model's implied vol equals sigma within the price band
    mapped through vega."""
    band = Z * call_se / bs_vega(strike, maturity, sigma) + 1e-12
    return abs(vol - sigma) <= band, f"{vol!r} vs {sigma!r}, band {band:.2e}"


def trapezoid_mass(ys, pdf):
    ys = np.asarray(ys, float)
    pdf = np.asarray(pdf, float)
    return float(np.sum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(ys)))


# ---------------------------------------------------------------------------
# CLI output parsing


def parse_csv(text):
    """(comment lines, header, rows as float arrays) of a qhr CSV report."""
    comments, body = [], []
    for line in text.splitlines():
        (comments if line.startswith("#") else body).append(line)
    header = body[0].split(",")
    rows = [line.split(",") for line in body[1:] if line]
    return comments, header, rows


def table(text):
    """Numeric columns of a CSV report keyed by header name."""
    _, header, rows = parse_csv(text)
    cols = {}
    for j, name in enumerate(header):
        try:
            cols[name] = np.array([float(r[j]) for r in rows])
        except ValueError:
            cols[name] = [r[j] for r in rows]
    return cols
