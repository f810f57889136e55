"""European option pricing on simulated paths and implied-vol surfaces.

Prices are computed in discounted coordinates with S0 = 1 and zero rates
(the log price x carries the -sigma^2/2 drift already), so a call is just
E[(e^{x_T} - K)+] and 1-homogeneity recovers any other spot.  One path
batch prices every (maturity, strike) node: maturities are snapshots of the
same trajectories, which makes smile and term-structure differences much
less noisy than independent runs would be.  The paths are reduced as they
are simulated (mc.stream into mc.BlockStats), so pricing keeps no path
snapshots and its memory does not grow with the number of maturities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import mc
from .linalg import _scipy

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
# implied_vol's relative tolerance on the time value, and its vol bracket
_IVOL_TOL = 1e-10
_IVOL_BRACKET = (1e-6, 5.0)


class OutOfBoundsError(ValueError):
    """Price outside (or on) the no-arbitrage bounds; boundary says which."""

    def __init__(self, message, boundary):
        super().__init__(message)
        self.boundary = boundary


class MissingNodesError(ValueError):
    """Surface lacks the log-moneyness nodes needed for the request."""


def bs_price(strike, maturity, vol, side="call"):
    """Black-Scholes price with S0 = 1 and zero rates."""
    k = np.asarray(strike, dtype=float)
    intrinsic_call = np.maximum(1.0 - k, 0.0)
    sq = vol * math.sqrt(maturity)
    if sq <= 0:
        call = intrinsic_call
    else:
        d1 = -np.log(k) / sq + 0.5 * sq
        ndtr = _scipy("special").ndtr
        call = ndtr(d1) - k * ndtr(d1 - sq)
    if side == "call":
        out = call
    elif side == "put":
        out = call - 1.0 + k
    else:
        raise ValueError("side must be 'call' or 'put'")
    return float(out) if np.ndim(strike) == 0 else out


def bs_vega(strike, maturity, vol):
    sq = vol * math.sqrt(maturity)
    d1 = -math.log(strike) / sq + 0.5 * sq
    return np.exp(-(d1 * d1) / 2.0) / _SQRT_2PI * math.sqrt(maturity)


def implied_vol(price, strike, maturity):
    """Invert the call price for volatility.

    Safeguarded Newton on vega with bisection fallback inside the bracket
    _IVOL_BRACKET; terminates when the repriced error is below _IVOL_TOL
    relative to the time value C - (1-K)+ (the out-of-the-money price), or
    no larger than the rounding of the call's leading term N(d1), whose
    argument's own rounding is amplified by about d1^2 in the tails.  An
    absolute tolerance would accept the bracket floor for any deep
    out-of-the-money price below it.  Prices at or outside the static
    bounds (1-K)+ < C < 1, or whose volatility escapes the bracket, raise
    OutOfBoundsError with boundary 'lower' or 'upper'; so do two prices
    that do not determine a vol ('lower'): a time value within the rounding
    of the price (at most 4 eps C), and a subnormal price (below
    np.finfo(float).tiny), which carries fewer significant bits than the
    tolerance needs."""
    if maturity <= 0 or strike <= 0:
        raise ValueError("maturity and strike must be positive")
    intrinsic = max(1.0 - strike, 0.0)
    if price - intrinsic <= 4.0 * _EPS * price:
        raise OutOfBoundsError(
            f"price {price} at/below intrinsic {intrinsic} to rounding",
            "lower")
    if price < _TINY:
        raise OutOfBoundsError(f"price {price} is subnormal", "lower")
    if price >= 1.0:
        raise OutOfBoundsError(f"price {price} at/above forward 1", "upper")
    time_value = price - intrinsic
    ndtr = _scipy("special").ndtr

    def converged(v, err):
        sq = v * math.sqrt(maturity)
        d1 = -math.log(strike) / sq + 0.5 * sq
        return err <= max(_IVOL_TOL * time_value,
                          4.0 * _EPS * (1.0 + d1 * d1) * ndtr(d1))

    lo, hi = _IVOL_BRACKET
    if bs_price(strike, maturity, lo) - price >= 0:
        raise OutOfBoundsError("volatility below bracket", "lower")
    if bs_price(strike, maturity, hi) - price <= 0:
        raise OutOfBoundsError("volatility above bracket", "upper")
    # ATM-style starting guess, clamped into the bracket
    v = min(max(math.sqrt(2.0 * math.pi / maturity) * price, 1.01 * lo),
            0.99 * hi)
    f = bs_price(strike, maturity, v) - price
    best_v, best_f = v, abs(f)
    for _ in range(100):
        if f == 0.0:
            return v
        if f < 0:
            lo = v
        else:
            hi = v
        vega = bs_vega(strike, maturity, v)
        if vega > 1e-14:
            v_new = v - f / vega
        else:
            v_new = 0.5 * (lo + hi)
        if not lo < v_new < hi:
            v_new = 0.5 * (lo + hi)
        if v_new == v:
            break
        v = v_new
        f = bs_price(strike, maturity, v) - price
        if abs(f) < best_f:
            best_v, best_f = v, abs(f)
        elif converged(best_v, best_f):
            break  # further steps only churn rounding noise
    if converged(best_v, best_f):
        return best_v
    raise ArithmeticError(
        f"implied vol did not converge (residual {best_f:.2e})")


@dataclass(frozen=True)
class OptionGrid:
    """Strike/maturity layout.  log_moneyness entries are log(K) (spot 1),
    the same at every maturity; each strike np.exp(ell) must be a positive
    finite float (ConfigInvalidError otherwise, before any path runs)."""

    maturities: tuple
    log_moneyness: tuple

    def __post_init__(self):
        mats = tuple(float(t) for t in self.maturities)
        ells = tuple(float(x) for x in self.log_moneyness)
        if not mats or any(t <= 0 for t in mats):
            raise ValueError("maturities must be positive and non-empty")
        if not ells:
            raise ValueError("log_moneyness must be non-empty")
        with np.errstate(over="ignore"):
            strikes = np.exp(ells)
        for ell, k in zip(ells, strikes):
            if not 0.0 < k < math.inf:
                raise mc.ConfigInvalidError(
                    f"log_moneyness {ell} gives strike np.exp(ell) = {k}, "
                    "not a positive finite number")
        object.__setattr__(self, "maturities", mats)
        object.__setattr__(self, "log_moneyness", ells)


@dataclass
class SmileSurface:
    """Per-node MC prices (call and put from the same paths), the forward
    (martingale) check per maturity, optionally implied vols, the
    floored variance steps of the paths, and the mc.BurnIn behind a
    stationary start (None otherwise), as in mc.PathBatch.

    ell is the grid's one (nL,) row of log strikes, shared by every
    maturity; node (i, j) is maturity i at strike K_j = np.exp(ell)[j], the
    strike its payoffs, implied vol and parity gap all use."""

    maturities: np.ndarray            # (nT,) actual (grid-snapped) maturities
    ell: np.ndarray                   # (nL,) log strikes
    call_price: np.ndarray
    call_se: np.ndarray
    put_price: np.ndarray
    put_se: np.ndarray
    forward_mean: np.ndarray
    forward_se: np.ndarray
    seed: int
    n_paths: int
    ivol: np.ndarray = None
    floored_steps: int = 0
    burn_in: mc.BurnIn = None

    def parity_gap(self):
        """call - put - (1 - K) per node; zero in exact arithmetic."""
        return self.call_price - self.put_price - (1.0 - np.exp(self.ell))


def price_options(params, grid, cfg):
    """Monte Carlo prices on the grid from one common set of trajectories.

    The paths start from cfg.y0, as in mc.simulate; the simulation horizon
    is the largest maturity (cfg.horizon is not read) and every maturity
    is a snapshot of the same paths.  No snapshot is stored: each worker
    thread folds e^x and the payoffs of its own paths into mc.BlockStats
    as it reaches a maturity, one strike at a time in one reusable buffer.
    The prices and errors are the bits that PathBatch.mean_se gives on
    the stored snapshots, at any thread count.  Each maturity must be
    finite and snap (by mc's rule) to step 1 or later."""
    mats = np.asarray(grid.maturities, dtype=float)
    for t in mats:
        mc._step(t, cfg.steps_per_year, "maturity", 1)
    cfg = replace(cfg, horizon=float(mats.max()))
    times = mc.snapshot_times(cfg, mats)
    rows = [mc.time_index(times, t, cfg.steps_per_year) for t in mats]
    ells = np.asarray(grid.log_moneyness, dtype=float)
    strikes = np.exp(ells)
    n_l = strikes.size
    # per snapshot row: the calls, the puts, then the forward
    stats = mc.BlockStats((times.size, 2 * n_l + 1), cfg.n_paths,
                          cfg.antithetic)

    def fold(row, lo, x, y, ivar):
        ex = np.exp(x)
        payoff = np.empty_like(ex)
        for j, k in enumerate(strikes):
            np.subtract(ex, k, out=payoff)
            np.maximum(payoff, 0.0, out=payoff)
            stats.add((row, j), lo, payoff)
            np.subtract(k, ex, out=payoff)
            np.maximum(payoff, 0.0, out=payoff)
            stats.add((row, n_l + j), lo, payoff)
        stats.add((row, 2 * n_l), lo, ex)

    floored, burn_in = mc.stream(params, cfg, mats, fold)
    mean, se = stats.result()
    mean, se = mean[rows], se[rows]
    return SmileSurface(maturities=times[rows],
                        ell=ells,
                        call_price=mean[:, :n_l], call_se=se[:, :n_l],
                        put_price=mean[:, n_l:-1], put_se=se[:, n_l:-1],
                        forward_mean=mean[:, -1], forward_se=se[:, -1],
                        seed=cfg.seed, n_paths=cfg.n_paths,
                        floored_steps=floored, burn_in=burn_in)


def with_implied_vols(surface):
    """Fill per-node implied vols from the call prices; nodes outside the
    no-arbitrage bounds become NaN."""
    iv = np.full(surface.call_price.shape, np.nan)
    strikes = np.exp(surface.ell).tolist()
    for i, t in enumerate(surface.maturities):
        for j, k in enumerate(strikes):
            try:
                iv[i, j] = implied_vol(surface.call_price[i, j], k, t)
            except OutOfBoundsError:
                pass
    return replace(surface, ivol=iv)


def check_atm_eps(eps):
    """Raise ValueError unless the strikes e^-|eps|, 1 and e^|eps| of the
    ATM skew, taken by the strike rule K = np.exp(ell), are positive,
    finite and distinct (so eps itself is finite)."""
    with np.errstate(over="ignore"):
        dn, atm, up = np.exp([-abs(eps), 0.0, abs(eps)])
    if not 0.0 < dn < atm < up < math.inf:
        raise ValueError(f"eps = {eps:.6g} does not separate the strikes "
                         "e^-eps, 1 and e^eps")


def atm_term_structures(surface, eps=0.01):
    """ATM vol and central-difference ATM skew per maturity.

    Requires log-moneyness nodes at 0 and +-eps (common random numbers make
    the difference quotient stable), and an eps that check_atm_eps accepts.
    Each is the nearest node of the row, accepted within min(1e-9, |eps|/4)
    so that the three columns differ."""
    check_atm_eps(eps)
    if surface.ivol is None:
        surface = with_implied_vols(surface)
    targets = np.array([0.0, eps, -eps])
    dist = np.abs(surface.ell - targets[:, None])
    cols = dist.argmin(axis=1)
    for target, d in zip(targets, dist.min(axis=1)):
        if not d <= min(1e-9, abs(eps) / 4.0):
            raise MissingNodesError(f"no node at log-moneyness {target:.6g}")
    vols = surface.ivol[:, cols]
    undefined = np.isnan(vols).any(axis=1)
    if undefined.any():
        raise MissingNodesError(
            f"implied vol undefined at an ATM node for maturity "
            f"{surface.maturities[undefined.argmax()]:.6g}")
    atm, up, dn = vols.T
    return atm, (up - dn) / (2.0 * eps)
