"""Dense linear algebra substrate.

Matrix exponentials and their action on vectors, Lyapunov solves and
eigenvalue extraction.  Everything here is plain dense numpy and scipy; the
state dimension is capped so the largest matrix stays at desk scale.  The
matrix exponential is qhr's own scaling-and-squaring Pade (13, 13) for one
matrix.  A move through time, e^{a t} v over a grid of horizons, is an
ExpmAction: one Pade exponential of a h, its squarings shared by the grid
and vector products per horizon, O(n^2) per horizon where a matrix per
horizon costs O(n^3).  scipy supplies the Lyapunov solve.  qhr imports
each scipy submodule on its first use, through _scipy, so that importing
qhr loads numpy alone.

BLAS runs on one thread.  Every matrix here has at most 209 rows (the
moment system at DIM_CAP), where a BLAS thread pool costs more in hand-offs
than it saves in arithmetic, and the Monte Carlo engine already runs its
own worker threads (QHR_THREADS), under which a second pool only competes
for the same cores.  One thread also makes every result independent of the
BLAS thread count.  So importing this module sets each OpenBLAS the process
has loaded to one thread, through the library's own entry point (see
_pin_blas_threads), and the first use of each scipy submodule does so again,
because scipy may map an OpenBLAS of its own.  It is not an option: to undo
it, call the library's own set_num_threads after qhr's first command.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import math

import numpy as np

# Largest supported offset dimension p.  The moment system on the
# symmetric subspace has C(p+4, 4) - 1 rows: 209 at the cap, 329 at p = 7,
# 494 at p = 8.  Measured on a 2-core machine (median of three runs of
# seven, rank-one cascades), one build, a system's first conditional_moments
# call (one Pade exponential of all rows and its squarings) and one pca take
# 8-11, 6-8 and 0.8-1.2 ms at p = 6; 21-30, 21-23 and 1.2-1.7 ms at p = 7;
# and 61-71, 54-58 and 2.1-2.4 ms at p = 8 with the cap raised.  A later
# call on the same system from a new start takes 0.3, 0.7 and 1.5 ms.
DIM_CAP = 6

# OpenBLAS's thread setters, by build: plain, ILP64 (64_ suffix) and the
# scipy-openblas wheels' prefixed symbols.  A library exports one of them.
_BLAS_SET_THREADS = ("openblas_set_num_threads",
                     "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "scipy_openblas_set_num_threads64_")


def _pin_blas_threads():
    """Set every OpenBLAS loaded in this process to one thread.

    The libraries are those mapped into the process whose path contains
    "openblas" (/proc/self/maps); each gets the first setter of
    _BLAS_SET_THREADS it exports, called with 1.  An environment variable
    could not do this: numpy, and its OpenBLAS, is usually loaded before
    qhr.  Where there is no /proc, no OpenBLAS or no setter, this does
    nothing and raises nothing."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[5].strip() for line in maps
                     if "openblas" in line}
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                setter(1)
                break


_pin_blas_threads()


@functools.cache
def _scipy(name):
    """The submodule scipy.<name>, imported on its first use, after which
    every OpenBLAS in the process, scipy's own included, is pinned to one
    thread again (_pin_blas_threads)."""
    module = importlib.import_module(f"scipy.{name}")
    _pin_blas_threads()
    return module


class DimensionCapError(ValueError):
    """State dimension too large for the dense moment machinery."""


class UnstableError(ValueError):
    """An operator expected to be stable (positive real spectrum) is not."""


def expm(a):
    """Matrix exponential e^a, by scaling and squaring on the (13, 13) Pade
    approximant (Higham 2005, "The scaling and squaring method for the
    matrix exponential revisited").  Handles non-diagonalizable input;
    raises OverflowError when the result is not finite."""
    x = np.asarray(a, dtype=float)
    norm = np.abs(x).sum(axis=0).max()
    if not norm < np.inf:
        raise OverflowError("matrix exponential of a non-finite matrix")
    s = max(math.frexp(norm / _THETA13)[1], 0)
    r = _pade13(x * math.ldexp(1.0, -s))
    for _ in range(s):
        r = r @ r
    if not np.isfinite(r).all():
        raise OverflowError("matrix exponential overflowed")
    return r


# theta_13 of Higham 2005, Table 2.3: the largest 1-norm of x for which
# the (13, 13) approximant is accurate to unit roundoff.
_THETA13 = 5.371920351148152

# Pade coefficients c_k = C(13, k) / (26! / (26 - k)!), normalised to
# c_0 = 1 so that zero and nilpotent input give exact results.
_C = [math.comb(13, k) / math.perm(26, k) for k in range(14)]

# The approximant is (V - U)^-1 (V + U) with U = x (x6 W1 + W2) and
# V = x6 Z1 + Z2.  Row j of _EVEN holds the coefficients of x2, x4, x6 and
# I in the even polynomials W1, Z1, W2 and Z2.
_EVEN = np.array([[_C[9], _C[11], _C[13], 0.0],
                  [_C[8], _C[10], _C[12], 0.0],
                  [_C[3], _C[5], _C[7], _C[1]],
                  [_C[2], _C[4], _C[6], _C[0]]])


def _pade13(x):
    """The (13, 13) Pade approximant of e^x for one matrix."""
    n = x.shape[0]
    powers = np.zeros((4, n, n))
    powers.reshape(4 * n * n)[3 * n * n::n + 1] = 1.0  # identity
    x2 = np.matmul(x, x, out=powers[0])
    x4 = np.matmul(x2, x2, out=powers[1])
    x6 = np.matmul(x4, x2, out=powers[2])
    # one (4, 4) by (4, n^2) product gives W1, Z1, W2 and Z2
    even = (_EVEN @ powers.reshape(4, n * n)).reshape(4, n, n)
    uv = x6 @ even[:2]
    uv += even[2:]
    u = x @ uv[0]
    v = uv[1]
    return np.linalg.solve(v - u, v + u)


# ExpmAction's step bound |a h|_1 <= _THETA and the degree of its Taylor
# block.  The remainder |r| <= h / 2 keeps |a r|_1 <= 2, where the degree
# 24 Taylor polynomial is accurate to 2^25 / 25! < 3e-18 relative.  Chosen
# against 50-digit references (tests/highprec_reference.py): a bound of 2
# takes one more squaring, which cost the far end of psi (60 slowest decay
# times out) up to twice the error.
_THETA = 4.0
_DEGREE = 24
_ORDERS = np.arange(1.0, _DEGREE + 1)
# 2^-j for every bit j of a finite double n = t / h
_HALVES = 0.5 ** np.arange(1024)


def horizons(s):
    """s as floats, a scalar or a 1-D array of horizons 0 <= s < inf: the
    one horizon check of every propagator.  ValueError names the first bad
    horizon."""
    s = np.asarray(s, dtype=float)
    if s.ndim > 1:
        raise ValueError("horizons must be a scalar or a 1-D array")
    ok = (s >= 0) & (s < np.inf)
    if not ok.all():
        raise ValueError(f"horizon must be finite and >= 0, got s={s[~ok][0]}")
    return s


class ExpmAction:
    """The action t -> e^{a t} v of one square matrix a on a vector v
    (Al-Mohy & Higham 2011, "Computing the action of the matrix
    exponential"), at a horizon t >= 0 or over a 1-D grid of them.

    A step h = 2^-k is fixed from |a|_1 alone, the largest with
    |a h|_1 <= _THETA, so no row depends on the rest of the grid.  A
    horizon t = n h + r, n = rint(t / h), takes e^{a r} v =
    sum_k (r/h)^k / k! (a h)^k v, k <= _DEGREE, from the Taylor block
    [(a h)^k v] of v, then applies E_j = e^{a h 2^j} for each set bit j of
    n, in ascending j.  E_0 is one Pade exponential of a h and
    E_{j+1} = E_j^2.  The E_j and the Taylor block of the last vector are
    kept, so a later call pays only the vector products.  Every product is
    row-wise ((N, 1, n) @ (n, n)), so row i of a grid equals the
    single-horizon call at t_i bit for bit.  t is checked by horizons()
    first; a result that is not finite raises OverflowError naming the
    first such t."""

    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        norm = float(np.abs(a).sum(axis=0).max())
        self._step = math.ldexp(1.0, -math.frexp(norm / _THETA)[1])
        # rows are propagated as w' <- w' x, x = (a h)'
        self._x = np.ascontiguousarray((a * self._step).T)
        self._powers = ()
        self._taylor = (None, None)

    def __call__(self, v, t):
        v = np.asarray(v, dtype=float).reshape(-1)
        t = horizons(t)
        times = t.reshape(-1)
        q = times / self._step
        n = np.rint(q)
        top = n.max() if n.size else 0.0
        # coefficients rho^k / k!, rho = r / h in [-1/2, 1/2]
        coef = np.empty((times.size, 1, _DEGREE + 1))
        coef[..., 0] = 1.0
        np.divide((q - n)[:, None, None], _ORDERS, out=coef[..., 1:])
        w = np.cumprod(coef, axis=-1, out=coef) @ self._block(v)
        top = math.frexp(top)[1]
        if top:
            powers = self._ladder(top)
            # bit j of n is f - 2 floor(f / 2), f = floor(n / 2^j), exactly
            shifted = np.floor(np.multiply.outer(n, _HALVES[:top]))
            bits = shifted != 2.0 * np.floor(0.5 * shifted)
            for j, count in enumerate(bits.sum(axis=0).tolist()):
                if count == n.size:
                    w = w @ powers[j]
                elif count:
                    rows = bits[:, j]
                    w[rows] = w[rows] @ powers[j]
        if not np.isfinite(w).all():
            bad = np.flatnonzero(~np.isfinite(w).all(axis=(1, 2)))[0]
            raise OverflowError(f"matrix exponential overflowed at "
                                f"t={times[bad]}")
        return w.reshape(t.shape + v.shape)

    def _block(self, v):
        """The Taylor block of v: row k is (a h)^k v, as a row."""
        key = v.tobytes()
        last, block = self._taylor
        if key != last:
            block = np.empty((_DEGREE + 1, v.size))
            block[0] = v
            for k in range(_DEGREE):
                np.dot(block[k], self._x, out=block[k + 1])
            self._taylor = (key, block)
        return block

    def _ladder(self, top):
        """(E_0', ..., E_{top-1}'), extending the kept ones by squaring.
        Each call rebinds a complete tuple, so concurrent callers see a
        prefix of one and the same sequence."""
        powers = self._powers
        if len(powers) < top:
            powers = list(powers) or [expm(self._x)]
            while len(powers) < top:
                powers.append(powers[-1] @ powers[-1])
            self._powers = powers = tuple(powers)
        return powers


def eigenvalues(a):
    """All eigenvalues ordered by ascending real part (then imaginary)."""
    vals = np.linalg.eigvals(np.atleast_2d(np.asarray(a, dtype=float)))
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


# solve_lyapunov's bound on its residual, relative to |g g'|
_LYAP_RTOL = 1e-9


def solve_lyapunov(a_tilde, g):
    """Solve a_tilde' F + F a_tilde = g g' for the symmetric psd F.

    F is the accumulated outer product of the decaying loading curve
    psi(t) = exp(-a_tilde t)' g, so a_tilde must have eigenvalues with
    strictly positive real part.  Solved by Bartels-Stewart
    (scipy.linalg.solve_continuous_lyapunov); a residual above _LYAP_RTOL
    times |g g'| raises ArithmeticError.
    """
    a_tilde = np.atleast_2d(np.asarray(a_tilde, dtype=float))
    g = np.asarray(g, dtype=float).reshape(-1)
    if np.min(np.linalg.eigvals(a_tilde).real) <= 0:
        raise UnstableError("a_tilde must have strictly positive real spectrum")
    rhs = np.outer(g, g)
    f = _scipy("linalg").solve_continuous_lyapunov(a_tilde.T, rhs)
    f = 0.5 * (f + f.T)
    resid = np.linalg.norm(a_tilde.T @ f + f @ a_tilde - rhs)
    scale = max(np.linalg.norm(rhs), np.finfo(float).tiny)
    if resid > _LYAP_RTOL * scale:
        raise ArithmeticError(f"Lyapunov residual {resid:.3e} too large")
    return f
