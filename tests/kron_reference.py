"""The Kronecker construction of the moment system, kept as the reference.

qhr builds the moment matrix on the symmetric subspace S straight from the
generator.  Before that it built the p^k x p^k Kronecker operators and
stacked the full (p + p^2 + p^3 + p^4)-row matrix A; build_kron_operators
and full_system below are that construction, verbatim apart from reading
the parameters.  The tests hold the generator against it: A D = D A_sym,
with D the duplication map of the stacked orbits.  symmetric_orbits and
stacked_orbits map between the stacked layout and S, whose coordinates
are the orbits of index tuples under permutation.
"""

from dataclasses import dataclass

import numpy as np

from qhr.linalg import DIM_CAP, DimensionCapError


@dataclass(frozen=True)
class KronOperatorSet:
    """Nested Kronecker operators for moment orders k = 1..4.

    lambda_k[k-1] is p^k x p^k, c_k[k-1] is p^k x p^(k-1) and, for k >= 2,
    b_k[k-1] is p^k x p^(k-2).  The order-1 B operator is degenerate (zero)
    and stored as None.
    """

    p: int
    lambda_k: tuple
    b_k: tuple
    c_k: tuple


def build_kron_operators(lam, b, order=4, dim_cap=DIM_CAP):
    """Build the operator family by the defining recursions.

    lambda_(k+1) = I_p (x) lambda_(k) + lam (x) I_(p^k)
    c_(1) = b,        c_(k+1) = I_p (x) c_(k) + b (x) I_(p^k)
    b_(2) = b (x) b,  b_(k+1) = I_p (x) b_(k) + b (x) c_(k)   (k >= 2)
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    p = lam.shape[0]
    if lam.shape != (p, p) or b.shape != (p,):
        raise ValueError("lam must be p x p and b length p")
    if p > dim_cap:
        raise DimensionCapError(
            f"state dimension {p} exceeds the configured cap {dim_cap}"
        )
    bcol = b.reshape(-1, 1)
    lam_k = [lam]
    c_k = [bcol]
    b_k = [None, np.kron(b, b).reshape(-1, 1)]
    for k in range(1, order):
        pk = p**k
        eye_p = np.eye(p)
        eye_pk = np.eye(pk)
        lam_k.append(np.kron(eye_p, lam_k[-1]) + np.kron(lam, eye_pk))
        if k >= 2:
            b_k.append(np.kron(eye_p, b_k[-1]) + np.kron(bcol, c_k[-1]))
        c_k.append(np.kron(eye_p, c_k[-1]) + np.kron(bcol, eye_pk))
    return KronOperatorSet(p=p, lambda_k=tuple(lam_k), b_k=tuple(b_k[:order]),
                           c_k=tuple(c_k))


@dataclass(frozen=True)
class FullSystem:
    """The stacked Kronecker moment system: blocks maps 1-based (row, col)
    block indices to the nonzero blocks of A, a_full stacks them and
    source is the constant term."""

    ops: KronOperatorSet
    blocks: dict
    a_full: np.ndarray
    source: np.ndarray


def full_system(params):
    """A_kk = lam_(k) - B_(k) (x) gamma', A_{k,k-1} = -2 B_(k) (x) beta',
    A_{k,k-2} = -alpha B_(k), everything else zero; source
    a = (0; alpha*bbar; 0; 0)."""
    p = params.p
    ops = build_kron_operators(params.lam, params.b, order=4)
    gam_row = params.gamma_mat.reshape(1, -1, order="F")
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
    return FullSystem(ops=ops, blocks=blocks, a_full=a_full, source=source)


def _stack(blocks, offsets):
    """Square matrix holding blocks[(i, j)] at block row i, block column j."""
    out = np.zeros((offsets[-1], offsets[-1]))
    for (i, j), blk in blocks.items():
        out[offsets[i - 1]:offsets[i], offsets[j - 1]:offsets[j]] = blk
    return out


def symmetric_orbits(p, k):
    """Orbits of the index tuples of a k-fold Kronecker power of R^p under
    permutation; a symmetric tensor is constant on each orbit.

    Returns (rep, inv): rep[o] is the flat index of orbit o's sorted tuple,
    and inv[f] the orbit of flat index f, so x[rep] keeps one entry per
    orbit of a symmetric x and v[inv] spreads it back.  There are
    C(p+k-1, k) orbits."""
    tuples = np.indices((p,) * k).reshape(k, -1)
    sorted_flat = np.ravel_multi_index(np.sort(tuples, axis=0), (p,) * k)
    rep, inv = np.unique(sorted_flat, return_inverse=True)
    return rep, inv


def stacked_orbits(p, degree=4):
    """symmetric_orbits over the stacked layout of orders 1..degree: rep[i]
    is the stacked index of S coordinate i's sorted tuple and inv[f] the S
    coordinate of stacked index f."""
    reps, invs = [], []
    flat = orbit = 0
    for k in range(1, degree + 1):
        rep, inv = symmetric_orbits(p, k)
        reps.append(flat + rep)
        invs.append(orbit + inv)
        flat += p**k
        orbit += rep.size
    return np.concatenate(reps), np.concatenate(invs)


def kron_powers(y, degree=4):
    """Stacked Kronecker powers (y; y(x)y; ...) of one point, orders
    1..degree."""
    y = np.asarray(y, dtype=float).reshape(-1)
    powers = [y]
    for _ in range(degree - 1):
        powers.append(np.kron(powers[-1], y))
    return np.concatenate(powers)


def duplication(sys):
    """D with m = D m_S for a symmetric stacked moment vector m."""
    return np.eye(sys.a_sym.shape[0])[stacked_orbits(sys.p)[1]]
