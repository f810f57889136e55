"""Model parameter container, validation, canonical form and static analysis.

The model is an Ornstein-Uhlenbeck style offset vector y (mean reversion
matrix lam, loading vector b, common Brownian driver) feeding a quadratic
variance link

    sigma^2(y) = alpha + 2 y'beta + y'Gamma y.

This module owns the parameter bundle, its admissibility checks, the Jordan
canonical identification, filter kernels, the rank-one constructor, the
drift-removal change of measure and the per-model diagnostic summary.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg, moments


class ComplexEigenvaluesError(ValueError):
    """Mean-reversion matrix has complex eigenvalues."""


class RepeatedEigenvalueAcrossBlocksError(ValueError):
    """An eigenvalue spans several invariant blocks (or b is not cyclic);
    the model must be aggregated to a smaller state first."""


class SingularTransformError(ValueError):
    """Requested change of measure is degenerate."""


class ConstraintViolationError(ValueError):
    """Rank-one construction inputs violate their admissibility constraints."""


@dataclass(frozen=True)
class JordanSpec:
    """Canonical block layout: ((lambda_1, n_1), ..., (lambda_m, n_m)) with
    strictly decreasing positive rates and multiplicities summing to p."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple((float(l), int(n)) for l, n in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        rates = [l for l, _ in blocks]
        if not blocks:
            raise ValueError("at least one block required")
        if any(l <= 0 for l in rates):
            raise ValueError("block rates must be positive")
        if any(n < 1 for _, n in blocks):
            raise ValueError("block multiplicities must be >= 1")
        if any(a >= b for a, b in zip(rates[1:], rates[:-1])):
            raise ValueError("block rates must be strictly decreasing")

    @property
    def p(self):
        return sum(n for _, n in self.blocks)

    def lambda_matrix(self):
        """Block-diagonal bidiagonal form: each block lam_i*(I - S) with S the
        subdiagonal shift."""
        mats = []
        for lam_i, n in self.blocks:
            d = lam_i * np.eye(n)
            d -= lam_i * np.diag(np.ones(n - 1), -1)
            mats.append(d)
        out = np.zeros((self.p, self.p))
        at = 0
        for m in mats:
            n = m.shape[0]
            out[at:at + n, at:at + n] = m
            at += n
        return out

    def b_vector(self):
        """Stacked first-unit-vector loading, one e1 per block."""
        b = np.zeros(self.p)
        at = 0
        for _, n in self.blocks:
            b[at] = 1.0
            at += n
        return b


@dataclass(frozen=True)
class ModelParams:
    """Parameter bundle (lam, b, alpha, beta, Gamma) plus the optional
    rank-one generators (w, beta0, gamma0) when built that way."""

    lam: np.ndarray
    b: np.ndarray
    alpha: float
    beta: np.ndarray
    gamma_mat: np.ndarray
    w: np.ndarray = None
    beta0: float = None
    gamma0: float = None
    label: str = ""

    def __post_init__(self):
        lam = np.atleast_2d(np.asarray(self.lam, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        beta = np.asarray(self.beta, dtype=float).reshape(-1)
        gam = np.atleast_2d(np.asarray(self.gamma_mat, dtype=float))
        p = lam.shape[0]
        if lam.shape != (p, p):
            raise ValueError("lam must be square")
        if b.shape != (p,) or beta.shape != (p,) or gam.shape != (p, p):
            raise ValueError("b, beta must have length p and Gamma be p x p")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma_mat", gam)
        if self.w is not None:
            w = np.asarray(self.w, dtype=float).reshape(-1)
            if w.shape != (p,):
                raise ValueError("w must have length p")
            object.__setattr__(self, "w", w)
        if self.beta0 is not None:
            object.__setattr__(self, "beta0", float(self.beta0))
        if self.gamma0 is not None:
            object.__setattr__(self, "gamma0", float(self.gamma0))

    @property
    def p(self):
        return self.lam.shape[0]


@dataclass(frozen=True)
class CanonicalModel:
    """Model re-expressed in the identified basis.

    transform holds the basis matrix M with lam_canon = M^-1 lam M and
    y_canon = M^-1 y; params holds the transformed bundle."""

    params: ModelParams
    jordan: JordanSpec
    transform: np.ndarray


@dataclass(frozen=True)
class Diagnostics:
    """Static per-model summary: variance floor, stationary level, excess
    kurtosis, the two stability scalars, the slowest rates of the
    second/third/fourth moment blocks and the whole second-block spectrum
    (ascending real part)."""

    y_min: np.ndarray
    sigma_min: float
    sigma_infty: float
    kurt_infty: float
    kappa: float
    kappa_tilde: float
    mu2: float
    mu3: float
    mu4: float
    eig_block2: np.ndarray


def admissibility(params):
    """Each admissibility clause, in order, mapped to whether the model
    meets it: alpha positive, Gamma symmetric, mean-reversion spectrum real
    and (if real) positive, bordered matrix [[alpha, beta'], [beta, Gamma]]
    positive semidefinite."""
    gam = params.gamma_mat
    gscale = max(np.abs(gam).max(), 1.0)
    vals = np.linalg.eigvals(params.lam)
    lscale = max(np.abs(vals).max(), 1.0)
    real = not np.abs(vals.imag).max() > 1e-10 * lscale
    bordered = np.zeros((params.p + 1, params.p + 1))
    bordered[0, 0] = params.alpha
    bordered[0, 1:] = params.beta
    bordered[1:, 0] = params.beta
    bordered[1:, 1:] = 0.5 * (gam + gam.T)
    ev = np.linalg.eigvalsh(bordered)
    return {
        "alpha must be positive": params.alpha > 0,
        "gamma must be symmetric":
            not np.abs(gam - gam.T).max() > 1e-10 * gscale,
        "lambda eigenvalues must be real": real,
        "lambda eigenvalues must be positive":
            not real or not vals.real.min() <= 0,
        "bordered matrix not psd":
            not ev.min() < -1e-10 * max(np.abs(ev).max(), 1.0),
    }


def validate(params):
    """Admissibility check. Returns the clauses of admissibility(params)
    that the model violates, in order (empty when it is admissible)."""
    return [clause for clause, ok in admissibility(params).items() if not ok]


def _eigen_clusters(vals, tol):
    """Group a real spectrum into (value, multiplicity) clusters, sorted
    descending."""
    vals = np.sort(vals)[::-1]
    clusters = []
    for v in vals:
        if clusters and abs(v - clusters[-1][0][-1]) <= tol:
            clusters[-1][0].append(v)
        else:
            clusters.append([[v]])
    return [(float(np.mean(c[0])), len(c[0])) for c in clusters]


def canonicalize(params):
    """Similarity transform to the identified (lam, b) structure.

    Output basis: lam block-diagonal with bidiagonal blocks lam_i*(I - S)
    ordered by decreasing rate, b equal to stacked first unit vectors.  The
    chain columns are m_1 = b_i (the component of b in the generalized
    eigenspace of lam_i), m_{j+1} = (I - lam/lam_i) m_j, which makes
    M^-1 b land on e1 of each block by construction.
    """
    lam, b, p = params.lam, params.b, params.p
    vals = np.linalg.eigvals(lam)
    scale = max(np.abs(vals).max(), 1.0)
    if np.abs(vals.imag).max() > 1e-8 * scale:
        raise ComplexEigenvaluesError(
            "mean-reversion matrix has complex eigenvalues")
    blocks = _eigen_clusters(vals.real, 1e-8 * scale)
    # generalized eigenspace basis per cluster: the n_i right singular
    # vectors of (lam - l I)^n with smallest singular values
    bases = []
    for l, n in blocks:
        power = np.linalg.matrix_power(lam - l * np.eye(p), n)
        _, _, vt = np.linalg.svd(power)
        bases.append(vt[p - n:].T)
    nmat = np.hstack(bases)
    try:
        coeff = np.linalg.solve(nmat, b)
    except np.linalg.LinAlgError:
        raise RepeatedEigenvalueAcrossBlocksError(
            "generalized eigenspaces do not span; aggregate the model first")
    cols = []
    at = 0
    for (l, n), basis in zip(blocks, bases):
        m = basis @ coeff[at:at + n]
        at += n
        for _ in range(n):
            cols.append(m)
            m = m - lam @ m / l
    mmat = np.column_stack(cols)
    sv = np.linalg.svd(mmat, compute_uv=False)
    if sv[-1] < 1e-10 * max(sv[0], 1.0):
        raise RepeatedEigenvalueAcrossBlocksError(
            "loading vector is not cyclic for the mean-reversion matrix; "
            "aggregate repeated-rate factors first")
    minv = np.linalg.inv(mmat)
    out = ModelParams(
        lam=minv @ lam @ mmat,
        b=minv @ b,
        alpha=params.alpha,
        beta=mmat.T @ params.beta,
        gamma_mat=mmat.T @ params.gamma_mat @ mmat,
        w=None if params.w is None else mmat.T @ params.w,
        beta0=params.beta0,
        gamma0=params.gamma0,
        label=params.label,
    )
    return CanonicalModel(params=out, jordan=JordanSpec(tuple(blocks)),
                          transform=mmat)


def variance(params, y):
    """Instantaneous variance alpha + 2 y'beta + y'Gamma y.

    y may be a single vector or an array with trailing axis p."""
    y = np.asarray(y, dtype=float)
    lin = y @ params.beta
    quad = np.einsum("...i,ij,...j->...", y, params.gamma_mat, y)
    return params.alpha + 2.0 * lin + quad


def variance_min(params):
    """Location and level of the variance minimum.

    Stationary point of the quadratic: Gamma y = -beta; with singular Gamma
    the minimum-norm solution is taken (the minima then form an affine set).
    Returns (y_min, sigma_min)."""
    y_min = -np.linalg.pinv(params.gamma_mat, rcond=1e-10) @ params.beta
    v = variance(params, y_min)
    return y_min, math.sqrt(max(float(v), 0.0))


def filter_psi(lam, i, t):
    """Erlang kernel psi_i(t) = lam e^{-lam t} (lam t)^{i-1} / (i-1)!, t
    checked as moments' horizons are."""
    if lam <= 0:
        raise ValueError("rate must be positive")
    if i < 1:
        raise ValueError("order must be >= 1")
    t = moments._horizons(t)
    out = lam * np.exp(-lam * t) * (lam * t) ** (i - 1) / math.factorial(i - 1)
    return float(out) if out.ndim == 0 else out


def filter_phi(params, w, t_grid):
    """Weighting kernel phi(t) = w' lam e^{-lam t} b on a grid of lags.

    Warns when w'b != 1 (the kernel then does not integrate to one)."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if abs(w @ params.b - 1.0) > 1e-9:
        warnings.warn("w'b != 1: filter weights are not normalized",
                      stacklevel=2)
    decay = linalg.ExpmAction(-params.lam)
    rows = moments._decay(decay, params.b, np.atleast_1d(t_grid))
    # a (1, p) row per lag keeps each lag's own dot product, so a lag's
    # value does not depend on the rest of the grid
    return (rows[:, None, :] @ (params.lam.T @ w))[:, 0]


# filter_check's grid: _FILTER_POINTS lags out to _FILTER_SPAN over the
# slowest rate
_FILTER_POINTS = 2000
_FILTER_SPAN = 20.0


def filter_check(params, w):
    """Numerical admissibility probe for a weight vector: minimum of phi on
    a dense grid of lags and its trapezoid integral."""
    rates = np.linalg.eigvals(params.lam).real
    horizon = _FILTER_SPAN / max(rates.min(), 1e-12)
    grid = np.linspace(0.0, horizon, _FILTER_POINTS)
    vals = filter_phi(params, w, grid)
    return {"min_phi": float(vals.min()),
            "integral": float(np.trapezoid(vals, grid))}


def rank_one(jordan, w, alpha, beta0, gamma0):
    """Canonical model with beta = beta0*w and Gamma = gamma0*w w'.

    The bordered-psd condition reduces to alpha > 0, gamma0 >= 0 and
    beta0^2 <= alpha*gamma0."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape != (jordan.p,):
        raise ConstraintViolationError("w must have length p")
    if not alpha > 0:
        raise ConstraintViolationError("alpha must be positive")
    if gamma0 < 0:
        raise ConstraintViolationError("gamma0 must be nonnegative")
    if beta0**2 > alpha * gamma0 + 1e-12 * max(alpha, 1.0):
        raise ConstraintViolationError("beta0^2 must not exceed alpha*gamma0")
    return ModelParams(
        lam=jordan.lambda_matrix(),
        b=jordan.b_vector(),
        alpha=alpha,
        beta=beta0 * w,
        gamma_mat=gamma0 * np.outer(w, w),
        w=w,
        beta0=float(beta0),
        gamma0=float(gamma0),
    )


def change_of_measure(params, mu0, mu1):
    """Absorb a linear price drift mu0 + mu1'y into the offset dynamics.

    New mean reversion lam - b mu1' and offset shift s = mu0 (lam_new)^-1 b;
    the variance link is re-centered accordingly (alpha, beta change, Gamma
    does not).  The transform is well posed iff mu1' lam^-1 b != 1.  The
    transformed mean reversion may lose the real-positive-spectrum property;
    that is reported as a warning, not an error.  Returns (params, shift)."""
    mu1 = np.asarray(mu1, dtype=float).reshape(-1)
    if mu1.shape != (params.p,):
        raise ValueError("mu1 must have length p")
    if abs(mu1 @ np.linalg.solve(params.lam, params.b) - 1.0) < 1e-12:
        raise SingularTransformError("mu1' lam^-1 b = 1: transform undefined")
    lam_new = params.lam - np.outer(params.b, mu1)
    shift = float(mu0) * np.linalg.solve(lam_new, params.b)
    beta_new = params.beta + params.gamma_mat @ shift
    alpha_new = params.alpha + 2.0 * params.beta @ shift \
        + shift @ params.gamma_mat @ shift
    vals = np.linalg.eigvals(lam_new)
    scale = max(np.abs(vals).max(), 1.0)
    if np.abs(vals.imag).max() > 1e-10 * scale or vals.real.min() <= 0:
        warnings.warn("transformed mean reversion violates the real-positive "
                      "spectrum assumption", stacklevel=2)
    beta0_new = None
    if params.beta0 is not None and params.gamma0 is not None \
            and params.w is not None:
        beta0_new = params.beta0 + params.gamma0 * float(params.w @ shift)
    return ModelParams(
        lam=lam_new,
        b=params.b,
        alpha=alpha_new,
        beta=beta_new,
        gamma_mat=params.gamma_mat,
        w=params.w,
        beta0=beta0_new,
        gamma0=params.gamma0 if beta0_new is not None else None,
        label=params.label,
    ), shift


def diagnostics(params):
    """Assemble the static summary used by the model tables."""
    sys = moments.build_moment_system(params)
    summ = moments.stationary_summary(sys, params)
    y_min, sigma_min = variance_min(params)
    mu2, mu3, mu4 = sys.block_eig_min
    # A_22 leaves S and its complement invariant; on the antisymmetric
    # tensors it acts as lam (x) I + I (x) lam, with eigenvalues
    # lam_i + lam_j for i < j (block 1 of the moment system is lam)
    rates = sys.block_spectra[0]
    pairs = np.triu_indices(params.p, 1)
    eig2 = np.concatenate([sys.block_spectra[1],
                           (rates[:, None] + rates)[pairs]])
    return Diagnostics(
        y_min=y_min,
        sigma_min=sigma_min,
        sigma_infty=math.sqrt(summ.sigma2_infty),
        kurt_infty=summ.kurt_infty,
        kappa=summ.kappa,
        kappa_tilde=summ.kappa_tilde,
        mu2=mu2,
        mu3=mu3,
        mu4=mu4,
        eig_block2=eig2[np.lexsort((eig2.imag, eig2.real))],
    )


# ---------------------------------------------------------------------------
# model files

_MODELS_DIR = Path(__file__).parent / "models"


def load_model(path):
    """Read a model parameter file (JSON).

    Accepted fields: lambda (row-major matrix), b, alpha, label, optional w,
    and either beta (vector) or beta0 (scalar, requires w), and either gamma
    (matrix) or gamma0 (scalar, requires w)."""
    path = Path(path)
    with open(path) as fh:
        doc = json.load(fh)
    lam = np.atleast_2d(np.asarray(doc["lambda"], dtype=float))
    b = np.asarray(doc["b"], dtype=float).reshape(-1)
    alpha = float(doc["alpha"])
    w = None
    if "w" in doc:
        w = np.asarray(doc["w"], dtype=float).reshape(-1)
    beta0 = gamma0 = None
    if "beta" in doc:
        beta = np.asarray(doc["beta"], dtype=float).reshape(-1)
    elif "beta0" in doc:
        if w is None:
            raise ValueError("beta0 requires w")
        beta0 = float(doc["beta0"])
        beta = beta0 * w
    else:
        raise ValueError("model file needs beta or beta0")
    if "gamma" in doc:
        gamma = np.atleast_2d(np.asarray(doc["gamma"], dtype=float))
    elif "gamma0" in doc:
        if w is None:
            raise ValueError("gamma0 requires w")
        gamma0 = float(doc["gamma0"])
        gamma = gamma0 * np.outer(w, w)
    else:
        raise ValueError("model file needs gamma or gamma0")
    return ModelParams(lam=lam, b=b, alpha=alpha, beta=beta, gamma_mat=gamma,
                       w=w, beta0=beta0, gamma0=gamma0,
                       label=doc.get("label", path.stem))


def save_model(params, path):
    """Write a model parameter file; inverse of load_model."""
    doc = {"label": params.label,
           "lambda": params.lam.tolist(),
           "b": params.b.tolist(),
           "alpha": params.alpha}
    if params.w is not None:
        doc["w"] = params.w.tolist()
    if params.beta0 is not None and params.w is not None:
        doc["beta0"] = params.beta0
    else:
        doc["beta"] = params.beta.tolist()
    if params.gamma0 is not None and params.w is not None:
        doc["gamma0"] = params.gamma0
    else:
        doc["gamma"] = params.gamma_mat.tolist()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def list_fixtures():
    return sorted(p.stem for p in _MODELS_DIR.glob("*.json"))


def load_fixture(name):
    """Load one of the packaged example models (M1..M4, MM1..MM5)."""
    path = _MODELS_DIR / f"{name}.json"
    if not path.exists():
        raise FileNotFoundError(f"no packaged model named {name!r}; "
                                f"available: {', '.join(list_fixtures())}")
    return load_model(path)
