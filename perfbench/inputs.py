"""Seeded inputs of the three workloads, built with numpy alone.

Nothing here imports qhr: every model is written as the JSON parameter file
the CLI reads, so the program receives only the generated inputs.  The
workload seed (``--seed``) drives the displaced states and the generated
p = 3..6 models; the seeds, grids and path counts below are fixed so that a
run attempts the same operations on every seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

BUNDLED = ("M1", "M2", "M3", "M4", "MM1", "MM2", "MM3", "MM4", "MM5")

# smile: MM3 at the CLI defaults (4 x 17 grid, 100k antithetic paths, seed
# 12345), M3's ATM structure from a displaced state, and a flat-vol model
# whose surface is Black-Scholes at sqrt(alpha).
SMILE_MM3_ARGS = ["smile", "--model", "MM3"]
ATM_PATHS = 100_000
FLAT_VOL = 0.2
FLAT_SEED = 4242
FLAT_PATHS = 100_000
FLAT_GRID = "T=0.25,1;L=-0.2:0.2:9"

# stationary: MM1 from its stationary law (default burn-in 10 / slowest
# rate, i.e. 2500 steps), then M2's squared-increment autocovariance.
SIM_PATHS = 16_384
SIM_PROBES = (0.0, 0.5, 1.0)
SQ_WINDOW = 1.0 / 12.0
SQ_LAGS = (1.0 / 12.0, 0.25)
SQ_STEPS_PER_YEAR = 600
SQ_BURN_IN = 1.5
SQ_COV_PATHS = 16_384
SQ_DIRECT_PATHS = 32_768

# analytics grids: curves and pca run on {0} and CURVE_POINTS geometric
# points in [1e-3, 5] (the CLI default has 200), so that the bundled pass
# measures enough work to be steady.
CURVE_POINTS = 600

# Rate ladders of the generated models, keyed by (p, cascade): blocks of
# (rate, size) in canonical Jordan form.  A mixture has p blocks of size 1,
# a cascade at least one Jordan block of size 2.  The seed scales each rate
# by U(0.9, 1.1), so the cost of a model (its expm norms and eigenvalue
# work) hardly depends on the seed.  p = 6 costs about 7 s per model per
# round, so it is drawn once, as a cascade.
LADDERS = {
    (3, False): ((20.0, 1), (4.0, 1), (0.8, 1)),
    (3, True): ((12.0, 2), (1.5, 1)),
    (4, False): ((25.0, 1), (8.0, 1), (2.5, 1), (0.8, 1)),
    (4, True): ((20.0, 2), (4.0, 1), (0.8, 1)),
    (5, False): ((30.0, 1), (12.0, 1), (4.0, 1), (1.5, 1), (0.6, 1)),
    (5, True): ((25.0, 2), (5.0, 2), (0.8, 1)),
    (6, True): ((30.0, 2), (8.0, 2), (2.0, 1), (0.6, 1)),
}
HIGHP = tuple(LADDERS)
CM_HORIZONS = {1: (0.05, 0.5, 2.0), 2: (0.05, 0.5, 2.0),
               3: (0.1, 1.0), 4: (0.1, 1.0), 5: (0.1, 1.0), 6: (0.5,)}
AUTOCOV_LAGS = tuple(np.linspace(0.0, 5.0, 21)) + (60.0,)

# R4: an admissible, stationary rank-one model on which the forward
# envelope raises although every slice is bounded below.
R4 = {"blocks": ((20.0, 2), (19.0, 1), (15.0, 1)),
      "w": (0.03, 0.14, 0.02, 0.81), "alpha": 0.01, "beta0": -0.08,
      "gamma0": 2.0}


def jordan_lambda(blocks):
    """Block-diagonal canonical mean reversion, each block l (I - S)."""
    p = sum(n for _, n in blocks)
    lam = np.zeros((p, p))
    b = np.zeros(p)
    at = 0
    for rate, n in blocks:
        lam[at:at + n, at:at + n] = rate * (np.eye(n) - np.eye(n, k=-1))
        b[at] = 1.0
        at += n
    return lam, b


def rank_one_doc(label, blocks, w, alpha, beta0, gamma0):
    """Model file with beta = beta0 w and Gamma = gamma0 w w'."""
    lam, b = jordan_lambda(blocks)
    return {"label": label, "lambda": lam.tolist(), "b": b.tolist(),
            "w": [float(v) for v in w], "alpha": float(alpha),
            "beta0": float(beta0), "gamma0": float(gamma0)}


def kappa_tilde(lam, b, w, gamma0):
    """Fastest-rate curvature ratio lam_max * gamma0 * (w' lam^-1 b)^2."""
    x = np.linalg.solve(lam, b)
    return float(np.max(np.linalg.eigvals(lam).real)) * gamma0 * float(w @ x) ** 2


def _blocks(rng, p, cascade):
    ladder = LADDERS[(p, cascade)]
    jitter = rng.uniform(0.9, 1.1, len(ladder))
    return tuple((rate * j, n) for (rate, n), j in zip(ladder, jitter))


def generated_model(rng, p, cascade):
    """One admissible, stationary rank-one model of dimension p.

    Gamma = gamma0 w w' with w >= 0, scaled so that the fastest-rate
    kappa_tilde lies in [0.15, 0.5]; that keeps the sufficient stationarity
    condition (kappa_tilde < 2/3 with Gamma >= 0) true by construction."""
    blocks = _blocks(rng, p, cascade)
    lam, b = jordan_lambda(blocks)
    w = rng.dirichlet(np.ones(p))
    alpha = float(np.exp(rng.uniform(np.log(0.005), np.log(0.03))))
    target = float(rng.uniform(0.15, 0.5))
    gamma0 = target / kappa_tilde(lam, b, w, 1.0)
    beta0 = -float(rng.uniform(0.0, 0.9)) * np.sqrt(alpha * gamma0)
    form = "cascade" if cascade else "mixture"
    return rank_one_doc(f"G{p}{form[0]}", blocks, w, alpha, beta0, gamma0)


def flat_doc():
    """Gamma = 0, beta = 0: constant variance alpha = FLAT_VOL^2."""
    return {"label": "flat", "lambda": [[1.0]], "b": [1.0],
            "alpha": FLAT_VOL ** 2, "beta": [0.0], "gamma": [[0.0]]}


def r4_doc():
    return rank_one_doc("R4", R4["blocks"], R4["w"], R4["alpha"],
                        R4["beta0"], R4["gamma0"])


def write_model(doc, workdir):
    path = os.path.join(workdir, doc["label"] + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


def displaced_states(rng, p, count=2, scale=0.08):
    return [rng.uniform(-scale, scale, p) for _ in range(count)]


def raw_params(doc):
    """(lam, b, alpha, beta, Gamma) read straight from a model document,
    expanding the rank-one generators beta0 w and gamma0 w w'."""
    lam = np.atleast_2d(np.asarray(doc["lambda"], dtype=float))
    b = np.asarray(doc["b"], dtype=float)
    alpha = float(doc["alpha"])
    if "beta" in doc:
        beta = np.asarray(doc["beta"], dtype=float)
    else:
        beta = float(doc["beta0"]) * np.asarray(doc["w"], dtype=float)
    if "gamma" in doc:
        gamma = np.atleast_2d(np.asarray(doc["gamma"], dtype=float))
    else:
        w = np.asarray(doc["w"], dtype=float)
        gamma = float(doc["gamma0"]) * np.outer(w, w)
    return lam, b, alpha, beta, gamma
