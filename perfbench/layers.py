"""Per-layer metrics from the spans of one traced round.

Times are per round (summed over the round's calls) unless the name says
per call (``_us``/``_ms`` per call, ``build_s.pK`` and
``conditional_moments_s.pK`` per call at dimension K).  A layer that a
workload bypasses reads 0.  Counts are exact and repeat from round to round.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import Tracer, has_ancestor

# Every per-layer metric with its unit, in BENCHMARK.json order.
UNITS = {
    "import.qhr_s": "s", "import.qhr.scalar_s": "s",
    "import.qhr.pricing_s": "s", "import.qhr.linalg_s": "s",
    "cli.self_s": "s", "cli.bytes_out": "count",
    **{f"moments.build_s.p{k}": "s" for k in range(1, 7)},
    "moments.build_calls": "count",
    "moments.conditional_moments_s.p2": "s",
    "moments.conditional_moments_s.p6": "s",
    "moments.omega_s": "s", "moments.stationary_summary_s": "s",
    "model.diagnostics_s": "s", "moments.variance_autocov_us": "us",
    "linalg.expm_calls": "count", "linalg.expm_s": "s",
    "linalg.solve_lyapunov_s": "s", "linalg.pivoted_cholesky_s": "s",
    "linalg.eigenvalues_s": "s", "linalg.build_kron_operators_s": "s",
    "forward.envelope_us": "us", "forward.forward_variance_us": "us",
    "forward.pca_curves_csv_s": "s", "forward.pca_s": "s",
    "scalar.pearson_build_ms": "ms", "scalar.cdf_us": "us",
    "scalar.ppf_us": "us",
    "mc.ns_per_path_step": "ns", "mc.path_steps": "count",
    "mc.ns_per_path_step.threads1": "ns",
    "mc.burnin_s": "s", "mc.estimate_cov_s": "s",
    "mc.snapshot_mb": "MB", "mc.floored_steps": "count",
    "pricing.price_options_s": "s", "pricing.reduce_s": "s",
    "pricing.ivol_us": "us", "pricing.ivol_calls": "count",
    "pricing.bs_price_per_ivol": "count", "pricing.nan_nodes": "count",
    "pricing.atm_s": "s",
    "trace.overhead_s": "s",
}

MC_ROOTS = ("mc.simulate", "mc.stationary_init", "mc.estimate_cov_eta_xi2")


def _steps(horizon, cfg):
    return cfg.n_paths * int(round(horizon * cfg.steps_per_year))


def _simulate_note(args, kwargs, batch):
    cfg = args[1]
    arrays = (batch.x, batch.y, batch.ivar)
    return {"path_steps": _steps(cfg.horizon, cfg),
            "snapshot_mb": sum(a.nbytes for a in arrays) / 2**20,
            "floored": int(batch.floored_steps)}


def _burnin_note(args, kwargs, result):
    params, burn_in, cfg = args
    if burn_in is None:
        burn_in = 10.0 / float(np.linalg.eigvals(params.lam).real.min())
    return {"path_steps": _steps(burn_in, cfg)}


def _estimate_note(args, kwargs, result):
    _, horizon, cfg = args
    return {"path_steps": _steps(horizon, cfg)}


def _dim_note(args, kwargs, result):
    return args[0].p


def _nan_note(args, kwargs, surface):
    return int(np.isnan(surface.ivol).sum())


def make_tracer():
    return Tracer({
        "mc.simulate": _simulate_note,
        "mc.stationary_init": _burnin_note,
        "mc.estimate_cov_eta_xi2": _estimate_note,
        "moments.build_moment_system": _dim_note,
        "moments.conditional_moments": _dim_note,
        "pricing.with_implied_vols": _nan_note,
    })


def _path_steps(tr):
    return sum(s.meta["path_steps"] for s in tr.spans if s.name in MC_ROOTS)


def ns_per_path_step(tr):
    steps = _path_steps(tr)
    mc_self = sum(s.self_time for s in tr.spans if s.name in MC_ROOTS)
    return 1e9 * mc_self / steps if steps else 0.0


def _with_p(k):
    return lambda s: s.meta == k


def round_metrics(tr, runner):
    """Every per-layer metric of one traced round."""
    m = {"cli.self_s": tr.self_total("cli."),
         "cli.bytes_out": runner.bytes_out}
    build = "moments.build_moment_system"
    for k in range(1, 7):
        m[f"moments.build_s.p{k}"] = tr.per_call(build, _with_p(k))
    m["moments.build_calls"] = tr.count(build)
    for k in (2, 6):
        m[f"moments.conditional_moments_s.p{k}"] = tr.per_call(
            "moments.conditional_moments", _with_p(k))
    m["moments.omega_s"] = tr.total("moments.omega")
    m["moments.stationary_summary_s"] = tr.total("moments.stationary_summary")
    m["model.diagnostics_s"] = tr.total("model.diagnostics")
    m["moments.variance_autocov_us"] = 1e6 * tr.per_call(
        "moments.variance_autocov")
    m["linalg.expm_calls"] = tr.count("linalg.expm")
    m["linalg.expm_s"] = float(sum(s.self_time
                                   for s in tr.select("linalg.expm")))
    for name in ("solve_lyapunov", "pivoted_cholesky", "eigenvalues",
                 "build_kron_operators"):
        m[f"linalg.{name}_s"] = tr.total(f"linalg.{name}")
    m["forward.envelope_us"] = 1e6 * tr.per_call("forward.forward_min_envelope")
    m["forward.forward_variance_us"] = 1e6 * tr.per_call(
        "forward.forward_variance")
    m["forward.pca_curves_csv_s"] = tr.total("forward.pca_curves_csv")
    m["forward.pca_s"] = tr.total("forward.pca")
    m["scalar.pearson_build_ms"] = 1e3 * tr.per_call("scalar.PearsonIV.__init__")
    m["scalar.cdf_us"] = 1e6 * tr.per_call("scalar.PearsonIV.cdf")
    m["scalar.ppf_us"] = 1e6 * tr.per_call("scalar.PearsonIV.ppf")
    m["mc.ns_per_path_step"] = ns_per_path_step(tr)
    m["mc.path_steps"] = _path_steps(tr)
    m["mc.burnin_s"] = tr.total("mc.stationary_init")
    m["mc.estimate_cov_s"] = tr.total("mc.estimate_cov_eta_xi2")
    sims = tr.select("mc.simulate")
    m["mc.snapshot_mb"] = max((s.meta["snapshot_mb"] for s in sims),
                              default=0.0)
    m["mc.floored_steps"] = sum(s.meta["floored"] for s in sims)
    price = tr.select("pricing.price_options")
    m["pricing.price_options_s"] = float(sum(s.duration for s in price))
    m["pricing.reduce_s"] = m["pricing.price_options_s"] - sum(
        s.duration for s in sims if s.parent is not None
        and s.parent.name == "pricing.price_options")
    n_ivol = tr.count("pricing.implied_vol")
    m["pricing.ivol_us"] = 1e6 * tr.per_call("pricing.implied_vol")
    m["pricing.ivol_calls"] = n_ivol
    m["pricing.bs_price_per_ivol"] = (
        tr.count("pricing.bs_price",
                 lambda s: has_ancestor(s, "pricing.implied_vol")) / n_ivol
        if n_ivol else 0.0)
    m["pricing.nan_nodes"] = sum(s.meta for s in
                                 tr.select("pricing.with_implied_vols"))
    m["pricing.atm_s"] = tr.total("pricing.atm_term_structures")
    return m


def average(rounds):
    """Mean over traced rounds; a count that repeats keeps its exact value."""
    out = {}
    for k in rounds[0]:
        values = [r[k] for r in rounds]
        out[k] = values[0] if len(set(values)) == 1 else statistics.fmean(values)
    return out
