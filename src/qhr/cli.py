"""Command line front end.

Subcommands map onto the library layers: validate / diagnostics inspect a
model file, curves / pca / density are deterministic analytics, and smile /
atm / simulate run the Monte Carlo engine, the only commands that draw and
so the only ones with a --seed.  CSV output carries a provenance header
(package version, model hash, seed or '-'; for the Monte Carlo commands
also the path count, steps per year, starting state and floored variance
steps) and full-precision numbers; table output rounds the way the
reference tables do.  Each subcommand accepts only the options its handler
reads; a handler computes its numbers and returns (exit code, report
lines), a numeric CSV report through _csv, and main writes the report
once, to stdout or to --out.

Exit codes: 0 success, 1 invalid or non-stationary model (or a numerical
failure downstream), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np
from scipy.special import poch

from . import __version__, forward, mc, model, moments, pricing, scalar


class UsageError(Exception):
    """Bad command line input (missing file, malformed grid/vector)."""


# what a subcommand fails on with exit code 1: an invalid or non-stationary
# model, or a numerical failure downstream
_FAILURES = (ValueError, ArithmeticError, KeyError, OSError)


# ---------------------------------------------------------------------------
# small parsing / formatting helpers


def _load_params(spec):
    path = spec
    if not os.path.exists(path):
        if os.path.exists(spec + ".json"):
            path = spec + ".json"
        else:
            try:
                return model.load_fixture(spec)
            except (FileNotFoundError, KeyError):
                raise UsageError(f"model '{spec}' is neither a file nor a "
                                 "bundled fixture")
    try:
        return model.load_model(path)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot parse model file {path}: {exc}")


def _model_hash(params):
    payload = {
        "lambda": np.asarray(params.lam, dtype=float).tolist(),
        "b": np.asarray(params.b, dtype=float).tolist(),
        "alpha": float(params.alpha),
        "beta": np.asarray(params.beta, dtype=float).tolist(),
        "gamma": np.asarray(params.gamma_mat, dtype=float).tolist(),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _provenance(models, seed):
    lines = [f"# qhr {__version__}"]
    for p in models:
        label = p.label or "model"
        lines.append(f"# model {label} hash {_model_hash(p)}")
    lines.append(f"# seed {seed if seed is not None else '-'}")
    return lines


def _csv(models, seed, comments, header, table):
    """The one writer of the numeric CSV reports: the provenance block, the
    comment lines, the header row and one line per table row, each cell
    %.17g (which reads back as the same double)."""
    table = np.asarray(table, dtype=float)
    row = ",".join(["%.17g"] * table.shape[1])
    return [*_provenance(models, seed), *comments, header,
            *(row % tuple(cells) for cells in table.tolist())]


def _parse_vector(text):
    try:
        out = np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError:
        raise UsageError(f"cannot parse vector '{text}'")
    if not np.isfinite(out).all():
        raise UsageError(f"vector '{text}' has a non-finite entry")
    return out


def _parse_values(text):
    """Comma list, 'a:b:n' (linear) or 'geom:a:b:n'."""
    text = text.strip()
    try:
        if text.startswith("geom:"):
            a, b, n = text[5:].split(":")
            values = np.geomspace(float(a), float(b), int(n))
        elif ":" in text:
            a, b, n = text.split(":")
            values = np.linspace(float(a), float(b), int(n))
        else:
            values = np.array([float(tok) for tok in text.split(",")]
                              if text else [])
    except (ValueError, TypeError):
        raise UsageError(f"cannot parse grid '{text}'")
    if values.size == 0:
        raise UsageError(f"grid '{text}' is empty")
    if not np.isfinite(values).all():
        raise UsageError(f"grid '{text}' has a non-finite entry")
    return values


def _parse_keyed_grid(text, keys):
    """'T=0.25,0.5;L=-0.2:0.2:9' -> dict of arrays (eps: a float); no grid
    (None) gives {}.  Every part names one of keys, each at most once;
    empty parts are skipped, but a given grid with no part is an error."""
    if text is None:
        return {}
    parts = [part for part in (s.strip() for s in text.split(";")) if part]
    if not parts:
        raise UsageError(f"grid '{text}' is empty")
    out = {}
    for part in parts:
        if "=" not in part:
            raise UsageError(f"grid part '{part}' has no key= prefix")
        key, val = part.split("=", 1)
        key = key.strip()
        if key not in keys:
            raise UsageError(f"grid key '{key}' is not one of "
                             f"{', '.join(keys)}")
        if key in out:
            raise UsageError(f"grid key '{key}' is given twice")
        if key == "eps":
            try:
                out[key] = float(val)
            except ValueError:
                raise UsageError(f"cannot parse eps '{val}'")
        else:
            out[key] = _parse_values(val)
    return out


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out:
        out_dir = os.path.dirname(out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table(headers, rows):
    widths = [len(h) for h in headers]
    for row in rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    lines = ["  ".join(h.ljust(widths[j]) for j, h in enumerate(headers))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[j])
                               for j, cell in enumerate(row)))
    return lines


def _g(x):
    return f"{float(x):.17g}"


def _fmt_eigs(values):
    """Human-readable eigenvalue list; conjugate pairs printed once."""
    parts = []
    skip = set()
    vals = list(values)
    for i, v in enumerate(vals):
        if i in skip:
            continue
        if abs(v.imag) < 5e-3:
            parts.append(f"{v.real:.2f}")
            continue
        for j in range(i + 1, len(vals)):
            if j not in skip and abs(vals[j] - v.conjugate()) < 1e-9:
                skip.add(j)
                break
        parts.append(f"{v.real:.2f}±{abs(v.imag):.2f}j")
    return ", ".join(parts)


def _resolve_y0(text):
    if text is None:
        return None
    if text.strip() == "stationary":
        return mc.StationaryInit()
    return _parse_vector(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    params = _load_params(args.model)
    clauses = model.admissibility(params)
    label = params.label or args.model
    lines = [f"model {label} ({_model_hash(params)})"]
    for clause, ok in clauses.items():
        lines.append(f"  {'PASS' if ok else 'FAIL'}  {clause}")
    if not all(clauses.values()):
        return 1, lines + ["result: INVALID"]
    sys_ = moments.build_moment_system(params)
    kt, suff = moments.check_stability_sufficient(params)
    lines.append(f"  kappa       = {sys_.kappa:.4f}")
    lines.append(f"  kappa_tilde = {kt:.4f}  "
                 f"({'PASS' if suff else 'FAIL'}: sufficient condition < 2/3)")
    for k in (2, 3, 4):
        lines.append(f"  min Re eig moment block {k}: "
                     f"{sys_.block_eig_min[k - 2]:+.4f}")
    state = "PASS" if sys_.stable else "FAIL"
    lines.append(f"  {state}  stationarity (moment blocks 2-4 stable)")
    if not sys_.stable:
        return 1, lines + ["result: NOT STATIONARY"]
    return 0, lines + ["result: OK"]


def cmd_diagnostics(args):
    models, done = [], []  # every model read; (label, p, diagnostics)
    for spec in args.model:
        params = _load_params(spec)
        models.append(params)
        label = params.label or spec
        try:
            done.append((label, params.p, model.diagnostics(params)))
        except _FAILURES as exc:
            print(f"{label}: {exc}", file=sys.stderr)
    rc = 0 if len(done) == len(models) else 1
    if args.format == "csv":
        rows = [",".join([
            label, *map(_g, (d.mu2, d.mu3, d.mu4, d.kappa, d.kappa_tilde,
                             d.sigma_min, d.sigma_infty, d.kurt_infty)),
            ";".join(map(_g, d.y_min)),
            ";".join(f"{v.real:.17g}{v.imag:+.17g}j" for v in d.eig_block2),
        ]) for label, _, d in done]
        return rc, [*_provenance(models, None),
                    "label,mu2,mu3,mu4,kappa,kappa_tilde,sigma_min,"
                    "sigma_infty,kurt_infty,y_min,eig_block2", *rows]
    scalar_rows = [
        [label, f"{d.mu2:.2f}", f"{100.0 * d.sigma_min:.2f}",
         f"{d.y_min[0]:.2f}", f"{100.0 * d.sigma_infty:.2f}",
         f"{d.kurt_infty:.2f}"] for label, p, d in done if p == 1]
    multi_rows = [
        [label, *(f"{v:.2f}" for v in (d.mu2, d.mu3, d.mu4, d.kappa,
                                        d.kappa_tilde)),
         "(" + ", ".join(f"{v:.4f}" for v in d.y_min) + ")",
         f"{100.0 * d.sigma_min:.2f}", f"{100.0 * d.sigma_infty:.2f}",
         f"{d.kurt_infty:.2f}"] for label, p, d in done if p > 1]
    eig_rows = [[label, _fmt_eigs(d.eig_block2)] for label, _, d in done]
    lines = []
    for headers, rows in (
            (["model", "2*lambda-gamma", "sigma_min %", "y_min",
              "sqrt(v_infty) %", "Kurt_infty"], scalar_rows),
            (["model", "mu_2", "mu_3", "mu_4", "kappa", "kappa_tilde",
              "y_min", "sigma_min %", "sqrt(v_infty) %", "Kurt_infty"],
             multi_rows),
            (["model", "eig(second-moment block)"], eig_rows)):
        if rows:  # one blank line between tables
            lines += [""] * bool(lines) + _table(headers, rows)
    return rc, lines


def cmd_curves(args):
    params = _load_params(args.model)
    sys_ = moments.build_moment_system(params)
    grid = (forward.default_grid() if args.grid is None
            else _parse_values(args.grid))
    y0_list = [_parse_vector(t) for t in (args.y0 or [])]
    for y0 in y0_list:
        if y0.size != params.p:
            raise UsageError(f"y0 has {y0.size} entries, model has "
                             f"{params.p} factors")
    v0, vmin = forward.forward_min_envelope(sys_, grid)
    states = moments.monomials(np.reshape(y0_list, (-1, params.p)), 2)
    curves = forward.forward_variance(sys_, states, grid)
    vols = np.sqrt(np.maximum(np.column_stack([*curves, v0, vmin]), 0.0))
    header = ",".join(["t", *(f"vol_y0_{i + 1}" for i in range(len(y0_list))),
                       "vol_forward", "vol_min"])
    return 0, _csv([params], None, [], header, np.column_stack([grid, vols]))


def cmd_pca(args):
    params = _load_params(args.model)
    sys_ = moments.build_moment_system(params)
    omega = moments.omega(sys_)
    dec = forward.pca(sys_, omega)
    grid = (forward.default_grid() if args.grid is None
            else _parse_values(args.grid))
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be ascending")
    variances = [f"# component {i} variance = {v:.17g}"
                 for i, v in enumerate(dec.eigenvalues, start=1)]
    header = ",".join(["t", *(f"pc{i}" for i in range(1, dec.rank + 1))])
    return 0, _csv([params], None, variances, header, np.column_stack(
        [grid, dec.factor_curves(grid) * np.sqrt(dec.eigenvalues)]))


def cmd_density(args):
    params = _load_params(args.model)
    if params.p != 1:
        raise UsageError("density requires a one-factor model")
    sp = scalar.ScalarParams.from_model_params(params)
    pp = scalar.PearsonIV(sp)
    if args.grid is not None:
        ys = _parse_values(args.grid)
    else:
        ys = np.linspace(pp.ppf(1e-4), pp.ppf(1.0 - 1e-4), 401)
    columns = [ys, pp.pdf(ys), pp.cdf(ys)]
    if pp.student:  # the closed form of scipy.stats.t.pdf, bit for bit
        df, s = pp.student_df, pp.student_scale
        columns.append(np.exp(np.log(poch(df / 2, 0.5)) - (np.log(df) + np.log(
            np.pi)) / 2 - (df + 1) / 2 * np.log1p((ys / s) ** 2 / df)) / s)
    header = "y,pdf,cdf" + (",student_t_pdf" if pp.student else "")
    return 0, _csv([params], None, [], header, np.column_stack(columns))


def _mc_config(args, horizon):
    return mc.McConfig(n_paths=args.paths, horizon=horizon, seed=args.seed,
                       steps_per_year=args.steps_per_year,
                       y0=_resolve_y0(args.y0))


def _mc_provenance(cfg, floored, burn_in):
    """The '# paths' line, with the floored variance steps of the paths and
    of the burn-in behind a stationary start, and after it for a stationary
    start the '# burn_in' line: the length of the run's mc.BurnIn, its
    Gaussian start and the moment residual it leaves (mc.default_burn_in;
    the CLI's stationary start is always the default one)."""
    counts = f" floored_steps {floored}"
    lines = []
    if cfg.y0 is None:
        start = "-"
    elif isinstance(cfg.y0, mc.StationaryInit):
        start = "stationary"
        counts += f" burn_in_floored_steps {burn_in.floored_steps}"
        lines = [f"# burn_in years {burn_in.steps / cfg.steps_per_year:g} "
                 f"steps {burn_in.steps} start gaussian residual "
                 f"{burn_in.residual:.3g}"]
    else:
        start = ",".join(_g(v) for v in cfg.y0)
    return [f"# paths {cfg.n_paths} steps_per_year {cfg.steps_per_year} "
            f"y0 {start}{counts}", *lines]


def _surface(args, params, mats, ells):
    """The one pricing path of smile and atm: the maturities x
    log-moneyness surface priced on the paths args ask for, with its
    implied vols filled, and its provenance lines (_mc_provenance)."""
    grid = pricing.OptionGrid(maturities=tuple(mats),
                              log_moneyness=tuple(ells))
    cfg = _mc_config(args, float(np.max(mats)))
    surf = pricing.with_implied_vols(pricing.price_options(params, grid, cfg))
    return surf, _mc_provenance(cfg, surf.floored_steps, surf.burn_in)


def cmd_smile(args):
    params = _load_params(args.model)
    keyed = _parse_keyed_grid(args.grid, ("T", "L"))
    surf, paths = _surface(args, params,
                           keyed.get("T", np.array([0.25, 0.5, 1.0, 2.0])),
                           keyed.get("L", np.linspace(-0.4, 0.4, 17)))
    if args.format == "table":
        headers = ["log-moneyness"] + [f"T={t:.4g}" for t in surf.maturities]
        rows = [[f"{ell:+.3f}"] + ["-" if np.isnan(v) else f"{100.0 * v:.2f}"
                                   for v in vols]
                for ell, vols in zip(surf.ell, surf.ivol.T)]
        return 0, _table(headers, rows)
    forwards = [f"# forward T={_g(t)} mean={_g(m)} se={_g(se)}" for t, m, se
                in zip(surf.maturities, surf.forward_mean, surf.forward_se)]
    shape = surf.call_price.shape
    nodes = [np.broadcast_to(surf.maturities[:, None], shape),
             np.broadcast_to(surf.ell, shape), surf.call_price, surf.call_se,
             surf.put_price, surf.put_se, surf.ivol]
    return 0, _csv([params], args.seed, [*paths, *forwards],
                   "maturity,log_moneyness,call,call_se,put,put_se,ivol",
                   np.stack([c.ravel() for c in nodes], 1))


def cmd_atm(args):
    params = _load_params(args.model)
    keyed = _parse_keyed_grid(args.grid, ("T", "eps"))
    eps = keyed.get("eps", 0.01)
    pricing.check_atm_eps(eps)  # before any path is simulated
    mats = keyed.get("T", np.array([1.0 / 12.0, 0.25, 0.5, 1.0, 1.5, 2.0]))
    surf, paths = _surface(args, params, mats, (-eps, 0.0, eps))
    atm_vol, atm_skew = pricing.atm_term_structures(surf, eps=eps)
    return 0, _csv([params], args.seed, [*paths, f"# eps {_g(eps)}"],
                   "maturity,atm_vol,atm_skew",
                   np.column_stack([surf.maturities, atm_vol, atm_skew]))


def _simulate_rows(params, cfg, probes):
    """The summary rows of simulate, t and the mean and standard error of
    x, e^x and sigma^2 followed by the mean of each y component, folded
    into mc.BlockStats as the paths run, with the floored variance steps
    of the paths and the mc.BurnIn behind a stationary start."""
    times = mc.snapshot_times(cfg, probes)
    stats = mc.BlockStats((times.size, 3 + params.p), cfg.n_paths,
                          cfg.antithetic)

    def fold(row, lo, x, y, ivar):
        stats.add((row, 0), lo, x)
        stats.add((row, 1), lo, np.exp(x))
        stats.add((row, 2), lo, model.variance(params, y.T))
        stats.add((row, slice(3, None)), lo, y)

    floored, burn_in = mc.stream(params, cfg, probes, fold)
    mean, se = stats.result()
    rows = np.column_stack([times, mean[:, 0], se[:, 0], mean[:, 1],
                            se[:, 1], mean[:, 2], se[:, 2], mean[:, 3:]])
    return rows, floored, burn_in


def cmd_simulate(args):
    params = _load_params(args.model)
    probes = (np.array([1.0]) if args.grid is None
              else _parse_values(args.grid))
    cfg = _mc_config(args, float(np.max(probes)))
    rows, floored, burn_in = _simulate_rows(params, cfg, probes)
    ycols = ",".join(f"mean_y{i + 1}" for i in range(params.p))
    return 0, _csv([params], args.seed,
                   _mc_provenance(cfg, floored, burn_in),
                   "t,mean_x,se_x,mean_exp_x,se_exp_x,mean_sigma2,se_sigma2,"
                   + ycols, rows)


# ---------------------------------------------------------------------------
# wiring


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qhr",
        description="Path-dependent volatility model toolkit: validation, "
                    "stationary diagnostics, forward-variance analytics and "
                    "Monte Carlo pricing.")
    parser.add_argument("--version", action="version",
                        version=f"qhr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--seed": dict(type=int, default=12345),
        "--paths": dict(type=int, default=100_000),
        "--steps-per-year": dict(type=int, default=250),
        "--y0": dict(help="initial factor vector (comma separated) or "
                          "'stationary'"),
        "--grid": dict(help="grid spec: comma list, a:b:n, geom:a:b:n, or "
                            "key=... parts"),
    }
    mc_options = ("--seed", "--paths", "--steps-per-year", "--y0", "--grid")
    for name, fn, names, own in (
            ("validate", cmd_validate, (), {}),
            ("diagnostics", cmd_diagnostics, (), {
                "--model": dict(nargs="+", required=True,
                                help="model file(s) or bundled fixture "
                                     "name(s)"),
                "--format": dict(choices=("csv", "table"), default="table")}),
            ("curves", cmd_curves, ("--grid",), {
                "--y0": dict(action="append",
                             help="initial factor vector, comma separated; "
                                  "repeatable")}),
            ("pca", cmd_pca, ("--grid",), {}),
            ("density", cmd_density, ("--grid",), {}),
            ("smile", cmd_smile, mc_options, {
                "--format": dict(choices=("csv", "table"), default="csv")}),
            ("atm", cmd_atm, mc_options, {}),
            ("simulate", cmd_simulate, mc_options, {}),
    ):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        options = {"--model": dict(required=True,
                                   help="model file or bundled fixture name"),
                   "--out": dict(help="output file (default: stdout)"),
                   **{flag: shared[flag] for flag in names}, **own}
        for flag, kw in options.items():
            p.add_argument(flag, **kw)
    return parser


_PARSER = _build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        rc, lines = args.func(args)
        _emit(lines, args.out)
        return rc
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
