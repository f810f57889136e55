"""Command line front end.

Subcommands map onto the library layers: validate / diagnostics inspect a
model file, curves / pca / density are deterministic analytics, and smile /
atm / simulate run the Monte Carlo engine.  CSV output carries a provenance
header (package version, model hash, seed; for the Monte Carlo commands
also the path count, steps per year, starting state and floored variance
steps) and full-precision numbers; table output rounds the way the
reference tables do.  Each subcommand accepts only the options its handler
reads; a handler returns (exit code, report lines) and main writes the
report once, to stdout or to --out.

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

from . import __version__, forward, linalg, mc, model, moments, pricing, scalar


class UsageError(Exception):
    """Bad command line input (missing file, malformed grid/vector)."""


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


def _parse_vector(text):
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError:
        raise UsageError(f"cannot parse vector '{text}'")


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
            values = np.array([float(tok) for tok in text.split(",")])
    except (ValueError, TypeError):
        raise UsageError(f"cannot parse grid '{text}'")
    if values.size == 0:
        raise UsageError(f"grid '{text}' is empty")
    return values


def _parse_keyed_grid(text):
    """'T=0.25,0.5;L=-0.2:0.2:9;eps=0.01' -> dict of arrays/floats."""
    out = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"grid part '{part}' has no key= prefix")
        key, val = part.split("=", 1)
        key = key.strip()
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
    rows_csv = []
    rows_scalar = []
    rows_multi = []
    eig_rows = []
    models = []
    failed = False
    for spec in args.model:
        params = _load_params(spec)
        models.append(params)
        label = params.label or spec
        try:
            diag = model.diagnostics(params)
        except (moments.NotStationaryError, linalg.UnstableError) as exc:
            print(f"{label}: {exc}", file=sys.stderr)
            failed = True
            continue
        eig_rows.append((label, diag.eig_block2))
        if params.p == 1:
            rows_scalar.append([
                label,
                f"{diag.mu2:.2f}",
                f"{100.0 * diag.sigma_min:.2f}",
                f"{float(diag.y_min[0]):.2f}",
                f"{100.0 * diag.sigma_infty:.2f}",
                f"{diag.kurt_infty:.2f}",
            ])
        else:
            ymin = "(" + ", ".join(f"{v:.4f}" for v in diag.y_min) + ")"
            rows_multi.append([
                label,
                f"{diag.mu2:.2f}", f"{diag.mu3:.2f}", f"{diag.mu4:.2f}",
                f"{diag.kappa:.2f}", f"{diag.kappa_tilde:.2f}",
                ymin,
                f"{100.0 * diag.sigma_min:.2f}",
                f"{100.0 * diag.sigma_infty:.2f}",
                f"{diag.kurt_infty:.2f}",
            ])
        ymin_full = ";".join(_g(v) for v in diag.y_min)
        eig_full = ";".join(f"{v.real:.17g}{v.imag:+.17g}j"
                            for v in diag.eig_block2)
        rows_csv.append(",".join([
            label, _g(diag.mu2), _g(diag.mu3), _g(diag.mu4), _g(diag.kappa),
            _g(diag.kappa_tilde), _g(diag.sigma_min), _g(diag.sigma_infty),
            _g(diag.kurt_infty), ymin_full, eig_full,
        ]))
    if args.format == "csv":
        lines = _provenance(models, args.seed)
        lines.append("label,mu2,mu3,mu4,kappa,kappa_tilde,sigma_min,"
                     "sigma_infty,kurt_infty,y_min,eig_block2")
        lines.extend(rows_csv)
    else:
        lines = []
        if rows_scalar:
            lines.extend(_table(
                ["model", "2*lambda-gamma", "sigma_min %", "y_min",
                 "sqrt(v_infty) %", "Kurt_infty"], rows_scalar))
        if rows_multi:
            if lines:
                lines.append("")
            lines.extend(_table(
                ["model", "mu_2", "mu_3", "mu_4", "kappa", "kappa_tilde",
                 "y_min", "sigma_min %", "sqrt(v_infty) %", "Kurt_infty"],
                rows_multi))
        if eig_rows:
            lines.append("")
            lines.extend(_table(
                ["model", "eig(second-moment block)"],
                [[lab, _fmt_eigs(e)] for lab, e in eig_rows]))
    return (1 if failed else 0), lines


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
    sys_.require_stable()
    header = ["t"]
    header += [f"vol_y0_{i + 1}" for i in range(len(y0_list))]
    header += ["vol_forward", "vol_min"]
    lines = _provenance([params], args.seed)
    lines.append(",".join(header))
    v0, vmin = forward.forward_min_envelope(sys_, grid)
    states = moments.monomials(np.reshape(y0_list, (-1, params.p)), 2)
    curves = forward.forward_variance(sys_, states, grid)
    vols = np.sqrt(np.maximum(np.column_stack([*curves, v0, vmin]), 0.0))
    lines.extend(forward._csv_rows(np.column_stack([grid, vols])))
    return 0, lines


def cmd_pca(args):
    params = _load_params(args.model)
    sys_ = moments.build_moment_system(params)
    omega = moments.omega(sys_)
    dec = forward.pca(sys_, omega)
    grid = (forward.default_grid() if args.grid is None
            else _parse_values(args.grid))
    body = forward.pca_curves_csv(dec, np.asarray(grid, dtype=float))
    lines = _provenance([params], args.seed) + body.splitlines()
    return 0, lines


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
    header = "y,pdf,cdf" + (",student_t_pdf" if pp.student else "")
    lines = _provenance([params], args.seed)
    lines.append(header)
    columns = [ys, pp.pdf(ys), pp.cdf(ys)]
    if pp.student:
        from scipy import stats
        columns.append(stats.t.pdf(ys / pp.student_scale,
                                   pp.student_df) / pp.student_scale)
    lines.extend(forward._csv_rows(np.column_stack(columns)))
    return 0, lines


def _mc_config(args, horizon):
    return mc.McConfig(n_paths=args.paths, horizon=horizon, seed=args.seed,
                       steps_per_year=args.steps_per_year,
                       y0=_resolve_y0(args.y0))


def _mc_provenance(args, y0, run):
    """The '# paths' line, with the floored variance steps of run (a
    PathBatch or SmileSurface) and of the burn-in behind a stationary start."""
    counts = f" floored_steps {run.floored_steps}"
    if y0 is None:
        start = "-"
    elif isinstance(y0, mc.StationaryInit):
        start = "stationary"
        counts += f" burn_in_floored_steps {run.burn_in_floored_steps}"
    else:
        start = ",".join(_g(v) for v in y0)
    return (f"# paths {args.paths} steps_per_year {args.steps_per_year} "
            f"y0 {start}{counts}")


def cmd_smile(args):
    params = _load_params(args.model)
    keyed = _parse_keyed_grid(args.grid) if args.grid else {}
    mats = keyed.get("T", np.array([0.25, 0.5, 1.0, 2.0]))
    ells = keyed.get("L", np.linspace(-0.4, 0.4, 17))
    grid = pricing.OptionGrid(maturities=tuple(mats),
                              log_moneyness=tuple(ells))
    cfg = _mc_config(args, float(np.max(mats)))
    surf = pricing.with_implied_vols(pricing.price_options(params, grid, cfg))
    if args.format == "table":
        headers = ["log-moneyness"] + [f"T={t:.4g}" for t in surf.maturities]
        rows = []
        for j in range(surf.ell.shape[1]):
            row = [f"{surf.ell[0, j]:+.3f}"]
            for i in range(surf.maturities.size):
                v = surf.ivol[i, j]
                row.append("-" if np.isnan(v) else f"{100.0 * v:.2f}")
            rows.append(row)
        return 0, _table(headers, rows)
    lines = _provenance([params], args.seed)
    lines.append(_mc_provenance(args, cfg.y0, surf))
    for i, t in enumerate(surf.maturities):
        lines.append(f"# forward T={_g(t)} mean={_g(surf.forward_mean[i])} "
                     f"se={_g(surf.forward_se[i])}")
    lines.append("maturity,log_moneyness,call,call_se,put,put_se,ivol")
    nodes = [np.broadcast_to(surf.maturities[:, None], surf.ell.shape),
             surf.ell, surf.call_price, surf.call_se, surf.put_price,
             surf.put_se, surf.ivol]
    lines.extend(forward._csv_rows(np.stack([c.ravel() for c in nodes], 1)))
    return 0, lines


def cmd_atm(args):
    params = _load_params(args.model)
    keyed = _parse_keyed_grid(args.grid) if args.grid else {}
    mats = keyed.get("T", np.array([1.0 / 12.0, 0.25, 0.5, 1.0, 1.5, 2.0]))
    eps = keyed.get("eps", 0.01)
    grid = pricing.OptionGrid(maturities=tuple(mats),
                              log_moneyness=(-eps, 0.0, eps))
    cfg = _mc_config(args, float(np.max(mats)))
    surf = pricing.price_options(params, grid, cfg)
    atm_vol, atm_skew = pricing.atm_term_structures(surf, eps=eps)
    lines = _provenance([params], args.seed)
    lines.append(_mc_provenance(args, cfg.y0, surf))
    lines.append(f"# eps {_g(eps)}")
    lines.append("maturity,atm_vol,atm_skew")
    lines.extend(forward._csv_rows(
        np.column_stack([surf.maturities, atm_vol, atm_skew])))
    return 0, lines


def cmd_simulate(args):
    params = _load_params(args.model)
    probes = _parse_values(args.grid) if args.grid else np.array([1.0])
    cfg = _mc_config(args, float(np.max(probes)))
    batch = mc.simulate(params, cfg, probes=list(probes))
    lines = _provenance([params], args.seed)
    lines.append(_mc_provenance(args, cfg.y0, batch))
    ycols = ",".join(f"mean_y{i + 1}" for i in range(params.p))
    lines.append("t,mean_x,se_x,mean_exp_x,se_exp_x,mean_sigma2,"
                 f"se_sigma2,{ycols}")
    rows = [[t, *batch.mean_se(batch.x[i]),
             *batch.mean_se(np.exp(batch.x[i])),
             *batch.mean_se(batch.sigma2(i)), *batch.y[i].mean(axis=0)]
            for i, t in enumerate(batch.times)]
    lines.extend(forward._csv_rows(rows))
    return 0, lines


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
            ("diagnostics", cmd_diagnostics, ("--seed",), {
                "--model": dict(nargs="+", required=True,
                                help="model file(s) or bundled fixture "
                                     "name(s)"),
                "--format": dict(choices=("csv", "table"), default="table")}),
            ("curves", cmd_curves, ("--seed", "--grid"), {
                "--y0": dict(action="append",
                             help="initial factor vector, comma separated; "
                                  "repeatable")}),
            ("pca", cmd_pca, ("--seed", "--grid"), {}),
            ("density", cmd_density, ("--seed", "--grid"), {}),
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
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
