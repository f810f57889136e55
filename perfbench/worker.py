"""One workload in one fresh interpreter.

    python3 perfbench/worker.py --workload smile --seed 1 --seconds 20 \
        --trace 0 --workdir perfbench/work [--setup-only]

The process imports qhr from the checkout's ``src``, builds the workload's
inputs and prints ``READY`` (``run.py`` times set-up up to that line).  It
then runs the round's first step once as a warm-up, and at least two whole
timed rounds of the workload until ``--seconds`` have passed, and prints one
JSON line with the per-round wall times, the estimated time of each part,
the operations attempted and failed, its peak resident memory and, with
``--trace 1``, the per-layer metrics.  A round is a fixed list of steps,
each running part 1 or part 2 of the workload, and so a fixed list of
operations: each subcommand or library call, each surface node's implied
vol and each statistical check counts as one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import numpy as np  # noqa: E402
from scipy.linalg import expm  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from checks import close, zband  # noqa: E402

# The last curve point sits this many slowest decay times out, where every
# curve has reached sigma_infty to double precision.
FAR_DECAYS = 60.0


class CheckFailed(Exception):
    pass


def expect(result):
    ok, detail = result
    if not ok:
        raise CheckFailed(detail)


class Runner:
    """Counts operations and accumulates the time spent inside qhr, in all
    and per operation (``op_times``: (name, seconds) in call order)."""

    def __init__(self, qhr):
        self.qhr = qhr
        self.attempted = 0
        self.failures = []
        self.program_s = 0.0
        self.op_times = []
        self.bytes_out = 0
        self.outputs = {}

    def op(self, name, body):
        """Run one operation; any exception or failed check fails it."""
        self.attempted += 1
        before = self.program_s
        try:
            return body()
        except Exception as exc:  # the failure is the measurement
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.op_times.append((name, self.program_s - before))

    def check(self, name, result):
        self.op(name, lambda: expect(result))

    def call(self, fn, *args):
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.program_s += time.perf_counter() - t

    def cli(self, argv, keep=None):
        """qhr.cli.main in-process; returns stdout, raises on non-zero exit."""
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.qhr.cli.main(argv)
        finally:
            self.program_s += time.perf_counter() - t
        text = out.getvalue()
        self.bytes_out += len(text.encode())
        if keep:
            self.outputs[keep] = (argv, text)
        if rc != 0:
            raise RuntimeError(f"exit {rc}: {err.getvalue().strip()}")
        return text


# ---------------------------------------------------------------------------
# smile


def setup_smile(ctx):
    rng = np.random.default_rng([ctx.seed, 1])
    ctx.atm_y0 = float(rng.uniform(-0.10, -0.02))
    ctx.atm_seed = int(rng.integers(1, 2**31))
    ctx.flat_path = inputs.write_model(inputs.flat_doc(), ctx.workdir)


def surface(r, argv, keep=None):
    text = r.cli(argv, keep)
    cols = checks.table(text)
    fwd = {}
    for line in checks.parse_csv(text)[0]:
        if line.startswith("# forward"):
            parts = dict(tok.split("=") for tok in line.split()[2:])
            fwd[float(parts["T"])] = (float(parts["mean"]), float(parts["se"]))
    mats = sorted(set(cols["maturity"].tolist()))
    rows = []
    for t in mats:
        sel = cols["maturity"] == t
        strikes = np.exp(cols["log_moneyness"][sel])
        expect(checks.call_shape(strikes, cols["call"][sel]))
        rows.append({"t": t, "k": strikes, "ell": cols["log_moneyness"][sel],
                     "call": cols["call"][sel], "call_se": cols["call_se"][sel],
                     "put": cols["put"][sel], "ivol": cols["ivol"][sel],
                     "fwd": fwd[t]})
    return rows


def check_surface(r, label, rows, flat_vol=None):
    for row in rows:
        t = row["t"]
        mean, se = row["fwd"]
        r.check(f"{label} martingale T={t:.4g}", zband(mean, se, 1.0))
        r.check(f"{label} parity T={t:.4g}",
                checks.parity(row["call"], row["put"], row["k"], se))
        for j, k in enumerate(row["k"]):
            vol = row["ivol"][j]
            node = f"{label} node T={t:.4g} lnK={row['ell'][j]:+.3f}"
            r.check(node, checks.node_ivol(row["call"][j], row["put"][j],
                                           k, t, vol))
            if flat_vol is not None and not math.isnan(vol):
                r.check(node + " flat band",
                        checks.flat_vol_band(vol, row["call_se"][j], k, t,
                                             flat_vol))


def smile_part1(r, ctx):
    rows = r.op("smile MM3", lambda: surface(r, inputs.SMILE_MM3_ARGS, "mc"))
    if rows:
        check_surface(r, "MM3", rows)


def smile_part2(r, ctx):
    def atm():
        cols = checks.table(r.cli(
            ["atm", "--model", "M3", f"--y0={ctx.atm_y0!r}",
             "--seed", str(ctx.atm_seed), "--paths", str(inputs.ATM_PATHS)]))
        expect((np.all(np.isfinite(cols["atm_vol"])), "non-finite ATM vol"))
        return cols

    cols = r.op("atm M3", atm)
    if cols is not None:
        for t, skew in zip(cols["maturity"], cols["atm_skew"]):
            r.check(f"M3 skew T={t:.4g}", (skew < 0.0, f"skew {float(skew)!r}"))
    rows = r.op("smile flat", lambda: surface(
        r, ["smile", "--model", ctx.flat_path, "--grid", inputs.FLAT_GRID,
            "--seed", str(inputs.FLAT_SEED), "--paths", str(inputs.FLAT_PATHS)]))
    if rows:
        check_surface(r, "flat", rows, flat_vol=inputs.FLAT_VOL)


# ---------------------------------------------------------------------------
# stationary


def setup_stationary(ctx):
    rng = np.random.default_rng([ctx.seed, 2])
    ctx.sim_seed, ctx.cov_seed, ctx.direct_seed = (
        int(v) for v in rng.integers(1, 2**31, 3))
    ctx.docs = {name: bundled_doc(name) for name in ("MM1", "M2")}
    ctx.m2 = ctx.qhr.load_fixture("M2")
    ctx.mm1 = ctx.qhr.load_fixture("MM1")


def stationary_part1(r, ctx):
    lam, b, alpha, beta, gamma = inputs.raw_params(ctx.docs["MM1"])
    s2_ref = checks.stationary_variance(lam, b, alpha, gamma)
    probes = ",".join(repr(t) for t in inputs.SIM_PROBES)
    cols = r.op("simulate MM1", lambda: checks.table(r.cli(
        ["simulate", "--model", "MM1", "--y0", "stationary", "--grid", probes,
         "--paths", str(inputs.SIM_PATHS), "--seed", str(ctx.sim_seed)],
        "mc")))
    if cols is not None:
        for i, t in enumerate(cols["t"]):
            r.check(f"MM1 martingale t={t:g}",
                    zband(cols["mean_exp_x"][i], cols["se_exp_x"][i], 1.0))
            r.check(f"MM1 stationary variance t={t:g}",
                    zband(cols["mean_sigma2"][i], cols["se_sigma2"][i], s2_ref))
    r.op("diagnostics MM1", lambda: expect(close(
        r.call(ctx.qhr.diagnostics, ctx.mm1).sigma_infty ** 2, s2_ref, 1e-10)))


def stationary_part2(r, ctx):
    """M2: one factor, beta = 0; closed forms and squared increments."""
    qhr = ctx.qhr
    lam, _, alpha, beta, gamma = inputs.raw_params(ctx.docs["M2"])
    lam, beta, gamma = float(lam[0, 0]), float(beta[0]), float(gamma[0, 0])
    m2, m3, m4, s2, kurt = checks.scalar_closed_forms(lam, alpha, beta, gamma)
    sys_ = r.op("build M2", lambda: r.call(qhr.build_moment_system, ctx.m2))

    def summary():
        s = r.call(qhr.stationary_summary, sys_, ctx.m2)
        expect(close(s.sigma2_infty, s2, 1e-12))
        expect(close(s.kurt_infty, kurt, 1e-10))

    r.op("stationary_summary M2", summary)
    sp = qhr.ScalarParams.from_model_params(ctx.m2)
    r.op("scalar_closed_moments M2", lambda: [
        expect(close(v, ref, 1e-12, 1e-300)) for v, ref in
        zip(r.call(qhr.scalar_closed_moments, sp), (m2, m3, m4))])
    r.op("scalar_kurtosis M2", lambda: expect(close(
        r.call(qhr.scalar_kurtosis, sp), kurt, 1e-12)))

    win = inputs.SQ_WINDOW
    spy = inputs.SQ_STEPS_PER_YEAR
    init = qhr.StationaryInit(burn_in=inputs.SQ_BURN_IN)
    cov_cfg = qhr.McConfig(n_paths=inputs.SQ_COV_PATHS, horizon=win,
                           seed=ctx.cov_seed, steps_per_year=spy,
                           antithetic=False, y0=init)
    est = r.op("estimate_cov_eta_xi2 M2", lambda: r.call(
        qhr.estimate_cov_eta_xi2, ctx.m2, win, cov_cfg))
    horizon = win + max(inputs.SQ_LAGS)
    sim_cfg = qhr.McConfig(n_paths=inputs.SQ_DIRECT_PATHS, horizon=horizon,
                           seed=ctx.direct_seed, steps_per_year=spy,
                           antithetic=False, y0=init)
    marks = sorted({0.0, win} | {h for h in inputs.SQ_LAGS}
                   | {h + win for h in inputs.SQ_LAGS})

    def direct():
        batch = r.call(qhr.simulate, ctx.m2, sim_cfg, marks[:-1])
        return {t: batch.xi(batch.time_index(t)) for t in marks}

    xi = r.op("simulate M2 squared increments", direct)
    # eta = (y, y^2): m' = a - A m with A = [[lam, 0], [-2 beta, 2 lam - gamma]]
    a_t = np.array([[lam, 0.0], [-2.0 * beta, 2.0 * lam - gamma]])
    g = np.array([2.0 * beta, gamma])
    for h in inputs.SQ_LAGS:
        if est is None or sys_ is None:
            continue
        cov, cov_se = est
        weights = g @ expm(-a_t * h) @ np.linalg.solve(a_t, expm(a_t * win)
                                                        - np.eye(2))

        def autocov():
            ana = r.call(qhr.squared_increment_autocov, sys_, cov, win, h)
            expect(close(ana, float(weights @ cov), 1e-9, 1e-300))
            return ana

        ana = r.op(f"squared_increment_autocov h={h:.4g}", autocov)
        if ana is None or xi is None:
            continue
        first = (xi[win] - xi[0.0]) ** 2
        second = (xi[h + win] - xi[h]) ** 2
        u, v = first - first.mean(), second - second.mean()
        n = u.size
        est_direct = float(np.mean(u * v)) * n / (n - 1.0)
        se = math.hypot(float(np.sqrt(np.sum((weights * cov_se) ** 2))),
                        float(np.std(u * v, ddof=1)) / math.sqrt(n))
        r.check(f"M2 squared increments h={h:.4g}", zband(ana, se, est_direct))


# ---------------------------------------------------------------------------
# analytics


def bundled_doc(name):
    with open(os.path.join(SRC, "qhr", "models", name + ".json")) as fh:
        return json.load(fh)


def setup_analytics(ctx):
    rng = np.random.default_rng([ctx.seed, 3])
    ctx.passes = []
    bundled = []
    for name in inputs.BUNDLED:
        bundled.append((name, name, bundled_doc(name), True))
    generated = []
    for p, cascade in inputs.HIGHP:
        doc = inputs.generated_model(rng, p, cascade)
        generated.append((doc["label"], inputs.write_model(doc, ctx.workdir),
                          doc, False))
    r4 = inputs.r4_doc()
    generated.append(("R4", inputs.write_model(r4, ctx.workdir), r4, True))
    for group in (bundled, generated):
        models = []
        for label, spec, doc, curves in group:
            raw = inputs.raw_params(doc)
            p = raw[0].shape[0]
            models.append({
                "label": label, "spec": spec, "doc": doc, "raw": raw, "p": p,
                "curves": curves,
                "params": (ctx.qhr.load_fixture(label) if spec == label
                           else ctx.qhr.load_model(spec)),
                "states": inputs.displaced_states(rng, p)})
        ctx.passes.append(models)
    ctx.curve_grid = np.geomspace(1e-3, 5.0, inputs.CURVE_POINTS)


def analytics_model(r, ctx, m):
    qhr = ctx.qhr
    label, spec, p = m["label"], m["spec"], m["p"]
    lam, b, alpha, beta, gamma = m["raw"]
    s2_ref = checks.stationary_variance(lam, b, alpha, gamma)
    doc = m["doc"]
    floor_ref = (checks.rank_one_floor(alpha, doc["beta0"], doc["gamma0"])
                 if "gamma0" in doc else
                 checks.variance_floor(alpha, beta, gamma))

    def validate():
        out = r.cli(["validate", "--model", spec])
        expect((out.rstrip().endswith("result: OK"), out.splitlines()[-1]))

    r.op(f"validate {label}", validate)
    sys_ = r.op(f"build {label}", lambda: r.call(qhr.build_moment_system,
                                                 m["params"]))
    if sys_ is None:
        return None
    om = r.op(f"omega {label}", lambda: r.call(qhr.omega, sys_))
    y0 = m["states"][0]
    for t in inputs.CM_HORIZONS[p]:
        def cond(t=t):
            mom = r.call(qhr.conditional_moments, sys_, y0, t)
            expect(close_vec(mom[:p], expm(-lam * t) @ y0, 1e-9))
        r.op(f"conditional_moments {label} t={t:g}", cond)
    c0 = None
    for s in inputs.AUTOCOV_LAGS:
        def autocov(s=s):
            c = r.call(qhr.variance_autocov, sys_, om, s)
            if c0 is not None:
                expect((abs(c) <= c0 * (1 + 1e-9), f"|c({s})| = {c!r} > c(0)"))
            return c
        c = r.op(f"variance_autocov {label} s={s:g}", autocov)
        if s == 0.0:
            c0 = c
    if p == 1 and c0 is not None:
        _, _, _, s2, kurt = checks.scalar_closed_forms(
            lam[0, 0], alpha, beta[0], gamma[0, 0])
        r.check(f"{label} var(sigma^2) closed form",
                close(c0, (kurt - 1.0) * s2 * s2, 1e-9))

    if m["curves"]:
        slow = checks.slowest_rate(lam, b, gamma)
        far = FAR_DECAYS / slow
        grid = ",".join(repr(float(v)) for v in
                        [0.0, *ctx.curve_grid, far])
        states = [f"--y0={','.join(repr(float(v)) for v in y)}"
                  for y in m["states"]]

        def curves():
            cols = checks.table(r.cli(["curves", "--model", spec,
                                       f"--grid={grid}", *states]))
            for i, y in enumerate(m["states"]):
                expect(close(cols[f"vol_y0_{i + 1}"][0] ** 2,
                             checks.variance_at(alpha, beta, gamma, y), 1e-9))
            expect(close(cols["vol_forward"][0] ** 2, alpha, 1e-9))
            expect(close(cols["vol_min"][0] ** 2, floor_ref, 1e-8, 1e-14))
            vmin = cols["vol_min"]
            for name in cols:
                if name.startswith("vol_") and name != "vol_min":
                    expect((np.all(vmin <= cols[name] * (1 + 1e-9) + 1e-12),
                            f"vol_min above {name}"))
                    expect(close(cols[name][-1] ** 2, s2_ref, 1e-7))

        r.op(f"curves {label}", curves)

    def pca():
        text = r.cli(["pca", "--model", spec,
                      "--grid=" + ",".join(repr(float(v)) for v in
                                           [0.0, *ctx.curve_grid])])
        cols = checks.table(text)
        pcs = [name for name in cols if name.startswith("pc")]
        var0 = sum(float(cols[name][0]) ** 2 for name in pcs)
        if c0 is not None:
            expect(close(var0, c0, pca_rtol(p)))

    r.op(f"pca {label}", pca)
    if p == 1:
        def density():
            cols = checks.table(r.cli(["density", "--model", spec]))
            mass = checks.trapezoid_mass(cols["y"], cols["pdf"])
            expect(close(mass, cols["cdf"][-1] - cols["cdf"][0], 1e-5))
            if "student_t_pdf" in cols:
                expect(close_vec(cols["pdf"], cols["student_t_pdf"], 1e-9))
        r.op(f"density {label}", density)
    return {"s2": s2_ref, "floor": floor_ref, "c0": c0}


def pca_rtol(p):
    """The pivoted-Cholesky rank cut (1e-10 of the trace) loses up to about
    1e-4 of the variance on generated models with p >= 3, 4e-8 on MM5."""
    return 1e-6 if p <= 2 else 1e-3


def close_vec(values, ref, rtol):
    values = np.asarray(values, float)
    ref = np.asarray(ref, float)
    err = float(np.max(np.abs(values - ref)))
    scale = float(np.max(np.abs(ref)))
    return err <= rtol * scale + 1e-15, f"max error {err:.3e} of {scale:.3e}"


def analytics_pass(r, ctx, models):
    refs = [analytics_model(r, ctx, m) for m in models]

    def diagnostics():
        cols = checks.table(r.cli(["diagnostics", "--format", "csv", "--model",
                                   *[m["spec"] for m in models]]))
        for i, ref in enumerate(refs):
            if ref is None:
                continue
            expect(close(cols["sigma_infty"][i] ** 2, ref["s2"], 1e-9))
            expect(close(cols["sigma_min"][i] ** 2, max(ref["floor"], 0.0),
                         1e-8, 1e-14))
            if ref["c0"] is not None:
                expect(close((cols["kurt_infty"][i] - 1.0) * ref["s2"] ** 2,
                             ref["c0"], 1e-8))

    r.op("diagnostics " + ",".join(m["label"] for m in models), diagnostics)


def bundled_pass(r, ctx):
    analytics_pass(r, ctx, ctx.passes[0])


def generated_pass(r, ctx):
    analytics_pass(r, ctx, ctx.passes[1])


# name: (set-up, the steps of a round as (part, function)).  The bundled
# pass takes about 2 s against 14 s for the p = 3..6 pass, so an analytics
# round runs it three times, which gives part1_s six samples in the two
# rounds a run makes.
WORKLOADS = {
    "smile": (setup_smile, (("part1_s", smile_part1),
                            ("part2_s", smile_part2))),
    "stationary": (setup_stationary, (("part1_s", stationary_part1),
                                      ("part2_s", stationary_part2))),
    "analytics": (setup_analytics, (("part1_s", bundled_pass),
                                    ("part1_s", bundled_pass),
                                    ("part2_s", generated_pass),
                                    ("part1_s", bundled_pass))),
}


# ---------------------------------------------------------------------------
# set-up, rounds and the result line


def import_qhr():
    sys.path.insert(0, SRC)
    import qhr
    import qhr.cli
    origin = os.path.realpath(qhr.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"qhr imported from {origin}, not from {SRC}")
    return qhr


def one_round(qhr, ctx, steps, tracer=None):
    """Run the steps of one round.  Returns the runner, the round's wall
    time and, per step, (part, {operation: seconds inside qhr}).  Every
    call into qhr is made inside an operation."""
    r = Runner(qhr)
    samples = []
    if tracer is not None:
        tracer.clear()
        tracer.install(qhr)
    t = time.perf_counter()
    try:
        for part, step in steps:
            first = len(r.op_times)
            step(r, ctx)
            ops, seen = {}, {}
            for name, secs in r.op_times[first:]:
                seen[name] = seen.get(name, 0) + 1
                ops[f"{name} #{seen[name]}"] = secs
            samples.append((part, ops))
    finally:
        wall = time.perf_counter() - t
        if tracer is not None:
            tracer.uninstall()
    return r, wall, samples


def part_time(samples):
    """A part's time: the sum over its operations of each one's median time
    over the samples.  A burst of load on the shared machine lengthens a few
    operations of one sample, and the per-operation median drops it, where
    the median of whole-part totals would keep part of it."""
    keys = dict.fromkeys(k for ops in samples for k in ops)
    return sum(statistics.median(ops[k] for ops in samples if k in ops)
               for k in keys)


def threads1_rerun(qhr, runner):
    """Rerun the round's first Monte Carlo subcommand at QHR_THREADS=1.

    Returns (ns per path-step, output byte-identical to the default-thread
    run), or None when the round ran no Monte Carlo subcommand."""
    if "mc" not in runner.outputs:
        return None
    argv, text = runner.outputs["mc"]
    tracer = layers.make_tracer()
    before = os.environ.get("QHR_THREADS")
    os.environ["QHR_THREADS"] = "1"
    tracer.install(qhr)
    try:
        out = Runner(qhr).cli(argv)
    finally:
        tracer.uninstall()
        if before is None:
            del os.environ["QHR_THREADS"]
        else:
            os.environ["QHR_THREADS"] = before
    return layers.ns_per_path_step(tracer), out == text


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    qhr = import_qhr()
    setup, steps = WORKLOADS[args.workload]
    ctx = types.SimpleNamespace(qhr=qhr, seed=args.seed, workdir=args.workdir)
    setup(ctx)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # An untimed, uncounted first step takes the first-call costs (lazy
    # imports, LAPACK and thread-pool start-up).
    steps[0][1](Runner(qhr), ctx)
    outcomes = []
    walls, layer_rounds = {False: [], True: []}, []
    samples = {part: [] for part, _ in steps}
    tracer = layers.make_tracer() if args.trace else None
    # At least two rounds, so that wall_s is never a single sample; with
    # --trace 1 rounds alternate untraced/traced, at least one of each.
    t0 = time.perf_counter()
    while len(outcomes) < 2 or time.perf_counter() - t0 < args.seconds:
        traced = bool(args.trace) and len(outcomes) % 2 == 1
        r, wall, round_samples = one_round(qhr, ctx, steps,
                                           tracer if traced else None)
        walls[traced].append(wall)
        if not traced:
            for part, ops in round_samples:
                samples[part].append(ops)
        outcomes.append((r.attempted, tuple(r.failures)))
        if traced:
            layer_rounds.append(layers.round_metrics(tracer, r))
            last_traced = r
            with open(os.path.join(args.workdir,
                                   f"trace-{args.workload}.json"), "w") as fh:
                json.dump(tracer.as_records(), fh)
    result = {
        "rounds": len(outcomes),
        "attempted": sum(a for a, _ in outcomes),
        "failed": sum(len(f) for _, f in outcomes),
        "failures": list(outcomes[0][1]),
        "consistent": len(set(outcomes)) == 1,
        "times": {"wall_s": walls[False],
                  **{part: [sum(ops.values()) for ops in v]
                     for part, v in samples.items()}},
        "parts": {part: part_time(v) for part, v in samples.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        metrics = layers.average(layer_rounds)
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
        rerun = threads1_rerun(qhr, last_traced)
        metrics["mc.ns_per_path_step.threads1"] = rerun[0] if rerun else 0.0
        result["threads1_identical"] = rerun[1] if rerun else True
        result["layers"] = metrics
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
