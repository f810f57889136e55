"""High-precision references for the curves and pca goldens and for the
Pearson IV quantiles.

    python tests/highprec_reference.py [--curves CSV] [--pca CSV]
    python tests/highprec_reference.py --pearson

Rebuilds, in mpmath at 50 digits and from the same float inputs (the
bundled model's parameters and the t column of each file), every cell of
`qhr curves --model MM3 --y0=0.08,0.03 --y0=-0.05,0.02` and of
`qhr pca --model MM1`, and every value pinned by
test_cli.py::TestGoldenAgainstHighPrecision.  Nothing of qhr's numerics is
used: the moment matrix comes from the generator applied to one monomial at
a time, the stationary moments from an LU solve, the loading curve from
mpmath's matrix exponential, the slice minimum from the eigenpairs of the
quadratic loading, and F = integral of psi psi' from the Kronecker form of
the Lyapunov equation.  For each column it prints the worst relative error
of the given files (default: the goldens) and the number of cells above
1e-15; then the largest relative gap between the pinned values and their
references.  Takes about 7 s on a 2-core machine.

With --pearson it instead rebuilds, at 40 digits, the exact quantiles
pinned by test_scalar.py::PEARSON_QUANTILES: the tail masses are integrals
of the density in y itself (not in qhr's angle variable), split at
doubling multiples of the local scale, and each quantile is a damped Newton
root in the log distance to the mode.  An upper-tail u pins the quantile of
the exact upper mass 1 - u of the float u.  It prints the table to paste
and the largest gap, as a share of the tail mass, between the pinned
values and the references.  Then, for M1-M4 and the three skewed laws, it
prints the relative error of PearsonIV's angle normaliser
I = int cos(t)^a exp(nu t) dt, from the tail rule's log Z at the mode
(test_scalar.py::tail_rule_log_i), against its closed form at 40 digits
(test_scalar.py::closed_form_log_i), and the largest relative error of
`pdf` at the quantiles 1e-10 ... 1 - 1e-10 against the density at 50
digits (test_scalar.py::logpdf_error).  Takes about three minutes on a
2-core machine.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from qhr import model, scalar  # noqa: E402  (float inputs, --pearson I)

mp.mp.dps = 50

CURVES_STATES = ((0.08, 0.03), (-0.05, 0.02))


def exponents(p, degree):
    """Monomial exponents of degree 1..degree, degree by degree and within a
    degree in lexicographic order of the sorted index tuple."""
    out = []
    for k in range(1, degree + 1):
        for idx in itertools.combinations_with_replacement(range(p), k):
            out.append(tuple(idx.count(i) for i in range(p)))
    return out


def _add(poly, e, c):
    poly[e] = poly.get(e, mp.mpf(0)) + c


def generator(params, e):
    """L y^e as {exponent: coefficient}, for dy = -lam y dt + sigma(y) b dW
    with sigma^2(y) = alpha + 2 beta'y + y'Gamma y."""
    p = len(e)
    lam = [[mp.mpf(float(x)) for x in row] for row in params.lam]
    b = [mp.mpf(float(x)) for x in params.b]
    unit = [tuple(int(i == j) for j in range(p)) for i in range(p)]

    def shift(e, *moves):
        out = list(e)
        for i, d in moves:
            out[i] += d
        return tuple(out)

    sigma2 = {tuple([0] * p): mp.mpf(float(params.alpha))}
    for i in range(p):
        _add(sigma2, unit[i], 2 * mp.mpf(float(params.beta[i])))
        for j in range(p):
            _add(sigma2, shift(unit[i], (j, 1)),
                 mp.mpf(float(params.gamma_mat[i, j])))
    out = {}
    for i in range(p):
        if e[i]:
            for l in range(p):
                _add(out, shift(e, (i, -1), (l, 1)), -e[i] * lam[i][l])
    for i in range(p):
        for j in range(p):
            k = e[i] * (e[j] - (i == j))
            if k <= 0:
                continue
            base = shift(e, (i, -1), (j, -1))
            for f, c in sigma2.items():
                _add(out, tuple(x + y for x, y in zip(base, f)),
                     mp.mpf(0.5) * b[i] * b[j] * k * c)
    return out


class Reference:
    """The moment system of one model, in 50 digits."""

    def __init__(self, params):
        p = params.p
        self.params = params
        self.expo = exponents(p, 4)
        row = {e: i for i, e in enumerate(self.expo)}
        n = len(self.expo)
        self.a = mp.zeros(n, n)
        source = mp.zeros(n, 1)
        for i, e in enumerate(self.expo):
            for f, c in generator(params, e).items():
                if sum(f) == 0:
                    source[i] += c
                else:
                    self.a[i, row[f]] -= c
        self.m_infty = mp.lu_solve(self.a, source)
        self.row = row
        self.n_eta = p + p * (p + 1) // 2
        self.eta = self.expo[:self.n_eta]
        self.g = mp.matrix([self._sigma2_coefficient(e) for e in self.eta])
        self.a_tilde = self.a[:self.n_eta, :self.n_eta]
        self.eta_infty = mp.matrix([self.m_infty[i]
                                    for i in range(self.n_eta)])
        self.sigma2_infty = (mp.mpf(float(params.alpha))
                             + _dot(self.g, self.eta_infty))

    def _sigma2_coefficient(self, e):
        par = self.params
        idx = [i for i, k in enumerate(e) for _ in range(k)]
        if len(idx) == 1:
            return 2 * mp.mpf(float(par.beta[idx[0]]))
        i, j = idx
        if i == j:
            return mp.mpf(float(par.gamma_mat[i, i]))
        return mp.mpf(float(par.gamma_mat[i, j])) + mp.mpf(
            float(par.gamma_mat[j, i]))

    def psi(self, s):
        """e^{-A~'s} g."""
        return mp.expm(-self.a_tilde.T * mp.mpf(s)) * self.g

    def monomials(self, y):
        y = [mp.mpf(float(v)) for v in y]
        return mp.matrix([mp.fprod(v ** k for v, k in zip(y, e))
                          for e in self.eta])

    def omega(self):
        """Stationary covariance of eta."""
        n = self.n_eta
        out = mp.zeros(n, n)
        for i, e in enumerate(self.eta):
            for j, f in enumerate(self.eta):
                both = tuple(x + y for x, y in zip(e, f))
                out[i, j] = (self.m_infty[self.row[both]]
                             - self.eta_infty[i] * self.eta_infty[j])
        return out

    def gram(self):
        """F with A~'F + F A~ = g g', by its Kronecker form."""
        n = self.n_eta
        at = self.a_tilde.T
        big = mp.zeros(n * n, n * n)
        rhs = mp.zeros(n * n, 1)
        for i in range(n):
            for j in range(n):
                r = i * n + j
                rhs[r] = self.g[i] * self.g[j]
                for k in range(n):
                    big[r, k * n + j] += at[i, k]
                    big[r, i * n + k] += self.a_tilde[k, j]
        vec = mp.lu_solve(big, rhs)
        return mp.matrix([[vec[i * n + j] for j in range(n)]
                          for i in range(n)])


def _dot(u, v):
    return mp.fsum(u[i] * v[i] for i in range(len(u)))


def curves_row(ref, s):
    """(vol_y0_1, vol_y0_2, vol_forward, vol_min) at horizon s."""
    p = ref.params.p
    psi = ref.psi(s)
    vols = []
    for y0 in CURVES_STATES:
        diff = ref.monomials(y0) - ref.eta_infty
        vols.append(mp.sqrt(max(ref.sigma2_infty + _dot(psi, diff), 0)))
    v0 = ref.sigma2_infty - _dot(psi, ref.eta_infty)
    quad = mp.zeros(p, p)
    for k, e in enumerate(ref.eta[p:]):
        i, j = [i for i, c in enumerate(e) for _ in range(c)]
        quad[i, j] += psi[p + k] / (1 if i == j else 2)
        if i != j:
            quad[j, i] += psi[p + k] / 2
    mu, vecs = mp.eigsy(quad)
    depth = 0
    for k in range(p):
        c = mp.fsum(vecs[i, k] * psi[i] for i in range(p))
        if mu[k] > mp.mpf(10) ** -40 * max(abs(x) for x in mu):
            depth += c * c / mu[k]
    vols.append(mp.sqrt(v0))
    vols.append(mp.sqrt(max(v0 - depth / 4, 0)))
    return vols


def pca_reference(ref):
    """Component variances and the map psi -> scaled factor curves u_i
    sqrt(lambda_i) = W_i' L' psi, Omega = L L'."""
    w, v = mp.eigsy(ref.omega())
    n = ref.n_eta
    low = mp.zeros(n, n)
    for k in range(n):
        root = mp.sqrt(max(w[k], 0))
        for i in range(n):
            low[i, k] = v[i, k] * root
    core = low.T * ref.gram() * low
    vals, vecs = mp.eigsy((core + core.T) / 2)
    order = sorted(range(n), key=lambda k: -vals[k])
    keep = [k for k in order if vals[k] > n * mp.mpf(2) ** -52 * vals[order[0]]]
    rows = (vecs.T * low.T)
    return [vals[k] for k in keep], [rows[k, :] for k in keep]


def read_csv(path):
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return comments, header, rows


def rel(got, ref):
    ref = mp.mpf(ref)
    if ref == 0:
        return float(abs(mp.mpf(got)))
    return float(abs((mp.mpf(got) - ref) / ref))


def report(name, header, rows, refs):
    for c, col in enumerate(header[1:]):
        errs = [rel(row[c + 1], r[c]) for row, r in zip(rows, refs)]
        worst = max(range(len(errs)), key=errs.__getitem__)
        above = sum(e > 1e-15 for e in errs)
        print(f"{name} {col:12s} worst {errs[worst]:.2e} (row {worst}); "
              f"{above} of {len(errs)} cells above 1e-15")


def pinned(curves, pca):
    """Largest relative gap between TestGoldenAgainstHighPrecision's values
    and their references."""
    sys.path.insert(0, HERE)
    from test_cli import TestGoldenAgainstHighPrecision as cls
    gap = max(rel(x, r) for i, vals in cls.CURVES
              for x, r in zip(vals, curves[i]))
    print(f"pinned curves cells: largest gap {gap:.2e}")
    variances, pcs = pca
    gap = max(rel(x, r) for x, r in zip(cls.VARIANCES, variances))
    print(f"pinned pca variances: largest gap {gap:.2e}")
    gap = max(rel(x, abs(r)) for i, vals in cls.PCA
              for x, r in zip(vals, pcs[i]))
    print(f"pinned pca cells: largest gap {gap:.2e}")


class PearsonLaw:
    """The stationary law of dy = -lam y dt + sigma(y) dW, p = 1, in y."""

    def __init__(self, lam, alpha, beta, gamma):
        lam, alpha, beta, gamma = (mp.mpf(v) for v in (lam, alpha, beta,
                                                        gamma))
        self.coef = alpha, beta, gamma
        self.sqd = mp.sqrt(alpha * gamma - beta ** 2)
        self.nu = 2 * lam * beta / (gamma * self.sqd)
        self.power = -lam / gamma - 1
        self.mode = -beta / (lam + gamma)
        self.sd = mp.sqrt(alpha / (2 * lam))
        self.top = self.logp(self.mode)
        self.total = self.tail(self.mode, -1) + self.tail(self.mode, 1)

    def logp(self, y):
        """Log density, up to a constant."""
        alpha, beta, gamma = self.coef
        return (self.power * mp.log(alpha + 2 * beta * y + gamma * y * y)
                + self.nu * mp.atan((beta + gamma * y) / self.sqd))

    def tail(self, y, side):
        """Mass of exp(logp - logp(mode)) below y (side -1) or above it
        (side 1)."""
        alpha, beta, gamma = self.coef
        z = (beta + gamma * y) / self.sqd
        slope = (2 * self.power * (beta + gamma * y)
                 / (alpha + 2 * beta * y + gamma * y * y)
                 + self.nu * gamma / self.sqd / (1 + z * z))
        # the local scale: near the mode, the Gaussian's or the slope's; in
        # a power-law tail, the distance over which the log density drops
        # by about 1/2 (without it, 200 doublings of sd fall short of y at
        # u = 1e-300)
        h = max(1 / (abs(slope) + 1 / self.sd),
                abs(y - self.mode) / (-4 * self.power))
        ref = self.logp(y)
        pts = [y]
        while self.logp(pts[-1]) > ref - 120 and len(pts) < 200:
            pts.append(y + side * h * 2 ** (len(pts) - 1))
        # mp.quad's tolerance is absolute: integrate relative to the density
        # at y and in units of h, so that the integral is of order 1 (a
        # tail of 1e-100 would otherwise be lost in the 1e-40 tolerance)
        return h * mp.exp(ref - self.top) * mp.quad(
            lambda x: mp.exp(self.logp(x) - ref) / h,
            sorted(pts + [side * mp.inf]))

    def quantile(self, u):
        """The y below which the float u of the mass lies: from the upper
        tail, of exact mass 1 - u, above the mode."""
        lower = self.tail(self.mode, -1) / self.total
        side, mass = (-1, mp.mpf(u)) if u <= lower else (1, 1 - mp.mpf(u))
        goal = mp.log(mass * self.total)
        w = mp.log(self.sd * mp.sqrt(2 * max(-mp.log(2 * mass), 1)))
        for _ in range(200):
            y = self.mode + side * mp.exp(w)
            m = self.tail(y, side)
            slope = -mp.exp(self.logp(y) - self.top + w) / m
            step = max(min(-(mp.log(m) - goal) / slope, 2), -2)
            w += step
            if abs(step) < mp.mpf(10) ** (8 - mp.mp.dps):
                break
        return self.mode + side * mp.exp(w)


def pearson():
    """Rebuild test_scalar.py::PEARSON_QUANTILES."""
    sys.path.insert(0, HERE)
    from test_scalar import (PEARSON_QUANTILES, closed_form_log_i,
                             logpdf_error, tail_rule_log_i)
    worst = 0.0
    print("PEARSON_QUANTILES = {")
    for label, (params, pins) in PEARSON_QUANTILES.items():
        with mp.workdps(40):
            law = PearsonLaw(*params)
            print(f'    "{label}": ({params!r}, (')
            for u, y in pins:
                ref = law.quantile(u)
                print(f"        ({u!r}, {float(ref)!r}),")
                # the gap in mass: density times distance, over the tail
                tail = min(mp.mpf(u), 1 - mp.mpf(u))
                gap = (mp.exp(law.logp(ref) - law.top) / law.total
                       * abs(mp.mpf(y) - ref) / tail)
                worst = max(worst, float(gap))
            print("    )),")
    print("}")
    print(f"pinned Pearson quantiles: largest gap {worst:.2e} of the tail")
    laws = {name: scalar.ScalarParams.from_model_params(
        model.load_fixture(name)) for name in ("M1", "M2", "M3", "M4")}
    laws.update((label, scalar.ScalarParams(*params))
                for label, (params, _) in PEARSON_QUANTILES.items()
                if label.startswith("gamma/lam"))
    for label, sp in laws.items():
        law = scalar.PearsonIV(sp)
        with mp.workdps(40):
            err = float(abs(mp.expm1(tail_rule_log_i(law) - closed_form_log_i(
                law._a, law._nu))))
        print(f"normaliser {label:<16} a = {law._a:<9.4g} error {err:.2e}"
              f"  pdf error {logpdf_error(law):.2e}")


def main(argv=None):
    golden = os.path.join(HERE, "golden")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--curves", default=os.path.join(golden,
                                                         "curves_mm3.csv"))
    parser.add_argument("--pca", default=os.path.join(golden, "pca_mm1.csv"))
    parser.add_argument("--pearson", action="store_true",
                        help="rebuild the pinned Pearson IV quantiles")
    args = parser.parse_args(argv)
    if args.pearson:
        pearson()
        return

    _, header, rows = read_csv(args.curves)
    ref = Reference(model.load_fixture("MM3"))
    curves = [curves_row(ref, row[0]) for row in rows]
    report("curves", header, rows, curves)

    comments, header, rows = read_csv(args.pca)
    ref = Reference(model.load_fixture("MM1"))
    variances, maps = pca_reference(ref)
    got = [float(c.split("=")[1]) for c in comments if "variance" in c]
    for k, (x, r) in enumerate(zip(got, variances)):
        print(f"pca    variance {k + 1}   error {rel(x, r):.2e}")
    psis = [ref.psi(row[0]) for row in rows]
    pcs = [[_dot(m, psi) for m in maps] for psi in psis]
    # the sign of a component is a convention: compare magnitudes
    report("pca", header, [[r[0]] + [abs(x) for x in r[1:]] for r in rows],
           [[abs(x) for x in pc] for pc in pcs])
    pinned(curves, (variances, pcs))


if __name__ == "__main__":
    main()
