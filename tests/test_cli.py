"""Command line behaviour: exit codes, output layout, determinism."""

import argparse
import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from qhr import __version__, cli, mc, model, pricing

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_model(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# lam = 3, alpha = 0.018, beta = 0, gamma = -0.5: not admissible
NEGATIVE_GAMMA = {"label": "neg", "lambda": [[3.0]], "b": [1.0],
                  "alpha": 0.018, "beta": [0.0], "gamma": [[-0.5]]}


class TestExitCodes:
    def test_version(self, capsys):
        rc, out, _ = run(capsys, "--version")
        assert rc == 0

    def test_missing_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_model_flag(self, capsys):
        assert run(capsys, "validate")[0] == 2

    def test_unknown_model(self, capsys):
        rc, _, err = run(capsys, "validate", "--model", "nosuchmodel")
        assert rc == 2
        assert "neither a file nor a bundled fixture" in err

    def test_invalid_model_file(self, capsys, tmp_path):
        path = write_model(tmp_path, "bad.json", {
            "lambda": [[6.0]], "b": [1.0], "alpha": -0.5, "beta": [0.0],
            "gamma": [[1.0]]})
        rc, out, _ = run(capsys, "validate", "--model", path)
        assert rc == 1
        assert "FAIL  alpha must be positive" in out
        assert "result: INVALID" in out

    def test_non_stationary_model(self, capsys, tmp_path):
        path = write_model(tmp_path, "hot.json", {
            "lambda": [[1.0]], "b": [1.0], "alpha": 0.01, "beta": [0.0],
            "gamma": [[1.2]]})
        rc, out, _ = run(capsys, "validate", "--model", path)
        assert rc == 1
        assert "result: NOT STATIONARY" in out
        rc, _, err = run(capsys, "curves", "--model", path,
                         "--grid", "0.1,1.0")
        assert rc == 1
        assert "error:" in err

    def test_model_name_without_json_suffix(self, capsys, tmp_path):
        path = write_model(tmp_path, "calm.json", {
            "lambda": [[6.0]], "b": [1.0], "alpha": 0.0133, "beta": [-0.18],
            "gamma": [[3.0]]})
        rc, out, _ = run(capsys, "validate", "--model", path[:-5])
        assert rc == 0
        assert out == run(capsys, "validate", "--model", path)[1]

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc, _, err = run(capsys, "validate", "--model", str(path))
        assert rc == 2
        assert "cannot parse model file" in err

    @pytest.mark.parametrize("argv", [
        ("curves", "--grid", "0:1:0"),
        ("pca", "--grid", "geom:0.01:1:0"),
        ("density", "--grid", "0:1:0"),
        ("simulate", "--paths", "100", "--grid", "0:1:0"),
        ("smile", "--paths", "100", "--grid", "T=0:1:0"),
        ("atm", "--paths", "100", "--grid", "T=0:1:0"),
        # a blank grid is not the default grid
        ("curves", "--grid", ""),
        ("simulate", "--paths", "100", "--grid", ""),
        ("smile", "--paths", "100", "--grid", ""),
        ("atm", "--paths", "100", "--grid", " ; "),
    ], ids=lambda argv: argv[0] + ("" if ":" in argv[-1] else "-blank"))
    def test_empty_grid(self, capsys, argv):
        rc, out, err = run(capsys, argv[0], "--model", "M1", *argv[1:])
        assert rc == 2
        assert out == ""
        assert "is empty" in err

    @pytest.mark.parametrize("argv", [
        pytest.param(("curves", "--grid", "nan"), id="curves"),
        pytest.param(("pca", "--grid", "0.5,inf"), id="pca"),
        pytest.param(("density", "--grid", "nan,0"), id="density"),
        pytest.param(("smile", "--grid", "T=nan,0.1;L=0"),
                     id="cli-maturity-nan"),
        pytest.param(("smile", "--grid", "T=0.1;L=0,nan"),
                     id="cli-log-moneyness-nan"),
        pytest.param(("atm", "--grid", "T=0.1,inf"),
                     id="cli-atm-maturity-inf"),
        pytest.param(("simulate", "--grid", "0,nan"), id="cli-probe-nan"),
        pytest.param(("simulate", "--grid", "0,inf"), id="cli-probe-inf"),
    ])
    def test_non_finite_grid_is_a_usage_error(self, capsys, monkeypatch,
                                              argv):
        def no_paths(*args):
            raise AssertionError("a path was simulated")

        monkeypatch.setattr(mc, "_euler_block", no_paths)
        paths = ("--paths", "100") if argv[0] in ("smile", "atm",
                                                  "simulate") else ()
        rc, out, err = run(capsys, argv[0], "--model", "M3", *paths,
                           *argv[1:])
        assert (rc, out) == (2, "")
        assert "non-finite entry" in err


class TestNonFiniteModel:
    @pytest.mark.parametrize("entry", [
        {"gamma": [[math.nan]]}, {"b": [math.nan]}, {"alpha": math.inf},
    ], ids=lambda entry: next(iter(entry)))
    @pytest.mark.parametrize("argv", [
        ("validate",), ("diagnostics",), ("curves",), ("pca",), ("density",),
        ("smile", "--paths", "64"), ("atm", "--paths", "64"),
        ("simulate", "--paths", "64"),
    ], ids=lambda argv: argv[0])
    def test_every_subcommand_exits_1(self, capsys, monkeypatch, tmp_path,
                                      entry, argv):
        # json reads NaN and Infinity, so a model file can hold them
        def no_paths(*args):
            raise AssertionError("a path was simulated")

        monkeypatch.setattr(mc, "_euler_block", no_paths)
        path = write_model(tmp_path, "bad.json", {
            "lambda": [[6.0]], "b": [1.0], "alpha": 0.0133, "beta": [-0.18],
            "gamma": [[3.0]], **entry})
        rc, out, err = run(capsys, argv[0], "--model", path, *argv[1:])
        assert (rc, out) == (1, "")
        assert "is not finite" in err


def _mc_config(**kw):
    return mc.McConfig(**{"n_paths": 100, "horizon": 0.1, "seed": 1, **kw})


def _price(maturities, log_moneyness=(0.0,)):
    return lambda params: pricing.price_options(params, pricing.OptionGrid(
        maturities=maturities, log_moneyness=log_moneyness), _mc_config())


def _burn_in(burn_in):
    return lambda params: mc.simulate(params, _mc_config(
        y0=mc.StationaryInit(burn_in=burn_in)))


class TestTimeInputs:
    """Every time is checked where mc snaps it to a step, and every strike
    where its OptionGrid is built, before any path is simulated: the
    library raises ConfigInvalidError naming the bad quantity, and the CLI
    exits 1 with empty stdout."""

    @pytest.mark.parametrize("call,name", [
        pytest.param(lambda p: mc.simulate(p, _mc_config(horizon=math.inf)),
                     "horizon", id="horizon-inf"),
        pytest.param(lambda p: mc.simulate(p, _mc_config(horizon=math.nan)),
                     "horizon", id="horizon-nan"),
        pytest.param(lambda p: mc.simulate(p, _mc_config(),
                                           probes=[math.nan]),
                     "probe", id="probe-nan"),
        pytest.param(_price((0.1, math.inf)), "maturity", id="maturity-inf"),
        pytest.param(_price((math.nan, 0.1)), "maturity", id="maturity-nan"),
        pytest.param(_price((0.001, 0.1)), "maturity 0.001 snaps to step 0",
                     id="maturity-step-0"),
        pytest.param(_price((0.1,), (0.0, math.nan)), "log_moneyness",
                     id="log-moneyness-nan"),
        pytest.param(_price((0.1,), (0.0, 800.0)), "log_moneyness 800.0",
                     id="log-moneyness-strike-inf"),
        pytest.param(_burn_in(math.inf), "burn-in", id="burn-in-inf"),
        pytest.param(_burn_in(math.nan), "burn-in", id="burn-in-nan"),
        pytest.param(_burn_in(0.001), "burn-in 0.001 snaps to step 0",
                     id="burn-in-step-0"),
        pytest.param(lambda p: mc.stationary_init(p, 0.001, _mc_config()),
                     "burn-in", id="stationary-init-step-0"),
        pytest.param(("smile", "--grid", "T=0.001,0.1;L=0"),
                     "maturity 0.001 snaps to step 0",
                     id="cli-maturity-step-0"),
        # e^-800 rounds to strike 0 and e^800 overflows to inf
        pytest.param(("smile", "--grid", "T=0.1;L=-800,0,800"),
                     "log_moneyness -800.0", id="cli-strike-zero-and-inf"),
        pytest.param(("simulate", "--grid", "0.001"),
                     "horizon 0.001 snaps to step 0", id="cli-horizon-step-0"),
    ])
    def test_rejected_before_any_path(self, capsys, monkeypatch, models,
                                      call, name):
        def no_paths(*args):
            raise AssertionError("a path was simulated")

        monkeypatch.setattr(mc, "_euler_block", no_paths)
        with warnings.catch_warnings():  # and no RuntimeWarning on the way
            warnings.simplefilter("error")
            if callable(call):
                with pytest.raises(mc.ConfigInvalidError, match=name):
                    call(models["M3"])
            else:
                rc, out, err = run(capsys, call[0], "--model", "M3",
                                   "--paths", "100", *call[1:])
                assert (rc, out) == (1, "")
                assert name in err


class TestGolden:
    @pytest.mark.parametrize("fname,argv", [
        ("validate_m1.txt", ("validate", "--model", "M1")),
        ("diagnostics_scalar.txt",
         ("diagnostics", "--model", "M1", "M2", "M3", "M4")),
        ("diagnostics_multi.txt",
         ("diagnostics", "--model", "MM1", "MM2", "MM3", "MM4", "MM5")),
        ("curves_mm3.csv",
         ("curves", "--model", "MM3", "--y0=0.08,0.03", "--y0=-0.05,0.02")),
        ("pca_mm1.csv", ("pca", "--model", "MM1")),
        ("diagnostics_csv.csv", ("diagnostics", "--format", "csv", "--model",
                                 "M1", "M3", "MM3", "MM5")),
        # M2 is symmetric, so its report has the Student column
        ("density_m2.csv", ("density", "--model", "M2")),
        ("density_m3.csv", ("density", "--model", "M3")),
    ])
    def test_matches_golden(self, capsys, fname, argv):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        with open(os.path.join(GOLDEN, fname)) as fh:
            assert out == fh.read()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("fname,argv", [
        # T = 0.25 is 62.5 steps, a tie that snaps to step 62 (0.248)
        ("smile_mm3.csv", ("smile", "--model", "MM3", "--paths", "8192",
                           "--grid", "T=0.25,0.5;L=-0.1,0,0.1")),
        ("smile_mm3_table.txt", ("smile", "--model", "MM3", "--paths", "8192",
                                 "--grid", "T=0.25,0.5;L=-0.1,0,0.1",
                                 "--format", "table")),
        ("atm_m3.csv", ("atm", "--model", "M3", "--y0=-0.05", "--paths",
                        "8192", "--grid", "T=0.25,0.5;eps=0.01")),
        # eps below 1e-9, the ATM nodes' old acceptance distance
        ("atm_m3_eps1e-10.csv", ("atm", "--model", "M3", "--paths", "8192",
                                 "--grid", "T=0.25,0.5;eps=1e-10")),
        # 8194 paths: the last block holds 2
        ("simulate_mm1.csv", ("simulate", "--model", "MM1", "--y0",
                              "stationary", "--paths", "8194", "--grid",
                              "0,0.5")),
    ])
    def test_monte_carlo_matches_golden(self, capsys, monkeypatch, fname,
                                        argv, threads):
        monkeypatch.setenv("QHR_THREADS", threads)
        self.test_matches_golden(capsys, fname, argv)


def csv_rows(table):
    """The lines _csv writes for the rows of a table."""
    lines = cli._csv([], None, [], "header", table)
    return lines[lines.index("header") + 1:]


def data_rows(text):
    """Numeric rows of a CSV after its # lines and header."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


class TestGoldenAgainstHighPrecision:
    """Sampled cells of the curves and pca goldens against references
    computed in 50-digit mpmath arithmetic from the same float inputs: an
    independent monomial-by-monomial generator, the stationary moments, the
    loading curve e^{-A~'s} g, the slice minimum and, for pca, the Lyapunov
    solve and the eigenpairs of L'F L.  The samples include the worst cell
    of each column."""

    # (row, (vol_y0_1, vol_y0_2, vol_forward, vol_min)) of curves_mm3.csv
    CURVES = [
        (0, (0.06550577350216887, 0.11114586548731954, 0.12000674030817932,
             0.05000280846174142)),
        (39, (0.06596467130865313, 0.11196803210222815, 0.12003623645720564,
              0.05001509852384218)),
        (76, (0.06809605935449263, 0.11561330566309037, 0.12018670163079789,
              0.05007779236544804)),
        (99, (0.07225562682139305, 0.12196112335487767, 0.12054888896995139,
              0.05022870678618829)),
        (135, (0.0890410964607254, 0.1378236843423568, 0.12308851893042091,
               0.051296606937187954)),
        (136, (0.08971058983390491, 0.1381270629177349, 0.12322502861521178,
               0.051355885472456606)),
        (150, (0.0999935076680159, 0.13995277742627366, 0.12547414817870686,
               0.052516213756166094)),
        (176, (0.12082823142205622, 0.13408417101412273, 0.12899886493205048,
               0.06653647478704408)),
        (179, (0.12274223935663729, 0.13318587516840896, 0.12917210337371113,
               0.07077581931933169)),
        (199, (0.1291038163259109, 0.12974340193290043, 0.12949695342574644,
               0.10726239798494229)),
    ]
    # component variances and (row, |pc1|, |pc2|, |pc3|) of pca_mm1.csv;
    # the sign of a component is a convention
    VARIANCES = (1.3149064186422186e-06, 3.80361359417037e-09,
                 2.421145429189811e-12)
    PCA = [
        (0, (0.0018821348389805672, 0.000229061452750222,
             7.5649574482866565e-06)),
        (60, (0.0018679775068338492, 0.00020337073144221742,
              5.118935225308997e-06)),
        (93, (0.0018094750702871058, 0.0001308039820235876,
              3.4769032104123936e-08)),
        (120, (0.001586950452636312, 9.604671654240063e-06,
               2.5463964564600983e-06)),
        (122, (0.0015552390645342184, 4.921253046200558e-07,
               2.3789077970211534e-06)),
        (195, (1.4498080820593518e-06, 9.27292842103581e-08,
               2.6081575230432177e-09)),
        (199, (3.6577007070076694e-07, 2.339454253995082e-08,
               6.580084455463111e-10)),
    ]

    def test_curves(self, capsys):
        _, out, _ = run(capsys, "curves", "--model", "MM3",
                        "--y0=0.08,0.03", "--y0=-0.05,0.02")
        rows = data_rows(out)
        for i, ref in self.CURVES:
            assert rows[i, 1:] == pytest.approx(ref, rel=1e-14, abs=0), i

    def test_pca(self, capsys):
        _, out, _ = run(capsys, "pca", "--model", "MM1")
        variances = [float(ln.split("=")[1]) for ln in out.splitlines()
                     if ln.startswith("# component")]
        assert variances == pytest.approx(self.VARIANCES, rel=1e-12, abs=0)
        rows = data_rows(out)
        for i, ref in self.PCA:
            got = np.abs(rows[i, 1:])
            assert got[:2] == pytest.approx(ref[:2], rel=1e-12, abs=0), i
            # pc3 carries 2e-6 of the variance
            assert got[2] == pytest.approx(ref[2], rel=1e-10, abs=0), i


class TestValidate:
    def test_all_fixtures_ok(self, capsys):
        for name in ("M1", "M2", "M3", "M4", "MM1", "MM2", "MM3", "MM4",
                     "MM5"):
            rc, out, _ = run(capsys, "validate", "--model", name)
            assert rc == 0, name
            assert out.count("PASS") >= 6
            assert "result: OK" in out

    def test_prints_hash_and_rates(self, capsys):
        _, out, _ = run(capsys, "validate", "--model", "M2")
        assert out.startswith("model M2 (")
        assert "kappa       = " in out
        assert "kappa_tilde = " in out
        assert "min Re eig moment block 2:" in out

    def test_no_partial_report_when_the_build_raises(self, capsys,
                                                     tmp_path):
        p = 7  # admissible, but above the moment system's dimension cap
        eye = np.eye(p)
        path = write_model(tmp_path, "p7.json", {
            "lambda": np.diag(np.arange(1.0, p + 1)).tolist(),
            "b": [1.0 / p] * p, "alpha": 0.01, "beta": [0.0] * p,
            "gamma": (0.01 * eye).tolist()})
        rc, out, err = run(capsys, "validate", "--model", path)
        assert rc == 1
        assert out == ""
        assert "exceeds the configured cap" in err


class TestDiagnosticsPerModel:
    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_failing_model_keeps_the_others(self, capsys, tmp_path, fmt):
        # one model's failure, here the dimension cap at p = 7, is its own
        # stderr line and exit code 1; the other models' rows still print
        p = 7
        path = write_model(tmp_path, "p7.json", {
            "lambda": np.diag(np.arange(1.0, p + 1)).tolist(),
            "b": [1.0 / p] * p, "alpha": 0.01, "beta": [0.0] * p,
            "gamma": (0.01 * np.eye(p)).tolist()})
        rc, out, err = run(capsys, "diagnostics", "--model", "M1", path,
                           "--format", fmt)
        assert rc == 1
        assert err == "p7: state dimension 7 exceeds the configured cap 6\n"
        alone = run(capsys, "diagnostics", "--model", "M1", "--format", fmt)
        lines = alone[1].splitlines()
        if fmt == "csv":  # the provenance header names every model read
            lines.insert(2, out.splitlines()[2])
            assert out.splitlines()[2].startswith("# model p7 hash ")
        assert out.splitlines() == lines
        assert "M1" in out


    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_inadmissible_model_is_refused(self, capsys, tmp_path, fmt):
        # gamma < 0 (p = 1) and an indefinite Gamma (p = 2): no variance
        # floor to report, so each model is a stderr line naming the
        # clause it fails; the admissible model's rows still print
        paths = [write_model(tmp_path, "neg.json", NEGATIVE_GAMMA),
                 write_model(tmp_path, "indef.json", {
                     "lambda": [[6.0, 0.0], [-6.0, 6.0]], "b": [1.0, 0.0],
                     "alpha": 0.01, "beta": [0.0, 0.0],
                     "gamma": [[0.5, 1.0], [1.0, 0.5]]})]
        rc, out, err = run(capsys, "diagnostics", "--model", "M1", *paths,
                           "--format", fmt)
        assert rc == 1
        assert err == ("neg: inadmissible model: bordered matrix not psd\n"
                       "indef: inadmissible model: bordered matrix not "
                       "psd\n")
        lines = run(capsys, "diagnostics", "--model", "M1",
                    "--format", fmt)[1].splitlines()
        if fmt == "csv":  # the provenance header names every model read
            lines[2:2] = out.splitlines()[2:4]
        assert out.splitlines() == lines


class TestDiagnosticsCsv:
    def test_provenance_and_precision(self, capsys):
        rc, out, _ = run(capsys, "diagnostics", "--model", "M3",
                         "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "# qhr 0.1.0"
        assert lines[1].startswith("# model M3 hash ")
        assert lines[2] == "# seed -"
        assert lines[3].startswith("label,mu2,mu3,mu4,kappa,kappa_tilde")
        cells = lines[4].split(",")
        assert cells[0] == "M3"
        # full precision, not the 2dp table rounding
        assert float(cells[6]) == pytest.approx(0.05, abs=1e-12)

    def test_rerun_is_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "diagnostics", "--model", "MM5",
                         "--format", "csv")
        _, out2, _ = run(capsys, "diagnostics", "--model", "MM5",
                         "--format", "csv")
        assert out1 == out2


class TestCurves:
    def test_layout_and_envelope_order(self, capsys):
        rc, out, _ = run(capsys, "curves", "--model", "M3",
                         "--y0", "0.0", "--y0", "0.1",
                         "--grid", "0.1:2.0:5")
        assert rc == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "t,vol_y0_1,vol_y0_2,vol_forward,vol_min"
        assert len(lines) == 6
        for row in lines[1:]:
            t, v1, v2, vf, vmin = map(float, row.split(","))
            assert vmin <= min(v1, v2) + 1e-12

    def test_y0_size_mismatch(self, capsys):
        rc, _, err = run(capsys, "curves", "--model", "MM1",
                         "--y0", "0.1", "--grid", "0.5,1.0")
        assert rc == 2
        assert "factors" in err

    def test_bad_grid(self, capsys):
        rc, _, err = run(capsys, "curves", "--model", "M1",
                         "--grid", "abc")
        assert rc == 2
        assert "cannot parse grid" in err


class TestPca:
    def test_component_headers(self, capsys):
        rc, out, _ = run(capsys, "pca", "--model", "MM1",
                         "--grid", "geom:0.01:3.0:12")
        assert rc == 0
        lines = out.splitlines()
        comments = [l for l in lines if l.startswith("# component")]
        assert len(comments) == 3
        header = [l for l in lines if l.startswith("t,")][0]
        assert header == "t,pc1,pc2,pc3"

    def test_scalar_symmetric_has_one_factor(self, capsys):
        rc, out, _ = run(capsys, "pca", "--model", "M1",
                         "--grid", "0.1:1.0:4")
        assert rc == 0
        assert [l for l in out.splitlines()
                if l.startswith("t,")][0] == "t,pc1"


class TestDensity:
    def test_symmetric_model_reports_reference_column(self, capsys):
        rc, out, _ = run(capsys, "density", "--model", "M2",
                         "--grid=-0.2:0.2:11")
        assert rc == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "y,pdf,cdf,student_t_pdf"
        assert len(lines) == 12
        mid = lines[6].split(",")
        assert float(mid[1]) == pytest.approx(float(mid[3]), rel=1e-10)

    def test_skewed_model_plain_columns(self, capsys):
        rc, out, _ = run(capsys, "density", "--model", "M3",
                         "--grid=-0.1,0.0,0.1")
        assert rc == 0
        assert [l for l in out.splitlines()
                if not l.startswith("#")][0] == "y,pdf,cdf"

    def test_tiny_beta_follows_the_law(self, capsys, tmp_path):
        # beta = 1e-16 is not 0: the law takes its skewed branch, so there
        # is no Student t column to compare against
        path = write_model(tmp_path, "tiny.json", {
            "lambda": [[6.0]], "b": [1.0], "alpha": 0.0064, "beta": [1e-16],
            "gamma": [[3.0]]})
        rc, out, err = run(capsys, "density", "--model", path,
                           "--grid=-0.1,0.0,0.1")
        assert rc == 0, err
        assert [l for l in out.splitlines()
                if not l.startswith("#")][0] == "y,pdf,cdf"

    def test_small_gamma_skewed_model(self, capsys, tmp_path):
        # gamma/lam = 1/60: the law's angle density is cos^120
        path = write_model(tmp_path, "narrow.json", {
            "lambda": [[3.0]], "b": [1.0], "alpha": 0.01, "beta": [-0.01],
            "gamma": [[0.05]]})
        rc, out, err = run(capsys, "density", "--model", path)
        assert rc == 0, err
        rows = np.array([[float(v) for v in l.split(",")]
                         for l in out.splitlines()
                         if not l.startswith(("#", "y,"))])
        assert rows.shape == (401, 3) and np.isfinite(rows).all()
        assert np.all(np.diff(rows[:, 2]) > 0)

    def test_multifactor_rejected(self, capsys):
        rc, _, err = run(capsys, "density", "--model", "MM1")
        assert rc == 2
        assert "one-factor" in err

    def test_negative_gamma_rejected(self, capsys, tmp_path):
        # sigma^2(y) = alpha - 0.5 y^2 < 0 for |y| > 0.19: no stationary law
        path = write_model(tmp_path, "neg.json", NEGATIVE_GAMMA)
        rc, out, _ = run(capsys, "validate", "--model", path)
        assert rc == 1 and "FAIL  bordered matrix not psd" in out
        rc, out, err = run(capsys, "density", "--model", path)
        assert (rc, out) == (1, "")
        assert "inadmissible law: bordered matrix not psd" in err

    def test_zero_b_names_b(self, capsys, tmp_path):
        path = write_model(tmp_path, "still.json", {
            "lambda": [[6.0]], "b": [0.0], "alpha": 0.0133, "beta": [-0.05],
            "gamma": [[0.5]]})
        assert run(capsys, "validate", "--model", path)[0] == 0
        rc, out, err = run(capsys, "density", "--model", path)
        assert (rc, out) == (1, "")
        assert "scalar reduction requires b != 0" in err


class TestMonteCarloCommands:
    def test_smile_default_surface(self, capsys):
        # without --grid: maturities 0.25, 0.5, 1, 2 (whole steps at 20 a
        # year) by 17 log-moneyness nodes from -0.4 to 0.4
        rc, out, _ = run(capsys, "smile", "--model", "M2", "--paths", "200",
                         "--steps-per-year", "20")
        assert rc == 0
        rows = data_rows(out)
        assert rows.shape == (4 * 17, 7)
        assert np.array_equal(rows[:, 0], np.repeat([0.25, 0.5, 1.0, 2.0],
                                                    17))
        assert np.array_equal(rows[:, 1],
                              np.tile(np.linspace(-0.4, 0.4, 17), 4))

    def test_atm_default_maturities(self, capsys):
        # without --grid: six maturities, 1/12 snapped to its nearest step
        # (2 of 20 a year), and eps 0.01
        rc, out, _ = run(capsys, "atm", "--model", "M3", "--paths", "200",
                         "--steps-per-year", "20")
        assert rc == 0
        assert "# eps 0.01" in out.splitlines()
        assert np.array_equal(data_rows(out)[:, 0],
                              [0.1, 0.25, 0.5, 1.0, 1.5, 2.0])

    def test_smile_csv_layout(self, capsys):
        rc, out, _ = run(capsys, "smile", "--model", "M2",
                         "--paths", "2000", "--steps-per-year", "40",
                         "--seed", "7",
                         "--grid", "T=0.25;L=-0.1,0.0,0.1")
        assert rc == 0
        lines = out.splitlines()
        assert ("# paths 2000 steps_per_year 40 y0 - floored_steps 0"
                in lines)
        assert any(l.startswith("# forward T=") for l in lines)
        header = "maturity,log_moneyness,call,call_se,put,put_se,ivol"
        assert header in lines
        body = lines[lines.index(header) + 1:]
        assert len(body) == 3
        for row in body:
            cells = list(map(float, row.split(",")))
            assert cells[0] == pytest.approx(0.25)
            assert 0.0 < cells[6] < 1.0

    def test_smile_table_format(self, capsys):
        rc, out, _ = run(capsys, "smile", "--model", "M2",
                         "--paths", "1000", "--steps-per-year", "50",
                         "--grid", "T=0.5;L=-0.1,0.0,0.1",
                         "--format", "table")
        assert rc == 0
        assert out.splitlines()[0].startswith("log-moneyness")

    def test_atm_layout(self, capsys):
        rc, out, _ = run(capsys, "atm", "--model", "M3",
                         "--paths", "2000", "--steps-per-year", "50",
                         "--grid", "T=0.25,0.5;eps=0.02")
        assert rc == 0
        lines = out.splitlines()
        assert ("# paths 2000 steps_per_year 50 y0 - floored_steps 0"
                in lines)
        assert "# eps 0.02" in lines
        header_i = lines.index("maturity,atm_vol,atm_skew")
        body = lines[header_i + 1:]
        assert len(body) == 2
        for row in body:
            t, vol, skew = map(float, row.split(","))
            assert vol > 0
            assert skew < 0  # negative feedback model

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_atm_small_eps(self, capsys, monkeypatch, threads):
        # eps below 1e-9 reads the same skew as eps = 2e-9 and the same
        # ATM vol, bit for bit
        monkeypatch.setenv("QHR_THREADS", threads)
        rows = {}
        for eps in ("2e-9", "1e-10", "5e-10"):
            rc, out, _ = run(capsys, "atm", "--model", "M3", "--paths",
                             "8192", "--grid", f"T=0.25,0.5;eps={eps}")
            assert rc == 0
            rows[eps] = data_rows(out)
        ref = rows.pop("2e-9")
        assert np.all(ref[:, 2] < -0.3)
        for got in rows.values():
            assert got[:, 1].tobytes() == ref[:, 1].tobytes()
            assert np.allclose(got[:, 2], ref[:, 2], rtol=1e-5, atol=0.0)

    def test_atm_rejects_eps_before_simulating(self, capsys, monkeypatch):
        def no_paths(*args):
            raise AssertionError("a path was simulated")

        monkeypatch.setattr(mc, "_euler_block", no_paths)
        rc, out, err = run(capsys, "atm", "--model", "M3",
                           "--grid", "T=0.25;eps=0")
        assert (rc, out) == (1, "")
        assert ("eps = 0 does not separate the strikes e^-eps, 1 and e^eps"
                in err)

    @pytest.mark.parametrize("threads", ["1", "3", "8"])
    @pytest.mark.parametrize("antithetic", [True, False])
    def test_simulate_summary_equals_stored_batch(self, capsys, monkeypatch,
                                                  antithetic, threads):
        # 9 * 4096 + 2 paths end on a partial block, which at 8 threads is
        # a super-block of its own; the summary is folded as the paths run,
        # the reference reduces a stored batch
        monkeypatch.setenv("QHR_THREADS", threads)
        params = model.load_fixture("MM3")
        n_paths = 9 * mc._BLOCK + 2
        probes = np.array([0.0, 0.1, 0.3])
        cfg = mc.McConfig(n_paths=n_paths, horizon=0.3, seed=31,
                          steps_per_year=50, antithetic=antithetic)
        batch = mc.simulate(params, cfg, probes=probes)
        ref = [[t, *batch.mean_se(batch.x[i]),
                *batch.mean_se(np.exp(batch.x[i])),
                *batch.mean_se(batch.sigma2(i)),
                *batch.mean_se(batch.y[i].T)[0]]
               for i, t in enumerate(batch.times)]
        rows, floored, _ = cli._simulate_rows(params, cfg, probes)
        assert csv_rows(rows) == csv_rows(ref)
        assert floored == batch.floored_steps
        if antithetic:  # the CLI's pairing
            rc, out, _ = run(capsys, "simulate", "--model", "MM3",
                             "--paths", str(n_paths), "--steps-per-year",
                             "50", "--seed", "31", "--grid", "0,0.1,0.3")
            assert rc == 0
            body = out.splitlines()
            body = body[[l.startswith("t,") for l in body].index(True) + 1:]
            assert body == csv_rows(ref)

    def test_simulate_layout_and_seed_line(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--model", "MM1",
                         "--paths", "500", "--steps-per-year", "50",
                         "--seed", "99", "--grid", "0.1,0.2")
        assert rc == 0
        lines = out.splitlines()
        assert "# seed 99" in lines
        assert any(l.startswith("# paths 500 steps_per_year 50 y0 - "
                                "floored_steps ") for l in lines)
        assert not any("burn_in_floored_steps" in l for l in lines)
        header = [l for l in lines if l.startswith("t,")][0]
        assert header.endswith("mean_y1,mean_y2")
        body = lines[lines.index(header) + 1:]
        assert [float(r.split(",")[0]) for r in body] == [0.1, 0.2]

    def test_simulate_stationary_start(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--model", "M1",
                         "--paths", "200", "--steps-per-year", "50",
                         "--grid", "0.1", "--y0", "stationary")
        assert rc == 0
        line = ("# paths 200 steps_per_year 50 y0 stationary floored_steps 0 "
                "burn_in_floored_steps 0")
        assert line in out.splitlines()

    @pytest.mark.parametrize("command", ["smile", "atm"])
    def test_provenance_names_start_state(self, capsys, command):
        argv = (command, "--model", "M3", "--paths", "200",
                "--steps-per-year", "20", "--grid", "T=0.25")
        _, out, _ = run(capsys, *argv, "--y0=-0.0625")
        assert ("# paths 200 steps_per_year 20 y0 -0.0625 floored_steps 0"
                in out.splitlines())
        _, out, _ = run(capsys, *argv, "--y0", "stationary")
        assert ("# paths 200 steps_per_year 20 y0 stationary floored_steps 0 "
                "burn_in_floored_steps 0" in out.splitlines())

    @pytest.mark.parametrize("command, grid", [
        ("simulate", "0.1"), ("smile", "T=0.25;L=0"), ("atm", "T=0.25")])
    def test_stationary_start_names_its_burn_in(self, capsys, monkeypatch,
                                                command, grid):
        # the '# burn_in' line follows the '# paths' line and repeats
        # default_burn_in's steps and residual, taken from the run itself
        # (default_burn_in is not called again); other starts have none
        argv = (command, "--model", "M3", "--paths", "200",
                "--steps-per-year", "20", "--grid", grid)
        steps, residual = mc.default_burn_in(model.load_fixture("M3"), 20)

        def recompute(*args):
            raise AssertionError("provenance recomputed the burn-in")

        monkeypatch.setattr(mc, "default_burn_in", recompute)
        _, out, _ = run(capsys, *argv, "--y0", "stationary")
        lines = out.splitlines()
        at = [l.startswith("# paths") for l in lines].index(True)
        assert lines[at + 1] == (f"# burn_in years {steps / 20:g} steps "
                                 f"{steps} start gaussian residual "
                                 f"{residual:.3g}")
        _, out, _ = run(capsys, *argv, "--y0=0.01")
        assert not any(l.startswith("# burn_in") for l in out.splitlines())

    def test_point_mass_stationary_start(self, capsys, tmp_path):
        # b = 0 (valid, stable): the stationary law is the point mass at 0,
        # which the Gaussian start already is, so the burn-in is 0 steps
        path = write_model(tmp_path, "still.json", {
            "lambda": [[6.0]], "b": [0.0], "alpha": 0.0133, "beta": [-0.05],
            "gamma": [[0.5]]})
        rc, out, err = run(capsys, "simulate", "--model", path, "--y0",
                           "stationary", "--paths", "100", "--grid", "0.1")
        assert rc == 0, err
        assert ("# burn_in years 0 steps 0 start gaussian residual 0"
                in out.splitlines())

    def test_stationary_simulate_bit_identical_across_threads(
            self, capsys, monkeypatch):
        # 8194 paths: the last block holds 2
        outs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("QHR_THREADS", threads)
            rc, out, _ = run(capsys, "simulate", "--model", "MM1", "--y0",
                             "stationary", "--paths", "8194", "--grid",
                             "0,0.5")
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]
        assert ("# burn_in years 3.464 steps 866 start gaussian residual "
                "9.96e-05") in outs[0].splitlines()

    def test_every_mc_command_reports_floored_steps(self, capsys, tmp_path):
        # sigma^2 = 0.01 - 0.6 y + 2 y^2 is negative for 0.0177 < y < 0.282,
        # so the burn-in and the main phase both floor; a one-maturity atm
        # runs the same paths as simulate to the same horizon
        path = write_model(tmp_path, "floors.json", {
            "lambda": [[4.0]], "b": [1.0], "alpha": 0.01, "beta": [-0.3],
            "gamma": [[2.0]]})
        options = ("--model", path, "--y0", "stationary", "--paths", "4000",
                   "--seed", "3")
        found = []
        for argv in (("atm", *options, "--grid", "T=1"),
                     ("simulate", *options, "--grid", "1")):
            rc, out, _ = run(capsys, *argv)
            assert rc == 0
            found += [l for l in out.splitlines() if l.startswith("# paths")]
        assert len(found) == 2
        assert found[0] == found[1]
        counts = found[0].split()
        assert int(counts[counts.index("floored_steps") + 1]) > 0
        assert int(counts[counts.index("burn_in_floored_steps") + 1]) > 0

    def test_mc_rerun_is_byte_identical(self, capsys):
        argv = ("simulate", "--model", "M3", "--paths", "400",
                "--steps-per-year", "50", "--seed", "21", "--grid", "0.2")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_seed_changes_output(self, capsys):
        base = ("simulate", "--model", "M3", "--paths", "400",
                "--steps-per-year", "50", "--grid", "0.2")
        _, out1, _ = run(capsys, *base, "--seed", "1")
        _, out2, _ = run(capsys, *base, "--seed", "2")
        assert out1 != out2

    def test_keyed_grid_errors(self, capsys):
        rc, _, err = run(capsys, "smile", "--model", "M1",
                         "--grid", "T=0.25;0.5")
        assert rc == 2
        assert "no key= prefix" in err
        rc, _, err = run(capsys, "atm", "--model", "M1",
                         "--grid", "eps=squiggle")
        assert rc == 2
        assert "cannot parse eps" in err

    def test_keyed_grid_skips_empty_parts(self):
        out = cli._parse_keyed_grid(" T=0.25,0.5 ;; eps=0.02 ;",
                                    ("T", "eps"))
        assert out.keys() == {"T", "eps"}
        assert np.array_equal(out["T"], [0.25, 0.5]) and out["eps"] == 0.02

    @pytest.mark.parametrize("command,grid,message", [
        ("smile", "t=0.5;L=0", "grid key 't' is not one of T, L"),
        ("smile", "T=0.5;eps=0.01", "grid key 'eps' is not one of T, L"),
        ("atm", "T=0.25;L=-1,0,1", "grid key 'L' is not one of T, eps"),
        ("atm", "T=0.25;T=0.5", "grid key 'T' is given twice"),
    ], ids=["smile-lowercase-t", "smile-eps", "atm-L", "atm-T-twice"])
    def test_keyed_grid_takes_each_own_key_once(self, capsys, monkeypatch,
                                               command, grid, message):
        def no_paths(*args):
            raise AssertionError("a path was simulated")

        monkeypatch.setattr(mc, "_euler_block", no_paths)
        rc, out, err = run(capsys, command, "--model", "M1", "--paths",
                           "100", "--grid", grid)
        assert (rc, out) == (2, "")
        assert message in err

    def test_bad_threads_setting(self, capsys, monkeypatch):
        monkeypatch.setenv("QHR_THREADS", "two")
        rc, out, err = run(capsys, "simulate", "--model", "M1",
                           "--paths", "100", "--grid", "0.1")
        assert rc == 1
        assert out == ""
        assert "QHR_THREADS must be a positive integer, got 'two'" in err

    def test_bad_y0_vector(self, capsys):
        rc, _, err = run(capsys, "simulate", "--model", "M1",
                         "--paths", "100", "--grid", "0.1",
                         "--y0", "zero")
        assert rc == 2
        assert "cannot parse vector" in err

    @pytest.mark.parametrize("command", ["simulate", "curves"])
    @pytest.mark.parametrize("y0", ["nan", "inf", "-inf"])
    def test_non_finite_y0_is_a_usage_error(self, capsys, command, y0):
        rc, out, err = run(capsys, command, "--model", "M3",
                           f"--y0={y0}", *(("--paths", "100")
                                            if command == "simulate" else ()))
        assert (rc, out) == (2, "")
        assert "non-finite entry" in err


class TestCsvProvenance:
    """Every CSV report comes from one writer: it opens with the version,
    one model line per model read and the seed (the Monte Carlo commands'
    --seed, '-' for the commands that draw nothing), then its own # lines,
    and its first non-# line is the header row."""

    @pytest.mark.parametrize("argv,labels,header", [
        (("curves", "--model", "MM3", "--grid", "0.1:2:5"), ["MM3"],
         "t,vol_forward,vol_min"),
        (("pca", "--model", "MM1", "--grid", "geom:0.01:3.0:6"), ["MM1"],
         "t,pc1,pc2,pc3"),
        (("density", "--model", "M3", "--grid=-0.1,0.0,0.1"), ["M3"],
         "y,pdf,cdf"),
        (("smile", "--model", "M2", "--paths", "200", "--steps-per-year",
          "20", "--grid", "T=0.25;L=-0.1,0.0,0.1"), ["M2"],
         "maturity,log_moneyness,call,call_se,put,put_se,ivol"),
        (("atm", "--model", "M3", "--paths", "200", "--steps-per-year", "20",
          "--grid", "T=0.25"), ["M3"], "maturity,atm_vol,atm_skew"),
        (("simulate", "--model", "MM1", "--paths", "200", "--steps-per-year",
          "20", "--grid", "0.1"), ["MM1"],
         "t,mean_x,se_x,mean_exp_x,se_exp_x,mean_sigma2,se_sigma2,mean_y1,"
         "mean_y2"),
        (("diagnostics", "--model", "M1", "MM1", "--format", "csv"),
         ["M1", "MM1"], "label,mu2,mu3,mu4,kappa,kappa_tilde,sigma_min,"
                        "sigma_infty,kurt_infty,y_min,eig_block2"),
    ], ids=["curves", "pca", "density", "smile", "atm", "simulate",
            "diagnostics"])
    def test_provenance_then_header(self, capsys, argv, labels, header):
        draws = argv[0] in ("smile", "atm", "simulate")
        rc, out, _ = run(capsys, *argv, *(("--seed", "7") if draws else ()))
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == f"# qhr {__version__}"
        for line, label in zip(lines[1:], labels):
            assert re.fullmatch(rf"# model {label} hash [0-9a-f]{{12}}", line)
        assert lines[1 + len(labels)] == f"# seed {7 if draws else '-'}"
        top = next(i for i, line in enumerate(lines)
                   if not line.startswith("#"))
        assert lines[top] == header
        assert not any(line.startswith("#") for line in lines[top:])


class TestOutFile:
    def test_writes_file_and_silences_stdout(self, capsys, tmp_path):
        target = tmp_path / "sub" / "diag.csv"
        rc, out, _ = run(capsys, "diagnostics", "--model", "M1",
                         "--format", "csv", "--out", str(target))
        assert rc == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("# qhr 0.1.0\n")
        assert "M1" in text

    # one small, fast invocation per subcommand
    @pytest.mark.parametrize("argv", [
        ("validate", "--model", "M1"),
        ("diagnostics", "--model", "M1", "MM1"),
        ("curves", "--model", "MM3", "--y0=0.08,0.03", "--grid", "0.1:2:5"),
        ("pca", "--model", "MM1", "--grid", "geom:0.01:3.0:6"),
        ("density", "--model", "M3", "--grid=-0.1,0.0,0.1"),
        ("smile", "--model", "M2", "--paths", "200", "--steps-per-year",
         "20", "--grid", "T=0.25;L=-0.1,0.0,0.1"),
        ("atm", "--model", "M3", "--paths", "200", "--steps-per-year", "20",
         "--grid", "T=0.25"),
        ("simulate", "--model", "MM1", "--paths", "200", "--steps-per-year",
         "20", "--grid", "0.1"),
    ], ids=lambda argv: argv[0])
    def test_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv):
        rc, want, _ = run(capsys, *argv)
        target = tmp_path / "report"
        rc_out, out, _ = run(capsys, *argv, "--out", str(target))
        assert (rc_out, out) == (rc, "")
        assert target.read_bytes() == want.encode()

    def test_unwritable_target_is_an_error(self, capsys, tmp_path):
        # the directory part of --out names an existing regular file
        blocker = tmp_path / "F"
        blocker.write_text("kept")
        rc, out, err = run(capsys, "validate", "--model", "M1",
                           "--out", str(blocker / "x.txt"))
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert blocker.read_text() == "kept"


# options each subcommand reads; any other option is a usage error
OPTIONS = {
    "validate": {"--model", "--out"},
    "diagnostics": {"--model", "--out", "--format"},
    "curves": {"--model", "--out", "--grid", "--y0"},
    "pca": {"--model", "--out", "--grid"},
    "density": {"--model", "--out", "--grid"},
    "smile": {"--model", "--out", "--seed", "--paths", "--steps-per-year",
              "--y0", "--grid", "--format"},
    "atm": {"--model", "--out", "--seed", "--paths", "--steps-per-year",
            "--y0", "--grid"},
    "simulate": {"--model", "--out", "--seed", "--paths", "--steps-per-year",
                 "--y0", "--grid"},
}
ALL_OPTIONS = set().union(*OPTIONS.values())
OPTION_VALUE = {"--seed": "1", "--paths": "10", "--steps-per-year": "3",
                "--y0": "0.1", "--grid": "0.5", "--format": "table"}
# a second value of each option, and both values of the keyed grids
OTHER_VALUE = {"--seed": "2", "--paths": "12", "--steps-per-year": "4",
               "--y0": "0.2", "--grid": "1", "--format": "csv"}
KEYED_GRID = {"smile": ("T=0.5", "T=1"), "atm": ("T=0.5", "T=1")}
REMOVED = [(cmd, opt) for cmd in OPTIONS
           for opt in sorted(ALL_OPTIONS - OPTIONS[cmd])]
# every option that is meant to move a number
MOVERS = [(cmd, opt) for cmd in OPTIONS
          for opt in sorted(OPTIONS[cmd] - {"--model", "--out"})]


def option_values(command, option):
    if option == "--grid" and command in KEYED_GRID:
        return KEYED_GRID[command]
    return OPTION_VALUE[option], OTHER_VALUE[option]


class TestOptionSurface:
    def test_subparsers_declare_the_table(self):
        sub = next(a for a in cli._PARSER._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {name: {s for a in p._actions for s in a.option_strings}
                    - {"-h", "--help"} for name, p in sub.choices.items()}
        assert declared == OPTIONS
        assert len(REMOVED) == 27
        assert sum(map(len, OPTIONS.values())) == 37

    @pytest.mark.parametrize("command,option", REMOVED,
                             ids=[f"{c}{o}" for c, o in REMOVED])
    def test_unread_option_is_a_usage_error(self, capsys, command, option):
        rc, out, err = run(capsys, command, "--model", "M1", option,
                           OPTION_VALUE[option])
        assert rc == 2
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("command,option", MOVERS,
                             ids=[f"{c}{o}" for c, o in MOVERS])
    def test_every_option_moves_a_number(self, capsys, command, option):
        # two values of the option change a line past the # lines (the
        # whole stdout for --format); the other options keep their small
        # first value, and --format its default unless it is the one tested
        def report(value):
            argv = [command, "--model", "M1"]
            for opt in sorted(OPTIONS[command] - {"--model", "--out"}):
                if opt == option:
                    argv += [opt, value]
                elif opt != "--format":
                    argv += [opt, option_values(command, opt)[0]]
            rc, out, err = run(capsys, *argv)
            assert rc == 0, err
            return out if option == "--format" else [
                line for line in out.splitlines() if not line.startswith("#")]

        first, second = option_values(command, option)
        assert report(first) != report(second)

    def test_defaults_do_not_leak_between_calls(self, capsys):
        rc, out, _ = run(capsys, "curves", "--model", "M1", "--grid", "0.5",
                         "--y0", "0.0", "--y0", "0.1")
        assert rc == 0
        assert "t,vol_y0_1,vol_y0_2,vol_forward,vol_min" in out.splitlines()
        rc, out, _ = run(capsys, "curves", "--model", "M1", "--grid", "0.5")
        assert rc == 0
        assert "t,vol_forward,vol_min" in out.splitlines()
        assert "vol_y0_" not in out
        smile = ("smile", "--model", "M2", "--paths", "200",
                 "--steps-per-year", "20", "--grid", "T=0.25;L=0.0")
        rc, out, _ = run(capsys, *smile, "--format", "table")
        assert rc == 0
        assert out.startswith("log-moneyness")
        rc, out, _ = run(capsys, *smile)
        assert rc == 0
        assert out.startswith("# qhr ")
        assert ("maturity,log_moneyness,call,call_se,put,put_se,ivol"
                in out.splitlines())
