"""Command line behaviour: exit codes, output layout, determinism."""

import argparse
import json
import os

import numpy as np
import pytest

from qhr import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_model(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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
    ], ids=lambda argv: argv[0])
    def test_empty_grid(self, capsys, argv):
        rc, out, err = run(capsys, argv[0], "--model", "M1", *argv[1:])
        assert rc == 2
        assert out == ""
        assert "is empty" in err


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
    ])
    def test_matches_golden(self, capsys, fname, argv):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        with open(os.path.join(GOLDEN, fname)) as fh:
            assert out == fh.read()


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


class TestDiagnosticsCsv:
    def test_provenance_and_precision(self, capsys):
        rc, out, _ = run(capsys, "diagnostics", "--model", "M3",
                         "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "# qhr 0.1.0"
        assert lines[1].startswith("# model M3 hash ")
        assert lines[2] == "# seed 12345"
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

    def test_multifactor_rejected(self, capsys):
        rc, _, err = run(capsys, "density", "--model", "MM1")
        assert rc == 2
        assert "one-factor" in err


class TestMonteCarloCommands:
    def test_smile_csv_layout(self, capsys):
        rc, out, _ = run(capsys, "smile", "--model", "M2",
                         "--paths", "2000", "--steps-per-year", "40",
                         "--seed", "7",
                         "--grid", "T=0.25;L=-0.1,0.0,0.1")
        assert rc == 0
        lines = out.splitlines()
        assert "# paths 2000 steps_per_year 40 y0 -" in lines
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
        assert "# paths 2000 steps_per_year 50 y0 -" in lines
        assert "# eps 0.02" in lines
        header_i = lines.index("maturity,atm_vol,atm_skew")
        body = lines[header_i + 1:]
        assert len(body) == 2
        for row in body:
            t, vol, skew = map(float, row.split(","))
            assert vol > 0
            assert skew < 0  # negative feedback model

    def test_simulate_layout_and_seed_line(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--model", "MM1",
                         "--paths", "500", "--steps-per-year", "50",
                         "--seed", "99", "--grid", "0.1,0.2")
        assert rc == 0
        lines = out.splitlines()
        assert "# seed 99" in lines
        assert any(l.startswith("# paths 500 steps_per_year 50 y0 - "
                                "floored_steps ") for l in lines)
        header = [l for l in lines if l.startswith("t,")][0]
        assert header.endswith("mean_y1,mean_y2")
        body = lines[lines.index(header) + 1:]
        assert [float(r.split(",")[0]) for r in body] == [0.1, 0.2]

    def test_simulate_stationary_start(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--model", "M1",
                         "--paths", "200", "--steps-per-year", "50",
                         "--grid", "0.1", "--y0", "stationary")
        assert rc == 0
        assert any(l.startswith("# paths 200 steps_per_year 50 y0 "
                                "stationary ") for l in out.splitlines())

    @pytest.mark.parametrize("command", ["smile", "atm"])
    def test_provenance_names_start_state(self, capsys, command):
        argv = (command, "--model", "M3", "--paths", "200",
                "--steps-per-year", "20", "--grid", "T=0.25")
        _, out, _ = run(capsys, *argv, "--y0=-0.0625")
        assert "# paths 200 steps_per_year 20 y0 -0.0625" in out.splitlines()
        _, out, _ = run(capsys, *argv, "--y0", "stationary")
        assert ("# paths 200 steps_per_year 20 y0 stationary"
                in out.splitlines())

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
    "diagnostics": {"--model", "--out", "--seed", "--format"},
    "curves": {"--model", "--out", "--seed", "--grid", "--y0"},
    "pca": {"--model", "--out", "--seed", "--grid"},
    "density": {"--model", "--out", "--seed", "--grid"},
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
REMOVED = [(cmd, opt) for cmd in OPTIONS
           for opt in sorted(ALL_OPTIONS - OPTIONS[cmd])]


class TestOptionSurface:
    def test_subparsers_declare_the_table(self):
        sub = next(a for a in cli._PARSER._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {name: {s for a in p._actions for s in a.option_strings}
                    - {"-h", "--help"} for name, p in sub.choices.items()}
        assert declared == OPTIONS
        assert len(REMOVED) == 23
        assert sum(map(len, OPTIONS.values())) == 41

    @pytest.mark.parametrize("command,option", REMOVED,
                             ids=[f"{c}{o}" for c, o in REMOVED])
    def test_unread_option_is_a_usage_error(self, capsys, command, option):
        rc, out, err = run(capsys, command, "--model", "M1", option,
                           OPTION_VALUE[option])
        assert rc == 2
        assert out == ""
        assert "unrecognized arguments" in err

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
