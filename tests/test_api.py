"""The public surface: the names `import qhr` exports, the signatures of
functions whose tolerances and grids are module constants, and the fields
of the records whose contents are fixed at construction."""

import dataclasses
import inspect

import qhr

PUBLIC = [
    "CanonicalModel", "ComplexEigenvaluesError", "ConfigInvalidError",
    "ConstraintViolationError", "Diagnostics", "DimensionCapError",
    "JordanSpec", "McConfig", "MissingNodesError", "ModelParams",
    "MomentSystem", "NonConvexSliceError", "NotStationaryError",
    "OptionGrid", "OutOfBoundsError", "PathBatch", "PcaDecomposition",
    "PearsonIV", "RepeatedEigenvalueAcrossBlocksError", "ScalarParams",
    "SingularAError", "SingularTransformError", "SmileSurface",
    "StationaryInit", "StationarySummary", "UnstableError",
    "WindowOrderError", "atm_term_structures", "bs_price",
    "build_moment_system", "canonicalize", "change_of_measure",
    "check_stability_sufficient", "conditional_eta", "conditional_moments",
    "default_burn_in", "default_grid", "diagnostics", "estimate_cov_eta_xi2",
    "filter_check", "filter_phi", "filter_psi", "forward",
    "forward_min_envelope", "forward_variance", "implied_vol", "linalg",
    "list_fixtures", "load_fixture", "load_model", "mc", "model", "moments",
    "monomials", "omega", "pca", "price_options", "pricing", "rank_one",
    "save_model", "scalar", "scalar_closed_moments", "scalar_kurtosis",
    "scalar_kurtosis_bounds", "simulate", "solve_lyapunov",
    "squared_increment_autocov", "squared_increment_mean", "stationary_init",
    "stationary_summary", "validate", "variance", "variance_autocov",
    "variance_min", "with_implied_vols",
]


def test_exported_names():
    assert sorted(qhr.__all__) == PUBLIC


def test_signatures_without_tolerance_options():
    # their tolerances, brackets and grids are private module constants
    assert {f.__name__: str(inspect.signature(f)) for f in (
        qhr.implied_vol, qhr.solve_lyapunov, qhr.default_grid,
        qhr.filter_check, qhr.default_burn_in)} == {
        "implied_vol": "(price, strike, maturity)",
        "solve_lyapunov": "(a_tilde, g)",
        "default_grid": "()",
        "filter_check": "(params, w)",
        "default_burn_in": "(params, steps_per_year)",
    }


def test_signatures_of_benchmark_calls():
    # perfbench/worker.py passes these arguments positionally, so a renamed
    # or reordered parameter would break the benchmark without this test
    assert {f.__name__: str(inspect.signature(f)) for f in (
        qhr.build_moment_system, qhr.omega, qhr.conditional_moments,
        qhr.variance_autocov, qhr.squared_increment_autocov,
        qhr.stationary_summary, qhr.estimate_cov_eta_xi2, qhr.simulate,
        qhr.stationary_init)} == {
        "build_moment_system": "(params)",
        "omega": "(sys)",
        "conditional_moments": "(sys, y0, t)",
        "variance_autocov": "(sys, omega_mat, s)",
        "squared_increment_autocov": "(sys, cov_eta_xi2, r, h)",
        "stationary_summary": "(sys, params)",
        "estimate_cov_eta_xi2": "(params, r, cfg)",
        "simulate": "(params, cfg, probes=None)",
        "stationary_init": "(params, burn_in, cfg, *, return_burn_in=False)",
    }


def test_price_options_reads_the_start_from_the_config():
    # cfg.y0 is the one way to set the start state, as for simulate
    assert str(inspect.signature(qhr.price_options)) == "(params, grid, cfg)"


def test_record_fields():
    # MomentSystem stores what its build computes once (g and the block
    # spectra are fields, not recomputed properties); OptionGrid has no
    # option beyond its two axes
    assert {cls.__name__: [f.name for f in dataclasses.fields(cls)]
            for cls in (qhr.MomentSystem, qhr.OptionGrid)} == {
        "MomentSystem": ["p", "params", "exponents", "a_sym", "source",
                         "m_infty", "sym_offsets", "g", "block_spectra",
                         "stable", "kappa"],
        "OptionGrid": ["maturities", "log_moneyness"],
    }
