"""Multi-factor quadratic path-dependent volatility toolkit.

The volatility surface of the model is driven by exponentially weighted
averages of past returns; variance is a quadratic form in those averages.
This package covers parameter validation and canonical forms, stationary
moments and autocovariances, forward-variance curves with their principal
components, the one-factor stationary density in closed form, a
deterministic multithreaded Euler Monte Carlo engine, option pricing with
implied vols, and a command line front end.
"""

__version__ = "0.1.0"

from .linalg import (
    DimensionCapError,
    UnstableError,
    solve_lyapunov,
)
from .model import (
    CanonicalModel,
    ComplexEigenvaluesError,
    ConstraintViolationError,
    Diagnostics,
    JordanSpec,
    ModelParams,
    RepeatedEigenvalueAcrossBlocksError,
    SingularTransformError,
    canonicalize,
    change_of_measure,
    diagnostics,
    filter_check,
    filter_phi,
    filter_psi,
    list_fixtures,
    load_fixture,
    load_model,
    rank_one,
    save_model,
    validate,
    variance,
    variance_min,
)
from .moments import (
    MomentSystem,
    NotStationaryError,
    SingularAError,
    StationarySummary,
    WindowOrderError,
    build_moment_system,
    check_stability_sufficient,
    conditional_eta,
    conditional_moments,
    monomials,
    omega,
    squared_increment_autocov,
    squared_increment_mean,
    stationary_summary,
    variance_autocov,
)
from .forward import (
    NonConvexSliceError,
    PcaDecomposition,
    default_grid,
    forward_min_envelope,
    forward_variance,
    pca,
)
from .scalar import (
    PearsonIV,
    ScalarParams,
    scalar_closed_moments,
    scalar_kurtosis,
    scalar_kurtosis_bounds,
)
from .mc import (
    ConfigInvalidError,
    McConfig,
    PathBatch,
    StationaryInit,
    default_burn_in,
    estimate_cov_eta_xi2,
    simulate,
    stationary_init,
)
from .pricing import (
    MissingNodesError,
    OptionGrid,
    OutOfBoundsError,
    SmileSurface,
    atm_term_structures,
    bs_price,
    implied_vol,
    price_options,
    with_implied_vols,
)

__all__ = [name for name in dir() if not name.startswith("_")]
