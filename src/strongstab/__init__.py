"""Stable suboptimal H-infinity controller synthesis for SISO dead-time plants."""

from .rational import (
    FrequencyGrid,
    PoleEvaluationError,
    Poly,
    RationalFn,
    RootConvergenceError,
    blaschke,
    grid_sup,
    poly_from_roots,
    poly_roots,
)
from .synthesis import (
    CertificateContradiction,
    Controller,
    DelayPlant,
    FactorizationError,
    GammaSearchError,
    InterpolationError,
    PlantValidationError,
    SynthesisContext,
    UParam,
    WeightPair,
    build_context,
    build_E,
    build_F,
    gamma_opt,
    spectral_factor,
    spectral_ratio,
    verify_performance,
)
from .stability import (
    AsymptoticData,
    Certificate,
    PeakData,
    RegionScan,
    ScanError,
    admissible_uinf,
    asymptotics,
    certify,
    chain_abscissa,
    finitely_many_poles,
    fl_limit_at_infinity,
    peak_data,
    properness_criterion,
    rhp_zero_scan,
)
from .infinite import (
    InfSearchResult,
    SearchExhausted,
    l1u_stability_range,
    stabilize_infinite,
    sweep_report,
)
from .finite import (
    FiniteSearchError,
    FinSearchResult,
    NPInterpolant,
    P1P2,
    PickProblem,
    FiniteU,
    UAtPoints,
    build_p1p2,
    certify_u_norm,
    fig5_lattice,
    mu_opt_search,
    np_interpolant,
    pick_matrix,
    pick_min_eig,
    pick_points,
    pick_thresholds,
    stabilize_finite,
)
from .config import ConfigError, Options, load_problem

__version__ = "0.1.0"
