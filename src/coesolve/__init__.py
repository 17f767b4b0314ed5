"""Spectral solver and verification toolkit for convolution operator
equations on the real line.

The package discretizes equations whose x-dependence enters through
constant-coefficient derivatives and convolutions (so a Fourier transform
turns them into a parameter family of finite-dimensional resolvent
problems) and couples them to an operator acting on the unknown's
components.  It provides the admissibility audit for the symbols, direct
and shifted linear solves, lambda sweeps, multiplier and randomized-sum
bounds, parabolic evolution with blow-up detection, two-point boundary
problems in the evolution variable, and the function-space norms used to
measure all of the above.
"""

__version__ = "0.1.0"

from .errors import (
    AdmissibilityError,
    BlowUpError,
    ConditionNotCheckedError,
    ConfigError,
    DegenerateBoundaryError,
    DegenerateSampleError,
    DegenerateSymbolError,
    InvalidArgumentError,
    SingularResolventError,
    SymbolBlowupError,
    UnsupportedKernelError,
)
from .kernels import KERNEL_KINDS, Kernel
from .symbols import (
    ConditionReport,
    MultiplierFamily,
    Sector,
    SymbolSet,
    char_poly,
    check_symbol_conditions,
    lambda_weights,
    make_xi_grid,
    mikhlin_bound,
    reduced_symbol,
    scalar_prefactor,
)
from .operators import (
    DenseMatrixOperator,
    DirichletLaplacian2D,
    OperatorRealization,
    PeriodicSturmLiouvilleOperator,
    PositivityReport,
    make_operator,
    positivity_scan,
    sector_samples,
)
from .grids import Field, Grid, band_limited_random, spectral_derivative
from .norms import (
    besov_norm,
    lp_norm,
    mixed_norm,
    sobolev_norm,
    trace_exponents,
    trace_interpolation_thetas,
    trace_space_norms,
)
from .solver import (
    CoerciveReport,
    DiscretizedProblem,
    SweepTable,
    apply_operator,
    coercive_report,
    lambda_sweep,
    norm_equivalence,
    solve_linear,
)
from .rademacher import (
    RademacherSample,
    RBoundEstimate,
    empirical_rbound,
    kahane_check,
    rademacher_lp_norm,
    scaled_resolvent_rbound,
)
from .evolution import (
    CauchyState,
    MaximalSolutionReport,
    Nonlinearity,
    solve_cauchy_linear,
    solve_cauchy_semilinear,
)
from .bvp import (
    BoundaryConditions,
    IterationReport,
    StripField,
    TGrid,
    bvp_discrete_residual,
    check_nondegenerate,
    solve_bvp_linear,
    solve_bvp_semilinear,
)
from .config import validate_config
from .presets import PRESETS, get_preset, preset_names
from .runner import RunResult, run_scenario

__all__ = [
    "__version__",
    "AdmissibilityError",
    "BlowUpError",
    "ConditionNotCheckedError",
    "ConfigError",
    "DegenerateBoundaryError",
    "DegenerateSampleError",
    "DegenerateSymbolError",
    "InvalidArgumentError",
    "SingularResolventError",
    "SymbolBlowupError",
    "UnsupportedKernelError",
    "KERNEL_KINDS",
    "Kernel",
    "ConditionReport",
    "MultiplierFamily",
    "Sector",
    "SymbolSet",
    "char_poly",
    "check_symbol_conditions",
    "lambda_weights",
    "make_xi_grid",
    "mikhlin_bound",
    "reduced_symbol",
    "scalar_prefactor",
    "DenseMatrixOperator",
    "DirichletLaplacian2D",
    "OperatorRealization",
    "PeriodicSturmLiouvilleOperator",
    "PositivityReport",
    "make_operator",
    "positivity_scan",
    "sector_samples",
    "Field",
    "Grid",
    "band_limited_random",
    "spectral_derivative",
    "besov_norm",
    "lp_norm",
    "mixed_norm",
    "sobolev_norm",
    "trace_exponents",
    "trace_interpolation_thetas",
    "trace_space_norms",
    "CoerciveReport",
    "DiscretizedProblem",
    "SweepTable",
    "apply_operator",
    "coercive_report",
    "lambda_sweep",
    "norm_equivalence",
    "solve_linear",
    "RademacherSample",
    "RBoundEstimate",
    "empirical_rbound",
    "kahane_check",
    "rademacher_lp_norm",
    "scaled_resolvent_rbound",
    "CauchyState",
    "MaximalSolutionReport",
    "Nonlinearity",
    "solve_cauchy_linear",
    "solve_cauchy_semilinear",
    "BoundaryConditions",
    "IterationReport",
    "StripField",
    "TGrid",
    "bvp_discrete_residual",
    "check_nondegenerate",
    "solve_bvp_linear",
    "solve_bvp_semilinear",
    "validate_config",
    "PRESETS",
    "get_preset",
    "preset_names",
    "RunResult",
    "run_scenario",
]
