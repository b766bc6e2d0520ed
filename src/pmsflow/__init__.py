"""Finite-volume solver for the parabolic minimal surface equation

    u_t = div( grad u / sqrt(1 + |grad u|^2) )

with zero-flux boundary conditions, discretized by implicit minimizing
steps of the area functional and solved per step, with certified
termination, by Newton on the step's dual (interval and radial grids) or a
primal-dual iteration (rectangles).  Handles bounded data of bounded variation,
keeps genuine jumps sharp while they persist, and measures when they close.
"""

from .diagnostics import (
    DiagnosticRecord,
    Verdict,
    check_contraction,
    check_monotone,
    check_ut_decay,
    default_jump_threshold,
    jump_set,
    measure,
    regularization_time,
    smoothness_gates,
    structural_gates,
)
from .energy import area_energy, prox_quadratic
from .grid import (
    CellField,
    FaceField,
    Grid,
    build_grid,
    cell_inner,
    cell_norm,
    colocated_gradient,
    colocated_magnitude,
    divergence,
    face_differences,
    face_inner,
    forward_gradient,
    interval_grid,
    radial_grid,
    rectangle_grid,
)
from .initial_data import (
    build_initial,
    capped_inverse,
    constant,
    cosine,
    quarter_circles,
    random_piecewise,
    step,
)
from .reference import QuarterCircleProfile, RadialSubsolution
from .runner import ConfigError, RunConfig, RunReport, load_config, run
from .solver import (
    NonConvergenceError,
    SolverConfig,
    StepResult,
    Trajectory,
    evolve,
    implicit_step,
    kkt_residual,
    operator_norm_bound,
)
from .acceptance import CRITERIA_NAMES, run_acceptance

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # grid
    "Grid",
    "CellField",
    "FaceField",
    "interval_grid",
    "rectangle_grid",
    "radial_grid",
    "build_grid",
    "forward_gradient",
    "divergence",
    "colocated_gradient",
    "colocated_magnitude",
    "face_differences",
    "cell_inner",
    "cell_norm",
    "face_inner",
    # energy
    "area_energy",
    "prox_quadratic",
    # solver
    "SolverConfig",
    "StepResult",
    "Trajectory",
    "NonConvergenceError",
    "operator_norm_bound",
    "implicit_step",
    "kkt_residual",
    "evolve",
    # diagnostics
    "DiagnosticRecord",
    "Verdict",
    "measure",
    "jump_set",
    "default_jump_threshold",
    "regularization_time",
    "check_monotone",
    "check_ut_decay",
    "check_contraction",
    "structural_gates",
    "smoothness_gates",
    # initial data
    "constant",
    "step",
    "cosine",
    "quarter_circles",
    "capped_inverse",
    "random_piecewise",
    "build_initial",
    # reference profiles
    "QuarterCircleProfile",
    "RadialSubsolution",
    # runs
    "ConfigError",
    "RunConfig",
    "RunReport",
    "load_config",
    "run",
    "run_acceptance",
    "CRITERIA_NAMES",
]
