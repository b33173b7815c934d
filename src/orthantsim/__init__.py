"""Oblique reflection in the orthant and competing particle systems.

Exact solvers for regular driving paths, a grid-based fixed-point oracle,
Monte Carlo simulation of reflected Brownian motion and competing Brownian
particles, and executable pathwise comparison checks.
"""

import types

from .comparison import (
    ComparisonReport,
    check_initial_shift,
    check_parameter_monotonicity,
    check_particle_comparison,
    check_removal_corollaries,
    check_skorokhod_comparison,
    check_skorokhod_removal,
    counterexample_positive_offdiag,
    run_suite,
)
from .errors import OrthantSimError
from .mmatrix import (
    IndexSet,
    ReflectionMatrix,
    check_matrix_lemmas,
    neumann_inverse,
    principal_submatrix,
    spectral_radius_nonneg,
    validate_reflection_m_matrix,
)
from .paths import (
    BrownianSpec,
    RegularPath,
    SampledPath,
    brownian_components,
    cbp_driving_path,
    coupled_regular_approximation,
    difference_path,
    increments_dominated,
    sample_brownian,
    standard_regular_approximation,
)
from .particles import (
    CbpSpec,
    CollisionParams,
    ParticleSystemSolution,
    alphas,
    gap_drift_and_covariance,
    invert_system,
    reflection_matrix_from_params,
    simulate_cbp,
    solve_competing,
    solve_regular_linear,
    subsystem_spec,
)
from .skorokhod import (
    SkorokhodSolution,
    restart_inputs,
    simulate_srbm,
    solve_continuous,
    solve_grid_oracle,
    solve_linear_segment,
    solve_regular,
)

__version__ = "0.1.0"

# the names imported above are the public API
__all__ = sorted(name for name, value in globals().items() if not (
    name.startswith("_") or isinstance(value, types.ModuleType)))
