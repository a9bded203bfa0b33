"""Numerical workbench for prescribed curvature equations on starshaped
radial graphs over the sphere, in the three constant-curvature ambient
spaces."""

from .config import ConfigError, RunConfig, parse_config
from .geometry import (GeometryError, GeometryState, assemble,
                       codazzi_residual, hessian_identity_residual,
                       support_gradient_residual, support_hessian_residual)
from .grid import (CovariantJet, ScalarField, SphereGrid, build_grid,
                   constant_field, covariant_jet, field_from_function,
                   refinement_order)
from .prescription import (ConditionReport, Prescription, builtin,
                           check_barriers, check_monotonicity)
from .solver import (ConeBreach, NoConvergence, SolveReport, SolverOptions,
                     continuity_solve, jacobian, newton_solve, residual,
                     uniqueness_probe)
from .spaceform import DomainError, SpaceFormModel, spaceform
from .symfunc import cone_margin, in_gamma_cone, sigma, sigma_all, sigma_partial

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "RunConfig", "parse_config",
    "GeometryError", "GeometryState", "assemble", "codazzi_residual",
    "hessian_identity_residual", "support_gradient_residual",
    "support_hessian_residual",
    "CovariantJet", "ScalarField", "SphereGrid", "build_grid",
    "constant_field", "covariant_jet", "field_from_function",
    "refinement_order",
    "ConditionReport", "Prescription", "builtin", "check_barriers",
    "check_monotonicity",
    "ConeBreach", "NoConvergence", "SolveReport", "SolverOptions",
    "continuity_solve", "jacobian", "newton_solve", "residual",
    "uniqueness_probe",
    "DomainError", "SpaceFormModel", "spaceform",
    "cone_margin", "in_gamma_cone", "sigma", "sigma_all", "sigma_partial",
    "__version__",
]
