"""Differentiable open-quantum-system dynamics and metrology toolkit.

The package integrates Lindblad master equations with an adaptive
embedded Runge-Kutta pair, propagates forward (tangent) and reverse
(adjoint) sensitivities through the integration with checkpoint/replay,
differentiates the Hermitian eigendecomposition robustly at eigenvalue
degeneracies, and evaluates (and optimizes) a spectral figure of merit
for metrology protocols.  A config-driven CLI (``lindbladiff``) exposes
the pipelines with machine-readable JSON reports.
"""

from .errors import (
    ConditioningWarning,
    CostGradientError,
    GaugeDependenceError,
    IntegrationError,
    LindbladiffError,
    ShapeMismatchError,
    ValidationError,
)
from .instrumentation import counters
from .model import (
    DensityOperator,
    HamiltonianSchedule,
    LinearSchedule,
    JumpChannel,
    LindbladModel,
    all_zero_density,
    lindblad_rhs,
    model_from_json,
    preset_oat,
)
from .solver import SolveConfig, SolveResult, SolveStats, dense_segment, integrate
from .sensitivity import (
    CostCofunction,
    GradientResult,
    adjoint_gradient,
    adjoint_liouvillian_apply,
    complexify,
    forward_sensitivity,
    observable_cost,
    realify,
    state_entry_re_cost,
)
from .eigen import (
    EigDecomposition,
    EigDerivative,
    eig_derivative,
    eig_vjp,
    eigh,
)
from .qfi import Generator, QfiReport, generator_from_preset, qfi, qfi_of_params
from .optimize import OptConfig, OptTrace, gradient_check, maximize, maximize_qfi
from .cli import ExperimentConfig, emit_plot_data, main, resolve_config

__version__ = "0.1.0"

__all__ = [
    "ConditioningWarning",
    "CostGradientError",
    "GaugeDependenceError",
    "IntegrationError",
    "LindbladiffError",
    "ShapeMismatchError",
    "ValidationError",
    "counters",
    "DensityOperator",
    "HamiltonianSchedule",
    "LinearSchedule",
    "JumpChannel",
    "LindbladModel",
    "all_zero_density",
    "lindblad_rhs",
    "model_from_json",
    "preset_oat",
    "SolveConfig",
    "SolveResult",
    "SolveStats",
    "dense_segment",
    "integrate",
    "CostCofunction",
    "GradientResult",
    "adjoint_gradient",
    "adjoint_liouvillian_apply",
    "complexify",
    "forward_sensitivity",
    "observable_cost",
    "realify",
    "state_entry_re_cost",
    "EigDecomposition",
    "EigDerivative",
    "eig_derivative",
    "eig_vjp",
    "eigh",
    "Generator",
    "QfiReport",
    "generator_from_preset",
    "qfi",
    "qfi_of_params",
    "OptConfig",
    "OptTrace",
    "gradient_check",
    "maximize",
    "maximize_qfi",
    "ExperimentConfig",
    "emit_plot_data",
    "main",
    "resolve_config",
]
