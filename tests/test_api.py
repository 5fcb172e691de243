"""The public surface: the parameters of every callable the package exports.

A change to this literal is a declared API change: the change that makes it
names the option it adds or removes in CHANGES.md.  Classes count by their
constructor, so a dataclass's parameters are its fields (``SolveConfig`` and
``OptConfig`` among them); the exception classes that take only a message
have no signature to pin.
"""

import inspect

import lindbladiff

API = {
    "ShapeMismatchError": ("what", "shape_a", "shape_b"),
    "ValidationError": ("message", "path"),
    "DensityOperator": ("matrix", "n_qubits", "trace_tol", "psd_tol"),
    "HamiltonianSchedule": ("evaluate", "n_params", "derivative"),
    "LinearSchedule": ("terms", "constant"),
    "JumpChannel": ("rate", "operator"),
    "LindbladModel": ("hamiltonian", "channels", "dimension"),
    "all_zero_density": ("n",),
    "lindblad_rhs": ("t", "rho", "model", "x", "out"),
    "model_from_json": ("obj",),
    "preset_oat": ("n", "gamma", "sparse"),
    "SolveConfig": ("rtol", "atol", "initial_step", "max_steps", "checkpoints"),
    "SolveResult": (
        "final_state", "packed_checkpoints", "step_times", "step_sizes", "stats", "t_span", "x",
        "model", "packed_stages"
    ),
    "SolveStats": (
        "accepted", "rejected", "rhs_evaluations", "trace_drift", "hermiticity_drift", "min_step",
        "max_step"
    ),
    "dense_segment": ("result", "state_at_checkpoint", "steps", "tape", "workspace"),
    "integrate": ("model", "x", "rho0", "t_span", "cfg", "keep_stages"),
    "CostCofunction": ("evaluate", "gradient", "name"),
    "GradientResult": ("dc_dx", "dc_drho0", "dc_dT", "diagnostics"),
    "adjoint_gradient": ("result", "cost"),
    "adjoint_liouvillian_apply": ("model", "x", "t", "lam", "out"),
    "complexify": ("v",),
    "forward_sensitivity": ("model", "x", "rho0", "t_span", "cfg"),
    "observable_cost": ("a", "name"),
    "realify": ("rho",),
    "state_entry_re_cost": ("i", "j"),
    "EigDecomposition": (
        "eigenvalues", "eigenvectors", "matrix", "clusters", "labels", "degeneracy_tolerance"
    ),
    "EigDerivative": ("dvalues", "dvectors", "averaged"),
    "eig_derivative": ("decomp", "drho", "constraint"),
    "eig_vjp": ("decomp", "value_cotangent", "vector_cotangent"),
    "eigh": ("rho",),
    "Generator": ("operator", "name"),
    "QfiReport": ("value", "gradient", "skipped_pairs", "clusters", "min_gap", "diagnostics"),
    "generator_from_preset": ("name", "n_qubits"),
    "qfi": ("decomp", "g"),
    "qfi_of_params": ("model", "x", "rho0", "t_span", "g", "cfg", "want_gradient"),
    "OptConfig": (
        "max_iterations", "initial_step", "backtracking_factor", "armijo_constant", "grad_tolerance", "seed"
    ),
    "OptTrace": ("iterates", "status", "evaluations"),
    "gradient_check": ("model", "x", "rho0", "t_span", "g", "cfg", "h", "tol"),
    "maximize": ("objective", "x0", "cfg"),
    "maximize_qfi": ("model", "x0", "rho0", "t_span", "g", "solve_cfg", "opt_cfg"),
    "ExperimentConfig": (
        "model", "params", "state", "t_span", "solver", "generator", "optimizer", "times_four",
        "grad_fd_step", "grad_tolerance", "output", "echo"
    ),
    "emit_plot_data": ("data", "path", "kind"),
    "main": ("argv",),
    "resolve_config": ("raw", "subcommand"),
}


def _surface() -> dict:
    surface = {}
    for name in lindbladiff.__all__:
        obj = getattr(lindbladiff, name)
        if not callable(obj):
            continue
        try:
            surface[name] = tuple(inspect.signature(obj).parameters)
        except ValueError:  # a builtin constructor: an exception class that takes a message
            continue
    return surface


def test_public_parameters_are_pinned():
    assert _surface() == API, (
        "the exported callables' parameters changed: that is a declared API change, "
        "so update API here and state the change in CHANGES.md"
    )
