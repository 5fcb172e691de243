"""Gradient ascent on the figure of merit with Armijo backtracking.

First-order ascent keeps the objective-call count transparent: each call
is one forward solve, recorded in the trace, and only the start point and
each accepted line search trial are differentiated, by an adjoint pass over
that same solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .model import DensityOperator, LindbladModel
from .qfi import Generator, _qfi_cost, _qfi_point, qfi_of_params
from .eigen import eigh
from .sensitivity import _pair, forward_sensitivity
from .solver import SolveConfig, real_vector, require_count, require_positive

_MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class OptConfig:
    """Ascent hyperparameters; the seed drives initialization only."""

    max_iterations: int = 200
    initial_step: float = 0.1
    backtracking_factor: float = 0.5
    armijo_constant: float = 1e-4
    grad_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        require_count(self.max_iterations, "max_iterations", 1)
        require_count(self.seed, "seed", 0)
        require_positive(self.initial_step, "initial_step")
        if not 0.0 < self.backtracking_factor < 1.0:
            raise ValidationError("backtracking_factor must lie in (0, 1)")
        require_positive(self.armijo_constant, "armijo_constant")
        require_positive(self.grad_tolerance, "grad_tolerance")


@dataclass(frozen=True)
class OptIterate:
    iteration: int
    x: np.ndarray
    value: float
    grad_norm: float
    step: float  # accepted step length leaving this iterate; 0.0 if terminal
    evaluations: int  # cumulative objective calls (forward solves) so far

    def to_json(self) -> dict:
        return {
            "iter": self.iteration,
            "x": [float(v) for v in self.x],
            "F": self.value,
            "grad_norm": self.grad_norm,
            "step": self.step,
            "evals": self.evaluations,
        }


@dataclass(frozen=True)
class OptTrace:
    iterates: tuple[OptIterate, ...]
    status: str  # converged | max-iters | line-search-failure
    evaluations: int

    def __post_init__(self):
        values = [it.value for it in self.iterates]
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValidationError("objective sequence decreased across accepted iterates")

    @property
    def best(self) -> OptIterate:
        return self.iterates[-1]


def maximize(
    objective: Callable[[np.ndarray], tuple[float, Callable[[], np.ndarray]]],
    x0: np.ndarray,
    cfg: OptConfig = OptConfig(),
) -> tuple[np.ndarray, OptTrace]:
    """Maximize a black-box objective with gradient ascent.

    ``objective(x)`` returns (value, gradient), where ``gradient()`` returns
    dF/dx at that x.  It is called for the start point and for each
    accepted trial; a rejected trial's callable is dropped uncalled, and no
    point's callable outlives the next objective call.  A trial step
    x + alpha*g is accepted when it satisfies the ascent Armijo condition
    value >= current + c1*alpha*|g|^2; alpha is scaled by
    ``backtracking_factor`` at most 30 times before the search reports
    failure and the best accepted iterate is returned.
    """
    x = real_vector(x0, "start point x0")
    evals = 0
    rows: list[OptIterate] = []

    value, differentiate = objective(x)
    evals += 1
    status = "max-iters"
    for it in range(cfg.max_iterations):
        grad, differentiate = differentiate(), None
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= cfg.grad_tolerance:
            rows.append(OptIterate(it, x.copy(), value, gnorm, 0.0, evals))
            status = "converged"
            break
        alpha = cfg.initial_step
        accepted = None
        for _ in range(_MAX_BACKTRACKS + 1):
            trial = x + alpha * grad
            trial_value, differentiate = objective(trial)
            evals += 1
            if trial_value >= value + cfg.armijo_constant * alpha * gnorm * gnorm:
                accepted = (trial, trial_value, alpha)
                break
            alpha, differentiate = alpha * cfg.backtracking_factor, None
        if accepted is None:
            rows.append(OptIterate(it, x.copy(), value, gnorm, 0.0, evals))
            status = "line-search-failure"
            break
        rows.append(OptIterate(it, x.copy(), value, gnorm, accepted[2], evals))
        x, value = accepted[0], accepted[1]
    else:
        gnorm = float(np.linalg.norm(differentiate()))
        rows.append(OptIterate(cfg.max_iterations, x.copy(), value, gnorm, 0.0, evals))

    trace = OptTrace(iterates=tuple(rows), status=status, evaluations=evals)
    return trace.best.x.copy(), trace


def maximize_qfi(
    model: LindbladModel,
    x0: np.ndarray | None,
    rho0: DensityOperator | np.ndarray,
    t_span: tuple[float, float],
    g: Generator,
    solve_cfg: SolveConfig = SolveConfig(),
    opt_cfg: OptConfig = OptConfig(),
) -> tuple[np.ndarray, OptTrace]:
    """Maximize the figure of merit over protocol parameters.

    When x0 is omitted, parameters initialize uniformly in [-pi, pi] from
    the configured seed.  The trace's evaluation counter is the exact
    number of forward solves.
    """
    if x0 is None:
        rng = np.random.default_rng(opt_cfg.seed)
        x0 = rng.uniform(-math.pi, math.pi, model.n_params)

    def objective(x: np.ndarray) -> tuple[float, Callable[[], np.ndarray]]:
        # the solve keeps its slopes, so an accepted trial is differentiated with no stage recompute
        report, differentiate = _qfi_point(model, x, rho0, t_span, g, solve_cfg, True)
        return report.value, lambda: differentiate().gradient

    return maximize(objective, real_vector(x0, "start point x0"), opt_cfg)


def gradient_check(
    model: LindbladModel,
    x: np.ndarray,
    rho0: DensityOperator | np.ndarray,
    t_span: tuple[float, float],
    g: Generator,
    cfg: SolveConfig = SolveConfig(),
    h: float = 1e-6,
    tol: float = 1e-4,
) -> dict:
    """Cross-validate the three gradient routes of the figure of merit.

    Computes dF/dx by (a) the adjoint pass, (b) the tangents of one joint
    forward solve, each paired with dF/d(rho(T)) at that solve's own rho(T),
    and (c) central finite differences with step h -- 2 + 2p forward
    integrations for p parameters -- then reports the per-parameter maximum
    pairwise discrepancy relative to the overall gradient scale (guarding
    components whose true value is zero against division by
    finite-difference noise).  Route (b)'s QFI cost is checked at its rho(T)
    by ``CostCofunction.verify`` (``cost_verification``; CostGradientError).
    """
    require_positive(h, "h")
    require_positive(tol, "tol")
    x = real_vector(x)
    rep = qfi_of_params(model, x, rho0, t_span, g, cfg, want_gradient=True)
    adjoint = rep.gradient

    final, tangents = forward_sensitivity(model, x, rho0, t_span, cfg)
    cost = _qfi_cost(final.matrix, eigh(final.matrix), g, cfg)
    verification = cost.verify(final.matrix)
    cot = cost.cotangent(final.matrix)
    forward = np.array([_pair(cot, tangent) for tangent in tangents])

    def merit(k: int, step: float) -> float:
        xs = x.copy()
        xs[k] += step
        return qfi_of_params(model, xs, rho0, t_span, g, cfg).value

    fd = np.array([(merit(k, h) - merit(k, -h)) / (2.0 * h) for k in range(model.n_params)])

    scale = max(float(np.max(np.abs([adjoint, forward, fd]), initial=0.0)), 1e-8)
    params = []
    for k, trio in enumerate(zip(adjoint.tolist(), forward.tolist(), fd.tolist())):
        rel = (max(trio) - min(trio)) / max(max(abs(v) for v in trio), scale)
        params.append({"index": k, "adjoint": trio[0], "forward": trio[1], "fd": trio[2], "rel_error": rel})
    max_rel = max([0.0] + [p["rel_error"] for p in params])
    return {
        "parameters": params,
        "max_rel_error": max_rel,
        "pass": bool(max_rel < tol),
        "fd_step": h,
        "tolerance": tol,
        "F": rep.value,
        "cost_verification": verification,
    }
