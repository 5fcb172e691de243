"""Forward (tangent) and reverse (adjoint) derivatives of the integration.

The complex master equation is differentiated through its realification:
the state is viewed as the stacked real vector (Re rho, Im rho), on which
every cost is an ordinary real function.  Internally all arithmetic stays
complex -- for the realified system, the transpose-Jacobian product is
exactly the application of the adjoint generator, so a cotangent is carried
as the complex matrix lambda = dc/d(Re rho) + i dc/d(Im rho) and paired
with tangents through Re Tr(lambda^dag v).

The reverse pass is the exact discrete adjoint of the replayed forward
steps: each checkpoint segment is recomputed forward on the recorded step
grid, then the stage cotangent recursion runs backward through the same
stages, with the A and b of the solver's one tableau (``solver.DOP853``).
It takes the forward solve's ``SolveResult`` as its only input besides the
cost, and reads the model, x, span, checkpoints and step grid from it, so
it always replays the trajectory that solve produced.  Because replay is
bit-identical, the gradient is deterministic and does not depend on the
checkpoint count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CostGradientError, ValidationError
from .instrumentation import counters
from .linalg import to_dense
from .model import DensityOperator, LindbladModel, _generator_apply, lindblad_rhs, rhs_parameter_derivative
from .solver import (
    DOP853,
    SolveConfig,
    SolveResult,
    dense_segment,
    rk_stages,
    _adaptive_core,
    _check_inputs,
    _CountedRhs,
)

#: Central-difference step and relative tolerance of CostCofunction.verify.
VERIFY_FD_STEP = 1e-6
VERIFY_REL_TOL = 1e-5

__all__ = [
    "realify",
    "complexify",
    "CostCofunction",
    "GradientResult",
    "forward_sensitivity",
    "adjoint_gradient",
    "adjoint_liouvillian_apply",
    "state_entry_re_cost",
    "observable_cost",
]


def realify(rho: np.ndarray) -> np.ndarray:
    """Stack a complex matrix into the real vector (Re rho, Im rho), row-major."""
    m = np.asarray(rho, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"realify needs a square matrix, got shape {m.shape}")
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def complexify(v: np.ndarray) -> np.ndarray:
    """Inverse of realify; bit-exact round trip."""
    vec = np.asarray(v, dtype=float)
    if vec.ndim != 1 or vec.shape[0] % 2 != 0:
        raise ValidationError(f"realified state must be a 1-d even-length vector, got shape {vec.shape}")
    half = vec.shape[0] // 2
    d = int(round(half**0.5))
    if d * d != half:
        raise ValidationError(f"realified length {vec.shape[0]} is not 2*d^2 for integer d")
    return vec[:half].reshape(d, d) + 1j * vec[half:].reshape(d, d)


def _pair(a: np.ndarray, b: np.ndarray) -> float:
    """Real pairing Re Tr(a^dag b) == realified dot product."""
    return float(np.real(np.sum(np.conj(a) * b)))


@dataclass(frozen=True)
class CostCofunction:
    """Scalar terminal cost c(rho(T)) with its own gradient rule.

    ``gradient`` returns (dc/d(Re rho), dc/d(Im rho)) as real matrices.
    The built-in verifier probes the gradient against central finite
    differences along spectrum-safe directions before any adjoint work.
    """

    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    name: str = "cost"

    def cotangent(self, rho: np.ndarray) -> np.ndarray:
        """Complex packing dc/d(Re rho) + i dc/d(Im rho) of the gradient."""
        dre, dim = self.gradient(rho)
        dre = np.asarray(dre, dtype=float)
        dim = np.asarray(dim, dtype=float)
        if dre.shape != rho.shape or dim.shape != rho.shape:
            raise ValidationError(
                f"cost gradient blocks have shapes {dre.shape}/{dim.shape}, expected {rho.shape}"
            )
        return dre + 1j * dim

    def verify(self, rho: np.ndarray) -> dict:
        """Directional finite-difference check of the gradient rule at rho.

        Probe directions preserve the spectrum's validity: a commutator
        direction i[K, rho] moves eigenvectors but shifts eigenvalues only
        at second order, and a congruence direction rho A rho vanishes on
        the kernel of rho, so rho +/- h D stays within the tolerance of a
        valid state even when rho is pure.  Raises CostGradientError on
        disagreement.
        """
        rho = np.asarray(rho, dtype=np.complex128)
        d = rho.shape[0]
        rng = np.random.default_rng(0xC0F7 + d)
        k_dir = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        k_dir = 0.5 * (k_dir + k_dir.conj().T)
        a_dir = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a_dir = 0.5 * (a_dir + a_dir.conj().T)
        probes = [1j * (k_dir @ rho - rho @ k_dir), rho @ a_dir @ rho]
        cot = self.cotangent(rho)
        # Central differences carry absolute noise of order eps_c/h (cost
        # evaluation error amplified by the step) plus h^2 truncation; below
        # that floor the comparison is uninformative, so a verdict needs the
        # disagreement to exceed both the relative tolerance and the floor.
        fd_step = VERIFY_FD_STEP
        cost_scale = max(1.0, abs(self.evaluate(rho)))
        fd_floor = cost_scale * (1e-13 / fd_step + fd_step**2)
        checks = []
        for direction in probes:
            norm = float(np.linalg.norm(direction))
            if norm < 1e-12:
                continue
            direction = direction / norm
            analytic = _pair(cot, direction)
            fd = (
                self.evaluate(rho + fd_step * direction) - self.evaluate(rho - fd_step * direction)
            ) / (2.0 * fd_step)
            scale = max(abs(analytic), abs(fd))
            if scale > 1e-9 and abs(analytic - fd) > VERIFY_REL_TOL * scale + fd_floor:
                raise CostGradientError(
                    f"gradient rule of cost {self.name!r} disagrees with finite differences: "
                    f"directional derivative {analytic:.10g} vs FD {fd:.10g}"
                )
            checks.append({"analytic": analytic, "fd": fd})
        return {"probes": checks, "fd_step": fd_step, "rel_tol": VERIFY_REL_TOL}


def state_entry_re_cost(i: int, j: int) -> CostCofunction:
    """c(rho) = Re rho[i, j]."""

    def evaluate(rho: np.ndarray) -> float:
        return float(rho[i, j].real)

    def gradient(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dre = np.zeros(rho.shape)
        dre[i, j] = 1.0
        return dre, np.zeros(rho.shape)

    return CostCofunction(evaluate=evaluate, gradient=gradient, name=f"re-rho[{i},{j}]")


def observable_cost(a: np.ndarray, name: str = "observable") -> CostCofunction:
    """c(rho) = Re Tr(rho A); cotangent is A^dag."""
    a = np.asarray(to_dense(a), dtype=np.complex128)

    def evaluate(rho: np.ndarray) -> float:
        return float(np.trace(rho @ a).real)

    def gradient(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cot = a.conj().T
        return cot.real.copy(), cot.imag.copy()

    return CostCofunction(evaluate=evaluate, gradient=gradient, name=name)


@dataclass(frozen=True)
class GradientResult:
    """Adjoint-pass output: parameter gradient plus optional extras.

    dc_drho0 is realified (length 2 d^2); dc_dT is the endpoint chain-rule
    derivative <dc/d(rho(T)), L(rho(T))>.
    """

    dc_dx: np.ndarray
    dc_drho0: np.ndarray | None = None
    dc_dT: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.all(np.isfinite(self.dc_dx)):
            raise ValidationError("non-finite parameter gradient")
        if self.dc_drho0 is not None and not np.all(np.isfinite(self.dc_drho0)):
            raise ValidationError("non-finite initial-state gradient")

    @property
    def dc_drho0_matrix(self) -> np.ndarray | None:
        return None if self.dc_drho0 is None else complexify(self.dc_drho0)


def adjoint_liouvillian_apply(model: LindbladModel, x: np.ndarray, t: float, lam: np.ndarray) -> np.ndarray:
    """Adjoint generator: +i[H, lam] + sum_j gamma_j (J^dag lam J - (1/2){J^dag J, lam}).

    Satisfies the pairing identity Tr(lam^dag L(rho)) == Tr((L^dag lam)^dag rho).
    """
    lam = np.asarray(lam, dtype=np.complex128)
    if lam.shape != (model.dimension, model.dimension):
        raise ValidationError(f"adjoint state shape {lam.shape} != model dimension {model.dimension}")
    return _generator_apply(model, t, np.asarray(x, dtype=float), lam, adjoint=True)


def forward_sensitivity(
    model: LindbladModel,
    x: np.ndarray,
    rho0: DensityOperator | np.ndarray,
    t_span: tuple[float, float],
    cfg: SolveConfig = SolveConfig(),
    k: int = 0,
) -> tuple[DensityOperator, np.ndarray]:
    """Jointly integrate the state and its tangent d(rho)/d(x_k).

    The stacked system is d/dt (rho, sigma) = (L rho, L sigma + dL/dx_k rho)
    with sigma(t0) = 0; adaptive error control acts on the joint state.
    Returns (rho(T) as a DensityOperator, tangent matrix sigma(T)).
    """
    y0, x, t0, t_final = _check_inputs(model, x, rho0, t_span)
    if not 0 <= k < model.n_params:
        raise ValidationError(f"parameter index {k} outside range [0, {model.n_params})")

    stacked0 = np.stack([y0, np.zeros_like(y0)])
    rhs_calls = 0

    def f(t: float, state: np.ndarray) -> np.ndarray:
        nonlocal rhs_calls
        rhs_calls += 2  # one lindblad_rhs each for the state and the tangent
        rho, sigma = state[0], state[1]
        drho = lindblad_rhs(t, rho, model, x)
        dsigma = lindblad_rhs(t, sigma, model, x) + rhs_parameter_derivative(t, rho, model, x, k)
        return np.stack([drho, dsigma])

    trail = _adaptive_core(f, stacked0, t0, t_final, cfg)
    counters.forward_integrations += 1
    counters.rhs_evaluations += rhs_calls

    tol_scale = max(1e-9, 50.0 * cfg.rtol)
    final = DensityOperator.from_matrix(
        trail.final[0], trace_tol=tol_scale, herm_tol=tol_scale, psd_tol=max(1e-7, tol_scale)
    )
    return final, trail.final[1]


def _reverse_step(
    model: LindbladModel,
    x: np.ndarray,
    t_n: float,
    y_n: np.ndarray,
    h: float,
    lam: np.ndarray,
    grad: np.ndarray,
    f: Callable[[float, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Exact reverse-mode of one replayed step of the DOP853 tableau.

    Recomputes the s stage states with s - 1 calls of f (the last stage's
    slope is never read), then runs the cotangent recursion
        v_i = h b_i lam + h sum_{j>i} a_ji w_j,   w_i = L^dag(t_i) v_i,
    giving lam_prev = lam + sum_i w_i.  Parameter sensitivities accumulate
    through the stage slopes: dc/dx_k += sum_i <v_i, (dL/dx_k)(t_i) Y_i>.
    """
    _, stage_times, stage_states = rk_stages(f, t_n, y_n, h, last_slope=False)
    a, b = DOP853.a, DOP853.b
    s = len(b)
    ws: list[np.ndarray] = [None] * s  # type: ignore[list-item]
    vs: list[np.ndarray] = [None] * s  # type: ignore[list-item]
    for i in range(s - 1, -1, -1):
        v = (h * b[i]) * lam
        for j in range(i + 1, s):
            aji = a[j][i]
            if aji != 0.0:
                v = v + (h * aji) * ws[j]
        vs[i] = v
        ws[i] = adjoint_liouvillian_apply(model, x, stage_times[i], v)
    lam_prev = lam
    for w in ws:
        lam_prev = lam_prev + w
    for k in range(grad.shape[0]):
        for i in range(s):
            grad[k] += _pair(vs[i], rhs_parameter_derivative(stage_times[i], stage_states[i], model, x, k))
    return lam_prev


def adjoint_gradient(result: SolveResult, cost: CostCofunction) -> GradientResult:
    """Reverse-mode gradient of a terminal cost through the solve ``result``.

    Verifies the cost's gradient rule at the final state, then sweeps
    backward segment by segment: each segment between stored checkpoints is
    replayed on the recorded grid with the model and x of ``result`` and its
    steps are reverse-differentiated exactly.  Returns dc/dx, the realified
    dc/d(rho0) (the terminal adjoint state), and dc/dT.  For a fresh solve,
    pass ``integrate(model, x, rho0, t_span, cfg)``.
    """
    model, x, t_final = result.model, result.x, result.t_span[1]
    rho_t = result.final_state.matrix
    verification = cost.verify(rho_t)

    lam = cost.cotangent(rho_t)
    dc_dt = _pair(lam, lindblad_rhs(t_final, rho_t, model, x))

    f = _CountedRhs(model, x)
    grad = np.zeros(model.n_params)
    n_checkpoints = len(result.checkpoints)
    times = result.step_times
    sizes = result.step_sizes
    indices = result.checkpoint_indices
    longest = 0
    replayed = 0

    for seg in range(n_checkpoints - 1, 0, -1):
        t_a, state_a = result.checkpoints[seg - 1]
        # replay stops at the start of the segment's last step: the state at
        # its right end is the stored next checkpoint, which nothing reads
        t_last = float(times[indices[seg] - 1])
        segment = dense_segment(result, state_a, (t_a, t_last))
        counters.note_retained_states(n_checkpoints + len(segment) - 1)
        longest = max(longest, len(segment))
        i_a = indices[seg - 1]
        for m in range(len(segment) - 1, -1, -1):
            n = i_a + m
            lam = _reverse_step(model, x, float(times[n]), segment[m][1], float(sizes[n]), lam, grad, f)
            replayed += 1

    counters.adjoint_passes += 1
    counters.adjoint_rhs_evaluations += f.calls
    diagnostics = {
        "segments": n_checkpoints - 1,
        "steps_replayed": replayed,
        "longest_segment": longest,
        "adjoint_rhs_evaluations": f.calls,
        "fd_fallback": model.hamiltonian.uses_fd_fallback,
        "cost_verification": verification,
    }
    return GradientResult(
        dc_dx=grad,
        dc_drho0=realify(lam),
        dc_dT=dc_dt,
        diagnostics=diagnostics,
    )
