"""Adaptive integration of the master equation with a checkpoint trail.

The stepper is an explicit embedded Runge--Kutta pair on the complex density
matrix with a stabilized PI step-size controller.  One tableau, ``DOP853``
(Dormand--Prince 8(5,3), FSAL), drives the forward step, segment replay and
the reverse pass in ``sensitivity``, all through a stacked slope buffer: the
s slopes of a step fill one (s, *state shape) array, each stage sum is one
BLAS product over its float64 view, and the reverse pass makes p parameter
pairings per step.  Every accepted step time and step size is recorded, and
the ``SolveResult`` keeps the model and x it was solved with, so any segment
between two checkpoints can later be replayed on the recorded grid from the
result alone; replay performs the same floating-point operations as the
original pass and is therefore bit-identical.  Checkpoints and replay spans
are addressed by accepted-step index i; state i sits at step_times[i].
Trace is never renormalized -- trace drift is reported as a diagnostic instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import IntegrationError, ValidationError
from .instrumentation import counters
from .model import DensityOperator, LindbladModel, lindblad_rhs, validate_hamiltonian


@dataclass(frozen=True)
class RKTableau:
    """Explicit embedded Runge--Kutta pair with a first-same-as-last slope.

    Row i of ``a`` holds a_i0 ... a_i(i-1).  A step forms s stages, y_new =
    y + h sum_i b_i k_i and the FSAL slope f(t + h, y_new), k_1 of the next
    step.  Two error estimates h sum_i e_i k_i and h sum_i e3_i k_i run over
    all s + 1 slopes: e is b minus a 5th-order embedded solution and e3 is b
    minus a 3rd-order one.  The stepper needs the FSAL weights e[-1] and
    e3[-1] to be zero: it forms both estimates from the s stage slopes and
    evaluates the FSAL slope only for an accepted step.  ``error_order`` q is
    the order of the blended error norm, which is O(h^(q+1)); the controller
    scales steps by err^(-1/(q+1)).
    """

    c: tuple[float, ...]
    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    e: tuple[float, ...]
    e3: tuple[float, ...]
    error_order: int


# Dormand--Prince 8(5,3): Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, 2nd ed., section II.10 (the DOP853 code).  b is the 8th-order solution, e = b minus the 5th-order solution
# and e3 = b minus the 3rd-order one; neither estimate reads the FSAL slope.
DOP853 = RKTableau(
    c=(
        0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726, 0.3333333333333333,
        0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0
    ),
    a=(
        (),
        (0.05260015195876773,),
        (0.0197250569845379, 0.0591751709536137),
        (0.02958758547680685, 0.0, 0.08876275643042054),
        (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
        (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
        (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
        (
            0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
            0.008273789163814023
        ),
        (
            0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
            20.154067550477894, -43.48988418106996
        ),
        (
            0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
            15.279233632882423, -33.28821096898486, -0.020331201708508627
        ),
        (
            -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
            -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196
        ),
        (
            2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
            27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303, 0.6433927460157636
        ),
    ),
    b=(
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
        0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259
    ),
    e=(
        0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
        -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0
    ),
    e3=(
        -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
        -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0
    ),
    error_order=7,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_K_EXP = 0.7 / (DOP853.error_order + 1)  # proportional exponent (on the current error)
_KI_EXP = 0.4 / (DOP853.error_order + 1)  # integral exponent (on the previous error)
_UNDERFLOW = 1e-14

#: DOP853's a rows as one zero-padded (s, s) array: row i holds a_i0 ... a_i(i-1).
_A = np.array([row + (0.0,) * (len(DOP853.c) - len(row)) for row in DOP853.a])
#: The end-of-step weight rows b, e[:s] and e3[:s] (the FSAL weights of e and e3 are zero).
_STEP_WEIGHTS = np.array([DOP853.b, DOP853.e[: len(DOP853.b)], DOP853.e3[: len(DOP853.b)]])


def require_count(value, name: str, minimum: int) -> None:
    """Raise a ValidationError at ``/name`` unless ``value`` is an int (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValidationError(f"{name} must be an integer of at least {minimum}, got {value!r}", path="/" + name)


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances and budgets for one integration."""

    rtol: float = 1e-8
    atol: float = 1e-10
    initial_step: float | None = None
    max_steps: int = 100_000
    checkpoints: int | None = None  # default: ceil(sqrt(max_steps))

    def __post_init__(self):
        if not (self.rtol > 0 and self.atol > 0):
            raise ValidationError("tolerances must be positive")
        require_count(self.max_steps, "max_steps", 1)
        if self.initial_step is not None and not self.initial_step > 0:
            raise ValidationError("initial_step must be positive when given")
        if self.checkpoints is not None:
            require_count(self.checkpoints, "checkpoints", 2)

    @property
    def checkpoint_budget(self) -> int:
        if self.checkpoints is not None:
            return self.checkpoints
        return int(math.ceil(math.sqrt(self.max_steps)))


@dataclass(frozen=True)
class SolveStats:
    accepted: int
    rejected: int
    rhs_evaluations: int
    trace_drift: float
    hermiticity_drift: float
    min_step: float
    max_step: float

    def to_json(self) -> dict:
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "rhs_evals": self.rhs_evaluations,
            "trace_drift": self.trace_drift,
            "hermiticity_drift": self.hermiticity_drift,
            "min_step": self.min_step,
            "max_step": self.max_step,
        }


@dataclass(frozen=True)
class SolveResult:
    """Final state plus the recorded trail needed for exact replay; integrate makes its arrays read-only."""

    final_state: DensityOperator
    step_checkpoints: tuple[tuple[int, np.ndarray], ...]  # (step index i, state i), i = 0 ... accepted
    step_times: np.ndarray  # accepted times, t0 ... T, length accepted+1
    step_sizes: np.ndarray  # accepted step sizes, length accepted
    stats: SolveStats
    t_span: tuple[float, float]
    config: SolveConfig
    x: np.ndarray  # a copy of the checked parameter vector the solve used
    model: LindbladModel


def _rms(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(values) ** 2)))


def _error_norm(
    delta5: np.ndarray, delta3: np.ndarray, y: np.ndarray, y_new: np.ndarray, rtol: float, atol: float
) -> float:
    """Hairer's DOP853 blend err5^2 / sqrt((err5^2 + 0.01 err3^2) N) of the squared scaled norms.

    The 3rd-order estimate keeps the 5th-order one from being too optimistic.
    A squared norm that overflows gives inf, so the step is rejected.
    """
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
    err5 = float(np.sum((np.abs(delta5) / scale) ** 2))
    err3 = float(np.sum((np.abs(delta3) / scale) ** 2))
    if not (math.isfinite(err5) and math.isfinite(err3)):
        return math.inf
    if err5 == 0.0 and err3 == 0.0:
        return 0.0
    return err5 / math.sqrt((err5 + 0.01 * err3) * delta5.size)


def rk_stages(
    f: Callable[[float, np.ndarray], np.ndarray],
    t: float,
    y: np.ndarray,
    h: float,
    k1: np.ndarray | None = None,
    *,
    states: np.ndarray | None = None,
) -> np.ndarray:
    """The slopes of all s DOP853 stages of one step, as one (s, *y.shape) array.

    This is the single source of the stage arithmetic; the adaptive loop,
    segment replay, and the reverse pass all go through it, so a replayed
    step performs bit-identical floating-point operations.  The slopes fill
    one preallocated stacked buffer K, and stage state i is one BLAS product
    A[i, :i] K[:i] over its float64 view, scaled by h and added to y in
    place.  Without ``states`` the stage states share one scratch buffer,
    so a step holds one of them at a time; _step_end forms the step's end.
    The reverse pass passes an (s, *y.shape) buffer as ``states`` and gets
    every stage state written into it; the last stage's slope, which it
    never reads, is then not evaluated and K[s - 1] is left zero.
    """
    s = _A.shape[0]
    slopes = np.zeros((s, *y.shape), dtype=np.complex128)
    flat = slopes.reshape(s, -1).view(np.float64)
    slopes[0] = f(t, y) if k1 is None else k1
    if states is not None:
        states[0] = y
    scratch = np.empty_like(slopes[0]) if states is None else None
    for i in range(1, s):
        y_i = scratch if states is None else states[i]
        increment = y_i.reshape(-1).view(np.float64)
        np.dot(_A[i, :i], flat[:i], out=increment)
        increment *= h
        y_i += y
        if states is None or i < s - 1:
            slopes[i] = f(t + DOP853.c[i] * h, y_i)
    return slopes


def _step_end(y: np.ndarray, h: float, slopes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y_new, delta5, delta3) = (y + h sum_i b_i k_i, h sum_i e_i k_i, h sum_i e3_i k_i).

    The three sums are one (3, s) x (s, 2N) product over the float64 view of
    the slope stack.  The forward step and replay both call this with the
    same operand shapes, so a replayed state is bit-equal to the forward one.
    """
    s = slopes.shape[0]
    sums = np.dot(_STEP_WEIGHTS, slopes.reshape(s, -1).view(np.float64))
    sums *= h
    sums = sums.view(np.complex128).reshape(3, *y.shape)
    return y + sums[0], sums[1], sums[2]


def _initial_step(
    f: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0: np.ndarray,
    f0: np.ndarray,
    span: float,
    rtol: float,
    atol: float,
) -> float:
    """Starting step size from the standard two-evaluation heuristic."""
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(np.abs(y0) / scale)
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        d1 = _rms(np.abs(f0) / scale)
    if not math.isfinite(d1):
        raise IntegrationError(f"the scaled norm of the initial slope overflows at t = {t0:.6g}")
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = f(t0 + h0, y0 + h0 * f0)
    d2 = _rms(np.abs(f1 - f0) / scale) / h0
    dmax = max(d1, d2)
    h1 = max(1e-6, h0 * 1e-3) if dmax <= 1e-15 else (0.01 / dmax) ** (1.0 / (DOP853.error_order + 1))
    return min(100.0 * h0, h1, span)


@dataclass
class _CoreTrail:
    """Raw output of the adaptive loop, before model-level validation."""

    final: np.ndarray
    step_times: np.ndarray
    step_sizes: np.ndarray
    rejected: int
    checkpoints: list[tuple[int, np.ndarray]]


def _adaptive_core(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t0: float,
    t_final: float,
    cfg: SolveConfig,
) -> _CoreTrail:
    """Adaptive 8(5,3) loop on an arbitrary complex array state.

    Records every accepted step time and size, and keeps a thinned
    checkpoint list: stride doubles whenever the stored count would exceed
    the budget, so checkpoints stay roughly equally spaced in accepted-step
    index; the first entry is step 0 (t0) and the last is step accepted (t_final).
    """
    y = y0
    span = t_final - t0
    f0 = f(t0, y)
    h = cfg.initial_step if cfg.initial_step is not None else _initial_step(f, t0, y, f0, span, cfg.rtol, cfg.atol)
    h = min(h, span)

    budget = cfg.checkpoint_budget
    stored: list[tuple[int, np.ndarray]] = [(0, y.copy())]
    stride = 1

    step_times = [t0]
    step_sizes: list[float] = []
    t = t0
    k1 = f0
    err_prev = 1.0
    accepted = 0
    rejected = 0

    while t < t_final:
        if accepted + rejected >= cfg.max_steps:
            raise IntegrationError(
                f"step budget exhausted after {accepted} accepted / {rejected} rejected steps "
                f"at t = {t:.6g} of {t_final:.6g}"
            )
        if h < _UNDERFLOW * span:
            raise IntegrationError(f"step size underflow (h = {h:.3e}) at t = {t:.6g}")
        last = t + h >= t_final
        if last:
            h = t_final - t
        # e[-1] = e3[-1] = 0: the estimates need no FSAL slope, so only an
        # accepted step pays for f(t + h, y_new)
        try:
            y_new, delta5, delta3 = _step_end(y, h, rk_stages(f, t, y, h, k1))
        except ValidationError as exc:  # lindblad_rhs rejects a stage state that blew up
            raise IntegrationError(f"step at t = {t:.6g} with h = {h:.3e} failed: {exc}") from exc
        if not (np.all(np.isfinite(y_new)) and np.all(np.isfinite(delta5)) and np.all(np.isfinite(delta3))):
            raise IntegrationError(f"non-finite state produced at t = {t:.6g} with h = {h:.3e}")
        err = _error_norm(delta5, delta3, y, y_new, cfg.rtol, cfg.atol)
        if err <= 1.0:
            k1 = f(t + h, y_new)
            t = t_final if last else t + h
            y = y_new
            accepted += 1
            step_times.append(t)
            step_sizes.append(h)
            if accepted % stride == 0 and t < t_final:
                stored.append((accepted, y.copy()))
                # reserve one slot for the final state appended below
                if len(stored) > budget - 1:
                    stored = stored[::2]
                    stride *= 2
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** (-_K_EXP) * err_prev**_KI_EXP
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = err
            h = h * factor
        else:
            rejected += 1
            factor = _SAFETY * err ** (-_K_EXP)
            h = h * min(1.0, max(_MIN_FACTOR, factor))

    stored.append((accepted, y.copy()))
    return _CoreTrail(
        final=y,
        step_times=np.array(step_times),
        step_sizes=np.array(step_sizes),
        rejected=rejected,
        checkpoints=stored,
    )


class _CountedRhs:
    """f(t, state) = lindblad_rhs(t, state, model, x), looked up in this module per call; counts ``calls``."""

    def __init__(self, model: LindbladModel, x: np.ndarray):
        self.model, self.x, self.calls = model, x, 0

    def __call__(self, t: float, state: np.ndarray) -> np.ndarray:
        self.calls += 1
        return lindblad_rhs(t, state, self.model, self.x)


def _check_inputs(
    model: LindbladModel, x: np.ndarray, rho0: DensityOperator | np.ndarray, t_span: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray, float, float]:
    t0, t_final = float(t_span[0]), float(t_span[1])
    if not (np.isfinite(t0) and np.isfinite(t_final)) or not t_final > t0:
        raise ValidationError(f"need a finite span with T > t0, got ({t0}, {t_final})")
    if isinstance(rho0, DensityOperator):
        y = rho0.matrix.astype(np.complex128, copy=True)
    else:
        y = DensityOperator.from_matrix(rho0).matrix.astype(np.complex128, copy=True)
    if y.shape != (model.dimension, model.dimension):
        raise ValidationError(
            f"initial state dimension {y.shape[0]} does not match model dimension {model.dimension}"
        )
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_params,):
        raise ValidationError(f"parameter vector shape {x.shape} != ({model.n_params},)")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"parameter vector x must be finite, got {x}")
    validate_hamiltonian(model, x, t0)
    return y, x, t0, t_final


def _final_state(y: np.ndarray, cfg: SolveConfig) -> DensityOperator:
    """rho(T) as a DensityOperator, checked to tolerances that scale with cfg.rtol."""
    tol_scale = max(1e-9, 50.0 * cfg.rtol)
    return DensityOperator.from_matrix(y, trace_tol=tol_scale, herm_tol=tol_scale, psd_tol=max(1e-7, tol_scale))


def integrate(
    model: LindbladModel,
    x: np.ndarray,
    rho0: DensityOperator | np.ndarray,
    t_span: tuple[float, float],
    cfg: SolveConfig = SolveConfig(),
) -> SolveResult:
    """Integrate the master equation from t0 to T with adaptive steps.

    Returns the final state, a thinned trail of (step index, state)
    checkpoints (first step 0, last step accepted, roughly equally spaced in
    index, at most the configured checkpoint count), and the full accepted
    step grid, from which the step statistics are read.
    """
    y0, x, t0, t_final = _check_inputs(model, x, rho0, t_span)
    trace0 = float(np.trace(y0).real)

    f = _CountedRhs(model, x)

    trail = _adaptive_core(f, y0, t0, t_final, cfg)
    y, sizes = trail.final, trail.step_sizes
    final_state = _final_state(y, cfg)
    stats = SolveStats(
        accepted=len(sizes),
        rejected=trail.rejected,
        rhs_evaluations=f.calls,
        trace_drift=abs(float(np.trace(y).real) - trace0),
        hermiticity_drift=float(np.linalg.norm(y - y.conj().T)),
        min_step=float(sizes.min()),
        max_step=float(sizes.max()),
    )
    counters.forward_integrations += 1
    counters.rhs_evaluations += f.calls

    x = x.copy()  # replay and the adjoint trust these arrays, so none of them may change
    for a in (x, trail.step_times, sizes, final_state.matrix, *(s for _, s in trail.checkpoints)):
        a.setflags(write=False)
    return SolveResult(
        final_state=final_state,
        step_checkpoints=tuple(trail.checkpoints),
        step_times=trail.step_times,
        step_sizes=sizes,
        stats=stats,
        t_span=(t0, t_final),
        config=cfg,
        x=x,
        model=model,
    )


def dense_segment(
    result: SolveResult, state_at_checkpoint: np.ndarray, steps: tuple[int, int]
) -> list[tuple[float, np.ndarray]]:
    """Recompute accepted-step states i_a ... i_b, integer ``steps`` = (i_a, i_b), for the reverse pass.

    The segment is replayed with the model and x of ``result`` on its
    recorded accepted-step grid: the same step sizes and stages, hence the
    same floating-point operations, hence bit-identical states.  The state
    at step i_a is an argument rather than read from the stored checkpoints,
    so a caller may replay from a state it recomputed itself.  Returns
    [(t_i, state_i) for i = i_a ... i_b] with t_i = result.step_times[i];
    when i_b == i_a that is just [(t_i_a, state_a)], with no RHS call.
    """
    i_a, i_b = operator.index(steps[0]), operator.index(steps[1])
    if not 0 <= i_a <= i_b <= result.stats.accepted:
        raise ValidationError(f"segment needs 0 <= i_a <= i_b <= {result.stats.accepted}, got ({i_a}, {i_b})")
    # no copy: the returned list shares the caller's checkpoint array as its
    # left endpoint, keeping reverse-pass retained states at K + segment steps
    y = np.asarray(state_at_checkpoint, dtype=np.complex128)

    f = _CountedRhs(result.model, result.x)

    times = result.step_times
    out: list[tuple[float, np.ndarray]] = [(float(times[i_a]), y)]
    for n in range(i_a, i_b):
        h_n = float(result.step_sizes[n])
        y, _, _ = _step_end(y, h_n, rk_stages(f, float(times[n]), y, h_n))
        out.append((float(times[n + 1]), y))
    counters.rhs_evaluations += f.calls
    return out
