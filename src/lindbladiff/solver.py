"""Adaptive integration of the master equation with a checkpoint trail.

The stepper is an explicit embedded Runge--Kutta pair with a stabilized PI
step-size controller, on packed states: every state, stage state and slope
is Hermitian, so it is carried as its d^2 real coordinates
(linalg.HermitianPacking), half the reals of the complex matrix, and is
unpacked only where a matrix leaves the solver (rho(T), the public
``step_checkpoints`` and ``step_stages``, a matrix-started ``dense_segment``).
One tableau, ``DOP853`` (Dormand--Prince 8(5,3), FSAL), drives the forward
step, segment replay and the reverse pass in ``sensitivity``, each on a
workspace it allocates once per pass: one (s+1, d^2) stack [y_n, k_0 ...
k_(s-1)] that every stage sum reads, and the tableau with its a, b, e and e3
columns scaled by h once per step.  One stage loop, ``_stage_states``,
serves all three: stage state i is one BLAS product of the row [1, h a_i0
... h a_i(i-1)] with the stack's first i + 1 rows, written straight into its
kept, taped or scratch row, and each slope is written in place by the
right-hand side (one real CSR kernel call into its row for a compiled model).
A step (``rk_stages``) adds the last slope, and y_new, delta5 and delta3
are one (3, s+1) product of [1, h b], [0, h e] and [0, h e3] into a reused
sums buffer.  The error norm and the initial-step heuristic read the full
matrices' entry moduli from the packed coordinates, an off-diagonal one
weighing 2, so the controller sees the norms of the full matrices.  A solve
that will be differentiated (``integrate(..., keep_stages=True)``) writes
the stage states of its leading accepted steps straight into one kept
(s, d^2) stack per step, within what the checkpoint budget leaves and a
fixed byte cap, so the reverse pass reads them with no right-hand-side call;
segment replay writes step i_a + j's stage states into row j of the reverse
pass's tape (``dense_segment(..., tape=)``) in the same way, and the state it
reaches into that row's row 0, stepping on the reverse pass's own workspace
(``workspace=``).  The error norm writes its scaled terms into buffers the
solve allocates once, so a try allocates no state-sized temporary.
Every accepted step time and step size is recorded, and the ``SolveResult``
keeps the model and x it was solved with, so any segment between two
checkpoints can later be replayed on the recorded grid from the result
alone; replay performs the same floating-point operations as the original
pass and is therefore bit-identical.  Checkpoints and replay spans are
addressed by accepted-step index i; state i sits at step_times[i].  Trace is
never renormalized -- trace drift is reported as a diagnostic instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import IntegrationError, ValidationError
from .instrumentation import counters
from .linalg import STATE_TOL, packing
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

_S = len(DOP853.c)
#: The weights over a step's stack [y_n, k_0 ... k_(s-1)], before h: row i < s is stage i's
#: [1, a_i0 ... a_i(i-1)], zero-padded, and rows s, s + 1, s + 2 are the step end's [1, b],
#: [0, e] and [0, e3] (the FSAL weights of e and e3 are zero).  A step scales columns 1 ... s by h.
_TABLEAU = np.array(
    [(1.0, *row) + (0.0,) * (_S - len(row)) for row in DOP853.a]
    + [(1.0, *DOP853.b), (0.0, *DOP853.e[:_S]), (0.0, *DOP853.e3[:_S])]
)
_TABLEAU.setflags(write=False)
_FIRST_COLUMN = _TABLEAU[:, 0].copy()
_STAGE_NODES = DOP853.c[1:-1]  # the nodes of stages 1 ... s-2, whose slopes every stage loop forms
#: Most bytes of packed stage stacks a differentiated solve keeps for its
#: reverse pass, and of the reverse pass's tape of replayed stacks: every
#: step at n <= 7 qubits, 10 stacks at n = 8, and none at n = 10 (96 MiB per stack).
_KEPT_STAGES_MAX_BYTES = 64 * 2**20


def _stacks_under_cap(state_nbytes: int) -> int:
    """How many (s, *state shape) stage stacks of states of ``state_nbytes`` bytes fit in the byte cap."""
    return _KEPT_STAGES_MAX_BYTES // (_S * state_nbytes)


def require_count(value, name: str, minimum: int) -> None:
    """Raise a ValidationError at ``/name`` unless ``value`` is an int (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValidationError(f"{name} must be an integer of at least {minimum}, got {value!r}", path="/" + name)


def require_positive(value, name: str) -> None:
    """Raise a ValidationError at ``/name`` unless ``value`` is a finite number above zero (not NaN or inf)."""
    if not 0 < value < math.inf:
        raise ValidationError(f"{name} must be finite and positive, got {value!r}", path="/" + name)


def real_vector(value, name: str = "parameter vector x") -> np.ndarray:
    """``value`` as a new float64 array if every entry is a real number (int or float, not a
    bool, complex, string or object); raise a ValidationError otherwise."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError) as exc:  # a ragged sequence
        raise ValidationError(f"{name} must be an array of real numbers: {exc}") from exc
    if a.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must hold real numbers, got entries of type {a.dtype}")
    return a.astype(np.float64)


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances and budgets for one integration."""

    rtol: float = 1e-8
    atol: float = 1e-10
    initial_step: float | None = None
    max_steps: int = 100_000
    checkpoints: int | None = None  # default: ceil(sqrt(max_steps))

    def __post_init__(self):
        require_positive(self.rtol, "rtol")
        require_positive(self.atol, "atol")
        require_count(self.max_steps, "max_steps", 1)
        if self.initial_step is not None:
            require_positive(self.initial_step, "initial_step")
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
    """Final state plus the recorded trail needed for exact replay; integrate makes its arrays read-only.

    The trail's states are stored packed (linalg.HermitianPacking, d^2 reals
    per state); ``step_checkpoints`` and ``step_stages`` unpack them into new
    read-only (d, d) matrices on each access.
    """

    final_state: DensityOperator
    packed_checkpoints: tuple[tuple[int, np.ndarray], ...]  # (step index i, packed state i), i = 0 ... accepted
    step_times: np.ndarray  # accepted times, t0 ... T, length accepted+1
    step_sizes: np.ndarray  # accepted step sizes, length accepted
    stats: SolveStats
    t_span: tuple[float, float]
    x: np.ndarray  # a copy of the checked parameter vector the solve used
    model: LindbladModel
    # the packed (s, d^2) stage-state stacks of accepted steps 0 ... kept - 1,
    # row 0 the step's start state; only integrate(..., keep_stages=True) keeps any
    packed_stages: tuple[np.ndarray, ...] = ()

    @property
    def step_checkpoints(self) -> tuple[tuple[int, np.ndarray], ...]:
        """(step index i, state i as a (d, d) matrix) for each stored checkpoint."""
        return tuple((i, _unpacked(state)) for i, state in self.packed_checkpoints)

    @property
    def step_stages(self) -> tuple[np.ndarray, ...]:
        """The kept stage-state stacks as (s, d, d) matrices."""
        return tuple(_unpacked(stack) for stack in self.packed_stages)


def _packing_of(packed: np.ndarray):
    """The HermitianPacking of packed (..., d^2) states."""
    return packing(math.isqrt(packed.shape[-1]))


def _unpacked(packed: np.ndarray) -> np.ndarray:
    """Packed states as new read-only matrices."""
    matrix = _packing_of(packed).unpack(packed)
    matrix.setflags(write=False)
    return matrix


def _error_norm(
    sums: np.ndarray,
    y: np.ndarray,
    rtol: float,
    atol: float,
    scale: np.ndarray,
    ratio: np.ndarray,
) -> float:
    """Hairer's DOP853 blend err5^2 / sqrt((err5^2 + 0.01 err3^2) N) of the squared scaled norms.

    ``sums`` is the step's packed (3, *y.shape) stack (y_new, delta5,
    delta3), and the two estimates are read as its last two rows.  The norms
    are those of the full matrices: each entry's modulus is scaled by
    atol + rtol max(|y|, |y_new|) of that entry, an off-diagonal one weighs
    2 (it stands for X[i, j] and X[j, i]), and N is the matrices' entry
    count, the packed size.  The 3rd-order estimate keeps the 5th-order one
    from being too optimistic.  A squared norm that overflows gives inf, so
    the step is rejected.  ``scale`` ((..., m + d), the moduli of y's
    states) and ``ratio`` ((2, ..., m + d)), two C-contiguous float64
    buffers that share no memory (numpy copies an operand that may overlap
    the output), take the scale and the two scaled estimates, so a try
    allocates no state-sized temporary.
    """
    pack = _packing_of(y)
    pack.moduli(y, scale)
    np.maximum(scale, pack.moduli(sums[0], ratio[0]), out=scale)
    scale *= rtol
    scale += atol
    pack.moduli(sums[1:], ratio)
    for estimate in ratio:  # row by row: a broadcast scale would make numpy allocate a buffer
        estimate /= scale
    ratio *= ratio
    err5, err3 = (ratio.reshape(2, -1, pack.m + pack.d) @ pack.entry_weights).sum(axis=1).tolist()
    if not (math.isfinite(err5) and math.isfinite(err3)):
        return math.inf
    if err5 == 0.0:  # the norm's exact value, also where 0.01 err3 underflows and the blend would be 0 / 0
        return 0.0
    return err5 / math.sqrt((err5 + 0.01 * err3) * y.size)


def _rows(states: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(row, its flat view) for each row of a C-contiguous packed stack, built once per stack."""
    return list(zip(states, states.reshape(len(states), -1)))


class _StageLoop:
    """The buffers and views of one pass's stage loop (``_stage_states``) on packed states of one shape.

    ``stack`` is [y_n, k_0 ... k_(s-1)] and ``tableau`` is _TABLEAU with
    columns 1 ... s scaled by the current h, so stage state i is one BLAS
    product ``tableau[i, :i+1] @ stack[:i+1]`` over the stack's flat rows.
    Every operand view is built here, once per pass, so a step slices
    nothing.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.stack = np.empty((_S + 1, *shape))
        self.flat = self.stack.reshape(_S + 1, -1)
        self.tableau = _TABLEAU.copy()
        self.first_column = self.tableau[:, 0]
        self.stage_terms = [(self.tableau[i, : i + 1], self.flat[: i + 1]) for i in range(1, _S)]
        self.slopes = list(self.stack[2:])  # k_1 ... k_(s-1)

    def scale(self, h: float) -> None:
        """Scale the tableau's columns 1 ... s by h for the next step."""
        # two contiguous-source calls: a strided multiply would allocate a buffer
        np.multiply(_TABLEAU, h, out=self.tableau)
        np.copyto(self.first_column, _FIRST_COLUMN)


class _StageWork(_StageLoop):
    """The stage loop's buffers plus a whole step's (``rk_stages``): (y_new, delta5,
    delta3) is one (3, s+1) product of the scaled end weights with the stack into ``sums``,
    and ``scratch`` is one stage state for the stages of a step that keeps none."""

    def __init__(self, shape: tuple[int, ...]):
        super().__init__(shape)
        self.end_weights = self.tableau[_S:]
        self.sums = np.empty((3, *shape))
        self.sums_flat = self.sums.reshape(3, -1)
        self.scratch = _scratch_rows(shape)


def _scratch_rows(shape: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """One scratch stage state, as the s - 1 rows rk_stages writes a step's stages 1 ... s-1 into."""
    return _rows(np.empty((1, *shape))) * (_S - 1)


def _stage_states(
    f: Callable[..., np.ndarray],
    t: float,
    h: float,
    work: _StageLoop,
    stages: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    """A step's stage states 1 ... s-1 and every slope but the last: the stage loop of every pass.

    On entry rows 0 and 1 of work.stack hold y_n and k_0 = f(t, y_n).
    Stage state i is one BLAS product into ``stages[i - 1]`` (a row and its
    flat view: a kept or taped stack's row i, or one scratch state every
    stage overwrites), and f(t, y, out) writes k_i straight into stack row
    i + 1 for i < s - 1.  The forward step, segment replay and the reverse
    step's recompute all form their stage states here, each on its own
    workspace, so the three form bit-identical states.
    """
    work.scale(h)
    for (weights, operand), (state, flat), slope, c in zip(work.stage_terms, stages, work.slopes, _STAGE_NODES):
        np.dot(weights, operand, out=flat)
        f(t + c * h, state, slope)
    np.dot(*work.stage_terms[-1], out=stages[-1][1])


def rk_stages(
    f: Callable[..., np.ndarray],
    t: float,
    h: float,
    work: _StageWork,
    stages: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """One step's stages and sums: return work.sums, (y_new, delta5, delta3) of the step of size h.

    _stage_states forms the stage states into ``stages``, f writes the last
    slope into work.stack's last row, and the sums are one (3, s+1)
    product.  The adaptive loop and segment replay both step through here,
    so a replayed step performs bit-identical floating-point operations.
    """
    _stage_states(f, t, h, work, stages)
    f(t + DOP853.c[-1] * h, stages[-1][0], work.slopes[-1])
    np.dot(work.end_weights, work.flat, out=work.sums_flat)
    return work.sums


def _initial_step(
    f: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0: np.ndarray,
    f0: np.ndarray,
    span: float,
    rtol: float,
    atol: float,
) -> float:
    """Starting step size from the standard two-evaluation heuristic, on the full matrices' entries
    (each off-diagonal modulus of a packed state weighs 2, as in _error_norm)."""
    pack = _packing_of(y0)

    def moduli(r: np.ndarray) -> np.ndarray:
        return pack.moduli(r, np.empty((*r.shape[:-1], pack.m + pack.d)))

    def rms(values: np.ndarray) -> float:  # values are the scaled moduli
        return math.sqrt(float(np.sum((values * values) @ pack.entry_weights)) / y0.size)

    scale = atol + rtol * moduli(y0)
    d0 = rms(moduli(y0) / scale)
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        d1 = rms(moduli(f0) / scale)
    if not math.isfinite(d1):
        raise IntegrationError(f"the scaled norm of the initial slope overflows at t = {t0:.6g}")
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = f(t0 + h0, y0 + h0 * f0)
    d2 = rms(moduli(f1 - f0) / scale) / h0
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
    stages: list[np.ndarray]


def _adaptive_core(
    f: Callable[..., np.ndarray],
    y0: np.ndarray,
    t0: float,
    t_final: float,
    cfg: SolveConfig,
    keep_stages: bool = False,
) -> _CoreTrail:
    """Adaptive 8(5,3) loop on a packed state or stack of them (..., d^2); f(t, y, out=None) as in rk_stages.

    Records every accepted step time and size, and keeps a thinned
    checkpoint list: stride doubles whenever the stored count would exceed
    the budget, so checkpoints stay roughly equally spaced in accepted-step
    index; the first entry is step 0 (t0) and the last is step accepted (t_final).
    With ``keep_stages`` the stage-state stacks of the leading accepted steps
    are kept too, each counted as s states against the budget: checkpoints
    come first, and after each accepted step the kept count shrinks to what
    they leave, kept <= (budget - 1 - stored) // s, so at the end stored + s
    kept <= budget.  A step that may be kept writes into a fresh stack, which
    a rejected try leaves to its retry, any other into one scratch state, and
    _KEPT_STAGES_MAX_BYTES bounds the kept bytes.  The room for stacks only
    shrinks, so kept steps are a prefix.  The solve owns one _StageWork, and
    y_n lives in row 0 of its stack; the error norm writes into two float64
    buffers it also allocates once.
    """
    span = t_final - t0
    s = _S
    work = _StageWork(y0.shape)
    y, sums, scratch = work.stack[0], work.sums, work.scratch
    pack = _packing_of(y0)
    error_scale = np.empty((*y0.shape[:-1], pack.m + pack.d))
    error_ratio = np.empty((2, *error_scale.shape))
    np.copyto(y, y0)
    f0 = f(t0, y, work.stack[1])
    h = cfg.initial_step if cfg.initial_step is not None else _initial_step(f, t0, y, f0, span, cfg.rtol, cfg.atol)
    h = min(h, span)

    budget = cfg.checkpoint_budget
    stored: list[tuple[int, np.ndarray]] = [(0, y.copy())]
    stride = 1
    # one slot each for the first and the final checkpoint
    room = min((budget - 2) // s, _stacks_under_cap(y0.nbytes)) if keep_stages else 0
    kept: list[np.ndarray] = []
    fresh = None  # the stack a keepable try writes into, until a step keeps it

    step_times = [t0]
    step_sizes: list[float] = []
    t = t0
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
        if len(kept) < room:
            if fresh is None:
                fresh = np.empty((s, *y0.shape))
                fresh_rows = _rows(fresh)[1:]
            stages = fresh_rows
        else:
            stages = scratch
        # e[-1] = e3[-1] = 0: the estimates need no FSAL slope, so only an
        # accepted step pays for f(t + h, y_new)
        try:
            rk_stages(f, t, h, work, stages)
        except ValidationError as exc:  # lindblad_rhs rejects a stage state that blew up
            raise IntegrationError(f"step at t = {t:.6g} with h = {h:.3e} failed: {exc}") from exc
        # any non-finite entry makes the sum non-finite; finite sums whose
        # total overflows take the elementwise test
        if not math.isfinite(work.sums_flat.sum()) and not np.isfinite(work.sums_flat).all():
            raise IntegrationError(f"non-finite state produced at t = {t:.6g} with h = {h:.3e}")
        err = _error_norm(sums, y, cfg.rtol, cfg.atol, error_scale, error_ratio)
        if err <= 1.0:
            if stages is not scratch:
                np.copyto(fresh[0], y)
                kept.append(fresh)
                fresh = None
            np.copyto(y, sums[0])
            f(t + h, y, work.stack[1])
            t = t_final if last else t + h
            accepted += 1
            step_times.append(t)
            step_sizes.append(h)
            if accepted % stride == 0 and t < t_final:
                stored.append((accepted, y.copy()))
                # reserve one slot for the final state appended below
                if len(stored) > budget - 1:
                    stored = stored[::2]
                    stride *= 2
            room = min(room, (budget - 1 - len(stored)) // s)
            del kept[room:]
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

    y = y.copy()
    stored.append((accepted, y.copy()))
    return _CoreTrail(
        final=y,
        step_times=np.array(step_times),
        step_sizes=np.array(step_sizes),
        rejected=rejected,
        checkpoints=stored,
        stages=kept,
    )


class _CountedRhs:
    """f(t, state, out=None) = lindblad_rhs(t, state, model, x, out), looked up in this module per call.

    Counts ``calls``.
    """

    def __init__(self, model: LindbladModel, x: np.ndarray):
        self.model, self.x, self.calls = model, x, 0

    def __call__(self, t: float, state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        self.calls += 1
        return lindblad_rhs(t, state, self.model, self.x, out)


def _check_inputs(
    model: LindbladModel, x: np.ndarray, rho0: DensityOperator | np.ndarray, t_span: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(packed rho0, x as float64, t0, T), each checked."""
    t0, t_final = float(t_span[0]), float(t_span[1])
    if not (np.isfinite(t0) and np.isfinite(t_final)) or not t_final > t0:
        raise ValidationError(f"need a finite span with T > t0, got ({t0}, {t_final})")
    if not isinstance(rho0, DensityOperator):
        rho0 = DensityOperator.from_matrix(rho0)
    if rho0.dimension != model.dimension:
        raise ValidationError(
            f"initial state dimension {rho0.dimension} does not match model dimension {model.dimension}"
        )
    x = real_vector(x)
    if x.shape != (model.n_params,):
        raise ValidationError(f"parameter vector shape {x.shape} != ({model.n_params},)")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"parameter vector x must be finite, got {x}")
    validate_hamiltonian(model, x, t0)
    return packing(model.dimension).pack(rho0.matrix), x, t0, t_final


def _psd_tolerance(cfg: SolveConfig) -> float:
    """The one PSD rule for a solve's rho(T): integrate's check and the QFI of that state both read it."""
    return max(1e-7, 50.0 * cfg.rtol)


def _final_state(y: np.ndarray, cfg: SolveConfig) -> DensityOperator:
    """rho(T) of the packed y as a DensityOperator, its trace and PSD checks scaled with cfg.rtol.  Its
    Hermiticity check is the state rule itself: an unpacked state is bitwise Hermitian."""
    matrix = _packing_of(y).unpack(y)
    return DensityOperator.from_matrix(matrix, trace_tol=max(STATE_TOL, 50.0 * cfg.rtol), psd_tol=_psd_tolerance(cfg))


def _trace(y: np.ndarray) -> float:
    """Tr X of a packed state: the sum of its diagonal, the last d coordinates."""
    return float(y[-math.isqrt(y.size) :].sum())


def integrate(
    model: LindbladModel,
    x: np.ndarray,
    rho0: DensityOperator | np.ndarray,
    t_span: tuple[float, float],
    cfg: SolveConfig = SolveConfig(),
    *,
    keep_stages: bool = False,
) -> SolveResult:
    """Integrate the master equation from t0 to T with adaptive steps.

    Steps on packed states (linalg.HermitianPacking).  Returns the final
    state, a thinned trail of (step index, packed state) checkpoints (first
    step 0, last step accepted, roughly equally spaced in index, at most the
    configured checkpoint count), and the full accepted step grid, from
    which the step statistics are read.  With ``keep_stages``, for a solve
    that will be differentiated, the result's ``packed_stages`` also holds
    the stage-state stacks of as many leading accepted steps as the
    checkpoint budget leaves room for (each counted as s states) and the
    fixed byte cap allows; otherwise it is empty.
    """
    y0, x, t0, t_final = _check_inputs(model, x, rho0, t_span)
    trace0 = _trace(y0)

    f = _CountedRhs(model, x)

    trail = _adaptive_core(f, y0, t0, t_final, cfg, keep_stages)
    y, sizes = trail.final, trail.step_sizes
    final_state = _final_state(y, cfg)
    matrix = final_state.matrix
    stats = SolveStats(
        accepted=len(sizes),
        rejected=trail.rejected,
        rhs_evaluations=f.calls,
        trace_drift=abs(_trace(y) - trace0),
        hermiticity_drift=float(np.linalg.norm(matrix - matrix.conj().T)),
        min_step=float(sizes.min()),
        max_step=float(sizes.max()),
    )
    counters.forward_integrations += 1
    counters.rhs_evaluations += f.calls

    x = x.copy()  # replay and the adjoint trust these arrays, so none of them may change
    for a in (x, trail.step_times, sizes, matrix, *trail.stages, *(s for _, s in trail.checkpoints)):
        a.setflags(write=False)
    return SolveResult(
        final_state=final_state,
        packed_checkpoints=tuple(trail.checkpoints),
        step_times=trail.step_times,
        step_sizes=sizes,
        stats=stats,
        t_span=(t0, t_final),
        x=x,
        model=model,
        packed_stages=tuple(trail.stages),
    )


def dense_segment(
    result: SolveResult,
    state_at_checkpoint: np.ndarray,
    steps: tuple[int, int],
    *,
    tape: np.ndarray | None = None,
    workspace: _StageWork | None = None,
) -> list[tuple[float, np.ndarray]]:
    """Recompute accepted-step states i_a ... i_b, integer ``steps`` = (i_a, i_b), for the reverse pass.

    The segment is replayed with the model and x of ``result`` on its
    recorded accepted-step grid: the same step sizes and stages, hence the
    same floating-point operations, hence bit-identical states.  The state
    at step i_a is an argument rather than read from the stored checkpoints,
    so a caller may replay from a state it recomputed itself: a packed
    (d^2,) vector, and the states returned are packed, or a Hermitian (d, d)
    matrix (its upper triangle and real diagonal are read), and they are
    new (d, d) matrices.  Returns [(t_i, state_i) for i = i_a ... i_b] with
    t_i = result.step_times[i]; when i_b == i_a that is just
    [(t_i_a, state_a)], with no RHS call.

    ``tape``, a writable C-contiguous float64 (m, s, d^2) array, is filled
    like ``out=``: row j holds step i_a + j for j < m, just as the forward
    solve writes a kept packed stack (row 0 y_n, rows 1 ... s-1 the stage
    states formed by the same products), and any later step forms its
    stages in one scratch state.  Replay writes packed state i_a + j
    straight into tape[j, 0] for 1 <= j < m, so for a packed start those
    returned states are views into the tape, valid until the tape is next
    filled.  ``workspace``, the stage-loop buffers of a pass that replays
    many segments (the reverse pass's), is used instead of allocating new
    ones for each segment.
    """
    i_a, i_b = operator.index(steps[0]), operator.index(steps[1])
    if not 0 <= i_a <= i_b <= result.stats.accepted:
        raise ValidationError(f"segment needs 0 <= i_a <= i_b <= {result.stats.accepted}, got ({i_a}, {i_b})")
    d = result.model.dimension
    pack = packing(d)
    packed = np.shape(state_at_checkpoint) == (d * d,)
    # no copy of a packed start: the returned list shares the caller's checkpoint
    # array as its left endpoint, keeping reverse-pass retained states at K + segment steps
    if packed:
        y = np.asarray(state_at_checkpoint, dtype=np.float64)
    else:
        matrix = np.ascontiguousarray(state_at_checkpoint, dtype=np.complex128)
        if matrix.shape != (d, d):
            raise ValidationError(f"segment start must be a ({d}, {d}) matrix or a packed ({d * d},) state")
        y = pack.pack(matrix)
    if tape is None:
        tape = np.empty((0, _S, d * d))
    elif (
        not isinstance(tape, np.ndarray)
        or tape.dtype != np.float64
        or tape.shape[1:] != (_S, d * d)
        or not (tape.flags.c_contiguous and tape.flags.writeable)
    ):
        raise ValidationError(f"tape must be a writable C-contiguous float64 (m, {_S}, {d * d}) array")

    f = _CountedRhs(result.model, result.x)
    if i_b > i_a:  # one workspace and its scratch stage state serve every replayed step
        work = _StageWork(y.shape) if workspace is None else workspace
        y_n, y_new = work.stack[0], work.sums[0]
        if len(tape):
            np.copyto(tape[0, 0], y)

    times = result.step_times
    out: list[tuple[float, np.ndarray]] = [(float(times[i_a]), y)]
    for j, n in enumerate(range(i_a, i_b)):
        t_n, h_n = float(times[n]), float(result.step_sizes[n])
        np.copyto(y_n, y)
        f(t_n, y_n, work.stack[1])
        rk_stages(f, t_n, h_n, work, _rows(tape[j])[1:] if j < len(tape) else work.scratch)
        y = tape[j + 1, 0] if j + 1 < len(tape) else np.empty_like(y_n)
        np.copyto(y, y_new)
        out.append((float(times[n + 1]), y))
    counters.rhs_evaluations += f.calls
    if not packed:
        out = [(t, pack.unpack(state)) for t, state in out]
    return out
