"""Forward (tangent) and reverse (adjoint) derivatives of the integration.

The complex master equation is differentiated through its realification:
the state is viewed as the stacked real vector (Re rho, Im rho), on which
every cost is an ordinary real function.  For the realified system the
transpose-Jacobian product is exactly the application of the adjoint
generator, so a cotangent is lambda, the Hermitian part of dc/d(Re rho) +
i dc/d(Im rho), paired with the Hermitian tangents v through
Re Tr(lambda^dag v); every v_i and lambda the reverse pass forms is
Hermitian, the operand L^dag takes, so the pass carries them packed.

The reverse pass is the exact discrete adjoint of the replayed forward
steps: each checkpoint segment is recomputed forward on the recorded step
grid, then the stage cotangent recursion runs backward through the same
stages, with the A and b of the solver's one tableau (``solver.DOP853``), on
a workspace the pass allocates once, in packed coordinates
(linalg.HermitianPacking) as the solver's: vectors of d^2 reals, whose
Hilbert-Schmidt pairing is sum(weights * a * b).  Its (s+1, d^2) stack holds
[y_n, k_0 ... k_(s-2), -] while a step recomputes its stage states and
[w_0 ... w_(s-1), lambda] after, so each v_i (a packed, h-scaled row
[a_(i+1)i ... a_(s-1)i, b_i] times the stack's rows i+1 ... s) and
lambda_prev (a ones row times the whole stack) is one BLAS product; each
L^dag application writes w_i straight into its row.  A step pairs each v_i
with dL/dx_k(Y_i) = -i [dH/dx_k, Y_i] in packed form: on a compiled model one
kernel call with the stacked maps of the S_k over all stages and
parameters, on the sandwich kernel one product dH/dx_k Y_i per stage and
parameter.  A step gets its stage states from one of three sources, all
with the same bits: the stack the solve kept (``SolveResult.packed_stages``,
filled by ``integrate(..., keep_stages=True)``), the row of the pass's one
(m, s, d^2) tape that segment replay wrote (row j holds the segment's step
i_a + j; m is the longest segment less one, capped by solver's byte cap), or,
for each segment's last step and the steps beyond the cap, the solver's own
stage loop (``solver._stage_states``) with s - 1 L applications; replay
steps on the pass's own workspace.
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
from .linalg import hermitian_part, packing, to_dense
from .model import DensityOperator, LindbladModel, _generator_apply, _on_packed, lindblad_rhs, rhs_parameter_derivative
from .solver import (
    DOP853,
    SolveConfig,
    SolveResult,
    dense_segment,
    real_vector,
    _S,
    _TABLEAU,
    _StageWork,
    _adaptive_core,
    _check_inputs,
    _CountedRhs,
    _final_state,
    _rows,
    _stacks_under_cap,
    _stage_states,
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


def _probe_operators(d: int) -> np.ndarray:
    """The Hermitian K and A of CostCofunction.verify's probe directions at dimension d."""
    rng = np.random.default_rng(0xC0F7 + d)
    draws = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2)]
    return np.array([hermitian_part(m) for m in draws])


@dataclass(frozen=True)
class CostCofunction:
    """Scalar terminal cost c(rho(T)) with its own gradient rule.

    ``gradient`` returns (dc/d(Re rho), dc/d(Im rho)) as real matrices.
    adjoint_gradient trusts this rule and never calls ``evaluate``;
    ``verify(rho)`` probes the rule against central finite differences of
    ``evaluate`` along spectrum-safe directions, and is the way to check a
    cost before differentiating through it.
    """

    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    name: str = "cost"

    def cotangent(self, rho: np.ndarray) -> np.ndarray:
        """The Hermitian part of the packing C = dc/d(Re rho) + i dc/d(Im rho): the gradient
        over Hermitian states, as Re Tr(C^H sigma) = Re Tr(C sigma) for every Hermitian sigma.  Each
        block must hold real numbers, by the rule x obeys (solver.real_vector)."""
        dre, dim = self.gradient(rho)
        dre = real_vector(dre, "cost gradient block dc/d(Re rho)")
        dim = real_vector(dim, "cost gradient block dc/d(Im rho)")
        if dre.shape != rho.shape or dim.shape != rho.shape:
            raise ValidationError(
                f"cost gradient blocks have shapes {dre.shape}/{dim.shape}, expected {rho.shape}"
            )
        packed = dre + 1j * dim
        return hermitian_part(packed)

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
        k_dir, a_dir = _probe_operators(rho.shape[0])
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

    dc_drho0 is realified (length 2 d^2) and Hermitian, the gradient over
    Hermitian rho0; dc_dT is the endpoint derivative <dc/d(rho(T)), L(rho(T))>.
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


def adjoint_liouvillian_apply(
    model: LindbladModel, x: np.ndarray, t: float, lam: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Adjoint generator: +i[H, lam] + sum_j gamma_j (J^dag lam J - (1/2){J^dag J, lam}).

    lam must be Hermitian, packed or a matrix as lindblad_rhs's rho, and the
    result has its form.  Satisfies the pairing identity
    Tr(lam^dag L(rho)) == Tr((L^dag lam)^dag rho).  With ``out``, a C-contiguous
    array of the result's form that does not overlap lam, the result is
    written into it and it is returned.
    """
    lam, x = np.asarray(lam), np.asarray(x, dtype=float)
    return _on_packed(lambda r, o: _generator_apply(model, t, x, r, o, adjoint=True), model, lam, out, "adjoint state")


def forward_sensitivity(
    model: LindbladModel,
    x: np.ndarray,
    rho0: DensityOperator | np.ndarray,
    t_span: tuple[float, float],
    cfg: SolveConfig = SolveConfig(),
) -> tuple[DensityOperator, np.ndarray]:
    """Jointly integrate the state and its tangents d(rho)/d(x_k) for every k.

    The stacked system is d/dt (rho, sigma_1..sigma_p) = (L rho, L sigma_k +
    dL/dx_k rho for each k) with sigma_k(t0) = 0, solved in one adaptive
    integration on packed states whose error control acts on the whole stack;
    each evaluation applies L p + 1 times and writes each dL/dx_k rho into one
    scratch state.  Returns (rho(T) as a DensityOperator, the tangents
    sigma_k(T) as one array of shape (p, d, d)).
    """
    y0, x, t0, t_final = _check_inputs(model, x, rho0, t_span)
    p = model.n_params
    stacked0 = np.stack([y0] + [np.zeros_like(y0)] * p)
    scratch = np.empty_like(y0)  # dL/dx_k rho, for each k in turn
    rhs_calls = 0

    def f(t: float, state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        nonlocal rhs_calls
        rhs_calls += p + 1  # one lindblad_rhs for the state and one per tangent
        if out is None:
            out = np.empty_like(state)
        rho = state[0]
        lindblad_rhs(t, rho, model, x, out[0])
        for k in range(p):
            lindblad_rhs(t, state[k + 1], model, x, out[k + 1])
            out[k + 1] += rhs_parameter_derivative(t, rho, model, x, k, scratch)
        return out

    trail = _adaptive_core(f, stacked0, t0, t_final, cfg)
    counters.forward_integrations += 1
    counters.rhs_evaluations += rhs_calls
    return _final_state(trail.final[0], cfg), packing(model.dimension).unpack(trail.final[1:])


#: The cotangent weights over [w_0 ... w_(s-1), lam], before h: row i holds a_(i+1)i ... a_(s-1)i
#: in columns i + 1 ... s - 1 and b_i in column s, so v_i is row i's tail times rows i + 1 ... s.
_COTANGENT_WEIGHTS = np.zeros((_S, _S + 1))
_COTANGENT_WEIGHTS[:, :_S] = _TABLEAU[:_S, 1:].T
_COTANGENT_WEIGHTS[:, _S] = DOP853.b
_COTANGENT_WEIGHTS.setflags(write=False)
_ONES = np.ones(_S + 1)
_ONES.setflags(write=False)


class _ReverseWork(_StageWork):
    """The buffers and views of one adjoint pass on packed d x d states: its replay and its reverse steps.

    Segment replay (``dense_segment(..., workspace=)``) steps on the
    inherited stage loop, sums and scratch state.  In a reverse step the
    stack is [y_n, k_0 ... k_(s-2), -] while the step recomputes its stage
    states into Y and [w_0 ... w_(s-1), lam] from then on, so
    v_i = h [a_(i+1)i ... a_(s-1)i, b_i] @ stack[i+1:] is one BLAS product
    and lam_prev = ones @ stack another, into ``lam``.  V holds the v_i.  A
    compiled model's pairing also takes Y and the weighted V transposed,
    (d^2, s), and a (p d^2, s) buffer for the products dL/dx_k (Y_i); the
    sandwich kernel's takes one matrix for the unpacked Y_i, one packed state
    for the weighted v_i and one for -i [dH/dx_k, Y_i].
    """

    def __init__(self, d: int, compiled: bool, n_params: int):
        shape = (d * d,)
        super().__init__(shape)
        self.ys, self.vs = np.empty((2, _S, *shape))
        self.lam = np.empty(shape)
        self.cotangent = np.empty((_S, _S + 1))
        self.y_rows = _rows(self.ys)[1:]
        self.ws = self.stack[:_S]
        v_rows = _rows(self.vs)
        # i = s-1 ... 0: (weights, operand rows i+1 ... s, v_i, its flat view, w_i)
        self.cotangent_terms = [
            (self.cotangent[i, i + 1 :], self.flat[i + 1 :], *v_rows[i], self.ws[i]) for i in reversed(range(_S))
        ]
        if compiled:
            self.stages_t, self.vs_t = np.empty((2, d * d, _S))
            self.products = np.empty((n_params * d * d, _S))
        else:
            self.stage_matrix = np.empty((d, d), dtype=np.complex128)
            self.weighted_v, self.commutator = np.empty((2, *shape))


def _reverse_step(
    model: LindbladModel,
    x: np.ndarray,
    t_n: float,
    y_n: np.ndarray,
    h: float,
    lam: np.ndarray,
    grad: np.ndarray,
    f: Callable[..., np.ndarray],
    work: _ReverseWork,
    stages: np.ndarray | None = None,
) -> np.ndarray:
    """Exact reverse-mode of one replayed step of the DOP853 tableau on packed states; returns lam_prev in work.lam.

    The s stage states Y are ``stages`` if given, the step's kept or taped stack;
    otherwise solver._stage_states forms them into work.ys from work.stack =
    [y_n, k_0 ...], the forward step's stage loop with f filling its slope
    rows, s - 1 calls (the last stage's slope is never read).  It
    then runs the cotangent recursion on V and the stack, which now holds
    [w_0 ... w_(s-1), lam]:
        v_i = h b_i lam + h sum_{j>i} a_ji w_j,   w_i = L^dag(t_i) v_i,
    each v_i one BLAS product into its row of V and each w_i written
    straight into row i, giving lam_prev = lam + sum_i w_i, one product with
    a ones row.  Then dc/dx_k += sum_i <v_i, dL/dx_k (Y_i)>, the pairing
    Re Tr(v_i^H (-i [A_k(t_i), Y_i])), A_k = dH/dx_k (jump channels do not
    depend on x).  On a compiled model A_k is constant, and with Y and the
    weighted V copied into (d^2, s) columns Superoperator.pairings gives every
    k's sum from one kernel call.  On the sandwich kernel each stage unpacks Y_i
    once, and each parameter takes one product M = A_k(t_i) Y_i, packs
    -i [A_k, Y_i] = -i (M - M^H) from it and pairs it with v_i through the
    packed weights.  Either way
    the (a, b) term of the trace Tr(v_i A_k Y_i) meets its (b, a) partner
    before the sum (as the packed coordinate of a Hermitian matrix), so the
    terms whose imaginary parts cancel pairwise never enter it.
    """
    if stages is None:  # the stack is unused until the recursion below, so the fresh slopes fill it
        stages = work.ys
        np.copyto(stages[0], y_n)
        np.copyto(work.stack[0], y_n)
        f(t_n, stages[0], work.stack[1])
        _stage_states(f, t_n, h, work, work.y_rows)
    stage_times = [t_n + c * h for c in DOP853.c]
    np.copyto(work.stack[_S], lam)
    np.multiply(_COTANGENT_WEIGHTS, h, out=work.cotangent)
    for (weights, operand, v, v_flat, w), t_i in zip(work.cotangent_terms, reversed(stage_times)):
        np.dot(weights, operand, out=v_flat)
        adjoint_liouvillian_apply(model, x, t_i, v, w)
    np.dot(_ONES, work.flat, out=work.lam)
    compiled, pack = model.superoperator, packing(model.dimension)
    if compiled is not None:
        np.copyto(work.stages_t, stages.T)
        np.copyto(work.vs_t, work.vs.T)
        work.vs_t[: 2 * pack.m] *= 2.0  # the packed weights; a broadcast multiply would allocate a buffer
        grad += compiled.pairings(work.stages_t, work.vs_t, work.products)
        return work.lam
    for t_i, y_i, v_i in zip(stage_times, stages, work.vs):
        y = pack.unpack(y_i, work.stage_matrix)
        np.multiply(v_i, pack.weights, out=work.weighted_v)
        for k in range(grad.shape[0]):
            m = np.asarray(model.hamiltonian.param_derivative(t_i, x, k) @ y, dtype=np.complex128)
            grad[k] += np.dot(work.weighted_v, pack.pack_commutator(m, work.commutator))
    return work.lam


def adjoint_gradient(result: SolveResult, cost: CostCofunction) -> GradientResult:
    """Reverse-mode gradient of a terminal cost through the solve ``result``.

    Forms the cost's cotangent at the final state once, with no check of
    the cost's gradient rule: a cost passed here is trusted, and
    ``cost.verify(rho)`` is the way to check one.  Then sweeps backward
    segment by segment: each segment between stored checkpoints is replayed
    on the recorded grid with the model and x of ``result`` and its steps
    are reverse-differentiated exactly.  Returns dc/dx, the realified
    dc/d(rho0) (the terminal adjoint state), and dc/dT.  For a fresh solve pass ``integrate(model, x, rho0,
    t_span, cfg, keep_stages=True)``: the steps whose stage states it kept
    then need no stage recompute, and the gradient is bit-equal either way.
    Replay fills one tape, allocated once per pass with longest - 1 rows
    or as many as solver's byte cap allows: row j takes the stage states of
    a segment's step i_a + j, and the segment's state i_a + j is a view of
    its row 0.  So of each segment only the last step, and the steps beyond
    the cap, recompute their stage states.  A solve that keeps stacks
    stores a checkpoint at every step, so kept stacks and a tape never meet
    in one pass.  The diagnostics come from the checkpoints' step indices:
    ``segments`` (stored count - 1), ``steps_replayed`` (the
    reverse-differentiated steps: the last index, = accepted) and
    ``longest_segment`` (the largest gap between indices);
    ``kept_stage_steps`` and ``taped_stage_steps`` are the numbers of
    reverse steps that read kept forward stage states and taped replayed
    ones, ``adjoint_rhs_evaluations`` the L applications that recompute
    stage states, (s - 1) per step with neither, and
    ``adjoint_generator_applications`` the L^dag applications of the stage
    recursion, s per step; ``peak_retained_states`` the most states held
    at once, counting each kept stack and each tape row as s states and a
    taped state once, so at most checkpoints + longest + s (longest - 1).
    """
    model, x, t_final = result.model, result.x, result.t_span[1]
    rho_t = result.final_state.matrix
    cotangent = cost.cotangent(rho_t)
    dc_dt = _pair(cotangent, lindblad_rhs(t_final, rho_t, model, x))
    d = model.dimension
    pack = packing(d)
    lam = pack.pack(cotangent)

    f = _CountedRhs(model, x)
    grad = np.zeros(model.n_params)
    stored = result.packed_checkpoints
    pairs = list(zip(stored, stored[1:]))
    s = _S
    kept = len(result.packed_stages)
    longest = max(i_b - i_a for (i_a, _), (i_b, _) in pairs)
    work = _ReverseWork(d, model.superoperator is not None, model.n_params)
    # tape row j holds a segment's step i_a + j, for all but its last step;
    # a solve that keeps stacks stores a checkpoint at every step, so kept
    # stacks and a tape never meet in one pass
    rows = min(longest - 1, _stacks_under_cap(lam.nbytes))
    tape = np.empty((rows, s, d * d)) if rows else None
    taped = peak = 0

    for (i_a, _), (i_b, _) in reversed(pairs):
        # replay stops at the start of the segment's last step: the state at
        # its right end is the stored next checkpoint, which nothing reads
        segment = dense_segment(result, (i_a, i_b - 1), tape=tape, workspace=work)
        # state 0 is the checkpoint and states 1 ... rows - 1 live in the tape
        peak = max(peak, len(stored) + max(0, len(segment) - max(rows, 1)) + s * (kept + rows))
        on_tape = min(rows, len(segment) - 1)
        taped += on_tape
        for j, (t_n, y_n) in reversed(list(enumerate(segment))):
            n = i_a + j
            if n < kept:
                stages = result.packed_stages[n]
            else:
                stages = tape[j] if j < on_tape else None
            lam = _reverse_step(model, x, t_n, y_n, float(result.step_sizes[n]), lam, grad, f, work, stages)

    applications = s * stored[-1][0]  # _reverse_step applies L^dag once per stage
    counters.adjoint_passes += 1
    counters.adjoint_rhs_evaluations += f.calls
    counters.adjoint_generator_applications += applications
    counters.note_retained_states(peak)
    diagnostics = {
        "segments": len(pairs),
        "steps_replayed": stored[-1][0],
        "longest_segment": longest,
        "kept_stage_steps": kept,
        "taped_stage_steps": taped,
        "adjoint_rhs_evaluations": f.calls,
        "adjoint_generator_applications": applications,
        "peak_retained_states": peak,
    }
    return GradientResult(
        dc_dx=grad,
        dc_drho0=realify(pack.unpack(lam)),
        dc_dT=dc_dt,
        diagnostics=diagnostics,
    )
