"""Parameterized open-system model and master-equation right-hand side.

The generator acts on density matrices as

    d(rho)/dt = -i [H(t, x), rho]
                + sum_j gamma_j (J_j rho J_j^dag - (1/2) {J_j^dag J_j, rho})

with a Hermitian, time- and parameter-dependent Hamiltonian H and fixed jump
channels (gamma_j, J_j), applied in effective-Hamiltonian form
L(rho) = -i (H_eff rho - rho H_eff^dag) + sum_j gamma_j J_j rho J_j^dag with
H_eff = H - iK, K = (1/2) sum_j gamma_j J_j^dag J_j: L^dag and dL/dx_k are the
same sandwich kernel with other operands.  A jump operator that acts on one
qubit, J = I (x) a (x) I with a 2x2 factor a of at most two nonzero entries
(sigma_+/-, sigma_x/y/z, the projectors; every preset channel), is detected
once per JumpChannel and applied as O(d^2) block copies on the qubit tensor
view of the state; every other J takes two dense or sparse products.  The
right-hand side is evaluated on raw complex matrices: intermediate
integrator stages legitimately violate trace and positivity, so state
invariants are only enforced on accepted states via DensityOperator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import ShapeMismatchError, ValidationError
from .linalg import Operator
from .spins import LOWERING, all_zero_state, as_sparse, collective_sx, collective_sz, embed_single

#: Step used by the central-difference fallback for dH/dx_k, scaled by max(1, |x_k|).
FD_FALLBACK_STEP = 1e-6


@dataclass(frozen=True)
class DensityOperator:
    """Validated quantum state: Hermitian, unit-trace, PSD complex matrix."""

    matrix: np.ndarray
    n_qubits: int

    @classmethod
    def from_matrix(
        cls,
        matrix,
        *,
        trace_tol: float = 1e-9,
        herm_tol: float = 1e-9,
        psd_tol: float = 1e-9,
    ) -> "DensityOperator":
        m = linalg.as_cmatrix(matrix, square=True, name="density matrix")
        d = m.shape[0]
        n = d.bit_length() - 1
        if 2**n != d:
            raise ValidationError(f"density matrix dimension {d} is not a power of two")
        scale = max(float(np.linalg.norm(m)), 1e-300)
        if linalg.hermiticity_defect(m) >= herm_tol * scale:
            raise ValidationError("density matrix is not Hermitian within tolerance")
        tr = linalg.trace(m)
        if abs(tr - 1.0) >= trace_tol:
            raise ValidationError(f"density matrix trace {tr} deviates from 1 beyond {trace_tol}")
        lam_min = float(np.linalg.eigvalsh(m)[0])
        if lam_min <= -psd_tol:
            raise ValidationError(f"density matrix has eigenvalue {lam_min:.3e} below -{psd_tol}")
        return cls(matrix=m, n_qubits=n)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2), real part."""
    return float(np.trace(rho @ rho).real)


@dataclass(frozen=True)
class LocalJump:
    """Single-qubit form J = I_{2^site} (x) factor (x) I_{2^(n-1-site)} of a jump operator.

    On the view X.reshape(``view``) = (L, 2, R, L, 2, R), J X J^dag adds
    c * X[:, q, :, :, q', :] to X[:, p, :, :, p', :] for each nonzero entry
    c = factor[p, q] conj(factor[p', q']) of factor (x) conj(factor); ``blocks``
    holds these as (destination index, source index, c).  J^dag X J swaps
    destination and source and conjugates c.
    """

    site: int
    factor: np.ndarray
    view: tuple[int, ...]
    blocks: tuple[tuple[tuple, tuple, complex], ...]


def _local_jump(op: Operator) -> LocalJump | None:
    """The single-qubit form of op if it has one with at most two nonzero factor entries, else None.

    One scan for the nonzero entries (O(d^2) dense, O(nnz) CSR); a local op has
    d/2 or d of them, and each site is then checked against those alone.
    """
    d = op.shape[0]
    n = d.bit_length() - 1
    if 2**n != d:
        return None
    if linalg.is_sparse(op):
        coo = op.tocoo()
        coo.sum_duplicates()
        keep = coo.data != 0
        rows, cols, vals = coo.row[keep], coo.col[keep], coo.data[keep]
    else:
        rows, cols = np.nonzero(op)
        vals = op[rows, cols]
    if len(vals) not in (d // 2, d):
        return None
    for site in range(n):
        bit = d >> (site + 1)
        if np.any((rows ^ cols) & ~bit):
            continue
        p, q = (rows & bit) // bit, (cols & bit) // bit
        factor = np.zeros((2, 2), dtype=np.complex128)
        factor[p, q] = vals
        # every entry sits in the support of I (x) factor (x) I with its value; equal counts fill it
        if np.array_equal(factor[p, q], vals) and np.count_nonzero(factor) * (d // 2) == len(vals):
            entries = [(int(i), int(j), factor[i, j]) for i, j in zip(*np.nonzero(factor))]
            blocks = tuple(
                (np.s_[:, p1, :, :, p2, :], np.s_[:, q1, :, :, q2, :], complex(c1 * np.conj(c2)))
                for p1, q1, c1 in entries
                for p2, q2, c2 in entries
            )
            view = (2**site, 2, bit, 2**site, 2, bit)
            return LocalJump(site=site, factor=factor, view=view, blocks=blocks)
    return None


@dataclass(frozen=True)
class JumpChannel:
    """Dissipation channel: nonnegative rate and jump operator.

    Its adjoint and, for a single-qubit operator, its ``local`` form are cached at construction.
    """

    rate: float
    operator: Operator
    adjoint_operator: Operator = field(init=False, repr=False)
    local: LocalJump | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.rate < 0:
            raise ValidationError(f"dissipation rate {self.rate} must be nonnegative")
        op = self.operator
        if op.shape[0] != op.shape[1]:
            raise ValidationError(f"jump operator must be square, got shape {op.shape}")
        object.__setattr__(self, "adjoint_operator", linalg.hermitian_adjoint(op))
        object.__setattr__(self, "local", _local_jump(op))


@dataclass(frozen=True)
class HamiltonianSchedule:
    """Evaluation rule (t, x) -> H plus optional analytic dH/dx_k rule.

    Without an analytic rule, parameter derivatives fall back to central
    finite differences with step FD_FALLBACK_STEP * max(1, |x_k|); gradient
    reports flag this.
    """

    evaluate: Callable[[float, np.ndarray], Operator]
    n_params: int
    derivative: Callable[[float, np.ndarray, int], Operator] | None = None

    @property
    def uses_fd_fallback(self) -> bool:
        return self.derivative is None

    def param_derivative(self, t: float, x: np.ndarray, k: int) -> Operator:
        if not 0 <= k < self.n_params:
            raise ValidationError(f"parameter index {k} outside range [0, {self.n_params})")
        if self.derivative is not None:
            return self.derivative(t, x, k)
        h = FD_FALLBACK_STEP * max(1.0, abs(float(x[k])))
        xp = np.array(x, dtype=float)
        xm = np.array(x, dtype=float)
        xp[k] += h
        xm[k] -= h
        return (self.evaluate(t, xp) - self.evaluate(t, xm)) / (2.0 * h)


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian schedule plus jump channels on a fixed Hilbert space; ``decay`` caches K."""

    hamiltonian: HamiltonianSchedule
    channels: tuple[JumpChannel, ...]
    dimension: int
    decay: Operator | float = field(init=False, repr=False)

    def __post_init__(self):
        for j, ch in enumerate(self.channels):
            if ch.operator.shape != (self.dimension, self.dimension):
                raise ShapeMismatchError(
                    f"jump operator {j}", ch.operator.shape, (self.dimension, self.dimension)
                )
        object.__setattr__(self, "decay", _decay_operator(self.channels))

    @property
    def n_params(self) -> int:
        return self.hamiltonian.n_params


def _decay_operator(channels: Sequence[JumpChannel]) -> Operator | float:
    """K = (1/2) sum_j gamma_j J_j^dag J_j over rates > 0 in the operators' storage; 0 if none."""
    terms = ((0.5 * ch.rate) * (ch.adjoint_operator @ ch.operator) for ch in channels if ch.rate != 0.0)
    return sum(terms, 0.0)


def _right_matmul(a: np.ndarray, b: Operator) -> np.ndarray:
    # dense @ sparse via the transposed product, keeping the result dense
    if linalg.is_sparse(b):
        return np.asarray((b.T @ a.T)).T
    return a @ b


def _sandwich(
    a: Operator, a_right: Operator, channels: Sequence[JumpChannel], state: np.ndarray, *, adjoint: bool = False
) -> np.ndarray:
    """-i (a X - X a') + sum_j gamma_j L_j X R_j on X = state, (L, R) = (J, J^dag).

    The one place a state meets a generator operand.  With K the model's ``decay``,
    L is (H - iK, H + iK, channels), dL/dx_k is (dH/dx_k, dH/dx_k, ()) and L^dag is
    (-H - iK, -H + iK, channels, adjoint=True), which swaps (L, R) to (J^dag, J).
    A channel with a ``local`` form adds its blocks on the qubit view instead of
    the two products.
    """
    out = -1j * (np.asarray(a @ state) - _right_matmul(state, a_right))
    for ch in channels:
        if ch.rate == 0.0:
            continue
        if ch.local is not None:
            # out is a fresh C-ordered array (a @ state is), so its reshape is a view
            src, dst = state.reshape(ch.local.view), out.reshape(ch.local.view)
            for to, frm, c in ch.local.blocks:
                if adjoint:
                    to, frm, c = frm, to, c.conjugate()
                dst[to] += (ch.rate * c) * src[frm]
            continue
        left, right = ch.operator, ch.adjoint_operator
        if adjoint:
            left, right = right, left
        out += ch.rate * _right_matmul(np.asarray(left @ state), right)
    return out


def liouvillian_apply(h: Operator, channels: Sequence[JumpChannel], rho: np.ndarray) -> np.ndarray:
    """Apply the generator defined by (H, channels) to rho."""
    ik = 1j * _decay_operator(channels)
    return _sandwich(h - ik, h + ik, channels, rho)


def lindblad_rhs(t: float, rho: np.ndarray, model: LindbladModel, x: np.ndarray) -> np.ndarray:
    """Master-equation right-hand side at time t, state rho, parameters x.

    rho need not satisfy state invariants here; integrator stages pass
    through arbitrary Hermitian-ish matrices.
    """
    if rho.shape != (model.dimension, model.dimension):
        raise ShapeMismatchError("lindblad_rhs state", rho.shape, (model.dimension, model.dimension))
    if not np.all(np.isfinite(rho)):
        raise ValidationError("lindblad_rhs received a non-finite state")
    h, ik = model.hamiltonian.evaluate(t, x), 1j * model.decay
    return _sandwich(h - ik, h + ik, model.channels, rho)


def rhs_parameter_derivative(
    t: float, rho: np.ndarray, model: LindbladModel, x: np.ndarray, k: int
) -> np.ndarray:
    """d/dx_k of the right-hand side at fixed rho: -i [dH/dx_k, rho].

    Jump channels are parameter-independent, so only the coherent term
    contributes.
    """
    if rho.shape != (model.dimension, model.dimension):
        raise ShapeMismatchError("rhs state", rho.shape, (model.dimension, model.dimension))
    dh = model.hamiltonian.param_derivative(t, x, k)
    return _sandwich(dh, dh, (), rho)


def validate_hamiltonian(model: LindbladModel, x: np.ndarray, t: float = 0.0, tol: float = 1e-12) -> None:
    """Check that H(t, x) is Hermitian to tolerance; raises ValidationError."""
    h = linalg.to_dense(model.hamiltonian.evaluate(t, x))
    if h.shape != (model.dimension, model.dimension):
        raise ShapeMismatchError("hamiltonian", h.shape, (model.dimension, model.dimension))
    scale = max(1.0, float(np.linalg.norm(h)))
    if linalg.hermiticity_defect(h) > tol * scale:
        raise ValidationError(f"H(t={t}, x) is not Hermitian to {tol}")


def preset_oat(n: int, gamma: float = 0.0, *, sparse: bool = False) -> LindbladModel:
    """Collective-spin twisting benchmark on n qubits.

    H(t, x) = x0 * Sz^2 + x1 * Sx with collective spin components
    S_a = (1/2) sum_i sigma_a^(i).  When gamma > 0, each qubit carries an
    independent lowering channel (rate gamma, operator sigma_minus on that
    qubit).  Two parameters, analytic derivatives.
    """
    if not 1 <= n <= 10:
        raise ValidationError(f"qubit count {n} outside supported range [1, 10]")
    if gamma < 0:
        raise ValidationError(f"gamma {gamma} must be nonnegative")
    sz = collective_sz(n)
    sz2 = sz @ sz
    sx = collective_sx(n)
    if sparse:
        sz2 = as_sparse(sz2)
        sx = as_sparse(sx)

    def evaluate(t, x):
        return x[0] * sz2 + x[1] * sx

    def derivative(t, x, k):
        return sz2 if k == 0 else sx

    schedule = HamiltonianSchedule(evaluate=evaluate, n_params=2, derivative=derivative)
    channels = []
    if gamma > 0:
        for i in range(n):
            op = embed_single(LOWERING, i, n)
            channels.append(JumpChannel(rate=gamma, operator=as_sparse(op) if sparse else op))
    return LindbladModel(hamiltonian=schedule, channels=tuple(channels), dimension=2**n)


def all_zero_density(n: int) -> DensityOperator:
    """|0...0><0...0| as a validated state."""
    return DensityOperator.from_matrix(all_zero_state(n))


def _coefficient_value(spec, x: np.ndarray) -> float:
    if isinstance(spec, str):
        k = int(spec.split(":", 1)[1])
        return float(x[k])
    return float(spec)


def model_from_json(obj: dict) -> LindbladModel:
    """Build a model from its JSON description.

    Schema: {"dimension": d,
             "hamiltonian": {"kind": "preset_oat"} |
                            {"kind": "explicit", "terms": [{"coefficient": "param:k" | number,
                                                            "matrix": <operator literal>}, ...]},
             "channels": [{"gamma": g, "matrix": <operator literal>}, ...],
             "gamma": g?}           (preset dissipation rate, preset_oat only)

    Explicit Hamiltonians are linear in the parameters: H(t, x) = sum_m c_m(x) A_m
    with each c_m a constant or one parameter x_k, and each A_m Hermitian.
    """
    if not isinstance(obj, dict):
        raise ValidationError("model description must be an object", path="")
    if "dimension" not in obj:
        raise ValidationError("missing required key", path="/dimension")
    d = int(obj["dimension"])
    if d < 1:
        raise ValidationError(f"dimension {d} must be positive", path="/dimension")
    ham = obj.get("hamiltonian")
    if not isinstance(ham, dict) or "kind" not in ham:
        raise ValidationError("hamiltonian must be an object with a 'kind'", path="/hamiltonian")
    kind = ham["kind"]

    if kind == "preset_oat":
        n = d.bit_length() - 1
        if 2**n != d:
            raise ValidationError(f"preset_oat needs a power-of-two dimension, got {d}", path="/dimension")
        gamma = float(obj.get("gamma", 0.0))
        if gamma < 0:
            raise ValidationError(f"gamma {gamma} must be nonnegative", path="/gamma")
        model = preset_oat(n, gamma)
        if obj.get("channels"):
            raise ValidationError("preset_oat defines its own channels", path="/channels")
        return model

    if kind != "explicit":
        raise ValidationError(f"unknown hamiltonian kind {kind!r}", path="/hamiltonian/kind")

    terms = []
    n_params = 0
    for m, term in enumerate(ham.get("terms", [])):
        path = f"/hamiltonian/terms/{m}"
        if "coefficient" not in term or "matrix" not in term:
            raise ValidationError("term needs 'coefficient' and 'matrix'", path=path)
        coef = term["coefficient"]
        if isinstance(coef, str):
            if not coef.startswith("param:"):
                raise ValidationError(f"coefficient {coef!r} must be 'param:<k>' or a number", path=path)
            try:
                k = int(coef.split(":", 1)[1])
            except ValueError:
                raise ValidationError(f"bad parameter index in {coef!r}", path=path)
            if k < 0:
                raise ValidationError(f"parameter index {k} must be nonnegative", path=path)
            n_params = max(n_params, k + 1)
        elif not isinstance(coef, (int, float)):
            raise ValidationError(f"coefficient {coef!r} must be 'param:<k>' or a number", path=path)
        op = linalg.operator_from_json(term["matrix"], name=path + "/matrix")
        if op.shape != (d, d):
            raise ValidationError(f"term matrix shape {op.shape} does not match dimension {d}", path=path)
        dense = linalg.to_dense(op)
        if linalg.hermiticity_defect(dense) > 1e-12 * max(1.0, float(np.linalg.norm(dense))):
            raise ValidationError("term matrix is not Hermitian", path=path + "/matrix")
        terms.append((coef, op))

    zero = np.zeros((d, d), dtype=np.complex128)

    def evaluate(t, x):
        out = None
        for coef, op in terms:
            c = _coefficient_value(coef, x)
            out = c * op if out is None else out + c * op
        return zero if out is None else out

    def derivative(t, x, k):
        out = None
        key = f"param:{k}"
        for coef, op in terms:
            if coef == key:
                out = op.copy() if out is None else out + op
        return zero if out is None else out

    schedule = HamiltonianSchedule(evaluate=evaluate, n_params=n_params, derivative=derivative)

    channels = []
    for j, ch in enumerate(obj.get("channels", [])):
        path = f"/channels/{j}"
        if "gamma" not in ch or "matrix" not in ch:
            raise ValidationError("channel needs 'gamma' and 'matrix'", path=path)
        gamma = float(ch["gamma"])
        if gamma < 0:
            raise ValidationError(f"gamma {gamma} must be nonnegative", path=path + "/gamma")
        op = linalg.operator_from_json(ch["matrix"], name=path + "/matrix")
        if op.shape != (d, d):
            raise ValidationError(f"channel matrix shape {op.shape} does not match dimension {d}", path=path)
        channels.append(JumpChannel(rate=gamma, operator=op))

    return LindbladModel(hamiltonian=schedule, channels=tuple(channels), dimension=d)
