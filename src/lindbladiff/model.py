"""Parameterized open-system model and master-equation right-hand side.

The generator acts on density matrices as

    d(rho)/dt = -i [H(t, x), rho]
                + sum_j gamma_j (J_j rho J_j^dag - (1/2) {J_j^dag J_j, rho})

with a Hermitian, time- and parameter-dependent Hamiltonian H and fixed jump
channels (gamma_j, J_j).  Every state, tangent and cotangent the library
forms is Hermitian, and L, L^dag and dL/dx_k take Hermitian operands alone;
each preserves Hermiticity, L(X^H) = L(X)^H.  So the integrator steps on
packed states (linalg.HermitianPacking: the d^2 real coordinates of a
Hermitian matrix, its strict upper triangle's (Re, Im) pairs, then its real
diagonal), and lindblad_rhs, adjoint_liouvillian_apply and
rhs_parameter_derivative take a packed state, with a packed result, or a
(d, d) matrix, which is packed, applied and unpacked.  A declared
LinearSchedule H(x) = A_0 + sum_k x_k A_k (preset_oat and explicit JSON
models use one) compiles the generator once per model, on first use, to S_0
and S_k, each a row-major CSR superoperator on its own pattern, with integer
maps into the one fixed pattern of S(x) = S_0 + sum_k x_k S_k, whose entries
are formed once per x by vector operations on data arrays, and from them the
real d^2 x d^2 maps r -> pack(S(x) unpack(r)) of L and of L^dag (with S(x)^H):
each is one call of scipy's CSR matrix-vector kernel on the packed state,
writing into a buffer the caller may own (a row of the integrator's stage
stack) with no copy, and dL/dx_k is one with the fixed map of S_k; one more
call on the stacked maps of the S_k gives the reverse pass every parameter's
pairing.  Callable schedules, and linear models whose Kronecker terms count
more than COMPILE_MAX_NNZ entries (preset_oat from n = 9 on), apply the
generator to the state unpacked into the thread's one scratch matrix, in
effective-Hamiltonian form with H_eff = H - iK, K = (1/2) sum_j gamma_j
J_j^dag J_j: L, L^dag and dL/dx_k (the map the reverse pass pairs with) each
pack N + N^H, read from N = -i A rho + (1/2) sum_j gamma_j L_j rho R_j of one
left product A rho, A = H_eff, -H - iK or dH/dx_k (with no channels).  A
jump operator that acts on one qubit, J = I (x) a (x) I with a 2x2 factor a
of at most two nonzero entries (sigma_+/-, sigma_x/y/z, the projectors;
every preset channel), is detected once per JumpChannel, adds its J^dag J
to K in O(d^2), and is applied by the kernel as O(d^2) block copies on the
qubit tensor view of the state; every other J takes two dense or sparse
products.  The right-hand side is evaluated on raw states: intermediate
integrator stages legitimately violate trace and positivity, so state
invariants are only enforced on accepted states via DensityOperator.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import KW_ONLY, InitVar, dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs  # the kernels S @ v and S @ V call; tests pin their bits

from . import linalg
from .errors import ShapeMismatchError, ValidationError
from .linalg import Operator, packing
from .spins import LOWERING, all_zero_state, as_sparse, collective_sx, collective_sz, embed_single

_FLOAT64, _COMPLEX128 = np.dtype(np.float64), np.dtype(np.complex128)

#: Largest anti-Hermitian part a Hamiltonian or QFI generator operand may have, in Frobenius norm
#: relative to max(1, its norm).
HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class DensityOperator:
    """Validated quantum state: bitwise Hermitian, unit-trace, PSD complex matrix.

    Construction checks ``matrix`` to STATE_TOL in Hermiticity and to
    ``trace_tol`` and ``psd_tol`` in trace and smallest eigenvalue, checks
    that it is 2^n_qubits square, then stores its Hermitian part, a new array:
    equal to matrix if it is bitwise Hermitian, and otherwise within STATE_TOL
    of it, relative.  The generator preserves Hermiticity bit for bit, so
    every state a solve forms from it is bitwise Hermitian too.
    """

    matrix: np.ndarray
    n_qubits: int
    _: KW_ONLY
    trace_tol: InitVar[float] = linalg.STATE_TOL
    psd_tol: InitVar[float] = linalg.STATE_TOL

    def __post_init__(self, trace_tol: float, psd_tol: float):
        m = linalg.as_cmatrix(self.matrix, square=True, name="density matrix")
        d = m.shape[0]
        if d < 1 or d & (d - 1):
            raise ValidationError(f"density matrix dimension {d} is not a power of two")
        if self.n_qubits != d.bit_length() - 1:
            raise ValidationError(f"a {self.n_qubits}-qubit state needs dimension {2 ** self.n_qubits}, got {d}")
        if not linalg.is_hermitian(m, linalg.STATE_TOL, floor=1e-300):
            raise ValidationError(f"density matrix is not Hermitian to relative tolerance {linalg.STATE_TOL}")
        tr = linalg.trace(m)
        if abs(tr - 1.0) >= trace_tol:
            raise ValidationError(f"density matrix trace {tr} deviates from 1 beyond {trace_tol}")
        lam_min = float(np.linalg.eigvalsh(m)[0])
        if lam_min <= -psd_tol:
            raise ValidationError(f"density matrix has eigenvalue {lam_min:.3e} below -{psd_tol}")
        # symmetrized last: the checks above bound every entry, so the sum cannot overflow
        object.__setattr__(self, "matrix", linalg.hermitian_part(m))

    @classmethod
    def from_matrix(
        cls, matrix, *, trace_tol: float = linalg.STATE_TOL, psd_tol: float = linalg.STATE_TOL
    ) -> "DensityOperator":
        """The validated state of ``matrix``, its qubit count read from its dimension."""
        shape = np.shape(matrix)  # a malformed shape is the constructor's to reject
        n = (shape[0] if shape else 0).bit_length() - 1
        return cls(matrix=matrix, n_qubits=n, trace_tol=trace_tol, psd_tol=psd_tol)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


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

    Its single-qubit ``local`` form, if any, is found at construction.  Its
    adjoint is formed on first use, which only a channel without a local form
    reaches: a local channel keeps no second d x d operator.
    """

    rate: float
    operator: Operator
    local: LocalJump | None = field(init=False, repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate >= 0):
            raise ValidationError(f"dissipation rate {self.rate} must be finite and nonnegative")
        op = self.operator
        if op.shape[0] != op.shape[1]:
            raise ValidationError(f"jump operator must be square, got shape {op.shape}")
        object.__setattr__(self, "local", _local_jump(op))

    @cached_property
    def adjoint_operator(self) -> Operator:
        return linalg.hermitian_adjoint(self.operator)


@dataclass(frozen=True)
class HamiltonianSchedule:
    """Evaluation rule (t, x) -> H plus the analytic dH/dx_k rule.

    ``derivative`` is required when the schedule has parameters, so every
    parameter gradient is exact; a schedule without parameters needs none.
    """

    evaluate: Callable[[float, np.ndarray], Operator]
    n_params: int
    derivative: Callable[[float, np.ndarray, int], Operator] | None = None

    def __post_init__(self):
        if self.n_params > 0 and self.derivative is None:
            raise ValidationError(f"a schedule with {self.n_params} parameters needs a derivative rule")

    def param_derivative(self, t: float, x: np.ndarray, k: int) -> Operator:
        if not 0 <= k < self.n_params:
            raise ValidationError(f"parameter index {k} outside range [0, {self.n_params})")
        return self.derivative(t, x, k)


def _check_hermitian(op: Operator, what: str, path: str | None = None) -> None:
    if not np.all(np.isfinite(op.data if linalg.is_sparse(op) else op)):
        raise ValidationError(f"{what} has non-finite entries", path=path)
    if not linalg.is_hermitian(op, HERMITIAN_TOL):
        raise ValidationError(f"{what} is not Hermitian", path=path)


@dataclass(frozen=True)
class LinearSchedule:
    """Declared time-independent schedule H(x) = A_0 + sum_k x_k A_k.

    ``constant`` is A_0 (None for none) and ``terms`` holds A_1.. in parameter
    order; every operand is checked square, of one shape and Hermitian here,
    once.  A model with this schedule compiles its generator to one sparse
    superoperator (see LindbladModel.superoperator).
    """

    terms: tuple[Operator, ...]
    constant: Operator | None = None

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        operands = ([] if self.constant is None else [("constant term", self.constant)]) + [
            (f"term {k}", a) for k, a in enumerate(self.terms)
        ]
        if not operands:
            raise ValidationError("a linear schedule needs a constant or at least one parameter term")
        shape = operands[0][1].shape
        for what, a in operands:
            if a.ndim != 2 or a.shape != shape or shape[0] != shape[1]:
                raise ShapeMismatchError(f"linear schedule {what}", a.shape, shape)
            _check_hermitian(a, f"linear schedule {what}")

    @property
    def n_params(self) -> int:
        return len(self.terms)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.terms[0] if self.constant is None else self.constant).shape

    def evaluate(self, t: float, x: np.ndarray) -> Operator:
        if len(x) != self.n_params:
            raise ValidationError(f"parameter vector length {len(x)} != {self.n_params}")
        out = self.constant
        for xk, a in zip(x, self.terms):
            out = xk * a if out is None else out + xk * a
        return out

    def param_derivative(self, t: float, x: np.ndarray, k: int) -> Operator:
        if not 0 <= k < self.n_params:
            raise ValidationError(f"parameter index {k} outside range [0, {self.n_params})")
        return self.terms[k]


#: Largest superoperator a linear model compiles, counted as the stored entries
#: of its Kronecker terms (an upper bound on nnz(S)): preset_oat(8, g) counts
#: 1.41M (nnz(S) = 1.25M, ~19 MiB per data array) and compiles; n = 9 counts
#: 6.36M and keeps the sandwich kernel.
COMPILE_MAX_NNZ = 2_000_000


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian schedule plus jump channels on a fixed Hilbert space; ``decay`` caches K."""

    hamiltonian: HamiltonianSchedule | LinearSchedule
    channels: tuple[JumpChannel, ...]
    dimension: int
    decay: Operator | float = field(init=False, repr=False)

    def __post_init__(self):
        for j, ch in enumerate(self.channels):
            if ch.operator.shape != (self.dimension, self.dimension):
                raise ShapeMismatchError(
                    f"jump operator {j}", ch.operator.shape, (self.dimension, self.dimension)
                )
        ham = self.hamiltonian
        if isinstance(ham, LinearSchedule) and ham.shape != (self.dimension, self.dimension):
            raise ShapeMismatchError("linear schedule", ham.shape, (self.dimension, self.dimension))
        object.__setattr__(self, "decay", _decay_operator(self.channels))

    @property
    def n_params(self) -> int:
        return self.hamiltonian.n_params

    @cached_property
    def superoperator(self) -> Superoperator | None:
        """The compiled generator, built on first use: for a LinearSchedule whose
        Kronecker terms count at most COMPILE_MAX_NNZ entries; None otherwise."""
        return _compile(self)


def _sparse_eye(m: int) -> sparse.csr_array:
    return sparse.csr_array(sparse.identity(m, dtype=np.complex128, format="csr"))


def _jump_square(ch: JumpChannel) -> Operator:
    """J^dag J in the operator's storage; I (x) a^dag a (x) I in O(d^2) for a local J.

    A dense local square is written into the (L, 2, R, L, 2, R) view of a
    zero matrix: entry ((l, p, r), (l, q, r)) is (a^dag a)[p, q] for every l, r.
    """
    loc = ch.local
    if loc is None:
        return ch.adjoint_operator @ ch.operator
    square = loc.factor.conj().T @ loc.factor
    if linalg.is_sparse(ch.operator):
        left, right = loc.view[0], loc.view[2]
        return sparse.kron(sparse.kron(_sparse_eye(left), square), _sparse_eye(right), format="csr")
    out = np.zeros(ch.operator.shape, dtype=np.complex128)
    blocks = out.reshape(loc.view)
    for p, q in zip(*np.nonzero(square)):
        np.einsum("ijij->ij", blocks[:, p, :, :, q, :])[...] = square[p, q]
    return out


def _decay_operator(channels: Sequence[JumpChannel]) -> Operator | float:
    """K = (1/2) sum_j gamma_j J_j^dag J_j over rates > 0 in the operators' storage; 0 if none."""
    terms = ((0.5 * ch.rate) * _jump_square(ch) for ch in channels if ch.rate != 0.0)
    return sum(terms, 0.0)


def _nnz(op: Operator) -> int:
    return op.nnz if linalg.is_sparse(op) else int(np.count_nonzero(op))


def _coherent_super(a: Operator, eye: sparse.csr_array) -> sparse.csr_array:
    """-i (a (x) I - I (x) conj(a)): X -> -i (a X - X a^dag) on row-major vec(X)."""
    a = sparse.csr_array(a)
    return -1j * (sparse.kron(a, eye, format="csr") - sparse.kron(eye, a.conj(), format="csr"))


def _transposed_keys(part: sparse.csr_array) -> np.ndarray:
    """column * N + row of each stored entry of an N x N CSR array: the keys
    that sort its entries in the CSR order of its transpose."""
    keys = part.indices.astype(np.int64)
    keys *= part.shape[0]
    keys += np.repeat(np.arange(part.shape[0]), np.diff(part.indptr))
    return keys


def _packed_coordinate(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """The packed coordinate (linalg.HermitianPacking) of Re X[a, b]: of the upper entry
    (min, max) for a != b, whose Im is the next one, and of the diagonal entry for a == b."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    upper = 2 * (lo * d - lo * (lo + 1) // 2 + hi - lo - 1)
    return np.where(a == b, d * (d - 1) + a, upper)


def _real_map(
    rows: np.ndarray, cols: np.ndarray, nonzero: np.ndarray, d: int, index: np.dtype, *, conjugate: bool = False
) -> tuple:
    """The real map r -> pack(M unpack(r)) of a d^2 x d^2 complex M with entries M_e at (rows[e], cols[e]),
    or of its entrywise conjugate with ``conjugate``, as (pattern, fill).

    ``pattern`` is the (n_row, n_col, indptr, indices) of its CSR, and
    fill(M's entries) its data: entry q is -v if negated else v, where v is
    Re M_e or Im M_e.  For Hermitian-preserving M, pack(M X) reads the rows
    (i, j), i <= j, of M: Re on the upper rows' first coordinate and the
    diagonal, Im on the second.  An entry at column (k, l) reads
    X[k, l] = r_re + i r_im for k < l (r_re - i r_im for k > l, r_re alone for
    k = l), so M_e gives up to four real entries: Re and Im of M_e, i M_e or
    -i M_e.  Those that read a part of M_e that ``nonzero`` (over M's
    entries' float64 view, [Re M_0, Im M_0, Re M_1, ...]) marks as zero at
    every x are left out: a coherent term -i [A, X] with a real A has
    imaginary entries, and a real jump operator real ones, so this halves
    the map for such models.  The rest are left unmerged (the kernel sums
    whatever a row lists) and sorted by row, then column.
    """
    i, j = np.divmod(rows, d)
    keep = np.flatnonzero(i <= j)
    i, j, (k, l) = i[keep], j[keep], np.divmod(cols[keep], d)
    out_re, in_re = _packed_coordinate(i, j, d), _packed_coordinate(k, l, d)
    off, cross = i < j, k != l  # with an Im row; with an Im column
    size = d * d
    keys, sources, negated = [], [], []
    # (entries, row shift, column shift, reads Im M_e, negated): Re and Im of M_e, i M_e or -i M_e
    for mask, row, col, imag, negate in (
        (slice(None), 0, 0, False, False),
        (cross, 0, 1, True, k < l),
        (off, 1, 0, True, False),
        (off & cross, 1, 1, False, k > l),
    ):
        source = 2 * keep[mask] + imag
        live = nonzero[source]
        keys.append(((out_re[mask] + row).astype(np.int64) * size + in_re[mask] + col)[live])  # row * size + column
        sources.append(source[live].astype(index))
        negate = np.broadcast_to(negate, keep.shape)[mask] != (conjugate and imag)
        negated.append(negate[live])
    del i, j, k, l, out_re, in_re, off, cross
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    source, negate = np.concatenate(sources)[order], np.concatenate(negated)[order]
    keys = keys[order]
    del order
    indptr = np.searchsorted(keys, np.arange(size + 1, dtype=np.int64) * size).astype(index)
    pattern = (size, size, indptr, np.remainder(keys, size, out=keys).astype(index))
    del keys

    def fill(values: np.ndarray) -> np.ndarray:
        data = np.take(values.view(np.float64), source)  # on int32 indices take is faster than []
        return np.negative(data, out=data, where=negate)

    return pattern, fill


class Superoperator:
    """Row-major generator S(x) = S_0 + sum_k x_k S_k of a model with a LinearSchedule.

    With vec(X) = X.ravel(), vec(A X B) = (A (x) B^T) vec(X), so
    S_0 = -i (H_eff,0 (x) I - I (x) conj(H_eff,0)) + sum_j gamma_j J_j (x) conj(J_j)
    with H_eff,0 = A_0 - iK, and S_k = -i (A_k (x) I - I (x) conj(A_k)).  ``base``
    (S_0) and each of ``derivatives`` (S_k) is one canonical CSR on its own
    pattern, the only complex tables stored before a first x.

    S(x) lives on one fixed pattern, the union of theirs.  Construction fixes
    integer tables once: for each entry of the union, the stored values of
    the parts it sums, in part order; and the real maps of L and L^dag on
    packed Hermitian states (linalg.HermitianPacking), pack(S(x) unpack(r))
    and pack(S(x)^H unpack(r)), as CSR patterns of d^2 x d^2 real matrices
    whose every entry is + or - the Re or Im of one union entry, leaving
    out the parts no S_k or S_0 entry makes nonzero (_real_map).  At a new x
    the memo is then a few vector operations on data arrays: the parts'
    values, S_k's scaled by x_k, gathered and added into S(x)'s entries
    ((S_0 + x_1 S_1) + x_2 S_2) ..., the operations of the sparse sum, and
    each real map's entries gathered from their float64 view and negated
    where its table says, which is exact.  ``apply`` is then one real CSR
    kernel call with L's or L^dag's map on a packed state, writing the
    packed result.  The real maps of the S_k are fixed, built on first use
    and stacked into one CSR, which ``pairings`` applies for the reverse
    pass, and whose rows of one S_k ``apply_derivative`` applies.  The memo
    holds the last x's tables, keyed on the exact bytes of x, so the forward,
    replay and reverse passes of a solve share them.
    """

    def __init__(self, base: sparse.csr_array, derivatives: Sequence[sparse.csr_array]):
        parts = (base, *derivatives)
        for part in parts:
            part.sum_duplicates()  # canonical: sorted column indices, no duplicates
        self.base, self.derivatives = base, tuple(derivatives)
        self._memo: tuple = (None, None, None)
        self._x_shape = (len(self.derivatives),)
        size, index = base.shape[0], np.result_type(*(part.indices for part in parts))
        self._index, self._d = index, math.isqrt(size)
        # every part's entries, as terms of the parts' data laid end to end, sorted
        # by position (column of S, then row) and, stably, by part
        keys = np.concatenate([_transposed_keys(part) for part in parts])
        self._bounds = np.cumsum([part.nnz for part in parts]).tolist()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        columns, rows = (a.astype(index) for a in np.divmod(keys[first], size))  # of S
        del keys
        order = order.astype(index)
        entry = np.cumsum(first, dtype=index)
        entry -= 1  # the union entry each term adds to
        rank = np.arange(len(first), dtype=index)  # its place among that entry's terms
        rank -= np.flatnonzero(first).astype(index)[entry]
        # entry e of S(x) is terms[first term] + terms[second] + ..., added in part order
        self._first_terms = order[first]
        self._later_terms = tuple((entry[rank == r], order[rank == r]) for r in range(1, rank.max(initial=0) + 1))
        del order, first, entry, rank
        # the parts of each union entry that some part's entry makes nonzero, in the float64 view
        parts_nonzero = np.concatenate([part.data for part in parts]).view(np.float64).reshape(-1, 2) != 0
        nonzero = parts_nonzero[self._first_terms]
        for entries, later in self._later_terms:
            nonzero[entries] |= parts_nonzero[later]
        nonzero = nonzero.reshape(-1)
        del parts_nonzero
        self._maps = (
            _real_map(rows, columns, nonzero, self._d, index),
            _real_map(columns, rows, nonzero, self._d, index, conjugate=True),
        )

    def _tables(self, x: np.ndarray) -> tuple:
        """The memo (key, L's packed map, L^dag's packed map) for x, each map as the
        (n_row, n_col, indptr, indices, data) a kernel call takes; x must hold one value per
        parameter."""
        if not (type(x) is np.ndarray and x.dtype is _FLOAT64 and x.shape == self._x_shape):
            x = np.ascontiguousarray(x, dtype=np.float64)
            if x.shape != self._x_shape:
                raise ValidationError(f"parameter vector shape {x.shape} != {self._x_shape}")
        # the bytes of x, not the array: its owner may write to it between calls
        key = x.tobytes()
        # read and replaced as one tuple, so a concurrent caller sees a whole entry
        memo = self._memo
        if memo[0] != key:
            # the parts' data laid end to end, S_k's scaled by x_k as the sparse product x_k S_k does
            terms, start = np.empty(self._bounds[-1], dtype=np.complex128), self._bounds[0]
            terms[:start] = self.base.data
            for xk, sk, end in zip(x, self.derivatives, self._bounds[1:]):
                np.multiply(sk.data, xk, out=terms[start:end])
                start = end
            data = np.take(terms, self._first_terms)
            for entries, later in self._later_terms:
                data[entries] += np.take(terms, later)
            memo = (key, *((*pattern, fill(data)) for pattern, fill in self._maps))
            self._memo = memo
        return memo

    def apply(
        self, x: np.ndarray, state: np.ndarray, out: np.ndarray | None = None, *, adjoint: bool = False
    ) -> np.ndarray:
        """L(X), or L^dag(X) with ``adjoint``, on a packed Hermitian X into ``out``: one kernel call."""
        return _csr_apply(self._tables(x)[2 if adjoint else 1], state, out)

    @cached_property
    def _derivative_maps(self) -> tuple:
        """The packed maps of S_1 ... S_p stacked into one (p d^2, d^2) CSR, rows k d^2 ... (k + 1) d^2
        S_k's, as the (n_row, n_col, indptr, indices, data) a kernel call takes; fixed, built on first use."""
        size, indptr, indices, data = self._d**2, [np.zeros(1, self._index)], [], []
        for sk in self.derivatives:
            rows = np.repeat(np.arange(sk.shape[0]), np.diff(sk.indptr))
            (_, _, ptr, idx), fill = _real_map(rows, sk.indices, sk.data.view(np.float64) != 0, self._d, self._index)
            indptr.append(ptr[1:] + indptr[-1][-1])
            indices.append(idx)
            data.append(fill(sk.data))
        indices, data = np.concatenate([np.zeros(0, self._index), *indices]), np.concatenate([np.zeros(0), *data])
        return (size * len(self.derivatives), size, np.concatenate(indptr), indices, data)

    def apply_derivative(self, k: int, state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """dL/dx_k (X) = S_k vec(X) on a packed Hermitian X: one kernel call with S_k's rows of the stacked map."""
        _, size, indptr, indices, data = self._derivative_maps
        ptr = indptr[k * size : (k + 1) * size + 1]
        start, end = ptr[0], ptr[-1]
        return _csr_apply((size, size, ptr - start, indices[start:end], data[start:end]), state, out)

    def pairings(self, stages: np.ndarray, cotangents: np.ndarray, products: np.ndarray) -> np.ndarray:
        """sum_i <v_i, dL/dx_k (Y_i)> for every parameter k, the Hilbert-Schmidt pairing Re Tr(v_i^H
        dL/dx_k (Y_i)) summed over stages, from (d^2, s) stacks whose column i is the packed Y_i or
        the packed v_i times the packed weights: one kernel call over the stacked maps of the S_k
        and every stage into ``products``, a (p d^2, s) buffer, and one dot."""
        products.fill(0)  # the kernel adds to its output
        n_row, n_col, indptr, indices, data = self._derivative_maps
        csr_matvecs(n_row, n_col, stages.shape[1], indptr, indices, data, stages, products)
        return products.reshape(len(self.derivatives), cotangents.size) @ cotangents.reshape(-1)


def _compile(model: LindbladModel) -> Superoperator | None:
    sched = model.hamiltonian
    if not isinstance(sched, LinearSchedule):
        return None
    d = model.dimension
    ik = 1j * model.decay
    heff = -ik if sched.constant is None else sched.constant - ik
    coherent = [] if np.isscalar(heff) else [heff]  # K = 0 and no A_0: S_0 has no coherent part
    channels = [ch for ch in model.channels if ch.rate != 0.0]
    count = 2 * d * sum(map(_nnz, [*coherent, *sched.terms])) + sum(_nnz(ch.operator) ** 2 for ch in channels)
    if count > COMPILE_MAX_NNZ:
        return None
    eye = _sparse_eye(d)
    pieces = [_coherent_super(a, eye) for a in coherent]
    for ch in channels:
        jump = sparse.csr_array(ch.operator)
        pieces.append(ch.rate * sparse.kron(jump, jump.conj(), format="csr"))
    base = sum(pieces, sparse.csr_array((d * d, d * d), dtype=np.complex128))
    return Superoperator(base, [_coherent_super(a, eye) for a in sched.terms])


def _right_matmul(a: np.ndarray, b: Operator) -> np.ndarray:
    # dense @ sparse via the transposed product, keeping the result dense
    if linalg.is_sparse(b):
        return np.asarray((b.T @ a.T)).T
    return a @ b


def _add_jumps(out: np.ndarray, channels: Sequence[JumpChannel], state: np.ndarray, adjoint: bool) -> None:
    """out += (1/2) sum_j gamma_j L_j X R_j on X = state, (L, R) = (J, J^dag), or (J^dag, J) with ``adjoint``.

    A channel with a ``local`` form adds its blocks on the qubit view instead
    of the two products, each scaled into one quarter-state scratch block the
    call allocates once; ``out`` must be C-contiguous, so its reshape is a view.
    """
    scratch = None
    for ch in channels:
        if ch.rate == 0.0:
            continue
        rate = 0.5 * ch.rate
        if ch.local is not None:
            src, dst = state.reshape(ch.local.view), out.reshape(ch.local.view)
            scratch = np.empty(state.size // 4, dtype=np.complex128) if scratch is None else scratch
            block = scratch.reshape(src[:, 0, :, :, 0, :].shape)  # every src[frm] and dst[to] has this shape
            for to, frm, c in ch.local.blocks:
                if adjoint:
                    to, frm, c = frm, to, c.conjugate()
                dst[to] += np.multiply(rate * c, src[frm], out=block)
            continue
        left, right = ch.operator, ch.adjoint_operator
        if adjoint:
            left, right = right, left
        out += rate * _right_matmul(np.asarray(left @ state), right)


def _sandwich(
    a: Operator,
    channels: Sequence[JumpChannel],
    state: np.ndarray,
    *,
    adjoint: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """pack(N + N^H) with N = -i a X + (1/2) sum_j gamma_j L_j X R_j, (L, R) = (J, J^dag), on X = state.

    The one place a state meets a generator operand; X is a Hermitian (d, d)
    matrix.  With K the model's ``decay``, L is (H - iK, channels), L^dag is
    (-H - iK, channels, adjoint=True), which swaps (L, R) to (J^dag, J), and
    dL/dx_k is (dH/dx_k, ()): for Hermitian X, H and K, N + N^H is each map's
    textbook form, -i (a X - X a^H) plus the jump terms.  The one left
    product a X comes back C-ordered from numpy and scipy alike, is rotated
    by -i in place (exact), the jump terms are added to it, and the packed
    N + N^H is read from N into ``out`` if given
    (linalg.HermitianPacking.pack_mirror), with no mirror formed.
    """
    n = np.asarray(a @ state, dtype=np.complex128)
    np.multiply(n, -1j, out=n)
    _add_jumps(n, channels, state, adjoint)
    return packing(state.shape[0]).pack_mirror(n, out)


def _on_packed(apply: Callable, model: LindbladModel, state: np.ndarray, out: np.ndarray | None, what: str):
    """apply(r, out) on the packed Hermitian operand of a generator map, with ``out`` checked.

    A packed (d^2,) float64 state goes through as it is, and the result is
    packed; a (d, d) matrix is packed (its upper triangle and real diagonal
    are read, so a Hermitian one is taken exactly), and the result is
    unpacked into ``out``.  ``out``, if given, must be a C-contiguous array
    of the result's form that does not overlap ``state``: the CSR kernel
    would read entries it has already overwritten.
    """
    d = model.dimension
    packed = state.shape == (d * d,)
    if not packed and state.shape != (d, d):
        raise ShapeMismatchError(what, state.shape, (d, d))
    dtype = _FLOAT64 if packed else _COMPLEX128
    if packed and state.dtype != _FLOAT64:
        raise ValidationError(f"a packed {what} must be float64, got {state.dtype}")
    if out is not None:
        if out.shape != state.shape or out.dtype != dtype or not out.flags.c_contiguous:
            raise ValidationError(f"out must be a C-contiguous {dtype} array of shape {state.shape}")
        if np.may_share_memory(out, state):
            raise ValidationError("out must not overlap the kernel's input")
    if packed:
        return apply(state, out)
    pack = packing(d)
    return pack.unpack(apply(pack.pack(np.ascontiguousarray(state, dtype=np.complex128)), None), out)


def lindblad_rhs(
    t: float, rho: np.ndarray, model: LindbladModel, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Master-equation right-hand side at time t, state rho, parameters x.

    rho must be Hermitian, as every state, stage state and tangent the
    library integrates is; it need not satisfy the other state invariants,
    since integrator stages violate trace and positivity.  It is either a
    packed vector (linalg.HermitianPacking), the form the integrator steps
    on, with a packed result, or a (d, d) matrix, of which the upper
    triangle and the real diagonal are read, with a bitwise Hermitian
    matrix result; adjoint_liouvillian_apply and rhs_parameter_derivative
    take the same operands.  With ``out``, a C-contiguous array of the
    result's form that does not overlap rho, the result is written into it
    and it is returned.
    """
    # any non-finite entry makes the sum of |rho_ij|^2 (one BLAS call)
    # non-finite; a finite state whose sum overflows takes the elementwise test
    if not cmath.isfinite(np.vdot(rho, rho)) and not np.isfinite(rho).all():
        raise ValidationError("lindblad_rhs received a non-finite state")
    return _on_packed(lambda r, o: _generator_apply(model, t, x, r, o), model, rho, out, "lindblad_rhs state")


def _csr_apply(table: tuple, state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """S @ state for the real CSR table S = (n_row, n_col, indptr, indices, data) and a packed
    state, into a C-contiguous ``out`` if given: the one kernel call S @ v makes."""
    out = np.empty(state.shape) if out is None else out
    out.fill(0)  # the kernel adds to its output
    csr_matvec(*table, state, out)
    return out


def _generator_apply(
    model: LindbladModel,
    t: float,
    x: np.ndarray,
    state: np.ndarray,
    out: np.ndarray | None = None,
    *,
    adjoint: bool = False,
) -> np.ndarray:
    """L(X), or L^dag(X) with adjoint=True, on a packed Hermitian X, into a packed ``out`` if given.

    A compiled model makes one real CSR kernel call straight into ``out``
    (Superoperator.apply).  The sandwich kernel unpacks X into the calling
    thread's one scratch matrix and packs its N + N^H into ``out`` (see
    _sandwich).
    """
    compiled = model.superoperator
    if compiled is not None:
        return compiled.apply(x, state, out, adjoint=adjoint)
    h, ik = model.hamiltonian.evaluate(t, x), 1j * model.decay
    matrix = _unpacked(state, model.dimension)
    return _sandwich(-h - ik if adjoint else h - ik, model.channels, matrix, adjoint=adjoint, out=out)


_SCRATCH = threading.local()


def _unpacked(state: np.ndarray, d: int) -> np.ndarray:
    """A packed state unpacked into this thread's one (d, d) complex128 scratch matrix, kept for the
    next call (for the last d only): the sandwich kernel takes every operand from it, because at
    d = 512 a fresh 4 MiB array costs each call its page faults, about 3 ms of a 17 ms application."""
    matrix = getattr(_SCRATCH, "matrix", None)
    if matrix is None or matrix.shape != (d, d):
        matrix = _SCRATCH.matrix = np.empty((d, d), dtype=np.complex128)
    return packing(d).unpack(state, matrix)


def rhs_parameter_derivative(
    t: float, rho: np.ndarray, model: LindbladModel, x: np.ndarray, k: int, out: np.ndarray | None = None
) -> np.ndarray:
    """d/dx_k of the right-hand side at fixed rho, -i [dH/dx_k, rho], for forward_sensitivity.

    rho is one Hermitian state, packed or a matrix as for lindblad_rhs; the
    result has its form, in ``out`` if given (it must not overlap rho).
    Jump channels do not depend on x.  A compiled model makes one real CSR
    kernel call with S_k's packed map, the sandwich kernel one _sandwich
    with dH/dx_k on the thread's scratch matrix.
    """

    def apply(r: np.ndarray, o: np.ndarray | None) -> np.ndarray:
        dh = model.hamiltonian.param_derivative(t, x, k)  # also rejects an out-of-range k
        compiled = model.superoperator
        if compiled is None:
            return _sandwich(dh, (), _unpacked(r, model.dimension), out=o)
        return compiled.apply_derivative(k, r, o)

    return _on_packed(apply, model, rho, out, "rhs state")


def validate_hamiltonian(model: LindbladModel, x: np.ndarray, t: float = 0.0) -> None:
    """Check that H(t, x) is Hermitian to HERMITIAN_TOL; raises ValidationError.

    A LinearSchedule passes unevaluated: its terms were checked Hermitian at
    construction and x is real, and on CSR terms (every preset's) the sparse
    sum and check would cost each solve about 0.25 ms.
    """
    if isinstance(model.hamiltonian, LinearSchedule):
        return
    h = model.hamiltonian.evaluate(t, x)
    if h.shape != (model.dimension, model.dimension):
        raise ShapeMismatchError("hamiltonian", h.shape, (model.dimension, model.dimension))
    if not linalg.is_hermitian(h, HERMITIAN_TOL):
        raise ValidationError(f"H(t={t}, x) is not Hermitian to {HERMITIAN_TOL}")


def preset_oat(n: int, gamma: float = 0.0) -> LindbladModel:
    """Collective-spin twisting benchmark on n qubits, 2^n <= linalg.MAX_DIMENSION.

    H(t, x) = x0 * Sz^2 + x1 * Sx with collective spin components
    S_a = (1/2) sum_i sigma_a^(i).  When gamma > 0, each qubit carries an
    independent lowering channel (rate gamma, operator sigma_minus on that
    qubit).  Two parameters, analytic derivatives.  Both terms and every
    jump operator are canonical CSR (spins.as_sparse).
    """
    max_n = linalg.MAX_DIMENSION.bit_length() - 1
    if not 1 <= n <= max_n:
        raise ValidationError(f"qubit count {n} outside supported range [1, {max_n}]")
    if not (np.isfinite(gamma) and gamma >= 0):
        raise ValidationError(f"gamma {gamma} must be finite and nonnegative")
    sz2 = np.diag(np.diag(collective_sz(n)).real ** 2).astype(np.complex128)  # Sz is diagonal
    schedule = LinearSchedule(terms=(as_sparse(sz2), as_sparse(collective_sx(n))))
    lowering = (as_sparse(embed_single(LOWERING, i, n)) for i in range(n))
    channels = tuple(JumpChannel(rate=gamma, operator=op) for op in lowering) if gamma > 0 else ()
    return LindbladModel(hamiltonian=schedule, channels=channels, dimension=2**n)


def all_zero_density(n: int) -> DensityOperator:
    """|0...0><0...0| as a validated state."""
    return DensityOperator.from_matrix(all_zero_state(n))


def model_from_json(obj: dict) -> LindbladModel:
    """Build a model from its JSON description.

    Schema: {"dimension": d,
             "hamiltonian": {"kind": "preset_oat"} |
                            {"kind": "explicit", "terms": [{"coefficient": "param:k" | number,
                                                            "matrix": <operator literal>}, ...]},
             "channels": [{"gamma": g, "matrix": <operator literal>}, ...],
             "gamma": g?}           (preset dissipation rate, preset_oat only)
    A key the schema does not name raises a ValidationError at its JSON pointer.

    Explicit Hamiltonians are linear in the parameters: H(t, x) = sum_m c_m(x) A_m
    with each c_m a constant or one parameter x_k, and each A_m Hermitian.  They
    become a LinearSchedule: the constant terms c_m A_m sum to A_0, and the terms
    of param:k sum to A_k (zero for an index no term names).
    """
    if not isinstance(obj, dict):
        raise ValidationError("model description must be an object", path="")
    if "dimension" not in obj:
        raise ValidationError("missing required key", path="/dimension")
    d = linalg.json_number(obj["dimension"], "/dimension", integer=True)
    if d < 1:
        raise ValidationError(f"dimension {d} must be positive", path="/dimension")
    if d > linalg.MAX_DIMENSION:
        raise ValidationError(f"dimension {d} exceeds MAX_DIMENSION = {linalg.MAX_DIMENSION}", path="/dimension")
    ham = obj.get("hamiltonian")
    if not isinstance(ham, dict) or "kind" not in ham:
        raise ValidationError("hamiltonian must be an object with a 'kind'", path="/hamiltonian")
    kind = ham["kind"]

    if kind == "preset_oat":
        linalg.json_keys(obj, "", {"dimension", "hamiltonian", "gamma", "channels"})
        linalg.json_keys(ham, "/hamiltonian", {"kind"})
        n = d.bit_length() - 1
        if 2**n != d:
            raise ValidationError(f"preset_oat needs a power-of-two dimension, got {d}", path="/dimension")
        gamma = linalg.json_number(obj.get("gamma", 0.0), "/gamma")
        if gamma < 0:
            raise ValidationError(f"gamma {gamma} must be nonnegative", path="/gamma")
        if obj.get("channels"):
            raise ValidationError("preset_oat defines its own channels", path="/channels")
        return preset_oat(n, gamma)

    if kind != "explicit":
        raise ValidationError(f"unknown hamiltonian kind {kind!r}", path="/hamiltonian/kind")
    linalg.json_keys(obj, "", {"dimension", "hamiltonian", "channels"})
    linalg.json_keys(ham, "/hamiltonian", {"kind", "terms"})

    constant = None
    by_param: dict[int, Operator] = {}
    for m, term in enumerate(linalg.json_array(ham.get("terms", []), "/hamiltonian/terms")):
        path = f"/hamiltonian/terms/{m}"
        term = linalg.json_keys(linalg.json_object(term, path), path, {"coefficient", "matrix"})
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
        else:
            coef = linalg.json_number(coef, path + "/coefficient")
        op = linalg.operator_from_json(term["matrix"], path + "/matrix")
        if op.shape != (d, d):
            raise ValidationError(f"term matrix shape {op.shape} does not match dimension {d}", path=path)
        _check_hermitian(op, "term matrix", path=path + "/matrix")
        if isinstance(coef, str):
            by_param[k] = by_param[k] + op if k in by_param else op
        else:
            constant = coef * op if constant is None else constant + coef * op

    zero = np.zeros((d, d), dtype=np.complex128)
    terms = tuple(by_param.get(k, zero) for k in range(max(by_param, default=-1) + 1))
    schedule = LinearSchedule(terms=terms, constant=zero if constant is None and not terms else constant)

    channels = []
    for j, ch in enumerate(linalg.json_array(obj.get("channels", []), "/channels")):
        path = f"/channels/{j}"
        ch = linalg.json_keys(linalg.json_object(ch, path), path, {"gamma", "matrix"})
        if "gamma" not in ch or "matrix" not in ch:
            raise ValidationError("channel needs 'gamma' and 'matrix'", path=path)
        gamma = linalg.json_number(ch["gamma"], path + "/gamma")
        if gamma < 0:
            raise ValidationError(f"gamma {gamma} must be nonnegative", path=path + "/gamma")
        op = linalg.operator_from_json(ch["matrix"], path + "/matrix")
        if op.shape != (d, d):
            raise ValidationError(f"channel matrix shape {op.shape} does not match dimension {d}", path=path)
        channels.append(JumpChannel(rate=gamma, operator=op))

    return LindbladModel(hamiltonian=schedule, channels=tuple(channels), dimension=d)
