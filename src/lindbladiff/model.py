"""Parameterized open-system model and master-equation right-hand side.

The generator acts on density matrices as

    d(rho)/dt = -i [H(t, x), rho]
                + sum_j gamma_j (J_j rho J_j^dag - (1/2) {J_j^dag J_j, rho})

with a Hermitian, time- and parameter-dependent Hamiltonian H and fixed jump
channels (gamma_j, J_j).  Every state, tangent and cotangent the library
forms is Hermitian, and L, L^dag and dL/dx_k take Hermitian operands alone.
Each preserves Hermiticity, L(X^H) = L(X)^H, so both kernels form L, the
compiled kernel from d = HALF_ADJOINT_MIN_DIMENSION on also L^dag, and the
sandwich kernel also L^dag and dL/dx_k, on a Hermitian X as h + h^H from a
half h of the work: the result is bitwise Hermitian.  A declared LinearSchedule
H(x) = A_0 + sum_k x_k A_k (preset_oat and explicit JSON models use one)
compiles the generator once per model, on first use, to S_0 and S_k, each a
row-major CSR superoperator on its own pattern, with integer maps into the
one fixed pattern of S(x) = S_0 + sum_k x_k S_k, whose entries are formed
once per x by vector operations on data arrays: L is one call of scipy's CSR
matrix-vector kernel over the half rows (i, j), i <= j, of S(x), L^dag one
over the half rows of S(x)^H from d = HALF_ADJOINT_MIN_DIMENSION on and over
all its rows below, and dL/dx_k one with S_k, each writing into a buffer the
caller may own (a row of the integrator's stage stack) with no copy; one more call
on a table of the A_k's entries gives the reverse pass every Tr(A_k Q).  Callable
schedules, and linear models whose Kronecker terms count more than
COMPILE_MAX_NNZ entries (preset_oat from n = 9 on), apply the generator in
effective-Hamiltonian form L(rho) = -i (H_eff rho - rho H_eff^dag) + sum_j
gamma_j J_j rho J_j^dag with H_eff = H - iK, K = (1/2) sum_j gamma_j J_j^dag
J_j: L takes one product rho H_eff^dag, whose conjugate transpose is
H_eff rho, and L^dag and dL/dx_k are the same one-product sandwich with
other operands.  A jump operator that acts on one qubit,
J = I (x) a (x) I with a 2x2 factor a of at most two nonzero entries
(sigma_+/-, sigma_x/y/z, the projectors; every preset channel), is detected
once per JumpChannel, adds its J^dag J to K in O(d^2), and is applied by the
kernel as O(d^2) block copies on the qubit tensor view of the state; every
other J takes two dense or sparse products.  The
right-hand side is evaluated on raw complex matrices: intermediate integrator
stages legitimately violate trace and positivity, so state invariants are only
enforced on accepted states via DensityOperator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import KW_ONLY, InitVar, dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvec  # the kernel S @ v calls; tests pin its bits

from . import linalg
from .errors import ShapeMismatchError, ValidationError
from .linalg import Operator
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

#: Smallest dimension d at which the compiled L^dag, as L does, multiplies by the half
#: rows of S(x)^H and mirrors the result.  Below it the mirror costs more than the half
#: rows save, and L^dag multiplies by all rows of S(x)^H.  Per call on preset_oat(n, 0.1)
#: (one BLAS thread, 2-core Xeon), full rows -> half rows: 4.0 -> 5.6 us at d = 8,
#: 7.0 -> 7.9 at d = 16, 21.7 -> 16.9 at d = 32 and 91 -> 57 at d = 64.
HALF_ADJOINT_MIN_DIMENSION = 32


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


def _indptr(rows: np.ndarray, size: int, index: np.dtype) -> np.ndarray:
    """The CSR row pointer of entries with these sorted rows, in an N = size row array."""
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=size))]).astype(index)


class Superoperator:
    """Row-major generator S(x) = S_0 + sum_k x_k S_k of a model with a LinearSchedule.

    With vec(X) = X.ravel(), vec(A X B) = (A (x) B^T) vec(X), so
    S_0 = -i (H_eff,0 (x) I - I (x) conj(H_eff,0)) + sum_j gamma_j J_j (x) conj(J_j)
    with H_eff,0 = A_0 - iK, and S_k = -i (A_k (x) I - I (x) conj(A_k)).  ``base``
    (S_0) and each of ``derivatives`` (S_k) is one canonical CSR on its own
    pattern, the only complex tables stored before a first x.

    S(x) lives on one fixed pattern, the union of theirs, held in the CSR
    order of S(x)^H.  Construction fixes integer tables once: for each entry
    of the union, the stored values of the parts it sums, in part order; and
    the half rows of S(x), its rows (i, j) = i d + j with i <= j, as a CSR
    pattern with the positions of its entries.  At a new x the memo is then
    a few vector operations on data arrays: the parts' values, S_k's scaled
    by x_k, gathered and added into S(x)'s entries ((S_0 + x_1 S_1) + x_2 S_2)
    ..., the operations of the sparse sum; the half rows gathered from them,
    with the diagonal rows (i, i) scaled by 1/2, which is exact; and S(x)^H
    as their conjugates, with the bits of the conjugate transposed sum: from
    d = HALF_ADJOINT_MIN_DIMENSION on its half rows, gathered and scaled as
    S(x)'s are, and below it all its rows, conjugated in place.  A (p, N)
    table fixed at construction holds A_k[a, b] at column b d + a of row k,
    dense and sparse terms alike, for ``pairings``.
    For a Hermitian X, L(X) is Hermitian (L(X^H) = L(X)^H), so ``apply`` makes
    one CSR kernel call over the half rows, h, and returns h + h^H, bitwise
    Hermitian: row (i, j) of L for i < j, its conjugate at (j, i), and the
    real part of row (i, i).  With ``adjoint`` it does the same with the half
    rows of S(x)^H, since L^dag preserves Hermiticity too, or below
    HALF_ADJOINT_MIN_DIMENSION makes one kernel call with all rows of S(x)^H.
    The memo holds the last x's tables, keyed on the exact bytes of x, so the
    forward, replay and reverse passes of a solve share them.
    """

    def __init__(self, base: sparse.csr_array, derivatives: Sequence[sparse.csr_array], terms: Sequence[Operator]):
        parts = (base, *derivatives)
        for part in parts:
            part.sum_duplicates()  # canonical: sorted column indices, no duplicates
        self.base, self.derivatives = base, tuple(derivatives)
        self._memo: tuple = (None, None, None)
        self._x_shape = (len(self.derivatives),)
        size, index = base.shape[0], np.result_type(*(part.indices for part in parts))
        d = math.isqrt(size)
        # every part's entries, as terms of the parts' data laid end to end, sorted
        # into S^H's CSR order (by column of S, then by row) and, stably, by part
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
        # (n_row, n_col, indptr, indices): the leading arguments of a kernel call
        if d >= HALF_ADJOINT_MIN_DIMENSION:
            # the half rows of S^H, its rows (i, j) with i <= j: S's columns, already in S^H's order
            adjoint = np.flatnonzero(columns // d <= columns % d).astype(index)
            self._adjoint_entries = adjoint
            self._adjoint_diagonal = np.flatnonzero(columns[adjoint] % (d + 1) == 0).astype(index)
            self._adjoint_pattern = (size, size, _indptr(columns[adjoint], size, index), rows[adjoint])
        else:
            self._adjoint_entries = self._adjoint_diagonal = None
            self._adjoint_pattern = (size, size, _indptr(columns, size, index), rows)
        upper = np.flatnonzero(rows // d <= rows % d)
        half = upper[np.argsort(rows[upper], kind="stable")].astype(index)  # S's CSR order: by row, then by column
        half_rows = rows[half]
        self._half_entries = half
        self._half_pattern = (size, size, _indptr(half_rows, size, index), columns[half])
        self._half_diagonal = np.flatnonzero(half_rows % (d + 1) == 0).astype(index)  # rows (i, i) = i (d + 1)
        # row k holds each stored A_k[a, b] at column b d + a: its product with vec(Q) is Tr(A_k Q)
        entries = [sparse.csr_array(a) for a in terms]
        rows = np.repeat(np.arange(len(entries)), [a.nnz for a in entries])
        keys = np.concatenate([np.zeros(0, index), *(_transposed_keys(a).astype(index) for a in entries)])
        values = np.concatenate([np.zeros(0, np.complex128), *(a.data for a in entries)])
        self._pairing = (len(entries), size, _indptr(rows, len(entries), index), keys, values)

    def _tables(self, x: np.ndarray) -> tuple:
        """The memo (key, half rows of S(x), rows of S(x)^H that L^dag reads) for x, each as the
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
            data = np.take(terms, self._first_terms)  # on int32 indices take is faster than []
            for entries, later in self._later_terms:
                data[entries] += np.take(terms, later)
            half = np.take(data, self._half_entries)
            half[self._half_diagonal] *= 0.5
            if self._adjoint_entries is None:
                adjoint = np.conjugate(data, out=data)
            else:
                adjoint = np.take(data, self._adjoint_entries)
                np.conjugate(adjoint, out=adjoint)
                adjoint[self._adjoint_diagonal] *= 0.5
            memo = (key, (*self._half_pattern, half), (*self._adjoint_pattern, adjoint))
            self._memo = memo
        return memo

    def apply(
        self, x: np.ndarray, state: np.ndarray, out: np.ndarray | None = None, *, adjoint: bool = False
    ) -> np.ndarray:
        """L(state) = h + h^H from the half rows of S(x), or L^dag(state) from the rows of S(x)^H
        with ``adjoint``, into ``out``."""
        memo = self._tables(x)
        if adjoint and self._adjoint_entries is None:
            return _csr_apply(memo[2], state, out)
        h = _csr_apply(memo[2] if adjoint else memo[1], state, out)
        return _mirror(h, h)

    def pairings(self, q: np.ndarray) -> np.ndarray:
        """Tr(A_k Q) for every parameter k, from one CSR kernel call on a C-contiguous (d, d) Q."""
        out = np.zeros(self._x_shape, dtype=np.complex128)
        csr_matvec(*self._pairing, q.reshape(-1), out)
        return out


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
    return Superoperator(base, [_coherent_super(a, eye) for a in sched.terms], sched.terms)


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
    a_right: Operator,
    channels: Sequence[JumpChannel],
    state: np.ndarray,
    *,
    adjoint: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """M + M^H with M = i X a' + (1/2) sum_j gamma_j L_j X R_j, (L, R) = (J, J^dag), on X = state.

    The one place a state meets a generator operand; X must be Hermitian.
    With K the model's ``decay``, L is (H + iK, channels), L^dag is
    (-H + iK, channels, adjoint=True), which swaps (L, R) to (J^dag, J), and
    dL/dx_k is (dH/dx_k, ()): for Hermitian X, H and K, (i X a')^H =
    -i a'^H X, so M + M^H is each map's textbook form; on a non-Hermitian X
    it is none of them.  The one product R = a'^T X^T = (X a')^T comes back
    C-ordered from numpy and scipy alike, so N = -i conj(R) = (i X a')^H is
    formed in place, the jump terms (Hermitian, so N becomes M^H) are added
    to it, and N + N^H goes into ``out`` if given: bitwise Hermitian, as the
    compiled kernel's h + h^H is.
    """
    half = np.asarray(a_right.T @ state.T, dtype=np.complex128)  # real operands give a real product
    np.conjugate(np.multiply(half, 1j, out=half), out=half)  # conj(i R) = -i conj(R)
    _add_jumps(half, channels, state, adjoint)
    return _mirror(half, np.empty(state.shape, dtype=np.complex128) if out is None else out)


def lindblad_rhs(
    t: float, rho: np.ndarray, model: LindbladModel, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Master-equation right-hand side at time t, state rho, parameters x.

    rho must be Hermitian, as every state, stage state and tangent the
    library integrates is; it need not satisfy the other state invariants,
    since integrator stages violate trace and positivity.  The result is
    bitwise Hermitian.  On a non-Hermitian rho neither kernel returns
    L(rho): the compiled kernel returns the Hermitian mirror of L(rho)'s
    rows (i, j), i <= j (the real part on the diagonal), and the sandwich
    kernel M + M^H for its half M (see _sandwich); adjoint_liouvillian_apply
    and rhs_parameter_derivative take Hermitian operands too.  With ``out``,
    a C-contiguous complex128 array of rho's shape that does not overlap
    rho, the result is written into it and it is returned.
    """
    if rho.shape != (model.dimension, model.dimension):
        raise ShapeMismatchError("lindblad_rhs state", rho.shape, (model.dimension, model.dimension))
    # any non-finite entry makes the sum of |rho_ij|^2 (one BLAS call)
    # non-finite; a finite state whose sum overflows takes the elementwise test
    if not cmath.isfinite(np.vdot(rho, rho)) and not np.isfinite(rho).all():
        raise ValidationError("lindblad_rhs received a non-finite state")
    return _generator_apply(model, t, x, rho, out=out)


def _csr_apply(table: tuple, state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """S @ vec(state) in state's shape for the CSR table S = (n_row, n_col, indptr, indices,
    data), into a C-contiguous ``out`` if given: the one kernel call S @ v makes."""
    out = np.empty(state.shape, dtype=np.complex128) if out is None else out
    out.fill(0)  # the kernel adds to its output
    csr_matvec(*table, state.ravel(), out.reshape(-1))
    return out


def _mirror(h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """h + h^H into ``out`` (h itself allowed): bitwise Hermitian, since entry (j, i) adds
    the conjugates of the two numbers entry (i, j) adds."""
    # conj(h^T) into a C-ordered temporary first: an add with a transposed operand costs more
    return np.add(h, np.conjugate(h.T, order="C"), out=out)


def _check_out(out: np.ndarray | None, state: np.ndarray) -> None:
    """Reject an ``out`` the kernels cannot write: it must match the kernel's input ``state``
    and not overlap it, since the CSR kernel would read entries it has already overwritten."""
    if out is None:
        return
    if out.shape != state.shape or out.dtype != _COMPLEX128 or not out.flags.c_contiguous:
        raise ValidationError(f"out must be a C-contiguous complex128 array of shape {state.shape}")
    if np.may_share_memory(out, state):
        raise ValidationError("out must not overlap the kernel's input")


def _generator_apply(
    model: LindbladModel,
    t: float,
    x: np.ndarray,
    state: np.ndarray,
    *,
    adjoint: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """L(state), or L^dag(state) with adjoint=True, into ``out`` if given.

    Both take a Hermitian state.  A compiled model makes one CSR kernel
    call straight into ``out``: over the half rows of S(x) for L, mirrored
    in place, and for L^dag over the half rows of S(x)^H, mirrored, or below
    HALF_ADJOINT_MIN_DIMENSION over all its rows.  The sandwich kernel writes the
    mirror N + N^H of its half into ``out`` for both (see _sandwich).
    ``out`` must be C-contiguous: a strided one would reach the kernel as a
    copy.
    """
    _check_out(out, state)
    compiled = model.superoperator
    if compiled is not None:
        return compiled.apply(x, state, out, adjoint=adjoint)
    h, ik = model.hamiltonian.evaluate(t, x), 1j * model.decay
    return _sandwich(-h + ik if adjoint else h + ik, model.channels, state, adjoint=adjoint, out=out)


def rhs_parameter_derivative(
    t: float, rho: np.ndarray, model: LindbladModel, x: np.ndarray, k: int, out: np.ndarray | None = None
) -> np.ndarray:
    """d/dx_k of the right-hand side at fixed rho, -i [dH/dx_k, rho], for forward_sensitivity.

    rho is one Hermitian state; the result has its shape, in ``out`` if given
    (as for lindblad_rhs; it must not overlap rho).  Jump channels do not
    depend on x.  A compiled model makes one CSR kernel call with S_k, the
    sandwich kernel one _sandwich with dH/dx_k, bitwise Hermitian.
    """
    if rho.shape != (model.dimension, model.dimension):
        raise ShapeMismatchError("rhs state", rho.shape, (model.dimension, model.dimension))
    _check_out(out, rho)
    dh = model.hamiltonian.param_derivative(t, x, k)  # also rejects an out-of-range k
    compiled = model.superoperator
    if compiled is None:
        return _sandwich(dh, (), rho, out=out)
    s = compiled.derivatives[k]
    return _csr_apply((*s.shape, s.indptr, s.indices, s.data), rho, out)


def validate_hamiltonian(model: LindbladModel, x: np.ndarray, t: float = 0.0) -> None:
    """Check that H(t, x) is Hermitian to HERMITIAN_TOL; raises ValidationError."""
    h = model.hamiltonian.evaluate(t, x)
    if h.shape != (model.dimension, model.dimension):
        raise ShapeMismatchError("hamiltonian", h.shape, (model.dimension, model.dimension))
    if not linalg.is_hermitian(h, HERMITIAN_TOL):
        raise ValidationError(f"H(t={t}, x) is not Hermitian to {HERMITIAN_TOL}")


def preset_oat(n: int, gamma: float = 0.0, *, sparse: bool = False) -> LindbladModel:
    """Collective-spin twisting benchmark on n qubits.

    H(t, x) = x0 * Sz^2 + x1 * Sx with collective spin components
    S_a = (1/2) sum_i sigma_a^(i).  When gamma > 0, each qubit carries an
    independent lowering channel (rate gamma, operator sigma_minus on that
    qubit).  Two parameters, analytic derivatives.
    """
    if not 1 <= n <= 10:
        raise ValidationError(f"qubit count {n} outside supported range [1, 10]")
    if not (np.isfinite(gamma) and gamma >= 0):
        raise ValidationError(f"gamma {gamma} must be finite and nonnegative")
    sz2 = np.diag(np.diag(collective_sz(n)).real ** 2).astype(np.complex128)  # Sz is diagonal
    terms = (sz2, collective_sx(n))
    if sparse:
        terms = tuple(map(as_sparse, terms))
    schedule = LinearSchedule(terms=terms)
    channels = []
    if gamma > 0:
        for i in range(n):
            op = embed_single(LOWERING, i, n)
            channels.append(JumpChannel(rate=gamma, operator=as_sparse(op) if sparse else op))
    return LindbladModel(hamiltonian=schedule, channels=tuple(channels), dimension=2**n)


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
    ham = obj.get("hamiltonian")
    if not isinstance(ham, dict) or "kind" not in ham:
        raise ValidationError("hamiltonian must be an object with a 'kind'", path="/hamiltonian")
    kind = ham["kind"]

    if kind == "preset_oat":
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

    constant = None
    by_param: dict[int, Operator] = {}
    for m, term in enumerate(linalg.json_array(ham.get("terms", []), "/hamiltonian/terms")):
        path = f"/hamiltonian/terms/{m}"
        term = linalg.json_object(term, path)
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
        ch = linalg.json_object(ch, path)
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
