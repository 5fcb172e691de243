"""Qubit-register operator constructors.

Computational basis ordering is the usual binary one: for n=2 the states are
|00>, |01>, |10>, |11>, with qubit 0 the leftmost (most significant) bit.
Collective spin components are S_a = (1/2) sum_i sigma_a^(i).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .linalg import Operator

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
LOWERING = np.array([[0, 1], [0, 0]], dtype=np.complex128)  # |0><1|


def _embed_into(out: np.ndarray, op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """out += op on ``qubit``: op[p, q] lands where the row's bit there is p, the column's q, and all others agree."""
    bit = 1 << (n - 1 - qubit)
    base = np.flatnonzero((np.arange(2**n) & bit) == 0)
    for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
        out[base + p * bit, base + q * bit] += op[p, q]
    return out


def embed_single(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Place a 1-qubit operator on the given qubit of an n-qubit register."""
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} outside register of size {n}")
    return _embed_into(np.zeros((2**n, 2**n), dtype=np.complex128), op, qubit, n)


def collective(op: np.ndarray, n: int) -> np.ndarray:
    """S_a = (1/2) sum over qubits of the given Pauli."""
    out = np.zeros((2**n, 2**n), dtype=np.complex128)
    for i in range(n):
        _embed_into(out, op, i, n)
    return 0.5 * out


def collective_sz(n: int) -> np.ndarray:
    return collective(PAULI_Z, n)


def collective_sx(n: int) -> np.ndarray:
    return collective(PAULI_X, n)


def as_sparse(op: np.ndarray) -> Operator:
    """CSR copy of a dense operator (canonical ordering)."""
    out = sparse.csr_array(op)
    out.sum_duplicates()
    out.sort_indices()
    return out


def all_zero_state(n: int) -> np.ndarray:
    """Density matrix of the pure state |0...0>."""
    d = 2**n
    rho = np.zeros((d, d), dtype=np.complex128)
    rho[0, 0] = 1.0
    return rho
