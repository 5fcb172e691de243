"""Dense and sparse complex operator primitives.

Dense operators are plain ``numpy`` arrays of ``complex128`` in row-major
layout; sparse operators are ``scipy.sparse.csr_array`` in canonical CSR form
(column indices strictly increasing within each row).  Both variants support
the same apply/adjoint surface through the functions below, and every other
module goes through this one rather than touching storage details.

JSON wire formats:

* dense matrix: array of rows, each entry a ``[re, im]`` pair;
* sparse matrix: ``{"rows": r, "cols": c, "triplets": [[i, j, re, im], ...]}``.
"""

from __future__ import annotations

from typing import Union

import numpy as np
from scipy import sparse

from .errors import ValidationError

Dense = np.ndarray
Sparse = sparse.csr_array
Operator = Union[Dense, Sparse]

_FLOAT_MAX = float(np.finfo(np.float64).max)


def is_sparse(op: Operator) -> bool:
    return sparse.issparse(op)


def as_cmatrix(data, *, square: bool = False, name: str = "matrix") -> Dense:
    """Validate and return a complex128 dense matrix.

    Rejects non-2D input and non-finite entries.  ``square=True`` additionally
    requires rows == cols.
    """
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError(f"{name} contains non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    return m


def csr_from_triplets(rows: int, cols: int, triplets) -> Sparse:
    """Build a canonical CSR operator from ``[i, j, re, im]`` triplets.

    Duplicate coordinates are summed; structural zeros are kept out of the
    stored pattern by canonicalization.
    """
    if rows <= 0 or cols <= 0:
        raise ValidationError(f"sparse shape ({rows}, {cols}) must be positive")
    ii, jj, vv = [], [], []
    for k, t in enumerate(triplets):
        if len(t) != 4:
            raise ValidationError(f"triplet {k} must be [i, j, re, im], got {t!r}")
        i, j, re, im = t
        i, j = int(i), int(j)
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValidationError(f"triplet {k} index ({i}, {j}) outside shape ({rows}, {cols})")
        v = complex(float(re), float(im))
        if not np.isfinite(v.real) or not np.isfinite(v.imag):
            raise ValidationError(f"triplet {k} has non-finite value")
        ii.append(i)
        jj.append(j)
        vv.append(v)
    coo = sparse.coo_array((np.asarray(vv, dtype=np.complex128), (ii, jj)), shape=(rows, cols))
    out = coo.tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def hermitian_adjoint(a: Operator) -> Operator:
    """Conjugate transpose, preserving the storage variant."""
    if is_sparse(a):
        return a.conj().T.tocsr()
    return a.conj().T


def trace(a: Dense) -> complex:
    """Sum of the diagonal of a square dense matrix."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"trace requires a square matrix, got shape {a.shape}")
    return complex(np.trace(a))


def to_dense(op: Operator) -> Dense:
    if is_sparse(op):
        return np.asarray(op.todense(), dtype=np.complex128)
    return op


def is_hermitian(a: Operator, tol: float, floor: float = 1.0) -> bool:
    """||a - a^dag||_F <= tol * max(floor, ||a||_F), tested on a / max|a_ij| so no norm overflows.

    A sparse operator is tested on its stored entries; a non-finite entry fails.
    """
    entries = a.data if is_sparse(a) else np.asarray(a)
    m = float(np.max(np.abs(entries), initial=1e-300))
    if not m < _FLOAT_MAX:  # a NaN or inf entry, or a finite one whose modulus overflows
        if not np.all(np.isfinite(entries)):
            return False
        m = _FLOAT_MAX
    s = a / m
    defect = np.linalg.norm((s - s.conj().T).data if is_sparse(s) else s - s.conj().T)
    return bool(defect <= tol * max(floor / m, np.linalg.norm(s.data if is_sparse(s) else s)))


def operator_from_json(obj, *, name: str = "operator") -> Operator:
    """Parse an operator literal (dense array-of-arrays or sparse triplet dict)."""
    if isinstance(obj, dict):
        missing = {"rows", "cols", "triplets"} - obj.keys()
        if missing:
            raise ValidationError(f"{name}: sparse literal missing keys {sorted(missing)}")
        return csr_from_triplets(int(obj["rows"]), int(obj["cols"]), obj["triplets"])
    if isinstance(obj, list):
        try:
            m = np.array([[complex(float(e[0]), float(e[1])) for e in row] for row in obj])
        except (TypeError, IndexError, ValueError) as exc:
            raise ValidationError(f"{name}: dense literal entries must be [re, im] pairs ({exc})")
        return as_cmatrix(m, name=name)
    raise ValidationError(f"{name}: expected a dense array-of-arrays or a sparse triplet object")


def operator_to_json(op: Operator):
    """Inverse of operator_from_json."""
    if is_sparse(op):
        coo = op.tocoo()
        triplets = [
            [int(i), int(j), float(v.real), float(v.imag)]
            for i, j, v in sorted(zip(coo.row, coo.col, coo.data), key=lambda t: (t[0], t[1]))
        ]
        return {"rows": int(op.shape[0]), "cols": int(op.shape[1]), "triplets": triplets}
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(op)]
