"""Dense and sparse complex operator primitives.

Dense operators are plain ``numpy`` arrays of ``complex128`` in row-major
layout; sparse operators are ``scipy.sparse.csr_array`` in canonical CSR form
(column indices strictly increasing within each row).  Both variants support
the same apply/adjoint surface through the functions below, and every other
module goes through this one rather than touching storage details.

JSON wire formats:

* dense matrix: array of rows, each entry a ``[re, im]`` pair;
* sparse matrix: ``{"rows": r, "cols": c, "triplets": [[i, j, re, im], ...]}``.

Every value decoded from JSON, here and in ``model`` and ``cli``, is read by
``json_number``, ``json_array`` or ``json_object``, which raise a
``ValidationError`` at the JSON pointer of a malformed value, and every
object's keys are checked by ``json_keys``, which raises one at the pointer
of a key the reader does not know, escaped by RFC 6901 (``~`` as ``~0``,
``/`` as ``~1``).  No model dimension or sparse-literal shape read from JSON
exceeds ``MAX_DIMENSION``.
"""

from __future__ import annotations

import functools
import math
import reprlib
from typing import Union

import numpy as np
from scipy import sparse

from .errors import ValidationError

Dense = np.ndarray
Sparse = sparse.csr_array
Operator = Union[Dense, Sparse]

_FLOAT_MAX = float(np.finfo(np.float64).max)

#: The largest Hilbert-space dimension the package accepts (preset_oat's 10 qubits): a
#: JSON model's /dimension and a sparse literal's rows and cols above it are rejected at
#: their pointers before anything is allocated.
MAX_DIMENSION = 2**10


def json_number(value, path: str, *, integer: bool = False):
    """A finite JSON number as a float, or with ``integer`` as an int (2.0 reads as 2, 2.5 fails).

    Python and numpy ints and floats qualify; bool, str, None and NaN or
    infinities (json decodes NaN and Infinity) raise a ValidationError at ``path``.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if integer or abs(value) <= _FLOAT_MAX:  # a larger int would overflow float()
            return int(value) if integer else float(value)
    elif isinstance(value, (float, np.floating)) and math.isfinite(value) and (not integer or value % 1 == 0):
        return int(value) if integer else float(value)
    kind = "an integer" if integer else "a finite number"
    raise ValidationError(f"must be {kind}, got {reprlib.repr(value)}", path=path)


def json_array(value, path: str, length: int | None = None) -> list:
    """A JSON array at ``path``, of exactly ``length`` entries when given."""
    if isinstance(value, (list, tuple)) and length in (None, len(value)):
        return value
    entries = "" if length is None else f" of {length} entries"
    raise ValidationError(f"must be an array{entries}, got {reprlib.repr(value)}", path=path)


def json_object(value, path: str) -> dict:
    """A JSON object at ``path``."""
    if isinstance(value, dict):
        return value
    raise ValidationError(f"must be an object, got {reprlib.repr(value)}", path=path)


def json_keys(obj: dict, path: str, known) -> dict:
    """``obj`` if each of its keys is in ``known``; a ValidationError at the first other key's pointer otherwise."""
    for key in obj:
        if key not in known:
            token = str(key).replace("~", "~0").replace("/", "~1")  # RFC 6901, in this order
            raise ValidationError(f"unknown key {key!r}", path=f"{path}/{token}")
    return obj


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


def csr_from_triplets(rows: int, cols: int, triplets, path: str = "") -> Sparse:
    """Build a canonical CSR operator from ``[i, j, re, im]`` triplets.

    Duplicate coordinates are summed; structural zeros are kept out of the
    stored pattern by canonicalization.  ``path`` points at the sparse literal.
    """
    if rows <= 0 or cols <= 0:
        raise ValidationError(f"sparse shape ({rows}, {cols}) must be positive", path=path)
    for key, size in (("rows", rows), ("cols", cols)):
        if size > MAX_DIMENSION:
            raise ValidationError(f"{key} {size} exceeds MAX_DIMENSION = {MAX_DIMENSION}", path=f"{path}/{key}")
    ii, jj, vv = [], [], []
    for k, t in enumerate(triplets):
        at = f"{path}/triplets/{k}"
        i, j, re, im = json_array(t, at, length=4)
        i, j = json_number(i, at + "/0", integer=True), json_number(j, at + "/1", integer=True)
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValidationError(f"index ({i}, {j}) outside shape ({rows}, {cols})", path=at)
        ii.append(i)
        jj.append(j)
        vv.append(complex(json_number(re, at + "/2"), json_number(im, at + "/3")))
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


#: The one tolerance of a validated state: it bounds the anti-Hermitian part (relative
#: to the Frobenius norm), the trace's deviation from 1 and the most negative
#: eigenvalue; eigh's Hermiticity check and the QFI's eigenvalue clip read it too.
STATE_TOL = 1e-9


def hermitian_part(a: Dense) -> Dense:
    """(a + a^dag) / 2 as a new array: bitwise Hermitian, and equal to a when a already is."""
    return 0.5 * (a + a.conj().T)


class HermitianPacking:
    """The d^2 real coordinates of a d x d Hermitian matrix X, its packed vector r.

    r[:2m], m = d(d-1)/2, holds X's strict upper triangle row by row, each entry
    as its (Re, Im) pair, so viewed as complex128 it is X[i, j], i < j; r[2m:] is
    the real diagonal.  ``pack``, ``unpack`` and ``moduli`` take stacks
    (..., d^2) of packed vectors and C-contiguous (..., d, d) complex
    matrices; every map is copies, conjugates and gathers with index tables
    fixed here, so ``pack`` and ``unpack`` round nothing and overflow
    nowhere: ``unpack(pack(X))`` is bit-equal to every X that ``unpack``
    makes, whose diagonal has an imaginary part of +0.0.  ``weights`` (2 on
    r[:2m], 1 on r[2m:]) make sum(weights * r * s) the Hilbert-Schmidt
    pairing Re Tr(X^H Y), and ``entry_weights`` (2 on each off-diagonal
    modulus, 1 on the diagonal) weigh |X[i, j]|^2 the same way.  Get one per
    d from ``packing(d)``.
    """

    def __init__(self, d: int):
        self.d, self.size = d, d * d
        rows, cols = np.triu_indices(d, 1)
        self.m = m = len(rows)
        # row-major positions of X[i, j] and of X[j, i] for i < j in packed order, and of X[i, i]
        self._upper, self._lower, self._diagonal = rows * d + cols, cols * d + rows, np.arange(d) * (d + 1)
        # unpack permutes the entries [X[i, j] for i < j, their conjugates, the diagonal] into row-major order
        k = np.arange(m)
        self._unpack = np.empty(self.size, dtype=np.intp)
        self._unpack[self._upper], self._unpack[self._lower] = k, m + k
        self._unpack[self._diagonal] = 2 * m + np.arange(d)
        self.weights = np.concatenate([np.full(2 * m, 2.0), np.ones(d)])
        self.entry_weights = np.concatenate([np.full(m, 2.0), np.ones(d)])
        for table in (self._upper, self._lower, self._diagonal, self._unpack, self.weights, self.entry_weights):
            table.setflags(write=False)

    def pack(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The packed (..., d^2) vectors of C-contiguous Hermitian (..., d, d) complex128 matrices
        (only their upper triangles and real diagonals are read), into ``out`` if given."""
        lead, m = x.shape[:-2], self.m
        flat = x.reshape(*lead, -1)
        out = np.empty((*lead, self.size)) if out is None else out
        # mode="clip" (the indices are in range): with the default, numpy gathers into a buffer first
        np.take(flat, self._upper, axis=-1, out=out[..., : 2 * m].view(np.complex128), mode="clip")
        out[..., 2 * m :] = np.take(flat, self._diagonal, axis=-1).real
        return out

    def pack_mirror(self, n: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """pack(N + N^H) for a C-contiguous (d, d) complex128 N, read from N with no mirror formed:
        the same additions, so the bits of the mirror's upper triangle and diagonal."""
        flat, m = n.reshape(-1), self.m
        out = np.empty(self.size) if out is None else out
        upper = np.take(flat, self._upper, out=out[: 2 * m].view(np.complex128), mode="clip")
        lower = np.take(flat, self._lower)
        upper += np.conjugate(lower, out=lower)  # N[i, j] + conj(N[j, i])
        diagonal = np.take(flat, self._diagonal).real
        np.add(diagonal, diagonal, out=out[2 * m :])
        return out

    def pack_commutator(self, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """pack(-i (M - M^H)) for a C-contiguous (d, d) complex128 M, read from M: the packed
        -i [A, Y] of M = A Y for Hermitian A and Y, each entry M[i, j] - conj(M[j, i]) formed
        before it is rotated by -i (exact)."""
        flat, m2 = m.reshape(-1), 2 * self.m
        out = np.empty(self.size) if out is None else out
        upper = np.take(flat, self._upper)
        lower = np.take(flat, self._lower)
        upper -= np.conjugate(lower, out=lower)  # M[i, j] - conj(M[j, i])
        out[:m2:2] = upper.imag  # -i (a + ib) = b - ia
        np.negative(upper.real, out=out[1:m2:2])
        diagonal = np.take(flat, self._diagonal).imag  # -i (M[i, i] - conj(M[i, i])) = 2 Im M[i, i]
        np.add(diagonal, diagonal, out=out[m2:])
        return out

    def unpack(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The Hermitian (..., d, d) complex128 matrices of packed (..., d^2) vectors, into a
        C-contiguous ``out`` if given."""
        lead, m = r.shape[:-1], self.m
        entries = np.empty((*lead, self.size), dtype=np.complex128)
        upper = r[..., : 2 * m].view(np.complex128)
        entries[..., :m] = upper
        np.conjugate(upper, out=entries[..., m : 2 * m])
        entries[..., 2 * m :] = r[..., 2 * m :]  # a real diagonal, +0.0 imaginary parts
        out = np.empty((*lead, self.d, self.d), dtype=np.complex128) if out is None else out
        np.take(entries, self._unpack, axis=-1, out=out.reshape(*lead, -1), mode="clip")
        return out

    def moduli(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """|X[i, j]| for i < j, then |X[i, i]|, of packed (..., d^2) vectors, into (..., m + d) ``out``:
        numpy's complex modulus, so the moduli of the unpacked entries bit for bit."""
        np.abs(r[..., : 2 * self.m].view(np.complex128), out=out[..., : self.m])
        np.abs(r[..., 2 * self.m :], out=out[..., self.m :])
        return out


@functools.lru_cache(maxsize=None)
def packing(d: int) -> HermitianPacking:
    """The one HermitianPacking of dimension d."""
    return HermitianPacking(d)


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


def _json_complex(pair, path: str) -> complex:
    re, im = json_array(pair, path, length=2)
    return complex(json_number(re, path + "/0"), json_number(im, path + "/1"))


def operator_from_json(obj, path: str = "") -> Operator:
    """Parse an operator literal (dense array-of-arrays or sparse triplet dict) found at ``path``."""
    if isinstance(obj, dict):
        missing = {"rows", "cols", "triplets"} - obj.keys()
        if missing:
            raise ValidationError(f"sparse literal missing keys {sorted(missing)}", path=path)
        rows, cols = (json_number(obj[key], f"{path}/{key}", integer=True) for key in ("rows", "cols"))
        return csr_from_triplets(rows, cols, json_array(obj["triplets"], path + "/triplets"), path)
    if isinstance(obj, list):
        m = [
            [_json_complex(e, f"{path}/{i}/{j}") for j, e in enumerate(json_array(row, f"{path}/{i}"))]
            for i, row in enumerate(obj)
        ]
        if len({len(row) for row in m}) != 1:
            raise ValidationError("dense literal needs one or more rows of equal length", path=path)
        return as_cmatrix(m)
    raise ValidationError("expected a dense array-of-arrays or a sparse triplet object", path=path)


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
