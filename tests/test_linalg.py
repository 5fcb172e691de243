"""Dense/sparse operator primitives and their JSON wire formats."""

import numpy as np
import pytest

from lindbladiff.errors import ValidationError
from lindbladiff.linalg import (
    as_cmatrix,
    csr_from_triplets,
    hermitian_adjoint,
    hermiticity_defect,
    is_sparse,
    operator_from_json,
    operator_to_json,
    to_dense,
    trace,
)


def test_as_cmatrix_casts_and_validates():
    m = as_cmatrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    with pytest.raises(ValidationError):
        as_cmatrix([1, 2, 3])
    with pytest.raises(ValidationError):
        as_cmatrix([[np.inf, 0], [0, 0]])
    with pytest.raises(ValidationError):
        as_cmatrix([[1, 2, 3], [4, 5, 6]], square=True)


def test_csr_from_triplets_sums_duplicates_and_canonicalizes():
    op = csr_from_triplets(2, 2, [[0, 1, 1.0, 0.0], [0, 1, 0.5, -1.0], [1, 0, 0.0, 2.0]])
    assert is_sparse(op)
    dense = to_dense(op)
    assert dense[0, 1] == 1.5 - 1j
    assert dense[1, 0] == 2j
    assert dense[0, 0] == 0.0
    # canonical CSR: strictly increasing column indices per row
    assert op.has_sorted_indices


def test_csr_from_triplets_rejects_bad_input():
    with pytest.raises(ValidationError):
        csr_from_triplets(0, 2, [])
    with pytest.raises(ValidationError):
        csr_from_triplets(2, 2, [[0, 5, 1.0, 0.0]])
    with pytest.raises(ValidationError):
        csr_from_triplets(2, 2, [[0, 1, np.nan, 0.0]])
    with pytest.raises(ValidationError):
        csr_from_triplets(2, 2, [[0, 1, 1.0]])


def test_hermitian_adjoint_preserves_storage():
    d = np.array([[1 + 2j, 3], [4j, 5]], dtype=complex)
    assert np.array_equal(hermitian_adjoint(d), d.conj().T)
    s = csr_from_triplets(2, 2, [[0, 1, 0.0, 1.0]])
    sa = hermitian_adjoint(s)
    assert is_sparse(sa)
    assert to_dense(sa)[1, 0] == -1j


def test_trace():
    assert trace(np.diag([1j, 2.0])) == pytest.approx(2.0 + 1j)
    with pytest.raises(ValidationError):
        trace(np.ones((2, 3), dtype=complex))


def test_hermiticity_defect():
    h = np.array([[1.0, 2 - 1j], [2 + 1j, 3.0]])
    assert hermiticity_defect(h) == 0.0
    assert hermiticity_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(np.sqrt(2.0))


def test_operator_json_round_trip_dense_and_sparse():
    dense = np.array([[1 + 1j, 0], [0.5, -2j]], dtype=complex)
    assert np.array_equal(to_dense(operator_from_json(operator_to_json(dense))), dense)
    sp = csr_from_triplets(3, 2, [[0, 1, 1.0, -1.0], [2, 0, 0.25, 0.0]])
    back = operator_from_json(operator_to_json(sp))
    assert is_sparse(back)
    assert np.array_equal(to_dense(back), to_dense(sp))


def test_operator_from_json_rejects_malformed():
    with pytest.raises(ValidationError):
        operator_from_json({"rows": 2, "cols": 2})  # missing triplets
    with pytest.raises(ValidationError):
        operator_from_json([[1.0, 2.0]])  # entries must be [re, im] pairs
    with pytest.raises(ValidationError):
        operator_from_json("nope")
