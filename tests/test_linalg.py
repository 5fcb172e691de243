"""Dense/sparse operator primitives and their JSON wire formats."""

import warnings

import numpy as np
import pytest
from scipy import sparse

from lindbladiff.errors import ValidationError
from lindbladiff.linalg import (
    MAX_DIMENSION,
    as_cmatrix,
    csr_from_triplets,
    hermitian_adjoint,
    is_hermitian,
    is_sparse,
    json_array,
    json_number,
    json_object,
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


def test_is_hermitian():
    # ||a - a^dag||_F <= tol * max(floor, ||a||_F), dense and sparse alike
    h = np.array([[1.0, 2 - 1j], [2 + 1j, 3.0]])
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])  # defect sqrt(2), norm 1
    for wrap in (np.asarray, sparse.csr_array):
        assert is_hermitian(wrap(h), 0.0)
        assert not is_hermitian(wrap(skew), 1.4) and is_hermitian(wrap(skew), 1.5)
        # below the floor the test is absolute, above it relative
        assert is_hermitian(wrap(1e-3 * skew), 1.0) and not is_hermitian(wrap(1e-3 * skew), 1.0, floor=1e-300)
        assert is_hermitian(wrap(np.zeros((2, 2))), 0.0)


def test_is_hermitian_without_overflow_or_nan():
    # the defect and the norm of these entries overflow to inf, and inf <= tol * inf holds
    big = np.array([[0.0, 1e200], [0.0, 0.0]], dtype=complex)
    ok = np.array([[1.0, 1e200 + 1e200j], [1e200 - 1e200j, 2.0]])
    # here even the modulus of the off-diagonal entry overflows
    huge = np.array([[0.0, 1.7e308 + 1.7e308j], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for wrap in (np.asarray, sparse.csr_array):
            assert not is_hermitian(wrap(big), 1e-12) and not is_hermitian(wrap(huge), 1e-12)
            assert is_hermitian(wrap(ok), 1e-12) and is_hermitian(wrap(huge + huge.conj().T), 1e-12)
        for bad in (np.nan, np.inf):
            assert not is_hermitian(np.array([[bad, 0.0], [0.0, 1.0]]), 1e-12)


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


@pytest.mark.parametrize("value", [True, "1", None, [1.0], float("nan"), float("inf"), float("-inf")])
def test_json_number_rejects_non_numbers(value):
    with pytest.raises(ValidationError) as err:
        json_number(value, "/a/0")
    assert err.value.path == "/a/0"


def test_json_number_reads_python_and_numpy_reals():
    assert json_number(3, "") == 3.0 and isinstance(json_number(3, ""), float)
    assert json_number(np.float32(0.5), "") == 0.5
    assert json_number(np.int64(7), "", integer=True) == 7
    assert json_number(2.0, "", integer=True) == 2 and isinstance(json_number(2.0, "", integer=True), int)
    assert json_number(10**400, "", integer=True) == 10**400
    for bad in (2.5, np.float64(0.7), True, np.bool_(True), float("inf")):
        with pytest.raises(ValidationError):
            json_number(bad, "/i", integer=True)
    with pytest.raises(ValidationError, match="finite"):
        json_number(10**400, "/big")  # beyond the float range, and no OverflowError


def test_json_array_and_object_readers():
    assert json_array([1, 2], "/a", length=2) == [1, 2]
    assert json_object({"k": 1}, "/o") == {"k": 1}
    for value, length in (("ab", None), ({"0": 1}, None), ([1, 2, 3], 2)):
        with pytest.raises(ValidationError) as err:
            json_array(value, "/a", length=length)
        assert err.value.path == "/a"
    for value in ([], "x", 5, None):
        with pytest.raises(ValidationError) as err:
            json_object(value, "/o")
        assert err.value.path == "/o"


@pytest.mark.parametrize(
    "literal, pointer",
    [
        ([[[True, False]]], "/m/0/0/0"),
        ([[["1", "0"]]], "/m/0/0/0"),
        ([[[1, 0, 5]]], "/m/0/0"),
        ([[[1, 0]], [[1, 0], [0, 0]]], "/m"),
        ([], "/m"),
        ({"rows": 2.9, "cols": 2, "triplets": []}, "/m/rows"),
        ({"rows": 2, "cols": "2", "triplets": []}, "/m/cols"),
        ({"rows": 2, "cols": 2, "triplets": 5}, "/m/triplets"),
        ({"rows": 2, "cols": 2, "triplets": [[0.7, 0, 1.0, 0.0]]}, "/m/triplets/0/0"),
        ({"rows": 2, "cols": 2, "triplets": [[0, 1, "1", 0.0]]}, "/m/triplets/0/2"),
        ({"rows": 2, "cols": 2, "triplets": [5]}, "/m/triplets/0"),
        ({"rows": MAX_DIMENSION + 1, "cols": 2, "triplets": []}, "/m/rows"),
        ({"rows": 2, "cols": 1e12, "triplets": []}, "/m/cols"),
    ],
)
def test_operator_from_json_points_at_the_malformed_value(literal, pointer):
    with pytest.raises(ValidationError) as err:
        operator_from_json(literal, "/m")
    assert err.value.path == pointer


def test_sparse_literal_may_be_as_large_as_the_largest_dimension():
    op = operator_from_json({"rows": MAX_DIMENSION, "cols": 1, "triplets": [[MAX_DIMENSION - 1, 0, 1.0, 0.0]]})
    assert op.shape == (MAX_DIMENSION, 1) and op.nnz == 1
