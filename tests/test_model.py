"""Model construction, the master-equation right-hand side, and presets."""

import math
import warnings
from functools import partial

import numpy as np
import pytest
import scipy.sparse

from oracles import lindblad_reference, random_density, random_hermitian
from twins import dense_twin
from lindbladiff.errors import ShapeMismatchError, ValidationError
from lindbladiff.linalg import is_sparse, operator_to_json, packing, to_dense
from lindbladiff.model import (
    DensityOperator,
    HamiltonianSchedule,
    JumpChannel,
    LindbladModel,
    LinearSchedule,
    all_zero_density,
    lindblad_rhs,
    model_from_json,
    preset_oat,
    rhs_parameter_derivative,
    validate_hamiltonian,
)
from lindbladiff.sensitivity import adjoint_liouvillian_apply
from lindbladiff.spins import (
    LOWERING,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_sparse,
    collective_sx,
    collective_sz,
    embed_single,
)


def _random_model(rng, n, n_channels):
    d = 2**n
    h0 = random_hermitian(rng, d)
    h1 = random_hermitian(rng, d)

    def evaluate(t, x):
        return x[0] * h0 + x[1] * np.cos(t) * h1

    def derivative(t, x, k):
        return h0 if k == 0 else np.cos(t) * h1

    channels = []
    for _ in range(n_channels):
        j = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        channels.append(JumpChannel(rate=float(rng.uniform(0.0, 1.0)), operator=j))
    return LindbladModel(
        hamiltonian=HamiltonianSchedule(evaluate=evaluate, n_params=2, derivative=derivative),
        channels=tuple(channels),
        dimension=d,
    )


class TestDensityOperator:
    def test_accepts_valid_state(self):
        rho = DensityOperator.from_matrix(np.diag([0.25, 0.75]))
        assert rho.n_qubits == 1 and rho.dimension == 2

    def test_rejects_bad_trace_hermiticity_psd_and_dimension(self):
        with pytest.raises(ValidationError):
            DensityOperator.from_matrix(np.diag([0.5, 0.6]))
        with pytest.raises(ValidationError):
            DensityOperator.from_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValidationError):
            DensityOperator.from_matrix(np.diag([1.2, -0.2]))
        with pytest.raises(ValidationError):
            DensityOperator.from_matrix(np.eye(3) / 3.0)

    def test_direct_construction_is_validated_and_stores_a_new_array(self):
        m = np.diag([0.25, 0.75]).astype(complex)
        rho = DensityOperator(matrix=m, n_qubits=1)
        assert np.array_equal(rho.matrix, m) and not np.shares_memory(rho.matrix, m)
        with pytest.raises(ValidationError, match="dimension 4"):
            DensityOperator(matrix=m, n_qubits=2)
        with pytest.raises(ValidationError, match="trace"):
            DensityOperator(matrix=np.diag([0.5, 0.6]), n_qubits=1)
        assert DensityOperator(matrix=np.diag([0.5, 0.6]), n_qubits=1, trace_tol=0.2).dimension == 2

    def test_all_zero_density(self):
        rho = all_zero_density(2)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.array_equal(rho.matrix, expect)


class TestJumpChannel:
    def test_caches_adjoint_and_square(self):
        ch = JumpChannel(rate=0.3, operator=LOWERING.copy())
        assert np.array_equal(to_dense(ch.adjoint_operator), LOWERING.conj().T)
        sched = HamiltonianSchedule(evaluate=lambda t, x: PAULI_Z, n_params=0)
        model = LindbladModel(hamiltonian=sched, channels=(ch,), dimension=2)
        assert np.array_equal(to_dense(model.decay), (0.5 * 0.3) * (LOWERING.conj().T @ LOWERING))

    @pytest.mark.parametrize("sparse_ops", [False, True])
    def test_local_decay_is_byte_equal_to_the_kronecker_chain(self, sparse_ops):
        def eye(m):
            return scipy.sparse.eye_array(m, dtype=np.complex128, format="csr") if sparse_ops else np.eye(m)

        kron = partial(scipy.sparse.kron, format="csr") if sparse_ops else np.kron
        for n in range(1, 9):
            model = preset_oat(n, 0.1) if sparse_ops else dense_twin(preset_oat(n, 0.1))
            expect = 0.0
            for ch in model.channels:
                a = ch.local.factor
                left, right = ch.local.view[0], ch.local.view[2]
                expect = expect + (0.5 * ch.rate) * kron(kron(eye(left), a.conj().T @ a), eye(right))
            got = model.decay
            assert type(got) is type(expect) and got.dtype == expect.dtype
            if sparse_ops:
                for part in ("data", "indices", "indptr"):
                    assert getattr(got, part).tobytes() == getattr(expect, part).tobytes()
            else:
                assert got.tobytes() == expect.tobytes()

    def test_local_channel_never_forms_its_adjoint(self, monkeypatch):
        # a local channel is applied by block copies, so the sandwich kernel
        # never reads a dense J^dag; a channel without a local form does
        import lindbladiff.model as model_module

        monkeypatch.setattr(model_module, "COMPILE_MAX_NNZ", 0)
        rng = np.random.default_rng(3)
        dense_jump = JumpChannel(rate=0.2, operator=rng.standard_normal((8, 8)) + 0j)
        model = preset_oat(3, 0.1)
        model = LindbladModel(model.hamiltonian, model.channels + (dense_jump,), model.dimension)
        rho = random_density(rng, 8)
        lindblad_rhs(0.0, rho, model, np.array([0.8, 0.6]))
        adjoint_liouvillian_apply(model, np.array([0.8, 0.6]), 0.0, rho)
        assert [("adjoint_operator" in vars(ch)) for ch in model.channels] == [False, False, False, True]

    def test_rejects_negative_rate_and_nonsquare(self):
        with pytest.raises(ValidationError):
            JumpChannel(rate=-0.1, operator=LOWERING.copy())
        with pytest.raises(ValidationError):
            JumpChannel(rate=0.1, operator=np.ones((2, 3), dtype=complex))


def _oracle_errors(model, x, rng):
    """Max elementwise |L rho - oracle| and |L^dag rho - oracle| at t = 0.4 on a random state."""
    rho = random_density(rng, model.dimension)
    h = to_dense(model.hamiltonian.evaluate(0.4, x))
    channels = [(ch.rate, to_dense(ch.operator)) for ch in model.channels]
    forward = lindblad_rhs(0.4, rho, model, x) - lindblad_reference(h, channels, rho)
    backward = adjoint_liouvillian_apply(model, x, 0.4, rho) - lindblad_reference(h, channels, rho, adjoint=True)
    return float(np.max(np.abs(forward))), float(np.max(np.abs(backward)))


def _fixed_model(d, ops, rate=0.3):
    h = random_hermitian(np.random.default_rng(d), d)
    return LindbladModel(
        hamiltonian=HamiltonianSchedule(evaluate=lambda t, x: h, n_params=0),
        channels=tuple(JumpChannel(rate=rate, operator=op) for op in ops),
        dimension=d,
    )


class TestLocalJump:
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_preset_channel_is_local_on_its_qubit(self, n, sparse):
        model = preset_oat(n, gamma=0.2) if sparse else dense_twin(preset_oat(n, gamma=0.2))
        for i, ch in enumerate(model.channels):
            assert ch.local is not None and ch.local.site == i
            assert np.array_equal(ch.local.factor, LOWERING)
            assert ch.local.view == (2**i, 2, 2 ** (n - 1 - i), 2**i, 2, 2 ** (n - 1 - i))
            # sigma_minus (x) conj(sigma_minus) has the one entry |00><11|
            assert len(ch.local.blocks) == 1

    @pytest.mark.parametrize("sparse", [False, True])
    def test_explicit_json_channel_is_detected(self, sparse):
        n, i = 3, 1
        wrap = as_sparse if sparse else np.asarray
        obj = {
            "dimension": 2**n,
            "hamiltonian": {"kind": "explicit", "terms": []},
            "channels": [{"gamma": 0.4, "matrix": operator_to_json(wrap(embed_single(LOWERING, i, n)))}],
        }
        (ch,) = model_from_json(obj).channels
        assert is_sparse(ch.operator) == sparse
        assert ch.local is not None and ch.local.site == i
        assert np.array_equal(ch.local.factor, LOWERING)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize(
        "factor",
        [LOWERING, LOWERING.T, PAULI_X, PAULI_Y, PAULI_Z, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
        ids=["sigma_minus", "sigma_plus", "sigma_x", "sigma_y", "sigma_z", "proj0", "proj1"],
    )
    def test_two_entry_factors_are_local_and_match_oracle(self, factor, sparse):
        n = 3
        wrap = as_sparse if sparse else np.asarray
        ops = [wrap(embed_single(np.asarray(factor, dtype=complex), i, n)) for i in range(n)]
        model = _fixed_model(2**n, ops)
        for i, ch in enumerate(model.channels):
            assert ch.local is not None and ch.local.site == i
            assert np.array_equal(ch.local.factor, factor)
        assert max(_oracle_errors(model, np.zeros(0), np.random.default_rng(3))) < 1e-12

    @pytest.mark.parametrize("sparse", [False, True])
    def test_non_local_operators_take_the_dense_sandwich(self, sparse):
        wrap = as_sparse if sparse else np.asarray
        four_entries = np.array([[1.0, 2.0j], [-0.5, 0.25]])
        ops = [
            np.kron(LOWERING, LOWERING),  # two-qubit jump
            embed_single(four_entries, 1, 2),  # single-qubit, but four nonzero entries
        ]
        model = _fixed_model(4, [wrap(op) for op in ops])
        assert [ch.local for ch in model.channels] == [None, None]
        assert max(_oracle_errors(model, np.zeros(0), np.random.default_rng(4))) < 1e-12

    def test_non_qubit_dimension_takes_the_dense_sandwich(self):
        h = operator_to_json(random_hermitian(np.random.default_rng(3), 3))
        lowering3 = operator_to_json(np.diag([1.0, 1.0], k=1))
        obj = {
            "dimension": 3,
            "hamiltonian": {"kind": "explicit", "terms": [{"coefficient": 1.0, "matrix": h}]},
            "channels": [{"gamma": 0.3, "matrix": lowering3}],
        }
        model = model_from_json(obj)
        assert model.channels[0].local is None
        assert max(_oracle_errors(model, np.zeros(0), np.random.default_rng(5))) < 1e-12

    def test_zero_rate_local_channel_is_skipped(self):
        ops = [embed_single(LOWERING, 0, 2)]
        model = _fixed_model(4, ops, rate=0.0)
        rho = random_density(np.random.default_rng(6), 4)
        h = to_dense(model.hamiltonian.evaluate(0.0, np.zeros(0)))
        assert np.array_equal(lindblad_rhs(0.0, rho, model, np.zeros(0)), -1j * (h @ rho - rho @ h))


class TestDecay:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_is_half_rate_weighted_sum_of_jump_squares(self, sparse):
        model = preset_oat(3, gamma=0.1) if sparse else dense_twin(preset_oat(3, gamma=0.1))
        jumps = [(ch.rate, to_dense(ch.operator)) for ch in model.channels]
        expect = sum(0.5 * rate * j.conj().T @ j for rate, j in jumps)
        assert np.allclose(to_dense(model.decay), expect, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_local_factors_give_half_rate_weighted_jump_squares(self, n, sparse):
        model = preset_oat(n, gamma=0.3) if sparse else dense_twin(preset_oat(n, gamma=0.3))
        assert all(ch.local is not None for ch in model.channels)
        assert is_sparse(model.decay) == sparse
        expect = sum(0.5 * ch.rate * to_dense(ch.adjoint_operator) @ to_dense(ch.operator) for ch in model.channels)
        assert np.max(np.abs(to_dense(model.decay) - expect)) <= 1e-15

    def test_keeps_sparse_storage(self):
        assert is_sparse(preset_oat(3, 0.1).decay)
        assert not is_sparse(dense_twin(preset_oat(3, 0.1)).decay)

    def test_zero_without_channels_keeps_sparse_hamiltonian_sparse(self):
        model = preset_oat(3)
        assert model.decay == 0.0
        h = model.hamiltonian.evaluate(0.0, np.array([0.8, 0.6]))
        assert is_sparse(h - 1j * model.decay) and is_sparse(-h + 1j * model.decay)

    def test_skips_zero_rate_channels(self):
        ops = (LOWERING.copy(), PAULI_Z.copy())
        model = LindbladModel(
            hamiltonian=HamiltonianSchedule(evaluate=lambda t, x: PAULI_Z, n_params=0),
            channels=(JumpChannel(rate=0.0, operator=ops[0]), JumpChannel(rate=0.4, operator=ops[1])),
            dimension=2,
        )
        assert np.array_equal(model.decay, 0.2 * (PAULI_Z.conj().T @ PAULI_Z))


def _commutator_errors(model, x, rng):
    """Max elementwise |dL/dx_k rho + i [A_k, rho]| over k on a random state."""
    rho = random_density(rng, model.dimension)
    worst = 0.0
    for k in range(model.n_params):
        a = to_dense(model.hamiltonian.param_derivative(0.4, x, k))
        got = rhs_parameter_derivative(0.4, rho, model, x, k)
        worst = max(worst, float(np.max(np.abs(got + 1j * (a @ rho - rho @ a)))))
    return worst


def _explicit_model(sparse):
    """3 qubits: a constant term, param:1 named twice, param:0 once, a local and a two-qubit channel."""
    n, d = 3, 8
    wrap = (lambda m: operator_to_json(as_sparse(m))) if sparse else operator_to_json
    rng = np.random.default_rng(17)
    terms = [
        {"coefficient": 0.7, "matrix": wrap(random_hermitian(rng, d))},
        {"coefficient": "param:1", "matrix": wrap(collective_sx(n))},
        {"coefficient": "param:0", "matrix": wrap(collective_sz(n) @ collective_sz(n))},
        {"coefficient": "param:1", "matrix": wrap(embed_single(PAULI_Y, 2, n))},
    ]
    channels = [
        {"gamma": 0.3, "matrix": wrap(embed_single(LOWERING, 0, n))},
        {"gamma": 0.2, "matrix": wrap(np.kron(np.kron(LOWERING, LOWERING), np.eye(2)))},
    ]
    return model_from_json({"dimension": d, "hamiltonian": {"kind": "explicit", "terms": terms}, "channels": channels})


def _flatten(values):
    for v in values:
        if isinstance(v, (tuple, list)):
            yield from _flatten(v)
        else:
            yield v


def _maps_of(compiled, x):
    """The dense real matrices of the memo's packed maps of L and L^dag at x, the tables their kernel calls read."""
    return [
        scipy.sparse.csr_array((data, indices, indptr), shape=(n_row, n_col)).toarray()
        for n_row, n_col, indptr, indices, data in compiled._tables(x)[1:]
    ]


def _packed_matrix(s):
    """The real matrix of r -> pack(S vec(unpack(r))) for a dense complex d^2 x d^2 S: column b
    of unpack(I) has at most two entries, 1, i or -i, so S times it adds at most two exact terms."""
    d = math.isqrt(s.shape[0])
    pack = packing(d)
    unpacked = pack.unpack(np.eye(d * d)).reshape(d * d, d * d).T  # column b is vec(unpack(e_b))
    return pack.pack(np.ascontiguousarray((s @ unpacked).T).reshape(d * d, d, d)).T


def _sandwich_twin(model):
    """The same generator behind a callable schedule, which always takes the sandwich kernel."""
    sched = model.hamiltonian
    return LindbladModel(
        hamiltonian=HamiltonianSchedule(
            evaluate=sched.evaluate, n_params=sched.n_params, derivative=lambda t, x, k: sched.terms[k]
        ),
        channels=model.channels,
        dimension=model.dimension,
    )


def _nonlocal_linear_model(rng, n):
    """A random compiled model: a dense constant term, Sx as the one parameter
    term, a local channel and a sparse jump operator that acts on every qubit."""
    d = 2**n
    jump = scipy.sparse.random(d, d, density=0.1, random_state=rng, format="csr", dtype=np.complex128)
    jump.data += 1j * rng.standard_normal(jump.nnz)
    channels = (JumpChannel(rate=0.3, operator=embed_single(LOWERING, 1, n)), JumpChannel(rate=0.7, operator=jump))
    schedule = LinearSchedule(terms=(collective_sx(n),), constant=random_hermitian(rng, d))
    return LindbladModel(hamiltonian=schedule, channels=channels, dimension=d)


class TestCompiled:
    def test_presets_match_textbook_oracle(self):
        # companion to criterion 9 for the compiled S: each storage against the oracle
        rng = np.random.default_rng(7)
        x = np.array([0.8, -0.6])
        for n in (1, 2, 3, 4, 5):
            for gamma in (0.0, 0.3):
                for model in (dense_twin(preset_oat(n, gamma)), preset_oat(n, gamma)):
                    assert isinstance(model.hamiltonian, LinearSchedule) and model.superoperator is not None
                    assert max(_oracle_errors(model, x, rng)) < 1e-12
                    assert _commutator_errors(model, x, rng) < 1e-12

    @pytest.mark.parametrize("sparse", [False, True])
    def test_explicit_model_groups_terms_and_matches_oracle(self, sparse):
        model = _explicit_model(sparse)
        sched = model.hamiltonian
        assert isinstance(sched, LinearSchedule) and model.n_params == 2
        assert model.channels[1].local is None and model.superoperator is not None
        expect_1 = collective_sx(3) + embed_single(PAULI_Y, 2, 3)
        assert np.allclose(to_dense(sched.terms[1]), expect_1, rtol=0.0, atol=1e-15)
        x = np.array([0.45, -1.2])
        rng = np.random.default_rng(8)
        assert max(_oracle_errors(model, x, rng)) < 1e-12
        assert _commutator_errors(model, x, rng) < 1e-12

    def test_memo_is_the_sparse_sum_of_terms_stored_once(self):
        # S_0: a diagonal constant term and one local channel; param 0 (Sx) and
        # param 2 (a full Hermitian) have entries outside S_0's pattern
        n, d = 2, 4
        rng = np.random.default_rng(21)
        a2 = random_hermitian(rng, d)
        terms = [
            {"coefficient": 0.7, "matrix": operator_to_json(collective_sz(n))},
            {"coefficient": "param:0", "matrix": operator_to_json(collective_sx(n))},
            {"coefficient": "param:1", "matrix": operator_to_json(as_sparse(collective_sz(n) @ collective_sz(n)))},
            {"coefficient": "param:2", "matrix": operator_to_json(a2)},
        ]
        channels = [{"gamma": 0.3, "matrix": operator_to_json(embed_single(LOWERING, 0, n))}]
        model = model_from_json({"dimension": d, "hamiltonian": {"kind": "explicit", "terms": terms}, "channels": channels})
        compiled = model.superoperator
        # every stored complex entry, before a first x fills the memo: S_0 and each S_k
        stored = sum(
            v.nnz if is_sparse(v) else v.size
            for v in _flatten(vars(compiled).values())
            if is_sparse(v) or (isinstance(v, np.ndarray) and np.iscomplexobj(v))
        )
        assert stored == compiled.base.nnz + sum(part.nnz for part in compiled.derivatives)
        base = compiled.base.toarray()
        parts = [part.toarray() for part in compiled.derivatives]
        eye = np.eye(d)
        assert np.allclose(parts[2], -1j * (np.kron(a2, eye) - np.kron(eye, a2.conj())), rtol=0.0, atol=1e-15)
        assert np.any((parts[0] != 0) & (base == 0)) and np.any((parts[2] != 0) & (base == 0))
        x = np.array([0.0, -0.0, -0.7])
        expect = base
        for xk, part in zip(x, parts):
            expect = expect + xk * part
        forward, adjoint = _maps_of(compiled, x)
        assert np.array_equal(forward, _packed_matrix(expect))
        assert np.array_equal(adjoint, _packed_matrix(expect.conj().T))

    def test_memo_sees_an_x_written_in_place(self):
        # the memo is keyed on the bytes of x, not on the array: an x its
        # owner changes in place between two calls gets the new S(x)
        compiled = preset_oat(2, 0.3).superoperator
        x = np.array([0.8, 0.6])
        first = _maps_of(compiled, x)[0]
        x[0] = -0.4
        forward, adjoint = _maps_of(compiled, x)
        expect = (compiled.base + (-0.4) * compiled.derivatives[0] + 0.6 * compiled.derivatives[1]).toarray()
        assert np.array_equal(forward, _packed_matrix(expect)) and not np.array_equal(first, forward)
        assert np.array_equal(adjoint, _packed_matrix(expect.conj().T))
        # a list or a strided vector is read by value, and a wrong length is rejected
        for same in ([-0.4, 0.6], np.array([-0.4, 9.0, 0.6])[::2]):
            assert np.array_equal(_maps_of(compiled, same)[0], forward)
        with pytest.raises(ValidationError, match="parameter vector shape"):
            compiled._tables(np.zeros(3))

    @pytest.mark.bit_identity
    def test_packed_maps_leave_out_parts_that_are_zero_at_every_x(self):
        # preset_oat's A_k are real, so each S_k is imaginary, and its jump operators
        # are real, so their terms are real: of the up to four real entries an entry
        # of S(x) gives, the maps keep only those that can be nonzero, about half;
        # a complex jump operator makes every part of its entries nonzero
        x = np.array([0.8, 0.6])
        for model in (preset_oat(3, 0.1), _nonlocal_linear_model(np.random.default_rng(4), 3)):
            compiled = model.superoperator
            y = x[: model.n_params]
            forward, adjoint = _maps_of(compiled, y)
            s = compiled.base.toarray()
            for xk, part in zip(y, compiled.derivatives):
                s = s + xk * part.toarray()
            assert np.array_equal(forward, _packed_matrix(s)) and np.array_equal(adjoint, _packed_matrix(s.conj().T))
            i, j = np.divmod(np.arange(64), 8)
            half = np.count_nonzero(s[i <= j])  # the entries in S(x)'s rows (i, j), i <= j
            for table in compiled._tables(y)[1:]:
                data = table[4]
                assert np.count_nonzero(data) == len(data)
                assert len(data) < 2 * half if model.n_params == 2 else len(data) > 3 * half

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("kind", ["dense", "sparse", "nonlocal"])
    def test_packed_maps_are_the_packed_s_and_s_adjoint_at_32_dimensions(self, kind):
        # the memo's real maps are pack(S(x) unpack(r)) and pack(S(x)^H unpack(r))
        # entry for entry, and L^dag is their kernel's product: within rounding of
        # scipy's public S(x)^H @ vec(lam), bit-equal to the packed map's product
        n, d = 5, 32
        rng = np.random.default_rng(32)
        model = _nonlocal_linear_model(rng, n) if kind == "nonlocal" else preset_oat(n, 0.3)
        model = dense_twin(model) if kind == "dense" else model
        compiled = model.superoperator
        x = np.array([0.8, -0.6][: model.n_params])
        s = compiled.base
        for xk, part in zip(x, compiled.derivatives):
            s = s + xk * part
        forward, adjoint = _maps_of(compiled, x)
        assert np.array_equal(forward, _packed_matrix(s.toarray()))
        assert np.array_equal(adjoint, _packed_matrix(s.conj().T.toarray()))
        lam = random_hermitian(rng, d)
        got = adjoint_liouvillian_apply(model, x, 0.0, lam)
        pack = packing(d)
        table = compiled._tables(x)[2]
        assert np.array_equal(pack.pack(got), scipy.sparse.csr_array(table[4:1:-1], shape=table[:2]) @ pack.pack(lam))
        expect = (s.conj().T.tocsr() @ lam.ravel()).reshape(d, d)
        assert np.array_equal(got, got.conj().T)
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))

    def test_missing_parameter_index_is_a_zero_term(self):
        term = {"coefficient": "param:1", "matrix": operator_to_json(PAULI_X)}
        obj = {"dimension": 2, "hamiltonian": {"kind": "explicit", "terms": [term]}}
        model = model_from_json(obj)
        assert model.n_params == 2 and not np.any(model.hamiltonian.terms[0])
        assert np.array_equal(rhs_parameter_derivative(0.0, np.eye(2) / 2, model, np.zeros(2), 0), np.zeros((2, 2)))

    def test_model_above_the_cap_takes_the_sandwich_with_equal_results(self, monkeypatch):
        import lindbladiff.model as model_module

        x = np.array([0.8, -0.6])
        rho = random_density(np.random.default_rng(10), 16)
        compiled = preset_oat(4, 0.3)
        assert compiled.superoperator is not None  # built on first use, before the cap drops
        monkeypatch.setattr(model_module, "COMPILE_MAX_NNZ", 0)
        capped = preset_oat(4, 0.3)
        assert capped.superoperator is None
        for got, expect in (
            (lindblad_rhs(0.2, rho, capped, x), lindblad_rhs(0.2, rho, compiled, x)),
            (adjoint_liouvillian_apply(capped, x, 0.2, rho), adjoint_liouvillian_apply(compiled, x, 0.2, rho)),
            (rhs_parameter_derivative(0.2, rho, capped, x, 1), rhs_parameter_derivative(0.2, rho, compiled, x, 1)),
        ):
            assert np.max(np.abs(got - expect)) < 1e-12

    def test_cap_sits_between_eight_and_nine_qubits(self):
        assert preset_oat(9, 0.1).superoperator is None

    def test_memo_follows_the_bytes_of_x(self):
        model = preset_oat(3, 0.2)
        rho = random_density(np.random.default_rng(11), 8)
        x = np.array([0.8, -0.6])
        first = lindblad_rhs(0.0, rho, model, x)
        x[0] = 1.3  # mutated in place: the next call must not reuse S(0.8, -0.6)
        second = lindblad_rhs(0.0, rho, model, x)
        fresh = preset_oat(3, 0.2)
        assert np.array_equal(second, lindblad_rhs(0.0, rho, fresh, np.array([1.3, -0.6])))
        adjoint = adjoint_liouvillian_apply(model, x, 0.0, rho)
        assert np.array_equal(adjoint, adjoint_liouvillian_apply(fresh, x, 0.0, rho))
        assert not np.allclose(first, second)
        x[0] = 0.8
        assert np.array_equal(lindblad_rhs(0.0, rho, model, x), first)

    @pytest.mark.bit_identity
    def test_qfi_reports_repeat_bit_for_bit_across_parameter_changes(self):
        from lindbladiff.qfi import generator_from_preset, qfi_of_params
        from lindbladiff.solver import SolveConfig

        model = preset_oat(3, 0.1)
        g = generator_from_preset("Sz", 3)
        rho0 = all_zero_density(3)
        cfg = SolveConfig(rtol=1e-8, atol=1e-10)
        x1, x2 = np.array([0.8, 0.6]), np.array([-0.4, 1.1])

        def report(m, x):
            rep = qfi_of_params(m, x, rho0, (0.0, 1.0), g, cfg, want_gradient=True)
            return rep.value, rep.gradient.tobytes(), rep.to_json()

        first = report(model, x1)
        report(model, x2)
        assert report(model, x1) == first
        assert report(preset_oat(3, 0.1), x1) == first


class TestInputChecks:
    """Compiled and sandwich models reject the same malformed input."""

    @pytest.fixture(params=["compiled", "sandwich"])
    def model(self, request):
        model = preset_oat(2, 0.3)
        return model if request.param == "compiled" else _sandwich_twin(model)

    def test_rhs_rejects_non_finite_state(self, model):
        bad = np.full((4, 4), np.nan, dtype=complex)
        with pytest.raises(ValidationError):
            lindblad_rhs(0.0, bad, model, np.zeros(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf)])
    def test_rhs_rejects_one_non_finite_entry(self, model, value):
        bad = random_density(np.random.default_rng(3), 4)
        bad[1, 2] = value
        with pytest.raises(ValidationError, match="non-finite state"):
            lindblad_rhs(0.0, bad, model, np.zeros(2))

    def test_rhs_accepts_a_finite_state_whose_sum_overflows(self, model):
        # the guard sums the entries first; an overflowing sum of finite
        # entries must fall through to the elementwise test, which passes
        big = np.diag([1e308, 1e308, 0.0, 0.0]).astype(complex)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(big.sum())
            assert lindblad_rhs(0.0, big, model, np.zeros(2)).shape == (4, 4)

    def test_every_entry_point_rejects_a_wrong_shape(self, model):
        wrong = np.eye(2, dtype=complex)
        with pytest.raises(ShapeMismatchError):
            lindblad_rhs(0.0, wrong, model, np.zeros(2))
        with pytest.raises(ShapeMismatchError):
            rhs_parameter_derivative(0.0, wrong, model, np.zeros(2), 0)
        with pytest.raises(ShapeMismatchError):
            adjoint_liouvillian_apply(model, np.zeros(2), 0.0, wrong)

    @pytest.mark.parametrize("x", [np.zeros(1), np.zeros(3)])
    def test_rhs_rejects_a_wrong_parameter_count(self, model, x):
        with pytest.raises(ValidationError):
            lindblad_rhs(0.0, np.eye(4, dtype=complex) / 4, model, x)

    @pytest.mark.parametrize("k", [-1, 2])
    def test_parameter_index_out_of_range(self, model, k):
        with pytest.raises(ValidationError):
            rhs_parameter_derivative(0.0, np.eye(4, dtype=complex) / 4, model, np.zeros(2), k)

    def test_out_receives_the_result_and_is_checked(self, model):
        rng = np.random.default_rng(15)
        rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = np.array([0.8, 0.6])
        applies = (partial(lindblad_rhs, 0.2, rho, model, x), partial(adjoint_liouvillian_apply, model, x, 0.2, rho))
        for apply in applies:
            out = np.full((4, 4), np.nan, dtype=complex)
            assert apply(out=out) is out
            assert np.array_equal(out, apply())
            # a strided row would be written through a copy, a real array cannot hold L(rho)
            for bad in (np.empty((2, 4), dtype=complex), np.empty((4, 4)), np.empty((4, 8), dtype=complex)[:, ::2]):
                with pytest.raises(ValidationError, match="out must be"):
                    apply(out=bad)

    @pytest.mark.parametrize("entry", ["rhs", "adjoint", "derivative"])
    def test_out_overlapping_the_input_is_rejected(self, model, entry):
        # the CSR kernel would read entries of the input it has already overwritten
        rng = np.random.default_rng(17)
        stack = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
        rho, x = stack[0], np.array([0.8, 0.6])
        calls = {
            "rhs": lambda: lindblad_rhs(0.2, rho, model, x, rho),
            "adjoint": lambda: adjoint_liouvillian_apply(model, x, 0.2, rho, rho),
            "derivative": lambda: rhs_parameter_derivative(0.2, rho, model, x, 0, rho),
        }
        before = stack.copy()
        with pytest.raises(ValidationError, match="out must not overlap"):
            calls[entry]()
        assert np.array_equal(stack, before)

    def test_linear_schedule_rejects_non_hermitian_terms(self):
        with pytest.raises(ValidationError):
            LinearSchedule(terms=(PAULI_Z, LOWERING))
        with pytest.raises(ValidationError):
            LinearSchedule(terms=(PAULI_Z,), constant=as_sparse(LOWERING))
        with pytest.raises(ValidationError):
            LinearSchedule(terms=())

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_linear_schedule_rejects_non_finite_operands(self, bad, entry, sparse):
        # a NaN defect, and the inf defect of a one-sided inf entry against an
        # inf scale, both pass a "defect > tol" test
        op = np.zeros((2, 2), dtype=complex)
        op[entry] = bad
        op = as_sparse(op) if sparse else op
        with pytest.raises(ValidationError, match="non-finite"):
            LinearSchedule(terms=(op,))
        with pytest.raises(ValidationError, match="non-finite"):
            LinearSchedule(terms=(PAULI_Z,), constant=op)

    def test_linear_schedule_rejects_operands_of_two_shapes(self):
        with pytest.raises(ShapeMismatchError, match="linear schedule term 1"):
            LinearSchedule(terms=(PAULI_Z, np.eye(4, dtype=complex)))

    def test_model_rejects_a_jump_operator_of_another_dimension(self):
        schedule = LinearSchedule(terms=(PAULI_Z,))
        with pytest.raises(ShapeMismatchError, match="jump operator 0"):
            LindbladModel(schedule, (JumpChannel(rate=0.1, operator=embed_single(LOWERING, 0, 2)),), 2)

    def test_model_rejects_a_schedule_of_another_dimension(self):
        with pytest.raises(ShapeMismatchError, match="linear schedule"):
            LindbladModel(LinearSchedule(terms=(PAULI_Z,)), (), 4)

    def test_packed_state_must_be_float64(self, model):
        with pytest.raises(ValidationError, match="must be float64"):
            lindblad_rhs(0.0, np.zeros(16, dtype=np.float32), model, np.zeros(2))

    def test_time_dependent_schedule_takes_the_sandwich(self):
        rng = np.random.default_rng(12)
        model = _random_model(rng, 2, 2)
        assert model.superoperator is None
        assert max(_oracle_errors(model, np.array([0.7, -0.4]), rng)) < 1e-12


class TestRhs:
    def test_trace_free_and_hermiticity_preserving(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 3))
            model = _random_model(rng, n, int(rng.integers(0, 3)))
            rho = random_density(rng, model.dimension)
            out = lindblad_rhs(0.3, rho, model, np.array([0.7, -0.4]))
            assert abs(np.trace(out)) < 1e-12
            assert np.linalg.norm(out - out.conj().T) < 1e-12 * max(1.0, np.linalg.norm(out))

    def test_dephasing_rhs_closed_form(self):
        # single sigma_z channel at rate g: d(rho01)/dt = -2 g rho01, diagonal frozen
        g = 0.4
        ch = JumpChannel(rate=g, operator=PAULI_Z.copy())
        model = LindbladModel(LinearSchedule(terms=(np.zeros((2, 2)),)), (ch,), 2)
        rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]], dtype=complex)
        out = lindblad_rhs(0.0, rho, model, np.array([0.0]))
        assert out[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert out[0, 1] == pytest.approx(-2.0 * g * rho[0, 1], abs=1e-15)

    def test_parameter_derivative_is_commutator(self):
        model = preset_oat(2)
        rng = np.random.default_rng(1)
        rho = random_density(rng, 4)
        x = np.array([0.3, 0.9])
        sz2 = collective_sz(2) @ collective_sz(2)
        expect = -1j * (sz2 @ rho - rho @ sz2)
        got = rhs_parameter_derivative(0.0, rho, model, x, 0)
        assert np.allclose(got, expect, atol=1e-14)
        sx = collective_sx(2)
        assert np.allclose(
            rhs_parameter_derivative(0.0, rho, model, x, 1), -1j * (sx @ rho - rho @ sx), atol=1e-14
        )

    @pytest.mark.parametrize("wrap", [np.asarray, scipy.sparse.csr_array])
    def test_sandwich_takes_a_real_state_and_real_operands(self, wrap):
        # the sandwich kernel's one product of two real matrices is real; the
        # result is still the complex generator applied to the state
        pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        sched = HamiltonianSchedule(
            evaluate=lambda t, x: wrap(x[0] * pauli_x), n_params=1, derivative=lambda t, x, k: wrap(pauli_x)
        )
        model = LindbladModel(hamiltonian=sched, channels=(), dimension=2)
        rho, x = np.array([[0.7, 0.2], [0.2, 0.3]]), np.array([0.5])
        assert np.array_equal(lindblad_rhs(0.0, rho, model, x), lindblad_rhs(0.0, rho.astype(complex), model, x))
        expect = -1j * (pauli_x @ rho - rho @ pauli_x)
        assert np.array_equal(rhs_parameter_derivative(0.0, rho, model, x, 0), expect)

    def test_rhs_validates_state(self):
        model = preset_oat(1)
        with pytest.raises(ShapeMismatchError):
            lindblad_rhs(0.0, np.eye(4, dtype=complex), model, np.zeros(2))
        bad = np.full((2, 2), np.nan, dtype=complex)
        with pytest.raises(ValidationError):
            lindblad_rhs(0.0, bad, model, np.zeros(2))


class TestHamiltonianSchedule:
    def test_schedule_without_derivative_is_rejected(self):
        # every parameter gradient is exact: a parameterised schedule needs its dH/dx_k rule
        with pytest.raises(ValidationError, match="derivative"):
            HamiltonianSchedule(evaluate=lambda t, x: x[0] * PAULI_Z, n_params=1)
        HamiltonianSchedule(evaluate=lambda t, x: PAULI_Z, n_params=0)  # no parameters, no rule

    def test_param_index_bounds(self):
        sched = HamiltonianSchedule(
            evaluate=lambda t, x: x[0] * PAULI_Z, n_params=1, derivative=lambda t, x, k: PAULI_Z
        )
        assert np.array_equal(sched.param_derivative(0.0, np.array([0.0]), 0), PAULI_Z)
        with pytest.raises(ValidationError):
            sched.param_derivative(0.0, np.array([0.0]), 1)


class TestPresetOat:
    def test_hamiltonian_structure(self):
        model = preset_oat(2)
        x = np.array([0.3, -1.1])
        sz = collective_sz(2)
        sx = collective_sx(2)
        expect = x[0] * sz @ sz + x[1] * sx
        assert np.allclose(to_dense(model.hamiltonian.evaluate(0.0, x)), expect, atol=1e-15)
        assert model.n_params == 2
        assert model.channels == ()
        validate_hamiltonian(model, x)

    def test_terms_equal_kronecker_chains_and_products(self):
        # embed_single and the diagonal Sz^2 against the textbook constructions
        eye = np.eye(2, dtype=complex)
        for n in range(1, 6):
            for op in (PAULI_X, PAULI_Y, PAULI_Z, LOWERING):
                for q in range(n):
                    chain = np.eye(1, dtype=complex)
                    for i in range(n):
                        chain = np.kron(chain, op if i == q else eye)
                    assert np.array_equal(embed_single(op, q, n), chain)
            sz, sx = collective_sz(n), collective_sx(n)
            sz2, sx_term = preset_oat(n).hamiltonian.terms
            assert np.array_equal(to_dense(sz2), sz @ sz) and sz2.dtype == np.complex128
            assert np.array_equal(to_dense(sx_term), sx)

    def test_every_operand_is_canonical_csr(self):
        model = preset_oat(3, 0.1)
        for op in (*model.hamiltonian.terms, *(ch.operator for ch in model.channels)):
            assert is_sparse(op) and op.format == "csr" and op.has_canonical_format

    def test_dissipative_channels_are_per_qubit_lowering(self):
        model = preset_oat(3, gamma=0.25)
        assert len(model.channels) == 3
        for i, ch in enumerate(model.channels):
            assert ch.rate == 0.25
            assert np.array_equal(to_dense(ch.operator), embed_single(LOWERING, i, 3))

    def test_sparse_dense_equivalence_on_presets(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            sparse_m = preset_oat(n, gamma=0.2)
            dense_m = dense_twin(sparse_m)
            rho = random_density(rng, 2**n)
            x = np.array([0.6, 0.35])
            a = lindblad_rhs(0.1, rho, dense_m, x)
            b = lindblad_rhs(0.1, rho, sparse_m, x)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_both_storages_match_textbook_oracle(self):
        # dense and sparse presets share the local jump path, so criterion 9's
        # dense-vs-sparse comparison is backed by a check of each against the oracle
        rng = np.random.default_rng(99)
        x = np.array([0.8, 0.6])
        worst = 0.0
        for n in (1, 2, 3, 4):
            for gamma in (0.0, 0.3):
                for model in (dense_twin(preset_oat(n, gamma)), preset_oat(n, gamma)):
                    worst = max(worst, *_oracle_errors(model, x, rng))
        assert worst < 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            preset_oat(0)
        with pytest.raises(ValidationError):
            preset_oat(2, gamma=-1.0)


JSON_LOWERING = operator_to_json(LOWERING)
ONE_BY_ONE = [[[1.0, 0.0]]]
#: A valid explicit model: H = x_0 Z / 2 with one lowering channel.
EXPLICIT_QUBIT = {
    "dimension": 2,
    "hamiltonian": {
        "kind": "explicit",
        "terms": [{"coefficient": "param:0", "matrix": operator_to_json(0.5 * PAULI_Z)}],
    },
    "channels": [{"gamma": 0.1, "matrix": JSON_LOWERING}],
}


def _with_term(obj: dict, changes: dict) -> dict:
    """obj with its first Hamiltonian term updated by changes; a None value drops that key."""
    term = {key: value for key, value in {**obj["hamiltonian"]["terms"][0], **changes}.items() if value is not None}
    return dict(obj, hamiltonian=dict(obj["hamiltonian"], terms=[term]))


class TestModelFromJson:
    def test_explicit_model_round_trip_behavior(self):
        obj = {
            "dimension": 2,
            "hamiltonian": {
                "kind": "explicit",
                "terms": [
                    {"coefficient": "param:0", "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]},
                    {"coefficient": 0.25, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
                ],
            },
            "channels": [{"gamma": 0.1, "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}],
        }
        model = model_from_json(obj)
        assert model.n_params == 1 and model.dimension == 2
        x = np.array([0.8])
        expect = 0.8 * 0.5 * PAULI_Z + 0.25 * PAULI_X
        assert np.allclose(to_dense(model.hamiltonian.evaluate(0.0, x)), expect, atol=1e-15)
        assert np.allclose(
            to_dense(model.hamiltonian.param_derivative(0.0, x, 0)), 0.5 * PAULI_Z, atol=1e-15
        )
        assert len(model.channels) == 1 and model.channels[0].rate == 0.1

    @pytest.mark.parametrize("n, gamma", [(1, 0.0), (2, 0.1), (3, 0.3)])
    def test_preset_kind_builds_preset_oat(self, n, gamma):
        model = model_from_json({"dimension": 2**n, "gamma": gamma, "hamiltonian": {"kind": "preset_oat"}})
        expect = preset_oat(n, gamma)
        assert model.dimension == expect.dimension and model.n_params == 2
        for a, b in zip(model.hamiltonian.terms, expect.hamiltonian.terms, strict=True):
            assert np.array_equal(to_dense(a), to_dense(b))
        assert [ch.rate for ch in model.channels] == [ch.rate for ch in expect.channels]
        for a, b in zip(model.channels, expect.channels):
            assert np.array_equal(to_dense(a.operator), to_dense(b.operator))
        rho = random_density(np.random.default_rng(n), 2**n)
        x = np.array([0.8, 0.6])
        assert np.array_equal(lindblad_rhs(0.0, rho, model, x), lindblad_rhs(0.0, rho, expect, x))

    @pytest.mark.parametrize(
        "extra, path, message",
        [
            ({"dimension": 6}, "/dimension", "power-of-two"),
            ({"gamma": -0.1}, "/gamma", "nonnegative"),
            ({"channels": [{"gamma": 0.1, "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}]}, "/channels", "own channels"),
            ({"gama": 0.1}, "/gama", "unknown key"),
            ({"hamiltonian": {"kind": "preset_oat", "terms": []}}, "/hamiltonian/terms", "unknown key"),
        ],
    )
    def test_preset_kind_errors(self, extra, path, message):
        obj = {"dimension": 2, "hamiltonian": {"kind": "preset_oat"}, **extra}
        with pytest.raises(ValidationError, match=message) as exc:
            model_from_json(obj)
        assert exc.value.path == path

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rates_are_rejected(self, bad):
        # "rate < 0" is False for NaN, and preset_oat adds channels only for gamma > 0
        with pytest.raises(ValidationError, match="finite"):
            preset_oat(2, bad)
        with pytest.raises(ValidationError, match="finite"):
            JumpChannel(rate=bad, operator=LOWERING)
        with pytest.raises(ValidationError) as exc:
            model_from_json({"dimension": 4, "gamma": bad, "hamiltonian": {"kind": "preset_oat"}})
        assert exc.value.path == "/gamma"
        channel = {"gamma": bad, "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
        with pytest.raises(ValidationError) as exc:
            model_from_json({"dimension": 2, "hamiltonian": {"kind": "explicit", "terms": []}, "channels": [channel]})
        assert exc.value.path == "/channels/0/gamma"

    @pytest.mark.parametrize(
        "edit, path, message",
        [
            (lambda obj: [obj], "", "must be an object"),
            (lambda obj: dict(obj, dimension=0), "/dimension", "must be positive"),
            (lambda obj: dict(obj, hamiltonian={"terms": []}), "/hamiltonian", "'kind'"),
            (lambda obj: dict(obj, hamiltonian={"kind": "cubic"}), "/hamiltonian/kind", "unknown hamiltonian kind"),
            (lambda obj: _with_term(obj, {"matrix": None}), "/hamiltonian/terms/0", "needs 'coefficient'"),
            (lambda obj: _with_term(obj, {"coefficient": "x:0"}), "/hamiltonian/terms/0", "'param:<k>'"),
            (lambda obj: _with_term(obj, {"coefficient": "param:a"}), "/hamiltonian/terms/0", "bad parameter index"),
            (lambda obj: _with_term(obj, {"coefficient": "param:-1"}), "/hamiltonian/terms/0", "nonnegative"),
            (lambda obj: _with_term(obj, {"matrix": ONE_BY_ONE}), "/hamiltonian/terms/0", "term matrix shape"),
            (lambda obj: dict(obj, channels=[{"matrix": JSON_LOWERING}]), "/channels/0", "needs 'gamma'"),
            (lambda obj: dict(obj, channels=[{"gamma": 0.1, "matrix": ONE_BY_ONE}]), "/channels/0", "matrix shape"),
            # a misspelt or misplaced key is rejected, not read as absent (a model with no dissipation)
            (lambda obj: dict(obj, gamma=0.1), "/gamma", "unknown key"),
            (lambda obj: {"chanels" if k == "channels" else k: v for k, v in obj.items()}, "/chanels", "unknown key"),
            (lambda obj: dict(obj, hamiltonian=dict(obj["hamiltonian"], a=1)), "/hamiltonian/a", "unknown key"),
            (lambda obj: _with_term(obj, {"coeff": 1.0}), "/hamiltonian/terms/0/coeff", "unknown key"),
            (lambda obj: dict(obj, channels=[dict(obj["channels"][0], rate=0.2)]), "/channels/0/rate", "unknown key"),
        ],
    )
    def test_explicit_model_errors(self, edit, path, message):
        with pytest.raises(ValidationError, match=message) as exc:
            model_from_json(edit(EXPLICIT_QUBIT))
        assert exc.value.path == path

    def test_error_paths_are_json_pointers(self):
        with pytest.raises(ValidationError) as exc:
            model_from_json({"hamiltonian": {"kind": "explicit"}})
        assert exc.value.path == "/dimension"
        with pytest.raises(ValidationError) as exc:
            model_from_json(
                {
                    "dimension": 2,
                    "hamiltonian": {
                        "kind": "explicit",
                        "terms": [
                            {"coefficient": 1.0, "matrix": [[[0, 0], [1, 0]], [[0, 1], [0, 0]]]}
                        ],
                    },
                }
            )
        assert exc.value.path == "/hamiltonian/terms/0/matrix"
        with pytest.raises(ValidationError) as exc:
            model_from_json(
                {
                    "dimension": 2,
                    "hamiltonian": {"kind": "explicit", "terms": []},
                    "channels": [{"gamma": -0.5, "matrix": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}],
                }
            )
        assert exc.value.path == "/channels/0/gamma"


def test_validate_hamiltonian_does_not_evaluate_a_linear_schedule(monkeypatch):
    # its terms were checked Hermitian once, at construction
    def evaluate(self, t, x):
        raise AssertionError("evaluated")

    monkeypatch.setattr(LinearSchedule, "evaluate", evaluate)
    validate_hamiltonian(preset_oat(2, 0.1), np.array([0.8, 0.6]))


def test_validate_hamiltonian_catches_a_wrong_shape():
    sched = HamiltonianSchedule(evaluate=lambda t, x: np.eye(4, dtype=complex), n_params=0)
    model = LindbladModel(hamiltonian=sched, channels=(), dimension=2)
    with pytest.raises(ShapeMismatchError, match="hamiltonian"):
        validate_hamiltonian(model, np.zeros(0))


def test_validate_hamiltonian_catches_nonhermitian():
    sched = HamiltonianSchedule(evaluate=lambda t, x: np.array([[0, 1], [0, 0]], dtype=complex), n_params=0)
    model = LindbladModel(hamiltonian=sched, channels=(), dimension=2)
    with pytest.raises(ValidationError):
        validate_hamiltonian(model, np.zeros(0))


#: Finite, but ||.||_F and ||. - .^dag||_F both overflow to inf, and inf <= tol * inf holds.
OVERFLOWING = np.array([[0.0, 1e200], [0.0, 0.0]], dtype=complex)


@pytest.mark.parametrize("sparse", [False, True])
def test_hermiticity_checks_reject_an_overflowing_operand(sparse):
    op = as_sparse(OVERFLOWING) if sparse else OVERFLOWING
    model = LindbladModel(
        hamiltonian=HamiltonianSchedule(evaluate=lambda t, x: op, n_params=0), channels=(), dimension=2
    )
    explicit = {
        "dimension": 2,
        "hamiltonian": {"kind": "explicit", "terms": [{"coefficient": 1.0, "matrix": operator_to_json(op)}]},
        "channels": [],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match="not Hermitian"):
            LinearSchedule(terms=(op,))
        with pytest.raises(ValidationError, match="not Hermitian"):
            model_from_json(explicit)
        with pytest.raises(ValidationError, match="not Hermitian"):
            validate_hamiltonian(model, np.zeros(0))
        with pytest.raises(ValidationError, match="not Hermitian"):
            DensityOperator.from_matrix(OVERFLOWING + np.diag([1.0, 0.0]))


def test_validate_hamiltonian_catches_nan():
    # a NaN defect compares false against the tolerance, so it must fail, not pass
    sched = HamiltonianSchedule(evaluate=lambda t, x: np.diag([np.nan, 0.0]).astype(complex), n_params=0)
    model = LindbladModel(hamiltonian=sched, channels=(), dimension=2)
    with pytest.raises(ValidationError, match="not Hermitian"):
        validate_hamiltonian(model, np.zeros(0))
