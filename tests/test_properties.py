"""Property-based checks of the generator, of the eigen pullback and of the
gradients on random small inputs.

Every matrix entry is drawn by hypothesis, so a failing example shrinks
towards a smaller model with simpler entries.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from oracles import block_exp_tangent, lindblad_reference
from lindbladiff.eigen import eig_vjp, eigh
from lindbladiff.errors import GaugeDependenceError
from lindbladiff.linalg import STATE_TOL, packing, to_dense
from lindbladiff import model as model_module
from lindbladiff.model import (
    DensityOperator,
    HamiltonianSchedule,
    JumpChannel,
    LindbladModel,
    LinearSchedule,
    lindblad_rhs,
    rhs_parameter_derivative,
)
from lindbladiff.qfi import Generator, qfi_of_params, qfi_rho_cotangent
from lindbladiff.sensitivity import (
    _ReverseWork,
    _reverse_step,
    adjoint_gradient,
    adjoint_liouvillian_apply,
    forward_sensitivity,
    observable_cost,
)
from lindbladiff.solver import DOP853, SolveConfig, _CountedRhs, integrate
from lindbladiff.spins import LOWERING, as_sparse, collective_sx, collective_sz, embed_single

# derandomized and without an example database: every run draws the same examples
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

_ENTRY = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
_NONZERO = _ENTRY.filter(lambda v: v != 0.0)


def _norm(a):
    """Frobenius norm of a, scaled by max|a_ij| first: np.linalg.norm squares
    the entries, so it returns 0 for entries below about 1e-162."""
    r = np.abs(to_dense(a))
    m = np.max(r, initial=0.0)
    return 0.0 if m == 0.0 else float(m * np.sqrt(np.sum((r / m) ** 2)))


def _csr(table):
    """A copy of a compiled model's kernel table (n_row, n_col, indptr, indices, data) as a CSR array."""
    n_row, n_col, indptr, indices, data = table
    return sparse.csr_array((data, indices, indptr), shape=(n_row, n_col), copy=True)


def _complex(draw, d):
    re = draw(arrays(np.float64, (d, d), elements=_ENTRY))
    im = draw(arrays(np.float64, (d, d), elements=_ENTRY))
    return re + 1j * im


def _hermitian(draw, d):
    a = _complex(draw, d)
    return 0.5 * (a + a.conj().T)


def _case(draw, d, rates, ops, linear=False):
    """(model, t, x, rho, lam, scale) for the given channels, two operands and a bound on |L|.

    The Hamiltonian is a fixed H behind a callable schedule (the sandwich
    kernel), or with ``linear`` a LinearSchedule A_0 + sum_k x_k A_k with
    zero to two parameters and random x (the compiled superoperator).  rho
    and lam are Hermitian, as every state and cotangent the generator and its
    adjoint are applied to.
    """
    wrap = as_sparse if draw(st.booleans()) else (lambda m: m)
    channels = tuple(JumpChannel(rate=g, operator=wrap(j)) for g, j in zip(rates, ops))
    scale = 2.0 * sum(g * _norm(j) ** 2 for g, j in zip(rates, ops))
    if linear:
        n_params = draw(st.integers(0, 2))
        constant = _hermitian(draw, d) if n_params == 0 or draw(st.booleans()) else None
        terms = [_hermitian(draw, d) for _ in range(n_params)]
        x = np.array([draw(_ENTRY) for _ in range(n_params)])
        hamiltonian = LinearSchedule(
            terms=tuple(map(wrap, terms)), constant=None if constant is None else wrap(constant)
        )
        scale += 2.0 * sum(abs(c) * _norm(a) for c, a in zip([1.0, *x], [constant, *terms]) if a is not None)
    else:
        h = _hermitian(draw, d)
        h_op = wrap(h)
        x = np.zeros(0)
        hamiltonian = HamiltonianSchedule(evaluate=lambda t, x: h_op, n_params=0)
        scale += 2.0 * _norm(h)
    model = LindbladModel(hamiltonian=hamiltonian, channels=channels, dimension=d)
    t = draw(st.floats(0.0, 1.0))
    return model, t, x, _hermitian(draw, d), _hermitian(draw, d), scale


# rate 0 exercises the skipped-channel branch
_RATE = st.sampled_from([0.0, 0.3, 1.0, 2.0])


@st.composite
def cases(draw, linear=False):
    """A random 1-3 qubit model with dense, non-Hermitian jump operators."""
    d = 2 ** draw(st.integers(1, 3))
    n_channels = draw(st.integers(0, 3))
    rates = [draw(_RATE) for _ in range(n_channels)]
    return _case(draw, d, rates, [_complex(draw, d) for _ in range(n_channels)], linear=linear)


def _case_at_32_dimensions(rng, sparse):
    """A _case-style tuple on 5 qubits, built from rng: the drawn cases stop at
    d = 8.  A LinearSchedule with a constant and two parameter terms, a local channel
    and a dense jump operator with a tenth of its entries nonzero."""
    d = 32
    wrap = as_sparse if sparse else (lambda m: m)

    def hermitian():
        a = rng.uniform(-1.0, 1.0, (d, d)) + 1j * rng.uniform(-1.0, 1.0, (d, d))
        return 0.5 * (a + a.conj().T)

    jump = (rng.uniform(-1.0, 1.0, (d, d)) + 1j * rng.uniform(-1.0, 1.0, (d, d))) * (rng.random((d, d)) < 0.1)
    ops, rates = [embed_single(LOWERING, 3, 5), jump], [0.3, 1.0]
    constant, terms, x = hermitian(), [hermitian(), hermitian()], rng.uniform(-1.0, 1.0, 2)
    model = LindbladModel(
        hamiltonian=LinearSchedule(terms=tuple(map(wrap, terms)), constant=wrap(constant)),
        channels=tuple(JumpChannel(rate=g, operator=wrap(j)) for g, j in zip(rates, ops)),
        dimension=d,
    )
    scale = 2.0 * sum(g * _norm(j) ** 2 for g, j in zip(rates, ops))
    scale += 2.0 * sum(abs(c) * _norm(a) for c, a in zip([1.0, *x], [constant, *terms]))
    return model, float(rng.random()), x, hermitian(), hermitian(), scale


@st.composite
def local_cases(draw):
    """(case, n_local): a random 1-4 qubit model whose channels are single-qubit
    factors with one or two nonzero entries on random sites, n_local of them,
    mixed with dense jump operators."""
    n = draw(st.integers(1, 4))
    d = 2**n
    rates, ops, n_local = [], [], 0
    for _ in range(draw(st.integers(1, 3))):
        rates.append(draw(_RATE))
        if draw(st.integers(0, 3)) == 0:
            ops.append(_complex(draw, d))
            continue
        factor = np.zeros((2, 2), dtype=np.complex128)
        entries = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=2, unique=True)
        for p, q in draw(entries):
            factor[p, q] = complex(draw(_NONZERO), draw(_ENTRY))
        ops.append(embed_single(factor, draw(st.integers(0, n - 1)), n))
        n_local += 1
    return _case(draw, d, rates, ops), n_local


def _check_pairing(case):
    model, t, x, rho, lam, scale = case
    forward = np.vdot(lam, lindblad_rhs(t, rho, model, x))  # Tr(lam^dag L(rho))
    backward = np.vdot(adjoint_liouvillian_apply(model, x, t, lam), rho)  # Tr((L^dag lam)^dag rho)
    bound = 1e-12 * scale * _norm(lam) * _norm(rho)
    assert abs(forward - backward) <= bound


def _check_textbook_form(case):
    # an error both directions share can keep the pairing identity intact;
    # this pins each direction separately to the anticommutator form
    model, t, x, rho, lam, scale = case
    h = to_dense(model.hamiltonian.evaluate(t, x))
    channels = [(ch.rate, to_dense(ch.operator)) for ch in model.channels]
    forward = lindblad_rhs(t, rho, model, x) - lindblad_reference(h, channels, rho)
    assert _norm(forward) <= 1e-12 * scale * _norm(rho)
    backward = adjoint_liouvillian_apply(model, x, t, lam) - lindblad_reference(h, channels, lam, adjoint=True)
    assert _norm(backward) <= 1e-12 * scale * _norm(lam)


@PROPERTY
@given(cases())
def test_adjoint_pairing_identity(case):
    _check_pairing(case)


@PROPERTY
@given(cases(linear=True))
def test_compiled_generator_pairing_and_textbook_form(case):
    # Tr(lam^dag S rho) == Tr((S^H lam)^dag rho) for the compiled S of a random linear model
    assert case[0].superoperator is not None
    _check_pairing(case)
    _check_textbook_form(case)


@pytest.mark.parametrize("sparse", [False, True])
def test_compiled_pairing_and_textbook_form_at_32_dimensions(sparse):
    case = _case_at_32_dimensions(np.random.default_rng(5), sparse)
    assert case[0].superoperator is not None
    _check_pairing(case)
    _check_textbook_form(case)


@pytest.mark.bit_identity
@PROPERTY
@given(st.data())
def test_a_validated_state_is_its_input_made_bitwise_hermitian(data):
    # a random full-rank state, then an anti-Hermitian part of trace zero whose
    # Frobenius norm is a drawn fraction of STATE_TOL, relative, which
    # from_matrix accepts; it stores the Hermitian part, a new array
    d = 2 ** data.draw(st.integers(1, 3))
    w = _complex(data.draw, d)
    w = w @ w.conj().T + np.eye(d)
    rho = 0.5 * (w + w.conj().T) / np.trace(w).real
    skew = _complex(data.draw, d)
    skew = skew - skew.conj().T
    skew[np.diag_indices(d)] -= np.trace(skew) / d
    size = _norm(skew)
    m = rho if size == 0.0 else rho + (data.draw(st.floats(0.0, 0.99)) * STATE_TOL * _norm(rho) / (2.0 * size)) * skew
    for given in (rho, m):
        stored = DensityOperator.from_matrix(given).matrix
        assert np.array_equal(stored, stored.conj().T) and not np.shares_memory(stored, given)
        assert _norm(stored - given) <= STATE_TOL * _norm(given)
    assert np.array_equal(DensityOperator.from_matrix(rho).matrix, rho)


def _packed_matrix(s):
    """The real matrix of r -> pack(S vec(unpack(r))) for a dense complex d^2 x d^2 S: column b
    of unpack(I) has at most two entries, 1, i or -i, so S times it adds at most two exact terms."""
    d = int(round(np.sqrt(s.shape[0])))
    pack = packing(d)
    unpacked = pack.unpack(np.eye(d * d)).reshape(d * d, d * d).T  # column b is vec(unpack(e_b))
    return pack.pack(np.ascontiguousarray((s @ unpacked).T).reshape(d * d, d, d)).T


@pytest.mark.bit_identity
@PROPERTY
@given(cases(linear=True))
def test_direct_kernel_writes_the_bits_of_the_sparse_product(case):
    # the compiled generator calls scipy's private CSR kernels straight into the
    # caller's buffer; on packed operands its results must stay bit-equal to
    # scipy's public product csr_array(table) @ r for L's, L^dag's and each S_k's
    # packed map, and a matrix operand is packed, applied and unpacked
    model, t, x, rho, lam, _ = case
    compiled, pack = model.superoperator, packing(model.dimension)
    forward, adjoint = (_csr(table) for table in compiled._tables(x)[1:])
    r, q = pack.pack(rho), pack.pack(lam)
    out = np.full(r.shape, np.nan)
    assert lindblad_rhs(t, r, model, x, out=out) is out
    assert np.array_equal(out, forward @ r)
    assert np.array_equal(lindblad_rhs(t, rho, model, x), pack.unpack(forward @ r))
    assert np.array_equal(lindblad_rhs(t, np.ascontiguousarray(rho.T).T, model, x), pack.unpack(forward @ r))
    out = np.full(q.shape, np.nan)
    assert adjoint_liouvillian_apply(model, x, t, q, out=out) is out
    assert np.array_equal(out, adjoint @ q)
    stacked, size = _csr(compiled._derivative_maps), r.size
    for k in range(model.n_params):
        assert np.array_equal(rhs_parameter_derivative(t, r, model, x, k), stacked[k * size : (k + 1) * size] @ r)
    # the reverse pass's pairing: one kernel call over the stacked maps of the S_k
    stages = np.stack([r, q, 2.0 * r])
    products = np.empty((model.n_params * size, len(stages)))
    weighted = np.ascontiguousarray((stages[::-1] * pack.weights).T)
    got = compiled.pairings(np.ascontiguousarray(stages.T), weighted, products)
    expect = [
        sum(np.vdot(pack.unpack(v), rhs_parameter_derivative(t, pack.unpack(y), model, x, k)).real
            for y, v in zip(stages, stages[::-1]))
        for k in range(model.n_params)
    ]
    assert np.allclose(got, expect, rtol=1e-13, atol=1e-13 * max(1.0, np.max(np.abs(expect), initial=0.0)))


@pytest.mark.bit_identity
@PROPERTY
@given(cases(linear=True))
def test_packed_maps_are_pack_s_unpack(case):
    # the real map of L is pack(S(x) unpack(r)) entry for entry, that of L^dag
    # pack(S(x)^H unpack(r)), and that of each S_k pack(S_k unpack(r)); and S(x)
    # is the entrywise sum of its parts in part order
    model, _, x, _, _, _ = case
    compiled = model.superoperator
    s = compiled.base.toarray()
    for xk, part in zip(x, compiled.derivatives):
        s = s + xk * part.toarray()
    forward, adjoint = (_csr(table).toarray() for table in compiled._tables(x)[1:])
    assert np.array_equal(forward, _packed_matrix(s))
    assert np.array_equal(adjoint, _packed_matrix(s.conj().T))
    stacked, size = _csr(compiled._derivative_maps).toarray(), compiled.base.shape[0]
    for k, part in enumerate(compiled.derivatives):
        assert np.array_equal(stacked[k * size : (k + 1) * size], _packed_matrix(part.toarray()))


@pytest.mark.bit_identity
@PROPERTY
@given(st.one_of(cases(), cases(linear=True), local_cases().map(lambda drawn: drawn[0])))
def test_generator_output_is_bitwise_hermitian_and_matches_textbook_form(case):
    # both kernels return L(rho) on a Hermitian matrix rho as a packed result
    # unpacked: a bitwise Hermitian matrix, within rounding of the anticommutator form
    model, t, x, rho, _, scale = case
    out = lindblad_rhs(t, rho, model, x)
    assert np.array_equal(out, out.conj().T)
    h = to_dense(model.hamiltonian.evaluate(t, x))
    reference = lindblad_reference(h, [(ch.rate, to_dense(ch.operator)) for ch in model.channels], rho)
    assert _norm(out - reference) <= 1e-12 * scale * _norm(rho)


def _sandwich_models(model):
    """The sandwich-kernel models of a case: itself for a callable schedule; for
    a linear one, the model built above COMPILE_MAX_NNZ and its callable twin."""
    sched = model.hamiltonian
    if not isinstance(sched, LinearSchedule):
        return [model]
    with mock.patch.object(model_module, "COMPILE_MAX_NNZ", -1):  # an all-zero draw counts 0 entries
        capped = LindbladModel(hamiltonian=sched, channels=model.channels, dimension=model.dimension)
        assert capped.superoperator is None
    twin = HamiltonianSchedule(
        evaluate=sched.evaluate, n_params=sched.n_params, derivative=lambda t, x, k: sched.terms[k]
    )
    return [capped, LindbladModel(hamiltonian=twin, channels=model.channels, dimension=model.dimension)]


@pytest.mark.bit_identity
@PROPERTY
@given(st.one_of(cases(), cases(linear=True), local_cases().map(lambda drawn: drawn[0])))
def test_sandwich_adjoint_and_parameter_derivative_are_bitwise_hermitian(case):
    # on Hermitian operands the sandwich kernel returns L^dag(lam) and
    # dL/dx_k(rho) as M + M^H, as it returns L: bitwise Hermitian, within
    # rounding of the anticommutator form and of -i [dH/dx_k, rho]
    model, t, x, rho, lam, scale = case
    h = to_dense(model.hamiltonian.evaluate(t, x))
    reference = lindblad_reference(h, [(ch.rate, to_dense(ch.operator)) for ch in model.channels], lam, adjoint=True)
    for sandwich in _sandwich_models(model):
        adjoint = adjoint_liouvillian_apply(sandwich, x, t, lam)
        assert np.array_equal(adjoint, adjoint.conj().T)
        assert _norm(adjoint - reference) <= 1e-12 * scale * _norm(lam)
        for k in range(model.n_params):
            dh = to_dense(model.hamiltonian.param_derivative(t, x, k))
            derivative = rhs_parameter_derivative(t, rho, sandwich, x, k)
            assert np.array_equal(derivative, derivative.conj().T)
            assert _norm(derivative + 1j * (dh @ rho - rho @ dh)) <= 1e-12 * 2.0 * _norm(dh) * _norm(rho)


@PROPERTY
@given(st.one_of(cases(), cases(linear=True), local_cases().map(lambda drawn: drawn[0])))
def test_packed_generator_matches_textbook_form_and_weighted_pairing(case):
    # on packed operands, the form the integrator steps on, L and L^dag (both
    # kernels: a callable schedule takes the sandwich) are the anticommutator
    # forms, and the packed weights make sum(w q L(r)) the pairing Tr(lam^H L(rho))
    model, t, x, rho, lam, scale = case
    pack = packing(model.dimension)
    r, q = pack.pack(rho), pack.pack(lam)
    h = to_dense(model.hamiltonian.evaluate(t, x))
    channels = [(ch.rate, to_dense(ch.operator)) for ch in model.channels]
    forward, backward = lindblad_rhs(t, r, model, x), adjoint_liouvillian_apply(model, x, t, q)
    assert _norm(pack.unpack(forward) - lindblad_reference(h, channels, rho)) <= 1e-12 * scale * _norm(rho)
    reference = lindblad_reference(h, channels, lam, adjoint=True)
    assert _norm(pack.unpack(backward) - reference) <= 1e-12 * scale * _norm(lam)
    weighted = (np.dot(pack.weights * q, forward), np.dot(pack.weights * backward, r))
    assert abs(weighted[0] - weighted[1]) <= 1e-12 * scale * _norm(lam) * _norm(rho)
    assert abs(weighted[0] - np.vdot(lam, pack.unpack(forward)).real) <= 1e-12 * scale * _norm(lam) * _norm(rho)


@PROPERTY
@given(cases())
def test_generator_and_adjoint_match_textbook_form(case):
    _check_textbook_form(case)


@PROPERTY
@given(local_cases())
def test_local_channels_match_textbook_form_and_pairing(drawn):
    case, n_local = drawn
    # a dense draw may happen to be local too
    assert sum(ch.local is not None for ch in case[0].channels) >= n_local
    _check_textbook_form(case)
    _check_pairing(case)


@st.composite
def pairing_cases(draw):
    """(schedule, x, lam, Y): a random 1-3 qubit LinearSchedule with one to three
    dense or sparse parameter terms and maybe a constant term, a Hermitian
    cotangent and a Hermitian stack of one step's s stage states."""
    d = 2 ** draw(st.integers(1, 3))
    wrap = as_sparse if draw(st.booleans()) else (lambda m: m)
    terms = tuple(wrap(_hermitian(draw, d)) for _ in range(draw(st.integers(1, 3))))
    constant = wrap(_hermitian(draw, d)) if draw(st.booleans()) else None
    x = np.array([draw(_ENTRY) for _ in terms])
    stages = np.stack([_hermitian(draw, d) for _ in DOP853.c])
    return LinearSchedule(terms=terms, constant=constant), x, _hermitian(draw, d), stages


@PROPERTY
@given(pairing_cases())
def test_hamiltonian_form_pairing_matches_the_parameter_derivative(drawn):
    # the reverse step's packed pairing, one kernel call over the maps of the S_k
    # on a compiled model and a product per stage and parameter on the sandwich
    # kernel, is sum_i Re Tr(v_i^H dL/dx_k(t_i) Y_i) on the unpacked matrices;
    # the callable twin's dH/dx_k depends on t
    schedule, x, lam, stages = drawn
    pack = packing(lam.shape[0])
    lam, stages = pack.pack(lam), pack.pack(stages)
    d, p, t_n, h = pack.d, schedule.n_params, 0.3, 0.7
    times = [t_n + c * h for c in DOP853.c]
    with mock.patch.object(model_module, "COMPILE_MAX_NNZ", -1):  # an all-zero draw counts 0 entries
        capped = LindbladModel(hamiltonian=schedule, channels=(), dimension=d)
        assert capped.superoperator is None
    compiled = LindbladModel(hamiltonian=schedule, channels=(), dimension=d)
    assert compiled.superoperator is not None
    twin = HamiltonianSchedule(
        evaluate=schedule.evaluate, n_params=p, derivative=lambda t, x, k: (1.0 + t) ** (k + 1) * schedule.terms[k]
    )
    timed = LindbladModel(hamiltonian=twin, channels=(), dimension=d)
    for model in (compiled, capped, timed):
        work, got = _ReverseWork(d, model.superoperator is not None, p), np.zeros(p)
        _reverse_step(model, x, t_n, stages[0], h, lam, got, _CountedRhs(model, x), work, stages)
        ys, vs = pack.unpack(stages), pack.unpack(work.vs)
        for k in range(p):
            terms = [rhs_parameter_derivative(t, y, model, x, k) for t, y in zip(times, ys)]
            expect = sum(np.vdot(v, term).real for v, term in zip(vs, terms))
            bound = sum(
                2.0 * _norm(model.hamiltonian.param_derivative(t, x, k)) * _norm(y) * _norm(v)
                for t, y, v in zip(times, ys, vs)
            )
            assert abs(got[k] - expect) <= 1e-13 * bound


@st.composite
def clustered_spectra(draw):
    """(decomposition, planted cluster sizes, B): a Hermitian matrix with exactly
    repeated eigenvalues, and eigenbasis coordinates B of a random cotangent."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    centers = draw(st.lists(st.integers(-10, 10), min_size=len(sizes), max_size=len(sizes), unique=True))
    d = sum(sizes)
    # Householder QR returns a unitary factor even for a singular draw
    u = np.linalg.qr(_complex(draw, d))[0]
    order = np.argsort(centers)
    lam = np.concatenate([np.full(sizes[c], 0.1 * centers[c]) for c in order])
    decomp = eigh(u @ np.diag(lam) @ u.conj().T)
    return decomp, [sizes[c] for c in order], _complex(draw, d)


def _cluster_hermitian(decomp, b):
    """b with every within-cluster block replaced by its Hermitian part (no gauge component)."""
    b = b.copy()
    for cl in decomp.clusters:
        idx = np.ix_(cl, cl)
        b[idx] = 0.5 * (b[idx] + b[idx].conj().T)
    return b


@PROPERTY
@given(clustered_spectra(), st.data())
def test_eig_vjp_is_hermitian_on_planted_clusters(spectrum, data):
    decomp, sizes, b = spectrum
    assert [len(cl) for cl in decomp.clusters] == sizes
    d = decomp.dimension
    values = data.draw(arrays(np.float64, (d,), elements=_ENTRY))
    out = eig_vjp(decomp, values, decomp.eigenvectors @ _cluster_hermitian(decomp, b))
    assert np.all(np.isfinite(out))
    assert np.array_equal(out, out.conj().T)


@PROPERTY
@given(clustered_spectra(), st.data())
def test_eig_vjp_rejects_planted_gauge_component(spectrum, data):
    decomp, _, b = spectrum
    cl = data.draw(st.sampled_from(decomp.clusters))
    m = 0.25 * _complex(data.draw, len(cl))
    # i*I keeps the planted anti-Hermitian block away from zero
    anti = 0.5 * (m - m.conj().T) + 1j * np.eye(len(cl))
    b = _cluster_hermitian(decomp, b)
    b[np.ix_(cl, cl)] += anti
    with pytest.raises(GaugeDependenceError):
        eig_vjp(decomp, vector_cotangent=decomp.eigenvectors @ b)


# Gradients against the exact Van Loan oracle.  An error is measured on the
# scale |<O, tau>| <= |O|_F max_k |tau_k|_F of a pairing of the cotangent O
# with the exact tangents tau_k, and must stay below half the solver rtol
# (atol = rtol / 100).  Over 200 derandomized draws the worst was 0.035 rtol
# (QFI), 0.017 rtol (observable cost), 0.013 rtol (adjoint against forward)
# and 0.08 rtol (forward tangents), so the bound has a margin of at least 6x;
# a broken adjoint is off by a sizeable fraction of that scale.
GRADIENT_BOUND = 0.5
ORACLE = settings(PROPERTY, max_examples=30)
RTOLS = pytest.mark.parametrize("rtol", [1e-6, 1e-8, 1e-10])


@st.composite
def solve_cases(draw):
    """(model, x, rho0, t_span, O): a random linear model from
    cases(linear=True), a full-rank initial state and a random observable O."""
    model, t, x, a, obs, _ = draw(cases(linear=True))
    d = model.dimension
    rho0 = a @ a.conj().T + np.diag(np.arange(1.0, d + 1))  # distinct eigenvalues even for a = 0
    rho0 = rho0 / np.trace(rho0).real
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    return model, x, rho0, (0.0, 0.5 + 0.5 * t), obs


@st.composite
def oracle_cases(draw):
    """(model, x, rho0, t_span, O, exact): a solve_cases draw with one or two
    parameters, and the oracle's exact rho(T) and tangents."""
    model, x, rho0, t_span, obs = draw(solve_cases())
    assume(model.n_params > 0)
    schedule = model.hamiltonian
    exact = block_exp_tangent(
        to_dense(schedule.evaluate(0.0, x)),
        [to_dense(term) for term in schedule.terms],
        [(ch.rate, to_dense(ch.operator)) for ch in model.channels],
        rho0,
        t_span[1],
    ).value
    return model, x, rho0, t_span, obs, exact


def _paired(cot, tangents):
    """(Re <cot, tau_k> for each k, |cot|_F max_k |tau_k|_F): the gradient and its scale."""
    scale = _norm(cot) * max(_norm(tau) for tau in tangents)
    return np.array([np.vdot(cot, tau).real for tau in tangents]), max(scale, 1e-300)


@RTOLS
@ORACLE
@given(drawn=oracle_cases())
def test_adjoint_gradient_matches_block_exponential_oracle(rtol, drawn):
    model, x, rho0, t_span, obs, exact = drawn
    result = integrate(model, x, rho0, t_span, SolveConfig(rtol=rtol, atol=rtol / 100))
    got = adjoint_gradient(result, observable_cost(obs)).dc_dx
    expect, scale = _paired(obs.conj().T, exact["tangents"])  # d Re Tr(rho O) = Re <O^dag, d rho>
    assert np.max(np.abs(got - expect)) <= GRADIENT_BOUND * rtol * scale


@RTOLS
@ORACLE
@given(drawn=oracle_cases())
def test_qfi_gradient_matches_exact_cotangent_and_tangents(rtol, drawn):
    model, x, rho0, t_span, obs, exact = drawn
    g = Generator(0.5 * (obs + obs.conj().T))
    rep = qfi_of_params(model, x, rho0, t_span, g, SolveConfig(rtol=rtol, atol=rtol / 100), want_gradient=True)
    rho_t = 0.5 * (exact["rho"] + exact["rho"].conj().T)
    expect, scale = _paired(qfi_rho_cotangent(eigh(rho_t), g), exact["tangents"])
    assert np.max(np.abs(rep.gradient - expect)) <= GRADIENT_BOUND * rtol * scale


@RTOLS
@ORACLE
@given(drawn=oracle_cases())
def test_adjoint_gradient_agrees_with_forward_tangents(rtol, drawn):
    model, x, rho0, t_span, obs, exact = drawn
    cfg = SolveConfig(rtol=rtol, atol=rtol / 100)
    _, tangents = forward_sensitivity(model, x, rho0, t_span, cfg)
    tangent_scale = max(np.max(np.abs(exact["tangents"])), 1e-300)
    assert np.max(np.abs(tangents - exact["tangents"])) <= GRADIENT_BOUND * rtol * tangent_scale
    forward, scale = _paired(obs.conj().T, tangents)
    got = adjoint_gradient(integrate(model, x, rho0, t_span, cfg), observable_cost(obs)).dc_dx
    assert np.max(np.abs(got - forward)) <= GRADIENT_BOUND * rtol * scale


# A differentiated solve keeps its leading steps' stage states, and the
# reverse step reads them instead of recomputing them; the forward step and
# the recompute form a stage state with the same row product, so the
# gradient must not change by a single bit.


def _check_kept_stages_are_bit_exact(model, x, rho0, t_span, cfg, cost):
    plain = integrate(model, x, rho0, t_span, cfg)
    kept = integrate(model, x, rho0, t_span, cfg, keep_stages=True)
    assert plain.step_stages == ()
    n = len(kept.step_stages)
    s = len(DOP853.c)
    assert all(a.shape == (s, *rho0.shape) for a in kept.step_stages) and n >= 1
    with pytest.raises(ValueError, match="read-only"):
        kept.step_stages[0][0, 0, 0] = 0.0
    want, got = adjoint_gradient(plain, cost), adjoint_gradient(kept, cost)
    assert np.array_equal(got.dc_dx, want.dc_dx)
    assert np.array_equal(got.dc_drho0, want.dc_drho0)
    assert got.dc_dT == want.dc_dT
    assert want.diagnostics["kept_stage_steps"] == 0
    assert got.diagnostics["kept_stage_steps"] == n
    steps = kept.stats.accepted
    assert want.diagnostics["adjoint_rhs_evaluations"] == (s - 1) * steps
    assert got.diagnostics["adjoint_rhs_evaluations"] == (s - 1) * (steps - n)
    return got


@pytest.mark.bit_identity
@settings(PROPERTY, max_examples=30)
@given(drawn=solve_cases())
def test_kept_slopes_give_the_recomputed_gradient_bit_for_bit(drawn):
    model, x, rho0, t_span, obs = drawn
    cfg = SolveConfig(rtol=1e-8, atol=1e-10)
    accepted = integrate(model, x, rho0, t_span, cfg).stats.accepted
    # a budget with room for every step's stack (s states each) beside a
    # checkpoint at every step, so every reverse step reads kept stage states
    roomy = SolveConfig(rtol=1e-8, atol=1e-10, checkpoints=(len(DOP853.c) + 1) * accepted + 2)
    got = _check_kept_stages_are_bit_exact(model, x, rho0, t_span, roomy, observable_cost(obs))
    assert got.diagnostics["kept_stage_steps"] == accepted
    assert got.diagnostics["adjoint_rhs_evaluations"] == 0


@pytest.mark.parametrize("checkpoints", [None, 40])
@pytest.mark.bit_identity
def test_kept_slopes_are_bit_exact_on_a_time_dependent_sandwich_model(checkpoints):
    # a callable schedule runs the sandwich kernel, and its time dependence
    # makes every stage time count: a kept step's stage states were formed
    # from the previous step's FSAL slope, evaluated at that step's end time
    sz, sx = collective_sz(2), collective_sx(2)

    def evaluate(t, x):
        return x[0] * np.cos(2.0 * t) * sz + x[1] * sx

    def derivative(t, x, k):
        return np.cos(2.0 * t) * sz if k == 0 else sx

    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    channels = tuple(JumpChannel(rate=0.2, operator=embed_single(lower, i, 2)) for i in range(2))
    model = LindbladModel(
        hamiltonian=HamiltonianSchedule(evaluate=evaluate, n_params=2, derivative=derivative),
        channels=channels,
        dimension=4,
    )
    assert model.superoperator is None
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    cost = observable_cost(sx + 0.5 * sz)
    cfg = SolveConfig(checkpoints=checkpoints)
    got = _check_kept_stages_are_bit_exact(model, np.array([0.9, 0.7]), rho0, (0.0, 3.0), cfg, cost)
    kept, steps = got.diagnostics["kept_stage_steps"], got.diagnostics["steps_replayed"]
    # the default budget keeps every step; 40 states keep a leading few
    assert kept == steps if checkpoints is None else 0 < kept < steps
