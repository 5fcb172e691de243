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

from oracles import block_exp_tangent, lindblad_reference
from lindbladiff.eigen import eig_vjp, eigh
from lindbladiff.errors import GaugeDependenceError
from lindbladiff.linalg import to_dense
from lindbladiff import model as model_module
from lindbladiff.model import (
    HamiltonianSchedule,
    JumpChannel,
    LindbladModel,
    LinearSchedule,
    lindblad_rhs,
    rhs_parameter_derivative,
)
from lindbladiff.qfi import Generator, qfi_of_params, qfi_rho_cotangent
from lindbladiff.sensitivity import adjoint_gradient, adjoint_liouvillian_apply, forward_sensitivity, observable_cost
from lindbladiff.solver import SolveConfig, integrate
from lindbladiff.spins import as_sparse, embed_single

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
    zero to two parameters and random x (the compiled superoperator).
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
    return model, t, x, _complex(draw, d), _complex(draw, d), scale


# rate 0 exercises the skipped-channel branch
_RATE = st.sampled_from([0.0, 0.3, 1.0, 2.0])


@st.composite
def cases(draw, linear=False):
    """A random 1-3 qubit model with dense, non-Hermitian jump operators."""
    d = 2 ** draw(st.integers(1, 3))
    n_channels = draw(st.integers(0, 3))
    rates = [draw(_RATE) for _ in range(n_channels)]
    return _case(draw, d, rates, [_complex(draw, d) for _ in range(n_channels)], linear=linear)


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
def state_stacks(draw):
    """(schedule, x, times, stack): a random 1-3 qubit LinearSchedule with one
    or two parameter terms, and a stack of 1-4 states with a time each."""
    d = 2 ** draw(st.integers(1, 3))
    wrap = as_sparse if draw(st.booleans()) else (lambda m: m)
    terms = tuple(wrap(_hermitian(draw, d)) for _ in range(draw(st.integers(1, 2))))
    constant = wrap(_hermitian(draw, d)) if draw(st.booleans()) else None
    x = np.array([draw(_ENTRY) for _ in terms])
    m = draw(st.integers(1, 4))
    times = [draw(st.floats(0.0, 1.0)) for _ in range(m)]
    return LinearSchedule(terms=terms, constant=constant), x, times, np.stack([_complex(draw, d) for _ in range(m)])


@PROPERTY
@given(state_stacks())
def test_parameter_derivative_of_a_stack_matches_per_state_calls(drawn):
    # one SpMM for the whole stack (compiled) or a sandwich per state gives
    # the per-state results, stacked
    schedule, x, times, stack = drawn
    d = stack.shape[1]
    with mock.patch.object(model_module, "COMPILE_MAX_NNZ", -1):  # an all-zero draw counts 0 entries
        capped = LindbladModel(hamiltonian=schedule, channels=(), dimension=d)
        assert capped.superoperator is None
    compiled = LindbladModel(hamiltonian=schedule, channels=(), dimension=d)
    assert compiled.superoperator is not None
    for model in (compiled, capped):
        for k, term in enumerate(schedule.terms):
            got = rhs_parameter_derivative(times, stack, model, x, k)
            expect = np.stack([rhs_parameter_derivative(t, y, model, x, k) for t, y in zip(times, stack)])
            assert got.shape == stack.shape
            assert _norm(got - expect) <= 1e-14 * 2.0 * _norm(term) * _norm(stack)


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
def oracle_cases(draw):
    """(model, x, rho0, t_span, O, exact): a random linear model from
    cases(linear=True) with one or two parameters, a full-rank initial state,
    a random observable O, and the oracle's exact rho(T) and tangents."""
    model, t, x, a, obs, _ = draw(cases(linear=True))
    assume(model.n_params > 0)
    d = model.dimension
    rho0 = a @ a.conj().T + np.diag(np.arange(1.0, d + 1))  # distinct eigenvalues even for a = 0
    rho0 = rho0 / np.trace(rho0).real
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    t_span = (0.0, 0.5 + 0.5 * t)
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
