"""Forward-tangent and reverse-adjoint gradients through the integrator."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse

from oracles import fd_gradient, random_density, random_hermitian
from twins import dense_twin
from lindbladiff.errors import CostGradientError, ValidationError
from lindbladiff import model as model_module
from lindbladiff import sensitivity
from lindbladiff import solver as solver_module
from lindbladiff.instrumentation import counters
from lindbladiff.linalg import packing
from lindbladiff.model import (
    DensityOperator,
    HamiltonianSchedule,
    LindbladModel,
    all_zero_density,
    lindblad_rhs,
    preset_oat,
    rhs_parameter_derivative,
)
from lindbladiff.sensitivity import (
    _pair,
    _ReverseWork,
    _reverse_step,
    CostCofunction,
    GradientResult,
    adjoint_gradient,
    adjoint_liouvillian_apply,
    complexify,
    forward_sensitivity,
    observable_cost,
    realify,
    state_entry_re_cost,
)
from lindbladiff.solver import (
    DOP853,
    SolveConfig,
    _CountedRhs,
    _StageWork,
    _scratch_rows,
    dense_segment,
    integrate,
    rk_stages,
)
from lindbladiff.spins import PAULI_Z, collective_sx

class _GrowthOutsideKernels:
    """Traced-memory growth over each call of a measured function, leaving out what the
    generator applications inside it allocate for themselves: the peak is read before each
    application at the given bindings and reset after it.  Call within tracemalloc.  Only
    the largest growth is kept, so the record itself allocates nothing that grows."""

    def __init__(self, monkeypatch, bindings):
        self.start = self.peak = self.calls = 0
        for module, name in bindings:
            monkeypatch.setattr(module, name, self._excluded(getattr(module, name)))

    def _note(self):
        self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - self.start)

    def _excluded(self, raw):
        def wrapped(*args, **kwargs):
            self._note()
            result = raw(*args, **kwargs)
            tracemalloc.reset_peak()
            return result

        return wrapped

    def measured(self, raw):
        def wrapped(*args, **kwargs):
            self.start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = raw(*args, **kwargs)
            self._note()
            self.calls += 1
            return result

        return wrapped


PLUS = DensityOperator.from_matrix(0.5 * np.array([[1, 1], [1, 1]], dtype=complex))
TIGHT = SolveConfig(rtol=1e-10, atol=1e-12)


def _phase_model():
    def evaluate(t, x):
        return x[0] * 0.5 * PAULI_Z

    def derivative(t, x, k):
        return 0.5 * PAULI_Z

    return LindbladModel(
        hamiltonian=HamiltonianSchedule(evaluate=evaluate, n_params=1, derivative=derivative),
        channels=(),
        dimension=2,
    )


class TestRealification:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 4)
        v = realify(rho)
        assert v.dtype == np.float64 and v.shape == (32,)
        assert np.array_equal(complexify(v), rho)

    def test_layout_real_then_imag_row_major(self):
        rho = np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])
        v = realify(rho)
        assert np.array_equal(v[:4], [1, 3, 5, 7])
        assert np.array_equal(v[4:], [2, 4, 6, 8])

    def test_complexify_rejects_odd_length(self):
        with pytest.raises(ValidationError):
            complexify(np.zeros(7))

    @pytest.mark.parametrize(
        "convert, value, message",
        [(realify, np.zeros((2, 3)), "square"), (complexify, np.zeros(6), r"2\*d\^2")],
    )
    def test_shapes_that_have_no_realified_form_are_rejected(self, convert, value, message):
        with pytest.raises(ValidationError, match=message):
            convert(value)


class TestCosts:
    def test_gradient_blocks_must_have_the_state_s_shape(self):
        cost = CostCofunction(evaluate=lambda rho: 0.0, gradient=lambda rho: (np.zeros((2, 2)), np.zeros((3, 3))))
        with pytest.raises(ValidationError, match="cost gradient blocks"):
            cost.cotangent(np.eye(2, dtype=complex))

    def test_state_entry_cost_and_verify(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 2)
        cost = state_entry_re_cost(0, 1)
        assert cost.evaluate(rho) == rho[0, 1].real
        cost.verify(rho)  # passes silently

    def test_observable_cost_value_and_gradient(self):
        rng = np.random.default_rng(4)
        a = random_hermitian(rng, 4)
        rho = random_density(rng, 4)
        cost = observable_cost(a)
        assert cost.evaluate(rho) == pytest.approx(float(np.trace(a @ rho).real), abs=1e-14)
        cost.verify(rho)

    def test_broken_gradient_rule_is_rejected(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 2)
        good = state_entry_re_cost(0, 1)
        bad = CostCofunction(
            evaluate=good.evaluate,
            gradient=lambda r: tuple(2.0 * g for g in good.gradient(r)),
            name="doubled",
        )
        with pytest.raises(CostGradientError):
            bad.verify(rho)

    @pytest.mark.parametrize(
        "block",
        [
            lambda a: a + 1j * np.eye(4),  # its imaginary part would be dropped with a ComplexWarning
            lambda a: a.real > 2.0,
            lambda a: a.real.astype(str),
            lambda a: a.real.astype(object),
        ],
        ids=["complex", "bool", "string", "object"],
    )
    def test_gradient_blocks_must_hold_real_numbers(self, block):
        # each block follows the rule x does: int or float entries, nothing that a cast to float
        # would quietly truncate or parse; adjoint_gradient and verify read them through cotangent
        a = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        base = observable_cost(a)
        cost = CostCofunction(base.evaluate, lambda rho: (block(a), np.zeros((4, 4))), "bad block")
        res = integrate(preset_oat(2, 0.1), np.array([0.8, 0.6]), all_zero_density(2), (0.0, 1.0))
        rho = res.final_state.matrix
        for call in (lambda: cost.cotangent(rho), lambda: adjoint_gradient(res, cost), lambda: cost.verify(rho)):
            with pytest.raises(ValidationError, match="dc/d\\(Re rho\\) must hold real numbers"):
                call()
        swapped = CostCofunction(base.evaluate, lambda rho: (a.real, block(a)), "bad block")
        with pytest.raises(ValidationError, match="dc/d\\(Im rho\\)"):
            swapped.cotangent(rho)

    def test_cotangent_is_linear_packing(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 2)
        cost = state_entry_re_cost(1, 0)
        cot = cost.cotangent(rho)
        re, im = cost.gradient(rho)
        packed = re + 1j * im
        assert np.array_equal(cot, 0.5 * (packed + packed.conj().T))


class TestAdjointLiouvillian:
    def test_hilbert_schmidt_pairing(self):
        rng = np.random.default_rng(7)
        model = preset_oat(2, gamma=0.35)
        x = np.array([0.7, 0.4])
        rho = random_density(rng, 4)
        lam = random_hermitian(rng, 4)  # L^dag takes Hermitian cotangents, as every one the library forms is
        forward = np.sum(lam.conj() * lindblad_rhs(0.2, rho, model, x)).real
        backward = np.sum(adjoint_liouvillian_apply(model, x, 0.2, lam).conj() * rho).real
        assert forward == pytest.approx(backward, rel=1e-12, abs=1e-14)

    def test_identity_is_in_kernel(self):
        model = preset_oat(2, gamma=0.5)
        out = adjoint_liouvillian_apply(model, np.array([1.0, 1.0]), 0.0, np.eye(4, dtype=complex))
        assert np.max(np.abs(out)) < 1e-14


class TestForwardSensitivity:
    def test_tangent_matches_fd_of_trajectory(self):
        model = preset_oat(2, gamma=0.1)
        x = np.array([0.8, 0.5])
        rho0 = all_zero_density(2)
        _, tangents = forward_sensitivity(model, x, rho0, (0.0, 1.0), TIGHT)
        assert tangents.shape == (2, 4, 4)
        h = 1e-6
        for k, sigma in enumerate(tangents):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            rp = integrate(model, xp, rho0, (0.0, 1.0), TIGHT).final_state.matrix
            rm = integrate(model, xm, rho0, (0.0, 1.0), TIGHT).final_state.matrix
            assert np.max(np.abs(sigma - (rp - rm) / (2 * h))) < 1e-6

    def test_zero_parameter_dependence_gives_zero_tangent(self):
        h0 = 0.5 * PAULI_Z

        def evaluate(t, x):
            return h0  # independent of x

        model = LindbladModel(
            hamiltonian=HamiltonianSchedule(
                evaluate=evaluate, n_params=1, derivative=lambda t, x, k: np.zeros((2, 2))
            ),
            channels=(),
            dimension=2,
        )
        _, (sigma,) = forward_sensitivity(model, np.array([0.3]), PLUS, (0.0, 1.0), TIGHT)
        assert np.max(np.abs(sigma)) < 1e-12

    def test_counts_every_rhs_call(self, monkeypatch):
        # each stacked evaluation applies L p + 1 times: to the state and to
        # each of the p tangents
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return lindblad_rhs(*args)

        monkeypatch.setattr(sensitivity, "lindblad_rhs", counted)
        forward_sensitivity(preset_oat(2, 0.1), np.array([0.8, 0.6]), all_zero_density(2), (0.0, 1.0))
        assert calls > 0 and calls % 3 == 0
        assert counters.rhs_evaluations == calls

    def test_parameter_terms_share_one_scratch_state(self, monkeypatch):
        # dL/dx_k rho is written into one state the solve owns and added to
        # its tangent's slope from there, for every k and every evaluation,
        # with the bits of a fresh array per term
        targets = []

        def recorded(t, rho, model, x, k, out=None):
            targets.append(out)
            return rhs_parameter_derivative(t, rho, model, x, k, out)

        def fresh(t, rho, model, x, k, out=None):
            return rhs_parameter_derivative(t, rho, model, x, k)

        model, x, rho0 = preset_oat(2, 0.1), np.array([0.8, 0.6]), all_zero_density(2)
        monkeypatch.setattr(sensitivity, "rhs_parameter_derivative", fresh)
        plain = forward_sensitivity(model, x, rho0, (0.0, 1.0))
        monkeypatch.setattr(sensitivity, "rhs_parameter_derivative", recorded)
        rho, tangents = forward_sensitivity(model, x, rho0, (0.0, 1.0))
        assert len(targets) > 2 and targets[0] is not None
        assert all(out is targets[0] for out in targets)
        assert np.array_equal(rho.matrix, plain[0].matrix) and np.array_equal(tangents, plain[1])


class TestAdjointGradient:
    def test_phase_model_closed_form(self):
        # c = Re rho01(T) with rho01(t) = (1/2) e^{-i x0 t}: dc/dx0 = -(T/2) sin(x0 T)
        model = _phase_model()
        x0, t1 = 0.9, 1.0
        res = adjoint_gradient(integrate(model, np.array([x0]), PLUS, (0.0, t1), TIGHT), state_entry_re_cost(0, 1))
        expect = -0.5 * t1 * np.sin(x0 * t1)
        assert res.dc_dx[0] == pytest.approx(expect, rel=1e-8)

    def test_dc_dT_matches_closed_form(self):
        model = _phase_model()
        x0, t1 = 0.9, 1.0
        res = adjoint_gradient(integrate(model, np.array([x0]), PLUS, (0.0, t1), TIGHT), state_entry_re_cost(0, 1))
        expect = -0.5 * x0 * np.sin(x0 * t1)
        assert res.dc_dT == pytest.approx(expect, rel=1e-8)

    def test_triad_agreement_on_dissipative_model(self):
        model = preset_oat(2, gamma=0.2)
        x = np.array([0.7, 0.9])
        rho0 = all_zero_density(2)
        a = random_hermitian(np.random.default_rng(8), 4)
        cost = observable_cost(a)
        adj = adjoint_gradient(integrate(model, x, rho0, (0.0, 1.0), TIGHT), cost).dc_dx

        cot = cost.cotangent(integrate(model, x, rho0, (0.0, 1.0), TIGHT).final_state.matrix)
        _, tangents = forward_sensitivity(model, x, rho0, (0.0, 1.0), TIGHT)
        fwd = np.array([np.sum(cot.conj() * sigma).real for sigma in tangents])

        def f(xv):
            rho_t = integrate(model, xv, rho0, (0.0, 1.0), TIGHT).final_state.matrix
            return cost.evaluate(rho_t)

        fd = fd_gradient(f, x, 1e-6).value
        assert np.max(np.abs(adj - fwd)) < 1e-6 * max(1.0, np.max(np.abs(adj)))
        assert np.max(np.abs(adj - fd)) < 1e-4 * max(1.0, np.max(np.abs(adj)))

    @pytest.mark.bit_identity
    def test_checkpoint_count_invariance_is_bitwise(self, monkeypatch):
        # on both kernels: the compiled pairing's one kernel call and the
        # sandwich kernel's per-stage products read the same stage states
        # whether they were kept, taped or recomputed
        x = np.array([1.0, 0.6])
        rho0 = all_zero_density(2)
        cost = state_entry_re_cost(0, 0)
        for kernel in ("compiled", "sandwich"):
            if kernel == "sandwich":
                monkeypatch.setattr(model_module, "COMPILE_MAX_NNZ", 0)
            model = preset_oat(2, gamma=0.1)
            assert (model.superoperator is None) == (kernel == "sandwich")
            grads = []
            for k in (2, 10, 50):
                cfg = SolveConfig(checkpoints=k)
                grads.append(adjoint_gradient(integrate(model, x, rho0, (0.0, 1.0), cfg), cost).dc_dx)
            assert np.array_equal(grads[0], grads[1])
            assert np.array_equal(grads[1], grads[2])

    @pytest.mark.bit_identity
    def test_checkpoint_count_invariance_is_bitwise_at_32_dimensions(self):
        # the drawn and small cases stop at d = 8; here the packed maps span 1024 coordinates
        model = preset_oat(5, gamma=0.1)
        assert model.superoperator is not None
        x = np.array([1.0, 0.6])
        rho0 = all_zero_density(5)
        cost = state_entry_re_cost(0, 0)
        grads = []
        for k in (2, 10, 50):
            cfg = SolveConfig(checkpoints=k)
            grads.append(adjoint_gradient(integrate(model, x, rho0, (0.0, 1.0), cfg), cost).dc_dx)
        assert np.array_equal(grads[0], grads[1])
        assert np.array_equal(grads[1], grads[2])

    def test_gradient_over_rejected_steps(self):
        # the trail of a solve with rejected steps holds the accepted steps
        # only; the adjoint over it matches the forward tangent and does not
        # depend on the checkpoint budget
        model = preset_oat(2, gamma=0.1)
        x = np.array([1.5, 1.2])
        rho0 = all_zero_density(2)
        cost = observable_cost(collective_sx(2))
        grads = []
        for k in (2, 3, 7, None):
            cfg = SolveConfig(initial_step=0.5, checkpoints=k)
            res = integrate(model, x, rho0, (0.0, 4.0), cfg)
            assert res.stats.rejected >= 2
            grads.append(adjoint_gradient(res, cost).dc_dx)
        for g in grads[1:]:
            assert np.array_equal(g, grads[0])
        cot = cost.cotangent(res.final_state.matrix)
        _, tangents = forward_sensitivity(model, x, rho0, (0.0, 4.0), SolveConfig(initial_step=0.5))
        fwd = np.array([_pair(cot, sigma) for sigma in tangents])
        assert np.max(np.abs(grads[0] - fwd)) < 1e-6 * max(1.0, np.max(np.abs(grads[0])))

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("kernel", ["compiled", "sandwich"])
    def test_transposed_entry_costs_give_one_gradient(self, kernel, monkeypatch):
        # Re rho[0, 1] and Re rho[1, 0] are one function of a Hermitian state,
        # so the Hermitian cotangent makes their gradients bit-equal
        if kernel == "sandwich":
            monkeypatch.setattr(model_module, "COMPILE_MAX_NNZ", 0)
        model = preset_oat(2, 0.3)
        assert (model.superoperator is None) == (kernel == "sandwich")
        res = integrate(model, np.array([0.8, 0.6]), all_zero_density(2), (0.0, 1.0), TIGHT)
        upper, lower = (adjoint_gradient(res, state_entry_re_cost(i, j)) for i, j in ((0, 1), (1, 0)))
        assert np.array_equal(upper.dc_dx, lower.dc_dx)
        assert np.array_equal(upper.dc_drho0, lower.dc_drho0)

    def test_initial_state_gradient_directional_fd(self):
        model = preset_oat(2, gamma=0.1)
        x = np.array([0.8, 0.5])
        rho0 = all_zero_density(2)
        cost = observable_cost(random_hermitian(np.random.default_rng(9), 4))
        res = adjoint_gradient(integrate(model, x, rho0, (0.0, 1.0), TIGHT), cost)
        lam0 = complexify(res.dc_drho0)
        # spectrum-safe probe: i[K, rho] is traceless and Hermitian and moves
        # the eigenvalues only at second order, so rho0 +/- h D stays a valid
        # state even though rho0 is pure
        rng = np.random.default_rng(10)
        k_op = random_hermitian(rng, 4)
        probe = 1j * (k_op @ rho0.matrix - rho0.matrix @ k_op)
        probe /= np.linalg.norm(probe)
        h = 1e-6

        def run(mat):
            return cost.evaluate(integrate(model, x, DensityOperator.from_matrix(mat), (0.0, 1.0), TIGHT).final_state.matrix)

        fd = (run(rho0.matrix + h * probe) - run(rho0.matrix - h * probe)) / (2 * h)
        analytic = np.sum(lam0.conj() * probe).real
        assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_result_arrays_are_read_only(self):
        # replay and the adjoint trust the result's arrays, so a write must
        # fail rather than silently change the gradient
        model = preset_oat(2, 0.1)
        cost = observable_cost(collective_sx(2))
        res = integrate(model, np.array([0.8, 0.6]), all_zero_density(2), (0.0, 1.0))
        before = adjoint_gradient(res, cost).dc_dx
        arrays = [res.x, res.step_times, res.step_sizes, res.final_state.matrix]
        arrays += [state for _, state in res.packed_checkpoints]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(1,) * a.ndim] = -0.6
        assert np.array_equal(adjoint_gradient(res, cost).dc_dx, before)

    def test_result_reuse_costs_one_forward_one_adjoint(self):
        model = preset_oat(2)
        x = np.array([0.6, 0.6])
        rho0 = all_zero_density(2)
        counters.reset()
        res = integrate(model, x, rho0, (0.0, 1.0))
        adjoint_gradient(res, state_entry_re_cost(0, 0))
        snap = counters.snapshot()
        assert snap["forward_integrations"] == 1
        assert snap["adjoint_passes"] == 1

    @staticmethod
    def _replayed_gradient(checkpoints, keep_stages=False):
        model = preset_oat(2, gamma=0.1)
        x = np.array([0.9, 0.6])
        rho0 = all_zero_density(2)
        cfg = SolveConfig(checkpoints=checkpoints)
        res = integrate(model, x, rho0, (0.0, 1.0), cfg, keep_stages=keep_stages)
        grad = adjoint_gradient(res, state_entry_re_cost(0, 0))
        assert grad.diagnostics["steps_replayed"] == res.stats.accepted
        return res, grad, counters.rhs_evaluations - res.stats.rhs_evaluations

    @pytest.mark.parametrize("checkpoints", [None, 4])
    def test_replay_skips_each_segments_last_step(self, checkpoints):
        # the state after a segment's last step is the stored next
        # checkpoint, so replay stops one step short of the segment end; a
        # replayed step costs s = 12 slopes
        res, grad, replay_rhs = self._replayed_gradient(checkpoints)
        s = len(DOP853.b)
        assert replay_rhs == s * (res.stats.accepted - grad.diagnostics["segments"])

    @pytest.mark.parametrize("kernel", ["compiled", "sandwich"])
    def test_adjoint_gradient_makes_no_parameter_derivative_call(self, kernel, monkeypatch):
        # the reverse step pairs all stages and parameters in one kernel call
        # over the stacked S_k maps (compiled) or one product dH/dx_k Y_i per
        # stage and parameter (sandwich), never one rhs_parameter_derivative
        # call per state
        if kernel == "sandwich":
            monkeypatch.setattr(model_module, "COMPILE_MAX_NNZ", 0)
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return rhs_parameter_derivative(*args)

        monkeypatch.setattr(sensitivity, "rhs_parameter_derivative", counted)
        monkeypatch.setattr(model_module, "rhs_parameter_derivative", counted)
        model = preset_oat(2, 0.1)
        assert (model.superoperator is None) == (kernel == "sandwich")
        res = integrate(model, np.array([0.9, 0.6]), all_zero_density(2), (0.0, 1.0), SolveConfig(checkpoints=4))
        grad = adjoint_gradient(res, state_entry_re_cost(0, 0))
        assert grad.diagnostics["steps_replayed"] > 0 and np.all(grad.dc_dx != 0)
        assert calls == 0

    def test_reverse_step_skips_the_last_stage_slope(self):
        # the reverse step needs the s stage states, and the last one depends
        # on the first s - 1 slopes only; with 4 checkpoints replay tapes every
        # step but each segment's last, so only those recompute; with every
        # step's stage states kept (the default budget at t = 1) it calls f not at all
        s = len(DOP853.b)
        for checkpoints, keep_stages in [(4, False), (None, True)]:
            res, grad, _ = self._replayed_gradient(checkpoints, keep_stages)
            diag = grad.diagnostics
            assert len(res.packed_stages) == diag["kept_stage_steps"] == (res.stats.accepted if keep_stages else 0)
            assert diag["taped_stage_steps"] == (0 if keep_stages else res.stats.accepted - diag["segments"])
            recomputed = res.stats.accepted - diag["kept_stage_steps"] - diag["taped_stage_steps"]
            assert diag["adjoint_rhs_evaluations"] == (s - 1) * recomputed
            assert recomputed == (0 if keep_stages else diag["segments"])

    def test_non_hermitian_hamiltonian_rejected_before_any_rhs_call(self):
        # x0 * i*I commutes with every state, so only the boundary check stops the solve
        sched = HamiltonianSchedule(
            evaluate=lambda t, x: x[0] * 1j * np.eye(2),
            n_params=1,
            derivative=lambda t, x, k: 1j * np.eye(2),
        )
        model = LindbladModel(hamiltonian=sched, channels=(), dimension=2)
        x = np.array([0.5])
        with pytest.raises(ValidationError):
            forward_sensitivity(model, x, PLUS, (0.0, 1.0))
        with pytest.raises(ValidationError):
            adjoint_gradient(integrate(model, x, PLUS, (0.0, 1.0)), state_entry_re_cost(0, 0))
        assert counters.rhs_evaluations == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameters_rejected_before_any_rhs_call(self, bad):
        model = preset_oat(2, 0.1)
        x = np.array([bad, 0.5])
        rho0 = all_zero_density(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match="parameter vector x"):
                forward_sensitivity(model, x, rho0, (0.0, 1.0))
            with pytest.raises(ValidationError, match="parameter vector x"):
                adjoint_gradient(integrate(model, x, rho0, (0.0, 1.0)), state_entry_re_cost(0, 0))
        assert counters.rhs_evaluations == 0

    def test_memory_contract(self):
        model = preset_oat(2)
        x = np.array([0.9, 0.9])
        cfg = SolveConfig(checkpoints=4)
        counters.reset()
        res = integrate(model, x, all_zero_density(2), (0.0, 1.0), cfg)
        diag = adjoint_gradient(res, state_entry_re_cost(0, 0)).diagnostics
        indices = [i for i, _ in res.packed_checkpoints]
        longest = max(b - a for a, b in zip(indices, indices[1:]))
        assert longest > 1
        # checkpoints, one replayed segment and a tape of s-state stacks for all but its last step
        assert diag["peak_retained_states"] <= len(indices) + longest + len(DOP853.c) * (longest - 1)
        # the process-wide counter still records the peak the pass reports
        assert counters.snapshot()["peak_retained_states"] == diag["peak_retained_states"]

    def test_the_cost_gradient_runs_once_per_pass(self):
        # the cotangent that starts the sweep is the pass's one call of the cost's gradient rule
        base = observable_cost(collective_sx(2))
        calls = 0

        def gradient(rho):
            nonlocal calls
            calls += 1
            return base.gradient(rho)

        counted = CostCofunction(evaluate=base.evaluate, gradient=gradient, name="counted")
        res = integrate(preset_oat(2, 0.1), np.array([0.8, 0.6]), all_zero_density(2), (0.0, 1.0))
        got = adjoint_gradient(res, counted)
        assert calls == 1
        assert np.array_equal(got.dc_dx, adjoint_gradient(res, base).dc_dx)
        assert "cost_verification" not in got.diagnostics

    def test_the_pass_trusts_the_cost_and_never_evaluates_it(self):
        # the gradient rule is checked by cost.verify where gradients are validated, not per pass
        base = observable_cost(collective_sx(2))

        def evaluate(rho):
            raise AssertionError("the adjoint pass evaluated the cost")

        trusted = CostCofunction(evaluate=evaluate, gradient=base.gradient, name="trusted")
        res = integrate(preset_oat(2, 0.1), np.array([0.8, 0.6]), all_zero_density(2), (0.0, 1.0))
        assert np.array_equal(adjoint_gradient(res, trusted).dc_dx, adjoint_gradient(res, base).dc_dx)

    @pytest.mark.parametrize("name, what", [("dc_dx", "parameter"), ("dc_drho0", "initial-state")])
    def test_non_finite_gradient_is_rejected(self, name, what):
        blocks = {"dc_dx": np.zeros(2), name: np.array([0.0, np.nan])}
        with pytest.raises(ValidationError, match=f"non-finite {what} gradient"):
            GradientResult(**blocks)

    def test_diagnostics_shape(self):
        model = preset_oat(2)
        res = adjoint_gradient(
            integrate(model, np.array([0.5, 0.5]), all_zero_density(2), (0.0, 1.0)), state_entry_re_cost(0, 0)
        )
        assert isinstance(res, GradientResult)
        d = res.diagnostics
        assert d["segments"] >= 1
        assert d["steps_replayed"] >= d["segments"] >= 1
        assert "cost_verification" not in d


class TestKeptSlopes:
    """A differentiated solve keeps the stage-state stacks of its leading
    accepted steps, each counted as s states against the checkpoint budget,
    and the reverse pass reads them instead of recomputing them."""

    S = len(DOP853.c)
    X = np.array([0.8, 0.6])

    def _solve(self, t_end, cfg=SolveConfig(), n=2):
        return integrate(preset_oat(n, 0.1), self.X, all_zero_density(n), (0.0, t_end), cfg, keep_stages=True)

    def test_a_small_budget_keeps_nothing(self):
        # 8 states leave no room for one 12-state stack beside two checkpoints
        res = self._solve(1.0, SolveConfig(checkpoints=8))
        assert res.packed_stages == ()
        grad = adjoint_gradient(res, state_entry_re_cost(0, 0))
        diag = grad.diagnostics
        assert diag["kept_stage_steps"] == 0
        # replay tapes every step but each segment's last, so only those recompute
        assert diag["longest_segment"] > 1
        assert diag["taped_stage_steps"] == res.stats.accepted - diag["segments"]
        assert diag["adjoint_rhs_evaluations"] == (self.S - 1) * diag["segments"]

    @pytest.mark.bit_identity
    def test_a_long_solve_keeps_what_the_checkpoints_leave(self):
        # a checkpoint at every step: checkpoints come first, and the kept
        # stacks fill what is left of the budget, a leading prefix of steps
        res = self._solve(40.0)
        budget = SolveConfig().checkpoint_budget
        stored = len(res.packed_checkpoints)
        assert stored == res.stats.accepted + 1
        kept = len(res.packed_stages)
        assert kept == (budget - stored) // self.S
        assert 0 < kept < res.stats.accepted
        grad = adjoint_gradient(res, state_entry_re_cost(0, 0))
        assert grad.diagnostics["kept_stage_steps"] == kept
        assert grad.diagnostics["adjoint_rhs_evaluations"] == (self.S - 1) * (res.stats.accepted - kept)
        assert grad.diagnostics["peak_retained_states"] == stored + self.S * kept <= budget
        plain = integrate(res.model, self.X, all_zero_density(2), (0.0, 40.0))
        assert np.array_equal(grad.dc_dx, adjoint_gradient(plain, state_entry_re_cost(0, 0)).dc_dx)

    def test_each_kept_stack_owns_only_its_own_bytes(self):
        # a kept stack is the array its step wrote its stage states into, so
        # the result holds no states beyond the stacks it counts against the budget
        res = self._solve(40.0)
        d = res.model.dimension
        assert 0 < len(res.packed_stages) < res.stats.accepted
        for a in res.packed_stages:
            assert a.shape == (self.S, d * d) and a.nbytes == self.S * d * d * 8
            assert a.base is None or a.base.nbytes <= a.nbytes

    def test_the_byte_cap_limits_the_kept_stacks(self, monkeypatch):
        stack_bytes = self.S * 4 * 4 * 8  # a packed stack of 4 x 4 states
        monkeypatch.setattr(solver_module, "_KEPT_STAGES_MAX_BYTES", 3 * stack_bytes + stack_bytes // 2)
        res = self._solve(1.0)
        assert res.stats.accepted > 3
        assert len(res.packed_stages) == 3

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("kernel", ["compiled", "sandwich"])
    def test_forward_replay_and_reverse_form_the_same_stages(self, kernel, monkeypatch):
        # the forward step, segment replay and the reverse step's recompute
        # each run the solver's one stage loop on a workspace of their own, and must
        # form the same stage states and the same y_(n+1); row 0 of a kept
        # stack is checkpoint n itself
        if kernel == "sandwich":
            monkeypatch.setattr(model_module, "COMPILE_MAX_NNZ", 0)
        res = self._solve(1.0)
        compiled = res.model.superoperator is not None
        assert compiled == (kernel == "compiled")
        d = res.model.dimension
        assert len(res.packed_stages) == res.stats.accepted > 1
        replayed = []
        stages_of = solver_module.rk_stages

        def recording(f, t, h, work, rows):
            # replay's own products, written into a stack instead of its scratch state
            stack = np.empty((self.S, d * d))
            stack[0] = work.stack[0]
            sums = stages_of(f, t, h, work, solver_module._rows(stack)[1:])
            replayed.append(stack)
            return sums

        monkeypatch.setattr(solver_module, "rk_stages", recording)
        nodes = dense_segment(res, (0, res.stats.accepted))
        monkeypatch.setattr(solver_module, "rk_stages", stages_of)
        assert len(replayed) == res.stats.accepted
        f, work = _CountedRhs(res.model, res.x), _ReverseWork(d, compiled, 2)
        lam = packing(d).pack(np.eye(d, dtype=complex))
        for n, stages in enumerate(res.packed_stages):
            i_n, y_n = res.packed_checkpoints[n]
            assert i_n == n and np.array_equal(stages[0], y_n)
            assert np.array_equal(replayed[n], stages)
            assert np.array_equal(nodes[n + 1][1], res.packed_checkpoints[n + 1][1])
            t_n, h_n = float(res.step_times[n]), float(res.step_sizes[n])
            _reverse_step(res.model, res.x, t_n, nodes[n][1], h_n, lam, np.zeros(2), f, work)
            assert np.array_equal(work.ys, stages)
        assert np.array_equal(packing(d).unpack(nodes[-1][1]), res.final_state.matrix)

    def test_a_kept_step_forms_no_stage_state(self, monkeypatch):
        # at t = 40 a leading prefix of steps is kept: each of those reads its
        # stack as it is, leaving the Y buffer and f alone, and every later
        # step forms its s - 1 stage states after Y_0 = y_n into Y
        res = self._solve(40.0)
        kept = len(res.packed_stages)
        assert 0 < kept < res.stats.accepted
        formed = {}
        reverse_step = sensitivity._reverse_step

        def recorded_step(model, x, t_n, y_n, h, lam, grad, f, work, stages=None):
            before, calls = work.ys.copy(), f.calls
            lam = reverse_step(model, x, t_n, y_n, h, lam, grad, f, work, stages)
            n = int(np.searchsorted(res.step_times, t_n))
            formed[n] = (f.calls - calls, not np.array_equal(before[1:], work.ys[1:]))
            return lam

        monkeypatch.setattr(sensitivity, "_reverse_step", recorded_step)
        adjoint_gradient(res, state_entry_re_cost(0, 0))
        assert sorted(formed) == list(range(res.stats.accepted))
        assert all(formed[n] == ((0, False) if n < kept else (self.S - 1, True)) for n in formed)

    @pytest.mark.parametrize("kernel", ["sandwich", "compiled"])
    def test_reverse_steps_allocate_no_stage_stack(self, kernel, monkeypatch):
        # the pass allocates its workspace once, with the compiled pairing's
        # buffers, so outside the generator applications' own temporaries the
        # peak of traced memory over any one reverse step stays below one
        # packed (s, d^2) stack.  The sandwich case runs the dense twin: on CSR
        # operands scipy's products add 5-12 KB of Python objects to the first
        # reverse step's traced peak, at d = 8 and d = 32 alike, and a stack is 6 KB at d = 8
        if kernel == "sandwich":
            monkeypatch.setattr(model_module, "COMPILE_MAX_NNZ", 0)
        model = dense_twin(preset_oat(3, 0.1)) if kernel == "sandwich" else preset_oat(3, 0.1)
        res = integrate(model, self.X, all_zero_density(3), (0.0, 40.0), keep_stages=True)
        assert (res.model.superoperator is None) == (kernel == "sandwich")
        assert res.stats.accepted >= 40 and 0 < len(res.packed_stages) < res.stats.accepted
        if kernel == "compiled":  # the pairing's stacked maps are built on the pass's first step
            res.model.superoperator._derivative_maps
        kernels = [(solver_module, "lindblad_rhs"), (sensitivity, "adjoint_liouvillian_apply")]
        growth = _GrowthOutsideKernels(monkeypatch, kernels)
        monkeypatch.setattr(sensitivity, "_reverse_step", growth.measured(sensitivity._reverse_step))
        tracemalloc.start()
        try:
            adjoint_gradient(res, state_entry_re_cost(0, 0))
        finally:
            tracemalloc.stop()
        assert growth.calls == res.stats.accepted
        assert growth.peak < self.S * 8 * 8 * 8

    @pytest.mark.parametrize("k", [2, 10, 50, 120, None])
    def test_memory_contract_counts_kept_stacks(self, k):
        cfg = SolveConfig(checkpoints=k)
        res = self._solve(1.5, cfg)
        grad = adjoint_gradient(res, state_entry_re_cost(0, 0))
        kept = grad.diagnostics["kept_stage_steps"]
        assert kept == len(res.packed_stages)
        assert len(res.packed_checkpoints) + self.S * kept <= cfg.checkpoint_budget
        longest = grad.diagnostics["longest_segment"]
        assert kept == 0 or longest == 1  # a budget that keeps stacks stores every step
        peak = grad.diagnostics["peak_retained_states"]
        assert peak <= cfg.checkpoint_budget + longest + self.S * (longest - 1)
        # at n = 2 the byte cap leaves room for a tape of every segment's steps but its last
        assert peak >= len(res.packed_checkpoints) + self.S * kept + self.S * (longest - 1)


class TestTapedReplay:
    """When the budget makes the reverse pass replay multi-step segments,
    replay writes each step's stage states into a tape the pass allocates
    once, and the reverse step reads them instead of recomputing them."""

    S = len(DOP853.c)
    X = np.array([0.8, 0.6])

    def _solve(self, n, t_end=1.0, cfg=SolveConfig(checkpoints=4), keep_stages=False):
        return integrate(preset_oat(n, 0.1), self.X, all_zero_density(n), (0.0, t_end), cfg, keep_stages=keep_stages)

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("n", [3, 5])
    def test_taped_gradient_equals_the_recomputed_one_bit_for_bit(self, n, monkeypatch):
        # the same solve differentiated three times: the cap fits a full
        # tape, a 2-step tape (each longer segment tapes a prefix) or none
        res = self._solve(n)
        cost = observable_cost(collective_sx(n))
        stack_bytes = self.S * res.packed_checkpoints[0][1].nbytes
        grads = []
        for cap in (solver_module._KEPT_STAGES_MAX_BYTES, 2 * stack_bytes + stack_bytes // 2, 0):
            monkeypatch.setattr(solver_module, "_KEPT_STAGES_MAX_BYTES", cap)
            grads.append(adjoint_gradient(res, cost))
        diag = grads[0].diagnostics
        segments, steps = diag["segments"], res.stats.accepted
        lengths = np.diff([i for i, _ in res.packed_checkpoints])
        assert diag["longest_segment"] > 2
        assert [g.diagnostics["taped_stage_steps"] for g in grads] == [
            steps - segments,
            int(np.minimum(lengths - 1, 2).sum()),
            0,
        ]
        for g in grads:
            untaped = steps - g.diagnostics["taped_stage_steps"]
            assert g.diagnostics["adjoint_rhs_evaluations"] == (self.S - 1) * untaped
        for g in grads[1:]:
            assert np.array_equal(g.dc_dx, grads[0].dc_dx)
            assert np.array_equal(g.dc_drho0, grads[0].dc_drho0)
            assert g.dc_dT == grads[0].dc_dT

    def test_the_tape_is_allocated_once_per_pass(self, monkeypatch):
        # every segment's replay fills the one tape the pass allocated, and
        # no replay allocates anything near the tape's size of its own
        res = self._solve(4)
        tapes, growth = [], []
        replay = sensitivity.dense_segment

        def measured_replay(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            segment = replay(*args, **kwargs)
            growth.append(tracemalloc.get_traced_memory()[1] - start)
            tapes.append(kwargs["tape"])
            return segment

        monkeypatch.setattr(sensitivity, "dense_segment", measured_replay)
        tracemalloc.start()
        try:
            grad = adjoint_gradient(res, state_entry_re_cost(0, 0))
        finally:
            tracemalloc.stop()
        tape = tapes[0]
        assert len(tapes) == grad.diagnostics["segments"] > 1
        assert all(t is tape for t in tapes)
        assert tape.shape == (grad.diagnostics["longest_segment"] - 1, self.S, 256)
        assert max(growth) < tape.nbytes

    @pytest.mark.parametrize("kernel", ["compiled", "sandwich"])
    def test_replay_allocates_no_stage_stack(self, kernel, monkeypatch):
        # each segment's replay steps on the reverse pass's own workspace and
        # writes its states into the tape, so over a checkpoints=4 pass no
        # replay's traced memory, outside the right-hand side's own
        # temporaries, grows by one packed (s, d^2) stage stack
        if kernel == "sandwich":
            monkeypatch.setattr(model_module, "COMPILE_MAX_NNZ", 0)
        res = self._solve(4)
        assert (res.model.superoperator is None) == (kernel == "sandwich")
        growth = _GrowthOutsideKernels(monkeypatch, [(solver_module, "lindblad_rhs")])
        monkeypatch.setattr(sensitivity, "dense_segment", growth.measured(sensitivity.dense_segment))
        tracemalloc.start()
        try:
            grad = adjoint_gradient(res, state_entry_re_cost(0, 0))
        finally:
            tracemalloc.stop()
        assert growth.calls == grad.diagnostics["segments"] > 1
        assert grad.diagnostics["longest_segment"] > 2
        assert growth.peak < self.S * 256 * 8

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("keep_stages", [True, False], ids=["kept", "none-kept"])
    def test_tape_row_j_holds_step_i_a_plus_j(self, keep_stages):
        # a replay from step i_a writes step i_a + j's stage states into
        # tape row j, kept stack or not: the bits the solve kept for that
        # step and the reverse step forms when it recomputes it
        if keep_stages:  # a kept prefix and a checkpoint at every step
            res = self._solve(2, 40.0, SolveConfig(), keep_stages=True)
        else:
            res = self._solve(2)
        kept, d = len(res.packed_stages), res.model.dimension
        i_a = res.packed_checkpoints[1][0]
        if keep_stages:  # the tape takes kept steps and the two after them
            rows = kept + 2 - i_a
            assert 0 < i_a < kept
        else:
            rows = 3
            assert kept == 0
        assert i_a + rows <= res.stats.accepted
        tape = np.empty((rows, self.S, d * d))
        nodes = dense_segment(res, (i_a, i_a + rows), tape=tape)
        f, work = _CountedRhs(res.model, res.x), _ReverseWork(d, True, 2)
        lam = packing(d).pack(np.eye(d, dtype=complex))
        for j in range(rows):
            n = i_a + j
            t_n, h_n = float(res.step_times[n]), float(res.step_sizes[n])
            _reverse_step(res.model, res.x, t_n, nodes[j][1], h_n, lam, np.zeros(2), f, work)
            assert np.array_equal(tape[j], work.ys)
            if n < kept:
                assert np.array_equal(tape[j], res.packed_stages[n])

    def test_taped_states_are_views_into_the_tape(self, monkeypatch):
        # replay writes state i_a + j straight into tape[j, 0], so a taped
        # state is held once, and counted once among the retained states
        res = self._solve(2)
        replay = sensitivity.dense_segment
        views = []

        def checked_replay(result, steps, *, tape, workspace):
            segment = replay(result, steps, tape=tape, workspace=workspace)
            plain = replay(result, steps)
            assert all(np.array_equal(y, y_plain) for (_, y), (_, y_plain) in zip(segment, plain, strict=True))
            on_tape = min(len(tape), len(segment) - 1)
            for j in range(1, on_tape):
                assert np.shares_memory(segment[j][1], tape[j, 0])
            views.append(max(0, on_tape - 1))
            return segment

        monkeypatch.setattr(sensitivity, "dense_segment", checked_replay)
        grad = adjoint_gradient(res, state_entry_re_cost(0, 0))
        longest = grad.diagnostics["longest_segment"]
        assert longest > 2 and max(views) == longest - 2
        stored = len(res.packed_checkpoints)
        # the longest segment: its checkpoint, the tape and one state of its own
        assert grad.diagnostics["peak_retained_states"] == stored + 1 + self.S * (longest - 1)

    @pytest.mark.parametrize(
        "tape",
        [
            np.empty((2, 12, 4, 4)),
            np.empty((2, 11, 16)),
            np.empty((2, 12, 32))[..., ::2],
            np.empty((2, 12, 16), dtype=complex),
        ],
        ids=["real", "short-stack", "strided", "complex"],
    )
    def test_a_malformed_tape_is_rejected(self, tape):
        res = self._solve(2)
        with pytest.raises(ValidationError, match="tape"):
            dense_segment(res, (0, 2), tape=tape)


class TestReverseStep:
    """One step y -> Phi(y) of a model with a time-independent generator is
    linear in y, so the reverse step must be Phi's exact transpose.  Each
    test runs on the compiled superoperator and on the sandwich kernel."""

    T_N, H, X = 0.3, 0.15, np.array([0.8, 0.6])

    @pytest.fixture(params=["compiled", "sandwich"])
    def model(self, request, monkeypatch):
        if request.param == "sandwich":
            import lindbladiff.model as model_module

            monkeypatch.setattr(model_module, "COMPILE_MAX_NNZ", 0)
        model = preset_oat(2, 0.3)
        assert (model.superoperator is None) == (request.param == "sandwich")
        return model

    PACK = packing(4)

    def _step(self, model, x, y):
        f = _CountedRhs(model, x)
        y = self.PACK.pack(y)
        work = _StageWork(y.shape)
        work.stack[0] = y
        f(self.T_N, y, work.stack[1])
        return self.PACK.unpack(rk_stages(f, self.T_N, self.H, work, _scratch_rows(y.shape))[0])

    def _reverse(self, model, x, y, lam, grad):
        work = _ReverseWork(4, model.superoperator is not None, 2)
        y, lam = self.PACK.pack(y), self.PACK.pack(lam)
        return self.PACK.unpack(_reverse_step(model, x, self.T_N, y, self.H, lam, grad, _CountedRhs(model, x), work))

    def test_is_exact_transpose_of_one_step(self, model):
        x = self.X
        rng = np.random.default_rng(11)
        for _ in range(3):
            # L takes Hermitian states and L^dag Hermitian cotangents, as a step's are
            sigma = random_hermitian(rng, 4)
            lam = random_hermitian(rng, 4)
            lam_prev = self._reverse(model, x, sigma, lam, np.zeros(2))
            forward = _pair(lam, self._step(model, x, sigma))
            backward = _pair(lam_prev, sigma)
            assert abs(forward - backward) <= 1e-13 * np.linalg.norm(lam) * np.linalg.norm(sigma)

    def test_parameter_term_matches_central_difference(self, model):
        x = self.X
        rng = np.random.default_rng(12)
        y = random_density(rng, 4)
        lam = random_hermitian(rng, 4)
        grad = np.zeros(2)
        self._reverse(model, x, y, lam, grad)
        eps = 1e-5
        for k in range(2):
            dx = eps * np.eye(2)[k]
            fd = (_pair(lam, self._step(model, x + dx, y)) - _pair(lam, self._step(model, x - dx, y))) / (2 * eps)
            assert grad[k] == pytest.approx(fd, rel=1e-8, abs=1e-11)


def _long_double_pairing(a, ys, vs):
    """sum_i Re Tr(v_i^H (-i [A, Y_i])) in long double, from A's stored entries."""
    coo = scipy.sparse.coo_array(a)
    total = np.longdouble(0.0)
    for y, v in zip(ys, vs):
        m = np.zeros(y.shape, dtype=np.clongdouble)
        np.add.at(m, coo.row, coo.data.astype(np.clongdouble)[:, None] * y.astype(np.clongdouble)[coo.col])
        total += np.sum((v.astype(np.clongdouble).conj() * (-1j * (m - m.conj().T))).real)
    return total


@pytest.mark.bit_identity
@pytest.mark.parametrize("n", [6, 9])
def test_sandwich_pairing_of_one_reverse_step_is_accurate(n, monkeypatch):
    # the sandwich kernel's pairing adds each (a, b) term of Tr(v_i A Y_i) to its
    # (b, a) partner before the sum: where A = Sz^2 takes equal values at a and b
    # those terms cancel exactly, and a sum of the unpaired terms (2 Im vdot(v_i,
    # A Y_i), the old form) kept their rounding, 5e-8 to 2e-7 of the value; stage
    # states and a cotangent that live mostly on such pairs make the value small
    if n < 9:
        monkeypatch.setattr(model_module, "COMPILE_MAX_NNZ", 0)
    model, d, s = preset_oat(n, 0.1), 2**n, len(DOP853.c)
    assert model.superoperator is None
    pack, rng = packing(d), np.random.default_rng(n)
    sz2 = np.diag(model.hamiltonian.terms[0].toarray()).real
    weight = np.where(np.equal.outer(sz2, sz2), 1.0, 1e-6)
    ys = pack.pack(np.array([weight * random_hermitian(rng, d) for _ in range(s)]))
    lam = pack.pack(weight * random_hermitian(rng, d))
    x, work, grad = np.array([0.8, 0.6]), _ReverseWork(d, False, 2), np.zeros(2)
    _reverse_step(model, x, 0.3, ys[0], 0.01, lam, grad, _CountedRhs(model, x), work, ys)
    stages, vs = pack.unpack(ys), pack.unpack(work.vs)
    for k, a in enumerate(model.hamiltonian.terms):
        expect = _long_double_pairing(a, stages, vs)
        assert abs(np.longdouble(grad[k]) - expect) <= 1e-13 * abs(expect)
        # the pairing applies the dL/dx_k map itself, term by term in stage order
        total = 0.0
        for c, y_i, v_i in zip(DOP853.c, ys, work.vs):
            total += np.dot(pack.weights * v_i, rhs_parameter_derivative(0.3 + c * 0.01, y_i, model, x, k))
        assert grad[k] == total
