"""Forward-tangent and reverse-adjoint gradients through the integrator."""

import warnings

import numpy as np
import pytest

from oracles import fd_gradient, random_density, random_hermitian
from lindbladiff.errors import CostGradientError, ValidationError
from lindbladiff import sensitivity
from lindbladiff.instrumentation import counters
from lindbladiff.model import (
    DensityOperator,
    HamiltonianSchedule,
    LindbladModel,
    all_zero_density,
    lindblad_rhs,
    preset_oat,
)
from lindbladiff.sensitivity import (
    _pair,
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
from lindbladiff.solver import DOP853, SolveConfig, _combine, _CountedRhs, integrate, rk_stages
from lindbladiff.spins import PAULI_Z, collective_sx

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


class TestCosts:
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

    def test_cotangent_is_linear_packing(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 2)
        cost = state_entry_re_cost(1, 0)
        cot = cost.cotangent(rho)
        re, im = cost.gradient(rho)
        assert np.array_equal(cot, re + 1j * im)


class TestAdjointLiouvillian:
    def test_hilbert_schmidt_pairing(self):
        rng = np.random.default_rng(7)
        model = preset_oat(2, gamma=0.35)
        x = np.array([0.7, 0.4])
        rho = random_density(rng, 4)
        lam = random_hermitian(rng, 4) + 1j * 0.1 * random_hermitian(rng, 4)
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
        _, sigma = forward_sensitivity(model, x, rho0, (0.0, 1.0), TIGHT, k=1)
        h = 1e-6
        xp, xm = x.copy(), x.copy()
        xp[1] += h
        xm[1] -= h
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
        _, sigma = forward_sensitivity(model, np.array([0.3]), PLUS, (0.0, 1.0), TIGHT, k=0)
        assert np.max(np.abs(sigma)) < 1e-12

    def test_counts_every_rhs_call(self, monkeypatch):
        # each stacked evaluation applies L twice: to the state and to the tangent
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return lindblad_rhs(*args)

        monkeypatch.setattr(sensitivity, "lindblad_rhs", counted)
        forward_sensitivity(preset_oat(2, 0.1), np.array([0.8, 0.6]), all_zero_density(2), (0.0, 1.0))
        assert calls > 0
        assert counters.rhs_evaluations == calls


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
        fwd = np.zeros(2)
        for k in range(2):
            _, sigma = forward_sensitivity(model, x, rho0, (0.0, 1.0), TIGHT, k)
            fwd[k] = np.sum(cot.conj() * sigma).real

        def f(xv):
            rho_t = integrate(model, xv, rho0, (0.0, 1.0), TIGHT).final_state.matrix
            return cost.evaluate(rho_t)

        fd = fd_gradient(f, x, 1e-6).value
        assert np.max(np.abs(adj - fwd)) < 1e-6 * max(1.0, np.max(np.abs(adj)))
        assert np.max(np.abs(adj - fd)) < 1e-4 * max(1.0, np.max(np.abs(adj)))

    def test_checkpoint_count_invariance_is_bitwise(self):
        model = preset_oat(2, gamma=0.1)
        x = np.array([1.0, 0.6])
        rho0 = all_zero_density(2)
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
        fwd = np.zeros(2)
        for k in range(2):
            _, sigma = forward_sensitivity(model, x, rho0, (0.0, 4.0), SolveConfig(initial_step=0.5), k)
            fwd[k] = _pair(cot, sigma)
        assert np.max(np.abs(grads[0] - fwd)) < 1e-6 * max(1.0, np.max(np.abs(grads[0])))

    def test_initial_state_gradient_directional_fd(self):
        model = preset_oat(2, gamma=0.1)
        x = np.array([0.8, 0.5])
        rho0 = all_zero_density(2)
        cost = observable_cost(random_hermitian(np.random.default_rng(9), 4))
        res = adjoint_gradient(integrate(model, x, rho0, (0.0, 1.0), TIGHT), cost)
        lam0 = res.dc_drho0_matrix
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
    def _replayed_gradient(checkpoints):
        model = preset_oat(2, gamma=0.1)
        x = np.array([0.9, 0.6])
        rho0 = all_zero_density(2)
        cfg = SolveConfig(checkpoints=checkpoints)
        res = integrate(model, x, rho0, (0.0, 1.0), cfg)
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

    def test_reverse_step_skips_the_last_stage_slope(self):
        # the reverse step needs the s stage states, and the last one depends
        # on the first s - 1 slopes only
        res, grad, _ = self._replayed_gradient(4)
        assert grad.diagnostics["adjoint_rhs_evaluations"] == (len(DOP853.b) - 1) * res.stats.accepted

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
        adjoint_gradient(res, state_entry_re_cost(0, 0))
        diag = counters.snapshot()
        longest = max(
            b - a for a, b in zip(res.checkpoint_indices, res.checkpoint_indices[1:])
        )
        assert diag["peak_retained_states"] <= len(res.checkpoints) + longest

    def test_diagnostics_shape(self):
        model = preset_oat(2)
        res = adjoint_gradient(
            integrate(model, np.array([0.5, 0.5]), all_zero_density(2), (0.0, 1.0)), state_entry_re_cost(0, 0)
        )
        assert isinstance(res, GradientResult)
        d = res.diagnostics
        assert d["segments"] >= 1
        assert d["steps_replayed"] >= d["segments"] >= 1
        assert d["fd_fallback"] is False
        assert "cost_verification" in d


class TestReverseStep:
    """One step y -> Phi(y) of a model with a time-independent generator is
    linear in y, so the reverse step must be Phi's exact transpose."""

    T_N, H = 0.3, 0.15

    def _model(self):
        return preset_oat(2, 0.3), np.array([0.8, 0.6])

    def _step(self, model, x, y):
        slopes, _, _ = rk_stages(_CountedRhs(model, x), self.T_N, y, self.H)
        return y + self.H * _combine(DOP853.b, slopes)

    def _reverse(self, model, x, y, lam, grad):
        return _reverse_step(model, x, self.T_N, y, self.H, lam, grad, _CountedRhs(model, x))

    def test_is_exact_transpose_of_one_step(self):
        model, x = self._model()
        rng = np.random.default_rng(11)
        for _ in range(3):
            sigma = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            lam = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            lam_prev = self._reverse(model, x, sigma, lam, np.zeros(2))
            forward = _pair(lam, self._step(model, x, sigma))
            backward = _pair(lam_prev, sigma)
            assert abs(forward - backward) <= 1e-13 * np.linalg.norm(lam) * np.linalg.norm(sigma)

    def test_parameter_term_matches_central_difference(self):
        model, x = self._model()
        rng = np.random.default_rng(12)
        y = random_density(rng, 4)
        lam = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        grad = np.zeros(2)
        self._reverse(model, x, y, lam, grad)
        eps = 1e-5
        for k in range(2):
            dx = eps * np.eye(2)[k]
            fd = (_pair(lam, self._step(model, x + dx, y)) - _pair(lam, self._step(model, x - dx, y))) / (2 * eps)
            assert grad[k] == pytest.approx(fd, rel=1e-8, abs=1e-11)
