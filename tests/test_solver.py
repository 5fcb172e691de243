"""Adaptive integration: accuracy, replay determinism, checkpoint policy."""

import functools
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import expm_propagate, random_hermitian, rk4_lindblad
from twins import dense_twin
import lindbladiff
from lindbladiff.errors import IntegrationError, ValidationError
from lindbladiff.linalg import packing, to_dense
from lindbladiff.model import (
    DensityOperator,
    HamiltonianSchedule,
    JumpChannel,
    LindbladModel,
    all_zero_density,
    preset_oat,
)
from lindbladiff import model as model_module
from lindbladiff import solver as solver_module
from lindbladiff.solver import (
    _TABLEAU,
    DOP853,
    SolveConfig,
    _CountedRhs,
    _StageWork,
    _adaptive_core,
    _error_norm,
    _rows,
    _scratch_rows,
    dense_segment,
    integrate,
    rk_stages,
)
from lindbladiff.spins import PAULI_Z
from lindbladiff.instrumentation import counters

PLUS = DensityOperator.from_matrix(0.5 * np.array([[1, 1], [1, 1]], dtype=complex))


def _static_model(h, channels=()):
    d = h.shape[0]
    return LindbladModel(
        hamiltonian=HamiltonianSchedule(evaluate=lambda t, x: h, n_params=0),
        channels=tuple(channels),
        dimension=d,
    )


class TestSolveConfig:
    def test_defaults_and_budget(self):
        cfg = SolveConfig()
        assert cfg.rtol == 1e-8 and cfg.atol == 1e-10
        assert cfg.checkpoint_budget == int(np.ceil(np.sqrt(cfg.max_steps)))
        assert SolveConfig(checkpoints=5).checkpoint_budget == 5
        # the derived budget holds at least the first and the final state, as an explicit one must
        assert [SolveConfig(max_steps=m).checkpoint_budget for m in (1, 2, 5)] == [2, 2, 3]

    def test_validation(self):
        with pytest.raises(ValidationError):
            SolveConfig(rtol=0.0)
        with pytest.raises(ValidationError):
            SolveConfig(atol=-1e-10)
        with pytest.raises(ValidationError):
            SolveConfig(max_steps=0)
        with pytest.raises(ValidationError):
            SolveConfig(checkpoints=1)
        with pytest.raises(ValidationError):
            SolveConfig(initial_step=0.0)

    @pytest.mark.parametrize("field", ["rtol", "atol", "initial_step"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_float_fields_reject_non_finite_values(self, field, bad):
        # atol = inf would accept every step and rtol = inf would fail later
        # as an IntegrationError; both are rejected here, before any solve
        with pytest.raises(ValidationError) as err:
            SolveConfig(**{field: bad})
        assert err.value.path == f"/{field}"

    @pytest.mark.parametrize("field", ["max_steps", "checkpoints"])
    @pytest.mark.parametrize("bad", [10.5, 10.0, True, "10"])
    def test_integer_fields_reject_non_integers(self, field, bad):
        with pytest.raises(ValidationError) as err:
            SolveConfig(**{field: bad})
        assert err.value.path == f"/{field}"
        SolveConfig(**{field: np.int64(10)})  # a numpy integer is an integer


class TestAccuracy:
    def test_phase_rotation_closed_form(self):
        # H = (x0/2) sigma_z on |+><+|: rho01(T) = (1/2) e^{+i x0 T}
        x0, t1 = 1.3, 2.0

        def evaluate(t, x):
            return x[0] * 0.5 * PAULI_Z

        model = LindbladModel(
            hamiltonian=HamiltonianSchedule(evaluate=evaluate, n_params=1, derivative=lambda t, x, k: 0.5 * PAULI_Z),
            channels=(),
            dimension=2,
        )
        res = integrate(model, np.array([x0]), PLUS, (0.0, t1), SolveConfig(rtol=1e-10, atol=1e-12))
        got = res.final_state.matrix[0, 1]
        # the (0,1) entry evolves with phase e^{-i x0 t}
        assert got == pytest.approx(0.5 * np.exp(-1j * x0 * t1), abs=1e-9)

    def test_matches_matrix_exponential_oracle(self):
        rng = np.random.default_rng(21)
        rtol = 1e-8
        for n in (1, 2):
            h = random_hermitian(rng, 2**n)
            model = _static_model(h)
            rho0 = all_zero_density(n)
            res = integrate(model, np.zeros(0), rho0, (0.0, 3.0), SolveConfig(rtol=rtol, atol=1e-12))
            exact = expm_propagate(h, rho0.matrix, 3.0).value
            assert np.linalg.norm(res.final_state.matrix - exact) < 100 * rtol

    def test_dephasing_decay_closed_form(self):
        gamma, t1 = 0.5, 2.0
        model = _static_model(
            np.zeros((2, 2), dtype=complex), [JumpChannel(rate=gamma, operator=PAULI_Z.copy())]
        )
        res = integrate(model, np.zeros(0), PLUS, (0.0, t1), SolveConfig(rtol=1e-10, atol=1e-12))
        assert res.final_state.matrix[0, 1].real == pytest.approx(
            0.5 * np.exp(-2.0 * gamma * t1), abs=1e-8
        )

    def test_dissipative_agrees_with_rk4_oracle(self):
        model = preset_oat(2, gamma=0.3)
        x = np.array([0.8, 0.5])
        rho0 = all_zero_density(2)
        res = integrate(model, x, rho0, (0.0, 1.0), SolveConfig(rtol=1e-10, atol=1e-12))
        h = to_dense(model.hamiltonian.evaluate(0.0, x))
        chans = [(ch.rate, to_dense(ch.operator)) for ch in model.channels]
        ref = rk4_lindblad(lambda t: h, chans, rho0.matrix, (0.0, 1.0), 4000).value
        assert np.linalg.norm(res.final_state.matrix - ref) < 1e-8

    def test_time_dependent_hamiltonian_phase(self):
        # H(t, x) = x0 cos(t) (sigma_z / 2): rho01(T) = (1/2) e^{-i x0 sin(T)}
        x0, t1 = 0.9, 2.5

        def evaluate(t, x):
            return x[0] * np.cos(t) * 0.5 * PAULI_Z

        def derivative(t, x, k):
            return np.cos(t) * 0.5 * PAULI_Z

        model = LindbladModel(
            hamiltonian=HamiltonianSchedule(evaluate=evaluate, n_params=1, derivative=derivative),
            channels=(),
            dimension=2,
        )
        res = integrate(model, np.array([x0]), PLUS, (0.0, t1), SolveConfig(rtol=1e-11, atol=1e-13))
        assert res.final_state.matrix[0, 1] == pytest.approx(
            0.5 * np.exp(-1j * x0 * np.sin(t1)), abs=1e-9
        )

    def test_tolerance_scaling_is_monotone(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 4)
        model = _static_model(h)
        rho0 = all_zero_density(2)
        exact = expm_propagate(h, rho0.matrix, 2.0).value
        errors = []
        for rtol in (1e-6, 1e-8, 1e-10):
            res = integrate(model, np.zeros(0), rho0, (0.0, 2.0), SolveConfig(rtol=rtol, atol=rtol * 1e-2))
            errors.append(np.linalg.norm(res.final_state.matrix - exact))
        assert errors[0] > errors[1] > errors[2]

    def test_trace_and_hermiticity_drift_are_tiny(self):
        model = preset_oat(2, gamma=0.2)
        res = integrate(model, np.array([1.0, 0.7]), all_zero_density(2), (0.0, 2.0))
        assert res.stats.trace_drift < 1e-12
        assert res.stats.hermiticity_drift < 1e-12

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("kernel", ["compiled", "sandwich"])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_hermiticity_drift_is_exactly_zero(self, kernel, sparse, monkeypatch):
        # the solver steps on packed states, and rho(T) is unpacked from them,
        # so every accepted state of a bitwise Hermitian rho0 is bitwise Hermitian
        if kernel == "sandwich":
            monkeypatch.setattr(model_module, "COMPILE_MAX_NNZ", 0)
        model = preset_oat(3, 0.2) if sparse else dense_twin(preset_oat(3, 0.2))
        assert (model.superoperator is None) == (kernel == "sandwich")
        res = integrate(model, np.array([1.0, 0.7]), all_zero_density(3), (0.0, 2.0))
        assert res.stats.hermiticity_drift == 0.0


class TestTrailAndReplay:
    @pytest.mark.bit_identity
    def test_resolve_is_bit_identical(self):
        model = preset_oat(2, gamma=0.1)
        x = np.array([0.9, 0.4])
        a = integrate(model, x, all_zero_density(2), (0.0, 1.5))
        b = integrate(model, x, all_zero_density(2), (0.0, 1.5))
        assert np.array_equal(a.final_state.matrix, b.final_state.matrix)
        assert np.array_equal(a.step_times, b.step_times)
        assert np.array_equal(a.step_sizes, b.step_sizes)

    @pytest.mark.bit_identity
    def test_keeping_slopes_leaves_the_solve_unchanged(self, monkeypatch):
        # a rejected try leaves its stack to the retry, which overwrites it,
        # so a kept stack always holds the accepted step's stage states, and
        # the solve allocates exactly one stack per kept step
        model = preset_oat(2, gamma=0.1)
        x = np.array([1.5, 1.2])
        cfg = SolveConfig(initial_step=0.5)
        a = integrate(model, x, all_zero_density(2), (0.0, 4.0), cfg)
        stack_shape = (len(DOP853.c), 16)  # a packed stack of 4 x 4 states
        allocated = 0

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, shape, *args, **kwargs):
                nonlocal allocated
                allocated += tuple(shape) == stack_shape
                return np.empty(shape, *args, **kwargs)

        monkeypatch.setattr(solver_module, "np", CountingNumpy())
        b = integrate(model, x, all_zero_density(2), (0.0, 4.0), cfg, keep_stages=True)
        monkeypatch.undo()
        assert b.stats.rejected >= 2 and b.stats == a.stats
        assert a.packed_stages == () and len(b.packed_stages) == b.stats.accepted
        assert allocated == len(b.packed_stages)
        assert np.array_equal(a.final_state.matrix, b.final_state.matrix)
        assert np.array_equal(a.step_sizes, b.step_sizes)
        assert [i for i, _ in a.packed_checkpoints] == [i for i, _ in b.packed_checkpoints]
        # each kept stack is the accepted step's, not a rejected try's from
        # the same y_n: its rows are the stage states the accepted h_n forms
        # again from y_n, and that step's slopes lead to y_(n+1)
        states = [state for _, state in b.packed_checkpoints]
        f = _CountedRhs(model, x)
        for n, stages in enumerate(b.packed_stages):
            t_n, h_n = float(b.step_times[n]), float(b.step_sizes[n])
            work, recomputed = _StageWork(states[n].shape), np.empty_like(stages)
            recomputed[0] = work.stack[0] = states[n]
            f(t_n, states[n], work.stack[1])
            y_new = rk_stages(f, t_n, h_n, work, _rows(recomputed)[1:])[0]
            assert np.array_equal(stages, recomputed)
            assert np.array_equal(y_new, states[n + 1])

    def test_recorded_grid_ends_exactly_at_t_final(self):
        model = preset_oat(2)
        res = integrate(model, np.array([0.7, 0.3]), all_zero_density(2), (0.0, 1.0))
        # node times run t0 ... T inclusive, and the endpoint is exact, not
        # merely within an ulp of T
        assert res.step_times[0] == 0.0 and res.step_times[-1] == 1.0
        assert len(res.step_times) == res.stats.accepted + 1
        assert len(res.step_sizes) == res.stats.accepted
        assert res.stats.min_step <= res.stats.max_step

    @pytest.mark.bit_identity
    def test_full_span_replay_is_bit_identical(self):
        model = preset_oat(2, gamma=0.15)
        x = np.array([0.8, 0.6])
        rho0 = all_zero_density(2)
        res = integrate(model, x, rho0, (0.0, 1.0))
        nodes = dense_segment(res, (0, res.stats.accepted))
        assert len(nodes) == res.stats.accepted + 1
        assert [t for t, _ in nodes] == res.step_times.tolist()
        assert nodes[-1][0] == 1.0
        assert np.array_equal(packing(4).unpack(nodes[-1][1]), res.final_state.matrix)

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("kernel", ["compiled", "sandwich"])
    def test_full_span_replay_is_every_stored_checkpoint(self, kernel, monkeypatch):
        if kernel == "sandwich":
            monkeypatch.setattr(model_module, "COMPILE_MAX_NNZ", 0)
        model = preset_oat(2, gamma=0.15)
        assert (model.superoperator is None) == (kernel == "sandwich")
        res = integrate(model, np.array([0.8, 0.6]), all_zero_density(2), (0.0, 3.0), SolveConfig(checkpoints=5))
        assert res.stats.accepted > len(res.packed_checkpoints) > 2
        nodes = dense_segment(res, (0, res.stats.accepted))
        for i, state in res.packed_checkpoints:
            assert np.array_equal(nodes[i][1], state)

    def test_replay_starts_only_at_a_stored_checkpoint(self):
        # replay reads its start from the trail, so a step the solve stored no
        # state for is refused before any right-hand side is evaluated
        cfg = SolveConfig(checkpoints=3)
        res = integrate(preset_oat(2), np.array([0.8, 0.6]), all_zero_density(2), (0.0, 1.0), cfg)
        stored = [i for i, _ in res.packed_checkpoints]
        between = next(i for i in range(res.stats.accepted) if i not in stored)
        before = counters.rhs_evaluations
        for steps in ((between, between), (between, res.stats.accepted)):
            with pytest.raises(ValidationError, match="stored checkpoint"):
                dense_segment(res, steps)
        assert counters.rhs_evaluations == before

    def test_segments_tile_the_accepted_grid(self):
        model = preset_oat(2)
        x = np.array([1.1, 0.2])
        cfg = SolveConfig(checkpoints=4)
        res = integrate(model, x, all_zero_density(2), (0.0, 1.2), cfg)
        cps = res.packed_checkpoints
        assert len(cps) <= 4
        assert cps[0][0] == 0 and cps[-1][0] == res.stats.accepted
        assert res.step_times[cps[0][0]] == 0.0 and res.step_times[cps[-1][0]] == 1.2
        covered = 0
        for (i_a, _), (i_b, _) in zip(cps, cps[1:]):
            nodes = dense_segment(res, (i_a, i_b))
            covered += len(nodes) - 1
            # right endpoint of each replayed segment is the stored checkpoint's step
            assert len(nodes) == i_b - i_a + 1
            assert nodes[-1][0] == res.step_times[i_b]
        assert covered == res.stats.accepted

    def test_empty_segment_makes_no_rhs_call(self):
        model = preset_oat(2)
        x = np.array([0.8, 0.6])
        res = integrate(model, x, all_zero_density(2), (0.0, 1.0))
        i_a, state_a = res.packed_checkpoints[1]
        counters.reset()
        nodes = dense_segment(res, (i_a, i_a))
        assert len(nodes) == 1
        # with no tape the one state is the stored checkpoint array itself, not a copy
        assert nodes[0][0] == res.step_times[i_a] and nodes[0][1] is state_a
        assert counters.rhs_evaluations == 0
        with pytest.raises(ValidationError):
            dense_segment(res, (i_a, 0))

    def test_replay_span_is_a_pair_of_step_indices(self):
        res = integrate(preset_oat(2), np.array([0.8, 0.6]), all_zero_density(2), (0.0, 1.0))
        # a float time span is refused, not truncated to an index
        with pytest.raises(TypeError):
            dense_segment(res, (0.0, 1.0))
        for bad in ((-1, 1), (0, res.stats.accepted + 1)):
            with pytest.raises(ValidationError, match="i_a <= i_b"):
                dense_segment(res, bad)
        nodes = dense_segment(res, (np.int64(0), np.int64(2)))
        assert [t for t, _ in nodes] == res.step_times[:3].tolist()

    def test_checkpoint_budget_and_thinning(self):
        model = preset_oat(2)
        for k in (2, 3, 10):
            cfg = SolveConfig(checkpoints=k, rtol=1e-10, atol=1e-12)
            res = integrate(model, np.array([1.0, 0.8]), all_zero_density(2), (0.0, 2.0), cfg)
            indices = [i for i, _ in res.packed_checkpoints]
            assert 2 <= len(indices) <= k
            assert indices[0] == 0 and indices[-1] == res.stats.accepted
            assert indices == sorted(set(indices))
            assert res.step_times[indices[0]] == 0.0 and res.step_times[indices[-1]] == 2.0

    @pytest.mark.bit_identity
    def test_replayed_states_match_checkpoint_states_bitwise(self):
        model = preset_oat(2, gamma=0.05)
        x = np.array([0.5, 0.9])
        cfg = SolveConfig(checkpoints=5)
        res = integrate(model, x, all_zero_density(2), (0.0, 1.0), cfg)
        cps = res.packed_checkpoints
        for (i_a, _), (i_b, state_b) in zip(cps, cps[1:]):
            nodes = dense_segment(res, (i_a, i_b))
            assert np.array_equal(nodes[-1][1], state_b)


class TestCostsAndErrors:
    def test_fsal_evaluation_economy(self):
        model = preset_oat(2, gamma=0.1)
        counters.reset()
        res = integrate(model, np.array([1.2, 0.9]), all_zero_density(2), (0.0, 1.0))
        stats = res.stats
        # two evaluations choose the initial step; s - 1 = 11 fresh ones per
        # attempt (the stages after the reused first slope), and the FSAL
        # slope once per accepted step
        assert len(DOP853.b) == 12
        assert stats.rhs_evaluations == 2 + 11 * (stats.accepted + stats.rejected) + stats.accepted
        assert counters.snapshot()["rhs_evaluations"] == stats.rhs_evaluations
        assert counters.snapshot()["forward_integrations"] == 1

    def test_rejected_step_skips_the_fsal_slope(self):
        # a large given first step is rejected, and so is one later step; a
        # given step needs no heuristic, so only f(t0) precedes the attempts
        res = integrate(
            preset_oat(2, gamma=0.1), np.array([1.5, 1.2]), all_zero_density(2), (0.0, 4.0),
            SolveConfig(initial_step=0.5),
        )
        stats = res.stats
        assert stats.rejected >= 2
        assert stats.rhs_evaluations == 1 + 11 * (stats.accepted + stats.rejected) + stats.accepted
        assert len(res.step_sizes) == stats.accepted and res.step_times[-1] == 4.0

    def test_overflowing_error_norm_rejects_the_step(self):
        # finite estimates whose squared scaled norms overflow must not be
        # accepted: inf from either norm (alone or both) means a retry
        y = np.zeros(4)  # a packed 2 x 2 state: one upper entry's (Re, Im), then the diagonal
        small, huge = np.full(4, 1e-3), np.full(4, 1e200)
        buffers = np.empty(3), np.empty((2, 3))  # the scale and the scaled estimates, one per entry of the triangle
        with np.errstate(over="ignore"):
            for delta5, delta3 in ((small, huge), (huge, small), (huge, huge)):
                assert _error_norm(np.stack([y, delta5, delta3]), y, 1e-8, 1e-10, *buffers) == np.inf
        assert _error_norm(np.stack([y, small, small]), y, 1e-8, 1e-10, *buffers) > 1.0
        assert _error_norm(np.stack([y, y, y]), y, 1e-8, 1e-10, *buffers) == 0.0

    def test_error_norm_is_zero_when_the_fifth_order_estimate_is(self):
        # delta5 = 0 with a delta3 whose squared scaled norm, times 0.01,
        # underflows: the blend err5^2 / sqrt((err5^2 + 0.01 err3^2) N) is 0 / 0
        y = np.zeros(4)  # a packed 2 x 2 state
        sums = np.zeros((3, 4))
        sums[2, 2] = 2.5e-170  # delta3's entry (0, 0)
        assert _error_norm(sums, y, 1e-8, 1e-8, np.empty(3), np.empty((2, 3))) == 0.0

    @pytest.mark.parametrize("kernel", ["compiled", "sandwich"])
    def test_a_step_allocates_less_than_one_state(self, kernel, monkeypatch):
        # rk_stages writes every stage state, slope and sum into the pass's
        # workspace: between its right-hand-side calls (whose own
        # temporaries are the kernel's), the peak of traced memory over one
        # step stays below one packed state
        if kernel == "sandwich":
            monkeypatch.setattr(model_module, "COMPILE_MAX_NNZ", 0)
        model = preset_oat(4, 0.1)
        assert (model.superoperator is None) == (kernel == "sandwich")
        y = packing(16).pack(all_zero_density(4).matrix)
        work, scratch = _StageWork(y.shape), _scratch_rows(y.shape)
        rhs = _CountedRhs(model, np.array([0.8, 0.6]))
        work.stack[0] = y
        rhs(0.0, y, work.stack[1])
        rk_stages(rhs, 0.0, 0.05, work, scratch)  # the compiled S(x) is formed on a first call
        growth = []

        def f(t, state, out):
            growth.append(tracemalloc.get_traced_memory()[1] - start)
            rhs(t, state, out)
            tracemalloc.reset_peak()

        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rk_stages(f, 0.0, 0.05, work, scratch)
            growth.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert len(growth) == len(DOP853.c)
        assert max(growth) < y.nbytes

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameters_rejected_before_any_rhs_call(self, bad):
        model = preset_oat(2, gamma=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match="x"):
                integrate(model, np.array([bad, 0.5]), all_zero_density(2), (0.0, 1.0))
        assert counters.rhs_evaluations == 0

    @pytest.mark.parametrize(
        "x",
        [
            pytest.param(np.array([0.8 + 0.5j, 0.6]), id="complex"),
            pytest.param([0.8 + 0.5j, 0.6], id="complex-list"),
            pytest.param([True, False], id="bool"),
            pytest.param(["0.8", "0.6"], id="string"),
            pytest.param(np.array([0.8, None], dtype=object), id="object"),
            pytest.param([0.8, [0.6, 0.1]], id="ragged"),
        ],
    )
    def test_a_non_real_parameter_vector_is_rejected_before_any_rhs_call(self, x):
        # a cast to float would drop the imaginary part (a ComplexWarning), fail
        # with a bare TypeError, or read True as 1.0 and "0.8" as 0.8
        with pytest.raises(ValidationError, match="real numbers"):
            integrate(preset_oat(2, gamma=0.1), x, all_zero_density(2), (0.0, 1.0))
        assert counters.rhs_evaluations == 0

    def test_max_steps_exhaustion_raises(self):
        model = preset_oat(2)
        with pytest.raises(IntegrationError):
            integrate(
                model,
                np.array([0.5, 0.5]),
                all_zero_density(2),
                (0.0, 50.0),
                SolveConfig(max_steps=5),
            )

    def test_step_size_underflow_raises(self):
        with pytest.raises(IntegrationError, match="underflow"):
            integrate(
                preset_oat(2), np.array([0.5, 0.5]), all_zero_density(2), (0.0, 1.0), SolveConfig(initial_step=1e-20)
            )

    def test_raw_array_initial_state_is_validated(self):
        model = preset_oat(2, gamma=0.1)
        x = np.array([0.8, 0.6])
        rho0 = all_zero_density(2)
        # a trace error of 1e-7 is within the final state's tolerance, so
        # only the check of the initial array can catch it
        with pytest.raises(ValidationError, match="trace"):
            integrate(model, x, (1.0 + 1e-7) * rho0.matrix, (0.0, 1.0))
        from_array = integrate(model, x, rho0.matrix, (0.0, 1.0))
        assert np.array_equal(from_array.final_state.matrix, integrate(model, x, rho0, (0.0, 1.0)).final_state.matrix)

    def test_a_directly_built_state_is_validated_before_any_rhs_call(self, monkeypatch):
        # the constructor checks as from_matrix does: a non-Hermitian and an
        # indefinite matrix raise before the solve's first right-hand side
        calls, rhs = [], solver_module.lindblad_rhs

        def counted(*args, **kwargs):
            calls.append(1)
            return rhs(*args, **kwargs)

        monkeypatch.setattr(solver_module, "lindblad_rhs", counted)
        model, x = preset_oat(1, 0.1), np.array([0.8, 0.6])
        for matrix, message in (([[0.5, 0.3], [0, 0.5]], "not Hermitian"), ([[1.2, 0], [0, -0.2]], "eigenvalue")):
            with pytest.raises(ValidationError, match=message):
                integrate(model, x, DensityOperator(matrix=np.array(matrix, dtype=complex), n_qubits=1), (0.0, 1.0))
        assert calls == []
        integrate(model, x, DensityOperator(matrix=[[1.0, 0], [0, 0]], n_qubits=1), (0.0, 1.0))
        assert calls  # the wrapper sees a valid state's solve

    def test_each_state_of_a_solve_is_checked_once(self, monkeypatch):
        # one eigvalsh for a validated rho0 (at its construction) and one for rho(T)
        calls, eigvalsh = [], np.linalg.eigvalsh

        def counted(a):
            calls.append(1)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        model, x = preset_oat(2, 0.1), np.array([0.8, 0.6])
        rho0 = all_zero_density(2)
        assert len(calls) == 1
        integrate(model, x, rho0, (0.0, 1.0))
        assert len(calls) == 2
        integrate(model, x, rho0.matrix, (0.0, 1.0))
        assert len(calls) == 4

    def test_blown_up_stage_state_is_an_integration_error(self):
        # the stage states of a huge first step overflow; lindblad_rhs
        # rejects them, and the solve reports it as a numerical failure
        with pytest.raises(IntegrationError, match="non-finite state"):
            integrate(
                preset_oat(2), np.array([1e150, 1e150]), all_zero_density(2), (0.0, 1000.0),
                SolveConfig(initial_step=1000.0, max_steps=200),
            )

    def test_overflowing_stage_sums_are_an_integration_error(self):
        # finite slopes that no check rejects, whose weighted sums overflow: only
        # the finiteness test of the step's sums stops the solve
        def f(t, y, out=None):
            out = np.empty_like(y) if out is None else out
            out.fill(1e308)
            return out

        cfg = SolveConfig(initial_step=1.0, max_steps=50)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError, match="non-finite state produced"):
                _adaptive_core(f, np.zeros(4), 0.0, 1.0, cfg)

    def test_initial_state_of_another_dimension_is_rejected(self):
        with pytest.raises(ValidationError, match="initial state dimension 2"):
            integrate(preset_oat(2), np.zeros(2), all_zero_density(1), (0.0, 1.0))
        assert counters.rhs_evaluations == 0

    def test_overflowing_initial_slope_norm_is_an_integration_error(self):
        with pytest.raises(IntegrationError, match="initial slope"):
            integrate(preset_oat(2), np.array([1e150, 1e150]), all_zero_density(2), (0.0, 1.0))

    def test_bad_t_span_rejected(self):
        model = preset_oat(1)
        with pytest.raises(ValidationError):
            integrate(model, np.zeros(2), all_zero_density(1), (1.0, 1.0))
        with pytest.raises(ValidationError):
            integrate(model, np.zeros(2), all_zero_density(1), (2.0, 1.0))

    def test_non_hermitian_hamiltonian_rejected_before_any_rhs_call(self):
        # i*I commutes with every state, so only the boundary check stops the solve
        sched = HamiltonianSchedule(evaluate=lambda t, x: 1j * np.eye(2), n_params=0)
        model = LindbladModel(hamiltonian=sched, channels=(), dimension=2)
        with pytest.raises(ValidationError):
            integrate(model, np.zeros(0), PLUS, (0.0, 1.0))
        assert counters.rhs_evaluations == 0
        assert counters.forward_integrations == 0

    def test_overflowing_hamiltonian_rejected_before_any_rhs_call(self):
        # ||H||_F and ||H - H^dag||_F both overflow to inf, and inf <= tol * inf holds
        model = _static_model(np.array([[0.0, 1e200], [0.0, 0.0]], dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match="not Hermitian"):
                integrate(model, np.zeros(0), PLUS, (0.0, 1.0))
        assert counters.rhs_evaluations == 0

    def test_wrong_parameter_count_rejected(self):
        model = preset_oat(1)
        with pytest.raises(ValidationError):
            integrate(model, np.zeros(3), all_zero_density(1), (0.0, 1.0))

    def test_explicit_initial_step_is_honored_and_converges(self):
        model = preset_oat(2)
        x = np.array([0.6, 0.6])
        a = integrate(model, x, all_zero_density(2), (0.0, 1.0))
        b = integrate(
            model, x, all_zero_density(2), (0.0, 1.0), SolveConfig(initial_step=1e-3)
        )
        assert b.step_sizes[0] == 1e-3
        assert np.linalg.norm(a.final_state.matrix - b.final_state.matrix) < 1e-7


@functools.lru_cache(maxsize=None)
def _rooted_trees(order):
    """Every rooted tree with ``order`` nodes, as a sorted tuple of its subtrees."""
    if order == 1:
        return ((),)
    trees = set()
    for k in range(1, order):
        for child in _rooted_trees(k):
            for rest in _rooted_trees(order - k):
                trees.add(tuple(sorted(rest + (child,))))
    return tuple(sorted(trees))


def _size(tree):
    return 1 + sum(_size(sub) for sub in tree)


def _density(tree):
    """gamma(t) = |t| prod_i gamma(t_i) over the subtrees t_i."""
    return _size(tree) * np.prod([_density(sub) for sub in tree])


def _stage_weights(tree, a):
    """Per-stage elementary weights Phi_i(t) = prod over subtrees u of (A Phi(u))_i."""
    out = np.ones(a.shape[0])
    for sub in tree:
        out = out * (a @ _stage_weights(sub, a))
    return out


def _order_residuals(a, b, order):
    """b . Phi(t) - 1/gamma(t) for every rooted tree t with ``order`` nodes."""
    return [b @ _stage_weights(t, a) - 1.0 / _density(t) for t in _rooted_trees(order)]


class TestTableau:
    """The DOP853 pair as the stepper and the reverse pass read it."""

    ORDER = 8  # of b
    CONDITIONS = 200  # order conditions up to ORDER
    EMBEDDED = {"e": 5, "e3": 3}  # error-weight field -> order of b minus those weights

    def _dense(self):
        tab = DOP853
        s = len(tab.b)
        a = np.zeros((s, s))
        for i, row in enumerate(tab.a):
            assert len(row) == i
            a[i, :i] = row
        return tab, np.array(tab.c), a, np.array(tab.b)

    def test_tree_counts(self):
        assert [len(_rooted_trees(q)) for q in range(1, 9)] == [1, 1, 2, 4, 9, 20, 48, 115]

    def test_weights_satisfy_all_order_conditions(self):
        _, _, a, b = self._dense()
        residuals = [r for q in range(1, self.ORDER + 1) for r in _order_residuals(a, b, q)]
        assert len(residuals) == self.CONDITIONS
        assert np.max(np.abs(residuals)) < 1e-14
        assert np.max(np.abs(_order_residuals(a, b, self.ORDER + 1))) > 1e-6

    def test_embedded_weights_have_the_error_order_on_the_fsal_extension(self):
        # the stepper's last slope is f(t + h, y + h sum b_j k_j): one more
        # stage at node 1 whose row is b, weighted by e[-1] in the estimate
        tab, c, a, b = self._dense()
        s = b.shape[0]
        a_ext = np.zeros((s + 1, s + 1))
        a_ext[:s, :s] = a
        a_ext[s, :s] = b
        c_ext = np.append(c, 1.0)
        assert c_ext[s] == pytest.approx(a_ext[s].sum(), abs=1e-15)
        for name, q in self.EMBEDDED.items():
            e = np.array(getattr(tab, name))
            assert e.shape == (s + 1,)
            embedded = np.append(b, 0.0) - e
            residuals = [r for p in range(1, q + 1) for r in _order_residuals(a_ext, embedded, p)]
            assert np.max(np.abs(residuals)) < 1e-14
            # and not one order more: the estimate h sum e_i k_i is O(h^(q+1)), not zero
            assert np.max(np.abs(_order_residuals(a_ext, embedded, q + 1))) > 1e-6

    def test_estimates_do_not_weight_the_fsal_slope(self):
        # the stepper forms both estimates from the s stage slopes and
        # evaluates the FSAL slope only for an accepted step
        assert DOP853.e[-1] == 0.0 and DOP853.e3[-1] == 0.0

    def test_nodes_are_row_sums_and_error_weights_sum_to_zero(self):
        tab, c, a, _ = self._dense()
        assert c[0] == 0.0
        assert np.max(np.abs(a.sum(axis=1) - c)) < 1e-15
        for e in (tab.e, tab.e3):
            assert abs(np.sum(e)) < 1e-15


@pytest.mark.bit_identity
def test_dop853_literals_equal_scipy_bit_for_bit():
    coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")  # a private module
    s = coeffs.N_STAGES
    a = np.zeros((s, s))
    for i, row in enumerate(DOP853.a):
        a[i, :i] = row

    def same(ours, theirs):
        return np.asarray(ours, dtype=np.float64).tobytes() == np.ascontiguousarray(theirs).tobytes()

    assert same(DOP853.c, coeffs.C[:s])
    assert same(a, coeffs.A[:s, :s])
    assert same(DOP853.b, coeffs.A[s, :s])
    assert same(DOP853.e, coeffs.E5)
    assert same(DOP853.e3, coeffs.E3)
    # the weight table the stage and end products read, before h scales it
    assert same(_TABLEAU[:, 0], [1.0] * (s + 1) + [0.0, 0.0])
    assert same(_TABLEAU[:s, 1:], coeffs.A[:s, :s])
    assert same(_TABLEAU[s:, 1:], [coeffs.A[s, :s], coeffs.E5[:s], coeffs.E3[:s]])


def test_import_leaves_scipy_integrate_unloaded():
    # the tableau is literals: importing scipy.integrate would cost set-up time
    env = dict(os.environ, PYTHONPATH=str(Path(lindbladiff.__file__).parents[1]))
    code = "import sys, lindbladiff; print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# The benchmark's first three points at seed 1 (perfbench/workloads.py: points(1, 3)), and
# (accepted, rejected, rhs_evaluations) of preset_oat(n, 0.1) from |0...0> over each
# workload's span at rtol 1e-8, atol 1e-10, as the full-matrix solver counted them before
# the solver stepped on packed states; the packed error norm must keep every count.
BENCHMARK_POINTS = (
    (0.7979832773156491, -0.8391059715305564),
    (1.1385149636924656, -0.46393588566911664),
    (0.40423419862598303, 1.164686854591179),
)
BENCHMARK_COUNTS = {
    (3, 1.0): [(13, 0, 158), (11, 0, 134), (15, 0, 182)],
    (4, 10.0): [(85, 0, 1022), (86, 0, 1034), (86, 0, 1034)],
    (5, 1.0): [(17, 0, 206), (16, 0, 194), (17, 0, 206)],
    (6, 6.0): [(77, 0, 926), (80, 0, 962), (70, 0, 842)],
}


@pytest.mark.bit_identity
@pytest.mark.parametrize("n, t_end", list(BENCHMARK_COUNTS), ids=[f"n{n}" for n, _ in BENCHMARK_COUNTS])
def test_step_counts_at_benchmark_points_are_pinned(n, t_end):
    model, rho0 = preset_oat(n, 0.1), all_zero_density(n)
    cfg = SolveConfig(rtol=1e-8, atol=1e-10)
    counts = []
    for x in BENCHMARK_POINTS:
        stats = integrate(model, np.array(x), rho0, (0.0, t_end), cfg).stats
        counts.append((stats.accepted, stats.rejected, stats.rhs_evaluations))
    assert counts == BENCHMARK_COUNTS[(n, t_end)]


@pytest.mark.bit_identity
@pytest.mark.parametrize("kernel", ["compiled", "sandwich"])
def test_every_stored_state_round_trips_through_its_packed_form(kernel, monkeypatch):
    # every state a solve stores is packed: a checkpoint, a kept stack's rows,
    # a tape row's and rho(T)'s matrix; each unpacks to a bitwise Hermitian
    # matrix with a +0.0 imaginary diagonal whose packed form is itself, and
    # unpack(pack(X)) is bit-equal to X
    if kernel == "sandwich":
        monkeypatch.setattr(model_module, "COMPILE_MAX_NNZ", 0)
    model = preset_oat(2, 0.1)
    assert (model.superoperator is None) == (kernel == "sandwich")
    pack = packing(4)
    kept = integrate(model, np.array([0.8, 0.6]), all_zero_density(2), (0.0, 40.0), keep_stages=True)
    assert 0 < len(kept.packed_stages) < kept.stats.accepted
    taped = integrate(model, np.array([0.8, 0.6]), all_zero_density(2), (0.0, 1.0), SolveConfig(checkpoints=4))
    tape = np.empty((3, len(DOP853.c), 16))
    i_a = taped.packed_checkpoints[1][0]
    assert i_a + 3 <= taped.stats.accepted
    dense_segment(taped, (i_a, i_a + 3), tape=tape)
    stored = [r for res in (kept, taped) for _, r in res.packed_checkpoints]
    stored += [row for stack in (*kept.packed_stages, *tape) for row in stack]
    for r in stored:
        x = pack.unpack(r)
        assert np.array_equal(x, x.conj().T) and not np.any(np.signbit(np.diag(x).imag))
        assert np.array_equal(pack.pack(x), r) and np.array_equal(pack.unpack(pack.pack(x)), x)
    for res in (kept, taped):
        rho = res.final_state.matrix
        assert np.array_equal(pack.unpack(pack.pack(rho)), rho)
        assert np.array_equal(pack.pack(rho), res.packed_checkpoints[-1][1])
        assert res.stats.hermiticity_drift == 0.0
