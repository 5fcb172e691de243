"""Gradient ascent with Armijo backtracking and the gradient cross-check."""

import importlib
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from lindbladiff.errors import CostGradientError, IntegrationError, ValidationError
from lindbladiff.instrumentation import counters
from lindbladiff.model import (
    DensityOperator,
    HamiltonianSchedule,
    LindbladModel,
    all_zero_density,
    preset_oat,
)
from lindbladiff.optimize import OptConfig, OptTrace, gradient_check, maximize, maximize_qfi
from lindbladiff.qfi import Generator, generator_from_preset, qfi_of_params
from lindbladiff.solver import SolveConfig
from lindbladiff.spins import PAULI_X, PAULI_Z

FAST = SolveConfig(rtol=1e-8, atol=1e-10)


def _quadratic(a):
    def objective(x):
        return -float(np.sum((x - a) ** 2)), lambda: -2.0 * (x - a)

    return objective


class TestOptConfig:
    def test_defaults(self):
        cfg = OptConfig()
        assert cfg.max_iterations == 200
        assert cfg.initial_step == 0.1
        assert cfg.backtracking_factor == 0.5
        assert cfg.armijo_constant == 1e-4
        assert cfg.grad_tolerance == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"initial_step": 0.0},
            {"backtracking_factor": 1.0},
            {"backtracking_factor": 0.0},
            {"armijo_constant": -1.0},
            {"grad_tolerance": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            OptConfig(**kwargs)

    @pytest.mark.parametrize("field", ["initial_step", "armijo_constant", "grad_tolerance"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_float_fields_reject_non_finite_values(self, field, bad):
        with pytest.raises(ValidationError) as err:
            OptConfig(**{field: bad})
        assert err.value.path == f"/{field}"

    @pytest.mark.parametrize("field", ["max_iterations", "seed"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
    def test_integer_fields_reject_non_integers(self, field, bad):
        with pytest.raises(ValidationError) as err:
            OptConfig(**{field: bad})
        assert err.value.path == f"/{field}"

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ValidationError) as err:
            OptConfig(seed=-1)
        assert err.value.path == "/seed"
        assert OptConfig(seed=0).seed == 0


class TestMaximize:
    def test_quadratic_surrogate_converges(self):
        a = np.array([0.3, -1.2, 0.7])
        x0 = a + np.array([0.6, -0.5, 0.3])
        xs, trace = maximize(_quadratic(a), x0, OptConfig(max_iterations=100))
        assert trace.status == "converged"
        assert np.linalg.norm(xs - a) < 1e-4
        assert len(trace.iterates) <= 100

    def test_accepted_values_strictly_increase(self):
        a = np.array([1.0, 2.0])
        _, trace = maximize(_quadratic(a), np.zeros(2), OptConfig(max_iterations=50))
        values = [it.value for it in trace.iterates]
        # the terminal row repeats the last accepted point; before it, ascent is strict
        assert all(b > v for v, b in zip(values[:-1], values[1:]))

    def test_zero_gradient_start_converges_immediately(self):
        a = np.array([0.5, 0.5])
        xs, trace = maximize(_quadratic(a), a.copy(), OptConfig())
        assert trace.status == "converged"
        assert len(trace.iterates) == 1
        assert trace.evaluations == 1
        assert np.array_equal(xs, a)

    def test_line_search_failure_after_thirty_halvings(self):
        def capped(x):
            # reported gradient points uphill of a hard-capped objective
            return min(float(x[0]), 1.0), lambda: np.array([1.0])

        xs, trace = maximize(capped, np.array([1.0]), OptConfig(initial_step=1.0))
        assert trace.status == "line-search-failure"
        assert trace.evaluations == 1 + 31  # the start point + 31 trials
        assert xs[0] == 1.0  # best accepted iterate is returned

    def test_trace_counts_every_objective_call(self):
        calls = {"n": 0}
        a = np.array([0.4])

        def counted(x):
            calls["n"] += 1
            return _quadratic(a)(x)

        _, trace = maximize(counted, np.array([1.4]), OptConfig(max_iterations=30))
        assert trace.evaluations == calls["n"]
        assert trace.iterates[-1].evaluations == calls["n"]

    def test_no_earlier_point_is_alive_at_the_next_objective_call(self):
        # the gradient callable holds its point's solve, so a rejected trial's
        # and a differentiated point's must both be gone by the next call
        handed_out = []
        alive_at_call = []

        def objective(x):
            alive_at_call.append(sum(ref() is not None for ref in handed_out))

            def gradient():
                return np.array([-2.0 * x[0], -20.0 * x[1]])

            handed_out.append(weakref.ref(gradient))
            return -float(x[0] ** 2 + 10.0 * x[1] ** 2), gradient

        _, trace = maximize(objective, np.array([1.0, 1.0]), OptConfig(max_iterations=5, initial_step=0.8))
        accepted = sum(1 for it in trace.iterates if it.step > 0.0)
        assert accepted == 5 and trace.evaluations - 1 - accepted > 0  # both kinds of trial occur
        assert alive_at_call == [0] * trace.evaluations

    @pytest.mark.bit_identity
    def test_fixed_seed_trace_is_bit_identical(self):
        model = preset_oat(2)
        rho0 = all_zero_density(2)
        g = generator_from_preset("Sz", 2)
        runs = []
        for _ in range(2):
            _, trace = maximize_qfi(
                model, None, rho0, (0.0, 1.0), g, FAST, OptConfig(max_iterations=5, seed=11)
            )
            runs.append(trace)
        t1, t2 = runs
        assert len(t1.iterates) == len(t2.iterates)
        for a, b in zip(t1.iterates, t2.iterates):
            assert np.array_equal(a.x, b.x)
            assert a.value == b.value and a.grad_norm == b.grad_norm and a.step == b.step

    @pytest.mark.bit_identity
    def test_ascent_of_four_f_is_the_ascent_of_f_with_rescaled_steps(self):
        # the 4F ascent a caller may want is maximize_qfi's with initial_step x 4
        # and grad_tolerance / 4: every scaling by 4 is exact in floating point
        model = preset_oat(2)
        rho0 = all_zero_density(2)
        g = generator_from_preset("Sz", 2)

        def four_f(x):
            rep = qfi_of_params(model, x, rho0, (0.0, 1.0), g, FAST, want_gradient=True)
            return 4.0 * rep.value, lambda: 4.0 * rep.gradient

        cfg = OptConfig(max_iterations=6, seed=7, initial_step=0.1, grad_tolerance=1e-6)
        x0 = np.random.default_rng(cfg.seed).uniform(-np.pi, np.pi, model.n_params)
        _, scaled = maximize(four_f, x0, cfg)
        rescaled = replace(cfg, initial_step=4 * cfg.initial_step, grad_tolerance=cfg.grad_tolerance / 4)
        _, plain = maximize_qfi(model, None, rho0, (0.0, 1.0), g, FAST, rescaled)
        assert len(plain.iterates) == len(scaled.iterates)
        for a, b in zip(plain.iterates, scaled.iterates):
            assert np.array_equal(a.x, b.x)
            assert b.value == 4.0 * a.value and b.step == a.step / 4

    def test_trace_validates_monotonicity(self):
        it = dict(iteration=0, x=np.zeros(1), grad_norm=1.0, step=0.1, evaluations=1)
        from lindbladiff.optimize import OptIterate

        rows = (
            OptIterate(value=1.0, **it),
            OptIterate(value=0.5, **{**it, "iteration": 1}),
        )
        with pytest.raises(ValidationError):
            OptTrace(iterates=rows, status="max-iters", evaluations=2)


class TestMaximizeQfi:
    def test_seeded_initialization_in_range(self):
        model = preset_oat(2)
        _, trace = maximize_qfi(
            model,
            None,
            all_zero_density(2),
            (0.0, 1.0),
            generator_from_preset("Sz", 2),
            FAST,
            OptConfig(max_iterations=1, seed=123),
        )
        x0 = trace.iterates[0].x
        assert np.all(np.abs(x0) <= np.pi)
        expect = np.random.default_rng(123).uniform(-np.pi, np.pi, 2)
        assert np.array_equal(x0, expect)

    def test_explicit_start_is_respected(self):
        model = preset_oat(2)
        start = np.array([0.2, 0.3])
        _, trace = maximize_qfi(
            model,
            start,
            all_zero_density(2),
            (0.0, 1.0),
            generator_from_preset("Sz", 2),
            FAST,
            OptConfig(max_iterations=1, seed=0),
        )
        assert np.array_equal(trace.iterates[0].x, start)

    @pytest.mark.parametrize(
        "x0",
        [[0.8 + 0.5j, 0.6], [True, False], ["0.8", "0.6"], np.array([0.8, None], dtype=object)],
        ids=["complex", "bool", "string", "object"],
    )
    def test_a_non_real_start_is_rejected_before_any_solve(self, x0):
        g = generator_from_preset("Sz", 2)
        with pytest.raises(ValidationError, match="real numbers"):
            maximize_qfi(preset_oat(2), x0, all_zero_density(2), (0.0, 1.0), g, FAST, OptConfig(max_iterations=1))
        with pytest.raises(ValidationError, match="real numbers"):
            maximize(_quadratic(np.zeros(2)), x0, OptConfig(max_iterations=1))
        with pytest.raises(ValidationError, match="real numbers"):
            gradient_check(preset_oat(2), x0, all_zero_density(2), (0.0, 1.0), g, FAST)
        assert counters.forward_integrations == 0

    def test_forward_and_adjoint_counts_match_trace(self, monkeypatch):
        # one forward solve per objective call, and one adjoint pass over the
        # solves of the start point and of each accepted trial, never over a
        # rejected one; initial_step=5.0 makes the line search backtrack
        differentiated = []

        def adjoint_gradient(result, cost):
            differentiated.append(result.x.tobytes())
            return real_adjoint_gradient(result, cost)

        qfi_module = importlib.import_module("lindbladiff.qfi")  # the package's ``qfi`` is the function
        real_adjoint_gradient = qfi_module.adjoint_gradient
        monkeypatch.setattr(qfi_module, "adjoint_gradient", adjoint_gradient)
        rejected = []
        for opt in (OptConfig(max_iterations=4, seed=0), OptConfig(max_iterations=4, seed=0, initial_step=5.0)):
            counters.reset()
            differentiated.clear()
            _, trace = maximize_qfi(
                preset_oat(2),
                np.array([0.5, 0.5]),
                all_zero_density(2),
                (0.0, 1.0),
                generator_from_preset("Sz", 2),
                FAST,
                opt,
            )
            snap = counters.snapshot()
            accepted = sum(1 for it in trace.iterates if it.step > 0.0)
            assert snap["forward_integrations"] == trace.evaluations
            assert snap["adjoint_passes"] == 1 + accepted
            assert differentiated == [it.x.tobytes() for it in trace.iterates]
            rejected.append(trace.evaluations - 1 - accepted)
        assert rejected[0] == 0 and rejected[1] > 0
        assert trace.evaluations == 8

    @pytest.mark.bit_identity
    def test_reused_solve_differentiates_like_a_fresh_one(self):
        model, rho0, g = preset_oat(2, 0.1), all_zero_density(2), generator_from_preset("Sz", 2)
        _, trace = maximize_qfi(model, None, rho0, (0.0, 1.0), g, FAST, OptConfig(max_iterations=4, seed=3))
        assert len(trace.iterates) == 5
        for it in trace.iterates:
            fresh = qfi_of_params(model, it.x, rho0, (0.0, 1.0), g, FAST, want_gradient=True)
            assert it.grad_norm == np.linalg.norm(fresh.gradient)

    def test_failed_start_solve_is_tagged_integrate(self):
        with pytest.raises(IntegrationError) as err:
            maximize_qfi(
                preset_oat(2),
                np.array([1e150, 1e150]),
                all_zero_density(2),
                (0.0, 1.0),
                generator_from_preset("Sz", 2),
                FAST,
                OptConfig(max_iterations=1),
            )
        assert err.value.stage == "integrate"


class TestGradientCheck:
    def test_phase_model_closed_form(self):
        def evaluate(t, x):
            return x[0] * 0.5 * PAULI_Z

        model = LindbladModel(
            hamiltonian=HamiltonianSchedule(
                evaluate=evaluate, n_params=1, derivative=lambda t, x, k: 0.5 * PAULI_Z
            ),
            channels=(),
            dimension=2,
        )
        plus = DensityOperator.from_matrix(0.5 * np.array([[1, 1], [1, 1]], dtype=complex))
        g = Generator(0.5 * PAULI_X.astype(complex))
        t1, x0 = 1.3, 0.8
        report = gradient_check(
            model, np.array([x0]), plus, (0.0, t1), g, SolveConfig(rtol=1e-10, atol=1e-12)
        )
        assert report["pass"] and report["max_rel_error"] < 1e-6
        closed = t1 * np.sin(2 * x0 * t1) / 4.0
        assert report["parameters"][0]["adjoint"] == pytest.approx(closed, rel=1e-6)

    def test_dissipative_oat_passes(self):
        report = gradient_check(
            preset_oat(3, gamma=0.05),
            np.array([0.7, 0.4]),
            all_zero_density(3),
            (0.0, 1.0),
            generator_from_preset("Sz", 3),
            SolveConfig(rtol=1e-10, atol=1e-12),
            h=1e-5,
        )
        assert report["pass"]
        assert report["max_rel_error"] < 1e-4
        assert {p["index"] for p in report["parameters"]} == {0, 1}
        for p in report["parameters"]:
            assert set(p) == {"index", "adjoint", "forward", "fd", "rel_error"}
        probes = report["cost_verification"]["probes"]
        assert probes and all(set(p) == {"analytic", "fd"} for p in probes)

    def test_a_broken_qfi_gradient_rule_raises(self, monkeypatch):
        # the forward route checks its QFI cost at rho(T); a doubled eigendecomposition
        # pullback breaks the cost's gradient rule, which the adjoint pass alone would trust
        qfi_module = sys.modules["lindbladiff.qfi"]
        original = qfi_module.eig_vjp
        monkeypatch.setattr(qfi_module, "eig_vjp", lambda *args: 2.0 * original(*args))
        with pytest.raises(CostGradientError, match="qfi"):
            gradient_check(
                preset_oat(2, 0.1),
                np.array([0.8, 0.6]),
                all_zero_density(2),
                (0.0, 1.0),
                generator_from_preset("Sz", 2),
                FAST,
            )
        # the adjoint route ran through; the check came with the joint forward solve
        assert counters.adjoint_passes == 1 and counters.forward_integrations == 2

    def test_forward_route_is_one_joint_solve(self):
        # one solve for the adjoint, one joint tangent solve for all p
        # parameters, and two per parameter for the central differences
        p = 2
        report = gradient_check(
            preset_oat(2, 0.1),
            np.array([0.8, 0.6]),
            all_zero_density(2),
            (0.0, 1.0),
            generator_from_preset("Sz", 2),
            FAST,
        )
        assert report["pass"]
        assert counters.forward_integrations == 2 + 2 * p

    @pytest.mark.parametrize("kwargs", [{"h": np.inf}, {"h": np.nan}, {"tol": np.inf}, {"tol": np.nan}])
    def test_rejects_non_finite_step_or_tolerance_before_any_solve(self, kwargs):
        # an infinite step would fail deep inside integrate, and an infinite
        # tolerance would pass every check
        with pytest.raises(ValidationError) as err:
            gradient_check(
                preset_oat(2),
                np.array([0.5, 0.5]),
                all_zero_density(2),
                (0.0, 1.0),
                generator_from_preset("Sz", 2),
                FAST,
                **kwargs,
            )
        assert err.value.path == "/" + next(iter(kwargs))
        assert counters.forward_integrations == 0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValidationError):
            gradient_check(
                preset_oat(2),
                np.array([0.5, 0.5]),
                all_zero_density(2),
                (0.0, 1.0),
                generator_from_preset("Sz", 2),
                FAST,
                h=0.0,
            )
