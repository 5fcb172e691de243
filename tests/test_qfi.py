"""Spectral figure of merit: values, cotangent, end-to-end gradient."""

import importlib
import warnings

import numpy as np
import pytest

from oracles import fd_gradient, qfi_reference, qfi_sld_reference, random_density, random_hermitian
from lindbladiff.eigen import eigh
from lindbladiff.errors import IntegrationError, LindbladiffError, ValidationError
from lindbladiff.instrumentation import counters
from lindbladiff.model import DensityOperator, all_zero_density, preset_oat
from lindbladiff.qfi import (
    CLIP_TOL,
    Generator,
    QfiReport,
    generator_from_preset,
    qfi,
    qfi_of_params,
    qfi_rho_cotangent,
)
from lindbladiff.solver import DOP853, SolveConfig
from lindbladiff.spins import PAULI_Z, collective_sz

PLUS = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
TIGHT = SolveConfig(rtol=1e-10, atol=1e-12)


def _ghz(n):
    d = 2**n
    rho = np.zeros((d, d), dtype=complex)
    for i in (0, d - 1):
        for j in (0, d - 1):
            rho[i, j] = 0.5
    return rho


class TestGenerator:
    def test_validates_hermiticity_and_shape(self):
        with pytest.raises(ValidationError):
            Generator(np.array([[0, 1], [0, 0]], dtype=complex))
        # finite, but its norm and defect overflow to inf, and inf <= tol * inf holds
        with pytest.raises(ValidationError, match="not Hermitian"):
            Generator(np.array([[0, 1e200], [0, 0]], dtype=complex))
        with pytest.raises(ValidationError):
            Generator(np.ones((2, 3)))
        g = Generator(0.5 * PAULI_Z, name="Jz")
        assert g.dimension == 2 and g.name == "Jz"

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad, entry):
        g = np.zeros((2, 2), dtype=complex)
        g[entry] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            Generator(g)

    def test_preset_is_collective_sz(self):
        g = generator_from_preset("Sz", 3)
        assert np.array_equal(g.dense, collective_sz(3))
        with pytest.raises(ValidationError):
            generator_from_preset("Sy", 2)


class TestValues:
    def test_plus_state_half_sigma_z(self):
        rep = qfi(eigh(PLUS), Generator(0.5 * PAULI_Z))
        assert rep.value == pytest.approx(0.25, abs=1e-12)
        oracle = qfi_reference(PLUS, 0.5 * PAULI_Z).value
        assert rep.value == pytest.approx(oracle["F"], abs=1e-12)

    def test_two_qubit_ghz_with_collective_sz(self):
        rho = _ghz(2)
        g = generator_from_preset("Sz", 2)
        rep = qfi(eigh(rho), g)
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.skipped_pairs == 3
        oracle = qfi_reference(rho, g.dense).value
        assert rep.value == pytest.approx(oracle["F"], abs=1e-12)
        assert rep.skipped_pairs == oracle["skipped_pairs"]

    def test_zero_for_commuting_state_and_generator(self):
        rho = np.diag([0.2, 0.8]).astype(complex)
        assert qfi(eigh(rho), Generator(PAULI_Z.copy())).value == pytest.approx(0.0, abs=1e-15)

    def test_zero_for_maximally_mixed(self):
        rep = qfi(eigh(0.5 * np.eye(2, dtype=complex)), Generator(0.5 * PAULI_Z))
        assert rep.value == 0.0

    def test_zero_for_identity_generator(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 4)
        rep = qfi(eigh(rho), Generator(np.eye(4, dtype=complex)))
        assert rep.value == pytest.approx(0.0, abs=1e-24)

    def test_pure_state_equals_generator_variance(self):
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        g = random_hermitian(rng, 4)
        var = (psi.conj() @ g @ g @ psi - (psi.conj() @ g @ psi) ** 2).real
        rep = qfi(eigh(rho), Generator(g))
        assert rep.value == pytest.approx(var, rel=1e-10)

    def test_matches_oracle_on_random_mixed_states(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = random_density(rng, 4)
            g = random_hermitian(rng, 4)
            rep = qfi(eigh(rho), Generator(g))
            assert rep.value == pytest.approx(qfi_reference(rho, g).value["F"], rel=1e-9)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_matches_sld_reference_on_full_rank_states(self, d):
        rng = np.random.default_rng(30 + d)
        for _ in range(5):
            rho = random_density(rng, d)
            g = random_hermitian(rng, d)
            rep = qfi(eigh(rho), Generator(g))
            assert rep.value == pytest.approx(qfi_sld_reference(rho, g).value, rel=1e-10)

    def test_gauge_phase_randomization_invariance(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 4)
        g = random_hermitian(rng, 4)
        base = qfi(eigh(rho), Generator(g)).value
        # conjugating by a diagonal phase unitary rephases every eigenvector
        for _ in range(5):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            u = np.diag(phases)
            rotated = u @ rho @ u.conj().T
            g_rot = u @ g @ u.conj().T
            assert abs(qfi(eigh(rotated), Generator(g_rot)).value - base) < 1e-12

    def test_clipping_policy(self):
        slight = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        rep = qfi(eigh(slight), Generator(0.5 * PAULI_Z))
        assert np.isfinite(rep.value) and rep.value >= 0.0
        bad = np.diag([1.0 + 2 * CLIP_TOL, -2 * CLIP_TOL]).astype(complex)
        with pytest.raises(ValidationError):
            qfi(eigh(bad), Generator(0.5 * PAULI_Z))

    def test_display_multiplier_only_affects_display(self):
        rep = qfi(eigh(PLUS), Generator(0.5 * PAULI_Z), times_four=True)
        assert rep.value == pytest.approx(0.25, abs=1e-12)
        assert rep.display_multiplier == 4.0
        assert rep.display_value == pytest.approx(1.0, abs=1e-12)
        assert rep.convention == "variance-x4"
        assert qfi(eigh(PLUS), Generator(0.5 * PAULI_Z)).convention == "variance"

    def test_generator_dimension_must_match_the_state(self):
        decomp = eigh(_ghz(2))
        g = generator_from_preset("Sz", 1)
        with pytest.raises(ValidationError, match="generator dimension"):
            qfi(decomp, g)
        with pytest.raises(ValidationError, match="generator dimension"):
            qfi_rho_cotangent(decomp, g)

    def test_report_json_keys(self):
        rep = qfi(eigh(PLUS), Generator(0.5 * PAULI_Z))
        js = rep.to_json()
        for key in ("F", "grad", "skipped_pairs", "clusters", "convention", "display_multiplier"):
            assert key in js


class TestCotangent:
    def _directional_check(self, rho, g, probe, rel=1e-6, abs_tol=1e-9):
        probe = probe / np.linalg.norm(probe)
        cot = qfi_rho_cotangent(eigh(rho), Generator(g))
        analytic = np.sum(cot.conj() * probe).real
        h = 1e-6
        fp = qfi(eigh(rho + h * probe), Generator(g)).value
        fm = qfi(eigh(rho - h * probe), Generator(g)).value
        fd = (fp - fm) / (2 * h)
        assert analytic == pytest.approx(fd, rel=rel, abs=abs_tol)

    def test_mixed_state_directional_fd(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 4)
        g = random_hermitian(rng, 4)
        k_op = random_hermitian(rng, 4)
        self._directional_check(rho, g, 1j * (k_op @ rho - rho @ k_op))
        a = random_hermitian(rng, 4)
        congr = rho @ a @ rho
        congr = congr - np.trace(congr).real * rho
        self._directional_check(rho, g, congr)

    def test_degenerate_maximally_mixed_cotangent_is_zero_direction(self):
        g = random_hermitian(np.random.default_rng(6), 4)
        rho = 0.25 * np.eye(4, dtype=complex)
        cot = qfi_rho_cotangent(eigh(rho), Generator(g))
        k_op = random_hermitian(np.random.default_rng(7), 4)
        probe = 1j * (k_op @ rho - rho @ k_op)
        # at the maximally mixed state every commutator derivative vanishes
        assert np.max(np.abs(probe)) < 1e-15 or abs(np.sum(cot.conj() * probe).real) < 1e-10

    def test_depolarized_pure_state_directional_fd(self):
        rng = np.random.default_rng(8)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        rho = 0.99 * np.outer(psi, psi.conj()) + 0.01 * np.eye(4) / 4
        g = random_hermitian(rng, 4)
        k_op = random_hermitian(rng, 4)
        self._directional_check(rho, g, 1j * (k_op @ rho - rho @ k_op), rel=1e-5)

    def test_cotangent_is_hermitian(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 4)
        cot = qfi_rho_cotangent(eigh(rho), Generator(random_hermitian(rng, 4)))
        assert np.linalg.norm(cot - cot.conj().T) < 1e-12


class TestOfParams:
    def test_value_composes_pipeline(self):
        from lindbladiff.solver import integrate

        model = preset_oat(2, gamma=0.1)
        x = np.array([0.8, 0.5])
        rho0 = all_zero_density(2)
        g = generator_from_preset("Sz", 2)
        rep = qfi_of_params(model, x, rho0, (0.0, 1.0), g, TIGHT)
        rho_t = integrate(model, x, rho0, (0.0, 1.0), TIGHT).final_state.matrix
        assert rep.value == qfi(eigh(rho_t), g).value
        assert rep.gradient is None

    def test_gradient_matches_fd(self):
        model = preset_oat(2, gamma=0.1)
        x = np.array([0.8, 0.5])
        rho0 = all_zero_density(2)
        g = generator_from_preset("Sz", 2)
        rep = qfi_of_params(model, x, rho0, (0.0, 1.0), g, TIGHT, want_gradient=True)

        def f(xv):
            return qfi_of_params(model, xv, rho0, (0.0, 1.0), g, TIGHT).value

        fd = fd_gradient(f, x, 1e-6).value
        scale = max(1.0, float(np.max(np.abs(rep.gradient))))
        assert np.max(np.abs(rep.gradient - fd)) < 1e-4 * scale

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("n", [3, 5])
    def test_gradient_is_bit_identical_across_checkpoint_budgets(self, n):
        # 4 and 9 checkpoints keep no stage stack and replay multi-step
        # segments, taping all but each one's last step, which alone
        # recomputes; the default budget keeps every step's stage states
        model, x, rho0 = preset_oat(n, 0.1), np.array([0.8, 0.6]), all_zero_density(n)
        g = generator_from_preset("Sz", n)
        reports, recomputed = [], []
        for k in (None, 4, 9):
            counters.reset()
            reports.append(qfi_of_params(model, x, rho0, (0.0, 1.0), g, SolveConfig(checkpoints=k), want_gradient=True))
            recomputed.append(counters.snapshot()["adjoint_rhs_evaluations"])
        s = len(DOP853.c)
        assert recomputed == [0] + [(s - 1) * r.diagnostics["adjoint"]["segments"] for r in reports[1:]]
        assert [r.diagnostics["adjoint"]["longest_segment"] > 1 for r in reports] == [False, True, True]
        for r in reports[1:]:
            assert r.value == reports[0].value
            assert np.array_equal(r.gradient, reports[0].gradient)

    def test_gradient_eval_is_one_forward_one_adjoint(self):
        model = preset_oat(2)
        counters.reset()
        qfi_of_params(
            model,
            np.array([0.8, 0.5]),
            all_zero_density(2),
            (0.0, 1.0),
            generator_from_preset("Sz", 2),
            SolveConfig(),
            want_gradient=True,
        )
        snap = counters.snapshot()
        assert snap["forward_integrations"] == 1
        assert snap["adjoint_passes"] == 1

    def test_gradient_decomposes_each_state_once(self, monkeypatch):
        # the package re-exports functions named eigh and qfi, which shadow
        # the submodules as attributes of lindbladiff
        eigen_mod = importlib.import_module("lindbladiff.eigen")
        qfi_mod = importlib.import_module("lindbladiff.qfi")
        inputs = []
        original = eigen_mod.eigh

        def recording_eigh(rho, **kwargs):
            inputs.append(np.array(rho, dtype=complex).tobytes())
            return original(rho, **kwargs)

        monkeypatch.setattr(eigen_mod, "eigh", recording_eigh)
        monkeypatch.setattr(qfi_mod, "eigh", recording_eigh)
        qfi_of_params(
            preset_oat(2),
            np.array([0.8, 0.5]),
            all_zero_density(2),
            (0.0, 1.0),
            generator_from_preset("Sz", 2),
            SolveConfig(),
            want_gradient=True,
        )
        assert inputs
        assert len(set(inputs)) == len(inputs)

    def test_dissipation_degrades_the_figure_of_merit(self):
        x = np.array([np.pi, np.pi * np.sqrt(3) / 2])
        rho0 = all_zero_density(2)
        g = generator_from_preset("Sz", 2)
        clean = qfi_of_params(preset_oat(2), x, rho0, (0.0, 1.0), g, TIGHT).value
        noisy = qfi_of_params(preset_oat(2, gamma=0.1), x, rho0, (0.0, 1.0), g, TIGHT).value
        assert noisy < clean
        assert clean == pytest.approx(1.0, abs=1e-6)

    def test_errors_carry_stage_tag(self):
        model = preset_oat(2)
        with pytest.raises(LindbladiffError) as exc:
            qfi_of_params(
                model,
                np.array([0.5, 0.5]),
                all_zero_density(2),
                (0.0, 50.0),
                generator_from_preset("Sz", 2),
                SolveConfig(max_steps=5),
            )
        assert getattr(exc.value, "stage", None) == "integrate"

    def test_adjoint_failure_is_tagged_gradient(self, monkeypatch):
        # the adjoint pass runs after the value is known, under its own tag
        def fail(result, cost):
            raise IntegrationError("reverse pass failed")

        monkeypatch.setattr(importlib.import_module("lindbladiff.qfi"), "adjoint_gradient", fail)
        with pytest.raises(IntegrationError) as exc:
            qfi_of_params(
                preset_oat(2), np.array([0.5, 0.5]), all_zero_density(2), (0.0, 1.0),
                generator_from_preset("Sz", 2), want_gradient=True,
            )
        assert exc.value.stage == "gradient"

    @pytest.mark.parametrize(
        "t_end, cfg", [(1000.0, SolveConfig(initial_step=1000.0, max_steps=200)), (1.0, SolveConfig())]
    )
    def test_blown_up_solve_is_an_integration_error_at_stage_integrate(self, t_end, cfg):
        # a stage state that overflows, and an initial slope whose norm does
        with pytest.raises(IntegrationError) as exc:
            qfi_of_params(
                preset_oat(2), np.array([1e150, 1e150]), all_zero_density(2), (0.0, t_end),
                generator_from_preset("Sz", 2), cfg,
            )
        assert exc.value.stage == "integrate"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameters_rejected_before_any_rhs_call(self, bad):
        g = generator_from_preset("Sz", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for want_gradient in (False, True):
                with pytest.raises(ValidationError, match="parameter vector x"):
                    qfi_of_params(
                        preset_oat(2, 0.1), np.array([bad, 0.5]), all_zero_density(2), (0.0, 1.0), g,
                        want_gradient=want_gradient,
                    )
        assert counters.rhs_evaluations == 0

    def test_report_validation(self):
        with pytest.raises(ValidationError):
            QfiReport(value=-0.5, gradient=None, skipped_pairs=0, clusters=((0,),), min_gap=1.0)
        with pytest.raises(ValidationError):
            QfiReport(
                value=0.5,
                gradient=np.array([np.nan]),
                skipped_pairs=0,
                clusters=((0,),),
                min_gap=1.0,
            )
