"""Self-checks for the reference oracles before they judge anything else."""

import numpy as np
import pytest
import scipy.linalg

from oracles import (
    OracleResult,
    block_exp_tangent,
    dense_eig_fd,
    expm_propagate,
    fd_gradient,
    qfi_reference,
    random_density,
    random_hermitian,
    rk4_lindblad,
    taylor_expm,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0 + 0j, -1.0])
PLUS = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)


def test_expm_zero_hamiltonian_is_identity_map():
    rho0 = np.diag([0.25, 0.75]).astype(complex)
    res = expm_propagate(np.zeros((2, 2)), rho0, 3.7)
    assert res.method == "matrix-exponential"
    assert np.array_equal(res.value, rho0) or np.allclose(res.value, rho0, atol=1e-15)


def test_expm_half_sigma_z_pi_flips_coherence_sign():
    res = expm_propagate(0.5 * SZ, PLUS, np.pi)
    assert res.value[0, 1] == pytest.approx(-0.5, abs=1e-13)
    assert res.value[1, 0] == pytest.approx(-0.5, abs=1e-13)


def test_expm_unitarity():
    rng = np.random.default_rng(11)
    for _ in range(5):
        h = random_hermitian(rng, 4)
        u = taylor_expm(-1j * 2.0 * h)
        assert np.linalg.norm(u @ u.conj().T - np.eye(4)) < 1e-12


def test_taylor_expm_matches_scipy():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.linalg.norm(taylor_expm(a) - scipy.linalg.expm(a)) < 1e-12


def test_fd_gradient_quadratic():
    res = fd_gradient(lambda x: float(np.sum(x**2)), np.array([1.0, 2.0]), 1e-6)
    assert res.method == "central-fd"
    assert np.allclose(res.value, [2.0, 4.0], atol=1e-8)


def test_fd_gradient_constant_and_sine():
    assert np.allclose(fd_gradient(lambda x: 5.0, np.zeros(3)).value, 0.0)
    res = fd_gradient(lambda x: float(np.sin(x[0])), np.array([0.0]), 1e-6)
    assert res.value[0] == pytest.approx(1.0, abs=1e-10)


def test_fd_gradient_rejects_bad_step_and_nonfinite():
    with pytest.raises(ValueError):
        fd_gradient(lambda x: 0.0, np.zeros(1), h=0.0)
    with pytest.raises(ValueError):
        fd_gradient(lambda x: float("nan"), np.zeros(1))


def test_dense_eig_fd_second_order_perturbation_vanishes():
    res = dense_eig_fd(np.diag([0.3, 0.7]).astype(complex), SX, 1e-5)
    assert np.allclose(res.value["per_eigenvalue"], [0.0, 0.0], atol=1e-4)
    assert not res.value["structure_changed"]


def test_dense_eig_fd_cluster_mean_of_maximally_mixed():
    a, b = 0.3, -0.1
    res = dense_eig_fd(0.5 * np.eye(2).astype(complex), np.diag([a, b]).astype(complex), 1e-5)
    assert res.value["clusters"] == [(0, 1)]
    assert res.value["cluster_means"][0] == pytest.approx((a + b) / 2, abs=1e-9)


def test_dense_eig_fd_linear_spectrum():
    res = dense_eig_fd(np.diag([1.0, 2.0]).astype(complex), np.diag([1.0, 2.0]).astype(complex))
    assert np.allclose(res.value["per_eigenvalue"], [1.0, 2.0], atol=1e-9)


def test_dense_eig_fd_rejects_step_outside_window():
    with pytest.raises(ValueError):
        dense_eig_fd(np.eye(2).astype(complex), SX, h=1e-2)


def test_rk4_matches_expm_for_closed_system():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 3)
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    exact = expm_propagate(h, rho0, 1.0).value
    approx = rk4_lindblad(lambda t: h, [], rho0, (0.0, 1.0), 2000).value
    assert approx is not None and np.linalg.norm(approx - exact) < 1e-10


def test_rk4_dephasing_closed_form():
    gamma, t1 = 0.5, 2.0
    res = rk4_lindblad(lambda t: np.zeros((2, 2)), [(gamma, SZ)], PLUS, (0.0, t1), 2000)
    assert res.value[0, 1].real == pytest.approx(0.5 * np.exp(-2 * gamma * t1), abs=1e-10)


def test_block_exp_tangent_closed_form_phase():
    # H = x Sz/2 on |+>: the coherence is 0.5 e^{-ixt}, so its x-derivative is -0.5 i t e^{-ixt}
    x, t = 0.7, 1.9
    res = block_exp_tangent(0.5 * x * SZ, [0.5 * SZ], [], PLUS, t)
    assert res.method == "van-loan-block-exponential"
    assert np.allclose(res.value["rho"], expm_propagate(0.5 * x * SZ, PLUS, t).value, atol=1e-14)
    expect = np.array([[0.0, -0.5j * t * np.exp(-1j * x * t)], [0.5j * t * np.exp(1j * x * t), 0.0]])
    assert np.allclose(res.value["tangents"][0], expect, atol=1e-13)


def test_block_exp_tangent_matches_fd_and_rk4_with_dissipation():
    rng = np.random.default_rng(5)
    d, t = 4, 0.8
    a0, a1, a2 = (random_hermitian(rng, d) for _ in range(3))
    jumps = [(0.6, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))]
    rho0 = random_density(rng, d)
    x = np.array([0.3, -0.4])

    def ham(xs):
        return a0 + xs[0] * a1 + xs[1] * a2

    res = block_exp_tangent(ham(x), [a1, a2], jumps, rho0, t)
    rk4 = rk4_lindblad(lambda _: ham(x), jumps, rho0, (0.0, t), 4000).value
    assert np.max(np.abs(res.value["rho"] - rk4)) < 1e-9
    for k in range(2):
        step = np.zeros(2)
        step[k] = 1e-5
        plus, minus = (block_exp_tangent(ham(x + s), [], jumps, rho0, t).value["rho"] for s in (step, -step))
        fd = (plus - minus) / 2e-5
        assert np.max(np.abs(res.value["tangents"][k] - fd)) < 1e-7 * np.max(np.abs(fd))


def test_qfi_reference_hand_values():
    # plus state with half-sigma-z: variance 1/4 enumerated by hand
    res = qfi_reference(PLUS, 0.5 * SZ)
    assert res.method == "hand-enumeration"
    assert res.value["F"] == pytest.approx(0.25, abs=1e-12)
    # two-qubit GHZ with collective Sz: the (|00..>, |11..>) pair contributes 1
    ghz = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            ghz[i, j] = 0.5
    sz2 = np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex)
    res = qfi_reference(ghz, sz2)
    assert res.value["F"] == pytest.approx(1.0, abs=1e-12)
    assert res.value["skipped_pairs"] == 3


def test_qfi_reference_zero_cases():
    assert qfi_reference(0.5 * np.eye(2), SZ).value["F"] == 0.0
    assert qfi_reference(np.diag([0.2, 0.8]).astype(complex), SZ).value["F"] == pytest.approx(
        0.0, abs=1e-15
    )


def test_oracle_result_is_tagged():
    res = expm_propagate(np.zeros((2, 2)), PLUS, 1.0)
    assert isinstance(res, OracleResult)
    assert res.method in {"matrix-exponential", "fixed-step-rk4", "central-fd", "hand-enumeration"}
