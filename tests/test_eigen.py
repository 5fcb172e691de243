"""Hermitian eigendecomposition and its derivatives, degenerate cases included."""

import numpy as np
import pytest

from oracles import dense_eig_fd, random_density, random_hermitian
from lindbladiff.eigen import DEGENERACY_TOL, eig_derivative, eig_vjp, eigh
from lindbladiff.errors import ConditioningWarning, GaugeDependenceError, ValidationError


def _tangent_pair(rng, d):
    rho = random_density(rng, d)
    drho = random_hermitian(rng, d, 0.5)
    return rho, drho


class TestEigh:
    def test_matches_lapack_eigenvalues(self):
        rng = np.random.default_rng(31)
        for d in (2, 3, 4, 6, 8):
            m = random_hermitian(rng, d)
            dec = eigh(m)
            assert np.allclose(dec.eigenvalues, np.linalg.eigvalsh(m), atol=1e-12)

    def test_reconstructs_and_orthonormal(self):
        rng = np.random.default_rng(32)
        m = random_hermitian(rng, 5)
        dec = eigh(m)
        v = dec.eigenvectors
        assert np.linalg.norm(v.conj().T @ v - np.eye(5)) < 1e-13
        assert np.linalg.norm(dec.matrix @ v - v * dec.eigenvalues) < 1e-13
        recon = v @ np.diag(dec.eigenvalues) @ v.conj().T
        assert np.linalg.norm(recon - 0.5 * (m + m.conj().T)) < 1e-12

    def test_sorted_ascending_and_gauge_fixed(self):
        rng = np.random.default_rng(33)
        m = random_hermitian(rng, 6)
        dec = eigh(m)
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        for i in range(6):
            col = dec.eigenvectors[:, i]
            anchor = int(np.argmax(np.abs(col)))
            assert col[anchor].imag == 0.0
            assert col[anchor].real > 0.0

    @pytest.mark.bit_identity
    def test_repeat_calls_bit_identical(self):
        rng = np.random.default_rng(34)
        m = random_hermitian(rng, 5)
        a, b = eigh(m), eigh(m)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    @pytest.mark.bit_identity
    def test_gauge_is_bit_identical_to_the_column_loop(self):
        # the gauge is vectorized over columns; it must give the bits of the
        # per-column loop it replaced, ties included (the lowest row wins)
        def looped_gauge(vec):
            for j in range(vec.shape[1]):
                col = vec[:, j]
                idx = int(np.argmax(np.abs(col)))
                mag = abs(col[idx])
                vec[:, j] = col * (np.conj(col[idx]) / mag)
                vec[idx, j] = mag
            return vec

        rng = np.random.default_rng(36)
        cases = [random_hermitian(rng, int(d)) for d in rng.integers(1, 65, size=200)]
        # ties: identity columns, and eigenvectors whose entries share one magnitude
        cases += [np.eye(d, dtype=complex) for d in (1, 2, 7)]
        cases += [np.array([[0, 1], [1, 0]], dtype=complex), np.array([[0, 1j], [-1j, 0]]), np.ones((4, 4), complex)]
        for m in cases:
            sym = 0.5 * (m + m.conj().T)
            assert np.array_equal(eigh(m).eigenvectors, looped_gauge(np.linalg.eigh(sym)[1]))

    def test_clusters_and_queries(self):
        m = np.diag([0.2, 0.2 + 0.5 * DEGENERACY_TOL, 0.7]).astype(complex)
        dec = eigh(m)
        assert dec.clusters == ((0, 1), (2,))
        assert dec.clusters[dec.labels[1]] == (0, 1)
        assert len(dec.clusters[dec.labels[0]]) > 1 and len(dec.clusters[dec.labels[2]]) == 1
        # min_gap reports the smallest adjacent gap, within-cluster included
        assert dec.min_gap == pytest.approx(0.5 * DEGENERACY_TOL, rel=1e-6)
        iso = eigh(np.diag([0.1, 0.4, 0.5]).astype(complex))
        assert iso.clusters == ((0,), (1,), (2,))
        assert iso.min_gap == pytest.approx(0.1, abs=1e-12)

    def test_rejects_invalid_input(self):
        with pytest.raises(ValidationError):
            eigh(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError):
            eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        # finite, but its norm and defect overflow to inf, and inf <= tol * inf holds
        with pytest.raises(ValidationError, match="not Hermitian"):
            eigh(np.array([[0.0, 1e200], [0.0, 0.0]]))

    def test_identity_and_diagonal(self):
        dec = eigh(np.eye(3, dtype=complex))
        assert np.array_equal(dec.eigenvalues, np.ones(3))
        assert dec.clusters == ((0, 1, 2),)


class TestSimpleDerivative:
    def test_matches_fd_oracle_on_random_matrices(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            rho, drho = _tangent_pair(rng, 4)
            dec = eigh(rho)
            if any(len(c) > 1 for c in dec.clusters):
                continue
            fd = dense_eig_fd(rho, drho, 1e-5).value["per_eigenvalue"]
            der = eig_derivative(dec, drho)
            assert not der.averaged.any()
            for i in range(4):
                assert der.dvalues[i] == pytest.approx(fd[i], abs=1e-6)

    def test_tangent_solves_perturbation_identity(self):
        # (rho - lam I) dpsi = -(drho - dlam) psi, checked as a residual
        rng = np.random.default_rng(41)
        rho, drho = _tangent_pair(rng, 4)
        dec = eigh(rho)
        der = eig_derivative(dec, drho)
        for i in range(4):
            if len(dec.clusters[dec.labels[i]]) > 1:
                continue
            lam = dec.eigenvalues[i]
            psi = dec.eigenvectors[:, i]
            dlam, dpsi = der.dvalues[i], der.dvectors[:, i]
            residual = (dec.matrix - lam * np.eye(4)) @ dpsi + (drho - dlam * np.eye(4)) @ psi
            assert np.linalg.norm(residual) < 1e-8

    def test_re_constraint_matches_fd_of_gauge_fixed_vectors(self):
        rng = np.random.default_rng(42)
        rho, drho = _tangent_pair(rng, 3)
        dec = eigh(rho)
        h = 1e-6
        vp = eigh(rho + h * drho).eigenvectors
        vm = eigh(rho - h * drho).eigenvectors
        fd = (vp - vm) / (2.0 * h)
        der = eig_derivative(dec, drho, constraint="re")
        for i in range(3):
            assert np.linalg.norm(der.dvectors[:, i] - fd[:, i]) < 1e-5

    def test_complex_constraint_is_orthogonal_tangent(self):
        rng = np.random.default_rng(43)
        rho, drho = _tangent_pair(rng, 4)
        dec = eigh(rho)
        der = eig_derivative(dec, drho, constraint="complex")
        for i in range(4):
            psi = dec.eigenvectors[:, i]
            assert abs(psi.conj() @ der.dvectors[:, i]) < 1e-12

    def test_gap_outside_cluster_tolerance_warns(self):
        # a pair 1e-7 apart is not clustered at 1e-8, and the perturbation
        # series and the bordered system disagree on it
        rng = np.random.default_rng(44)
        v = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        rho = v @ np.diag([0.3, 0.3 + 1e-7, 0.6, 0.8]) @ v.conj().T
        dec = eigh(rho)
        assert not any(len(dec.clusters[dec.labels[i]]) > 1 for i in range(4))
        with pytest.warns(ConditioningWarning, match=r"indices \[0, 1\]"):
            eig_derivative(dec, random_hermitian(rng, 4, 0.5))


class TestClusteredDerivative:
    def test_cluster_mean_of_planted_clusters(self):
        # clusters of sizes 1, 3 and 9: below 8 members np.mean sums in the same
        # order as bincount, from 8 on it sums pairwise
        lam = np.array([0.01] + [0.1 + k * 1e-12 for k in range(3)] + [0.3 + k * 1e-12 for k in range(9)])
        dec = eigh(np.diag(lam).astype(complex))
        assert [len(c) for c in dec.clusters] == [1, 3, 9]
        values = np.random.default_rng(52).standard_normal(13)
        got = dec.cluster_mean(values)
        assert got[0] == values[0]
        assert np.all(got[1:4] == np.mean(values[1:4]))
        assert np.all(got[4:] == got[4])
        assert got[4] == pytest.approx(np.mean(values[4:]), rel=1e-15, abs=1e-15)

    def test_cluster_mean_matches_fd_oracle(self):
        # a cluster of 3, and one of 8 (where np.mean and bincount sum in different orders)
        for spectrum, i, size in (([0.1, 0.3, 0.3, 0.3], 2, 3), ([0.02] + [0.1] * 8 + [0.18], 4, 8)):
            rng = np.random.default_rng(50)
            d = len(spectrum)
            v = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            rho = v @ np.diag(spectrum) @ v.conj().T
            drho = random_hermitian(rng, d, 0.5)
            dec = eigh(rho)
            cluster = dec.clusters[dec.labels[i]]
            assert len(cluster) == size
            der = eig_derivative(dec, drho)
            fd = dense_eig_fd(rho, drho, 1e-5).value
            mean_idx = fd["clusters"].index(tuple(cluster))
            for j in cluster:
                assert der.dvalues[j] == pytest.approx(fd["cluster_means"][mean_idx], abs=1e-6)

    def test_assembled_derivative_flags_averaging(self):
        dec = eigh(np.diag([0.25, 0.25, 0.5, 0.9]).astype(complex))
        drho = random_hermitian(np.random.default_rng(1), 4, 0.3)
        der = eig_derivative(dec, drho)
        assert der.averaged[0] and der.averaged[1]
        assert not der.averaged[2] and not der.averaged[3]
        assert der.dvalues[0] == der.dvalues[1]

    def test_stability_gate_near_degeneracy(self):
        # a gap far below the cluster tolerance must not leak 1/gap into the
        # tangent; entries stay bounded by |drho| / tolerance
        rng = np.random.default_rng(51)
        gap = 1e-12
        base = np.diag([0.3, 0.3 + gap, 0.7, 0.9]).astype(complex)
        v = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        rho = v @ base @ v.conj().T
        drho = random_hermitian(rng, 4, 1.0)
        dec = eigh(rho)
        assert any(len(c) == 2 for c in dec.clusters)
        der = eig_derivative(dec, drho)
        bound = np.linalg.norm(drho) / DEGENERACY_TOL
        assert np.max(np.abs(der.dvectors)) < bound
        assert np.all(np.isfinite(der.dvectors))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda dec: eig_derivative(dec, np.zeros((3, 3))), r"d\(rho\) shape"),
        (lambda dec: eig_derivative(dec, np.zeros((4, 4)), constraint="imag"), "unknown phase constraint"),
        (lambda dec: eig_vjp(dec, np.zeros(3)), "value cotangent shape"),
        (lambda dec: eig_vjp(dec, None, np.zeros((4, 3))), "vector cotangent shape"),
    ],
)
def test_derivative_inputs_are_checked(call, message):
    with pytest.raises(ValidationError, match=message):
        call(eigh(random_density(np.random.default_rng(61), 4)))


class TestVjp:
    def test_value_cotangent_pullback(self):
        rng = np.random.default_rng(60)
        rho = random_density(rng, 4)
        dec = eigh(rho)
        c_lam = rng.standard_normal(4)
        m = eig_vjp(dec, value_cotangent=c_lam)
        v = dec.eigenvectors
        expect = v @ np.diag(c_lam) @ v.conj().T
        assert np.linalg.norm(m - expect) < 1e-13

    def test_pairing_identity_with_forward_derivative(self):
        # <vjp(c), drho> == c_lam . dlam + 2 Re <c_psi, dpsi> for any tangent
        rng = np.random.default_rng(61)
        rho, drho = _tangent_pair(rng, 4)
        dec = eigh(rho)
        if any(len(c) > 1 for c in dec.clusters):
            pytest.skip("random state unexpectedly degenerate")
        c_lam = rng.standard_normal(4)
        # build a gauge-invariant vector cotangent from a Hermitian observable:
        # c(rho) = sum_i w_i <psi_i| A |psi_i> has dc/d(conj psi_i) = w_i A psi_i
        a = random_hermitian(rng, 4)
        w = rng.standard_normal(4)
        c_psi = a @ dec.eigenvectors * w[None, :]
        der = eig_derivative(dec, drho, constraint="complex")
        forward = float(c_lam @ der.dvalues) + 2.0 * float(
            np.sum(c_psi.conj() * der.dvectors).real
        )
        m = eig_vjp(dec, value_cotangent=c_lam, vector_cotangent=c_psi)
        reverse = float(np.sum(m.conj() * drho).real)
        assert reverse == pytest.approx(forward, rel=1e-10, abs=1e-12)

    def test_output_is_hermitian(self):
        rng = np.random.default_rng(62)
        rho = random_density(rng, 4)
        dec = eigh(rho)
        c_psi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        # project out the gauge-sensitive diagonal part to keep the pullback defined
        b = dec.eigenvectors.conj().T @ c_psi
        np.fill_diagonal(b, b.diagonal().real)
        c_psi = dec.eigenvectors @ b
        m = eig_vjp(dec, vector_cotangent=c_psi)
        assert np.linalg.norm(m - m.conj().T) < 1e-12

    def test_phase_sensitive_cotangent_raises(self):
        rng = np.random.default_rng(63)
        rho = random_density(rng, 3)
        dec = eigh(rho)
        # cotangent proportional to i*psi_0 rewards pure phase motion
        c_psi = np.zeros((3, 3), dtype=complex)
        c_psi[:, 0] = 1j * dec.eigenvectors[:, 0]
        with pytest.raises(GaugeDependenceError):
            eig_vjp(dec, vector_cotangent=c_psi)

    def test_within_cluster_rotation_sensitive_cotangent_raises(self):
        rng = np.random.default_rng(64)
        v = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        rho = v @ np.diag([0.4, 0.4, 0.2]) @ v.conj().T
        dec = eigh(rho)
        cl = [c for c in dec.clusters if len(c) == 2][0]
        i, j = cl
        c_psi = np.zeros((3, 3), dtype=complex)
        # rewards rotating psi_i toward psi_j inside the degenerate subspace
        c_psi[:, i] = dec.eigenvectors[:, j]
        with pytest.raises(GaugeDependenceError):
            eig_vjp(dec, vector_cotangent=c_psi)

    def test_gauge_error_names_the_offending_cluster(self):
        rng = np.random.default_rng(65)
        v = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        dec = eigh(v @ np.diag([0.1, 0.1, 0.4, 0.4]) @ v.conj().T)
        assert dec.clusters == ((0, 1), (2, 3))
        c_psi = np.zeros((4, 4), dtype=complex)
        # a real multiple of psi_0 is gauge-free; psi_3 in column 2 rotates inside (2, 3)
        c_psi[:, 0] = 0.7 * dec.eigenvectors[:, 0]
        c_psi[:, 2] = dec.eigenvectors[:, 3]
        with pytest.raises(GaugeDependenceError, match=r"cluster \(2, 3\) \(component"):
            eig_vjp(dec, vector_cotangent=c_psi)
        c_psi[:, 2] = 0.0
        assert np.all(np.isfinite(eig_vjp(dec, vector_cotangent=c_psi)))

    def test_none_cotangents_give_zero(self):
        dec = eigh(np.diag([0.3, 0.7]).astype(complex))
        m = eig_vjp(dec)
        assert np.array_equal(m, np.zeros((2, 2)))
