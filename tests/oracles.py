"""Independent brute-force reference implementations for the tests.

Nothing in this module imports the package under test; every result comes
from plain numpy and scipy.  The oracles are deliberately slow and simple:
a Taylor matrix exponential with scaling and squaring, classic fixed-step
RK4, central finite differences, a directly enumerated spectral figure of
merit, a symmetric-logarithmic-derivative figure of merit, and the Lindblad
generator and its adjoint written out in textbook anticommutator form.  The
production code decomposes states with the same LAPACK Hermitian
eigensolver the spectral oracle uses; the SLD oracle solves a Sylvester
equation instead and uses no Hermitian eigensolver at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_sylvester


@dataclass(frozen=True)
class OracleResult:
    value: object
    method: str


def taylor_expm(a: np.ndarray, *, target: float = 1e-15) -> np.ndarray:
    """Matrix exponential by scaled Taylor series plus repeated squaring."""
    a = np.asarray(a, dtype=complex)
    norm = float(np.linalg.norm(a, np.inf))
    squarings = 0
    while norm / 2**squarings > 0.5:
        squarings += 1
    b = a / 2**squarings
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 60):
        term = term @ b / k
        out = out + term
        if np.linalg.norm(term, np.inf) < target:
            break
    else:
        raise RuntimeError("Taylor series did not converge; matrix norm too large")
    for _ in range(squarings):
        out = out @ out
    return out


def expm_propagate(h: np.ndarray, rho0: np.ndarray, t: float) -> OracleResult:
    """Exact closed-system propagation rho(t) = U rho0 U^dag, U = e^{-iHt}."""
    u = taylor_expm(-1j * t * np.asarray(h, dtype=complex))
    return OracleResult(u @ np.asarray(rho0, dtype=complex) @ u.conj().T, "matrix-exponential")


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> OracleResult:
    """Central finite-difference gradient of a scalar function."""
    if not h > 0:
        raise ValueError("finite-difference step must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for k in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fp, fm = float(f(xp)), float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite objective at coordinate {k}")
        grad[k] = (fp - fm) / (2.0 * h)
    return OracleResult(grad, "central-fd")


def _cluster_by_gap(lam: np.ndarray, tol: float) -> list[list[int]]:
    clusters = [[0]]
    for i in range(1, lam.size):
        if lam[i] - lam[i - 1] <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def dense_eig_fd(
    rho: np.ndarray, drho: np.ndarray, h: float = 1e-5, *, cluster_tol: float = 1e-8
) -> OracleResult:
    """FD derivatives of sorted eigenvalues and of their cluster means.

    Clusters are determined at the base point by adjacent-gap grouping;
    matching across the +/-h evaluations is by sorted position.  If the
    adjacent-gap structure differs at rho +/- h*drho the result is flagged
    (structure_changed), not failed, since crossing eigenvalue branches
    make the per-eigenvalue FD unreliable while cluster means survive.
    """
    if not 1e-7 <= h <= 1e-4:
        raise ValueError(f"eigen FD step {h} outside the trusted window [1e-7, 1e-4]")
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    base = np.linalg.eigvalsh(rho)
    plus = np.linalg.eigvalsh(rho + h * drho)
    minus = np.linalg.eigvalsh(rho - h * drho)
    per_eigenvalue = (plus - minus) / (2.0 * h)
    tol = cluster_tol * max(1.0, float(np.max(np.abs(base))))
    clusters = _cluster_by_gap(base, tol)
    changed = (
        _cluster_by_gap(plus, tol) != clusters or _cluster_by_gap(minus, tol) != clusters
    )
    means = [float(np.mean(per_eigenvalue[c])) for c in clusters]
    return OracleResult(
        {
            "per_eigenvalue": per_eigenvalue,
            "cluster_means": means,
            "clusters": [tuple(c) for c in clusters],
            "structure_changed": changed,
        },
        "central-fd",
    )


def lindblad_reference(h, channels, rho: np.ndarray, *, adjoint: bool = False) -> np.ndarray:
    """Textbook Lindblad generator in dense anticommutator form.

    L(rho) = -i [H, rho] + sum gamma (J rho J^dag - (1/2) {J^dag J, rho}), or with
    ``adjoint`` L^dag(rho) = +i [H, rho] + sum gamma (J^dag rho J - (1/2) {J^dag J, rho}).
    ``channels`` is a list of (rate, jump-matrix) pairs.
    """
    hm = np.asarray(h, dtype=complex)
    r = np.asarray(rho, dtype=complex)
    out = (1j if adjoint else -1j) * (hm @ r - r @ hm)
    for rate, j in channels:
        j = np.asarray(j, dtype=complex)
        jd = j.conj().T
        jj = jd @ j
        jump = jd @ r @ j if adjoint else j @ r @ jd
        out = out + rate * (jump - 0.5 * (jj @ r + r @ jj))
    return out


def rk4_lindblad(
    h_of_t, channels, rho0: np.ndarray, t_span: tuple[float, float], steps: int
) -> OracleResult:
    """Classic fixed-step RK4 on the master equation, everything dense.

    ``h_of_t`` maps t to the Hamiltonian matrix; ``channels`` is a list of
    (rate, jump-matrix) pairs.
    """
    rho = np.asarray(rho0, dtype=complex).copy()
    t0, t1 = float(t_span[0]), float(t_span[1])
    dt = (t1 - t0) / steps

    def rhs(t, r):
        return lindblad_reference(h_of_t(t), channels, r)

    t = t0
    for _ in range(steps):
        k1 = rhs(t, rho)
        k2 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k2)
        k4 = rhs(t + dt, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return OracleResult(rho, "fixed-step-rk4")


def qfi_reference(rho: np.ndarray, g: np.ndarray, *, skip_tol: float = 1e-12) -> OracleResult:
    """Directly enumerated spectral figure of merit.

    Diagonalizes with numpy's LAPACK wrapper (the eigensolver production
    also calls, so this checks the figure-of-merit code, not the
    decomposition), clips tiny negative eigenvalues to zero, and sums
    (l_i - l_j)^2 / (l_i + l_j) * |<i|G|j>|^2 over unordered pairs with
    l_i + l_j above the skip tolerance.
    """
    lam, vec = np.linalg.eigh(np.asarray(rho, dtype=complex))
    lam = np.where(lam < 0.0, 0.0, lam)
    g = np.asarray(g, dtype=complex)
    total = 0.0
    skipped = 0
    d = lam.size
    for i in range(d):
        for j in range(i):
            s = lam[i] + lam[j]
            if s <= skip_tol:
                skipped += 1
                continue
            mel = vec[:, i].conj() @ g @ vec[:, j]
            total += (lam[i] - lam[j]) ** 2 / s * abs(mel) ** 2
    return OracleResult({"F": total, "skipped_pairs": skipped}, "hand-enumeration")


def qfi_sld_reference(rho: np.ndarray, g: np.ndarray) -> OracleResult:
    """Figure of merit Tr(rho L^2) / 4 from the symmetric logarithmic derivative.

    L solves rho L + L rho = -2i [G, rho], a Sylvester equation handled by
    scipy's Schur-based solver, so no Hermitian eigensolver is involved.
    Needs a full-rank rho (the equation is singular on its kernel).
    """
    rho = np.asarray(rho, dtype=complex)
    g = np.asarray(g, dtype=complex)
    sld = solve_sylvester(rho, rho, -2j * (g @ rho - rho @ g))
    return OracleResult(float(np.trace(rho @ sld @ sld).real) / 4.0, "sld-sylvester")


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * 0.5 * (m + m.conj().T)


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real
