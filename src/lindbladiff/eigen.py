"""Hermitian eigendecomposition with analytic first derivatives.

The decomposition itself is numpy's LAPACK Hermitian eigensolver applied to
the symmetrized input, with a fixed phase gauge: in each eigenvector column
the entry of largest magnitude is made real and positive, ties broken by
lowest row index.

Derivatives are well-defined under eigenvalue multiplicity: eigenvalues
within the degeneracy tolerance form clusters, and for a cluster only the
average eigenvalue derivative and the invariant-subspace tangent (the
component orthogonal to the cluster) are reported; the arbitrary
within-cluster rotation is set to zero.  This keeps every derivative entry
bounded by ||d(rho)||_F / tolerance even as eigenvalue gaps collapse.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ClusterError,
    ConditioningWarning,
    DegenerateEigenvalueError,
    GaugeDependenceError,
    ValidationError,
)
from .linalg import is_hermitian

#: Eigenvalues closer than this (times max(1, spectral norm)) are clustered.
DEGENERACY_TOL = 1e-8

#: eigh rejects an input whose anti-Hermitian part exceeds this, relative to its Frobenius norm.
HERMITIAN_TOL = 1e-9

#: eig_vjp rejects a vector cotangent whose within-cluster gauge component
#: exceeds this, relative to max(1, its Frobenius norm).
GAUGE_TOL = 1e-8


@dataclass(frozen=True)
class EigDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are ascending; eigenvectors are the matching orthonormal
    columns; clusters group indices whose eigenvalues sit within the
    degeneracy tolerance (transitively closed).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    matrix: np.ndarray
    clusters: tuple[tuple[int, ...], ...]
    labels: np.ndarray
    degeneracy_tolerance: float

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

    def cluster_of(self, i: int) -> tuple[int, ...]:
        return self.clusters[int(self.labels[i])]

    def is_degenerate(self, i: int) -> bool:
        return len(self.cluster_of(i)) > 1

    @property
    def min_gap(self) -> float:
        if self.dimension < 2:
            return float("inf")
        return float(np.min(np.diff(self.eigenvalues)))

    def residual(self) -> float:
        """||rho Psi - Psi diag(lambda)||_F for diagnostics."""
        r = self.matrix @ self.eigenvectors - self.eigenvectors * self.eigenvalues[None, :]
        return float(np.linalg.norm(r))


def _cluster_indices(lam: np.ndarray, tol: float) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    d = lam.shape[0]
    labels = np.zeros(d, dtype=int)
    clusters: list[tuple[int, ...]] = []
    start = 0
    for i in range(1, d + 1):
        if i == d or lam[i] - lam[i - 1] >= tol:
            clusters.append(tuple(range(start, i)))
            labels[start:i] = len(clusters) - 1
            start = i
    return tuple(clusters), labels


def eigh(rho: np.ndarray) -> EigDecomposition:
    """Full spectral decomposition of a Hermitian matrix.

    The input is symmetrized as (rho + rho^dag)/2 before decomposition;
    inputs whose anti-Hermitian part exceeds HERMITIAN_TOL (relative) are
    rejected.  Output is deterministic: bit-identical across calls for a
    given numpy/LAPACK build and BLAS thread count.
    """
    m = np.asarray(rho, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"eigh needs a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("eigh received non-finite entries")
    if not is_hermitian(m, HERMITIAN_TOL, floor=1e-300):
        raise ValidationError(f"matrix is not Hermitian to relative tolerance {HERMITIAN_TOL}")
    sym = 0.5 * (m + m.conj().T)
    lam, vec = np.linalg.eigh(sym)  # LAPACK: eigenvalues ascending
    # phase gauge: largest-magnitude entry real positive, ties by lowest row
    idx, cols = np.argmax(np.abs(vec), axis=0), np.arange(vec.shape[1])
    lead = vec[idx, cols]
    mag = np.hypot(lead.real, lead.imag)  # the bits of abs() on each scalar entry
    vec *= np.conj(lead) / mag
    vec[idx, cols] = mag
    tol = DEGENERACY_TOL * max(1.0, float(np.max(np.abs(lam))) if lam.size else 0.0)
    clusters, labels = _cluster_indices(lam, tol)
    return EigDecomposition(
        eigenvalues=lam,
        eigenvectors=vec,
        matrix=sym,
        clusters=clusters,
        labels=labels,
        degeneracy_tolerance=tol,
    )


@dataclass(frozen=True)
class EigDerivative:
    """Directional derivative of a full decomposition along one d(rho).

    For a degenerate cluster, dvalues repeats the cluster-average eigenvalue
    derivative across members (flagged in averaged) and dvectors holds the
    invariant-subspace tangent with zero within-cluster rotation.
    """

    dvalues: np.ndarray
    dvectors: np.ndarray
    averaged: np.ndarray  # bool per index


def _check_drho(decomp: EigDecomposition, drho: np.ndarray) -> np.ndarray:
    m = np.asarray(drho, dtype=np.complex128)
    if m.shape != decomp.matrix.shape:
        raise ValidationError(f"d(rho) shape {m.shape} does not match decomposition {decomp.matrix.shape}")
    return m


def eig_derivative_simple(
    decomp: EigDecomposition,
    i: int,
    drho: np.ndarray,
    *,
    constraint: str = "re",
) -> tuple[float, np.ndarray]:
    """(d lambda_i, d psi_i) for a nondegenerate index, Hermitian d(rho).

    Two routes are computed and cross-checked: the perturbation series
    (Rayleigh quotient for the eigenvalue, sum over other eigenvectors for
    the tangent) and the bordered linear system

        [[rho - lambda I, -psi], [psi^dag, 0]] [d psi; d lambda] = [-d(rho) psi; 0].

    A discrepancy beyond 1e-8 emits ConditioningWarning.  The phase
    constraint fixes the remaining gauge freedom: "re" keeps the gauge
    anchor entry real (matching finite differences of the gauge-fixed
    eigh), "complex" enforces <psi, d psi> = 0 as in the bordered system.
    """
    drho = _check_drho(decomp, drho)
    if constraint not in ("re", "complex"):
        raise ValidationError(f"unknown phase constraint {constraint!r}")
    if decomp.is_degenerate(i):
        raise DegenerateEigenvalueError(
            f"index {i} lies in degeneracy cluster {decomp.cluster_of(i)}; "
            "use eig_derivative_clustered"
        )
    lam = decomp.eigenvalues
    V = decomp.eigenvectors
    psi = V[:, i]
    g = V.conj().T @ (drho @ psi)
    dlam = float(g[i].real)
    w = np.zeros_like(g)
    others = np.arange(lam.shape[0]) != i
    w[others] = g[others] / (lam[i] - lam[others])
    dpsi = V @ w

    d = lam.shape[0]
    bordered = np.zeros((d + 1, d + 1), dtype=np.complex128)
    bordered[:d, :d] = decomp.matrix - lam[i] * np.eye(d)
    bordered[:d, d] = -psi
    bordered[d, :d] = psi.conj()
    rhs = np.zeros(d + 1, dtype=np.complex128)
    rhs[:d] = -(drho @ psi)
    sol = np.linalg.solve(bordered, rhs)
    scale = max(1.0, float(np.linalg.norm(drho)))
    if abs(sol[d].real - dlam) > 1e-8 * scale or np.linalg.norm(sol[:d] - dpsi) > 1e-8 * scale:
        warnings.warn(
            f"eigen-derivative routes disagree at index {i} "
            f"(dlam {dlam:.3e} vs {sol[d].real:.3e}); spectrum is likely ill-conditioned",
            ConditioningWarning,
        )

    if constraint == "re":
        anchor = int(np.argmax(np.abs(psi)))
        beta = -dpsi[anchor].imag / psi[anchor].real
        dpsi = dpsi + 1j * beta * psi
    return dlam, dpsi


def eig_derivative_clustered(
    decomp: EigDecomposition,
    cluster: Sequence[int],
    drho: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Cluster-average eigenvalue derivative and invariant-subspace tangent.

    For a maximal degeneracy cluster c of size m >= 2 this returns
    d(lambda_bar) = Tr(Psi_c^dag d(rho) Psi_c) / m and the tangent of the
    invariant subspace projected onto the orthogonal complement; the
    within-cluster rotation component is zero by convention.
    """
    drho = _check_drho(decomp, drho)
    cl = tuple(sorted(int(i) for i in cluster))
    if len(cl) < 2:
        raise ClusterError(f"cluster {cl} has size {len(cl)}; the clustered path needs m >= 2")
    if cl not in decomp.clusters:
        raise ClusterError(
            f"cluster {cl} is not a maximal degeneracy cluster; clusters are {decomp.clusters}"
        )
    lam = decomp.eigenvalues
    V = decomp.eigenvectors
    members = np.array(cl)
    psi_c = V[:, members]
    gmat = V.conj().T @ (drho @ psi_c)
    dlam_bar = float(np.trace(gmat[members, :]).real) / len(cl)
    lam_c = float(np.mean(lam[members]))
    weights = np.zeros_like(gmat)
    outside = np.ones(lam.shape[0], dtype=bool)
    outside[members] = False
    weights[outside, :] = gmat[outside, :] / (lam_c - lam[outside])[:, None]
    dpsi_c = V @ weights
    return dlam_bar, dpsi_c


def eig_derivative(decomp: EigDecomposition, drho: np.ndarray, *, constraint: str = "re") -> EigDerivative:
    """Assemble the full directional derivative, cluster-aware."""
    drho = _check_drho(decomp, drho)
    d = decomp.dimension
    dvalues = np.zeros(d)
    dvectors = np.zeros((d, d), dtype=np.complex128)
    averaged = np.zeros(d, dtype=bool)
    for cl in decomp.clusters:
        if len(cl) == 1:
            i = cl[0]
            dvalues[i], dvectors[:, i] = eig_derivative_simple(decomp, i, drho, constraint=constraint)
        else:
            dlam_bar, dpsi_c = eig_derivative_clustered(decomp, cl, drho)
            for pos, i in enumerate(cl):
                dvalues[i] = dlam_bar
                dvectors[:, i] = dpsi_c[:, pos]
                averaged[i] = True
    return EigDerivative(dvalues=dvalues, dvectors=dvectors, averaged=averaged)


def eig_vjp(
    decomp: EigDecomposition,
    value_cotangent: np.ndarray | None = None,
    vector_cotangent: np.ndarray | None = None,
) -> np.ndarray:
    """Pull eigenvalue/eigenvector cotangents back to a Hermitian d(cost)/d(rho).

    Conventions: for a real cost c, value_cotangent[i] = dc/d(lambda_i) and
    vector_cotangent is the conjugate gradient dc/d(conj(Psi)), so that
    dc = sum_i value_cotangent[i] d(lambda_i) + 2 Re <vector_cotangent, d(Psi)>.

    The result is Psi (diag(c_lambda) + F o (B - B^dag)) Psi^dag with
    B = Psi^dag c_Psi and F_ij = 1/(lambda_j - lambda_i) for indices in
    different clusters, zero inside a cluster; it is Hermitian by
    construction and satisfies the forward/reverse pairing identity on
    nondegenerate input.

    A vector cotangent with a within-cluster gauge component (phase
    sensitivity, or rotation sensitivity inside a degenerate cluster)
    beyond GAUGE_TOL raises GaugeDependenceError: such a cost is not a
    well-defined function of rho.
    """
    d = decomp.dimension
    lam = decomp.eigenvalues
    V = decomp.eigenvectors
    if value_cotangent is None:
        c_lam = np.zeros(d)
    else:
        c_lam = np.asarray(value_cotangent, dtype=float)
        if c_lam.shape != (d,):
            raise ValidationError(f"value cotangent shape {c_lam.shape} != ({d},)")

    core = np.diag(c_lam.astype(np.complex128))
    if vector_cotangent is not None:
        c_vec = np.asarray(vector_cotangent, dtype=np.complex128)
        if c_vec.shape != (d, d):
            raise ValidationError(f"vector cotangent shape {c_vec.shape} != ({d}, {d})")
        b = V.conj().T @ c_vec
        gauge_scale = GAUGE_TOL * max(1.0, float(np.linalg.norm(c_vec)))
        for cl in decomp.clusters:
            idx = np.array(cl)
            block = b[np.ix_(idx, idx)]
            gauge_part = 0.5 * (block - block.conj().T)
            if float(np.linalg.norm(gauge_part)) > gauge_scale:
                raise GaugeDependenceError(
                    f"vector cotangent is sensitive to the arbitrary gauge of cluster {cl} "
                    f"(component {float(np.linalg.norm(gauge_part)):.3e}); "
                    "the pullback to rho is ill-defined"
                )
        gaps = lam[None, :] - lam[:, None]
        f = np.zeros((d, d))
        different = decomp.labels[None, :] != decomp.labels[:, None]
        f[different] = 1.0 / gaps[different]
        core = core + f * (b - b.conj().T)

    out = V @ core @ V.conj().T
    return 0.5 * (out + out.conj().T)
