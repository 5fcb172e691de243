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

Each direction is one matrix formula over the whole spectrum: eig_derivative
pushes a d(rho) forward to every eigenpair at once, and eig_vjp pulls
eigenpair cotangents back to d(cost)/d(rho).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningWarning, GaugeDependenceError, ValidationError
from .linalg import STATE_TOL, hermitian_part, is_hermitian

#: Eigenvalues closer than this (times max(1, spectral norm)) are clustered.
DEGENERACY_TOL = 1e-8

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

    def cluster_mean(self, values: np.ndarray) -> np.ndarray:
        """Each entry replaced by the mean of values over its index's cluster."""
        return (np.bincount(self.labels, weights=values) / np.bincount(self.labels))[self.labels]

    @property
    def min_gap(self) -> float:
        if self.dimension < 2:
            return float("inf")
        return float(np.min(np.diff(self.eigenvalues)))


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
    inputs whose anti-Hermitian part exceeds STATE_TOL (relative) are
    rejected.  Output is deterministic: bit-identical across calls for a
    given numpy/LAPACK build and BLAS thread count.
    """
    m = np.asarray(rho, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"eigh needs a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("eigh received non-finite entries")
    if not is_hermitian(m, STATE_TOL, floor=1e-300):
        raise ValidationError(f"matrix is not Hermitian to relative tolerance {STATE_TOL}")
    sym = hermitian_part(m)
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

    Index i's derivative is (dvalues[i], dvectors[:, i]).  Every member of a
    degenerate cluster gets the cluster-average eigenvalue derivative
    (flagged in averaged, which is True exactly for clusters of size > 1),
    and its dvectors column is the invariant-subspace tangent, with zero
    within-cluster rotation.
    """

    dvalues: np.ndarray
    dvectors: np.ndarray
    averaged: np.ndarray  # bool per index


def eig_derivative(decomp: EigDecomposition, drho: np.ndarray, *, constraint: str = "re") -> EigDerivative:
    """Directional derivative of every eigenpair along a Hermitian d(rho), cluster-aware.

    With G = Psi^dag d(rho) Psi, each member of cluster c gets
    d lambda = Tr G_cc / |c|, and d Psi = Psi (F o G) with
    F[j, i] = 1 / (lambda_bar_c(i) - lambda_j) for j outside i's cluster and
    0 inside it, lambda_bar being the cluster mean; for a nondegenerate
    index this is the perturbation series.

    The nondegenerate indices are cross-checked, before the phase is fixed,
    against the bordered linear system

        [[rho - lambda I, -psi], [psi^dag, 0]] [d psi; d lambda] = [-d(rho) psi; 0],

    solved for all of them in one stacked call.  A discrepancy beyond
    1e-8 max(1, ||d(rho)||_F) emits one ConditioningWarning naming the
    indices: the spectrum is ill-conditioned outside the cluster tolerance.

    The phase constraint fixes the remaining gauge freedom of a
    nondegenerate index: "re" keeps the gauge anchor entry real (matching
    finite differences of the gauge-fixed eigh), "complex" enforces
    <psi, d psi> = 0 as in the bordered system (the convention eig_vjp
    pairs with).
    """
    drho = np.asarray(drho, dtype=np.complex128)
    if drho.shape != decomp.matrix.shape:
        raise ValidationError(f"d(rho) shape {drho.shape} does not match decomposition {decomp.matrix.shape}")
    if constraint not in ("re", "complex"):
        raise ValidationError(f"unknown phase constraint {constraint!r}")
    d = decomp.dimension
    lam, V, labels = decomp.eigenvalues, decomp.eigenvectors, decomp.labels
    drho_v = drho @ V
    g = V.conj().T @ drho_v
    averaged = np.bincount(labels)[labels] > 1
    dvalues = decomp.cluster_mean(g.diagonal().real)
    lam_bar = decomp.cluster_mean(lam)
    outside = labels[:, None] != labels[None, :]
    f = np.zeros((d, d))
    f[outside] = 1.0 / (lam_bar[None, :] - lam[:, None])[outside]
    dvectors = V @ (f * g)

    simple = np.flatnonzero(~averaged)
    psi = V[:, simple]
    bordered = np.zeros((simple.size, d + 1, d + 1), dtype=np.complex128)
    bordered[:, :d, :d] = decomp.matrix - lam[simple, None, None] * np.eye(d)
    bordered[:, :d, d] = -psi.T
    bordered[:, d, :d] = psi.conj().T
    rhs = np.zeros((simple.size, d + 1, 1), dtype=np.complex128)
    rhs[:, :d, 0] = -drho_v[:, simple].T
    sol = np.linalg.solve(bordered, rhs)[..., 0]
    scale = 1e-8 * max(1.0, float(np.linalg.norm(drho)))
    disagree = (np.abs(sol[:, d].real - dvalues[simple]) > scale) | (
        np.linalg.norm(sol[:, :d] - dvectors[:, simple].T, axis=1) > scale
    )
    if np.any(disagree):
        warnings.warn(
            f"eigen-derivative routes disagree at indices {simple[disagree].tolist()}; "
            "spectrum is likely ill-conditioned",
            ConditioningWarning,
        )

    if constraint == "re":
        anchor = np.argmax(np.abs(psi), axis=0)
        cols = np.arange(simple.size)
        beta = -dvectors[anchor, simple].imag / psi[anchor, cols].real
        dvectors[:, simple] += 1j * beta * psi
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
    lam, V, labels = decomp.eigenvalues, decomp.eigenvectors, decomp.labels
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
        # Frobenius norm of each cluster's block of (B - B^dag)/2
        same = labels[:, None] == labels[None, :]
        gauge_rows = np.sum(np.where(same, np.abs(0.5 * (b - b.conj().T)) ** 2, 0.0), axis=1)
        gauge = np.sqrt(np.bincount(labels, weights=gauge_rows))
        bad = np.flatnonzero(gauge > GAUGE_TOL * max(1.0, float(np.linalg.norm(c_vec))))
        if bad.size:
            c = bad[0]
            raise GaugeDependenceError(
                f"vector cotangent is sensitive to the arbitrary gauge of cluster {decomp.clusters[c]} "
                f"(component {gauge[c]:.3e}); "
                "the pullback to rho is ill-defined"
            )
        gaps = lam[None, :] - lam[:, None]
        f = np.zeros((d, d))
        f[~same] = 1.0 / gaps[~same]
        core = core + f * (b - b.conj().T)

    out = V @ core @ V.conj().T
    return hermitian_part(out)
