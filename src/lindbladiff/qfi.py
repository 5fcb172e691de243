"""Quantum Fisher information of the evolved state and its exact gradient.

The figure of merit is

    F = sum_i sum_{j<i} (l_i - l_j)^2 / (l_i + l_j) * |<psi_i| G |psi_j>|^2

over the spectral decomposition of rho, skipping pairs whose eigenvalue sum
is below the skip tolerance.  With this normalization F equals Var(G) on
pure states, and every value and gradient here is in it; the literature's
4F appears only as display keys of the command line's ``qfi`` report.

The gradient path composes the eigendecomposition cotangent with the
adjoint pass of the integrator: one forward solve and one backward pass
regardless of the number of parameters.  Pair weights in the cotangent are
evaluated at cluster-averaged eigenvalues, which makes within-cluster
contributions vanish identically and keeps every quantity bounded as
eigenvalue gaps collapse.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import LindbladiffError, ValidationError
from .linalg import STATE_TOL, Operator, to_dense
from .eigen import EigDecomposition, eig_vjp, eigh
from .model import DensityOperator, LindbladModel, _check_hermitian
from .sensitivity import CostCofunction, adjoint_gradient
from .solver import SolveConfig, _psd_tolerance, integrate
from .spins import collective_sz

#: Pairs with eigenvalue sum at or below this are dropped from the sum.
SKIP_TOL = 1e-12


@dataclass(frozen=True)
class Generator:
    """Hermitian generator G of the sensed transformation e^{-i theta G}."""

    operator: Operator
    name: str = "G"
    dense: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dense = to_dense(self.operator)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValidationError(f"generator must be square, got shape {dense.shape}")
        _check_hermitian(dense, "generator")
        object.__setattr__(self, "dense", dense)

    @property
    def dimension(self) -> int:
        return self.dense.shape[0]


def generator_from_preset(name: str, n_qubits: int) -> Generator:
    """Built-in generators; currently the collective spin
    projection "Sz"."""
    if name == "Sz":
        return Generator(operator=collective_sz(n_qubits), name=f"Sz:{n_qubits}")
    raise ValidationError(f"unknown generator preset {name!r}")


@dataclass(frozen=True)
class QfiReport:
    """Value (and optionally gradient) of the figure of merit."""

    value: float
    gradient: np.ndarray | None
    skipped_pairs: int
    clusters: tuple[tuple[int, ...], ...]
    min_gap: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < 0:
            raise ValidationError(f"figure of merit must be finite and nonnegative, got {self.value}")
        if self.gradient is not None and not np.all(np.isfinite(self.gradient)):
            raise ValidationError("non-finite gradient")

    def to_json(self) -> dict:
        return {
            "F": self.value,
            "grad": None if self.gradient is None else [float(g) for g in self.gradient],
            "skipped_pairs": self.skipped_pairs,
            "clusters": [list(c) for c in self.clusters],
        }


def _clipped_eigenvalues(decomp: EigDecomposition, clip_tol: float) -> np.ndarray:
    """The eigenvalues with those above -clip_tol clipped at zero; one below is an error.  clip_tol
    is STATE_TOL, except for a solve's rho(T), whose QFI takes the solve's PSD tolerance."""
    lam = decomp.eigenvalues
    if float(lam.min()) < -clip_tol:
        raise ValidationError(
            f"state has eigenvalue {float(lam.min()):.3e} below -{clip_tol:g}; not a valid density operator"
        )
    return np.where(lam < 0.0, 0.0, lam)


def _pair_terms(
    decomp: EigDecomposition, g: Generator, lam: np.ndarray, pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(G Psi, mel, w, keep, diff, s) at eigenvalues lam, over the candidate pairs (i, j).

    mel[i, j] = <psi_i|G|psi_j>, diff = l_i - l_j and s = l_i + l_j; keep drops
    the pairs with s at or below SKIP_TOL, and w = diff^2 / s on the kept pairs
    and 0 elsewhere.
    """
    gd = g.dense
    if gd.shape != decomp.matrix.shape:
        raise ValidationError(f"generator dimension {gd.shape[0]} != state dimension {decomp.dimension}")
    gpsi = gd @ decomp.eigenvectors
    mel = decomp.eigenvectors.conj().T @ gpsi
    diff = lam[:, None] - lam[None, :]
    s = lam[:, None] + lam[None, :]
    keep = pairs & (s > SKIP_TOL)
    w = np.zeros(diff.shape)
    w[keep] = diff[keep] ** 2 / s[keep]
    return gpsi, mel, w, keep, diff, s


def qfi(decomp: EigDecomposition, g: Generator) -> QfiReport:
    """Evaluate the figure of merit on a precomputed decomposition."""
    return _qfi(decomp, g, STATE_TOL)


def _qfi(decomp: EigDecomposition, g: Generator, clip_tol: float) -> QfiReport:
    lower = np.tri(decomp.dimension, k=-1, dtype=bool)  # j < i
    _, mel, w, keep, _, _ = _pair_terms(decomp, g, _clipped_eigenvalues(decomp, clip_tol), lower)
    value = float(np.sum(w[keep] * np.abs(mel[keep]) ** 2))
    return QfiReport(
        value=value,
        gradient=None,
        skipped_pairs=int(np.count_nonzero(lower & ~keep)),
        clusters=decomp.clusters,
        min_gap=decomp.min_gap,
    )


def qfi_rho_cotangent(decomp: EigDecomposition, g: Generator) -> np.ndarray:
    """Hermitian dF/d(rho), safe at eigenvalue multiplicity.

    Eigenvalue and eigenvector cotangents of the pair sum are assembled
    with cluster-averaged clipped eigenvalues: pairs within one degeneracy
    cluster then vanish identically (their weight has a (l_i - l_j)^2
    numerator), no 1/gap factor ever appears, and the within-cluster
    cotangent block is exactly Hermitian, so the eigendecomposition
    pullback is gauge-clean by construction.
    """
    return _qfi_rho_cotangent(decomp, g, STATE_TOL)


def _qfi_rho_cotangent(decomp: EigDecomposition, g: Generator, clip_tol: float) -> np.ndarray:
    lam = decomp.cluster_mean(_clipped_eigenvalues(decomp, clip_tol))
    off = ~np.eye(decomp.dimension, dtype=bool)
    gpsi, mel, w, keep, diff, s = _pair_terms(decomp, g, lam, off)
    # d/d(l_i) of (l_i - l_j)^2/(l_i + l_j) at fixed l_j
    dw = np.zeros(w.shape)
    dw[keep] = diff[keep] * (lam[:, None] + 3.0 * lam[None, :])[keep] / s[keep] ** 2

    c_lam = np.sum(dw * np.abs(mel) ** 2, axis=1)
    c_psi = gpsi @ (w * mel.conj()).T  # column i: sum_j w_ij conj(mel_ij) G psi_j
    return eig_vjp(decomp, c_lam, c_psi)


def qfi_of_params(
    model: LindbladModel,
    x: np.ndarray,
    rho0: DensityOperator | np.ndarray,
    t_span: tuple[float, float],
    g: Generator,
    cfg: SolveConfig = SolveConfig(),
    want_gradient: bool = False,
) -> QfiReport:
    """Figure of merit of the evolved state, optionally with its gradient.

    Exactly one forward integration; the gradient adds exactly one adjoint
    pass with terminal cotangent dF/d(rho(T)), independent of the number of
    parameters.  Raised errors carry a ``stage`` attribute naming the
    pipeline stage that failed.
    """
    report, differentiate = _qfi_point(model, x, rho0, t_span, g, cfg, want_gradient)
    return differentiate() if want_gradient else report


def _qfi_point(model, x, rho0, t_span, g, cfg, keep_stages: bool) -> tuple[QfiReport, Callable[[], QfiReport]]:
    """The value report of one forward solve, and a callable that runs the
    adjoint pass over that same solve and returns the report with its gradient."""
    stage = "integrate"
    try:
        result = integrate(model, x, rho0, t_span, cfg, keep_stages=keep_stages)
        stage = "figure-of-merit"
        rho_t = result.final_state.matrix
        decomp = eigh(rho_t)
        report = _qfi(decomp, g, _psd_tolerance(cfg))
        report = replace(report, diagnostics={"solver": result.stats.to_json()})
    except LindbladiffError as exc:
        exc.stage = getattr(exc, "stage", stage)  # type: ignore[attr-defined]
        raise

    def differentiate() -> QfiReport:
        try:
            grad_result = adjoint_gradient(result, _qfi_cost(rho_t, decomp, g, cfg))
            diagnostics = dict(report.diagnostics, adjoint=grad_result.diagnostics, dc_dT=grad_result.dc_dT)
            return replace(report, gradient=grad_result.dc_dx, diagnostics=diagnostics)
        except LindbladiffError as exc:
            exc.stage = getattr(exc, "stage", "gradient")  # type: ignore[attr-defined]
            raise

    return report, differentiate


def _qfi_cost(rho_t: np.ndarray, decomp: EigDecomposition, g: Generator, cfg: SolveConfig) -> CostCofunction:
    """The figure of merit as a cost near the final state rho_t of a solve under cfg, clipped to that solve's
    PSD tolerance; at rho_t it reuses rho_t's decomposition, so only verify's probe states need an eigh."""
    clip_tol = _psd_tolerance(cfg)

    def decompose(rho: np.ndarray) -> EigDecomposition:
        return decomp if np.array_equal(rho, rho_t) else eigh(rho)

    def evaluate(rho: np.ndarray) -> float:
        return _qfi(decompose(rho), g, clip_tol).value

    def gradient(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cot = _qfi_rho_cotangent(decompose(rho), g, clip_tol)
        return cot.real.copy(), cot.imag.copy()

    return CostCofunction(evaluate=evaluate, gradient=gradient, name="qfi")
