"""Quantum Fisher information of the evolved state and its exact gradient.

The figure of merit is

    F = sum_i sum_{j<i} (l_i - l_j)^2 / (l_i + l_j) * |<psi_i| G |psi_j>|^2

over the spectral decomposition of rho, skipping pairs whose eigenvalue sum
is below the skip tolerance.  With this normalization F equals Var(G) on
pure states; the common literature convention carries an extra factor of 4,
available as an optional display multiplier (the optimizer's argmax is
unaffected by positive scaling).

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
from .linalg import Operator, is_hermitian, to_dense
from .eigen import EigDecomposition, eig_vjp, eigh
from .model import DensityOperator, LindbladModel
from .sensitivity import CostCofunction, adjoint_gradient
from .solver import SolveConfig, integrate
from .spins import collective_sz

#: Pairs with eigenvalue sum at or below this are dropped from the sum.
SKIP_TOL = 1e-12
#: Negative eigenvalues above -CLIP_TOL are clipped to zero; below is an error.
CLIP_TOL = 1e-9


@dataclass(frozen=True)
class Generator:
    """Hermitian generator G of the sensed transformation e^{-i theta G}."""

    operator: Operator
    name: str = "G"

    def __post_init__(self):
        dense = to_dense(self.operator)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValidationError(f"generator must be square, got shape {dense.shape}")
        if not np.all(np.isfinite(dense)):
            raise ValidationError("generator has non-finite entries")
        if not is_hermitian(dense, 1e-12):
            raise ValidationError("generator is not Hermitian to 1e-12")

    @property
    def dense(self) -> np.ndarray:
        return to_dense(self.operator)

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
    convention: str = "variance"
    display_multiplier: float = 1.0
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < 0:
            raise ValidationError(f"figure of merit must be finite and nonnegative, got {self.value}")
        if self.gradient is not None and not np.all(np.isfinite(self.gradient)):
            raise ValidationError("non-finite gradient")

    @property
    def display_value(self) -> float:
        return self.display_multiplier * self.value

    def to_json(self) -> dict:
        out = {
            "F": self.value,
            "grad": None if self.gradient is None else [float(g) for g in self.gradient],
            "skipped_pairs": self.skipped_pairs,
            "clusters": [list(c) for c in self.clusters],
            "convention": self.convention,
            "display_multiplier": self.display_multiplier,
            "display_value": self.display_value,
        }
        return out


def _clipped_eigenvalues(decomp: EigDecomposition) -> np.ndarray:
    lam = decomp.eigenvalues
    if float(lam.min()) < -CLIP_TOL:
        raise ValidationError(
            f"state has eigenvalue {float(lam.min()):.3e} below -{CLIP_TOL:g}; not a valid density operator"
        )
    return np.where(lam < 0.0, 0.0, lam)


def _pair_weights(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(weight matrix, kept mask over ordered pairs j<i, skipped count)."""
    d = lam.shape[0]
    diff = lam[:, None] - lam[None, :]
    s = lam[:, None] + lam[None, :]
    lower = np.tril(np.ones((d, d), dtype=bool), k=-1)  # j < i
    keep = lower & (s > SKIP_TOL)
    w = np.zeros((d, d))
    w[keep] = diff[keep] ** 2 / s[keep]
    skipped = int(np.count_nonzero(lower & ~keep))
    return w, keep, skipped


def qfi(decomp: EigDecomposition, g: Generator, *, times_four: bool = False) -> QfiReport:
    """Evaluate the figure of merit on a precomputed decomposition."""
    gd = g.dense
    if gd.shape != decomp.matrix.shape:
        raise ValidationError(f"generator dimension {gd.shape[0]} != state dimension {decomp.dimension}")
    lam = _clipped_eigenvalues(decomp)
    mel = decomp.eigenvectors.conj().T @ (gd @ decomp.eigenvectors)  # mel[i, j] = <psi_i|G|psi_j>
    w, keep, skipped = _pair_weights(lam)
    value = float(np.sum(w[keep] * np.abs(mel[keep]) ** 2))
    return QfiReport(
        value=value,
        gradient=None,
        skipped_pairs=skipped,
        clusters=decomp.clusters,
        min_gap=decomp.min_gap,
        convention="variance-x4" if times_four else "variance",
        display_multiplier=4.0 if times_four else 1.0,
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
    gd = g.dense
    if gd.shape != decomp.matrix.shape:
        raise ValidationError(f"generator dimension {gd.shape[0]} != state dimension {decomp.dimension}")
    lam_raw = _clipped_eigenvalues(decomp)
    lam = lam_raw.copy()
    for cl in decomp.clusters:
        if len(cl) > 1:
            idx = np.array(cl)
            lam[idx] = float(np.mean(lam_raw[idx]))

    d = lam.shape[0]
    gpsi = gd @ decomp.eigenvectors
    mel = decomp.eigenvectors.conj().T @ gpsi
    abs2 = np.abs(mel) ** 2

    diff = lam[:, None] - lam[None, :]
    s = lam[:, None] + lam[None, :]
    off = ~np.eye(d, dtype=bool)
    keep = off & (s > SKIP_TOL)
    w = np.zeros((d, d))
    w[keep] = diff[keep] ** 2 / s[keep]
    # d/d(l_i) of (l_i - l_j)^2/(l_i + l_j) at fixed l_j
    dw = np.zeros((d, d))
    dw[keep] = diff[keep] * (lam[:, None] + 3.0 * lam[None, :])[keep] / s[keep] ** 2

    c_lam = np.sum(dw * abs2, axis=1)
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
    *,
    times_four: bool = False,
) -> QfiReport:
    """Figure of merit of the evolved state, optionally with its gradient.

    Exactly one forward integration; the gradient adds exactly one adjoint
    pass with terminal cotangent dF/d(rho(T)), independent of the number of
    parameters.  Raised errors carry a ``stage`` attribute naming the
    pipeline stage that failed.
    """
    report, differentiate = _qfi_point(model, x, rho0, t_span, g, cfg, want_gradient, times_four)
    return differentiate() if want_gradient else report


def _qfi_point(
    model, x, rho0, t_span, g, cfg, keep_stages: bool, times_four: bool
) -> tuple[QfiReport, Callable[[], QfiReport]]:
    """The value report of one forward solve, and a callable that runs the
    adjoint pass over that same solve and returns the report with its gradient."""
    stage = "integrate"
    try:
        result = integrate(model, x, rho0, t_span, cfg, keep_stages=keep_stages)
        stage = "eigendecomposition"
        rho_t = result.final_state.matrix
        decomp = eigh(rho_t)
        stage = "figure-of-merit"
        report = qfi(decomp, g, times_four=times_four)
        report = replace(report, diagnostics={"solver": result.stats.to_json()})
    except LindbladiffError as exc:
        exc.stage = getattr(exc, "stage", stage)  # type: ignore[attr-defined]
        raise

    def decompose(rho: np.ndarray) -> EigDecomposition:
        # the cost sees rho(T) itself for its value and cotangent; only
        # the verifier's probe states need a decomposition of their own
        return decomp if np.array_equal(rho, rho_t) else eigh(rho)

    def evaluate(rho: np.ndarray) -> float:
        return qfi(decompose(rho), g).value

    def gradient(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cot = qfi_rho_cotangent(decompose(rho), g)
        return cot.real.copy(), cot.imag.copy()

    def differentiate() -> QfiReport:
        try:
            cost = CostCofunction(evaluate=evaluate, gradient=gradient, name="qfi")
            grad_result = adjoint_gradient(result, cost)
            adjoint = {k: v for k, v in grad_result.diagnostics.items() if k != "cost_verification"}
            diagnostics = dict(report.diagnostics, adjoint=adjoint, dc_dT=grad_result.dc_dT)
            return replace(report, gradient=grad_result.dc_dx, diagnostics=diagnostics)
        except LindbladiffError as exc:
            exc.stage = getattr(exc, "stage", "gradient")  # type: ignore[attr-defined]
            raise

    return report, differentiate
