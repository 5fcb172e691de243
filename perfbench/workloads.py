"""The benchmark's workloads: what one op is, its inputs, and its checks.

Every model is ``preset_oat(n, gamma=0.1)`` with rho0 = |0...0>, G = Sz,
rtol 1e-8 and atol 1e-10.  Parameter points are drawn from [-1.5, 1.5]^2
by the workload seed, stratified as ``points`` describes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

import lindbladiff as ld

RTOL, ATOL = 1e-8, 1e-10
GAMMA = 0.1
X_RANGE = 1.5
GRID = 16


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve" | "grad" | "opt"
    n: int
    t_end: float
    # Measured ops: every run completes at least this many, and op_rel_mean,
    # the digest and the per-layer counts cover exactly these, which are the
    # same cells under every seed.  Chosen to fit in an 18 s run on a slow host.
    ops: int
    checkpoints: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("qfi-grad-n5", "grad", 5, 1.0, ops=8),
        Workload("solve-long-n6", "solve", 6, 6.0, ops=4),
        Workload("grad-long-n4-k8", "grad", 4, 10.0, ops=8, checkpoints=8),
        Workload("multistart-opt-n3", "opt", 3, 1.0, ops=12),
    )
}

OPT_ITERATIONS = 5


class Problem:
    """Everything a workload builds before its ops run."""

    def __init__(self, wl: Workload, n: int | None = None):
        self.wl = wl
        n = wl.n if n is None else n
        self.model = ld.preset_oat(n, gamma=GAMMA)
        self.g = ld.generator_from_preset("Sz", n)
        self.rho0 = ld.all_zero_density(n)
        self.cfg = ld.SolveConfig(rtol=RTOL, atol=ATOL, checkpoints=wl.checkpoints)
        self.t_span = (0.0, wl.t_end)

    def run(self, x: np.ndarray, call=None):
        """One op at parameter point x.  ``call(fn, *args, **kw)`` runs the
        top-level library call; the traced run passes a span-recording one."""
        call = call or (lambda fn, *a, **kw: fn(*a, **kw))
        if self.wl.kind == "solve":
            return call(ld.integrate, self.model, x, self.rho0, self.t_span, self.cfg)
        if self.wl.kind == "grad":
            return call(
                ld.qfi_of_params, self.model, x, self.rho0, self.t_span, self.g, self.cfg, want_gradient=True
            )
        opt = ld.OptConfig(max_iterations=OPT_ITERATIONS)
        return call(ld.maximize_qfi, self.model, x, self.rho0, self.t_span, self.g, self.cfg, opt)

    def check(self, x: np.ndarray, out) -> list[str]:
        """Output checks of one op; each returned string is one failure."""
        bad = []
        drift_tol = 50.0 * RTOL
        if self.wl.kind == "solve":
            if not out.stats.trace_drift <= drift_tol:
                bad.append(f"trace drift {out.stats.trace_drift:.3e} > {drift_tol:.1e}")
            return bad
        if self.wl.kind == "grad":
            drift = out.diagnostics["solver"]["trace_drift"]
            if not drift <= drift_tol:
                bad.append(f"trace drift {drift:.3e} > {drift_tol:.1e}")
            if not np.all(np.isfinite(out.gradient)):
                bad.append("non-finite gradient")
            # re-integrating is deterministic, so this is the op's rho(T)
            rho = ld.integrate(self.model, x, self.rho0, self.t_span, self.cfg).final_state.matrix
            var = variance(rho, self.g.dense)
            # F equals Var(G) on pure states, so allow for rounding
            if not 0.0 <= out.value <= var + 1e-9 * max(1.0, var):
                bad.append(f"F = {out.value!r} outside [0, Var(G) = {var!r}]")
            return bad
        _, trace = out
        if trace.status not in ("max-iters", "converged"):
            bad.append(f"optimizer status {trace.status}")
        values = [it.value for it in trace.iterates]
        if not all(math.isfinite(v) for v in values) or not all(
            math.isfinite(it.grad_norm) for it in trace.iterates
        ):
            bad.append("non-finite optimizer value or gradient")
        elif not trace.best.value >= values[0]:
            bad.append(f"best F {trace.best.value!r} < start F {values[0]!r}")
        return bad

    def gradient_check(self, x: np.ndarray) -> dict | None:
        """Adjoint vs forward tangent vs finite differences; None for a
        workload without gradients."""
        if self.wl.kind == "solve":
            return None
        return ld.gradient_check(self.model, x, self.rho0, self.t_span, self.g, self.cfg)


def variance(rho: np.ndarray, g: np.ndarray) -> float:
    """Var_rho(G) = Tr(rho G^2) - Tr(rho G)^2, without any eigendecomposition."""
    mean = np.trace(rho @ g).real
    return float(np.trace(rho @ g @ g).real - mean * mean)


def points(seed: int, count: int) -> np.ndarray:
    """``count`` parameter points in [-1.5, 1.5]^2 drawn from the seed.

    The magnitudes (|x0|, |x1|) are stratified: [0, 1.5]^2 is cut into
    GRID x GRID cells, visited in the order of the unscrambled 2-d Sobol
    sequence without its first point (the origin cell, where H is nearly
    zero and the op nearly free), and the seed places the magnitude
    uniformly inside its cell.
    The seed also draws both signs.  Flipping the sign of x0 or x1 maps the
    dynamics to a complex-conjugate or Sz-phase-rotated copy with the same
    entrywise magnitudes, hence the same step sequence and the same work.
    So a run of k ops costs nearly the same under every seed, while the
    inputs, outputs and digests differ.
    """
    from scipy.stats import qmc  # imported here: scipy.stats is not part of set-up

    m = math.ceil(math.log2(count + 1))
    cells = np.floor(GRID * qmc.Sobol(d=2, scramble=False).random_base2(m)[1 : count + 1])
    rng = np.random.default_rng(seed)
    magnitude = X_RANGE * (cells + rng.random((count, 2))) / GRID
    return np.where(rng.random((count, 2)) < 0.5, -magnitude, magnitude)


def accepted_trials(out) -> int:
    """Accepted line-search trials of an optimizer op; 0 for other ops."""
    if isinstance(out, tuple):
        return sum(1 for it in out[1].iterates if it.step > 0)
    return 0


def digest(out) -> str:
    """SHA-256 over every numeric output of one op."""
    h = hashlib.sha256()

    def arr(a):
        h.update(np.ascontiguousarray(np.asarray(a, dtype=np.complex128)).tobytes())

    if isinstance(out, ld.SolveResult):
        s = out.stats
        arr(out.final_state.matrix)
        arr([s.accepted, s.rejected, s.rhs_evaluations, s.trace_drift, s.hermiticity_drift, s.min_step, s.max_step])
    elif isinstance(out, ld.QfiReport):
        adj = out.diagnostics["adjoint"]
        arr([out.value, out.min_gap, out.skipped_pairs, out.diagnostics["dc_dT"]])
        arr(out.gradient)
        arr([out.diagnostics["solver"][k] for k in ("accepted", "rejected", "rhs_evals", "trace_drift")])
        arr([adj[k] for k in ("segments", "steps_replayed", "longest_segment")])
    else:
        x_best, trace = out
        arr(x_best)
        for it in trace.iterates:
            arr(it.x)
            arr([it.iteration, it.value, it.grad_norm, it.step, it.evaluations])
        h.update(trace.status.encode())
    return h.hexdigest()
