"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and prints a
single PASS/FAIL verdict line (visible because -s is in the default addopts).
"""

import json

import numpy as np
import pytest

from oracles import (
    dense_eig_fd,
    expm_propagate,
    random_density,
    random_hermitian,
)
from lindbladiff import cli
from lindbladiff.eigen import DEGENERACY_TOL, eig_derivative, eigh
from lindbladiff.instrumentation import counters
from lindbladiff.model import (
    DensityOperator,
    HamiltonianSchedule,
    JumpChannel,
    LindbladModel,
    all_zero_density,
    lindblad_rhs,
    preset_oat,
)
from lindbladiff.optimize import OptConfig, gradient_check, maximize_qfi
from lindbladiff.qfi import Generator, generator_from_preset, qfi, qfi_of_params
from lindbladiff.sensitivity import _pair, adjoint_gradient, forward_sensitivity, state_entry_re_cost
from lindbladiff.solver import DOP853, SolveConfig, integrate
from lindbladiff.spins import PAULI_Z

TIGHT = SolveConfig(rtol=1e-10, atol=1e-12)


def _verdict(number, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\n{tag} criterion {number:2d}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def _constant_model(h, n_channels=0, rng=None, rate_scale=0.3):
    d = h.shape[0]
    channels = []
    if rng is not None:
        for _ in range(n_channels):
            j = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(d)
            channels.append(JumpChannel(rate=float(rng.uniform(0.05, rate_scale)), operator=j))
    return LindbladModel(
        hamiltonian=HamiltonianSchedule(
            evaluate=lambda t, x: h, n_params=0, derivative=lambda t, x, k: np.zeros_like(h)
        ),
        channels=tuple(channels),
        dimension=d,
    )


def test_criterion_1_unitary_and_dephasing_accuracy():
    rng = np.random.default_rng(101)
    cfg = SolveConfig(rtol=1e-8, atol=1e-10)
    worst = 0.0
    for d, t_final in [(2, 5.0), (4, 3.1), (8, 1.7)]:
        h = random_hermitian(rng, d, 1.0)
        rho0 = random_density(rng, d)
        res = integrate(_constant_model(h), np.zeros(0), DensityOperator.from_matrix(rho0), (0.0, t_final), cfg)
        exact = expm_propagate(h, rho0, t_final).value
        worst = max(worst, float(np.linalg.norm(res.final_state.matrix - exact)))
    unitary_ok = worst < 100 * cfg.rtol

    gamma, t_final = 0.7, 1.2
    deph = LindbladModel(
        hamiltonian=HamiltonianSchedule(
            evaluate=lambda t, x: np.zeros((2, 2), dtype=complex),
            n_params=0,
            derivative=lambda t, x, k: np.zeros((2, 2), dtype=complex),
        ),
        channels=(JumpChannel(rate=gamma, operator=PAULI_Z.astype(complex)),),
        dimension=2,
    )
    plus = DensityOperator.from_matrix(0.5 * np.array([[1, 1], [1, 1]], dtype=complex))
    res = integrate(deph, np.zeros(0), plus, (0.0, t_final), cfg)
    deph_err = abs(res.final_state.matrix[0, 1] - 0.5 * np.exp(-2 * gamma * t_final))
    _verdict(
        1,
        "closed-system propagation matches the matrix exponential and dephasing its closed form",
        unitary_ok and deph_err < 1e-8,
        f"unitary {worst:.2e} < {100 * cfg.rtol:.0e}, dephasing {deph_err:.2e} < 1e-8",
    )


def test_criterion_2_structure_preservation():
    rng = np.random.default_rng(202)
    cfg = SolveConfig(rtol=1e-8, atol=1e-10)
    worst_trace_rhs = worst_herm = worst_trace_final = worst_neg = 0.0
    for i in range(100):
        d = 2 if i % 2 == 0 else 4
        model = _constant_model(random_hermitian(rng, d, 1.0), n_channels=1 + i % 2, rng=rng)
        rho = random_density(rng, d)
        rhs = lindblad_rhs(0.3, rho, model, np.zeros(0))
        worst_trace_rhs = max(worst_trace_rhs, abs(np.trace(rhs)))
        worst_herm = max(worst_herm, float(np.max(np.abs(rhs - rhs.conj().T))))
        res = integrate(model, np.zeros(0), DensityOperator.from_matrix(rho), (0.0, 1.0), cfg)
        final = res.final_state.matrix
        worst_trace_final = max(worst_trace_final, abs(np.trace(final).real - 1.0))
        worst_neg = max(worst_neg, float(max(0.0, -np.linalg.eigvalsh(final).min())))
    ok = (
        worst_trace_rhs < 1e-12
        and worst_herm < 1e-12
        and worst_trace_final < 1e-7
        and worst_neg < 1e-7
    )
    _verdict(
        2,
        "generator is trace-free and Hermiticity-preserving; evolved states stay physical",
        ok,
        f"|tr rhs| {worst_trace_rhs:.1e}, herm {worst_herm:.1e}, "
        f"|tr-1| {worst_trace_final:.1e}, neg {worst_neg:.1e}",
    )


def test_criterion_3_gradient_triad_agreement():
    # (a) coherence cost on the single-parameter phase model
    def evaluate(t, x):
        return x[0] * 0.5 * PAULI_Z

    phase = LindbladModel(
        hamiltonian=HamiltonianSchedule(
            evaluate=evaluate, n_params=1, derivative=lambda t, x, k: 0.5 * PAULI_Z
        ),
        channels=(),
        dimension=2,
    )
    plus = DensityOperator.from_matrix(0.5 * np.array([[1, 1], [1, 1]], dtype=complex))
    x0, t_final, h = 0.8, 1.3, 1e-6
    cost = state_entry_re_cost(0, 1)
    span = (0.0, t_final)
    adj = adjoint_gradient(integrate(phase, np.array([x0]), plus, span, TIGHT), cost).dc_dx[0]
    rho_t = integrate(phase, np.array([x0]), plus, span, TIGHT).final_state.matrix
    _, (tangent,) = forward_sensitivity(phase, np.array([x0]), plus, span, TIGHT)
    fwd = _pair(cost.cotangent(rho_t), tangent)

    def coherence(v):
        res = integrate(phase, np.array([v]), plus, span, TIGHT)
        return cost.evaluate(res.final_state.matrix)

    fd = (coherence(x0 + h) - coherence(x0 - h)) / (2 * h)
    scale = max(abs(adj), abs(fwd), abs(fd))
    phase_fd_rel = abs(adj - fd) / scale
    phase_af_rel = abs(adj - fwd) / scale
    phase_ok = phase_fd_rel < 1e-4 and phase_af_rel < 1e-6

    # (b) figure of merit on the interaction preset, with and without damping
    worst_fd = worst_af = 0.0
    for n in (2, 3):
        for gamma in (0.0, 0.1):
            report = gradient_check(
                preset_oat(n, gamma),
                np.array([0.7, 0.4]),
                all_zero_density(n),
                (0.0, 1.0),
                generator_from_preset("Sz", n),
                TIGHT,
            )
            worst_fd = max(worst_fd, report["max_rel_error"])
            for p in report["parameters"]:
                s = max(abs(p["adjoint"]), abs(p["forward"]), 1e-8)
                worst_af = max(worst_af, abs(p["adjoint"] - p["forward"]) / s)
    merit_ok = worst_fd < 1e-4 and worst_af < 1e-6
    _verdict(
        3,
        "adjoint, forward, and finite-difference gradients agree on both benchmark families",
        phase_ok and merit_ok,
        f"phase fd-rel {phase_fd_rel:.1e}, adj-fwd {phase_af_rel:.1e}; "
        f"merit fd-rel {worst_fd:.1e}, adj-fwd {worst_af:.1e}",
    )


@pytest.mark.bit_identity
def test_criterion_4_checkpoint_invariance_and_memory():
    model = preset_oat(2, gamma=0.1)
    x = np.array([0.8, 0.6])
    rho0 = all_zero_density(2)
    g = generator_from_preset("Sz", 2)
    grads, mem_ok = [], True
    for k in (2, 10, 50):
        cfg = SolveConfig(rtol=1e-8, atol=1e-10, checkpoints=k)
        rep = qfi_of_params(model, x, rho0, (0.0, 1.5), g, cfg, want_gradient=True)
        grads.append(np.asarray(rep.gradient))
        peak = rep.diagnostics["adjoint"]["peak_retained_states"]
        longest = rep.diagnostics["adjoint"]["longest_segment"]
        # checkpoints, one replayed segment and its taped stage stacks
        mem_ok = mem_ok and peak <= k + longest + len(DOP853.c) * (longest - 1)
    spread = max(float(np.max(np.abs(a - grads[0]))) for a in grads[1:])
    _verdict(
        4,
        "gradients are invariant to the checkpoint budget and memory stays within budget",
        spread <= 1e-10 and mem_ok,
        f"max spread {spread:.1e} <= 1e-10, memory contract {'held' if mem_ok else 'violated'}",
    )


def test_criterion_5_eigenderivative_identity_and_clusters():
    rng = np.random.default_rng(55)
    worst_res = 0.0
    samples = []
    while len(samples) < 100:
        rho = random_density(rng, 4)
        dec = eigh(rho)
        if dec.min_gap > 1e-4:
            samples.append((rho, dec))
    for rho, dec in samples:
        drho = random_hermitian(rng, 4, 1.0)
        drho /= np.linalg.norm(drho)
        der = eig_derivative(dec, drho)
        for i in range(4):
            r = (rho - dec.eigenvalues[i] * np.eye(4)) @ der.dvectors[:, i] + (
                drho - der.dvalues[i] * np.eye(4)
            ) @ dec.eigenvectors[:, i]
            worst_res = max(worst_res, float(np.linalg.norm(r)))
    identity_ok = worst_res < 1e-8

    worst_fd = 0.0
    for rho, dec in samples[:10]:
        drho = random_hermitian(rng, 4, 1.0)
        der = eig_derivative(dec, drho)
        fd = dense_eig_fd(rho, drho).value["per_eigenvalue"]
        worst_fd = max(worst_fd, float(np.max(np.abs(der.dvalues - fd))))
    fd_ok = worst_fd < 1e-6

    # repeated eigenvalue: the averaged derivative must match the cluster mean
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    rho_deg = u @ np.diag([0.1, 0.35, 0.35, 0.2]).astype(complex) @ u.conj().T
    rho_deg = 0.5 * (rho_deg + rho_deg.conj().T)
    dec_deg = eigh(rho_deg)
    drho = random_hermitian(rng, 4, 1.0)
    der_deg = eig_derivative(dec_deg, drho)
    oracle = dense_eig_fd(rho_deg, drho).value
    cluster_err = 0.0
    for cluster, mean in zip(oracle["clusters"], oracle["cluster_means"]):
        got = float(np.mean([der_deg.dvalues[i] for i in cluster]))
        cluster_err = max(cluster_err, abs(got - mean))
    cluster_ok = cluster_err < 1e-6

    gap = 1e-12
    rho_near = u @ np.diag([0.3, 0.3 + gap, 0.15, 0.25]).astype(complex) @ u.conj().T
    rho_near = 0.5 * (rho_near + rho_near.conj().T)
    der_near = eig_derivative(eigh(rho_near), drho)
    bound = np.linalg.norm(drho) / DEGENERACY_TOL
    stable_ok = float(np.max(np.abs(der_near.dvectors))) < bound and np.all(
        np.isfinite(der_near.dvectors)
    )
    _verdict(
        5,
        "eigen-derivatives satisfy the perturbation identity, match FD, and stay bounded near degeneracy",
        identity_ok and fd_ok and cluster_ok and stable_ok,
        f"residual {worst_res:.1e}, fd {worst_fd:.1e}, cluster {cluster_err:.1e}, "
        f"near-degenerate {'bounded' if stable_ok else 'unbounded'}",
    )


def test_criterion_6_hand_computed_information_values():
    sz_half = Generator(0.5 * PAULI_Z.astype(complex))
    commuting = qfi(eigh(np.diag([0.7, 0.3]).astype(complex)), sz_half).value
    rng = np.random.default_rng(66)
    mixed = qfi(eigh(0.5 * np.eye(2, dtype=complex)), Generator(random_hermitian(rng, 2))).value

    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    plus_val = qfi(eigh(plus), sz_half).value

    ghz_vec = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    ghz = np.outer(ghz_vec, ghz_vec.conj())
    ghz_val = qfi(eigh(ghz), generator_from_preset("Sz", 2)).value

    rho = random_density(rng, 4)
    g = random_hermitian(rng, 4)
    base = qfi(eigh(rho), Generator(g)).value
    gauge_spread = 0.0
    for _ in range(5):
        u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
        rotated = qfi(eigh(u @ rho @ u.conj().T), Generator(u @ g @ u.conj().T)).value
        gauge_spread = max(gauge_spread, abs(rotated - base))

    ok = (
        commuting == 0.0
        and mixed == 0.0
        and abs(plus_val - 0.25) < 1e-12
        and abs(ghz_val - 1.0) < 1e-12
        and gauge_spread < 1e-12
    )
    _verdict(
        6,
        "information functional reproduces hand-computed values and ignores eigenvector phases",
        ok,
        f"commuting {commuting}, mixed {mixed}, plus {plus_val:.15f}, "
        f"entangled {ghz_val:.15f}, gauge spread {gauge_spread:.1e}",
    )


def test_criterion_7_information_gradient_vs_fd():
    model = preset_oat(2, gamma=0.1)
    x = np.array([0.8, 0.6])
    g = generator_from_preset("Sz", 2)
    span, h = (0.0, 1.0), 1e-6
    pure = all_zero_density(2)
    mixed = DensityOperator.from_matrix(0.99 * pure.matrix + 0.01 * np.eye(4) / 4)
    worst = 0.0
    for rho0 in (pure, mixed):
        rep = qfi_of_params(model, x, rho0, span, g, TIGHT, want_gradient=True)
        for k in range(2):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            fd = (
                qfi_of_params(model, xp, rho0, span, g, TIGHT).value
                - qfi_of_params(model, xm, rho0, span, g, TIGHT).value
            ) / (2 * h)
            rel = abs(rep.gradient[k] - fd) / max(abs(fd), abs(rep.gradient[k]), 1e-8)
            worst = max(worst, rel)
    _verdict(
        7,
        "end-to-end information gradient matches finite differences, including a degenerate spectrum",
        worst < 1e-4,
        f"max per-parameter relative error {worst:.1e} < 1e-4",
    )


def test_criterion_8_optimization_reaches_high_information():
    model = preset_oat(2)
    rho0 = all_zero_density(2)
    g = generator_from_preset("Sz", 2)
    cfg = SolveConfig(rtol=1e-8, atol=1e-10)
    best = -np.inf
    monotone = True
    for seed in range(5):
        _, trace = maximize_qfi(
            model, None, rho0, (0.0, 1.0), g, cfg, OptConfig(max_iterations=60, seed=seed)
        )
        values = [it.value for it in trace.iterates]
        monotone = monotone and all(b >= a for a, b in zip(values, values[1:]))
        best = max(best, trace.best.value)

    counters.reset()
    _, trace = maximize_qfi(
        model, None, rho0, (0.0, 1.0), g, cfg, OptConfig(max_iterations=5, seed=0)
    )
    snap = counters.snapshot()
    grad_evals = 1 + sum(1 for it in trace.iterates if it.step > 0.0)
    accounting_ok = (
        snap["forward_integrations"] == trace.evaluations
        and snap["adjoint_passes"] == grad_evals
    )
    _verdict(
        8,
        "seeded ascent reaches high information with monotone traces and exact pass accounting",
        best >= 0.9 and monotone and accounting_ok,
        f"best over 5 seeds {best:.4f} >= 0.9, monotone {monotone}, "
        f"forward {snap['forward_integrations']}=={trace.evaluations} "
        f"adjoint {snap['adjoint_passes']}=={grad_evals}",
    )


def test_criterion_9_sparse_dense_parity():
    rng = np.random.default_rng(99)
    x = np.array([0.8, 0.6])
    worst = 0.0
    for n in (1, 2, 3, 4):
        for gamma in (0.0, 0.3):
            dense = preset_oat(n, gamma)
            sparse = preset_oat(n, gamma, sparse=True)
            rho = random_density(rng, 2**n)
            diff = lindblad_rhs(0.4, rho, dense, x) - lindblad_rhs(0.4, rho, sparse, x)
            worst = max(worst, float(np.max(np.abs(diff))))
    _verdict(
        9,
        "sparse and dense generator applications agree elementwise on every preset",
        worst < 1e-12,
        f"max elementwise difference {worst:.1e} < 1e-12",
    )


@pytest.mark.bit_identity
def test_criterion_10_reports_are_reproducible(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "model": "oat:2",
                "t_span": [0.0, 1.0],
                "optimizer": {"max_iterations": 3, "seed": 7},
            }
        )
    )
    out = tmp_path / "report.json"
    reports, traces = [], []
    for _ in range(2):
        assert cli.main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        trace_file = rep["stages"]["optimize"]["trace_file"]
        rep.pop("timings")
        reports.append(json.dumps(rep, sort_keys=True))
        traces.append(open(trace_file, "rb").read())
    ok = reports[0] == reports[1] and traces[0] == traces[1]
    _verdict(
        10,
        "identical configuration and seed produce byte-identical reports modulo timings",
        ok,
        f"report bytes {'equal' if reports[0] == reports[1] else 'differ'}, "
        f"trace bytes {'equal' if traces[0] == traces[1] else 'differ'}",
    )
