"""lindbladiff benchmark: closed-loop pipeline workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qfi-grad-n5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload qfi-grad-n5 --seed 1 --seconds 20 --trace 1

One client in one process sends one op at a time, with BLAS pinned to one
thread.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
op once untraced and once with span-recording wrappers installed, and prints
the per-layer metrics.  The last line of standard output is the result
object; the line before it is a report with the environment, op times, the
output digest and (traced) the self-time shares.  See perfbench/README.md.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(".bench_out")

#: calibration kernel runs on each side of an op
CALIB_RUNS = 4
#: set-up is measured in this process and in this many fresh child processes
SETUP_CHILDREN = 5

END_TO_END = {
    "op_rel_mean": "ratio",
    "rhs_evals_p50": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "eigen.eigh_calls": "count",
    "eigen.eigh_s": "s",
    "eigen.eigh_distinct_ratio": "ratio",
    "eigen.eig_vjp_s": "s",
    "model.rhs_calls": "count",
    "model.rhs_s": "s",
    "model.rhs_us_per_call": "us",
    "model.param_deriv_calls": "count",
    "model.param_deriv_s": "s",
    "model.state_check_s": "s",
    "solver.accepted_steps": "count",
    "solver.rejected_steps": "count",
    "solver.rhs_per_accepted_step": "ratio",
    "solver.integrate_self_s": "s",
    "solver.replay_steps": "count",
    "solver.replay_s": "s",
    "sensitivity.adjoint_apply_calls": "count",
    "sensitivity.adjoint_apply_s": "s",
    "sensitivity.reverse_rhs_calls": "count",
    "sensitivity.recompute_ratio": "ratio",
    "sensitivity.adjoint_self_s": "s",
    "sensitivity.cost_verify_s": "s",
    "sensitivity.cost_evals": "count",
    "sensitivity.peak_retained_states": "count",
    "sensitivity.retained_mib": "MiB",
    "sensitivity.longest_segment": "count",
    "qfi.value_s": "s",
    "qfi.cotangent_s": "s",
    "qfi.pipeline_self_s": "s",
    "optimize.grad_evals": "count",
    "optimize.value_evals": "count",
    "optimize.linesearch_accept_ratio": "ratio",
    "optimize.self_s": "s",
    "bench.op_s_p50": "s",
    "bench.ops_per_s": "1/s",
    "bench.error_rate": "ratio",
    "bench.trace_overhead": "ratio",
    "bench.calib_s": "s",
}

# per-layer self times: metric -> function homes whose self time it sums
SELF_TIME = {
    "eigen.eigh_s": ("eigen.eigh",),
    "eigen.eig_vjp_s": ("eigen.eig_vjp",),
    "model.rhs_s": ("model.lindblad_rhs",),
    "model.param_deriv_s": ("model.rhs_parameter_derivative",),
    "model.state_check_s": ("model.DensityOperator.from_matrix",),
    "solver.integrate_self_s": ("solver.integrate",),
    "solver.replay_s": ("solver.dense_segment",),
    "sensitivity.adjoint_apply_s": ("sensitivity.adjoint_liouvillian_apply",),
    "sensitivity.adjoint_self_s": ("sensitivity.adjoint_gradient",),
    "sensitivity.cost_verify_s": ("sensitivity.CostCofunction.verify",),
    "qfi.value_s": ("qfi.qfi",),
    "qfi.cotangent_s": ("qfi.qfi_rho_cotangent",),
    "qfi.pipeline_self_s": ("qfi.qfi_of_params",),
    "optimize.self_s": ("optimize.maximize_qfi",),
}


def _calibration_kernel():
    """A fixed ~5 ms kernel: a Python loop, one sweep of Jacobi-style
    rotations on a 12 x 12 Hermitian matrix, and one Lindblad-form
    right-hand side at d=64 with six jump channels, all on fixed random
    matrices.

    The host's speed drifts by up to half over tens of seconds, and not by
    the same factor for interpreted, numpy-dispatch-bound and cache-bound
    BLAS code, so the kernel mixes all three.  It runs on both sides of
    every op, and op_rel_mean divides the measured ops' time by the kernel
    time beside them.  The kernel is the benchmark's own frozen code, so a
    change to lindbladiff cannot move it.
    """
    import numpy as np

    rng = np.random.default_rng(12345)

    def crandn(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    herm = crandn(12)
    herm = herm + herm.conj().T
    ham = crandn(64)
    ham = ham + ham.conj().T
    rho = crandn(64)
    jumps = [(j, j.conj().T, j.conj().T @ j) for j in (crandn(64) / 8.0 for _ in range(6))]

    def kernel() -> float:
        t = time.perf_counter()
        s = 0
        for i in range(10_000):
            s += i * i % 7
        a = herm.copy()
        for p in range(11):
            for q in range(p + 1, 12):
                apq = a[p, q]
                r = abs(apq)
                phase = apq / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                tt = (1.0 if tau >= 0 else -1.0) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + tt * tt)
                sp = tt * c * phase
                colp, colq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * colp - np.conj(sp) * colq
                a[:, q] = sp * colp + c * colq
                rowp, rowq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rowp - sp * rowq
                a[q, :] = np.conj(sp) * rowp + c * rowq
        out = -1j * (ham @ rho - rho @ ham)
        for j, jd, k in jumps:
            out += 0.1 * ((j @ rho) @ jd - 0.5 * (k @ rho + rho @ k))
        return time.perf_counter() - t

    def calibrate() -> float:
        return statistics.fmean(kernel() for _ in range(CALIB_RUNS))

    return calibrate


def _blas_threads_seen():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(args, ops, calib) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_seen": _blas_threads_seen(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "ops": ops,
        "calib_s": calib,
    }


def _child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _run_op(problem, x, calibrate, tracer=None) -> dict:
    """One op with its calibration, counters, checks and digest.  With a
    tracer, the wrappers are installed for the op call alone."""
    from lindbladiff import counters
    from workloads import accepted_trials, digest

    rec = {"failures": []}
    calib_before = calibrate()
    counters.reset()
    if tracer is not None:
        lo = len(tracer.spans)
        tracer.install()
    t = time.perf_counter()
    try:
        out = problem.run(x, tracer.call if tracer is not None else None)
    except Exception:  # an op that raises is a failed op, not a failed run
        rec["failures"].append(traceback.format_exc(limit=3))
        return rec
    finally:
        rec["op_s"] = time.perf_counter() - t
        if tracer is not None:
            tracer.uninstall()
            rec["layers"] = tracing.op_layers(tracer.spans, lo)
        rec["calib_s"] = 0.5 * (calib_before + calibrate())
    rec["counters"] = counters.snapshot()
    rec["accepted_trials"] = accepted_trials(out)
    try:
        rec["failures"] += problem.check(x, out)
    except Exception:
        rec["failures"].append(traceback.format_exc(limit=3))
    rec["digest"] = digest(out)
    return rec


def _wall(plain: list[dict], measured: int) -> dict:
    """Untraced op metrics over the first ``measured`` ops: RHS evaluations
    and wall time (medians), and the op time relative to the calibration
    kernel; plus the throughput and error rate of every op."""
    first = [r for r in plain[:measured] if not r["failures"]]
    ok = [r for r in plain if not r["failures"]]
    error_rate = 1.0 - len(ok) / len(plain)
    if not first:
        return {"rhs_evals_p50": 0, "op_s_p50": 0.0, "op_rel_mean": 0.0, "ops_per_s": 0.0, "error_rate": error_rate}
    return {
        "rhs_evals_p50": statistics.median(
            r["counters"]["rhs_evaluations"] + r["counters"]["adjoint_rhs_evaluations"] for r in first
        ),
        "op_s_p50": statistics.median(r["op_s"] for r in first),
        # total op time over total kernel time beside those same ops: each op
        # is weighed against the host speed around it, and the mean does not
        # jump between the slow and fast ops of a run as a median does
        "op_rel_mean": sum(r["op_s"] for r in first) / sum(r["calib_s"] for r in first),
        "ops_per_s": len(ok) / sum(r["op_s"] for r in ok),
        "error_rate": error_rate,
    }


def _per_layer(problem, traced: list[dict], untraced: list[dict], measured: int) -> tuple[dict, dict]:
    """Per-layer metrics (per op) from the traced ops.

    Exact counts average over the first ``measured`` ops, so they repeat
    across runs of one seed; self times average over every traced op.
    """
    ok = [r for r in traced if not r["failures"]]
    first = [r for r in traced[:measured] if not r["failures"]]
    k = max(len(first), 1)

    def total(key, part="counts"):
        return sum(r["layers"][part].get(key, 0) for r in first)

    def counter(key):
        return sum(r["counters"][key] for r in first)

    m = {}
    calls = lambda home: total(home, part="calls")  # noqa: E731
    m["eigen.eigh_calls"] = calls("eigen.eigh") / k
    m["eigen.eigh_distinct_ratio"] = total("eigh_distinct") / max(calls("eigen.eigh"), 1)
    m["model.rhs_calls"] = calls("model.lindblad_rhs") / k
    m["model.param_deriv_calls"] = calls("model.rhs_parameter_derivative") / k
    forward = total("forward_rhs")
    m["solver.accepted_steps"] = total("accepted") / k
    m["solver.rejected_steps"] = total("rejected") / k
    m["solver.rhs_per_accepted_step"] = forward / max(total("accepted"), 1)
    m["solver.replay_steps"] = total("replay_steps") / k
    m["sensitivity.adjoint_apply_calls"] = calls("sensitivity.adjoint_liouvillian_apply") / k
    m["sensitivity.reverse_rhs_calls"] = counter("adjoint_rhs_evaluations") / k
    replay_rhs = counter("rhs_evaluations") - forward
    m["sensitivity.recompute_ratio"] = (replay_rhs + counter("adjoint_rhs_evaluations")) / max(forward, 1)
    m["sensitivity.cost_evals"] = total("cost_evals") / k
    peak = max((r["counters"]["peak_retained_states"] for r in first), default=0)
    m["sensitivity.peak_retained_states"] = peak
    m["sensitivity.retained_mib"] = peak * problem.model.dimension**2 * 16 / 2**20
    m["sensitivity.longest_segment"] = max((r["layers"]["counts"]["longest_segment"] for r in first), default=0)
    m["optimize.grad_evals"] = total("grad_evals") / k
    m["optimize.value_evals"] = total("value_evals") / k
    accepted = sum(r["accepted_trials"] for r in first)
    m["optimize.linesearch_accept_ratio"] = accepted / max(total("value_evals"), 1)

    n_ok = max(len(ok), 1)
    for metric, homes in SELF_TIME.items():
        m[metric] = sum(r["layers"]["self_s"].get(h, 0.0) for r in ok for h in homes) / n_ok
    m["model.rhs_us_per_call"] = 1e6 * m["model.rhs_s"] / max(
        sum(r["layers"]["calls"].get("model.lindblad_rhs", 0) for r in ok) / n_ok, 1
    )
    wall = _wall(untraced, measured)
    m["bench.op_s_p50"] = wall["op_s_p50"]
    m["bench.ops_per_s"] = wall["ops_per_s"]
    attempted = len(traced) + len(untraced)
    m["bench.error_rate"] = sum(1 for r in traced + untraced if r["failures"]) / attempted
    op_traced = statistics.median(r["op_s"] for r in ok) if ok else 0.0
    m["bench.trace_overhead"] = op_traced / wall["op_s_p50"] if wall["op_s_p50"] else 0.0
    m["bench.calib_s"] = statistics.median(r["calib_s"] for r in traced + untraced)

    mean_op = sum(r["op_s"] for r in ok) / n_ok
    return m, {metric: m[metric] / mean_op for metric in SELF_TIME}


def main(argv=None) -> int:
    if not (SRC / "lindbladiff" / "__init__.py").is_file():
        print(f"error: no lindbladiff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lindbladiff

    if Path(lindbladiff.__file__).resolve().parent != (SRC / "lindbladiff").resolve():
        print(f"error: imported lindbladiff from {lindbladiff.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="n=2 models and exactly two ops (self-test)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    problem = workloads.Problem(workloads.WORKLOADS[args.workload], n=2 if args.smoke else None)
    setup_main = time.perf_counter() - _T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main}))
        return 0

    setups = [setup_main] + [_child_setup_seconds(args) for _ in range(1 if args.smoke else SETUP_CHILDREN)]
    calibrate = _calibration_kernel()
    xs = workloads.points(args.seed, 256)
    tracer = tracing.Tracer()

    _run_op(problem, xs[0], calibrate)  # warm-up, not measured
    plain: list[dict] = []
    traced: list[dict] = []
    measured = 2 if args.smoke else problem.wl.ops
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < measured or (not args.smoke and time.perf_counter() < deadline):
        x = xs[i % len(xs)]
        if not args.trace:
            plain.append(_run_op(problem, x, calibrate))
        else:
            tracer.op_id = i
            # traced and untraced take turns going first, so host drift and
            # warm caches do not bias bench.trace_overhead
            for use_tracer in (i % 2 == 1, i % 2 == 0):
                rec = _run_op(problem, x, calibrate, tracer if use_tracer else None)
                (traced if use_tracer else plain).append(rec)
            if traced[-1].get("digest") != plain[-1].get("digest"):
                traced[-1]["failures"].append("traced output differs from untraced output")
        i += 1

    try:
        grad_check = problem.gradient_check(xs[1])
    except Exception:
        grad_check = {"pass": False, "error": traceback.format_exc(limit=3)}

    records = plain + traced
    failed = sum(1 for r in records if r["failures"])
    main_recs = traced if args.trace else plain
    h = hashlib.sha256()
    for r in main_recs[:measured]:
        h.update(r.get("digest", "failed").encode())
    report = {
        "environment": _environment(args, len(records), [r["calib_s"] for r in records]),
        "digest": h.hexdigest(),
        "wall": _wall(plain, measured),
        "op_s": [r["op_s"] for r in plain],
        "gradient_check": grad_check,
        "setup_s": setups,
        "failures": [f for r in records for f in r["failures"]][:10],
    }
    if args.trace:
        metrics, shares = _per_layer(problem, traced, plain, measured)
        report["op_s_traced"] = [r["op_s"] for r in traced]
        report["shares"] = shares
        units = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        with gzip.open(OUT_DIR / f"spans-{args.workload}-{args.seed}.json.gz", "wt") as fh:
            json.dump(tracer.to_json(), fh)
    else:
        metrics = {
            "op_rel_mean": report["wall"]["op_rel_mean"],
            "rhs_evals_p50": report["wall"]["rhs_evals_p50"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    correct = failed == 0 and (grad_check is None or grad_check["pass"])
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(records),
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
