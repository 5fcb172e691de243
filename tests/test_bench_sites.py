"""The benchmark's tracer (perfbench/tracing.py) binds to names in the package.

It patches each of its SITES when a run is traced, so a name dropped from the
package, or a call whose shape the wrappers cannot take, would crash traced
runs; these tests catch that here.  The tracer module is loaded by path and
only read.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(site: str):
    """The object bound at "module.attr" or "module.Class.attr", or None."""
    mod_name, attr = site.split(".", 1)
    owner = importlib.import_module(f"lindbladiff.{mod_name}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return inspect.getattr_static(owner, name, None)


def test_every_site_resolves_to_a_callable():
    tracing = _load_tracing()
    sites = [f"{m}.{a}" for m, a, _ in tracing.SITES] + list(tracing.ROOT_ATTRS)
    missing = [site for site in sites if _binding(site) is None]
    assert missing == []
    for site in sites:
        raw = _binding(site)
        assert callable(raw.__func__ if isinstance(raw, classmethod) else raw), site


def test_install_patches_and_uninstall_restores_every_site():
    tracing = _load_tracing()
    sites = [f"{m}.{a}" for m, a, _ in tracing.SITES]
    before = {site: _binding(site) for site in sites}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(_binding(site) is not before[site] for site in sites)
    finally:
        tracer.uninstall()
    assert all(_binding(site) is before[site] for site in sites)


def test_traced_smoke_run_matches_untraced(tmp_path):
    # a traced run repeats each op with the wrappers installed; the benchmark
    # marks the run incorrect if a traced op fails or changes the output
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "grad-long-n4-k8", "--smoke", "--trace", "1"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


@pytest.mark.parametrize(
    "checkpoints, t_end",
    [pytest.param(None, 1.0, id="None"), pytest.param(4, 1.0, id="4"), pytest.param(None, 40.0, id="None-t40")],
)
def test_traced_sites_see_every_generator_application(checkpoints, t_end):
    # the per-layer model.rhs_calls and sensitivity.adjoint_apply_calls count
    # spans at the binding sites, so every application must pass through them;
    # at t = 1 the default budget keeps every step's stage states, so the reverse
    # pass recomputes no stage, and 4 checkpoints keep none but tape every
    # segment's steps but its last; at t = 40 the kept steps are a strict
    # prefix, so one pass reads both the kept and the recomputed stages
    _check_traced_sites(checkpoints, t_end)


@pytest.mark.parametrize(
    "checkpoints, t_end",
    [pytest.param(None, 1.0, id="None"), pytest.param(4, 1.0, id="4"), pytest.param(None, 40.0, id="None-t40")],
)
def test_traced_sites_see_every_generator_application_on_the_sandwich_kernel(checkpoints, t_end, monkeypatch):
    # the sandwich kernel unpacks and packs inside the same two call sites
    import lindbladiff.model as model_module

    monkeypatch.setattr(model_module, "COMPILE_MAX_NNZ", 0)
    _check_traced_sites(checkpoints, t_end, sandwich=True)


def _check_traced_sites(checkpoints, t_end, sandwich=False):
    from lindbladiff import counters
    from lindbladiff.model import all_zero_density, preset_oat
    from lindbladiff.qfi import generator_from_preset, qfi_of_params
    from lindbladiff.solver import DOP853, SolveConfig, integrate

    model, x, rho0 = preset_oat(2, 0.1), [0.8, 0.6], all_zero_density(2)
    assert (model.superoperator is None) == sandwich
    cfg = SolveConfig(checkpoints=checkpoints)
    solved = integrate(model, x, rho0, (0.0, t_end), cfg, keep_stages=True)
    kept, steps = len(solved.step_stages), solved.stats.accepted
    assert (kept == (0 if checkpoints == 4 else steps)) if t_end == 1.0 else (0 < kept < steps)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    counters.reset()
    tracer.install()
    try:
        g = generator_from_preset("Sz", 2)
        report = qfi_of_params(model, x, rho0, (0.0, t_end), g, cfg, want_gradient=True)
    finally:
        tracer.uninstall()
    homes = [span[1] for span in tracer.spans]
    snap = counters.snapshot()
    assert report.diagnostics["adjoint"]["steps_replayed"] == steps
    s = len(DOP853.c)
    adjoint = report.diagnostics["adjoint"]
    taped = adjoint["taped_stage_steps"]
    assert taped == (steps - adjoint["segments"] if checkpoints == 4 else 0)
    assert snap["adjoint_rhs_evaluations"] == (s - 1) * (steps - kept - taped)
    # forward and replay, reverse stages, and the one dc/dT evaluation
    assert homes.count("model.lindblad_rhs") == snap["rhs_evaluations"] + snap["adjoint_rhs_evaluations"] + 1
    assert homes.count("sensitivity.adjoint_liouvillian_apply") == len(DOP853.c) * steps > 0
    assert snap["adjoint_generator_applications"] == len(DOP853.c) * steps
