"""Command-line interface: config resolution, subcommands, reports, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lindbladiff
from lindbladiff import cli
from lindbladiff.errors import ValidationError
from lindbladiff.instrumentation import counters
from lindbladiff.linalg import operator_to_json

PHASE_MODEL = {
    "dimension": 2,
    "hamiltonian": {
        "kind": "explicit",
        "terms": [
            {"coefficient": "param:0", "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]}
        ],
    },
    "channels": [],
}

SOLVE_STATS_KEYS = {
    "accepted",
    "rejected",
    "rhs_evals",
    "trace_drift",
    "hermiticity_drift",
    "min_step",
    "max_step",
}

PLUS_STATE = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]

SX_HALF = [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _run(tmp_path, argv, expect=0):
    out = tmp_path / "report.json"
    code = cli.main(argv + ["--out", str(out)])
    assert code == expect, f"exit {code} != {expect}"
    return json.loads(out.read_text())


@pytest.fixture
def phase_cfg(tmp_path):
    model = _write(tmp_path / "model.json", PHASE_MODEL)
    state = _write(tmp_path / "state.json", PLUS_STATE)
    gen = _write(tmp_path / "gen.json", SX_HALF)
    cfg = {
        "model": {"file": model},
        "state": {"file": state},
        "generator": {"file": gen},
        "params": [0.8],
        "t_span": [0.0, 1.3],
    }
    return _write(tmp_path / "cfg.json", cfg)


class TestResolveConfig:
    def test_defaults_fill_in(self):
        cfg = cli.resolve_config({"model": "oat:2", "t_span": [0.0, 1.0]}, "solve")
        assert cfg.model.dimension == 4
        assert cfg.echo["model"] == {"preset": "oat:2", "gamma": 0.0}
        assert cfg.echo["state"] == "all-zero-pure:2"
        assert cfg.echo["generator"] == "Sz:2"
        assert list(cfg.params) == [0.0, 0.0]
        assert cfg.solver.rtol == 1e-8
        assert cfg.times_four is False

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValidationError) as err:
            cli.resolve_config({"model": "oat:2", "t_span": [0, 1], "bogus": 1}, "solve")
        assert "/bogus" in str(err.value)

    def test_unknown_solver_key_rejected(self):
        raw = {"model": "oat:2", "t_span": [0, 1], "solver": {"rtl": 1e-6}}
        with pytest.raises(ValidationError) as err:
            cli.resolve_config(raw, "solve")
        assert "/solver/rtl" in str(err.value)

    @pytest.mark.parametrize(
        "section, spec, path",
        [
            ("model", {"preset": "oat:3", "gama": 0.1}, "/model/gama"),
            ("model", {"file": "model.json", "gamma": 0.1}, "/model/gamma"),
            ("state", {"file": "state.json", "name": "plus"}, "/state/name"),
        ],
    )
    def test_unknown_operand_key_rejected(self, section, spec, path, tmp_path):
        # a stray key beside "preset" or "file" is rejected, not ignored
        _write(tmp_path / "model.json", {"dimension": 2, "hamiltonian": {"kind": "preset_oat"}})
        _write(tmp_path / "state.json", PLUS_STATE)
        spec = {k: str(tmp_path / v) if k == "file" else v for k, v in spec.items()}
        raw = {"model": {"file": str(tmp_path / "model.json")}, "t_span": [0, 1], section: spec}
        with pytest.raises(ValidationError) as err:
            cli.resolve_config(raw, "solve")
        assert err.value.path == path

    @pytest.mark.parametrize("key, token", [("a/b", "a~1b"), ("a~b", "a~0b"), ("~/", "~0~1")])
    def test_unknown_key_pointer_escapes_slash_and_tilde(self, key, token):
        # RFC 6901 writes "~" as "~0" and "/" as "~1", "~" first, so a pointer names its key alone
        for raw, base in (
            ({"model": "oat:2", "solver": {key: 1}}, "/solver"),
            ({"model": {"preset": "oat:2", key: 1}}, "/model"),
        ):
            with pytest.raises(ValidationError) as err:
                cli.resolve_config(raw, "solve")
            assert err.value.path == f"{base}/{token}"

    def test_config_that_is_not_an_object_rejected(self):
        with pytest.raises(ValidationError, match="config must be a JSON object"):
            cli.resolve_config([{"model": "oat:2"}], "solve")

    def test_default_state_needs_a_qubit_register(self, tmp_path):
        model = {"dimension": 3, "hamiltonian": {"kind": "explicit", "terms": []}, "channels": []}
        raw = {"model": {"file": _write(tmp_path / "model.json", model)}, "t_span": [0, 1]}
        with pytest.raises(ValidationError, match="not a power of two") as err:
            cli.resolve_config(raw, "solve")
        assert err.value.path == "/state"

    def test_echo_of_a_one_step_budget_resolves_again(self):
        # the derived budget is at least 2, the least an explicit checkpoints may be
        cfg = cli.resolve_config({"model": "oat:2", "t_span": [0, 1], "solver": {"max_steps": 1}}, "solve")
        assert cfg.echo["solver"]["checkpoints"] == cfg.solver.checkpoint_budget == 2
        assert cli.resolve_config(cfg.echo, "solve").echo == cfg.echo

    def test_bad_t_span_path(self):
        with pytest.raises(ValidationError) as err:
            cli.resolve_config({"model": "oat:2", "t_span": [2.0, 1.0]}, "solve")
        assert "/t_span" in str(err.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
    def test_bad_gamma_path(self, bad):
        with pytest.raises(ValidationError) as err:
            cli.resolve_config({"model": {"preset": "oat:2", "gamma": bad}, "t_span": [0, 1]}, "solve")
        assert "/model/gamma" in str(err.value)

    def test_bad_param_count_path(self):
        with pytest.raises(ValidationError) as err:
            cli.resolve_config({"model": "oat:2", "t_span": [0, 1], "params": [1.0]}, "solve")
        assert "/params" in str(err.value)

    def test_echo_is_idempotent(self):
        raw = {
            "model": "oat:3",
            "t_span": [0.0, 2.0],
            "params": [0.4, 0.9],
            "solver": {"rtol": 1e-9},
            "optimizer": {"seed": 5, "max_iterations": 7},
        }
        cfg = cli.resolve_config(raw, "optimize")
        again = cli.resolve_config(cfg.echo, "optimize")
        assert again.echo == cfg.echo

    def test_full_echo_with_solver_and_optimizer_overrides(self):
        raw = {
            "model": "oat:2",
            "t_span": [0, 1],
            "solver": {"rtol": 1e-7, "initial_step": 0.01, "max_steps": 500},
            "optimizer": {"max_iterations": 4, "backtracking_factor": 0.25, "seed": 2},
        }
        assert cli.resolve_config(raw, "optimize").echo == {
            "model": {"preset": "oat:2", "gamma": 0.0},
            "params": None,
            "state": "all-zero-pure:2",
            "t_span": [0.0, 1.0],
            "solver": {
                "rtol": 1e-7,
                "atol": 1e-10,
                "initial_step": 0.01,
                "max_steps": 500,
                "checkpoints": 23,  # the resolved default budget, ceil(sqrt(500))
            },
            "generator": "Sz:2",
            "optimizer": {
                "max_iterations": 4,
                "initial_step": 0.1,
                "backtracking_factor": 0.25,
                "armijo_constant": 1e-4,
                "grad_tolerance": 1e-6,
                "seed": 2,
            },
            "times_four": False,
            "grad_check": {"fd_step": 1e-6, "tolerance": 1e-4},
            "output": None,
        }

    def test_integer_option_rejects_fraction(self):
        raw = {"model": "oat:2", "optimizer": {"seed": 0.5}}
        with pytest.raises(ValidationError) as err:
            cli.resolve_config(raw, "optimize")
        assert "/optimizer/seed" in str(err.value)

    @pytest.mark.parametrize("section, key", [("solver", "rtol"), ("grad_check", "fd_step")])
    def test_float_option_rejects_boolean(self, section, key):
        raw = {"model": "oat:2", "t_span": [0, 1], section: {key: True}}
        with pytest.raises(ValidationError) as err:
            cli.resolve_config(raw, "solve")
        assert err.value.path == f"/{section}/{key}"

    def test_optimize_defaults_params_to_seeded_random(self):
        cfg = cli.resolve_config(
            {"model": "oat:2", "t_span": [0, 1], "optimizer": {"seed": 3}}, "optimize"
        )
        assert cfg.params is None
        with pytest.raises(ValidationError):
            cfg.x  # noqa: B018 - property raises when params unset

    def test_model_file_error_paths_are_anchored(self, tmp_path):
        bad = dict(PHASE_MODEL, channels=[{"gamma": -1.0, "matrix": SX_HALF}])
        path = _write(tmp_path / "bad.json", bad)
        with pytest.raises(ValidationError) as err:
            cli.resolve_config({"model": {"file": path}, "t_span": [0, 1], "params": [0.1]}, "solve")
        assert "/model/file/channels/0/gamma" in str(err.value)

    def test_non_hermitian_term_rejected(self, tmp_path):
        bad = {
            "dimension": 2,
            "hamiltonian": {
                "kind": "explicit",
                "terms": [
                    {
                        "coefficient": 1.0,
                        "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                    }
                ],
            },
            "channels": [],
        }
        path = _write(tmp_path / "bad.json", bad)
        with pytest.raises(ValidationError) as err:
            cli.resolve_config({"model": {"file": path}, "t_span": [0, 1], "params": []}, "solve")
        assert "/model/file/hamiltonian/terms/0/matrix" in str(err.value)


class TestSolve:
    def test_zero_hamiltonian_is_stationary(self, tmp_path):
        zero = {
            "dimension": 2,
            "hamiltonian": {"kind": "explicit", "terms": []},
            "channels": [],
        }
        model = _write(tmp_path / "zero.json", zero)
        state = _write(tmp_path / "state.json", PLUS_STATE)
        cfg = _write(
            tmp_path / "cfg.json",
            {"model": {"file": model}, "state": {"file": state}, "params": [], "t_span": [0.0, 1.0]},
        )
        rep = _run(tmp_path, ["solve", "--config", cfg])
        assert rep["schema"] == "lindbladiff-report/2"
        assert rep["subcommand"] == "solve"
        assert rep["exit_code"] == 0
        stage = rep["stages"]["solve"]
        assert abs(stage["final_state"]["trace"] - 1.0) < 1e-12
        assert stage["stats"]["trace_drift"] < 1e-12
        got = np.array([[c[0] + 1j * c[1] for c in row] for row in stage["final_state"]["matrix"]])
        assert np.allclose(got, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)

    def test_tolerance_flags_override_and_report_goes_to_stdout(self, capsys):
        code = cli.main(["solve", "--model", "oat:2", "--params", "0.8,0.6", "--rtol", "1e-6", "--atol", "1e-9"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["subcommand"] == "solve"
        assert rep["config"]["solver"]["rtol"] == 1e-6
        assert rep["config"]["solver"]["atol"] == 1e-9

    def test_report_echo_round_trips(self, phase_cfg, tmp_path):
        rep = _run(tmp_path, ["solve", "--config", phase_cfg])
        cfg = cli.resolve_config(rep["config"], "solve")
        assert cfg.echo == rep["config"]


class TestQfi:
    def test_preset_report(self, tmp_path):
        rep = _run(tmp_path, ["qfi", "--model", "oat:2", "--params", "0.7,0.4"])
        stage = rep["stages"]["qfi"]
        assert stage["F"] >= 0.0
        assert stage["convention"] == "variance"
        assert stage["grad"] is None

    def test_display_multiplier_only_affects_display(self, tmp_path):
        plain, x4 = (
            _run(tmp_path, ["qfi", "--config", _write(tmp_path / "cfg.json", dict(BASE_CONFIG, times_four=flag))])
            for flag in (False, True)
        )
        stage = x4["stages"]["qfi"]
        assert stage["F"] == plain["stages"]["qfi"]["F"]
        assert stage["convention"] == "variance-x4"
        assert stage["display_multiplier"] == 4.0
        assert stage["display_value"] == 4.0 * stage["F"]
        assert plain["stages"]["qfi"]["display_value"] == stage["F"]

    def test_solve_stats_reported_without_grad(self, tmp_path):
        rep = _run(tmp_path, ["qfi", "--model", "oat:2", "--params", "0.7,0.4"])
        stats = rep["stages"]["solve"]["stats"]
        assert set(stats) == SOLVE_STATS_KEYS
        assert stats["accepted"] > 0
        assert stats["rhs_evals"] > 0

    def test_solve_and_qfi_share_one_stats_schema(self, tmp_path):
        flags = ["--model", "oat:2", "--params", "0.7,0.4"]
        reports = [
            _run(tmp_path, ["solve"] + flags),
            _run(tmp_path, ["qfi"] + flags),
            _run(tmp_path, ["qfi"] + flags + ["--grad"]),
        ]
        stats = [rep["stages"]["solve"]["stats"] for rep in reports]
        assert all(set(s) == SOLVE_STATS_KEYS for s in stats)
        # one forward solve of the same problem behind each report
        assert stats[0] == stats[1] == stats[2]

    def test_grad_flag_adds_gradient_and_adjoint_stage(self, tmp_path):
        rep = _run(tmp_path, ["qfi", "--model", "oat:2", "--params", "0.7,0.4", "--grad"])
        stage = rep["stages"]["qfi"]
        assert len(stage["grad"]) == 2
        assert "adjoint" in rep["stages"]

    def test_phase_model_value(self, phase_cfg, tmp_path):
        rep = _run(tmp_path, ["qfi", "--config", phase_cfg])
        expect = np.sin(0.8 * 1.3) ** 2 / 4.0
        assert rep["stages"]["qfi"]["F"] == pytest.approx(expect, rel=1e-7)


    def test_generator_flag_reads_a_file(self, tmp_path):
        # a path is not a name:<int> tag, so --generator reads it as a {"file": path} operand
        half_x = np.array([[0.0, 0.5], [0.5, 0.0]])
        gen = _write(tmp_path / "gen.json", operator_to_json(np.kron(half_x, np.eye(2)) + np.kron(np.eye(2), half_x)))
        rep = _run(tmp_path, ["qfi", "--model", "oat:2", "--params", "0.8,0.6", "--generator", gen])
        assert rep["config"]["generator"] == {"file": gen}
        default = _run(tmp_path, ["qfi", "--model", "oat:2", "--params", "0.8,0.6"])
        assert rep["stages"]["qfi"]["F"] != default["stages"]["qfi"]["F"]


class TestGradCheck:
    def test_passes_on_phase_model(self, phase_cfg, tmp_path):
        rep = _run(tmp_path, ["grad-check", "--config", phase_cfg])
        stage = rep["stages"]["grad_check"]
        assert stage["pass"] is True
        assert stage["max_rel_error"] < 1e-4

    def test_reports_the_cost_verification(self, tmp_path):
        rep = _run(tmp_path, ["grad-check", "--model", "oat:2", "--params", "0.7,0.4"])
        probes = rep["stages"]["grad_check"]["cost_verification"]["probes"]
        assert probes and all(set(p) == {"analytic", "fd"} for p in probes)

    def test_absurd_tolerance_exits_four(self, phase_cfg, tmp_path):
        rep = _run(tmp_path, ["grad-check", "--config", phase_cfg, "--tol", "1e-18"], expect=4)
        assert rep["exit_code"] == 4
        assert rep["stages"]["grad_check"]["pass"] is False


class TestOptimize:
    def test_trace_file_rows_and_summary(self, tmp_path):
        cfg = _write(
            tmp_path / "cfg.json",
            {
                "model": "oat:2",
                "t_span": [0.0, 1.0],
                "optimizer": {"max_iterations": 3, "seed": 1},
            },
        )
        rep = _run(tmp_path, ["optimize", "--config", cfg])
        stage = rep["stages"]["optimize"]
        lines = [json.loads(s) for s in open(stage["trace_file"]).read().splitlines()]
        assert len(lines) == stage["iterations"] + 1
        assert "summary" in lines[-1]
        assert lines[-1]["summary"]["best_F"] == stage["best"]["F"]
        assert [row["iter"] for row in lines[:-1]] == list(range(len(lines) - 1))
        fs = [row["F"] for row in lines[:-1]]
        assert all(b >= a for a, b in zip(fs, fs[1:]))

    def test_reports_byte_identical_modulo_timings(self, tmp_path):
        cfg = _write(
            tmp_path / "cfg.json",
            {
                "model": "oat:2",
                "t_span": [0.0, 1.0],
                "optimizer": {"max_iterations": 2, "seed": 4},
            },
        )
        blobs = []
        for _ in range(2):
            out = tmp_path / "rep.json"
            assert cli.main(["optimize", "--config", cfg, "--out", str(out)]) == 0
            rep = json.loads(out.read_text())
            rep.pop("timings")
            blobs.append(json.dumps(rep, sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_times_four_does_not_change_the_ascent(self, tmp_path):
        config = {"model": "oat:2", "t_span": [0.0, 1.0], "optimizer": {"max_iterations": 2, "seed": 3}}
        plain, x4 = (
            _run(tmp_path, ["optimize", "--config", _write(tmp_path / "cfg.json", dict(config, times_four=flag))])
            for flag in (False, True)
        )
        assert x4["stages"]["optimize"] == plain["stages"]["optimize"]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = _write(
            tmp_path / "cfg.json",
            {"model": "oat:2", "t_span": [0.0, 1.0], "optimizer": {"max_iterations": 1, "seed": 1}},
        )
        rep_a = _run(tmp_path, ["optimize", "--config", cfg, "--seed", "9"])
        assert rep_a["config"]["optimizer"]["seed"] == 9
        expect = np.random.default_rng(9).uniform(-np.pi, np.pi, 2)
        assert rep_a["stages"]["optimize"]["trace"][0]["x"] == list(expect)


class TestEmitPlots:
    def test_trace_csv(self, tmp_path):
        rows = [
            {"iter": 0, "F": 0.1, "grad_norm": 0.5, "step": 0.1},
            {"iter": 1, "F": 0.2, "grad_norm": 0.3, "step": 0.1},
            {"iter": 2, "F": 0.25, "grad_norm": 0.1, "step": 0.0},
        ]
        trace = tmp_path / "t.jsonl"
        trace.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "plot.csv"
        code = cli.main(
            ["emit-plots", "--kind", "trace", "--trace-file", str(trace), "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,F,grad_norm,step"
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "0"

    def test_opt_trace_object_is_a_validation_error(self, tmp_path):
        trace = lindbladiff.OptTrace(iterates=(), status="converged", evaluations=0)
        out = tmp_path / "plot.csv"
        with pytest.raises(ValidationError, match="JSON rows"):
            cli.emit_plot_data(trace, str(out), kind="trace")
        assert not out.exists()

    def test_unreadable_trajectory_cell_writes_no_file(self, tmp_path):
        out = tmp_path / "plot.csv"
        with pytest.raises(ValidationError) as err:
            cli.emit_plot_data([(0.0, 1.0, 1.0, 1.0), ("a", 1, 2, 3)], str(out), kind="trajectory")
        assert err.value.path == "/1/0"
        assert not out.exists()

    def test_float_cells_round_trip(self, tmp_path):
        value = 0.1 + 0.2  # not exactly representable in shorter decimal
        trace = tmp_path / "t.jsonl"
        trace.write_text(json.dumps({"iter": 0, "F": value, "grad_norm": 0.0, "step": 0.0}) + "\n")
        out = tmp_path / "plot.csv"
        assert cli.main(["emit-plots", "--kind", "trace", "--trace-file", str(trace), "--out", str(out)]) == 0
        cell = out.read_text().splitlines()[1].split(",")[1]
        assert float(cell) == value

    def test_trajectory_purity_decays_under_dephasing(self, tmp_path):
        gz = operator_to_json(np.diag([1.0, -1.0]).astype(complex))
        deph = {
            "dimension": 2,
            "hamiltonian": {"kind": "explicit", "terms": []},
            "channels": [{"gamma": 1.0, "matrix": gz}],
        }
        model = _write(tmp_path / "deph.json", deph)
        state = _write(tmp_path / "state.json", PLUS_STATE)
        cfg = _write(
            tmp_path / "cfg.json",
            {"model": {"file": model}, "state": {"file": state}, "params": [], "t_span": [0.0, 1.0]},
        )
        out = tmp_path / "traj.csv"
        assert cli.main(["emit-plots", "--kind", "trajectory", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,trace_rho,purity,min_eig"
        rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
        purities = [r[2] for r in rows]
        assert purities[0] == pytest.approx(1.0, abs=1e-12)
        assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))
        expect_final = 0.5 + 2 * (0.5 * np.exp(-2.0)) ** 2
        assert purities[-1] == pytest.approx(expect_final, rel=1e-7)

    def test_trace_without_trace_file_exits_two(self, tmp_path, capsys):
        out = tmp_path / "plot.csv"
        code = cli.main(["emit-plots", "--kind", "trace", "--model", "oat:2", "--out", str(out)])
        assert code == 2
        assert "optimize --out" in capsys.readouterr().err
        assert counters.forward_integrations == 0
        assert not out.exists()

    def test_without_out_exits_two(self, capsys):
        code = cli.main(["emit-plots", "--kind", "trajectory", "--model", "oat:2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "emit-plots needs --out" in captured.err and captured.out == ""
        assert counters.forward_integrations == 0

    def test_trace_file_line_that_is_not_json_exits_two(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text(json.dumps({"iter": 0, "F": 0.1, "grad_norm": 0.5, "step": 0.1}) + "\n{not json\n")
        out = tmp_path / "plot.csv"
        assert cli.main(["emit-plots", "--kind", "trace", "--trace-file", str(trace), "--out", str(out)]) == 2
        assert "line 2 of" in capsys.readouterr().err
        assert not out.exists()

    def test_blank_trace_lines_are_skipped(self, tmp_path):
        rows = [{"iter": i, "F": 0.1 * i, "grad_norm": 0.5, "step": 0.1} for i in range(2)]
        trace = tmp_path / "t.jsonl"
        trace.write_text("\n" + json.dumps(rows[0]) + "\n  \n\n" + json.dumps(rows[1]) + "\n")
        out = tmp_path / "plot.csv"
        assert cli.main(["emit-plots", "--kind", "trace", "--trace-file", str(trace), "--out", str(out)]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["iter", "0", "1"]

    def test_unknown_kind_writes_no_file(self, tmp_path):
        out = tmp_path / "plot.csv"
        with pytest.raises(ValidationError, match="unknown plot kind 'bars'"):
            cli.emit_plot_data([], str(out), kind="bars")
        assert not out.exists()

    def test_trace_row_missing_a_column_writes_no_file(self, tmp_path):
        out = tmp_path / "plot.csv"
        with pytest.raises(ValidationError, match=r"missing columns \['step'\]") as err:
            cli.emit_plot_data([{"iter": 0, "F": 0.1, "grad_norm": 0.5}], str(out), kind="trace")
        assert err.value.path == "/0"
        assert not out.exists()

    def test_trajectory_row_of_the_wrong_length_writes_no_file(self, tmp_path):
        out = tmp_path / "plot.csv"
        with pytest.raises(ValidationError, match="plot row 1 has 3 columns, expected 4"):
            cli.emit_plot_data([(0.0, 1.0, 1.0, 1.0), (0.1, 1.0, 1.0)], str(out), kind="trajectory")
        assert not out.exists()

    def test_empty_trace_emits_header_only(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(json.dumps({"summary": {"status": "converged"}}) + "\n")
        out = tmp_path / "plot.csv"
        assert cli.main(["emit-plots", "--kind", "trace", "--trace-file", str(trace), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == ["iter,F,grad_norm,step"]


def _deep(obj, path, value):
    """A copy of obj with the entry at the JSON pointer path replaced by value."""
    obj = json.loads(json.dumps(obj))
    *head, last = path.strip("/").split("/")
    node = obj
    for key in head:
        node = node[int(key) if isinstance(node, list) else key]
    node[int(last) if isinstance(node, list) else last] = value
    return obj


SPARSE_SX = {"rows": 2, "cols": 2, "triplets": [[0, 1, 0.5, 0.0], [1, 0, 0.5, 0.0]]}
DAMPED_MODEL = dict(PHASE_MODEL, channels=[{"gamma": 0.1, "matrix": {"rows": 2, "cols": 2, "triplets": [[0, 1, 1.0, 0.0]]}}])
PRESET_MODEL = {"dimension": 4, "hamiltonian": {"kind": "preset_oat"}, "gamma": 0.1}
BASE_CONFIG = {"model": "oat:2", "params": [0.8, 0.6], "t_span": [0.0, 1.0]}

# (what is edited: the config or a file it names, pointer of the edit, new value, pointer the error names)
MALFORMED_CONFIGS = [
    ("config", "/model", {"preset": "oat:2", "gamma": "x"}, "/model/gamma"),
    ("config", "/model", {"preset": "oat:2", "gamma": None}, "/model/gamma"),
    ("config", "/model", {"preset": "oat:2", "gamma": True}, "/model/gamma"),
    ("config", "/params", [True, 0.5], "/params/0"),
    ("config", "/t_span", [False, True], "/t_span/0"),
    ("config", "/t_span", [0.0, float("inf")], "/t_span/1"),
    ("config", "/solver", {"rtol": "1e-6"}, "/solver/rtol"),
    ("config", "/solver", {"max_steps": 10.5}, "/solver/max_steps"),
    ("config", "/grad_check", {"fd_step": "1e-6"}, "/grad_check/fd_step"),
    ("config", "/grad_check", {"tolerance": None}, "/grad_check/tolerance"),
    ("config", "/solver", [1], "/solver"),
    ("config", "/optimizer", "fast", "/optimizer"),
    ("config", "/grad_check", 5, "/grad_check"),
    ("config", "/optimizer", {"seed": -1}, "/optimizer/seed"),
    ("config", "/model", {"file": 0}, "/model/file"),  # open(0) would read stdin
    ("model", "/dimension", "abc", "/model/file/dimension"),
    ("model", "/dimension", 2.7, "/model/file/dimension"),
    ("model", "/hamiltonian/terms/0/coefficient", True, "/model/file/hamiltonian/terms/0/coefficient"),
    ("model", "/channels", 3, "/model/file/channels"),
    ("model", "/hamiltonian/terms", [3], "/model/file/hamiltonian/terms/0"),
    ("model", "/channels/0/gamma", None, "/model/file/channels/0/gamma"),
    ("model", "/channels/0/matrix/triplets/0/0", 0.7, "/model/file/channels/0/matrix/triplets/0/0"),
    ("model", "/channels/0/matrix/triplets/0/2", "1", "/model/file/channels/0/matrix/triplets/0/2"),
    ("model", "/channels/0/matrix/triplets", 5, "/model/file/channels/0/matrix/triplets"),
    ("model", "/channels/0/matrix/rows", 2.9, "/model/file/channels/0/matrix/rows"),
    ("preset", "/gamma", "x", "/model/file/gamma"),
    ("state", "/0/0", [True, False], "/state/file/0/0/0"),
    ("state", "/0/0", ["1", "0"], "/state/file/0/0/0"),
    ("state", "/0/0", [1, 0, 5], "/state/file/0/0"),
    ("generator", "/rows", "2", "/generator/file/rows"),
    ("generator", "/rows", 2.9, "/generator/file/rows"),
    ("config", "/grad_check", {"fd_step": 0}, "/grad_check/fd_step"),
    ("config", "/grad_check", {"fd_step": -1e-6}, "/grad_check/fd_step"),
    ("config", "/grad_check", {"tolerance": 0}, "/grad_check/tolerance"),
    ("config", "/grad_check", {"tolerance": -1e-4}, "/grad_check/tolerance"),
    ("config", "/model", "oat:x", "/model/preset"),
    ("config", "/model", "oat:0", "/model/preset"),
    ("config", "/model", {"gamma": 0.1}, "/model"),
    ("config", "/state", "all-zero-pure:3", "/state"),
    ("config", "/model", "xyz:2", "/model/preset"),
    ("config", "/model", 5, "/model"),
    ("config", "/generator", 5, "/generator"),
    ("config", "/times_four", "yes", "/times_four"),
    ("config", "/output", 3, "/output"),
    # a few bytes of JSON that declare a size numpy could not allocate
    ("model", "/dimension", 1e12, "/model/file/dimension"),
    ("preset", "/dimension", 2**11, "/model/file/dimension"),
    (
        "model",
        "/hamiltonian/terms/0/matrix",
        {"rows": 1e12, "cols": 1e12, "triplets": []},
        "/model/file/hamiltonian/terms/0/matrix/rows",
    ),
    ("generator", "/rows", 1e12, "/generator/file/rows"),
]


class TestMalformedInput:
    """Malformed JSON exits 2 with one 'validation error: <pointer>: ...' line and writes nothing."""

    def _expect_two(self, argv, out, pointer, capsys):
        code = cli.main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"validation error: {pointer}: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("where, at, value, pointer", MALFORMED_CONFIGS)
    def test_config_and_files(self, tmp_path, capsys, where, at, value, pointer):
        if where == "config":
            config = _deep(BASE_CONFIG, at, value)
        elif where == "preset":
            config = dict(BASE_CONFIG, model={"file": _write(tmp_path / "model.json", _deep(PRESET_MODEL, at, value))})
        else:
            files = {"model": DAMPED_MODEL, "state": PLUS_STATE, "generator": SPARSE_SX}
            files[where] = _deep(files[where], at, value)
            config = dict(BASE_CONFIG, params=[0.8])
            for name, literal in files.items():
                config[name] = {"file": _write(tmp_path / f"{name}.json", literal)}
        cfg = _write(tmp_path / "cfg.json", config)
        self._expect_two(["qfi", "--config", cfg], tmp_path / "report.json", pointer, capsys)

    def test_config_file_that_is_not_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{model: oat:2")
        self._expect_two(["solve", "--config", str(cfg)], tmp_path / "report.json", "--config", capsys)

    def test_config_file_that_is_not_an_object(self, tmp_path, capsys):
        # checked before a flag is merged into it
        cfg = _write(tmp_path / "cfg.json", [BASE_CONFIG])
        code = cli.main(["solve", "--config", cfg, "--model", "oat:2", "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert capsys.readouterr().err == "validation error: config must be a JSON object\n"

    def test_malformed_params_flag(self, tmp_path, capsys):
        argv = ["solve", "--model", "oat:2", "--params", "0.8,x"]
        self._expect_two(argv, tmp_path / "report.json", "/params", capsys)

    def test_negative_seed_flag(self, tmp_path, capsys):
        argv = ["optimize", "--model", "oat:2", "--seed", "-1"]
        self._expect_two(argv, tmp_path / "report.json", "/optimizer/seed", capsys)

    @pytest.mark.parametrize("column, value", [("F", "abc"), ("grad_norm", None), ("iter", 1.5)])
    def test_trace_rows(self, tmp_path, capsys, column, value):
        rows = [{"iter": 0, "F": 0.1, "grad_norm": 0.5, "step": 0.1}, {"iter": 1, "F": 0.2, "grad_norm": 0.3, "step": 0.0}]
        rows[1][column] = value
        trace = tmp_path / "t.jsonl"
        trace.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        argv = ["emit-plots", "--kind", "trace", "--trace-file", str(trace)]
        self._expect_two(argv, tmp_path / "plot.csv", f"/1/{column}", capsys)


class TestExitCodes:
    def test_validation_error_exits_two(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["solve", "--model", "oat:2", "--params", "1.0", "--out", str(out)])
        assert code == 2

    def test_missing_file_exits_two(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["solve", "--config", str(tmp_path / "absent.json"), "--out", str(out)])
        assert code == 2

    def test_unwritable_report_exits_two(self, tmp_path, capsys):
        out = tmp_path / "absent" / "r.json"
        code = cli.main(["solve", "--model", "oat:1", "--params", "0.3,0.2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("i/o error: ")

    def test_integration_failure_exits_three(self, tmp_path, capsys):
        cfg = _write(
            tmp_path / "cfg.json",
            {
                "model": "oat:2",
                "params": [0.5, 0.5],
                "t_span": [0.0, 50.0],
                "solver": {"max_steps": 5},
            },
        )
        out = tmp_path / "r.json"
        code = cli.main(["solve", "--config", cfg, "--out", str(out)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_blown_up_stage_state_exits_three(self, tmp_path, capsys):
        cfg = _write(
            tmp_path / "cfg.json",
            {
                "model": "oat:2",
                "params": [1e150, 1e150],
                "t_span": [0, 1000],
                "solver": {"initial_step": 1000, "max_steps": 200},
            },
        )
        code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "numerical failure:" in capsys.readouterr().err

    def test_overflowing_initial_slope_exits_three(self, tmp_path, capsys):
        code = cli.main(["solve", "--model", "oat:2", "--params", "1e150,1e150", "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "numerical failure:" in capsys.readouterr().err


def test_python_dash_m_runs_cli_without_warnings(tmp_path):
    out = tmp_path / "r.json"
    env = dict(os.environ, PYTHONPATH=str(Path(lindbladiff.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "lindbladiff", "solve", "--model", "oat:1", "--params", "0.3,0.2", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(out.read_text())["subcommand"] == "solve"
