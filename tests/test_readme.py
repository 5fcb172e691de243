"""README.md's "Library quick start" and "Command line" blocks run as written against the package,
PAPER.md carries README's module map and design notes unchanged, and README.md names exactly the
diagnostics that the reports carry."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import lindbladiff
from lindbladiff import cli

README = Path(__file__).resolve().parents[1] / "README.md"
PAPER = README.with_name("PAPER.md")


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    namespace: dict = {"__name__": "readme_quick_start"}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), f"{README.name} (Library quick start)", "exec"), namespace)
    assert out.getvalue().count("\n") >= 4  # every print ran
    assert namespace["check"]["pass"] is True
    assert namespace["rep"].gradient.shape == (2,)
    assert len(namespace["x_best"]) == 2


def test_command_line_block_runs(tmp_path):
    # the sample config becomes cfg.json; each documented command runs in order as python -m lindbladiff
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    commands = re.search(r"```sh\n(.*?)```", section, re.S).group(1).strip().splitlines()
    (tmp_path / "cfg.json").write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    env = dict(os.environ, PYTHONPATH=str(Path(lindbladiff.__file__).parents[1]))
    assert len(commands) == 6
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "lindbladiff"
        proc = subprocess.run([sys.executable, "-m", *argv], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"{line}: {proc.stderr}"
    assert (tmp_path / "trace.csv").read_text().startswith("iter,F,grad_norm,step\n")


def test_paper_module_map_matches_readme():
    def section(path: Path) -> str:
        text = path.read_text(encoding="utf-8")
        return text[text.index("### Module map") : text.index("## Command line")]

    assert section(PAPER) == section(README), "PAPER.md's module map and design notes differ from README.md's"


def _report_keys(node) -> set:
    """The keys of every object in a JSON tree, objects nested in lists included."""
    if isinstance(node, dict):
        return set(node).union(*map(_report_keys, node.values()))
    if isinstance(node, list):
        return set().union(*map(_report_keys, node))
    return set()


def _documented_keys(text: str, stage: str) -> set:
    """The bare names in backticks in README.md's paragraph on ``stages.<stage>``, after its first colon."""
    start = text.index(f"`stages.{stage}`")
    paragraph = text[start : text.index("\n\n", start)]
    return set(re.findall(r"`(\w+)`", paragraph.split(":", 1)[1]))


def test_report_diagnostics_are_the_documented_ones(tmp_path):
    # a key added to or dropped from these reports fails here until README.md's paragraph on it says so
    stages = {}
    for argv in (["qfi", "--grad"], ["grad-check"]):
        out = tmp_path / "report.json"
        assert cli.main(argv + ["--model", "oat:2", "--params", "0.7,0.4", "--out", str(out)]) == 0
        stages.update(json.loads(out.read_text())["stages"])
    text = README.read_text(encoding="utf-8")
    reports = [
        ("solve.stats", stages["solve"]["stats"]),
        ("adjoint", stages["adjoint"]),
        ("grad_check", stages["grad_check"]),
    ]
    for stage, report in reports:
        assert _documented_keys(text, stage) == _report_keys(report), f"stages.{stage}"
