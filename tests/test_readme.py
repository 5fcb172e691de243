"""README.md's "Library quick start" and "Command line" blocks run as written against the package,
and PAPER.md carries README's module map and design notes unchanged."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import lindbladiff

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
