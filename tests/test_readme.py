"""README.md's "Library quick start" block runs as written against the package."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


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
