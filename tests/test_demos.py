"""Every demo script, and the README's library quickstart, runs to completion
against the current library."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def script(demo, tmp_path) -> Path:
    """The demo itself, or the README's ```python block written to a file."""
    if demo != README:
        return demo
    block, = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    path = tmp_path / "quickstart.py"
    path.write_text(block, encoding="utf-8")
    return path


@pytest.mark.parametrize("demo", DEMOS + [README], ids=[d.name for d in DEMOS + [README]])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(script(demo, tmp_path))], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
