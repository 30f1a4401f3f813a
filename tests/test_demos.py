"""Every demo script, and the README's library quickstart, runs to completion
against the current library, every name the package exports or the README's
module map names exists, and the README's config block lists the CLI's keys
and their defaults."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzyrunoff
from fuzzyrunoff import cli

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


def module_map():
    """(module, backticked identifiers) of each row of the README's module map."""
    section = README.read_text(encoding="utf-8").split("## Module map\n", 1)[1]
    rows = re.findall(r"^\| `(\w+)` *\| (.*) \|$", section.split("\n## ", 1)[0], re.M)
    return [(module, [name for name in re.findall(r"`([^`]*)`", cell)
                      if re.fullmatch(r"[A-Za-z_]\w*", name)])
            for module, cell in rows]


def test_exported_names_resolve():
    assert [name for name in fuzzyrunoff.__all__ if not hasattr(fuzzyrunoff, name)] == []


def test_module_map_names_exist():
    rows = module_map()
    assert [module for module, _ in rows] == [
        "core", "clustering", "validity", "identify", "evalmetrics", "dataio", "atomicio",
        "cli"]
    for module, names in rows:
        found = importlib.import_module(f"fuzzyrunoff.{module}")
        # a name that is no attribute of its module may be a subcommand
        unknown = [name for name in names
                   if not hasattr(found, name) and name not in cli.COMMANDS]
        assert unknown == [], module


def test_config_block_lists_the_keys_the_cli_reads():
    text = README.read_text(encoding="utf-8")
    block = text.split("A config file is plain `key = value` text:\n\n```\n", 1)[1]
    settings = re.findall(r"^(\w+) = (\S+)", block.split("```", 1)[0], re.M)
    keys = [key for key, _ in settings]
    assert len(keys) == len(set(keys)) and set(keys) == cli.CONFIG_KEYS
    # the keys main accepts are those the subcommands read, by name, as
    # ClusterConfig's fields or as StormParams' fields
    source = Path(cli.__file__).read_text(encoding="utf-8")
    read = re.findall(r"(?:self|exp|raw)\.(?:get|load_series)\(\"(\w+)\"", source)
    derived = {f.name for f in cli._TUNED} | set(cli._STORM_KEYS)
    assert set(read) | derived == cli.CONFIG_KEYS
    # the values the README shows are the defaults, but for the keys it
    # names as exceptions and those without a default of their own
    exceptions = {"seed", "strides", "normalization", "max_lag", "synth_duration"}
    shown = cli.Experiment(raw=dict(settings), out="out", seed=0)
    checked = [key for key in keys
               if key not in exceptions and cli.CONFIG_DEFAULTS[key] is not None]
    assert {key: shown.get(key) for key in checked} == \
        {key: cli.CONFIG_DEFAULTS[key] for key in checked}
