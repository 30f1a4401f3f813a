"""A recorded numeric fingerprint of the CLI pipeline.

``synth -> sweep -> train -> evaluate -> compare`` runs in-process on the
end-to-end config of the CI workflow at ``clusters = 3``, and every output
but the manifests (which hold paths and versions) is compared with the
record in ``tests/fingerprint/``: the set of files and every byte that is
not part of a number must be equal, and every number must lie within a
relative 1e-12 of its recorded value.  The numbers are compared only under
the numpy and scipy versions and the OpenBLAS kernels (its core name) the
record was made with; under others that test is skipped and says so.

A change that is meant to move the numbers (a labelled round-off change)
re-records the fingerprint with

    PYTHONPATH=src python tests/test_fingerprint.py --record
"""

import ctypes
import json
import lzma
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
import scipy

from fuzzyrunoff import cli

RECORD = Path(__file__).parent / "fingerprint"
CONFIG = """\
seed = 11
base_interval = 30
synth_duration = 6000
train_csv = out/train.csv
validation_csv = out/validation.csv
algorithms = gk,fcm,sc
clusters = 3
c_max = 4
strides = 1,2
normalization = both
include_train = on
lag = auto
max_lag = 15
"""
STEPS = ("synth", "sweep", "train", "evaluate", "compare")
TOLERANCE = 1e-12
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")
PLACEHOLDER = "\0"


def run_pipeline(root: Path) -> dict[str, str]:
    """The text of every output but the manifests of the pipeline run in
    ``root``, by path relative to its output directory."""
    (root / "exp.conf").write_text(CONFIG)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for step in STEPS:
            assert cli.main([step, "--config", "exp.conf"]) == 0, step
    out = root / "out"
    return {p.relative_to(out).as_posix(): p.read_text(encoding="utf-8")
            for p in sorted(out.rglob("*"))
            if p.is_file() and not p.name.startswith("manifest_")}


def fingerprint(outputs: dict[str, str]) -> dict:
    """Each file's text with its numbers replaced by a placeholder, and the
    numbers in order."""
    return {name: {"text": NUMBER.sub(PLACEHOLDER, text),
                   "numbers": [float(n) for n in NUMBER.findall(text)]}
            for name, text in outputs.items()}


def openblas_core() -> str | None:
    """The name of the kernels numpy's bundled OpenBLAS chose for this CPU
    (``OPENBLAS_CORETYPE`` chooses others), or None if it cannot be read."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    try:
        lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas64_*.so"))))
        corename = lib.scipy_openblas_get_corename64_
    except (StopIteration, OSError, AttributeError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "openblas_core": openblas_core(),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "machine": platform.machine()}


def fields(name: str, text: str):
    """(line number, field name) of each number of ``text``, in order: the
    column of a CSV file, else the first word of the line."""
    lines = text.splitlines()
    header = lines[0].split(",") if name.endswith(".csv") else None
    for lineno, line in enumerate(lines, start=1):
        for m in NUMBER.finditer(line):
            if header is None:
                yield lineno, line.split()[0]
            else:
                yield lineno, header[line.count(",", 0, m.start())]


def relative_change(recorded: float, now: float) -> float:
    if recorded == now or (math.isnan(recorded) and math.isnan(now)):
        return 0.0
    return abs(now - recorded) / abs(recorded) if recorded else math.inf


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("fingerprint"))


@pytest.fixture(scope="module")
def recorded():
    with lzma.open(RECORD / "pipeline.json.xz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


def test_the_outputs_keep_their_files_and_text(outputs, recorded):
    now = fingerprint(outputs)
    assert sorted(now) == sorted(recorded)
    for name, entry in recorded.items():
        if now[name]["text"] != entry["text"]:
            lines = zip_longest(now[name]["text"].splitlines(), entry["text"].splitlines())
            lineno = next(k for k, (a, b) in enumerate(lines, start=1) if a != b)
            pytest.fail(f"{name}: the text outside the numbers differs "
                        f"(first at line {lineno})")


@pytest.fixture(scope="module")
def same_numerics():
    """Skips, naming them, under numpy, scipy or OpenBLAS kernels other than
    the record's.  Module-scoped and first in a test's fixtures, so it is set
    up before ``outputs`` and a skipped test does not run the pipeline."""
    with open(RECORD / "environment.json", encoding="utf-8") as fh:
        made_with = json.load(fh)
    running = {"numpy": np.__version__, "scipy": scipy.__version__,
               "openblas_core": openblas_core()}
    other = [f"{lib} {running[lib]} (recorded {made_with[lib]})"
             for lib in running if running[lib] != made_with[lib]]
    if other:
        pytest.skip("numeric check skipped under " + ", ".join(other))


def test_the_outputs_keep_their_numbers(same_numerics, outputs, recorded):
    now = fingerprint(outputs)
    moved = []  # the largest change of each file whose numbers moved
    for name, entry in recorded.items():
        numbers = now[name]["numbers"]
        assert len(numbers) == len(entry["numbers"]), name
        changes = [relative_change(a, b) for a, b in zip(entry["numbers"], numbers)]
        if changes and max(changes) > TOLERANCE:
            k = max(range(len(changes)), key=changes.__getitem__)
            lineno, field = list(fields(name, outputs[name]))[k]
            moved.append(f"{name}: line {lineno}, field '{field}': largest relative "
                         f"change {changes[k]:.3g} (recorded {entry['numbers'][k]!r}, "
                         f"now {numbers[k]!r})")
    if moved:
        pytest.fail("\n".join(moved))


@pytest.mark.skipif(platform.machine() != "x86_64",
                    reason="OPENBLAS_CORETYPE=Prescott selects x86-64 kernels")
def test_other_openblas_kernels_skip_the_numbers(tmp_path):
    # the numeric test in a child process whose OpenBLAS runs other kernels
    test = f"{Path(__file__).resolve()}::test_the_outputs_keep_their_numbers"
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rs", "--setup-show",
                           "-p", "no:cacheprovider", test], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    made_with = json.loads((RECORD / "environment.json").read_text())["openblas_core"]
    skipped = re.search(r"SKIPPED .*openblas_core (\S+) \(recorded (\S+)\)", proc.stdout)
    assert skipped, proc.stdout
    assert skipped[2] == str(made_with) and skipped[1] != skipped[2]
    assert "1 skipped" in proc.stdout
    # the skip comes before the pipeline: --setup-show lists no outputs fixture
    assert "SETUP    M same_numerics" in proc.stdout
    assert " outputs" not in proc.stdout, proc.stdout


def record(root: Path) -> None:
    RECORD.mkdir(exist_ok=True)
    text = json.dumps(fingerprint(run_pipeline(root)), indent=0, sort_keys=True)
    with lzma.open(RECORD / "pipeline.json.xz", "wt", encoding="utf-8", preset=9) as fh:
        fh.write(text)
    (RECORD / "environment.json").write_text(json.dumps(environment(), indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
    print(f"recorded {RECORD}")
