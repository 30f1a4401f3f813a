"""A recorded numeric fingerprint of the CLI pipeline.

``synth -> sweep -> train -> evaluate -> compare`` runs in-process on the
end-to-end config of the CI workflow at ``clusters = 3``, and every output
but the manifests (which hold paths and versions) is compared with the
record in ``tests/fingerprint/``: the set of files and every byte that is
not part of a number must be equal, and every number must lie within a
relative 1e-12 of its recorded value.  The numbers are compared only under
the numpy and scipy versions the record was made with; under others that
test is skipped and says so.

A change that is meant to move the numbers (a labelled round-off change)
re-records the fingerprint with

    PYTHONPATH=src python tests/test_fingerprint.py --record
"""

import json
import lzma
import math
import os
import platform
import re
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


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
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


def test_the_outputs_keep_their_numbers(outputs, recorded):
    with open(RECORD / "environment.json", encoding="utf-8") as fh:
        made_with = json.load(fh)
    running = {"numpy": np.__version__, "scipy": scipy.__version__}
    other = [f"{lib} {running[lib]} (recorded {made_with[lib]})"
             for lib in ("numpy", "scipy") if running[lib] != made_with[lib]]
    if other:
        pytest.skip("numeric check skipped under " + ", ".join(other))
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
