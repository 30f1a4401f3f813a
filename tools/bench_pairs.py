"""Benchmark a change against its parent commit, in alternating pairs.

    python3 tools/bench_pairs.py PARENT_REV --out BENCH_<n>.json

copies the files of ``PARENT_REV`` (``git archive``) and those of the
working tree (tracked and untracked, less what .gitignore names) into two
fresh directories, then runs ``python3 benchmarks/run.py --workload W`` in
each, in ten pairs per workload, the parent first in the even pairs and the
change first in the odd ones.  The JSON it writes holds every run's ``env``
and ``samples`` lines and its last-line result, the parent's commit id, the
commit the working tree sits on and a digest of its diff to that commit
under src, each side's ``src_lines`` (see ``src_lines``), the host line
(see ``host``) and, per workload, the median of each end-to-end metric on
each side and its ``verdicts`` (see ``verdicts``).  The workloads and the
end-to-end metrics, with their directions and bounds, are those
BENCHMARK.json declares.  Each run takes the benchmark's own run length.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def copy_parent(rev: str, dest: Path) -> None:
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", rev), check=True)


def copy_worktree(dest: Path) -> None:
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.decode().split("\0")):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def src_lines(root: Path) -> int:
    """The lines of ``root``'s src/fuzzyrunoff/*.py as ``wc -l`` counts
    them: their newline characters."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "fuzzyrunoff").glob("*.py"))


# Prints the threads numpy's bundled OpenBLAS runs with, or null where the
# library or its symbol is missing; numpy is imported first.
BLAS_PROBE = """
import ctypes, pathlib, numpy
libs = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
try:
    lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas64_*.so"))))
    threads = lib.scipy_openblas_get_num_threads64_
except (StopIteration, OSError, AttributeError):
    print("null")
else:
    threads.argtypes, threads.restype = [], ctypes.c_int
    print(threads())
"""


def numpy_blas_threads() -> int | None:
    """The threads numpy's bundled OpenBLAS runs with in a fresh process of
    this environment that imports numpy before anything else, as
    benchmarks/run.py does (its imports load numpy before it sets
    OPENBLAS_NUM_THREADS), or None where the library has no such count."""
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def host(env: dict) -> dict:
    """The record's host line from a run's ``env`` line: ``blas_threads_requested``
    is the OPENBLAS_NUM_THREADS value benchmarks/run.py sets, and
    ``numpy_blas_threads`` the count numpy's OpenBLAS reports (see
    ``numpy_blas_threads``)."""
    return {"vcpus": env["nproc"], "blas_threads_requested": env["blas_threads"],
            "numpy_blas_threads": numpy_blas_threads(), "python": env["python"],
            "numpy": env["numpy"], "scipy": env["scipy"], "blas": env["blas"]}


def run(root: Path, workload: str) -> dict:
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload],
                          cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root.name} {workload} exited {proc.returncode}:\n{proc.stderr}")
    head = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
            for line in lines if line.startswith(("env ", "samples "))}
    return {**head, "result": json.loads(lines[-1])}


def medians(runs: list[dict]) -> dict:
    names = runs[0]["result"]["metrics"]
    return {name: statistics.median(r["result"]["metrics"][name]["value"] for r in runs)
            for name in names}


def verdicts(runs: dict, end_to_end: list[dict]) -> dict:
    """What one workload's paired ``runs`` show for each metric of
    ``end_to_end`` (BENCHMARK.json's entries: name, better, bound).

    Per metric: ``wins``, the pairs in which the change reads better, ties
    counting for neither side; ``parent_iqr``, the distance between the
    parent's quartiles over its median; ``move``, the change of the median
    over the parent's, signed as the metric moves; and ``verdict``:
    ``worse`` where the change's median is worse than the parent's by more
    than the bound, ``better`` where the change wins at least nine tenths
    of the pairs and its median beats the parent's by more than
    ``parent_iqr``, ``unresolved`` where the parent's spread is wider than
    the bound and not every change run beats every parent run, and
    ``within`` otherwise.
    """
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        # a lower-is-better view of each side's values
        sign = 1.0 if metric["better"] == "lower" else -1.0
        parent, change = ([sign * r["result"]["metrics"][name]["value"] for r in runs[side]]
                          for side in ("parent", "change"))
        base = statistics.median(parent)
        q1, _, q3 = statistics.quantiles(parent, n=4)
        spread = (q3 - q1) / abs(base)
        worsening = (statistics.median(change) - base) / abs(base)
        wins = sum(c < p for p, c in zip(parent, change))
        if worsening > metric["bound"]:
            verdict = "worse"
        elif 10 * wins >= 9 * len(parent) and -worsening > spread:
            verdict = "better"
        elif spread > metric["bound"] and max(change) >= min(parent):
            verdict = "unresolved"
        else:
            verdict = "within"
        out[name] = {"wins": wins,
                     "parent_iqr": spread, "move": sign * worsening, "verdict": verdict}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="the parent commit")
    p.add_argument("--out", required=True, help="the JSON file to write")
    args = p.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the change is the working tree, not yet a commit: name the commit it
    # sits on and the digest of its diff to that commit under src
    record = {"parent": {"commit": git("rev-parse", args.parent).decode().strip()},
              "change": {"commit": None, "over": git("rev-parse", "HEAD").decode().strip(),
                         "src_diff_sha256": hashlib.sha256(
                             git("diff", "HEAD", "--", "src")).hexdigest()},
              "pairs": PAIRS, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        copy_parent(args.parent, sides["parent"])
        copy_worktree(sides["change"])
        for side, root in sides.items():
            record[side]["src_lines"] = src_lines(root)
        for workload in (w["name"] for w in benchmark["workloads"]):
            runs = {"parent": [], "change": []}
            for k in range(PAIRS):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    runs[side].append(run(sides[side], workload))
                    wall = runs[side][-1]["result"]["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {k} {side}: wall_s {wall:.4g}", file=sys.stderr)
            record["host"] = host(runs["change"][0]["env"])
            record["workloads"][workload] = {
                "median": {side: medians(r) for side, r in runs.items()},
                "verdicts": verdicts(runs, benchmark["end_to_end"]), "runs": runs}
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
