"""The verdicts that tools/bench_pairs.py writes beside its medians, on a
hand-made record of four pairs, and the source line count it records, on a
small tree, with no benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "slower_s", "better": "lower", "bound": 0.25},
              {"name": "quicker_s", "better": "lower", "bound": 0.25},
              {"name": "rows_per_s", "better": "higher", "bound": 0.25},
              {"name": "faster_rows_per_s", "better": "higher", "bound": 0.25}]
# per metric: the parent's values and the change's, pair by pair
VALUES = {"wall_s": ([1.0, 1.0, 1.0, 1.0], [0.9, 1.0, 0.9, 0.9]),
          "slower_s": ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3]),
          "quicker_s": ([1.0, 1.1, 1.0, 1.1], [0.8, 0.8, 0.8, 0.8]),
          "rows_per_s": ([10.0, 20.0, 10.0, 20.0], [15.0, 15.0, 15.0, 15.0]),
          "faster_rows_per_s": ([10.0, 20.0, 10.0, 20.0], [21.0, 22.0, 21.0, 22.0])}


def runs():
    return {side: [{"result": {"metrics": {name: {"value": values[k][i]}
                                           for name, values in VALUES.items()}}}
                   for i in range(4)]
            for k, side in enumerate(("parent", "change"))}


@pytest.mark.parametrize("name, wins, parent_iqr, move, verdict", [
    # a tie counts for neither side, so 3 wins of 4 are too few for better
    ("wall_s", 3, 0.0, -0.1, "within"),
    ("slower_s", 0, 0.0, 0.3, "worse"),
    # every pair won, the median 0.25 / 1.05 lower: more than the parent's
    # quartiles 1.0 and 1.1 are apart over its median
    ("quicker_s", 4, 0.1 / 1.05, -0.25 / 1.05, "better"),
    # the parent's quartiles are 10 and 20 about a median of 15
    ("rows_per_s", 2, 10 / 15, 0.0, "unresolved"),
    # as wide, and every change run beats every parent run, but by less
    # than the parent's spread
    ("faster_rows_per_s", 4, 10 / 15, 6.5 / 15, "within"),
])
def test_verdicts(name, wins, parent_iqr, move, verdict):
    got = bench_pairs.verdicts(runs(), END_TO_END)[name]
    assert got == {"wins": wins, "parent_iqr": pytest.approx(parent_iqr),
                   "move": pytest.approx(move), "verdict": verdict}


def test_src_lines_counts_as_wc_does(tmp_path):
    package = tmp_path / "src" / "fuzzyrunoff"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("import os\n\nx = 1\n")
    (package / "b.py").write_text("y = 2\nz = 3")  # wc counts no line without a newline
    (package / "empty.py").write_text("")
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub" / "c.py").write_text("not counted\n")
    assert bench_pairs.src_lines(tmp_path) == 4
