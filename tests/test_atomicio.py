import csv
import io
import math

import pytest

from fuzzyrunoff.atomicio import write_atomic, write_csv, write_numeric_csv


def csv_module_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def number_text(value) -> str:
    # the text csv.writer writes for a number: str of an int, repr of a float
    return repr(value) if isinstance(value, float) else str(value)


VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e22, -1e22, 0.1, 1 / 3,
          2.5e-7, 0, 7, -12, 10**20]


class TestNumericCsv:
    """write_numeric_csv joins the rows by hand and must write the bytes the
    csv module writes for the same table."""

    @pytest.mark.parametrize("header", [
        ["index", "observed", "predicted"],
        ["a,b", 'say "x"', "plain"],
        ["line\nbreak", "", " padded "],
    ], ids=["plain", "quoted", "awkward"])
    @pytest.mark.parametrize("n_rows", [0, 1, len(VALUES)])
    def test_same_bytes_as_the_csv_module(self, tmp_path, header, n_rows):
        rows = [[k, VALUES[k], VALUES[-1 - k]] for k in range(n_rows)]
        columns = [[number_text(v) for v in column] for column in zip(*rows)] or [[]] * 3
        write_numeric_csv(tmp_path / "hand.csv", header, columns)
        write_csv(tmp_path / "module.csv", header, rows)
        want = csv_module_text(header, rows).encode()
        assert (tmp_path / "hand.csv").read_bytes() == want
        assert (tmp_path / "module.csv").read_bytes() == want

    def test_columns_may_be_iterators(self, tmp_path):
        values = [1.5, -0.0, math.inf]
        write_numeric_csv(tmp_path / "t.csv", ["k", "v"],
                          [map(str, range(3)), map(repr, values)])
        assert (tmp_path / "t.csv").read_bytes() == csv_module_text(
            ["k", "v"], zip(range(3), values)).encode()

    def test_header_only(self, tmp_path):
        write_numeric_csv(tmp_path / "t.csv", ["a,b", "c"], [])
        assert (tmp_path / "t.csv").read_bytes() == b'"a,b",c\r\n'


@pytest.mark.parametrize("target", ["a/b/report.txt", "report.txt"])
def test_write_atomic_makes_the_directory(tmp_path, monkeypatch, target):
    # a bare file name is written to the working directory
    monkeypatch.chdir(tmp_path)
    write_atomic(target, "text\n")
    assert (tmp_path / target).read_text() == "text\n"
