"""Atomic file output for every file the package writes: text goes to a
uniquely named temporary file beside the target, then is renamed over it,
so readers never see a partial file and writers never share a temporary."""

from __future__ import annotations

import csv
import io
import os
import uuid


def write_atomic(path, text: str) -> None:
    """Replace ``path``, making its directory, with ``text`` (UTF-8, newlines as given).

    The rename makes the replacement atomic for readers and safe against a
    crash of this process, but there is no fsync: after a crash of the
    operating system or a power loss the file may hold its old content or be
    empty.  That is deliberate.  Every output is reproducible from its config
    and seed, which the run's manifest records, so a rerun restores it byte
    for byte; an fsync of each file and its directory would add a disk flush
    to each of the many small files a run writes (81 for the benchmark's
    synth-train-evaluate-compare pipeline).
    """
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Atomically write a CSV file: one header row, then ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue())


def write_numeric_csv(path, header, columns) -> None:
    """Atomically write a CSV file of numbers given as text ``columns``,
    equal-length sequences of ``repr`` floats or ``str`` ints, in the bytes
    :func:`write_csv` writes for the same table.

    The header goes through ``csv.writer``, so it is quoted as there.  The
    csv module never quotes number text (no comma, quote or line break, never
    empty), so the rows are joined by hand, with its "," and "\r\n".
    """
    buf = io.StringIO()
    csv.writer(buf).writerow(header)
    lines = list(map(",".join, zip(*columns)))
    lines.append("")
    write_atomic(path, buf.getvalue() + "\r\n".join(lines))
