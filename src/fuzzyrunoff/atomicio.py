"""Atomic file output for every file the package writes: text goes to a
uniquely named temporary file beside the target, then is renamed over it,
so readers never see a partial file and writers never share a temporary."""

from __future__ import annotations

import csv
import io
import os
import uuid


def write_atomic(path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8, newlines written as given)."""
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
