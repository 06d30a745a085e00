"""The block reader: a large CSV file parsed in byte ranges, one per usable
CPU, by this process and forked workers.

``data.load_dataset`` imports it only for a file of two blocks or more
where the platform has ``os.fork``, so a process that reads small files
never compiles it. ``read_blocks`` returns what the one-pass reader
returns, or None, and the caller then reads the whole file in one pass: so
every dataset, error type, message and file line is the one-pass reader's.
"""

from __future__ import annotations

import csv
import os
import signal
import struct
import warnings
from contextlib import suppress
from pathlib import Path

from .data import _header, _parse_rows


def _range_lines(handle, start: int, end: int):
    """The lines of an open binary file from ``start`` up to ``end``, both
    line ends, decoded as UTF-8: the lines the one-pass reader's text stream
    gives, or a ValueError.

    A quote fails the range, since a quoted field may hold a line break
    that a cut split, and so does a carriage return other than one before
    the line feed or at the end of the file, which that stream splits at.
    """
    handle.seek(start)
    for line in handle:
        if start >= end:
            return
        if b'"' in line or b"\r" in line.removesuffix(b"\n").removesuffix(b"\r"):
            raise ValueError("a line the one-pass reader alone reads right")
        start += len(line)
        yield line.decode()


def _parse_range(path: Path, start: int, end: int, layout):
    """The ``_parse_rows`` buffer of the records in bytes ``start:end`` of a file.

    Line numbers in its errors count from the range's start; no error of a
    range is shown, because a failed range sends the whole file to the
    one-pass reader.
    """
    with open(path, "rb") as handle:
        return _parse_rows(path, csv.reader(_range_lines(handle, start, end)), *layout)


def _fork_worker(path: Path, start: int, end: int, layout, readers):
    """Fork a process that parses one range and writes its buffer's byte
    count and then the buffer to a pipe, or nothing if it fails; return its
    pid and the pipe's read end. ``readers`` are earlier workers' read ends.
    """
    read_end, write_end = os.pipe()
    pipe = open(read_end, "rb")
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that forking a process with threads (OpenBLAS
            # starts its pool at import) may deadlock the child. This child
            # only parses: it takes no lock held by another thread and ends in
            # os._exit.
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
            )
            pid = os.fork()
    except BaseException:
        pipe.close()
        os.close(write_end)
        raise
    if pid == 0:
        try:
            # a read end left open here would keep a write from failing once
            # the parent has closed its own, and the write could block for ever
            for reader in (pipe, *readers):
                reader.close()
            rows = _parse_range(path, start, end, layout)
            with open(write_end, "wb") as out:
                out.write(struct.pack("q", len(rows)))
                out.write(rows)
        finally:
            os._exit(0)
    os.close(write_end)
    return pid, pipe


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def read_blocks(path: Path, label_column: str, block_bytes: int):
    """The feature names and the ``_parse_rows`` buffer of a CSV file, from
    one byte range per usable CPU parsed in parallel; None when the file is
    under two blocks for two CPUs, or any range fails.

    The body is cut at the first line feed past each equal share. The first
    range is parsed here, each other one in a forked worker whose buffer is
    appended to this process's as it arrives.
    """
    size = path.stat().st_size
    count = min(_usable_cpus(), size // block_bytes)
    if count < 2:
        return None
    workers: list = []
    result = None
    try:
        with open(path, "rb") as handle:
            head = handle.readline()
            line = head.removesuffix(b"\n")
            if line == head or b'"' in head or b"\r" in line.removesuffix(b"\r"):
                return None  # a header line the stream alone reads right
            cuts = [handle.tell()]
            for k in range(1, count):
                handle.seek(max(cuts[-1], cuts[0] + k * (size - cuts[0]) // count))
                handle.readline()
                cuts.append(handle.tell())
        cuts.append(size)
        layout = _header(path, csv.reader([head.decode("utf-8-sig")]), label_column)
        for start, end in zip(cuts[1:], cuts[2:]):
            workers.append(_fork_worker(path, start, end, layout, [p for _, p in workers]))
        rows = _parse_range(path, cuts[0], cuts[1], layout)
        for _, pipe in workers:
            (nbytes,) = struct.unpack("q", pipe.read(8))
            end = len(rows) + nbytes
            while chunk := pipe.read(1 << 16):
                rows += chunk
            if len(rows) != end:
                raise ValueError("a worker's output was cut short")
        result = layout[2], rows
    except Exception:
        pass  # the caller reads the whole file in one pass
    finally:
        for pid, pipe in workers:
            pipe.close()
            if result is None:  # a worker still parsing stops at once
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):  # gone already where SIGCHLD is ignored
                os.waitpid(pid, 0)
    return result
