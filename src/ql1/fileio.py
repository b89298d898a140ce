"""Problem file format (QL1P), suite manifest I/O, and the one CSV writer and reader.

QL1P layout, all little-endian:

    magic   4 bytes  0x51 0x4C 0x31 0x50 ("QL1P")
    version u32      1
    kind    u8       0 = dense, 1 = factored
    n       u64
    dense:    n*n f64, row-major A
    factored: u64 m, m*n f64 row-major B, f64 gamma
    b       n f64
    tau     f64

Writing then reading reproduces every field bit-exactly.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from ql1.problem import DenseOperator, FactoredOperator, QuadraticProblem

MAGIC = b"QL1P"
VERSION = 1
_KIND_DENSE = 0
_KIND_FACTORED = 1


class ProblemFormatError(ValueError):
    """Malformed QL1P data; ``offset`` is the byte position of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


def write_problem(path, problem: QuadraticProblem) -> None:
    # arrays go to the file through their buffers, with no bytes copy
    op = problem.op
    parts = [MAGIC, struct.pack("<I", VERSION)]
    if isinstance(op, DenseOperator):
        parts.append(struct.pack("<B", _KIND_DENSE))
        parts.append(struct.pack("<Q", op.n))
        parts.append(np.ascontiguousarray(op.a, dtype="<f8"))
    elif isinstance(op, FactoredOperator):
        parts.append(struct.pack("<B", _KIND_FACTORED))
        parts.append(struct.pack("<Q", op.n))
        parts.append(struct.pack("<Q", op.m))
        parts.append(np.ascontiguousarray(op.b_mat, dtype="<f8"))
        parts.append(struct.pack("<d", op.gamma))
    else:
        raise TypeError(f"cannot serialize operator of type {type(op).__name__}")
    parts.append(np.ascontiguousarray(problem.b, dtype="<f8"))
    parts.append(struct.pack("<d", problem.tau))
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part)


class _Reader:
    """Cursor over an open QL1P file; arrays are read into their own buffers."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0

    def _advance(self, count: int, what: str) -> None:
        if self.pos + count > self.size:
            raise ProblemFormatError(
                f"truncated file while reading {what}: need {self.pos + count} bytes, have {self.size}",
                self.pos,
            )
        self.pos += count

    def take(self, count: int, what: str) -> bytes:
        self._advance(count, what)
        return self.fh.read(count)

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def f64(self, what: str) -> float:
        value = struct.unpack("<d", self.take(8, what))[0]
        if not (math.isfinite(value) and value >= 0.0):
            raise ProblemFormatError(
                f"{what} must be finite and nonnegative, got {value}", self.pos - 8
            )
        return value

    def build(self, start: int, make, *args):
        """``make(*args)``, with its ValueError raised at the offset ``start``."""
        try:
            return make(*args)
        except ValueError as exc:
            raise ProblemFormatError(str(exc), start) from None

    def f64_array(self, count: int, what: str) -> np.ndarray:
        self._advance(8 * count, what)
        # a fresh array per field: writable, and it aliases no file buffer
        out = np.empty(count, dtype="<f8")
        if self.fh.readinto(memoryview(out).cast("B")) != 8 * count:
            raise ProblemFormatError(f"file shrank while reading {what}", self.pos - 8 * count)
        return out.astype(np.float64, copy=False)


def read_problem(path) -> QuadraticProblem:
    with open(path, "rb") as fh:
        return _parse(_Reader(fh))


def _parse(rd: _Reader) -> QuadraticProblem:
    magic = rd.take(4, "magic")
    if magic != MAGIC:
        raise ProblemFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    version = rd.u32("version")
    if version != VERSION:
        raise ProblemFormatError(f"unsupported version {version}", 4)
    kind = rd.u8("kind")
    n = rd.u64("n")
    # the constructors' one pass over each array rejects non-finite values
    if kind == _KIND_DENSE:
        at = rd.pos
        a = rd.f64_array(n * n, "dense matrix").reshape(n, n)
        op = rd.build(at, DenseOperator, a)
    elif kind == _KIND_FACTORED:
        m = rd.u64("m")
        at = rd.pos
        b_mat = rd.f64_array(m * n, "factor matrix").reshape(m, n)
        gamma = rd.f64("gamma")
        op = rd.build(at, FactoredOperator, b_mat, gamma)
    else:
        raise ProblemFormatError(f"unknown operator kind {kind}", 8)
    at = rd.pos
    b = rd.f64_array(n, "b vector")
    tau = rd.f64("tau")
    if rd.pos != rd.size:
        raise ProblemFormatError(
            f"trailing data: file has {rd.size} bytes, format ends at {rd.pos}", rd.pos
        )
    return rd.build(at, QuadraticProblem, op, b, tau)


@dataclass
class ManifestRow:
    problem: str
    family: str
    seed: int
    params: str
    path: str

    def param(self, key: str, default: str | None = None) -> str | None:
        for item in self.params.split(";"):
            if "=" in item:
                k, v = item.split("=", 1)
                if k == key:
                    return v
        return default


def write_manifest(path, rows: list[ManifestRow]) -> None:
    write_csv(path, ["problem", "family", "seed", "params", "path"],
              ([row.problem, row.family, row.seed, row.params, row.path] for row in rows))


def write_csv(path, header: list[str], rows: Iterable[Iterable[Any]]) -> None:
    """A header line, then one line per row, in csv's default dialect (CRLF line ends)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, columns: dict[str, Callable[[str], Any]]) -> list[dict[str, Any]]:
    """The rows of a CSV file with a header line, as dicts of converted values.

    ``columns`` maps each column the caller needs to the function that
    converts its text; other columns are ignored, and blank lines are
    skipped. A missing column, a row whose width differs from the
    header's, or a value its function rejects raises ValueError naming
    the file and line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name in columns if name not in header]
        if missing:
            raise ValueError(f"{path}, line 1: missing column(s) {', '.join(missing)}")
        index = {name: header.index(name) for name in columns}
        rows = []
        for row in reader:
            if not row:
                continue
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: {len(row)} fields, the header has {len(header)}")
            try:
                rows.append({name: conv(row[index[name]]) for name, conv in columns.items()})
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return rows


def read_manifest(path) -> list[ManifestRow]:
    columns = {"problem": str, "family": str, "seed": int, "params": str, "path": str}
    return [ManifestRow(**rec) for rec in read_csv(path, columns)]
