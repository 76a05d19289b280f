"""Per-frame feature matrices, their CSV export, and the pieces that the
model and database formats share: text packing, a blob reader and file reads."""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import BadFileFormat, DimError, FeatureKindMismatch


class FeatureKind(str, Enum):
    """Named feature streams; the value doubles as the serialized tag."""

    ACRLAG = "ACRLAG"
    MFCC = "MFCC"
    LFCC = "LFCC"
    LPCC = "LPCC"
    LSF = "LSF"
    LAR = "LAR"
    PLPCC = "PLPCC"

    @classmethod
    def parse(cls, name: str) -> "FeatureKind":
        try:
            return cls(str(name).upper())
        except ValueError:
            raise BadFileFormat(f"unknown feature kind {name!r}") from None


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Feature vectors of one kind, one row per retained frame."""

    kind: FeatureKind
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("feature values must be a 2-D array (frame x coefficient)")
        if values.shape[1] < 1:
            raise ValueError("feature dimension must be at least 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "kind", FeatureKind(self.kind))

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def concatenate_features(parts: Iterable[FeatureMatrix]) -> FeatureMatrix:
    """Stack matrices of one kind, keeping frame order."""
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to concatenate")
    kind = parts[0].kind
    dim = parts[0].dim
    for p in parts[1:]:
        if p.kind is not kind:
            raise FeatureKindMismatch(f"cannot mix {kind.value} with {p.kind.value}")
        if p.dim != dim:
            raise DimError(f"dimension mismatch: {dim} vs {p.dim}")
    return FeatureMatrix(kind, np.vstack([p.values for p in parts]))


def pack_text(text: str) -> bytes:
    """A u32 byte count, then the UTF-8 bytes of ``text``."""
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class BlobReader:
    """Cursor over a little-endian, length-prefixed binary blob.

    The model and database formats are both read through it: a short read,
    text that is not UTF-8 or a leftover byte raises ``BadFileFormat``
    naming the format.
    """

    def __init__(self, blob: bytes, what: str, magic: bytes) -> None:
        if blob[: len(magic)] != magic:
            raise BadFileFormat(f"bad {what} magic {blob[:len(magic)]!r}, expected {magic!r}")
        self._blob = blob
        self._off = len(magic)
        self._what = what

    def take(self, n: int) -> bytes:
        left = len(self._blob) - self._off
        if n > left:
            raise BadFileFormat(f"{self._what} truncated: {n} bytes wanted, {left} left")
        self._off += n
        return self._blob[self._off - n : self._off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self) -> str:
        (n,) = self.unpack("<I")
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadFileFormat(f"{self._what} text is not UTF-8 ({exc})") from None

    def floats(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").copy()

    def end(self) -> None:
        left = len(self._blob) - self._off
        if left:
            raise BadFileFormat(f"{left} trailing bytes after {self._what} payload")


def read_file(path: str | Path) -> bytes:
    """The file's bytes; BadFileFormat naming the path when it cannot be
    read (a missing file, a directory, a failed read)."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise BadFileFormat(f"{path}: cannot be read ({exc.strerror or exc})") from exc


def read_json(path: str | Path) -> object:
    """The file's JSON document; BadFileFormat naming the path when it
    cannot be read, is not UTF-8 or is not JSON."""
    blob = read_file(path)
    try:
        return json.loads(blob)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise BadFileFormat(f"{path}: not valid JSON ({exc})") from None


def write_json(path: str | Path, doc: object) -> None:
    """Every JSON file voxid writes: two-space indents, sorted keys, a final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def export_csv(matrix: FeatureMatrix, path: str | Path) -> None:
    """Write a plain CSV (header row of coefficient names) for inspection."""
    names = [f"{matrix.kind.value.lower()}_{i}" for i in range(matrix.dim)]
    np.savetxt(
        str(path),
        matrix.values,
        delimiter=",",
        header=",".join(names),
        comments="",
        fmt="%.17g",
    )
