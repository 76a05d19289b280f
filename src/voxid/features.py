"""Per-frame feature matrices and their on-disk formats."""

from __future__ import annotations

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


@dataclass(frozen=True)
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


FEATURE_MAGIC = b"VOXFTR01"


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

    The feature, model and database formats are all read through it: a
    short read, text that is not UTF-8 or a leftover byte raises
    ``BadFileFormat`` naming the format.
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


def feature_matrix_to_bytes(matrix: FeatureMatrix) -> bytes:
    return (
        FEATURE_MAGIC
        + pack_text(matrix.kind.value)
        + struct.pack("<QQ", matrix.n_frames, matrix.dim)
        + matrix.values.astype("<f8").tobytes(order="C")
    )


def feature_matrix_from_bytes(blob: bytes) -> FeatureMatrix:
    reader = BlobReader(blob, "feature file", FEATURE_MAGIC)
    kind = FeatureKind.parse(reader.text())
    rows, cols = reader.unpack("<QQ")
    values = reader.floats(rows * cols)
    reader.end()
    if not np.all(np.isfinite(values)):
        raise BadFileFormat("feature file holds non-finite values")
    try:
        return FeatureMatrix(kind, values.reshape(rows, cols))
    except ValueError as exc:  # zero columns, or a shape numpy cannot hold
        raise BadFileFormat(f"feature file: {exc}") from None


def save_features(matrix: FeatureMatrix, path: str | Path) -> None:
    Path(path).write_bytes(feature_matrix_to_bytes(matrix))


def load_features(path: str | Path) -> FeatureMatrix:
    return feature_matrix_from_bytes(Path(path).read_bytes())


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
