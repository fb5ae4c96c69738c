"""Binary vorticity snapshots.

Layout (fixed little-endian for cross-platform byte-exact round-trips):
magic ``VFLD`` (4 bytes), format version u32, grid size M u32, time f64,
alpha f64, then M*M real-space vorticity values as f64, row-major with
the x index fastest.  Reading then writing a file reproduces it bit for
bit; a version mismatch is a hard error.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .spectral import SpectralField, forward_transform, inverse_transform

MAGIC = b"VFLD"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIdd")
#: payload rows per block that _encode yields (128 KB at M = 512)
_BLOCK_ROWS = 32


class SnapshotError(ValueError):
    """Unreadable or malformed snapshot file."""


@dataclass(frozen=True)
class Snapshot:
    """One stored vorticity field with its simulation time and alpha."""

    time: float
    alpha: float
    values: np.ndarray  # real grid values, indexed [i1, i2]

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise SnapshotError(f"snapshot values must be square, got {v.shape}")
        if v is not self.values or v.flags.writeable:
            if v is self.values:
                v = v.copy()
            v.setflags(write=False)
            object.__setattr__(self, "values", v)

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.values.shape[0])

    def field(self) -> SpectralField:
        return forward_transform(self.values, self.grid)


def snapshot_of(omega: SpectralField, time: float, alpha: float) -> Snapshot:
    return Snapshot(time=float(time), alpha=float(alpha), values=inverse_transform(omega))


def _encode(snap: Snapshot) -> Iterator[bytes | np.ndarray]:
    """The file's bytes in order: the header, then the payload in blocks of
    _BLOCK_ROWS stored rows, each a C-contiguous little-endian array whose
    buffer is those bytes, so no copy of the whole payload is made.  For a
    snapshot read from a file they are that file's bytes: the round trip is
    bit-exact."""
    m = snap.values.shape[0]
    yield _HEADER.pack(MAGIC, FORMAT_VERSION, m, snap.time, snap.alpha)
    # stored x-fastest: row i2 of the payload is column i2 of [i1, i2] values
    stored = snap.values.T
    for start in range(0, m, _BLOCK_ROWS):
        yield np.ascontiguousarray(stored[start : start + _BLOCK_ROWS], dtype="<f8")


def write_snapshot(path: str, snap: Snapshot) -> None:
    with open(path, "wb") as fh:
        for part in _encode(snap):
            fh.write(part)


def read_snapshot(path: str) -> Snapshot:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    if len(blob) < _HEADER.size:
        raise SnapshotError(f"truncated snapshot {path!r}: no complete header")
    magic, version, m, time, alpha = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise SnapshotError(f"bad magic {magic!r} in {path!r} (want {MAGIC!r})")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {version} in {path!r} "
            f"(supported: {FORMAT_VERSION})"
        )
    if m < 8 or m % 2:
        raise SnapshotError(f"bad grid size {m} in {path!r}")
    if not (np.isfinite(time) and np.isfinite(alpha)):
        raise SnapshotError(
            f"non-finite header in {path!r}: time {time!r}, alpha {alpha!r}"
        )
    expected = _HEADER.size + 8 * m * m
    if len(blob) != expected:
        raise SnapshotError(
            f"truncated snapshot {path!r}: {len(blob)} bytes, want {expected}"
        )
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    values = flat.reshape(m, m).T.copy()
    values.setflags(write=False)  # fresh and read-only: Snapshot keeps it uncopied
    return Snapshot(time=time, alpha=alpha, values=values)
