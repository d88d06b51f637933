"""HGF field file format.

Layout: magic "HGF1" (4 bytes) | header length (u32 little-endian) |
JSON header {n, extents, spacing, origin, ball_radius, p, metadata} |
payload of 8-byte little-endian IEEE-754 node values, t index fastest,
then y, then x, and nothing after it.  Write -> read round-trips
bit-exactly.  `atomic_write` is the package's one atomic file writer; the
CLI writes its JSON and CSV files with it too.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
import tempfile

import numpy as np

from .errors import ConfigurationError, DomainError
from .grid import Grid3, ScalarField, ball_mask, full_mask

MAGIC = b"HGF1"

__all__ = ["write_hgf", "read_hgf", "MAGIC"]


def atomic_write(path: str, data: bytes) -> None:
    """Write data to path by a temp file in its directory and a rename, so
    the path holds its old content or all of data, never a part.  An
    OSError names path, not the temp file."""
    dirname = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_hgf(
    path: str,
    field: ScalarField,
    ball_radius: float = None,
    p: float = None,
    metadata: dict = None,
) -> None:
    """Atomic write (`atomic_write`) of a field with its grid header."""
    header = {
        "n": 1,
        "extents": field.grid.shape,
        "spacing": field.grid.spacing,
        "origin": field.grid.corner,
        "ball_radius": ball_radius,
        "p": p,
        "metadata": metadata or {},
    }
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    atomic_write(path, b"".join((MAGIC, struct.pack("<I", len(raw)), raw, payload)))


def _check_header(path: str, header):
    """Check that the header is a JSON object whose n is the integer 1 and
    whose ball_radius is null or a positive finite number, and return that
    radius; the header's grid is `Grid3`'s to check."""
    if not isinstance(header, dict):
        raise DomainError(f"{path}: header is not a JSON object")
    n = header.get("n")
    if type(n) is not int or n != 1:
        raise DomainError(f"{path}: n must be the integer 1 (a field on H^1), got {n!r}")
    radius = header.get("ball_radius")
    if radius is not None and not (type(radius) in (int, float)
                                   and 0 < radius <= sys.float_info.max):
        raise DomainError(f"{path}: ball_radius must be null or positive, got {radius!r}")
    return radius


def read_hgf(path: str) -> tuple:
    """Read a field file; returns (ScalarField, header dict).

    The mask is reconstructed from header ball_radius (gauge ball) or is
    the full box when no radius was recorded.  Every malformed file --
    short, bad header, sizes that disagree with the file length, trailing
    bytes, non-finite values, nonzero values outside the ball -- raises
    DomainError.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise DomainError(f"{path}: not an HGF file (magic {magic!r})")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise DomainError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<I", raw_len)
        if 8 + hlen > size:
            raise DomainError(f"{path}: header length {hlen} exceeds the file size {size}")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise DomainError(f"{path}: unreadable header: {exc}") from None
        radius = _check_header(path, header)
        try:
            grid = Grid3(header.get("extents"), header.get("spacing"), header.get("origin"))
        except ConfigurationError as exc:
            raise DomainError(f"{path}: {exc}") from None
        count = math.prod(grid.shape)
        if size != 8 + hlen + 8 * count:
            raise DomainError(
                f"{path}: payload of {size - 8 - hlen} bytes, expected {8 * count}"
            )
        payload = fh.read(8 * count)
    # read-only; `ScalarField` keeps a fresh, writeable copy of it
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape)
    mask = full_mask(grid) if radius is None else ball_mask(grid, float(radius))
    outside = np.count_nonzero(values[~mask])
    if outside:
        raise DomainError(f"{path}: {outside} nonzero values outside the ball of radius {radius}")
    try:
        return ScalarField(grid, values, mask), header
    except ConfigurationError as exc:  # non-finite values
        raise DomainError(f"{path}: {exc}") from None
