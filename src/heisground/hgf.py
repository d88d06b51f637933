"""HGF field file format.

Layout: magic "HGF1" (4 bytes) | header length (u32 little-endian) |
JSON header {n, extents, spacing, origin, ball_radius, p, metadata} |
payload of 8-byte little-endian IEEE-754 node values, t index fastest,
then y, then x, and nothing after it.  Write -> read round-trips
bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import ConfigurationError, DomainError
from .grid import Grid3, ScalarField, ball_mask, full_mask

MAGIC = b"HGF1"

__all__ = ["write_hgf", "read_hgf", "MAGIC"]


def write_hgf(
    path: str,
    field: ScalarField,
    ball_radius: float = None,
    p: float = None,
    metadata: dict = None,
) -> None:
    """Atomic write (temp file + rename) of a field with its grid header."""
    header = {
        "n": 1,
        "extents": list(field.grid.shape),
        "spacing": list(field.grid.spacing),
        "origin": list(field.grid.corner),
        "ball_radius": ball_radius,
        "p": p,
        "metadata": metadata or {},
    }
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    dirname = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".hgf.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_header(path: str, header) -> tuple:
    """Validate a decoded header; returns the extents as a shape tuple."""
    if not isinstance(header, dict):
        raise DomainError(f"{path}: header is not a JSON object")
    extents = header.get("extents")
    if not (
        isinstance(extents, list)
        and len(extents) == 3
        and all(isinstance(n, int) and not isinstance(n, bool) and n > 0 for n in extents)
    ):
        raise DomainError(f"{path}: extents must be 3 positive integers, got {extents!r}")
    for key, positive in (("spacing", True), ("origin", False)):
        vals = header.get(key)
        if not (
            isinstance(vals, list)
            and len(vals) == 3
            and all(_is_number(x) and (x > 0 or not positive) for x in vals)
        ):
            kind = "finite positive" if positive else "finite"
            raise DomainError(f"{path}: {key} must be 3 {kind} numbers, got {vals!r}")
    radius = header.get("ball_radius")
    if radius is not None and not (_is_number(radius) and radius > 0):
        raise DomainError(f"{path}: ball_radius must be null or positive, got {radius!r}")
    return tuple(extents)


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
        shape = _check_header(path, header)
        count = shape[0] * shape[1] * shape[2]
        if size != 8 + hlen + 8 * count:
            raise DomainError(
                f"{path}: payload of {size - 8 - hlen} bytes, expected {8 * count}"
            )
        payload = fh.read(8 * count)
    values = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    try:
        grid = Grid3(
            shape=shape,
            spacing=tuple(header["spacing"]),
            corner=tuple(header["origin"]),
        )
        radius = header.get("ball_radius")
        mask = full_mask(grid) if radius is None else ball_mask(grid, float(radius))
        outside = np.count_nonzero(values[~mask])
        if outside:
            raise DomainError(
                f"{path}: {outside} nonzero values outside the ball of radius {radius}"
            )
        return ScalarField(grid, values, mask), header
    except ConfigurationError as exc:  # grid too small, non-finite values
        raise DomainError(f"{path}: {exc}") from None
