"""Point-cloud file I/O: whitespace text and the LCPC binary format.

Text: one ``x y z [label]`` line per point.  Binary: magic ``LCPC``,
little-endian u32 point count, then float32 xyz triples.
"""
from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .geometry import PointCloud

CLOUD_MAGIC = b"LCPC"


def write_cloud_text(path, cloud: PointCloud) -> None:
    with open(path, "w", encoding="ascii") as fh:
        if cloud.point_labels is not None:
            for p, lbl in zip(cloud.points, cloud.point_labels):
                fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g} {int(lbl)}\n")
        else:
            for p in cloud.points:
                fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")


def read_cloud_text(path) -> PointCloud:
    """Read ``x y z [label]`` lines.  A non-ASCII byte, a wrong column count,
    a non-finite or non-numeric coordinate or a label that is not an int64 raises
    ValueError naming the path and line; a file without points, the path."""
    points = []
    labels = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                parts = raw.decode("ascii").split()
            except UnicodeDecodeError as err:
                raise ValueError(f"{path}:{line_no}: non-ASCII byte "
                                 f"{raw[err.start]:#04x}") from None
            if not parts:
                continue
            if len(parts) not in (3, 4):
                raise ValueError(f"{path}:{line_no}: expected 3 or 4 columns")
            try:
                points.append([float(v) for v in parts[:3]])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: coordinates "
                                 f"{' '.join(parts[:3])!r} are not numbers") from None
            if not all(map(math.isfinite, points[-1])):
                raise ValueError(f"{path}:{line_no}: coordinates "
                                 f"{' '.join(parts[:3])!r} are not finite")
            if len(parts) == 4:
                try:
                    labels.append(np.int64(parts[3]))
                except (ValueError, OverflowError):
                    raise ValueError(f"{path}:{line_no}: label {parts[3]!r} "
                                     f"is not a 64-bit integer") from None
    if not points:
        raise ValueError(f"{path}: no points")
    if labels and len(labels) != len(points):
        raise ValueError(f"{path}: label column present on only some lines")
    return PointCloud(np.array(points),
                      point_labels=np.array(labels) if labels else None)


def write_cloud_binary(path, cloud: PointCloud) -> None:
    with open(path, "wb") as fh:
        fh.write(CLOUD_MAGIC)
        fh.write(struct.pack("<I", cloud.n))
        fh.write(np.ascontiguousarray(cloud.points, dtype="<f4").tobytes())


def read_cloud_binary(path) -> PointCloud:
    """Read an LCPC file; its point count is checked against the file's size
    before any point is read.  Errors are ValueErrors naming the path."""
    with open(path, "rb") as fh:
        if fh.read(4) != CLOUD_MAGIC:
            raise ValueError(f"{path}: not a binary point-cloud file (bad magic)")
        head = fh.read(4)
        if len(head) != 4:
            raise ValueError(f"{path}: truncated point count")
        (count,) = struct.unpack("<I", head)
        if count == 0:
            raise ValueError(f"{path}: no points")
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < 12 * count:
            raise ValueError(f"{path}: truncated point data: {count} points "
                             f"need {12 * count} bytes, {left} left")
        if left > 12 * count:
            raise ValueError(f"{path}: {left - 12 * count} trailing bytes "
                             f"after the last point")
        points = np.frombuffer(fh.read(12 * count), dtype="<f4").reshape(count, 3)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: point {bad[0]} is not finite")
    return PointCloud(points.astype(np.float64))


def read_cloud(path) -> PointCloud:
    """Read either format, sniffing the binary magic."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == CLOUD_MAGIC:
        return read_cloud_binary(path)
    return read_cloud_text(path)


def write_cloud(path, cloud: PointCloud) -> None:
    """Write by extension: .lcpc binary, anything else text."""
    if Path(path).suffix == ".lcpc":
        write_cloud_binary(path, cloud)
    else:
        write_cloud_text(path, cloud)
