"""Binary volume container (WSV1) and small serialization helpers.

WSV1 layout, little-endian: magic ``WSV1``, u32 nx ny nz, 3xf64 origin,
3xf64 spacing, u8 dtype tag (0 = f32 scalars, 1 = f64 scalars, 2 = u8 mask),
then the raw payload in canonical row-major x-fastest order.  Scalar fields
default to f32; wavelet coefficient blocks use f64 because synthesis-filter
gain would otherwise push quantization error above the round-trip budget.
"""

from __future__ import annotations

import io
import json
import struct
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np

from .errors import ValidationError
from .grid import RegionMask3, Volume3

MAGIC_VOLUME = b"WSV1"
DTYPE_F32 = 0
DTYPE_F64 = 1
DTYPE_U8 = 2

_HEADER = struct.Struct("<4s3I6dB")
_PAYLOAD_DTYPES = {DTYPE_F32: "<f4", DTYPE_F64: "<f8", DTYPE_U8: "u1"}


def _write_wsv1_stream(fh: BinaryIO, obj: Union[Volume3, RegionMask3],
                       wide: bool = False) -> None:
    if isinstance(obj, RegionMask3):
        origin, spacing = (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)
        tag = DTYPE_U8
        payload = obj.bits.astype(np.uint8)
    elif wide:
        origin, spacing = obj.origin, obj.spacing
        tag = DTYPE_F64
        payload = obj.values
    else:
        origin, spacing = obj.origin, obj.spacing
        tag = DTYPE_F32
        payload = obj.values.astype(np.float32)
    nx, ny, nz = payload.shape
    fh.write(_HEADER.pack(MAGIC_VOLUME, nx, ny, nz, *origin, *spacing, tag))
    fh.write(payload.ravel(order="F").tobytes())  # x fastest


def _read_wsv1_stream(fh: BinaryIO) -> Union[Volume3, RegionMask3]:
    head = fh.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise ValidationError("truncated WSV1 header")
    magic, nx, ny, nz, ox, oy, oz, sx, sy, sz, tag = _HEADER.unpack(head)
    if magic != MAGIC_VOLUME:
        raise ValidationError(f"bad magic {magic!r}, expected {MAGIC_VOLUME!r}")
    fmt = _PAYLOAD_DTYPES.get(tag)
    if fmt is None:
        raise ValidationError(f"unknown WSV1 dtype tag {tag}")
    size = np.dtype(fmt).itemsize * nx * ny * nz
    start = fh.tell()
    left = fh.seek(0, io.SEEK_END) - start
    fh.seek(start)
    if size > left:
        raise ValidationError(
            f"truncated WSV1 payload: header declares {size} bytes, {left} remain")
    vals = np.frombuffer(fh.read(size), dtype=fmt).reshape((nx, ny, nz), order="F")
    if tag == DTYPE_U8:
        return RegionMask3(vals.astype(bool))
    return Volume3(vals.astype(np.float64), (ox, oy, oz), (sx, sy, sz))


def write_wsv1(path, obj: Union[Volume3, RegionMask3], wide: bool = False) -> None:
    with open(path, "wb") as fh:
        _write_wsv1_stream(fh, obj, wide=wide)


def read_wsv1(path) -> Union[Volume3, RegionMask3]:
    with open(path, "rb") as fh:
        return _read_wsv1_stream(fh)


def read_volume(path) -> Volume3:
    obj = read_wsv1(path)
    if not isinstance(obj, Volume3):
        raise ValidationError(f"{path}: expected scalar volume, found mask")
    return obj


def read_mask(path) -> RegionMask3:
    obj = read_wsv1(path)
    if not isinstance(obj, RegionMask3):
        raise ValidationError(f"{path}: expected mask, found scalar volume")
    return obj


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
