"""Dense 3D scalar volumes, boolean region masks, and grid/world mapping.

Conventions fixed package-wide: values are indexed [i, j, k] with i along x;
the canonical serialized layout is row-major with x fastest.  Volumes are
immutable after construction and all operations here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfDomainError, ShapeMismatchError, ValidationError


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Volume3:
    """Scalar grid: values[i, j, k] sits at origin + (i, j, k) * spacing."""

    values: np.ndarray
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 3 or min(vals.shape) < 1:
            raise ValidationError(f"volume must be 3D with positive dims, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("volume contains non-finite values")
        if min(self.spacing) <= 0:
            raise ValidationError(f"spacing must be positive, got {self.spacing}")
        object.__setattr__(self, "values", _freeze(vals))
        object.__setattr__(self, "origin", tuple(float(c) for c in self.origin))
        object.__setattr__(self, "spacing", tuple(float(c) for c in self.spacing))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    def with_values(self, values: np.ndarray) -> "Volume3":
        return Volume3(values, self.origin, self.spacing)

    def voxel_center(self, i: int, j: int, k: int) -> np.ndarray:
        return np.array(self.origin) + np.array([i, j, k]) * np.array(self.spacing)


@dataclass(frozen=True)
class RegionMask3:
    """Boolean mask over the same grid layout as Volume3."""

    bits: np.ndarray = field()

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool)
        if bits.ndim != 3:
            raise ValidationError(f"mask must be 3D, got shape {bits.shape}")
        object.__setattr__(self, "bits", _freeze(bits))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.bits.shape

    @classmethod
    def full(cls, dims: tuple[int, int, int], value: bool = False) -> "RegionMask3":
        return cls(np.full(dims, value, dtype=bool))


def masked_combine(a: Volume3, b: Volume3, mask: RegionMask3) -> Volume3:
    """Voxelwise b-where-mask-else-a; origin/spacing copied from a."""
    if a.dims != b.dims or a.dims != mask.dims:
        raise ShapeMismatchError(
            f"masked_combine dims disagree: {a.dims} vs {b.dims} vs {mask.dims}"
        )
    return Volume3(np.where(mask.bits, b.values, a.values), a.origin, a.spacing)


def _trilinear(v: Volume3, g: np.ndarray) -> np.ndarray:
    """Trilinear interpolation at (N, 3) grid coordinates, each clamped onto
    [0, dims - 1]; an axis with a single voxel is constant along it."""
    hi = np.array(v.dims) - 1
    g = np.clip(g, 0.0, hi)
    i0 = np.minimum(np.floor(g).astype(np.int64), np.maximum(hi - 1, 0))
    fx, fy, fz = (g - i0).T
    x0, y0, z0 = i0.T
    x1, y1, z1 = np.minimum(i0 + 1, hi).T
    c = v.values
    c00 = c[x0, y0, z0] * (1 - fx) + c[x1, y0, z0] * fx
    c10 = c[x0, y1, z0] * (1 - fx) + c[x1, y1, z0] * fx
    c01 = c[x0, y0, z1] * (1 - fx) + c[x1, y0, z1] * fx
    c11 = c[x0, y1, z1] * (1 - fx) + c[x1, y1, z1] * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    return c0 * (1 - fz) + c1 * fz


def trilinear_sample(v: Volume3, p) -> float:
    """Trilinear interpolation of the 8 voxel values surrounding world point p.

    The interpolation domain is the hull of voxel centers; p outside raises
    OutOfDomainError.
    """
    p = np.asarray(p, dtype=np.float64)
    g = (p - np.array(v.origin)) / np.array(v.spacing)
    hi = np.array(v.dims) - 1
    eps = 1e-9
    if np.any(g < -eps) or np.any(g > hi + eps):
        raise OutOfDomainError(f"point {p.tolist()} outside grid domain")
    return float(_trilinear(v, g[None])[0])
