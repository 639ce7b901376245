"""Dense 3D scalar volumes, boolean region masks, and grid/world mapping.

Conventions fixed package-wide: values are indexed [i, j, k] with i along x;
the canonical serialized layout is row-major with x fastest.  Volumes are
immutable after construction and all operations here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError, ValidationError


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


def masked_combine(a: Volume3, b: Volume3, mask: RegionMask3) -> Volume3:
    """Voxelwise b-where-mask-else-a; origin/spacing copied from a."""
    if a.dims != b.dims or a.dims != mask.dims:
        raise ShapeMismatchError(
            f"masked_combine dims disagree: {a.dims} vs {b.dims} vs {mask.dims}"
        )
    return Volume3(np.where(mask.bits, b.values, a.values), a.origin, a.spacing)
