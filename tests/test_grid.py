"""Volume/mask containers and masked combination."""

import numpy as np
import pytest

from waveshape.errors import ShapeMismatchError, ValidationError
from waveshape.grid import RegionMask3, Volume3, masked_combine


def test_volume_freezes_and_copies_to_float64():
    src = np.arange(8, dtype=np.int32).reshape(2, 2, 2)
    v = Volume3(src)
    assert v.values.dtype == np.float64
    with pytest.raises(ValueError):
        v.values[0, 0, 0] = 99.0
    assert v.dims == (2, 2, 2)


def test_volume_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        Volume3(np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        Volume3(np.array([[[np.nan]]]))
    with pytest.raises(ValidationError):
        Volume3(np.zeros((2, 2, 2)), spacing=(1.0, 0.0, 1.0))


def test_with_values_keeps_geometry():
    v = Volume3(np.zeros((2, 3, 4)), origin=(1.0, 2.0, 3.0), spacing=(0.1, 0.2, 0.3))
    w = v.with_values(np.ones((2, 3, 4)))
    assert w.origin == v.origin and w.spacing == v.spacing
    assert float(w.values[0, 0, 0]) == 1.0


def test_mask_full_and_freeze():
    m = RegionMask3(np.ones((2, 2, 2)))
    assert m.bits.dtype == bool and bool(m.bits.all())
    with pytest.raises(ValueError):
        m.bits[0, 0, 0] = False
    assert RegionMask3(np.zeros((2, 2, 2))).bits.sum() == 0


def test_masked_combine_selects_b_inside_mask():
    a = Volume3(np.zeros((2, 2, 2)), origin=(5.0, 0.0, 0.0), spacing=(2.0, 1.0, 1.0))
    b = a.with_values(np.ones((2, 2, 2)))
    bits = np.zeros((2, 2, 2), dtype=bool)
    bits[1, :, :] = True
    out = masked_combine(a, b, RegionMask3(bits))
    np.testing.assert_array_equal(out.values[0], 0.0)
    np.testing.assert_array_equal(out.values[1], 1.0)
    assert out.origin == a.origin and out.spacing == a.spacing


def test_masked_combine_shape_mismatch():
    a = Volume3(np.zeros((2, 2, 2)))
    b = Volume3(np.zeros((2, 2, 3)))
    with pytest.raises(ShapeMismatchError):
        masked_combine(a, b, RegionMask3(np.zeros((2, 2, 2))))

