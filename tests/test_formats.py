"""Binary volume container round trips and guard rails."""

import numpy as np
import pytest

from waveshape.errors import ValidationError
from waveshape.formats import (DTYPE_F32, DTYPE_F64, DTYPE_U8, read_json,
                               read_mask, read_volume, read_wsv1, write_json,
                               write_wsv1)
from waveshape.grid import RegionMask3, Volume3


def _random_volume(seed=0, dims=(5, 4, 3)):
    gen = np.random.default_rng(seed)
    return Volume3(gen.standard_normal(dims), origin=(-1.0, 0.5, 2.0),
                   spacing=(0.1, 0.2, 0.3))


def test_f32_round_trip_within_quantization(tmp_path):
    v = _random_volume()
    path = tmp_path / "v.wsv1"
    write_wsv1(path, v)
    back = read_volume(path)
    assert back.dims == v.dims
    assert back.origin == v.origin and back.spacing == v.spacing
    scale = np.abs(v.values).max()
    assert np.abs(back.values - v.values).max() <= 1.2e-7 * scale


def test_f64_round_trip_exact(tmp_path):
    v = _random_volume(seed=1)
    path = tmp_path / "v64.wsv1"
    write_wsv1(path, v, wide=True)
    back = read_volume(path)
    np.testing.assert_array_equal(back.values, v.values)


def test_dtype_tags_on_disk(tmp_path):
    v = _random_volume(seed=2, dims=(2, 2, 2))
    offset = 4 + 12 + 48  # magic, dims, origin+spacing
    for wide, tag in ((False, DTYPE_F32), (True, DTYPE_F64)):
        path = tmp_path / f"tag{tag}.wsv1"
        write_wsv1(path, v, wide=wide)
        assert path.read_bytes()[offset] == tag
    mpath = tmp_path / "mask.wsv1"
    write_wsv1(mpath, RegionMask3(np.ones((2, 2, 2))))
    assert mpath.read_bytes()[offset] == DTYPE_U8


def test_mask_round_trip_exact(tmp_path):
    gen = np.random.default_rng(7)
    m = RegionMask3(gen.integers(0, 2, size=(4, 5, 6)).astype(bool))
    path = tmp_path / "m.wsv1"
    write_wsv1(path, m)
    back = read_mask(path)
    np.testing.assert_array_equal(back.bits, m.bits)


def test_payload_is_x_fastest(tmp_path):
    vals = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    path = tmp_path / "order.wsv1"
    write_wsv1(path, Volume3(vals), wide=True)
    raw = np.frombuffer(path.read_bytes()[64 + 1:], dtype="<f8")
    # x (first index) varies fastest in the serialized stream
    np.testing.assert_array_equal(raw[:2], vals[:, 0, 0])


def test_type_guards(tmp_path):
    vpath = tmp_path / "v.wsv1"
    write_wsv1(vpath, _random_volume())
    mpath = tmp_path / "m.wsv1"
    write_wsv1(mpath, RegionMask3(np.ones((2, 2, 2))))
    with pytest.raises(ValidationError):
        read_mask(vpath)
    with pytest.raises(ValidationError):
        read_volume(mpath)


def test_corrupt_files_raise(tmp_path):
    v = _random_volume()
    good = tmp_path / "good.wsv1"
    write_wsv1(good, v)
    blob = good.read_bytes()

    bad_magic = tmp_path / "magic.wsv1"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValidationError):
        read_wsv1(bad_magic)

    short_header = tmp_path / "short.wsv1"
    short_header.write_bytes(blob[:10])
    with pytest.raises(ValidationError):
        read_wsv1(short_header)

    short_payload = tmp_path / "payload.wsv1"
    short_payload.write_bytes(blob[:-4])
    with pytest.raises(ValidationError):
        read_wsv1(short_payload)

    bad_tag = bytearray(blob)
    bad_tag[64] = 9
    tag_path = tmp_path / "tag.wsv1"
    tag_path.write_bytes(bytes(bad_tag))
    with pytest.raises(ValidationError):
        read_wsv1(tag_path)


def test_json_helpers_round_trip_and_stable_bytes(tmp_path):
    payload = {"b": [1, 2, 3], "a": {"nested": True}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, payload)
    write_json(p2, dict(reversed(list(payload.items()))))
    assert p1.read_bytes() == p2.read_bytes()  # sorted keys -> stable bytes
    assert read_json(p1) == payload
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValidationError):
        read_json(bad)
