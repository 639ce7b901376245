"""Filter bank identities, separable axis passes, and the coefficient pyramid.

The filter tables are regenerated here from exact rational arithmetic, the
analysis and synthesis axis passes are compared against a scalar
direct-convolution reference, and reconstruction error bounds are pinned.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from waveshape.errors import ShapeMismatchError, ValidationError
from waveshape.grid import Volume3
from waveshape.wavelet import (WaveletPyramid, _ANALYSIS_LO_DEN,
                               _ANALYSIS_LO_NUM, _SYNTHESIS_LO_DEN,
                               _SYNTHESIS_LO_NUM, _analyze_axis,
                               _lowpass_window, _reflect_indices, _synth_axis,
                               _analyze_low3, bior_6_8, compactness_report,
                               get_bank, haar, pyramid_decompose,
                               pyramid_reconstruct, read_wsp1,
                               reconstruct_truncated,
                               truncated_reconstruction_error, write_wsp1)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Filter tables from exact rational arithmetic


def _halfpoint_cos2():
    # cos(w/2)^2 = (z + 2 + 1/z) / 4
    return helpers.LaurentQ({-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)})


def _halfpoint_sin2():
    # sin(w/2)^2 = (2 - z - 1/z) / 4
    return helpers.LaurentQ({-1: Fraction(-1, 4), 0: Fraction(1, 2), 1: Fraction(-1, 4)})


def _bezout_p(y: helpers.LaurentQ) -> helpers.LaurentQ:
    out = helpers.LaurentQ({})
    for m in range(7):
        out = out + y.pow(m).scaled(math.comb(6 + m, m))
    return out


def test_analysis_low_numerators_are_binomials():
    assert _ANALYSIS_LO_NUM == tuple(math.comb(6, k) for k in range(7))
    assert _ANALYSIS_LO_DEN == 2 ** 6


def test_synthesis_low_regenerates_from_rationals():
    table = (_halfpoint_cos2().pow(4) * _bezout_p(_halfpoint_sin2())).as_table()
    assert sorted(table) == list(range(-10, 11))
    for e, coeff in table.items():
        assert coeff == Fraction(_SYNTHESIS_LO_NUM[e + 10], _SYNTHESIS_LO_DEN)


def test_halfband_identity_exact():
    # a(z) s(z) + a(-z) s(-z) == 1 with the sqrt(2) factors stripped
    a = helpers.LaurentQ(
        {k - 3: Fraction(_ANALYSIS_LO_NUM[k], _ANALYSIS_LO_DEN) for k in range(7)})
    s = helpers.LaurentQ(
        {k - 10: Fraction(_SYNTHESIS_LO_NUM[k], _SYNTHESIS_LO_DEN) for k in range(21)})

    def negate(p):
        return helpers.LaurentQ({e: (c if e % 2 == 0 else -c)
                                 for e, c in p.as_table().items()})

    total = (a * s + negate(a) * negate(s)).as_table()
    assert total == {0: Fraction(1)}


def test_vanishing_moments_exact_integer_sums():
    # analysis high inherits 8 vanishing moments from the synthesis low-pass
    # (tap at position s - 11 is (-1)^s * synthesis numerator s)
    for q in range(8):
        acc = sum((-1) ** s * _SYNTHESIS_LO_NUM[s] * (s - 11) ** q
                  for s in range(21))
        assert acc == 0, f"analysis-high moment {q}"
    assert sum((-1) ** s * _SYNTHESIS_LO_NUM[s] * (s - 11) ** 8
               for s in range(21)) != 0

    # synthesis high inherits 6 from the analysis low-pass
    for q in range(6):
        acc = sum((-1) ** s * _ANALYSIS_LO_NUM[s] * (s - 2) ** q
                  for s in range(7))
        assert acc == 0, f"synthesis-high moment {q}"
    assert sum((-1) ** s * _ANALYSIS_LO_NUM[s] * (s - 2) ** 6
               for s in range(7)) != 0


def test_bank_filter_moments_match_integer_tables():
    bank = bior_6_8()
    for q in range(8):
        assert abs(bank.analysis_high.moment(q)) < 1e-8
    assert abs(bank.analysis_high.moment(8)) > 1.0
    for q in range(6):
        assert abs(bank.synthesis_high.moment(q)) < 1e-10
    assert abs(bank.synthesis_high.moment(6)) > 0.1


def test_low_pass_filters_normalized_to_sqrt2():
    for bank in (bior_6_8(), haar()):
        assert bank.analysis_low.moment(0) == pytest.approx(SQRT2, abs=1e-12)
        assert bank.synthesis_low.moment(0) == pytest.approx(SQRT2, abs=1e-12)


def test_bank_delays_are_zero():
    assert bior_6_8().delay == 0
    assert haar().delay == 0


def test_haar_tap_positions():
    bank = haar()
    assert bank.analysis_low.pos_min == -1 and bank.analysis_low.pos_max == 0
    assert bank.synthesis_low.pos_min == 0 and bank.synthesis_low.pos_max == 1
    np.testing.assert_allclose(bank.analysis_low.taps, [1 / SQRT2] * 2)


def test_get_bank_rejects_unknown_name():
    with pytest.raises(ValidationError):
        get_bank("meyer")


def test_bad_low_pass_pair_rejected():
    from waveshape.wavelet import WaveletFilterBank, _Filter
    with pytest.raises(ValidationError):
        WaveletFilterBank("broken",
                          analysis_low=_Filter(np.array([1.0, 1.0]) / SQRT2, 1),
                          synthesis_low=_Filter(np.array([1.0, 0.5]) / SQRT2, 0))


# ---------------------------------------------------------------------------
# Boundary handling and direct-convolution cross-check


@given(st.integers(-40, 40), st.integers(1, 9))
def test_reflect_indices_match_scalar_reference(i, n):
    got = _reflect_indices(i, i, n)[0]
    assert got == helpers.reflect_index(i, n)


@pytest.mark.parametrize("bank_name,dims", [("haar", (6, 7, 9)),
                                            ("bior-6.8", (21, 22, 23))])
def test_dwt3_matches_direct_convolution(bank_name, dims):
    bank = get_bank(bank_name)
    arr = np.random.default_rng(5).standard_normal(dims)
    for f in (bank.analysis_low, bank.analysis_high):
        # every k whose filter window overlaps the signal, so both edges
        # exercise the reflection
        for axis in range(3):
            n = dims[axis]
            kmin = math.ceil(f.pos_min / 2)
            count = (n - 1 + f.pos_max) // 2 - kmin + 1
            got = _analyze_axis(arr, f, axis, kmin, count)
            expected = helpers.apply_axis(
                arr, axis, lambda row: helpers.conv_analysis_1d(
                    row, f.taps, f.origin, kmin, count))
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-11)


def test_synthesis_matches_direct_convolution():
    bank = bior_6_8()
    gen = np.random.default_rng(8)
    c = gen.standard_normal((9, 4, 5))
    got = _synth_axis(c, -2, 14, bank.synthesis_low, bank.delay, 0)
    expected = helpers.apply_axis(
        c, 0, lambda row: helpers.conv_synthesis_1d(
            row, -2, 14, bank.synthesis_low.taps,
            bank.synthesis_low.origin, bank.delay))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Pyramid


def test_lowpass_dims_recurrence():
    for bank in (bior_6_8(), haar()):
        L = bank.analysis_length
        for n in range(L, 4 * L):
            got = _analyze_low3(np.zeros((n, L, L)), bank).shape[0]
            assert got == (n + L - 1) // 2


@pytest.mark.parametrize("bank_name,dims,J", [
    ("bior-6.8", (32, 27, 21), 2),
    ("bior-6.8", (40, 40, 40), 3),
    ("haar", (16, 11, 9), 3),
])
def test_pyramid_reconstruction_is_lossless(bank_name, dims, J):
    bank = get_bank(bank_name)
    gen = np.random.default_rng(17)
    vol = Volume3(gen.standard_normal(dims), origin=(-1.0, -1.0, -1.0),
                  spacing=(0.1, 0.1, 0.1))
    pyr = pyramid_decompose(vol, J=J, bank=bank)
    assert pyr.dims_table[0] == dims
    for j in range(1, J + 1):
        L = bank.analysis_length
        assert pyr.dims_table[j] == tuple((n + L - 1) // 2
                                          for n in pyr.dims_table[j - 1])
    back = pyramid_reconstruct(pyr)
    assert np.abs(back.values - vol.values).max() <= 1e-9
    assert back.origin == vol.origin and back.spacing == vol.spacing


def test_pyramid_detail_identity():
    # D^1 must equal C^0 minus the upsampled synthesis of C^1 by definition
    from waveshape.wavelet import _synth_up3
    bank = bior_6_8()
    gen = np.random.default_rng(23)
    vol = Volume3(gen.standard_normal((24, 24, 24)))
    pyr = pyramid_decompose(vol, J=1, bank=bank)
    c1 = _analyze_low3(vol.values, bank)
    np.testing.assert_array_equal(pyr.coarse.values, c1)
    up = _synth_up3(c1, vol.dims, bank)
    np.testing.assert_allclose(pyr.details[0].values, vol.values - up,
                               rtol=0, atol=1e-12)


def test_pyramid_is_linear():
    bank = bior_6_8()
    gen = np.random.default_rng(29)
    x = Volume3(gen.standard_normal((24, 24, 24)))
    y = Volume3(gen.standard_normal((24, 24, 24)))
    a, b = 0.7, -1.3
    combo = pyramid_decompose(Volume3(a * x.values + b * y.values), J=2, bank=bank)
    px = pyramid_decompose(x, J=2, bank=bank)
    py = pyramid_decompose(y, J=2, bank=bank)
    np.testing.assert_allclose(combo.coarse.values,
                               a * px.coarse.values + b * py.coarse.values,
                               rtol=0, atol=1e-10)
    for dc, dx, dy in zip(combo.details, px.details, py.details):
        np.testing.assert_allclose(dc.values, a * dx.values + b * dy.values,
                                   rtol=0, atol=1e-10)


def test_pyramid_validation():
    vol = Volume3(np.zeros((24, 24, 24)))
    with pytest.raises(ValidationError):
        pyramid_decompose(vol, J=0)
    with pytest.raises(ValidationError):
        pyramid_decompose(Volume3(np.zeros((6, 6, 6))), J=1, bank=bior_6_8())
    pyr = pyramid_decompose(vol, J=1)
    with pytest.raises(ValidationError):
        WaveletPyramid(pyr.coarse, pyr.details, pyr.bank_name,
                       pyr.dims_table[:1])
    with pytest.raises(ShapeMismatchError):
        WaveletPyramid(pyr.details[0], pyr.details, pyr.bank_name,
                       pyr.dims_table)


def test_truncated_reconstruction_error_matches_manual():
    bank = bior_6_8()
    gen = np.random.default_rng(31)
    vol = Volume3(gen.standard_normal((30, 30, 30)))
    pyr = pyramid_decompose(vol, J=2, bank=bank)
    got = truncated_reconstruction_error(pyr, vol)
    recon = reconstruct_truncated(pyr.coarse, pyr.details[0], pyr.dims_table, bank)
    manual = np.mean(np.abs(recon.values - vol.values)) / np.mean(np.abs(vol.values))
    assert got == pytest.approx(manual, rel=1e-12)


def test_truncated_reconstruction_keeps_geometry():
    bank = bior_6_8()
    vol = Volume3(np.random.default_rng(37).standard_normal((30, 30, 30)),
                  origin=(-1.0, -1.0, -1.0), spacing=(2 / 30, 2 / 30, 2 / 30))
    pyr = pyramid_decompose(vol, J=2, bank=bank)
    recon = reconstruct_truncated(pyr.coarse, pyr.details[0], pyr.dims_table, bank)
    assert recon.dims == vol.dims
    assert recon.origin == vol.origin
    np.testing.assert_allclose(recon.spacing, vol.spacing, rtol=1e-12)


def test_compactness_report_counts():
    vol = Volume3(np.random.default_rng(41).standard_normal((40, 40, 40)))
    pyr = pyramid_decompose(vol, J=3)
    rep = compactness_report(pyr, 0.05)
    assert rep["total_count"] == 40 ** 3
    expected_retained = (np.prod(pyr.dims_table[3])
                         + np.prod(pyr.dims_table[2]))
    assert rep["retained_count"] == expected_retained
    assert rep["retained_fraction"] == pytest.approx(expected_retained / 40 ** 3)
    assert rep["truncated_recon_error"] == 0.05
    assert set(rep["level_energy"]) == {"coarse", "detail_1", "detail_2", "detail_3"}


def test_wsp1_round_trip_bit_exact(tmp_path):
    vol = Volume3(np.random.default_rng(43).standard_normal((24, 25, 26)),
                  origin=(-1.0, -0.5, 0.0), spacing=(0.25, 0.5, 0.75))
    pyr = pyramid_decompose(vol, J=2)
    path = tmp_path / "p.wsp1"
    write_wsp1(path, pyr)
    back = read_wsp1(path)
    assert back.bank_name == pyr.bank_name
    assert back.dims_table == pyr.dims_table
    np.testing.assert_array_equal(back.coarse.values, pyr.coarse.values)
    for da, db in zip(back.details, pyr.details):
        np.testing.assert_array_equal(da.values, db.values)
    # and therefore the full decode -> reconstruct loop is lossless
    rec = pyramid_reconstruct(back)
    assert np.abs(rec.values - vol.values).max() <= 1e-9


def test_wsp1_rejects_corrupt_files(tmp_path):
    vol = Volume3(np.random.default_rng(47).standard_normal((24, 24, 24)))
    path = tmp_path / "p.wsp1"
    write_wsp1(path, pyramid_decompose(vol, J=1))
    blob = path.read_bytes()
    bad = tmp_path / "bad.wsp1"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValidationError):
        read_wsp1(bad)
    short = tmp_path / "short.wsp1"
    short.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(ValidationError):
        read_wsp1(short)
