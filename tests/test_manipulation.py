"""Mask-localized editing: plans, region transport, harmonization, and the
dual-chain edit loop."""

import numpy as np
import pytest

from helpers import coefficient_support, reflect_index
from waveshape import rng as rng_mod
from waveshape.diffusion import (GaussianMixtureOracle, make_linear_schedule,
                                 sample)
from waveshape.errors import (NumericalError, ShapeMismatchError,
                              ValidationError)
from waveshape.grid import RegionMask3, Volume3, masked_combine
from waveshape.manipulation import (MODES, ManipulationPlan,
                                    boundary_discontinuity, harmonize,
                                    manipulate, mask_to_coefficient_domain,
                                    naive_mix_baseline, read_plan_file,
                                    write_plan_file)
from waveshape.wavelet import _lowpass_window, get_bank, pyramid_decompose


def _small_setup(T=40, dims=(5, 5, 5)):
    gen = np.random.default_rng(12)
    X_a = Volume3(gen.standard_normal(dims))
    X_b = Volume3(gen.standard_normal(dims))
    anchors = np.zeros((2, 4))
    anchors[0, 0], anchors[1, 0] = 1.0, -1.0
    sched = make_linear_schedule(T)
    oracle = GaussianMixtureOracle([(0.5, X_a), (0.5, X_b)], anchors=anchors,
                                   tau=0.3, sched=sched)
    bits = np.zeros(dims, dtype=bool)
    bits[:, :, 3:] = True
    mask = RegionMask3(bits)
    return oracle, sched, mask, anchors


# ---------------------------------------------------------------------------
# Plan validation


def test_plan_rejects_unknown_mode():
    oracle, sched, mask, _ = _small_setup()
    with pytest.raises(ValidationError):
        ManipulationPlan(mode="teleport", mask=mask, sched=sched,
                         denoiser_a=oracle)


def test_plan_requires_delta_t_dividing_T():
    oracle, sched, mask, _ = _small_setup(T=40)
    for bad in (0, -5, 7, 41):
        with pytest.raises(ValidationError):
            ManipulationPlan(mode="replacement", mask=mask, sched=sched,
                             denoiser_a=oracle, delta_t=bad)
    ManipulationPlan(mode="replacement", mask=mask, sched=sched,
                     denoiser_a=oracle, delta_t=8)


def test_plan_rejects_negative_repeats_and_bad_alphas():
    oracle, sched, mask, _ = _small_setup()
    with pytest.raises(ValidationError):
        ManipulationPlan(mode="replacement", mask=mask, sched=sched,
                         denoiser_a=oracle, harmonize_repeats=-1)
    with pytest.raises(ValidationError):
        ManipulationPlan(mode="part_interpolation", mask=mask, sched=sched,
                         denoiser_a=oracle, alphas=())
    with pytest.raises(ValidationError):
        ManipulationPlan(mode="part_interpolation", mask=mask, sched=sched,
                         denoiser_a=oracle, alphas=(0.5, 1.2))


# ---------------------------------------------------------------------------
# Region transport to the coefficient grid


def _coarsen_region_reference(bits, levels, bank):
    """Mark coefficient k when any voxel of its reflected window is marked."""
    taps_len = len(bank.analysis_low.taps)
    origin = bank.analysis_low.origin
    cur = bits.copy()
    for _ in range(levels):
        for axis in range(3):
            moved = np.moveaxis(cur, axis, -1)
            n = moved.shape[-1]
            kmin, count = _lowpass_window(n, bank)
            flat = moved.reshape(-1, n)
            out = np.zeros((flat.shape[0], count), dtype=bool)
            for row in range(flat.shape[0]):
                for idx, k in enumerate(range(kmin, kmin + count)):
                    for s in range(taps_len):
                        i = reflect_index(2 * k - (s - origin), n)
                        if flat[row, i]:
                            out[row, idx] = True
                            break
            cur = np.moveaxis(out.reshape(moved.shape[:-1] + (count,)), -1, axis)
    return cur


@pytest.mark.parametrize("bank_name,dims", [("bior-6.8", (16, 12, 14)),
                                            ("haar", (7, 5, 6))])
def test_mask_coarsening_matches_window_reference(bank_name, dims):
    bank = get_bank(bank_name)
    gen = np.random.default_rng(hash(bank_name) % 1000)
    bits = gen.random(dims) < 0.12
    got = mask_to_coefficient_domain(RegionMask3(bits), 2, bank)
    expect = _coarsen_region_reference(bits, 2, bank)
    np.testing.assert_array_equal(got.bits, expect)


def test_mask_coarsening_edge_cases():
    bank = get_bank("bior-6.8")
    empty = RegionMask3(np.zeros((16, 16, 16), dtype=bool))
    assert not mask_to_coefficient_domain(empty, 2, bank).bits.any()
    full = RegionMask3(np.ones((16, 16, 16), dtype=bool))
    assert mask_to_coefficient_domain(full, 2, bank).bits.all()


def test_coefficient_support_covers_marked_region():
    bank = get_bank("bior-6.8")
    dims = (16, 16, 16)
    bits = np.zeros(dims, dtype=bool)
    bits[7:10, 7:10, 7:10] = True
    region = RegionMask3(bits)
    pyr = pyramid_decompose(Volume3(np.zeros(dims)), J=2, bank=bank)
    coarse_mask = mask_to_coefficient_domain(region, 2, bank)
    assert coarse_mask.dims == pyr.coarse.dims
    support = coefficient_support(coarse_mask.bits, pyr.dims_table, bank)
    assert support.shape == dims
    assert np.all(support[bits] > 0.0)


# ---------------------------------------------------------------------------
# Boundary metric and the stitch baseline


def test_boundary_discontinuity_hand_computed():
    vals = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
    bits = np.zeros((2, 2, 2), dtype=bool)
    bits[1] = True  # four crossing faces along axis 0, jumps all |v0-v1|=4
    assert boundary_discontinuity(Volume3(vals), RegionMask3(bits)) == 4.0
    corner = np.zeros((2, 2, 2), dtype=bool)
    corner[1, 1, 1] = True  # three faces: jumps |3-7|, |5-7|, |6-7|
    expect = (4.0 + 2.0 + 1.0) / 3.0
    got = boundary_discontinuity(Volume3(vals), RegionMask3(corner))
    assert got == pytest.approx(expect, abs=1e-15)


def test_boundary_discontinuity_uniform_mask_is_zero():
    v = Volume3(np.random.default_rng(0).standard_normal((4, 4, 4)))
    assert boundary_discontinuity(v, RegionMask3(np.zeros((4, 4, 4), bool))) == 0.0
    assert boundary_discontinuity(v, RegionMask3(np.ones((4, 4, 4), bool))) == 0.0
    with pytest.raises(ShapeMismatchError):
        boundary_discontinuity(v, RegionMask3(np.zeros((3, 4, 4), bool)))


def test_naive_mix_baseline_is_plain_splice():
    gen = np.random.default_rng(8)
    a = Volume3(gen.standard_normal((4, 4, 4)))
    b = Volume3(gen.standard_normal((4, 4, 4)))
    mask = RegionMask3(gen.random((4, 4, 4)) < 0.5)
    out = naive_mix_baseline(a, b, mask)
    np.testing.assert_array_equal(out.values,
                                  masked_combine(a, b, mask).values)
    np.testing.assert_array_equal(out.values[mask.bits], b.values[mask.bits])
    np.testing.assert_array_equal(out.values[~mask.bits], a.values[~mask.bits])


# ---------------------------------------------------------------------------
# Harmonization


def test_harmonize_zero_repeats_is_identity():
    oracle, sched, mask, _ = _small_setup()
    plan = ManipulationPlan(mode="replacement", mask=mask, sched=sched,
                            denoiser_a=oracle, harmonize_repeats=0)
    mix = np.random.default_rng(1).standard_normal((5, 5, 5))
    out = harmonize(mix, 5, plan, rng_mod.stream(0, "x"))
    np.testing.assert_array_equal(out, mix)


def test_harmonize_validates_t_and_dims():
    oracle, sched, mask, _ = _small_setup(T=40)
    plan = ManipulationPlan(mode="replacement", mask=mask, sched=sched,
                            denoiser_a=oracle)
    mix = np.zeros((5, 5, 5))
    for bad_t in (0, 40, 41):
        with pytest.raises(ValidationError):
            harmonize(mix, bad_t, plan, rng_mod.stream(0, "x"))
    with pytest.raises(ShapeMismatchError):
        harmonize(np.zeros((4, 5, 5)), 5, plan, rng_mod.stream(0, "x"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_edit_state_raises_numerical_error():
    sched = make_linear_schedule(40)
    huge = np.full((5, 5, 5), 1e200)
    oracle = GaussianMixtureOracle(
        [(0.5, Volume3(huge)), (0.5, Volume3(-huge))],
        anchors=np.eye(2), tau=0.3, sched=sched)
    bits = np.zeros((5, 5, 5), dtype=bool)
    bits[:, :, 3:] = True
    plan = ManipulationPlan(mode="regeneration", mask=RegionMask3(bits),
                            sched=sched, denoiser_a=oracle, delta_t=10,
                            harmonize_repeats=2)
    with pytest.raises(NumericalError, match="step 40, row 0"):
        manipulate(np.eye(2)[0], None, plan, rng_seed=1)
    with pytest.raises(NumericalError, match="step 11, row 0"):
        harmonize(np.zeros((5, 5, 5)), 10, plan, rng_mod.stream(0, "x"))


def test_harmonize_reduces_stitch_seam():
    dims = (16, 16, 16)
    xx, yy, zz = np.meshgrid(*[np.linspace(-1, 1, 16)] * 3, indexing="ij")
    base = 0.3 * np.sin(2.1 * xx) * np.cos(1.7 * yy) + 0.2 * zz
    Y_a = Volume3(base)
    Y_b = Volume3(base + 1.0)  # differs everywhere -> stitch has a true seam
    sched = make_linear_schedule(1000)
    oracle = GaussianMixtureOracle([(0.5, Y_a), (0.5, Y_b)], sched=sched)
    bits = np.zeros(dims, dtype=bool)
    bits[:, :, 9:] = True
    mask = RegionMask3(bits)
    plan = ManipulationPlan(mode="replacement", mask=mask, sched=sched,
                            denoiser_a=oracle, delta_t=10,
                            harmonize_repeats=10)
    mix = masked_combine(Y_a, Y_b, mask)
    seam_before = boundary_discontinuity(mix, mask)
    out = harmonize(mix.values, 10, plan, rng_mod.stream(7, "harmonize-test"))
    seam_after = boundary_discontinuity(Volume3(out), mask)
    assert seam_after < 0.5 * seam_before
    assert seam_before == pytest.approx(1.0 + 0.4 / 15.0, abs=1e-6)


# ---------------------------------------------------------------------------
# The edit loop: exact identities


def test_all_false_mask_is_plain_sampling():
    oracle, sched, _, anchors = _small_setup(T=40)
    mask = RegionMask3(np.zeros((5, 5, 5), dtype=bool))
    plan = ManipulationPlan(mode="replacement", mask=mask, sched=sched,
                            denoiser_a=oracle, delta_t=10)
    out = manipulate(anchors[0], anchors[1], plan, rng_seed=9)
    plain = sample(oracle, sched, (5, 5, 5), [9], [anchors[0]])[0]
    np.testing.assert_array_equal(out.values, plain)


def test_identical_codes_are_plain_sampling():
    oracle, sched, mask, anchors = _small_setup(T=40)
    plan = ManipulationPlan(mode="replacement", mask=mask, sched=sched,
                            denoiser_a=oracle, delta_t=10)
    out = manipulate(anchors[0], anchors[0].copy(), plan, rng_seed=9)
    plain = sample(oracle, sched, (5, 5, 5), [9], [anchors[0]])[0]
    np.testing.assert_array_equal(out.values, plain)


def test_mode_code_requirements():
    oracle, sched, mask, anchors = _small_setup(T=40)
    plan = ManipulationPlan(mode="regeneration", mask=mask, sched=sched,
                            denoiser_a=oracle, delta_t=10)
    with pytest.raises(ValidationError):
        manipulate(anchors[0], anchors[1], plan, rng_seed=1)
    plan_r = ManipulationPlan(mode="replacement", mask=mask, sched=sched,
                              denoiser_a=oracle, delta_t=10)
    with pytest.raises(ValidationError):
        manipulate(anchors[0], None, plan_r, rng_seed=1)


def test_whole_interpolation_samples_with_blended_code():
    oracle, sched, mask, anchors = _small_setup(T=40)
    plan = ManipulationPlan(mode="whole_interpolation", mask=mask, sched=sched,
                            denoiser_a=oracle, alphas=(0.3,))
    out = manipulate(anchors[0], anchors[1], plan, rng_seed=4)
    z_mix = 0.7 * anchors[0] + 0.3 * anchors[1]
    plain = sample(oracle, sched, (5, 5, 5), [4], [z_mix])[0]
    np.testing.assert_array_equal(out.values, plain)


def test_part_interpolation_alpha_one_is_replacement():
    oracle, sched, mask, anchors = _small_setup(T=40)
    common = dict(mask=mask, sched=sched, denoiser_a=oracle, delta_t=10,
                  harmonize_repeats=2)
    rep = manipulate(anchors[0], anchors[1],
                     ManipulationPlan(mode="replacement", **common),
                     rng_seed=6)
    part = manipulate(anchors[0], anchors[1],
                      ManipulationPlan(mode="part_interpolation",
                                       alphas=(1.0,), **common),
                      rng_seed=6)
    np.testing.assert_array_equal(part.values, rep.values)


def test_part_interpolation_midway_blend_runs():
    oracle, sched, mask, anchors = _small_setup(T=40)
    plan = ManipulationPlan(mode="part_interpolation", mask=mask, sched=sched,
                            denoiser_a=oracle, delta_t=10,
                            harmonize_repeats=2, alphas=(0.25, 0.75))
    out = manipulate(anchors[0], anchors[1], plan, rng_seed=6)
    assert out.dims == (5, 5, 5)
    assert np.all(np.isfinite(out.values))
    rep = manipulate(anchors[0], anchors[1],
                     ManipulationPlan(mode="replacement", mask=mask,
                                      sched=sched, denoiser_a=oracle,
                                      delta_t=10, harmonize_repeats=2),
                     rng_seed=6)
    assert not np.array_equal(out.values, rep.values)


def test_regeneration_runs_unconditional_source_chain():
    oracle, sched, mask, anchors = _small_setup(T=40)
    plan = ManipulationPlan(mode="regeneration", mask=mask, sched=sched,
                            denoiser_a=oracle, delta_t=10,
                            harmonize_repeats=2)
    out = manipulate(anchors[0], None, plan, rng_seed=3)
    assert out.dims == (5, 5, 5)
    assert np.all(np.isfinite(out.values))


def test_manipulate_is_reproducible():
    oracle, sched, mask, anchors = _small_setup(T=40)
    plan = ManipulationPlan(mode="replacement", mask=mask, sched=sched,
                            denoiser_a=oracle, delta_t=10,
                            harmonize_repeats=2)
    a = manipulate(anchors[0], anchors[1], plan, rng_seed=11)
    b = manipulate(anchors[0], anchors[1], plan, rng_seed=11)
    c = manipulate(anchors[0], anchors[1], plan, rng_seed=12)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


# ---------------------------------------------------------------------------
# The full edit contract on a separated two-component model


def test_replacement_stays_coherent_where_naive_stitch_tears():
    dims = (16, 16, 16)
    xx, yy, zz = np.meshgrid(*[np.linspace(-1, 1, 16)] * 3, indexing="ij")
    base = 0.3 * np.sin(2.1 * xx) * np.cos(1.7 * yy) + 0.2 * zz
    bump = np.zeros(dims)
    bump[:, :, 7:] = 0.006  # low plateau reaching past the mask boundary
    X_a = Volume3(base)
    X_b = Volume3(base + bump)
    sched = make_linear_schedule(1000)
    z_a = np.zeros(6)
    z_b = np.ones(6) * 0.6
    oracle = GaussianMixtureOracle([(0.5, X_a), (0.5, X_b)],
                                   anchors=[z_a, z_b], tau=0.45, sched=sched)
    bits = np.zeros(dims, dtype=bool)
    bits[:, :, 9:] = True
    mask = RegionMask3(bits)
    plan = ManipulationPlan(mode="replacement", mask=mask, sched=sched,
                            denoiser_a=oracle, delta_t=10,
                            harmonize_repeats=5)
    out = manipulate(z_a, z_b, plan, rng_seed=21)
    inv_a, inv_b = (Volume3(row) for row in
                    sample(oracle, sched, dims, [21, 21], [z_a, z_b]))
    outside = np.abs(out.values - inv_a.values)[~bits]
    assert outside.max() <= 1e-2
    seam_edit = boundary_discontinuity(out, mask)
    seam_naive = boundary_discontinuity(naive_mix_baseline(inv_a, inv_b, mask),
                                        mask)
    assert seam_edit < seam_naive


# ---------------------------------------------------------------------------
# Plan files


def test_plan_file_round_trip(tmp_path):
    path = tmp_path / "plan.json"
    write_plan_file(path, mode="part_interpolation", mask_path="m.wsv",
                    delta_t=5, harmonize_repeats=3, alphas=(0.2, 0.8),
                    z_a_path="a.json", z_b_path="b.json", seed=77)
    loaded = read_plan_file(path)
    assert loaded == {"mode": "part_interpolation", "mask": "m.wsv",
                      "delta_t": 5, "harmonize_repeats": 3,
                      "alphas": (0.2, 0.8), "z_a": "a.json",
                      "z_b": "b.json", "seed": 77}


def test_plan_file_defaults_and_errors(tmp_path):
    path = tmp_path / "plan.json"
    with pytest.raises(ValidationError):
        write_plan_file(path, mode="nonsense", mask_path="m.wsv")
    path.write_text('{"mode": "replacement", "mask": "m.wsv"}')
    loaded = read_plan_file(path)
    assert loaded["delta_t"] == 10 and loaded["harmonize_repeats"] == 10
    assert loaded["alphas"] == (0.5,) and loaded["seed"] == 0
    path.write_text('{"mode": "replacement"}')
    with pytest.raises(ValidationError):
        read_plan_file(path)
    path.write_text('{"mode": "warp", "mask": "m.wsv"}')
    with pytest.raises(ValidationError):
        read_plan_file(path)


def test_mode_catalogue():
    assert set(MODES) == {"replacement", "part_interpolation", "regeneration",
                          "whole_interpolation"}
