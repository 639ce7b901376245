"""Localized shape editing on coarse coefficient volumes.

Two reverse-diffusion chains (an edit target A and a content source B) run
from shared initial noise; every ``delta_t`` steps their states are spliced
through a region mask and the splice is harmonized by brief renoise/denoise
rounds so the result stays on the learned manifold.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .diffusion import (DenoiserInterface, NoiseSchedule, _ancestral_step,
                        _require_finite, chain_stream_name, p_step, sample)
from .errors import ShapeMismatchError, ValidationError
from .formats import read_json, write_json
from .grid import RegionMask3, Volume3, masked_combine
from .wavelet import WaveletFilterBank, _analyze_axis, _Filter, _lowpass_window

MODES = ("replacement", "part_interpolation", "regeneration",
         "whole_interpolation")


@dataclass(frozen=True)
class ManipulationPlan:
    """Everything needed to rerun an edit except the latent codes themselves.

    ``mask`` lives on the coarse coefficient grid; true voxels take their
    content from chain B.  ``alphas`` drives part_interpolation (one blend
    weight per combine point, last entry repeated) and whole_interpolation
    (only the first entry is used).
    """

    mode: str
    mask: RegionMask3
    sched: NoiseSchedule
    denoiser_a: DenoiserInterface
    delta_t: int = 10
    harmonize_repeats: int = 10
    alphas: tuple = (0.5,)
    z_a: np.ndarray | None = None
    z_b: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown manipulation mode {self.mode!r}")
        if self.delta_t < 1 or self.sched.T % self.delta_t != 0:
            raise ValidationError(
                f"delta_t {self.delta_t} must be a positive divisor of "
                f"T={self.sched.T}")
        if self.harmonize_repeats < 0:
            raise ValidationError("harmonize_repeats must be >= 0")
        if self.mode == "part_interpolation":
            if len(self.alphas) == 0:
                raise ValidationError("part_interpolation needs alphas")
            for a in self.alphas:
                if not 0.0 <= a <= 1.0:
                    raise ValidationError(f"alpha {a} outside [0, 1]")


# ---------------------------------------------------------------------------
# Region transport: TSDF-resolution mask -> coarse coefficient mask


def mask_to_coefficient_domain(region: RegionMask3, levels: int,
                               bank: WaveletFilterBank) -> RegionMask3:
    """Mark every coarse coefficient whose analysis support touches the region.

    Applies the single-axis coarsening rule of the pyramid ``levels`` times:
    coefficient k is marked when any fine voxel inside its (reflected)
    analysis window is marked.  The result is therefore the region dilated by
    the filter footprint at each level, never an eroded one.
    """
    ones = _Filter(np.ones_like(bank.analysis_low.taps),
                   bank.analysis_low.origin)
    vals = region.bits.astype(np.float64)
    for _ in range(levels):
        for axis in range(3):
            kmin, count = _lowpass_window(vals.shape[axis], bank)
            vals = _analyze_axis(vals, ones, axis, kmin, count)
        vals = (vals > 0.0).astype(np.float64)
    return RegionMask3(vals > 0.0)


# ---------------------------------------------------------------------------
# Metrics and baselines


def boundary_discontinuity(volume: Volume3, mask: RegionMask3) -> float:
    """Mean absolute value jump across voxel faces where the mask flips."""
    if volume.dims != mask.dims:
        raise ShapeMismatchError(f"dims {volume.dims} vs mask {mask.dims}")
    v = volume.values
    b = mask.bits
    total = 0.0
    count = 0
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        flip = b[tuple(lo)] != b[tuple(hi)]
        jumps = np.abs(v[tuple(lo)] - v[tuple(hi)])[flip]
        total += float(jumps.sum())
        count += int(flip.sum())
    return total / count if count else 0.0


def naive_mix_baseline(C0_A: Volume3, C0_B: Volume3,
                       mask: RegionMask3) -> Volume3:
    """Direct coefficient splice with no diffusion involvement."""
    return masked_combine(C0_A, C0_B, mask)


# ---------------------------------------------------------------------------
# Harmonization


def harmonize(C_mix: np.ndarray, t: int, plan: ManipulationPlan,
              rng: np.random.Generator) -> np.ndarray:
    """Blend a freshly spliced state back onto the model manifold.

    Each round renoises one step (mean sqrt(1-beta_t) * C, variance beta_t),
    takes one reverse step of chains A and B (rows 0 and 1 of one batch)
    from the shared renoised state, and re-splices through the mask.
    Requires 1 <= t < T.
    """
    if not 1 <= t < plan.sched.T:
        raise ValidationError(f"harmonize needs 1 <= t < T, got t={t}")
    if C_mix.shape != plan.mask.dims:
        raise ShapeMismatchError(f"dims {C_mix.shape} vs mask {plan.mask.dims}")
    sched = plan.sched
    beta = sched.beta(t + 1)
    pair = (2, *C_mix.shape)
    state = C_mix
    for _ in range(plan.harmonize_repeats):
        xi = rng.standard_normal(state.shape)
        noisy = np.broadcast_to(
            np.sqrt(1.0 - beta) * state + np.sqrt(beta) * xi, pair)
        step_noise = np.broadcast_to(rng.standard_normal(state.shape), pair)
        eps = plan.denoiser_a.predict_eps(noisy, t + 1, [plan.z_a, plan.z_b])
        stepped = _require_finite(
            p_step(noisy, t + 1, eps, step_noise, sched), t + 1)
        state = np.where(plan.mask.bits, stepped[1], stepped[0])
    return state


# ---------------------------------------------------------------------------
# The full edit loop


def _combine(state: np.ndarray, plan: ManipulationPlan,
             index: int) -> np.ndarray:
    """Splice row B of a two-row chain state into row A through the mask."""
    state_a, inside = state
    if plan.mode == "part_interpolation":
        alpha = plan.alphas[min(index, len(plan.alphas) - 1)]
        inside = (1.0 - alpha) * state_a + alpha * inside
    return np.where(plan.mask.bits, inside, state_a)


def manipulate(zA, zB, plan: ManipulationPlan, rng_seed: int) -> Volume3:
    """Run the dual-chain edit and return the final coarse volume.

    Chains A and B, rows 0 and 1 of one state, are guided by ``zA`` and
    ``zB`` (None means B runs unconditionally, as regeneration requires).
    Each row draws exactly what a ``sample`` row with the same seed and code
    would draw.
    """
    if plan.mode == "regeneration" and zB is not None:
        raise ValidationError("regeneration runs chain B unconditionally")
    if plan.mode != "regeneration" and plan.mode != "whole_interpolation" \
            and zB is None:
        raise ValidationError(f"mode {plan.mode!r} needs a source code zB")
    zA = None if zA is None else np.asarray(zA, dtype=np.float64).reshape(-1)
    zB = None if zB is None else np.asarray(zB, dtype=np.float64).reshape(-1)
    sched = plan.sched
    dims = plan.mask.dims

    if plan.mode == "whole_interpolation":
        alpha = plan.alphas[0]
        if not 0.0 <= alpha <= 1.0:
            raise ValidationError(f"alpha {alpha} outside [0, 1]")
        z_mix = (1.0 - alpha) * zA + alpha * zB
        return Volume3(sample(plan.denoiser_a, sched, dims, [rng_seed],
                              [z_mix])[0])

    plan = dataclasses.replace(plan, z_a=zA, z_b=zB)
    zs, seeds = [zA, zB], [rng_seed, rng_seed]
    chains = [chain_stream_name(z) for z in zs]
    init = rng_mod.stream(rng_seed, "init").standard_normal(dims)
    state = np.stack([init, init])
    combine_index = 0
    for t in range(sched.T, 0, -1):
        state = _ancestral_step(plan.denoiser_a, sched, state, t, zs, seeds,
                                chains)
        level = t - 1
        if level % plan.delta_t == 0:
            combined = _combine(state, plan, combine_index)
            combine_index += 1
            seamless = (np.array_equal(combined, state[0])
                        or np.array_equal(combined, state[1]))
            if level >= 1 and plan.harmonize_repeats > 0 and not seamless:
                combined = harmonize(combined, level, plan,
                                     rng_mod.stream(rng_seed, "harmonize", level))
            state = np.stack([combined, combined])
    return Volume3(state[0])


# ---------------------------------------------------------------------------
# Plan files


def write_plan_file(path, *, mode: str, mask_path: str, delta_t: int = 10,
                    harmonize_repeats: int = 10, alphas=(0.5,),
                    z_a_path: str | None = None, z_b_path: str | None = None,
                    seed: int = 0) -> None:
    if mode not in MODES:
        raise ValidationError(f"unknown manipulation mode {mode!r}")
    write_json(path, {
        "mode": mode,
        "mask": mask_path,
        "delta_t": int(delta_t),
        "harmonize_repeats": int(harmonize_repeats),
        "alphas": [float(a) for a in alphas],
        "z_a": z_a_path,
        "z_b": z_b_path,
        "seed": int(seed),
    })


def read_plan_file(path) -> dict:
    payload = read_json(path)
    try:
        mode = payload["mode"]
        if mode not in MODES:
            raise ValidationError(f"unknown manipulation mode {mode!r}")
        return {
            "mode": mode,
            "mask": payload["mask"],
            "delta_t": int(payload.get("delta_t", 10)),
            "harmonize_repeats": int(payload.get("harmonize_repeats", 10)),
            "alphas": tuple(float(a) for a in payload.get("alphas", (0.5,))),
            "z_a": payload.get("z_a"),
            "z_b": payload.get("z_b"),
            "seed": int(payload.get("seed", 0)),
        }
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"plan file malformed: {exc}") from exc
