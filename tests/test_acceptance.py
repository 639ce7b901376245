"""Ten end-to-end acceptance checks, one test per contract clause.

Each test prints its measured numbers so a verbose run doubles as the
compliance report.  Expected values come from the module-level references in
the sibling unit-test files; tolerances are the contract bounds, not the
(much tighter) observed behavior.
"""

import shutil
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import euler_characteristic
from waveshape import cli
from waveshape import rng as rng_mod
from waveshape import tsdf as tsdf_mod
from waveshape.conditioning import (LatentCode, PoolProjectEncoder, invert,
                                    loss_trace_ema, refine_latent)
from waveshape.diffusion import (GaussianMixtureOracle, default_step_subset,
                                 make_linear_schedule, sample)
from waveshape.grid import RegionMask3, Volume3
from waveshape.manipulation import (ManipulationPlan, boundary_discontinuity,
                                    manipulate, naive_mix_baseline)
from waveshape.metrics import (chamfer, emd_approx, lfd, set_metrics)
from waveshape.surface import marching_cubes
from waveshape.tsdf import (BoxSource, CapsuleSource, SphereSource,
                            SubtractSource, TorusSource, UnionSource,
                            icosphere, sample_tsdf)
from waveshape.wavelet import (compactness_report, get_bank,
                               pyramid_decompose, pyramid_reconstruct,
                               truncated_reconstruction_error)


# ---------------------------------------------------------------------------
# 1. Perfect reconstruction


def test_criterion_01_perfect_reconstruction():
    started = time.time()
    dims_set = [(16, 16, 16), (17, 17, 17), (31, 24, 16), (64, 64, 64)]
    worst = 0.0
    for bank_name in ("bior-6.8", "haar"):
        bank = get_bank(bank_name)
        for dims in dims_set:
            vol = Volume3(rng_mod.stream(77, "pr", bank_name,
                                         *dims).standard_normal(dims))
            pyr = pyramid_decompose(vol, J=3, bank=bank)
            back = pyramid_reconstruct(pyr)
            err = float(np.abs(back.values - vol.values).max())
            print(f"criterion 1: {bank_name:8s} {str(dims):14s} "
                  f"max abs error {err:.3e}")
            worst = max(worst, err)
            assert err <= 1e-9
    elapsed = time.time() - started
    print(f"criterion 1: worst error {worst:.3e}, elapsed {elapsed:.1f}s")
    assert elapsed <= 30.0


# ---------------------------------------------------------------------------
# 2 + 3. Compact representation at high resolution, and the bank comparison


def _acceptance_shapes():
    return [
        ("sphere", SphereSource((0.0, 0.0, 0.0), 0.62)),
        ("box", BoxSource((0.05, -0.05, 0.0), (0.5, 0.42, 0.55))),
        ("torus", TorusSource((0.0, 0.0, 0.1), 0.55, 0.21)),
        ("capsule", CapsuleSource((-0.5, -0.3, -0.2), (0.5, 0.3, 0.2), 0.28)),
        ("union", UnionSource((SphereSource((0.3, 0.0, 0.0), 0.45),
                               BoxSource((-0.35, 0.0, 0.0),
                                         (0.35, 0.3, 0.3))))),
        ("subtract", SubtractSource(SphereSource((0.0, 0.0, 0.0), 0.6),
                                    SphereSource((0.45, 0.0, 0.0), 0.35))),
    ]


@pytest.fixture(scope="module")
def compactness_results():
    bior = get_bank("bior-6.8")
    haar = get_bank("haar")
    rows = []
    started = time.time()
    for name, source in _acceptance_shapes():
        vol = sample_tsdf(source, 128)
        pyr = pyramid_decompose(vol, J=3, bank=bior)
        retained = compactness_report(pyr)["retained_fraction"]
        err_bior = truncated_reconstruction_error(pyr, vol)
        pyr_haar = pyramid_decompose(vol, J=3, bank=haar)
        err_haar = truncated_reconstruction_error(pyr_haar, vol)
        rows.append((name, retained, err_bior, err_haar))
    return rows, time.time() - started


def test_criterion_02_truncated_pyramids_stay_compact(compactness_results):
    rows, elapsed = compactness_results
    assert len(rows) >= 5
    for name, retained, err_bior, err_haar in rows:
        print(f"criterion 2: {name:9s} retained {retained:.4f} | "
              f"truncated error {err_bior:.5f}")
        assert retained <= 0.05
        assert err_bior <= 0.06
    print(f"criterion 2: elapsed {elapsed:.1f}s")
    assert elapsed <= 300.0


def test_criterion_03_smooth_bank_beats_blockwise_bank(compactness_results):
    rows, _ = compactness_results
    for name, _, err_bior, err_haar in rows:
        print(f"criterion 3: {name:9s} bior {err_bior:.5f} "
              f"< haar {err_haar:.5f}")
        assert err_bior < err_haar


# ---------------------------------------------------------------------------
# 4. Noise schedule exactness


def test_criterion_04_schedule_matches_exact_recomputation():
    T = 1000
    sched = make_linear_schedule(T)
    assert sched.beta(1) == 1e-4
    assert sched.beta(T) == 0.02
    assert sched.sigma(1) == 0.0
    bs, be = Fraction(1e-4), Fraction(0.02)
    alpha_bar = Fraction(1)
    prev_bar = Fraction(1)
    worst_ab = 0.0
    worst_sg = 0.0
    for t in range(1, T + 1):
        beta = bs + Fraction(t - 1, T - 1) * (be - bs)
        prev_bar = alpha_bar
        alpha_bar *= 1 - beta
        worst_ab = max(worst_ab, abs(sched.alpha_bar(t) - float(alpha_bar))
                       / float(alpha_bar))
        if t > 1:
            sigma = (1 - prev_bar) / (1 - alpha_bar) * beta
            worst_sg = max(worst_sg, abs(sched.sigma(t) - float(sigma))
                           / float(sigma))
    print(f"criterion 4: endpoints exact, worst alpha-bar rel {worst_ab:.2e},"
          f" worst sigma rel {worst_sg:.2e}, sigma_1 = 0")
    assert worst_ab <= 1e-12
    assert worst_sg <= 1e-12


# ---------------------------------------------------------------------------
# 5. Sampler reproduces a known mixture


def _symmetric_modes():
    g = np.linspace(-1.0, 1.0, 32)
    X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
    base = 0.8 * np.exp(-((X + 0.5) ** 2 + (Y + 0.5) ** 2 + (Z + 0.5) ** 2)
                        / (2.0 * 0.18 ** 2))
    # axis flips keep the lattice geometry bit-identical, so the four modes
    # are exactly exchangeable and each must be hit 25% of the time
    return [base, np.flip(base, (0, 2)), np.flip(base, (1, 2)),
            np.flip(base, (0, 1))]


def _mode_frequencies(oracle, sched, stack, norms, subset, n_samples):
    # 25 chains per sample call: the oracle's (rows, K, 32^3) distance array
    # stays at 26 MB, which measured faster than 50 rows per call
    batch = 25
    counts = np.zeros(4, dtype=int)
    worst_rel = 0.0
    seeds = [int(rng_mod.stream(42, "sample", i).integers(0, 2 ** 63 - 1))
             for i in range(n_samples)]
    for start in range(0, n_samples, batch):
        rows = sample(oracle, sched, (32, 32, 32), seeds[start:start + batch],
                      step_subset=subset)
        for out in rows:
            d = np.sqrt(((stack - out[None]) ** 2).sum(axis=(1, 2, 3)))
            k = int(d.argmin())
            counts[k] += 1
            worst_rel = max(worst_rel, float(d[k] / norms[k]))
    return counts, worst_rel


def test_criterion_05_generation_recovers_mixture_weights():
    started = time.time()
    modes = _symmetric_modes()
    stack = np.stack(modes)
    norms = np.sqrt((stack ** 2).sum(axis=(1, 2, 3)))
    sched = make_linear_schedule(1000)
    oracle = GaussianMixtureOracle([(0.25, Volume3(m)) for m in modes],
                                   sched=sched)
    n = 200
    for label, subset in (("ancestral", None),
                          ("deterministic-subset",
                           default_step_subset(1000))):
        counts, worst_rel = _mode_frequencies(oracle, sched, stack, norms,
                                              subset, n)
        freqs = counts / n
        max_dev = float(np.abs(freqs - 0.25).max())
        print(f"criterion 5: {label} counts {counts.tolist()} "
              f"max freq deviation {max_dev:.3f} worst rel L2 {worst_rel:.2e}")
        assert worst_rel <= 0.05
        assert max_dev <= 0.10
    elapsed = time.time() - started
    print(f"criterion 5: elapsed {elapsed:.0f}s")
    assert elapsed <= 600.0


# ---------------------------------------------------------------------------
# 6. Latent refinement


class _WrongAnchorEncoder(PoolProjectEncoder):
    def __init__(self, code):
        self._code = np.asarray(code, dtype=np.float64)

    def encode(self, C0):
        return LatentCode(self._code)


def test_criterion_06_refined_inversion_beats_unrefined():
    gen = np.random.default_rng(33)
    base = gen.standard_normal((5, 5, 5))
    bump = np.zeros((5, 5, 5))
    bump[2:, 2:, 2:] = 0.12
    X_a, X_b = Volume3(base), Volume3(base + bump)
    anchors = np.zeros((2, 6))
    anchors[0, 0], anchors[1, 0] = 1.0, -1.0
    sched = make_linear_schedule(50)
    oracle = GaussianMixtureOracle([(0.5, X_a), (0.5, X_b)], anchors=anchors,
                                   tau=0.35, sched=sched)
    encoder = _WrongAnchorEncoder(anchors[1])
    # input is a perturbed mode; the stub encoder proposes the wrong anchor
    eta = np.random.default_rng(99).standard_normal((5, 5, 5))
    target = Volume3(X_a.values + 0.005 * eta)

    _, vol_u, _ = invert(target, encoder, oracle, sched, refine=False,
                         rng_seed=5)
    _, vol_r, trace = invert(target, encoder, oracle, sched, refine=True,
                             rng_seed=5, iters=150, lr=5e-2)
    err_u = float(np.linalg.norm(vol_u.values - target.values))
    err_r = float(np.linalg.norm(vol_r.values - target.values))
    print(f"criterion 6: unrefined L2 {err_u:.4f} | refined L2 {err_r:.4f}")
    assert err_r < err_u

    ema = loss_trace_ema(trace)
    quarter = len(ema) // 4
    first, last = float(ema[:quarter].mean()), float(ema[-quarter:].mean())
    print(f"criterion 6: EMA first quarter {first:.4f} >= last {last:.4f}")
    assert last <= first

    z0, empty_trace = refine_latent(X_a, anchors[1], oracle, sched, iters=0)
    np.testing.assert_array_equal(z0.values, anchors[1])
    assert empty_trace.size == 0
    print("criterion 6: zero-iteration refinement is the identity")


# ---------------------------------------------------------------------------
# 7. Localized replacement


def test_criterion_07_part_replacement_contract():
    dims = (16, 16, 16)
    xx, yy, zz = np.meshgrid(*[np.linspace(-1, 1, 16)] * 3, indexing="ij")
    base = 0.3 * np.sin(2.1 * xx) * np.cos(1.7 * yy) + 0.2 * zz
    bump = np.zeros(dims)
    bump[:, :, 7:] = 0.006
    X_a, X_b = Volume3(base), Volume3(base + bump)
    sched = make_linear_schedule(1000)
    z_a, z_b = np.zeros(6), np.ones(6) * 0.6
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
    outside = float(np.abs(out.values - inv_a.values)[~bits].max())
    seam_edit = boundary_discontinuity(out, mask)
    seam_naive = boundary_discontinuity(
        naive_mix_baseline(inv_a, inv_b, mask), mask)
    print(f"criterion 7: outside-mask deviation {outside:.4f} (<= 1e-2), "
          f"boundary {seam_edit:.4f} < naive {seam_naive:.4f}")
    assert outside <= 1e-2
    assert seam_edit < seam_naive

    plan_false = ManipulationPlan(mode="replacement",
                                  mask=RegionMask3(np.zeros(dims, bool)),
                                  sched=sched, denoiser_a=oracle, delta_t=10,
                                  harmonize_repeats=5)
    noop = manipulate(z_a, z_b, plan_false, rng_seed=21)
    np.testing.assert_array_equal(noop.values, inv_a.values)
    same = manipulate(z_a, z_a.copy(), plan, rng_seed=21)
    np.testing.assert_array_equal(same.values, inv_a.values)
    print("criterion 7: empty-mask and identical-code edits are bit-exact "
          "identities")


# ---------------------------------------------------------------------------
# 8. Surface extraction


def test_criterion_08_marching_cubes_sphere():
    radius = 0.6
    vol = sample_tsdf(SphereSource((0.0, 0.0, 0.0), radius), 64)
    mesh = marching_cubes(vol)
    radial = np.abs(np.linalg.norm(mesh.vertices, axis=1) - radius)
    spacing = 2.0 / 64
    print(f"criterion 8: {mesh.num_triangles} triangles, worst radial error "
          f"{radial.max() / spacing:.3f} spacings")
    assert radial.max() <= 1.5 * spacing
    chi = euler_characteristic(mesh.vertices, mesh.triangles)
    print(f"criterion 8: Euler characteristic {chi}")
    assert chi == 2
    empty = marching_cubes(Volume3(np.full((8, 8, 8), 0.5)))
    assert empty.num_triangles == 0
    print("criterion 8: all-positive field yields an empty mesh")


# ---------------------------------------------------------------------------
# 9. Metric sanity


def test_criterion_09_metric_identities_and_bounds():
    P = rng_mod.stream(1, "pts").standard_normal((64, 3))
    assert chamfer(P, P.copy()) == 0.0
    assert emd_approx(P, P.copy()) == 0.0

    shapes = [rng_mod.stream(s, "shape").standard_normal((12, 3))
              + np.array([2.5 * s, 0.0, 0.0]) for s in range(6)]
    dup = set_metrics(shapes, [s.copy() for s in shapes])
    print(f"criterion 9: duplicated sets -> {dup}")
    assert dup == {"COV": 1.0, "MMD": 0.0, "1-NNA": 0.0}

    gen = [rng_mod.stream(1000, "nna", i).standard_normal((32, 3))
           for i in range(100)]
    ref = [rng_mod.stream(2000, "nna", i).standard_normal((32, 3))
           for i in range(100)]
    nna = set_metrics(gen, ref)["1-NNA"]
    print(f"criterion 9: disjoint same-distribution 1-NNA {nna:.3f}")
    assert 0.40 <= nna <= 0.60

    g = rng_mod.stream(5, "emd")
    A = g.standard_normal((128, 3))
    B = g.standard_normal((128, 3))
    exact = emd_approx(A, B, method="exact")
    approx = emd_approx(A, B, method="auction")
    rel = abs(approx - exact) / exact
    print(f"criterion 9: EMD exact {exact:.6f} vs auction {approx:.6f} "
          f"(rel {rel:.2e})")
    assert rel <= 0.02

    mesh = icosphere(1, 0.5)
    moved = tsdf_mod.TriangleMesh(mesh.vertices + np.array([0.3, -0.2, 0.1]),
                                  mesh.triangles)
    self_d = lfd(mesh, mesh)
    trans_d = lfd(mesh, moved)
    print(f"criterion 9: LFD self {self_d} | translated {trans_d}")
    assert self_d == 0.0
    assert trans_d <= 1e-6


# ---------------------------------------------------------------------------
# 10. Deterministic command-line reruns


def _rerun_and_compare(argv, out):
    assert cli.main(argv) == 0
    snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
    shutil.rmtree(out)
    assert cli.main(argv) == 0
    rerun = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(rerun) == set(snapshot)
    for name, blob in rerun.items():
        assert blob == snapshot[name], f"{name} changed between reruns"
    return len(rerun)


def test_criterion_10_cli_rerun_is_byte_identical(tmp_path, model_manifest):
    gen_out = tmp_path / "gen"
    count = _rerun_and_compare(
        ["generate", "--model", str(model_manifest), "--seed", "3",
         "--count", "2", "--out", str(gen_out)], gen_out)
    assert count == 5  # run.json + 2 x (mesh, coarse volume)
    print(f"criterion 10: generate -> {count} artifacts byte-identical")

    from conftest import MODEL_RES, model_shapes
    from waveshape.formats import write_wsv1
    source = tmp_path / "input.wsv1"
    write_wsv1(source, sample_tsdf(model_shapes()[0], MODEL_RES), wide=True)
    inv_out = tmp_path / "inv"
    count = _rerun_and_compare(
        ["invert", "--input", str(source), "--model", str(model_manifest),
         "--refine-iters", "20", "--seed", "4", "--out", str(inv_out)],
        inv_out)
    print(f"criterion 10: invert -> {count} artifacts byte-identical")
