"""Point-set distances, collection metrics, silhouette descriptors, and
retrieval."""

import math

import numpy as np
import pytest

import helpers
from waveshape import metrics
from waveshape import rng as rng_mod
from waveshape.errors import ShapeMismatchError, ValidationError
from waveshape.metrics import (chamfer, contour_fourier_magnitudes,
                               emd_approx, lfd, lfd_percentiles,
                               retrieve_topk, sample_surface, set_metrics,
                               silhouette_descriptors, zernike_magnitudes)
from waveshape.tsdf import TriangleMesh, icosphere


def _cloud(seed, n=16):
    return rng_mod.stream(seed, "cloud").standard_normal((n, 3))


# ---------------------------------------------------------------------------
# Chamfer


def _chamfer_reference(P, Q):
    d2_pq = ((P[:, None, :] - Q[None, :, :]) ** 2).sum(-1)
    return d2_pq.min(1).mean() + d2_pq.min(0).mean()


def test_chamfer_matches_brute_force():
    gen = np.random.default_rng(1)
    P = gen.standard_normal((37, 3))
    Q = gen.standard_normal((23, 3))
    assert chamfer(P, Q) == pytest.approx(_chamfer_reference(P, Q), rel=1e-12)
    assert chamfer(P, Q) == pytest.approx(chamfer(Q, P), rel=1e-12)


def test_chamfer_identity_and_two_points():
    P = _cloud(2)
    assert chamfer(P, P) == 0.0
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[3.0, 4.0, 0.0]])
    assert chamfer(a, b) == pytest.approx(50.0, rel=1e-12)  # 25 + 25


def test_point_set_validation():
    with pytest.raises(ValidationError):
        chamfer(np.zeros((0, 3)), np.ones((2, 3)))
    with pytest.raises(ValidationError):
        chamfer(np.zeros((4, 2)), np.ones((2, 3)))
    bad = np.ones((2, 3))
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        chamfer(bad, np.ones((2, 3)))


# ---------------------------------------------------------------------------
# Earth mover's distance


def test_emd_identity_and_single_pair():
    P = _cloud(3, 12)
    assert emd_approx(P, P) == 0.0
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[3.0, 4.0, 0.0]])
    assert emd_approx(a, b) == pytest.approx(5.0, rel=1e-12)


def test_emd_permutation_invariance():
    P = _cloud(4, 20)
    perm = np.random.default_rng(0).permutation(20)
    assert emd_approx(P, P[perm]) == pytest.approx(0.0, abs=1e-12)


def test_emd_auction_tracks_exact_solver():
    gen = rng_mod.stream(5, "emd")
    P = gen.standard_normal((128, 3))
    Q = gen.standard_normal((128, 3))
    exact = emd_approx(P, Q, method="exact")
    approx = emd_approx(P, Q, method="auction")
    assert exact > 0.0
    assert abs(approx - exact) <= 0.02 * exact


def test_emd_validation():
    with pytest.raises(ShapeMismatchError):
        emd_approx(np.ones((3, 3)), np.ones((4, 3)))
    with pytest.raises(ValidationError):
        emd_approx(np.ones((3, 3)), np.ones((3, 3)), method="magic")


# ---------------------------------------------------------------------------
# Surface sampling


def test_sample_surface_points_lie_on_triangle():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
    pts = sample_surface(mesh, 128, seed=1)
    assert pts.shape == (128, 3)
    assert np.abs(pts[:, 2]).max() == 0.0
    assert (pts[:, 0] >= 0).all() and (pts[:, 1] >= 0).all()
    assert (pts[:, 0] + pts[:, 1] <= 1.0).all()


def test_sample_surface_weights_by_area():
    verts = np.array([[0, 0, 0], [3, 0, 0], [0, 3, 0],
                      [10, 0, 0], [10, 1, 0], [10, 0, 1]], dtype=np.float64)
    mesh = TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
    pts = sample_surface(mesh, 2048, seed=3)
    big = int((pts[:, 0] < 5.0).sum())  # 4.5 vs 0.5 area -> p = 0.9
    sigma = math.sqrt(2048 * 0.9 * 0.1)
    assert abs(big - 0.9 * 2048) <= 3.0 * sigma


def test_sample_surface_deterministic_and_validated():
    mesh = icosphere(1, 0.5)
    a = sample_surface(mesh, 64, seed=9)
    b = sample_surface(mesh, 64, seed=9)
    c = sample_surface(mesh, 64, seed=10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValidationError):
        sample_surface(mesh, 0)
    empty = TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(ValidationError):
        sample_surface(empty, 4)
    flat = TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(ValidationError):
        sample_surface(flat, 4)


# ---------------------------------------------------------------------------
# Collection metrics


def test_set_metrics_identical_distinct_lists():
    shapes = [_cloud(s, 12) + np.array([2.5 * s, 0.0, 0.0]) for s in range(6)]
    out = set_metrics(shapes, [s.copy() for s in shapes])
    assert out["COV"] == 1.0
    assert out["MMD"] == 0.0
    assert out["1-NNA"] == 0.0


def test_set_metrics_same_distribution_is_confusable():
    gen = [rng_mod.stream(100, "nna", i).standard_normal((16, 3))
           for i in range(30)]
    ref = [rng_mod.stream(200, "nna", i).standard_normal((16, 3))
           for i in range(30)]
    out = set_metrics(gen, ref)
    assert 0.25 <= out["1-NNA"] <= 0.75
    assert out["MMD"] > 0.0


def test_set_metrics_unmatched_reference_lowers_coverage():
    near = [_cloud(s, 8) for s in range(3)]
    far = _cloud(99, 8) + 100.0
    out = set_metrics(near, near + [far])
    assert out["COV"] == pytest.approx(0.75)


def test_set_metrics_validation():
    with pytest.raises(ValidationError):
        set_metrics([], [_cloud(1)])
    with pytest.raises(ValidationError):
        set_metrics([_cloud(1)], [])


# ---------------------------------------------------------------------------
# Silhouette descriptors


def _pixel_grid(size):
    px = (np.arange(size) + 0.5) / size * 2.0 - 1.0
    return np.meshgrid(px, px, indexing="ij")


def _zernike_reference(image):
    """Direct per-pixel summation of the moment integrals."""
    size = image.shape[0]
    gx, gy = _pixel_grid(size)
    rho = np.sqrt(gx ** 2 + gy ** 2)
    theta = np.arctan2(gy, gx)
    inside = (rho <= 1.0) & image.astype(bool)
    mags = []
    for n_ord in range(1, 11):
        for m_ord in range(n_ord % 2, n_ord + 1, 2):
            total = 0.0 + 0.0j
            for r, th in zip(rho[inside], theta[inside]):
                radial = 0.0
                for k in range((n_ord - m_ord) // 2 + 1):
                    radial += ((-1) ** k * math.factorial(n_ord - k)
                               / (math.factorial(k)
                                  * math.factorial((n_ord + m_ord) // 2 - k)
                                  * math.factorial((n_ord - m_ord) // 2 - k))
                               ) * r ** (n_ord - 2 * k)
                total += radial * np.exp(-1j * m_ord * th)
            total *= (n_ord + 1) / math.pi * (2.0 / size) ** 2
            mags.append(abs(total))
    return np.array(mags)


def test_zernike_matches_direct_summation():
    gen = np.random.default_rng(6)
    image = gen.random((16, 16)) < 0.3
    got = zernike_magnitudes(image)
    expect = _zernike_reference(image)
    assert got.shape == (35,)
    np.testing.assert_allclose(got, expect, rtol=1e-10, atol=1e-12)


def test_zernike_full_disk_moments_vanish():
    gx, gy = _pixel_grid(128)
    disk = gx ** 2 + gy ** 2 <= 1.0
    assert zernike_magnitudes(disk).max() < 0.05
    half = gx > 0.0
    assert zernike_magnitudes(half).max() > 0.1
    with pytest.raises(ValidationError):
        zernike_magnitudes(np.zeros((4, 5)))


def test_contour_fourier_circle_has_tiny_harmonics():
    gx, gy = _pixel_grid(128)
    disk = gx ** 2 + gy ** 2 <= 0.49
    assert contour_fourier_magnitudes(disk).max() < 0.01
    shifted = (gx - 0.15) ** 2 + (gy + 0.1) ** 2 <= 0.36
    assert contour_fourier_magnitudes(shifted).max() < 0.01
    square = (np.abs(gx) < 0.6) & (np.abs(gy) < 0.6)
    assert contour_fourier_magnitudes(square).max() > 0.02
    assert np.all(contour_fourier_magnitudes(np.zeros((8, 8), bool)) == 0.0)


@pytest.mark.parametrize("block", [97, 1 << 18])
def test_rasterize_matches_per_triangle_loop(monkeypatch, block):
    monkeypatch.setattr(metrics, "_PAIR_BLOCK", block)
    gen = np.random.default_rng(8)
    for trial in range(6):
        size = (16, 37, 128)[trial % 3]
        n_verts = 40
        # vertices reach past the [-1, 1] window; some triangles are tiny
        pts = gen.uniform(-1.4, 1.4, size=(n_verts, 2))
        pts[:10] = pts[10] + gen.normal(scale=0.01, size=(10, 2))
        tris = gen.integers(0, n_verts, size=(60, 3))
        tris[:5, 2] = tris[:5, 1]  # zero-area: a repeated vertex
        pts[20] = (pts[21] + pts[22]) / 2  # zero-area: collinear
        tris[5] = (20, 21, 22)
        # vertices on pixel centers put pixels exactly on edges (d == 0)
        px = (np.arange(size) + 0.5) / size * 2.0 - 1.0
        pts[30:] = px[gen.integers(0, size, size=(10, 2))]
        tris[6:20] = gen.integers(30, n_verts, size=(14, 3))
        tris[20] = (30, 31, 31)
        expect = helpers.rasterize_reference(pts, tris, size)
        got = metrics._rasterize(pts, tris, size)
        np.testing.assert_array_equal(got, expect)
        assert got.any() and not got.all()
        for tri in tris[:21]:  # alone, so no other triangle covers its edges
            np.testing.assert_array_equal(
                metrics._rasterize(pts, tri[None], size),
                helpers.rasterize_reference(pts, tri[None], size))


def test_lfd_self_translation_and_scale():
    mesh = icosphere(1, 0.5)
    assert lfd(mesh, mesh) == 0.0
    moved = TriangleMesh(mesh.vertices + np.array([0.3, -0.2, 0.1]),
                         mesh.triangles)
    assert lfd(mesh, moved) <= 1e-6
    scaled = TriangleMesh(mesh.vertices * 2.5, mesh.triangles)
    assert lfd(mesh, scaled) <= 1e-6
    assert silhouette_descriptors(mesh).shape == (20, 45)


def test_lfd_separates_sphere_from_box():
    assert lfd(icosphere(1, 0.5), _box_mesh()) > 1.0


def test_lfd_percentiles():
    d = np.array([4.0, 1.0, 3.0, 2.0])
    out = lfd_percentiles(d)
    assert out["0"] == 1.0 and out["100"] == 4.0
    assert out["50"] == pytest.approx(np.percentile(d, 50))
    with pytest.raises(ValidationError):
        lfd_percentiles([])


# ---------------------------------------------------------------------------
# Retrieval


def test_retrieve_topk_finds_exact_copy_first():
    corpus = [icosphere(1, r) for r in (0.3, 0.5, 0.7)]
    query = icosphere(1, 0.5)
    top = retrieve_topk(query, corpus, k=2)
    assert top[0] == (1, 0.0)
    assert len(top) == 2
    assert top[1][1] > 0.0


def test_retrieve_topk_breaks_ties_by_index():
    mesh = icosphere(1, 0.4)
    corpus = [mesh, icosphere(1, 0.8), mesh]
    top = retrieve_topk(mesh, corpus, k=3)
    assert [i for i, _ in top] == [0, 2, 1]
    assert top[0][1] == top[1][1] == 0.0


def _box_mesh():
    corners = np.array([[x, y, z] for x in (-0.5, 0.5)
                        for y in (-0.5, 0.5) for z in (-0.5, 0.5)])
    faces = np.array([[0, 1, 3], [0, 3, 2], [4, 6, 7], [4, 7, 5],
                      [0, 4, 5], [0, 5, 1], [2, 3, 7], [2, 7, 6],
                      [0, 2, 6], [0, 6, 4], [1, 5, 7], [1, 7, 3]])
    return TriangleMesh(corners.astype(np.float64), faces)


def test_retrieve_topk_bounds():
    corpus = [icosphere(1, 0.3), _box_mesh()]
    assert retrieve_topk(corpus[0], corpus, k=10) == \
        retrieve_topk(corpus[0], corpus, k=2)
    assert retrieve_topk(corpus[0], corpus, k=0) == []
    with pytest.raises(ValidationError):
        retrieve_topk(corpus[0], [], k=1)
