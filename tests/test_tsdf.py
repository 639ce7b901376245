"""Signed-distance sources, grid sampling, meshes, and scene files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from waveshape.errors import ValidationError
from waveshape.surface import marching_cubes
from waveshape.tsdf import (NORMALIZED_EXTENT, TRUNCATION, BoxSource,
                            CapsuleSource, IntersectSource, MeshSdfSource,
                            SphereSource, SubtractSource, TorusSource,
                            TriangleMesh, UnionSource, grid_axis, icosphere,
                            normalize_mesh,
                            _grid_parity, _parity_along_axis,
                            _point_triangle_dist2, read_obj, sample_tsdf,
                            scene_from_dict, write_obj)


def _random_points(seed, n=64, scale=1.2):
    gen = np.random.default_rng(seed)
    return gen.uniform(-scale, scale, size=(n, 3))


# ---------------------------------------------------------------------------
# Analytic sources against scalar re-derivations


def test_sphere_distance_scalar_reference():
    src = SphereSource((0.2, -0.1, 0.4), 0.55)
    pts = _random_points(1)
    got = src.distance(pts)
    for p, d in zip(pts, got):
        expect = math.dist(p, (0.2, -0.1, 0.4)) - 0.55
        assert d == pytest.approx(expect, abs=1e-12)


def test_box_distance_scalar_reference():
    center, he = (0.1, 0.0, -0.2), (0.4, 0.3, 0.5)
    src = BoxSource(center, he)
    pts = _random_points(2)
    for p in pts:
        q = [abs(p[i] - center[i]) - he[i] for i in range(3)]
        outside = math.sqrt(sum(max(v, 0.0) ** 2 for v in q))
        inside = min(max(q), 0.0)
        assert src.distance(p[None])[0] == pytest.approx(outside + inside, abs=1e-12)


def test_box_exact_values_on_axis():
    src = BoxSource((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
    assert src.distance(np.array([[0.9, 0.0, 0.0]]))[0] == pytest.approx(0.4)
    assert src.distance(np.array([[0.0, 0.0, 0.0]]))[0] == pytest.approx(-0.5)
    # outside a corner the distance is the Euclidean corner distance
    corner = src.distance(np.array([[0.8, 0.8, 0.8]]))[0]
    assert corner == pytest.approx(math.sqrt(3 * 0.3 ** 2), abs=1e-12)


def test_torus_distance_scalar_reference():
    src = TorusSource((0.0, 0.1, -0.1), 0.5, 0.2)
    pts = _random_points(3)
    for p in pts:
        px, py, pz = p[0] - 0.0, p[1] - 0.1, p[2] + 0.1
        ring = math.hypot(px, py) - 0.5
        expect = math.hypot(ring, pz) - 0.2
        assert src.distance(p[None])[0] == pytest.approx(expect, abs=1e-12)


def test_torus_axis_is_z():
    src = TorusSource((0.0, 0.0, 0.0), 0.5, 0.2)
    # points on the ring in the xy-plane are maximally inside
    assert src.distance(np.array([[0.5, 0.0, 0.0]]))[0] == pytest.approx(-0.2)
    assert src.distance(np.array([[0.0, 0.0, 0.5]]))[0] > 0.0


def test_capsule_distance_scalar_reference():
    a, b, r = (-0.4, 0.0, -0.1), (0.3, 0.2, 0.4), 0.25
    src = CapsuleSource(a, b, r)
    pts = _random_points(4)
    for p in pts:
        av, bv = np.array(a), np.array(b)
        t = float(np.clip((p - av) @ (bv - av) / ((bv - av) @ (bv - av)), 0, 1))
        expect = float(np.linalg.norm(p - (av + t * (bv - av)))) - r
        assert src.distance(p[None])[0] == pytest.approx(expect, abs=1e-12)


def test_capsule_degenerate_segment_is_sphere():
    cap = CapsuleSource((0.1, 0.1, 0.1), (0.1, 0.1, 0.1), 0.3)
    sph = SphereSource((0.1, 0.1, 0.1), 0.3)
    pts = _random_points(5)
    np.testing.assert_allclose(cap.distance(pts), sph.distance(pts), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_csg_composition_identities(seed):
    sphere = SphereSource((0.2, 0.0, 0.0), 0.5)
    box = BoxSource((-0.2, 0.0, 0.0), (0.4, 0.3, 0.5))
    pts = _random_points(seed, n=16)
    ds, db = sphere.distance(pts), box.distance(pts)
    np.testing.assert_array_equal(UnionSource((sphere, box)).distance(pts),
                                  np.minimum(ds, db))
    np.testing.assert_array_equal(IntersectSource((sphere, box)).distance(pts),
                                  np.maximum(ds, db))
    np.testing.assert_array_equal(SubtractSource(sphere, box).distance(pts),
                                  np.maximum(ds, -db))


# ---------------------------------------------------------------------------
# Grid sampling


def test_grid_axis_is_voxel_centers():
    ax = grid_axis(10)
    assert ax[0] == pytest.approx(-1.0 + 0.1)
    assert ax[-1] == pytest.approx(1.0 - 0.1)
    np.testing.assert_allclose(np.diff(ax), 0.2)


def test_sample_tsdf_values_are_clamped_distances():
    src = SphereSource((0.0, 0.0, 0.0), 0.5)
    vol = sample_tsdf(src, 16)
    assert vol.dims == (16, 16, 16)
    assert vol.spacing == (0.125, 0.125, 0.125)
    assert vol.origin == (-1.0 + 0.0625,) * 3
    ax = grid_axis(16)
    for idx in [(0, 0, 0), (8, 8, 8), (3, 12, 7)]:
        p = (ax[idx[0]], ax[idx[1]], ax[idx[2]])
        d = math.dist(p, (0, 0, 0)) - 0.5
        expect = min(max(d, -TRUNCATION), TRUNCATION)
        assert float(vol.values[idx]) == pytest.approx(expect, abs=1e-12)
    assert vol.values.max() <= TRUNCATION and vol.values.min() >= -TRUNCATION
    assert vol.values.min() < 0.0  # sphere interior present


def test_sample_tsdf_rejects_tiny_resolution():
    with pytest.raises(ValidationError):
        sample_tsdf(SphereSource((0, 0, 0), 0.5), 7)


# ---------------------------------------------------------------------------
# Mesh-backed signed distance


@pytest.fixture(scope="module")
def unit_icosphere():
    return icosphere(3, 0.5)


def test_icosphere_vertices_on_radius(unit_icosphere):
    r = np.linalg.norm(unit_icosphere.vertices, axis=1)
    np.testing.assert_allclose(r, 0.5, atol=1e-12)
    assert unit_icosphere.num_triangles == 20 * 4 ** 3


def test_mesh_distance_matches_sphere(unit_icosphere):
    # facet error of a level-3 geodesic sphere is below 5e-3 at r=0.5
    src = MeshSdfSource(unit_icosphere)
    pts = _random_points(11, n=40, scale=0.9)
    for p in pts:
        got = src.distance(p)
        expect = float(np.linalg.norm(p)) - 0.5
        assert got == pytest.approx(expect, abs=8e-3)


def test_mesh_sign_inside_outside(unit_icosphere):
    src = MeshSdfSource(unit_icosphere)
    assert src.distance((0.0, 0.0, 0.0)) < 0
    assert src.distance((0.2, 0.1, -0.1)) < 0
    assert src.distance((0.9, 0.0, 0.0)) > 0
    assert src.distance((0.5, 0.5, 0.5)) > 0


def test_mesh_tsdf_matches_analytic_sphere(unit_icosphere):
    mesh_vol = sample_tsdf(MeshSdfSource(unit_icosphere), 24)
    true_vol = sample_tsdf(SphereSource((0, 0, 0), 0.5), 24)
    assert np.abs(mesh_vol.values - true_vol.values).max() <= 8e-3


def test_mesh_grid_parity_agrees_with_pointwise(unit_icosphere):
    src = MeshSdfSource(unit_icosphere)
    vol = sample_tsdf(src, 16)
    ax = grid_axis(16)
    gen = np.random.default_rng(13)
    for _ in range(20):
        i, j, k = gen.integers(0, 16, size=3)
        d = src.distance((ax[i], ax[j], ax[k]))
        expect = min(max(d, -TRUNCATION), TRUNCATION)
        assert float(vol.values[i, j, k]) == pytest.approx(expect, abs=1e-9)


def _grid_box_mesh(coords):
    """Axis-aligned box with corners on voxel centers: rays along grid rows
    run exactly along its edges and face diagonals."""
    lo, hi = coords[3], coords[12]
    verts = np.array([[x, y, z] for x in (lo, hi) for y in (lo, hi)
                      for z in (lo, hi)])
    tris = np.array([[0, 1, 3], [0, 3, 2], [4, 6, 7], [4, 7, 5], [0, 4, 5],
                     [0, 5, 1], [2, 3, 7], [2, 7, 6], [0, 2, 6], [0, 6, 4],
                     [1, 5, 7], [1, 7, 3]])
    return TriangleMesh(verts, tris)


def _sliver_mesh(coords):
    """Pairs of triangles seen edge-on along z (|denom| = 1.2e-12, so the
    graze tolerance is 0.83 in barycentrics).  Each pair lies on the two
    diagonals through a voxel-center ray that is outside both 2D boxes but
    inside their graze zones; every retry shift keeps it on one diagonal, so
    that ray stays uncertain."""
    verts, tris = [], []
    e = 2.4e-12
    for (i, j), step in (((4, 5), 0.125), ((10, 9), -0.125), ((7, 12), 0.125)):
        p = np.array([coords[i], coords[j]])
        for sign in (1.0, -1.0):
            d = np.array([1.0, sign])
            a = p + step * d
            b = p + 3 * step * d
            c = (a + b) / 2 + e * np.array([1.0, -sign])
            base = len(verts)
            verts += [[*a, -0.5], [*b, 0.5], [*c, 0.1]]
            tris.append([base, base + 1, base + 2])
    return TriangleMesh(np.array(verts), np.array(tris))


@pytest.mark.parametrize("kind", ["box", "slivers", "icosphere"])
def test_ray_parity_matches_dense_reference(kind):
    coords = grid_axis(16)
    mesh = {"box": _grid_box_mesh, "slivers": _sliver_mesh,
            "icosphere": lambda _: icosphere(2, 0.6)}[kind](coords)
    gen = np.random.default_rng(21)
    X, Y, Z = np.meshgrid(coords, coords, coords, indexing="ij")
    points = np.concatenate([np.stack([X.ravel(), Y.ravel(), Z.ravel()], 1),
                             gen.uniform(-1.0, 1.0, size=(200, 3))])
    U, V = np.meshgrid(coords, coords, indexing="ij")
    for axis in range(3):
        other = [ax for ax in range(3) if ax != axis]
        # pointwise (odd, uncertain)
        ref, _ = helpers.ray_crossings_reference(
            mesh.vertices, mesh.triangles, points[:, other[0]],
            points[:, other[1]], axis)
        odd, uncertain = _parity_along_axis(mesh, points, axis)
        np.testing.assert_array_equal(uncertain, [c is None for c in ref])
        np.testing.assert_array_equal(
            odd, [c is not None and int((c > p).sum()) % 2 == 1
                  for c, p in zip(ref, points[:, axis])])
        # sign grid: one ray per row, compared against every voxel center
        rows, retried = helpers.ray_crossings_reference(
            mesh.vertices, mesh.triangles, U.ravel(), V.ravel(), axis)
        expect = np.array([np.zeros(len(coords), dtype=bool) if c is None
                           else (c[None, :] > coords[:, None]).sum(1) % 2 == 1
                           for c in rows]).reshape(16, 16, 16)
        np.testing.assert_array_equal(_grid_parity(mesh, coords, axis),
                                      np.moveaxis(expect, 2, axis))
        if kind == "box":
            assert retried.any()  # rows along edges exercise the retry path
        if kind == "slivers" and axis == 2:
            # the graze zone reaches rays outside every sliver's 2D box
            for i, j in ((4, 5), (10, 9), (7, 12)):
                assert rows[i * 16 + j] is None


@pytest.mark.parametrize("kind", ["icosphere", "box"])
def test_closest_distance_matches_brute_force(kind):
    if kind == "icosphere":
        mesh = icosphere(2, 0.6)
    else:  # flat faces of many coplanar triangles: distances tie to rounding
        box = BoxSource((0.05, 0.0, -0.1), (0.5, 0.3, 0.4))
        mesh = normalize_mesh(marching_cubes(sample_tsdf(box, 16)))
    coords = grid_axis(12)
    X, Y, Z = np.meshgrid(coords, coords, coords, indexing="ij")
    points = np.concatenate([np.stack([X.ravel(), Y.ravel(), Z.ravel()], 1),
                             _random_points(17, n=200)])
    a, b, c = (mesh.vertices[mesh.triangles[:, k]] for k in range(3))
    expect = np.array([
        math.sqrt(_point_triangle_dist2(np.repeat(p[None], len(a), 0),
                                        a, b, c).min()) for p in points])
    got = MeshSdfSource(mesh)._bvh.closest_distance(points)
    np.testing.assert_array_equal(got, expect)


# ---------------------------------------------------------------------------
# Mesh utilities and OBJ files


def test_triangle_mesh_drops_degenerate_triangles():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    tris = np.array([[0, 1, 2], [0, 1, 1], [2, 2, 2]])
    m = TriangleMesh(verts, tris)
    assert m.num_triangles == 1


def test_triangle_mesh_validates_indices():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    with pytest.raises(ValidationError):
        TriangleMesh(verts, np.array([[0, 1, 3]]))
    with pytest.raises(ValidationError):
        TriangleMesh(np.array([[0.0, np.inf, 0.0]]), np.zeros((0, 3), dtype=int))


def test_normalize_mesh_centers_and_scales():
    verts = np.array([[1.0, 2.0, 3.0], [5.0, 2.5, 3.5], [3.0, 4.0, 3.2]])
    m = normalize_mesh(TriangleMesh(verts, np.array([[0, 1, 2]])))
    lo, hi = m.vertices.min(axis=0), m.vertices.max(axis=0)
    np.testing.assert_allclose((lo + hi) / 2, 0.0, atol=1e-12)
    assert (hi - lo).max() == pytest.approx(NORMALIZED_EXTENT, abs=1e-12)
    # x extent (4.0) was largest; uniform scale preserves aspect ratios
    assert (hi - lo)[1] == pytest.approx(NORMALIZED_EXTENT * 2.0 / 4.0)


def test_normalize_mesh_rejects_degenerate():
    with pytest.raises(ValidationError):
        normalize_mesh(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)))
    one = TriangleMesh(np.array([[1.0, 1.0, 1.0]]), np.zeros((0, 3), dtype=int))
    with pytest.raises(ValidationError):
        normalize_mesh(one)


def test_obj_round_trip(tmp_path, unit_icosphere):
    path = tmp_path / "m.obj"
    write_obj(path, unit_icosphere)
    back = read_obj(path)
    assert back.num_triangles == unit_icosphere.num_triangles
    np.testing.assert_allclose(back.vertices, unit_icosphere.vertices,
                               rtol=1e-8, atol=1e-12)
    np.testing.assert_array_equal(back.triangles, unit_icosphere.triangles)


def test_obj_parses_quads_and_negative_indices(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("""# comment
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
f 1 2 3 4
f -4 -3 -2
""")
    m = read_obj(path)
    assert m.num_vertices == 4
    # the quad fans into two triangles, plus the negative-index face
    np.testing.assert_array_equal(m.triangles,
                                  [[0, 1, 2], [0, 2, 3], [0, 1, 2]])


def test_obj_parses_slash_attributes(tmp_path):
    path = tmp_path / "attrs.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/2/3 2/4/5 3//6\n")
    m = read_obj(path)
    np.testing.assert_array_equal(m.triangles, [[0, 1, 2]])


def test_obj_errors(tmp_path):
    empty = tmp_path / "empty.obj"
    empty.write_text("# nothing\n")
    with pytest.raises(ValidationError):
        read_obj(empty)
    short = tmp_path / "short.obj"
    short.write_text("v 0 0\n")
    with pytest.raises(ValidationError):
        read_obj(short)
    thin = tmp_path / "thin.obj"
    thin.write_text("v 0 0 0\nv 1 0 0\nf 1 2\n")
    with pytest.raises(ValidationError):
        read_obj(thin)


# ---------------------------------------------------------------------------
# Scene JSON


def test_scene_from_dict_matches_manual_composition():
    node = {
        "kind": "subtract",
        "a": {"kind": "union", "children": [
            {"kind": "sphere", "center": [0.2, 0, 0], "radius": 0.5},
            {"kind": "box", "center": [-0.2, 0, 0], "half_extents": [0.4, 0.3, 0.5]},
        ]},
        "b": {"kind": "capsule", "a": [0, 0, -1], "b": [0, 0, 1], "radius": 0.2},
    }
    src = scene_from_dict(node)
    manual = SubtractSource(
        UnionSource((SphereSource((0.2, 0, 0), 0.5),
                     BoxSource((-0.2, 0, 0), (0.4, 0.3, 0.5)))),
        CapsuleSource((0, 0, -1), (0, 0, 1), 0.2))
    pts = _random_points(17)
    np.testing.assert_array_equal(src.distance(pts), manual.distance(pts))


def test_scene_from_dict_errors():
    with pytest.raises(ValidationError):
        scene_from_dict({"radius": 1.0})
    with pytest.raises(ValidationError):
        scene_from_dict({"kind": "cone", "center": [0, 0, 0]})
    with pytest.raises(ValidationError):
        scene_from_dict({"kind": "sphere", "center": [0, 0, 0]})  # no radius
    with pytest.raises(ValidationError):
        scene_from_dict({"kind": "torus", "center": [0, 0, 0],
                         "major_radius": "wide", "minor_radius": 0.1})
