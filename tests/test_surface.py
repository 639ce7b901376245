"""Isosurface extraction: geometry, topology, and table consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from waveshape.errors import ValidationError
from waveshape.grid import Volume3
from waveshape.surface import marching_cubes
from waveshape.tsdf import SphereSource, TorusSource, UnionSource, sample_tsdf

from waveshape.surface import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE


# ---------------------------------------------------------------------------
# Table structure


def test_tri_table_shape_and_trivial_cases():
    assert len(TRI_TABLE) == 256
    assert TRI_TABLE[0] == () and TRI_TABLE[255] == ()
    for cfg in range(256):
        assert len(TRI_TABLE[cfg]) % 3 == 0


def test_single_corner_configs_are_one_triangle():
    for corner in range(8):
        assert len(TRI_TABLE[1 << corner]) == 3


def test_table_edges_are_cut_edges():
    # every referenced edge must join an inside corner to an outside corner
    for cfg in range(256):
        for e in TRI_TABLE[cfg]:
            a, b = EDGE_CORNERS[e]
            ina, inb = bool(cfg >> a & 1), bool(cfg >> b & 1)
            assert ina != inb, f"config {cfg} uses uncut edge {e}"


def test_table_triangles_consistently_oriented():
    # within one cube, adjacent triangles must traverse a shared edge in
    # opposite directions (orientable surface patch, no duplicated face)
    for cfg in range(256):
        edges = TRI_TABLE[cfg]
        directed = set()
        for t in range(0, len(edges), 3):
            tri = edges[t:t + 3]
            for u, v in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                assert (u, v) not in directed, f"config {cfg} repeats edge {(u, v)}"
                directed.add((u, v))


def _lattice_edge(cube_offset, local_edge):
    """Grid-global key of a cube edge: low corner coordinates plus run axis."""
    pa = np.asarray(cube_offset) + CORNER_OFFSETS[EDGE_CORNERS[local_edge, 0]]
    pb = np.asarray(cube_offset) + CORNER_OFFSETS[EDGE_CORNERS[local_edge, 1]]
    lo = np.minimum(pa, pb)
    return (*lo.tolist(), int(np.argmax(pa != pb)))


def test_neighboring_cubes_agree_on_shared_face_edges():
    # Exhaustive stitching contract: for every sign assignment of the 12
    # corners of two face-adjacent cubes, the triangle edges each cube puts
    # on the shared face must appear exactly once per cube and match the
    # neighbor's set.  One triangle edge per side per face chord is what
    # makes interior surfaces close up with every mesh edge used twice;
    # a duplicate here is a non-manifold pinch, a set mismatch is a crack.
    for axis in range(3):
        off_b = [0, 0, 0]
        off_b[axis] = 1
        corners_a = [tuple(CORNER_OFFSETS[c]) for c in range(8)]
        corners_b = [tuple(np.asarray(off_b) + CORNER_OFFSETS[c]) for c in range(8)]
        points = sorted(set(corners_a) | set(corners_b))
        assert len(points) == 12
        for bits in range(1 << 12):
            inside = {p: (bits >> i) & 1 for i, p in enumerate(points)}
            sides = []
            for corners, off in ((corners_a, (0, 0, 0)), (corners_b, off_b)):
                cfg = sum(inside[corners[c]] << c for c in range(8))
                on_face = []
                tris = TRI_TABLE[cfg]
                for t in range(0, len(tris), 3):
                    tri = [_lattice_edge(off, e) for e in tris[t:t + 3]]
                    for u, v in ((0, 1), (1, 2), (2, 0)):
                        if all(g[axis] == 1 and g[3] != axis for g in (tri[u], tri[v])):
                            on_face.append(tuple(sorted((tri[u], tri[v]))))
                assert len(on_face) == len(set(on_face)), \
                    f"axis {axis} bits {bits}: duplicated edge on shared face"
                sides.append(set(on_face))
            assert sides[0] == sides[1], \
                f"axis {axis} bits {bits}: shared-face edges disagree"


# ---------------------------------------------------------------------------
# Geometry on analytic fields


def test_sphere_surface_radius_and_topology():
    vol = sample_tsdf(SphereSource((0.0, 0.0, 0.0), 0.5), 32)
    mesh = marching_cubes(vol)
    assert mesh.num_triangles > 0
    radii = np.linalg.norm(mesh.vertices, axis=1)
    spacing = vol.spacing[0]
    assert np.abs(radii - 0.5).max() <= 1.5 * spacing
    assert helpers.boundary_edge_count(mesh.triangles) == 0
    assert helpers.euler_characteristic(mesh.vertices, mesh.triangles) == 2


def test_torus_euler_characteristic_zero():
    vol = sample_tsdf(TorusSource((0.0, 0.0, 0.0), 0.55, 0.2), 48)
    mesh = marching_cubes(vol)
    assert helpers.boundary_edge_count(mesh.triangles) == 0
    assert helpers.euler_characteristic(mesh.vertices, mesh.triangles) == 0


def test_plane_field_vertices_exact_and_oriented():
    n = 8
    ax = np.arange(n, dtype=np.float64)
    f = np.broadcast_to(ax[:, None, None] - 3.4, (n, n, n))
    mesh = marching_cubes(Volume3(f.copy()))
    assert mesh.num_triangles > 0
    assert np.abs(mesh.vertices[:, 0] - 3.4).max() <= 1e-12
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    normals = np.cross(b - a, c - a)
    assert np.all(normals[:, 0] > 0)  # normals face the positive-value side


def test_uniform_fields_give_empty_mesh():
    pos = Volume3(np.full((8, 8, 8), 0.1))
    assert marching_cubes(pos).num_triangles == 0
    assert marching_cubes(pos).num_vertices == 0
    neg = Volume3(np.full((8, 8, 8), -0.1))
    assert marching_cubes(neg).num_triangles == 0


def test_iso_shift_identity():
    gen = np.random.default_rng(3)
    vals = gen.standard_normal((6, 6, 6))
    a = marching_cubes(Volume3(vals), iso=0.3)
    b = marching_cubes(Volume3(vals - 0.3), iso=0.0)
    np.testing.assert_allclose(a.vertices, b.vertices, atol=1e-12)
    np.testing.assert_array_equal(a.triangles, b.triangles)


def test_output_respects_origin_and_spacing():
    vol = sample_tsdf(SphereSource((0.0, 0.0, 0.0), 0.5), 16)
    shifted = Volume3(vol.values, origin=(5.0, 5.0, 5.0), spacing=vol.spacing)
    a = marching_cubes(vol)
    b = marching_cubes(shifted)
    delta = np.array(shifted.origin) - np.array(vol.origin)
    np.testing.assert_allclose(b.vertices, a.vertices + delta, atol=1e-12)


def test_determinism_bit_exact():
    vol = sample_tsdf(SphereSource((0.1, -0.05, 0.0), 0.45), 20)
    a, b = marching_cubes(vol), marching_cubes(vol)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    np.testing.assert_array_equal(a.triangles, b.triangles)


def test_rejects_degenerate_grid():
    with pytest.raises(ValidationError):
        marching_cubes(Volume3(np.zeros((1, 4, 4))))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_random_fields_extract_closed_surfaces(seed):
    # a positive border keeps the surface interior, where it must be closed
    # regardless of which ambiguous cube configurations are hit
    gen = np.random.default_rng(seed)
    vals = np.pad(gen.standard_normal((4, 4, 4)), 1, constant_values=1.0)
    mesh = marching_cubes(Volume3(vals))
    if mesh.num_triangles == 0:
        return
    assert np.all(np.isfinite(mesh.vertices))
    assert mesh.vertices.min() >= 0.0 and mesh.vertices.max() <= 5.0
    assert helpers.boundary_edge_count(mesh.triangles) == 0


def test_interior_surface_is_edge_manifold_regression():
    # this field once produced two edges shared by four triangles: both
    # cubes flanking an ambiguous face picked the same face-coplanar fan
    # diagonal, welding their patches into a pinch
    gen = np.random.default_rng(33554432)
    vals = np.pad(gen.standard_normal((4, 4, 4)), 1, constant_values=1.0)
    mesh = marching_cubes(Volume3(vals))
    assert mesh.num_triangles > 0
    counts = {}
    for a, b, c in mesh.triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            counts[key] = counts.get(key, 0) + 1
    assert set(counts.values()) == {2}


def test_surface_meeting_grid_boundary_opens_only_there():
    # without padding the sheet may end at the volume border; every
    # once-used edge must then lie in a boundary plane of the grid
    gen = np.random.default_rng(2024)
    vals = gen.standard_normal((4, 4, 4))
    mesh = marching_cubes(Volume3(vals))
    counts = {}
    for a, b, c in mesh.triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            counts[key] = counts.get(key, 0) + 1
    open_edges = [e for e, c in counts.items() if c == 1]
    assert open_edges, "fixture should produce a boundary-crossing surface"
    for u, v in open_edges:
        pu, pv = mesh.vertices[u], mesh.vertices[v]
        on_plane = any(
            abs(pu[ax] - lim) <= 1e-12 and abs(pv[ax] - lim) <= 1e-12
            for ax in range(3) for lim in (0.0, 3.0))
        assert on_plane, f"open edge {(u, v)} is interior"


# ---------------------------------------------------------------------------
# Components


@pytest.fixture(scope="module")
def two_spheres_mesh():
    big = SphereSource((-0.45, 0.0, 0.0), 0.4)
    small = SphereSource((0.55, 0.0, 0.0), 0.18)
    vol = sample_tsdf(UnionSource((big, small)), 48)
    return marching_cubes(vol)


def test_component_count(two_spheres_mesh):
    assert helpers.component_count(two_spheres_mesh.triangles) == 2
