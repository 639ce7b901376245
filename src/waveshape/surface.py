"""Isosurface extraction from scalar volumes."""

from __future__ import annotations

import numpy as np

from ._mc_tables import CORNER_OFFSETS, EDGE_AXIS, EDGE_CORNERS, TRI_TABLE
from .errors import ValidationError
from .grid import Volume3
from .tsdf import TriangleMesh


def _empty_mesh() -> TriangleMesh:
    return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))


def marching_cubes(v: Volume3, iso: float = 0.0) -> TriangleMesh:
    """Extract the iso-level surface with linear edge interpolation.

    A voxel is inside when its value < iso; triangles wind so normals
    point toward the positive side.  Cubes are processed in row-major
    order with a fixed per-case triangulation, so output is deterministic.
    """
    vals = v.values
    if min(v.dims) < 2:
        raise ValidationError("marching cubes needs at least 2 voxels per axis")
    inside = vals < iso
    nx, ny, nz = v.dims
    config = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.int64)
    for c in range(8):
        ox, oy, oz = CORNER_OFFSETS[c]
        config |= inside[ox:nx - 1 + ox, oy:ny - 1 + oy, oz:nz - 1 + oz].astype(np.int64) << c
    active = np.nonzero((config > 0) & (config < 255))
    if len(active[0]) == 0:
        return _empty_mesh()
    base = np.stack(active, axis=1)  # (M, 3) cube indices
    cfg = config[active]
    cube_lin = np.ravel_multi_index(active, config.shape)

    keys = []       # (K, 4) canonical edge key: grid index of low corner + axis
    pos = []        # (K, 3) world position
    order = []      # (K, 2) cube linear index, slot within cube
    origin = np.asarray(v.origin)
    spacing = np.asarray(v.spacing)
    for c in np.unique(cfg):
        tri_edges = TRI_TABLE[c]
        if not tri_edges:
            continue
        sel = cfg == c
        b = base[sel]
        lin = cube_lin[sel]
        for slot, e in enumerate(tri_edges):
            ca, cb = EDGE_CORNERS[e]
            ga = b + CORNER_OFFSETS[ca]
            gb = b + CORNER_OFFSETS[cb]
            va = vals[ga[:, 0], ga[:, 1], ga[:, 2]]
            vb = vals[gb[:, 0], gb[:, 1], gb[:, 2]]
            t = (iso - va) / (vb - va)
            p = origin + (ga + t[:, None] * (gb - ga)) * spacing
            keys.append(np.column_stack([ga, np.full(len(b), EDGE_AXIS[e])]))
            pos.append(p)
            order.append(np.column_stack([lin, np.full(len(b), slot)]))
    keys = np.concatenate(keys)
    pos = np.concatenate(pos)
    order = np.concatenate(order)

    uniq, first, inv = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    verts = pos[first]
    perm = np.lexsort((order[:, 1], order[:, 0]))  # cube-major, slot-minor
    tris = inv[perm].reshape(-1, 3)
    return TriangleMesh(verts, tris)

