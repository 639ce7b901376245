"""Truncated signed distance fields from analytic primitives and meshes.

Values are clamped to [-TRUNCATION, +TRUNCATION] with negative inside.
Grids span [-1, +1]^3 at voxel centers while shapes are normalized to fit
[-0.9, +0.9]^3, so border voxels sit at the clamp value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .errors import ValidationError
from .formats import read_json
from .grid import Volume3

TRUNCATION = 0.1
NORMALIZED_EXTENT = 1.8  # largest bounding-box edge after normalize_mesh


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Indexed triangle soup; degenerate (zero-area) triangles are dropped."""

    vertices: np.ndarray  # (V, 3) float64
    triangles: np.ndarray  # (T, 3) int64

    def __post_init__(self):
        verts = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        tris = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValidationError("vertices must be (V, 3)")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValidationError("triangles must be (T, 3)")
        if not np.all(np.isfinite(verts)):
            raise ValidationError("non-finite vertex coordinates")
        if len(tris) and (tris.min() < 0 or tris.max() >= len(verts)):
            raise ValidationError("triangle index out of range")
        if len(tris):
            a, b, c = (verts[tris[:, i]] for i in range(3))
            area2 = np.linalg.norm(np.cross(b - a, c - a), axis=1)
            tris = tris[area2 > 0.0]
        verts.setflags(write=False)
        tris.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)


def normalize_mesh(m: TriangleMesh) -> TriangleMesh:
    """Center the bounding box at the origin and scale the largest extent
    to NORMALIZED_EXTENT (uniform scale)."""
    if m.num_vertices == 0:
        raise ValidationError("cannot normalize an empty mesh")
    lo = m.vertices.min(axis=0)
    hi = m.vertices.max(axis=0)
    center = (lo + hi) / 2.0
    extent = float((hi - lo).max())
    if extent == 0.0:
        raise ValidationError("mesh has zero extent")
    scale = NORMALIZED_EXTENT / extent
    return TriangleMesh((m.vertices - center) * scale, m.triangles)


# ---------------------------------------------------------------------------
# Signed-distance sources


class SdfSource:
    """Signed distance evaluated on (N, 3) point arrays; negative inside."""

    def distance(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class SphereSource(SdfSource):
    center: tuple
    radius: float

    def distance(self, points):
        p = np.asarray(points, dtype=np.float64) - np.asarray(self.center)
        return np.linalg.norm(p, axis=-1) - self.radius


@dataclass(frozen=True)
class BoxSource(SdfSource):
    center: tuple
    half_extents: tuple

    def distance(self, points):
        p = np.abs(np.asarray(points, dtype=np.float64) - np.asarray(self.center))
        q = p - np.asarray(self.half_extents)
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(q.max(axis=-1), 0.0)
        return outside + inside


@dataclass(frozen=True)
class TorusSource(SdfSource):
    """Torus with its symmetry axis along z through `center`."""

    center: tuple
    major_radius: float
    minor_radius: float

    def distance(self, points):
        p = np.asarray(points, dtype=np.float64) - np.asarray(self.center)
        ring = np.hypot(p[..., 0], p[..., 1]) - self.major_radius
        return np.hypot(ring, p[..., 2]) - self.minor_radius


@dataclass(frozen=True)
class CapsuleSource(SdfSource):
    point_a: tuple
    point_b: tuple
    radius: float

    def distance(self, points):
        p = np.asarray(points, dtype=np.float64)
        a = np.asarray(self.point_a, dtype=np.float64)
        ab = np.asarray(self.point_b, dtype=np.float64) - a
        denom = float(ab @ ab)
        if denom == 0.0:
            return np.linalg.norm(p - a, axis=-1) - self.radius
        t = np.clip(((p - a) @ ab) / denom, 0.0, 1.0)
        closest = a + t[..., None] * ab
        return np.linalg.norm(p - closest, axis=-1) - self.radius


@dataclass(frozen=True)
class UnionSource(SdfSource):
    """min of children; a lower-bound approximation inside overlaps."""

    children: tuple

    def distance(self, points):
        return np.minimum.reduce([c.distance(points) for c in self.children])


@dataclass(frozen=True)
class IntersectSource(SdfSource):
    """max of children; a lower-bound approximation."""

    children: tuple

    def distance(self, points):
        return np.maximum.reduce([c.distance(points) for c in self.children])


@dataclass(frozen=True)
class SubtractSource(SdfSource):
    """max(a, -b); a lower-bound approximation."""

    source_a: SdfSource
    source_b: SdfSource

    def distance(self, points):
        return np.maximum(self.source_a.distance(points),
                          -self.source_b.distance(points))


# ---------------------------------------------------------------------------
# Mesh-backed source: BVH closest-triangle distance + ray-parity sign


class _Bvh:
    """Static median-split BVH over triangles; array-of-nodes layout."""

    LEAF_SIZE = 4

    def __init__(self, verts: np.ndarray, tris: np.ndarray):
        self.tri_a = verts[tris[:, 0]]
        self.tri_b = verts[tris[:, 1]]
        self.tri_c = verts[tris[:, 2]]
        self.coord_max = float(np.abs(verts).max())
        t_lo = np.minimum(np.minimum(self.tri_a, self.tri_b), self.tri_c)
        t_hi = np.maximum(np.maximum(self.tri_a, self.tri_b), self.tri_c)
        cent = (t_lo + t_hi) / 2.0
        order = np.arange(len(tris))

        boxes_lo, boxes_hi = [], []
        lefts, rights, starts, counts = [], [], [], []
        perm = []

        def build(idx: np.ndarray) -> int:
            node = len(boxes_lo)
            boxes_lo.append(t_lo[idx].min(axis=0))
            boxes_hi.append(t_hi[idx].max(axis=0))
            lefts.append(-1)
            rights.append(-1)
            if len(idx) <= self.LEAF_SIZE:
                starts.append(len(perm))
                counts.append(len(idx))
                perm.extend(idx.tolist())
                return node
            starts.append(-1)
            counts.append(0)
            axis = int(np.argmax(boxes_hi[node] - boxes_lo[node]))
            half = len(idx) // 2
            split = idx[np.argpartition(cent[idx, axis], half)]
            lefts[node] = build(split[:half])
            rights[node] = build(split[half:])
            return node

        build(order)
        self.box_lo = np.array(boxes_lo)
        self.box_hi = np.array(boxes_hi)
        self.left = np.array(lefts)
        self.right = np.array(rights)
        self.start = np.array(starts)
        self.count = np.array(counts)
        self.perm = np.array(perm, dtype=np.int64)
        # largest circumscribing radius of a triangle around its bbox center
        self.max_tri_radius = float(max(
            np.linalg.norm(v - cent, axis=1).max()
            for v in (self.tri_a, self.tri_b, self.tri_c)))
        self._kd = cKDTree(cent)

    def nearest_centroid(self, points: np.ndarray):
        """(distance, triangle index) of the nearest triangle centroid."""
        return self._kd.query(points)

    def closest_distance(self, points: np.ndarray, chunk: int = 8192) -> np.ndarray:
        """Exact unsigned distance from each point to the nearest triangle."""
        out = np.empty(len(points))
        for s in range(0, len(points), chunk):
            out[s:s + chunk] = self._closest_chunk(points[s:s + chunk])
        return out

    def _closest_chunk(self, points: np.ndarray) -> np.ndarray:
        n = len(points)
        # the nearest-centroid triangle's exact distance bounds the minimum
        _, seed = self._kd.query(points)
        best = _point_triangle_dist2(points, self.tri_a[seed], self.tri_b[seed],
                                     self.tri_c[seed])
        # A computed distance can sit a few coordinate ulps below its box's
        # bound; cutting only past that keeps every near-tie in the search.
        slack = 64 * np.finfo(np.float64).eps * (self.coord_max + np.abs(points).max())
        pair_p = np.arange(n)
        pair_n = np.zeros(n, dtype=np.int64)  # all start at the root
        while len(pair_p):
            lo = self.box_lo[pair_n]
            hi = self.box_hi[pair_n]
            gap = np.maximum(np.maximum(lo - points[pair_p], points[pair_p] - hi), 0.0)
            lb = np.einsum("ij,ij->i", gap, gap)
            keep = lb < (np.sqrt(best[pair_p]) + slack) ** 2
            pair_p, pair_n = pair_p[keep], pair_n[keep]
            if not len(pair_p):
                break
            is_leaf = self.left[pair_n] < 0
            lp, ln = pair_p[is_leaf], pair_n[is_leaf]
            if len(lp):
                owner, slot = _ragged(self.count[ln])
                flat_t = self.perm[self.start[ln][owner] + slot]
                flat_p = lp[owner]
                d2 = _point_triangle_dist2(
                    points[flat_p], self.tri_a[flat_t], self.tri_b[flat_t], self.tri_c[flat_t]
                )
                np.minimum.at(best, flat_p, d2)
            ip, inn = pair_p[~is_leaf], pair_n[~is_leaf]
            pair_p = np.concatenate([ip, ip])
            pair_n = np.concatenate([self.left[inn], self.right[inn]])
        return np.sqrt(best)


def _point_triangle_dist2(p, a, b, c):
    """Squared distance point-to-triangle, vectorized over rows.

    The closest point is either the interior orthogonal projection (when
    its barycentrics are nonnegative) or a point on one of the three edges.
    """
    candidates = [_point_segment_dist2(p, a, b),
                  _point_segment_dist2(p, b, c),
                  _point_segment_dist2(p, c, a)]
    ab = b - a
    ac = c - a
    nrm = np.cross(ab, ac)
    nn = np.einsum("ij,ij->i", nrm, nrm)
    ap = p - a
    t = np.einsum("ij,ij->i", ap, nrm)
    with np.errstate(divide="ignore", invalid="ignore"):
        proj = p - (t / np.where(nn > 0, nn, 1.0))[:, None] * nrm
        # barycentric test of the projection
        v0, v1, v2 = ac, ab, proj - a
        d00 = np.einsum("ij,ij->i", v0, v0)
        d01 = np.einsum("ij,ij->i", v0, v1)
        d11 = np.einsum("ij,ij->i", v1, v1)
        d20 = np.einsum("ij,ij->i", v2, v0)
        d21 = np.einsum("ij,ij->i", v2, v1)
        denom = d00 * d11 - d01 * d01
        denom_safe = np.where(np.abs(denom) > 0, denom, 1.0)
        u = (d11 * d20 - d01 * d21) / denom_safe
        v = (d00 * d21 - d01 * d20) / denom_safe
    inside = (np.abs(denom) > 0) & (nn > 0) & (u >= 0) & (v >= 0) & (u + v <= 1)
    interior = t * t / np.where(nn > 0, nn, 1.0)
    edge_min = np.minimum.reduce(candidates)
    return np.where(inside, np.minimum(interior, edge_min), edge_min)


def _point_segment_dist2(p, a, b):
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.einsum("ij,ij->i", p - a, ab) / np.where(denom > 0, denom, 1.0)
    t = np.clip(np.where(denom > 0, t, 0.0), 0.0, 1.0)
    closest = a + t[:, None] * ab
    d = p - closest
    return np.einsum("ij,ij->i", d, d)


_PARITY_EPS = 1e-12
_PERTURB = 1e-7
_PARITY_RETRIES = 3


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, rank) of each slot when item i owns counts[i] consecutive slots."""
    owner = np.repeat(np.arange(len(counts)), counts)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, rank


def _box_pairs(lo: np.ndarray, hi: np.ndarray, pts: np.ndarray):
    """(point, box) index pairs with the 2D point inside the closed box
    [lo, hi].  Points are binned on a uniform grid of about one point per
    cell, so each box visits only the cells it overlaps."""
    if not len(pts):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    g = max(int(math.sqrt(len(pts))), 1)
    base = pts.min(axis=0)
    span = pts.max(axis=0) - base
    width = np.where(span > 0, span / g, 1.0)

    def cell(x):
        return np.clip(np.floor((x - base) / width), 0, g - 1).astype(np.int64)

    c0 = cell(lo)
    nc = cell(hi) - c0 + 1
    box, rank = _ragged(nc[:, 0] * nc[:, 1])
    key = (c0[box, 0] + rank // nc[box, 1]) * g + c0[box, 1] + rank % nc[box, 1]
    pc = cell(pts) @ np.array([g, 1])
    order = np.argsort(pc, kind="stable")
    first = np.concatenate([[0], np.bincount(pc, minlength=g * g).cumsum()])
    slot, rank = _ragged(first[key + 1] - first[key])
    point, box = order[first[key][slot] + rank], box[slot]
    inside = np.all((pts[point] >= lo[box]) & (pts[point] <= hi[box]), axis=1)
    return point[inside], box[inside]


def _crossings(tv, denom, ray, tri, pu, pv):
    """Crossing coordinate, hit mask and boundary-graze mask of each
    (ray, triangle) pair.  Rays run along the last ("w") coordinate of the
    permuted triangle vertices tv (T, 3, 3) through (pu, pv)."""
    (au, av, aw), (bu, bv, bw), (cu, cv, cw) = tv[tri].transpose(1, 2, 0)
    qu, qv = pu[ray], pv[ray]
    wa = (bu - qu) * (cv - qv) - (bv - qv) * (cu - qu)
    wb = (cu - qu) * (av - qv) - (cv - qv) * (au - qu)
    wc = (au - qu) * (bv - qv) - (av - qv) * (bu - qu)
    d = denom[tri]
    ba, bb, bc = wa / d, wb / d, wc / d
    tol = _PARITY_EPS / np.abs(d)
    inside = (ba > tol) & (bb > tol) & (bc > tol)
    graze = (
        (np.abs(ba) <= tol) | (np.abs(bb) <= tol) | (np.abs(bc) <= tol)
    ) & (ba >= -tol) & (bb >= -tol) & (bc >= -tol)
    return ba * aw + bb * bw + bc * cw, inside, graze


def _ray_crossings(mesh: TriangleMesh, uv: np.ndarray, axis: int):
    """Crossings of the +axis rays through the points uv (N, 2) of the other
    two coordinates, in axis order: (ray, w) of each crossing, and the mask
    of sign-uncertain rays.

    A ray that grazes an edge or vertex is retried up to _PARITY_RETRIES
    times, shifted by k * _PERTURB; one still grazing is uncertain and
    reports no crossings, so it counts as outside.  A (ray, triangle) pair
    is evaluated only with the ray inside the triangle's 2D box, grown by
    the largest shift and by how far a grazing ray can lie outside it: two
    barycentrics down to -tol, tol = _PARITY_EPS / |denom|, plus rounding.
    Near-flat triangles (|denom| <= _PARITY_EPS) are never hit.
    """
    other = [ax for ax in range(3) if ax != axis]
    tv = mesh.vertices[mesh.triangles][:, :, other + [axis]]
    (au, av), (bu, bv), (cu, cv) = tv[:, :, :2].transpose(1, 2, 0)
    denom = (bu - au) * (cv - av) - (bv - av) * (cu - au)
    hittable = np.abs(denom) > _PARITY_EPS
    tv, denom = tv[hittable], denom[hittable]
    lo, hi = tv[:, :, :2].min(axis=1), tv[:, :, :2].max(axis=1)
    # edge-function rounding: a few ulps of products of coordinates
    size = 1.0 + max(np.abs(tv[:, :, :2]).max(initial=0.0), np.abs(uv).max(initial=0.0))
    reach = (_PARITY_EPS + 64 * np.finfo(np.float64).eps * size ** 2) / np.abs(denom)
    margin = 2.0 * reach[:, None] * (hi - lo) + 3 * _PERTURB
    ray, tri = _box_pairs(lo - margin, hi + margin, uv)

    qu, qv = uv.T.copy()
    pending = np.ones(len(qu), dtype=bool)
    hit_ray, hit_w = [], []
    for attempt in range(_PARITY_RETRIES + 1):
        live = pending[ray]
        ray, tri = ray[live], tri[live]
        w, inside, graze = _crossings(tv, denom, ray, tri, qu, qv)
        pending = np.zeros(len(qu), dtype=bool)
        pending[ray[graze]] = True
        ok = inside & ~pending[ray]
        hit_ray.append(ray[ok])
        hit_w.append(w[ok])
        if attempt == _PARITY_RETRIES or not pending.any():
            break
        delta = _PERTURB * (attempt + 1)
        qu[pending] = uv[pending, 0] + (delta if attempt % 2 == 0 else -delta)
        qv[pending] = uv[pending, 1] + delta
    return np.concatenate(hit_ray), np.concatenate(hit_w), pending


def _parity_along_axis(mesh: TriangleMesh, points: np.ndarray,
                       axis: int) -> tuple[np.ndarray, np.ndarray]:
    """(odd_parity, uncertain) for +axis rays from each point."""
    ray, w, uncertain = _ray_crossings(mesh, np.delete(points, axis, axis=1), axis)
    ahead = w > points[ray, axis]
    odd = np.bincount(ray[ahead], minlength=len(points)) % 2 == 1
    return odd, uncertain


def _grid_parity(mesh: TriangleMesh, coords: np.ndarray, axis: int) -> np.ndarray:
    """Odd-parity grid for +axis rays from every voxel center.

    All voxels of a grid row share a ray line, so crossings are found once
    per row; a crossing at w lies ahead of the row's voxels with coords < w.
    """
    n = len(coords)
    rows = np.stack(np.meshgrid(coords, coords, indexing="ij"), axis=-1).reshape(-1, 2)
    ray, w, _ = _ray_crossings(mesh, rows, axis)
    passed = np.searchsorted(coords, w)  # voxels 0..passed-1 have the crossing ahead
    hist = np.bincount(ray * (n + 1) + passed, minlength=n * n * (n + 1))
    ahead = np.cumsum(hist.reshape(n * n, n + 1)[:, ::-1], axis=1)[:, -2::-1]
    cube = (ahead % 2 == 1).reshape(n, n, n)  # dims ordered (other0, other1, axis)
    return np.moveaxis(cube, 2, axis)


class MeshSdfSource(SdfSource):
    """Exact distance to the nearest triangle; sign by majority vote of
    ray-crossing parities along +x, +y, +z (inside = odd)."""

    def __init__(self, mesh: TriangleMesh):
        if mesh.num_triangles == 0:
            raise ValidationError("mesh has no triangles")
        self.mesh = mesh
        self._bvh = _Bvh(mesh.vertices, mesh.triangles)

    def distance(self, points):
        p = np.asarray(points, dtype=np.float64)
        squeeze = p.ndim == 1
        p = np.atleast_2d(p)
        d = self._bvh.closest_distance(p)
        votes = np.zeros(len(p), dtype=np.int64)
        for axis in range(3):
            odd, uncertain = _parity_along_axis(self.mesh, p, axis)
            votes += (odd & ~uncertain).astype(np.int64)
        signed = np.where(votes >= 2, -d, d)
        return signed[0] if squeeze else signed

    def _signed_on_grid(self, coords: np.ndarray) -> np.ndarray:
        """Clamp-aware TSDF magnitudes: voxels provably outside the
        truncation band keep a surrogate magnitude that clamps to the band
        edge, so the exact search runs only near the surface."""
        n = len(coords)
        X, Y, Z = np.meshgrid(coords, coords, coords, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
        seed_d, _ = self._bvh.nearest_centroid(pts)
        lower = seed_d - self._bvh.max_tri_radius  # d(p, any tri) >= this
        near = lower <= TRUNCATION
        d = np.full(len(pts), 10.0 * TRUNCATION)
        d[near] = self._bvh.closest_distance(pts[near])
        d = d.reshape(n, n, n)
        votes = np.zeros((n, n, n), dtype=np.int64)
        for axis in range(3):
            votes += _grid_parity(self.mesh, coords, axis)
        return np.where(votes >= 2, -d, d)


# ---------------------------------------------------------------------------
# Sampling


def grid_axis(n: int) -> np.ndarray:
    """Voxel-center coordinates: n cells uniformly covering [-1, +1]."""
    return -1.0 + (np.arange(n) + 0.5) * (2.0 / n)


def sample_tsdf(s: SdfSource, n: int) -> Volume3:
    """Sample the clamped signed distance on the n^3 voxel-center grid."""
    if n < 8:
        raise ValidationError("resolution must be >= 8")
    ax = grid_axis(n)
    if isinstance(s, MeshSdfSource):
        vals = s._signed_on_grid(ax)
    else:
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
        vals = np.asarray(s.distance(pts), dtype=np.float64).reshape(n, n, n)
    vals = np.clip(vals, -TRUNCATION, TRUNCATION)
    spacing = 2.0 / n
    first_center = -1.0 + 0.5 * spacing
    return Volume3(vals, (first_center,) * 3, (spacing,) * 3)


# ---------------------------------------------------------------------------
# OBJ mesh files (v/f records, 1-based indices, fan triangulation)


def read_obj(path) -> TriangleMesh:
    verts = []
    tris = []
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) < 4:
                raise ValidationError(f"{path}:{line_no}: malformed vertex")
            try:
                verts.append([float(x) for x in parts[1:4]])
            except ValueError as exc:
                raise ValidationError(f"{path}:{line_no}: {exc}") from exc
        elif parts[0] == "f":
            try:
                heads = [int(token.split("/")[0]) for token in parts[1:]]
            except ValueError as exc:
                raise ValidationError(f"{path}:{line_no}: {exc}") from exc
            idx = []
            for i in heads:
                if i < 0:
                    i = len(verts) + 1 + i
                idx.append(i - 1)
            if len(idx) < 3:
                raise ValidationError(f"{path}:{line_no}: face needs >= 3 vertices")
            for k in range(1, len(idx) - 1):
                tris.append([idx[0], idx[k], idx[k + 1]])
        # all other records (vn, vt, usemtl, ...) are ignored
    if not verts:
        raise ValidationError(f"{path}: no vertices")
    return TriangleMesh(np.array(verts, dtype=np.float64),
                        np.array(tris, dtype=np.int64).reshape(-1, 3))


def write_obj(path, m: TriangleMesh) -> None:
    lines = []
    for v in m.vertices:
        lines.append(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}")
    for t in m.triangles:
        lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Scene JSON


def scene_from_dict(node: dict) -> SdfSource:
    try:
        kind = node["kind"]
    except (TypeError, KeyError):
        raise ValidationError("scene node missing 'kind'") from None
    try:
        if kind == "sphere":
            return SphereSource(tuple(node["center"]), float(node["radius"]))
        if kind == "box":
            return BoxSource(tuple(node["center"]), tuple(node["half_extents"]))
        if kind == "torus":
            return TorusSource(tuple(node["center"]), float(node["major_radius"]),
                               float(node["minor_radius"]))
        if kind == "capsule":
            return CapsuleSource(tuple(node["a"]), tuple(node["b"]),
                                 float(node["radius"]))
        if kind == "union":
            return UnionSource(tuple(scene_from_dict(c) for c in node["children"]))
        if kind == "intersect":
            return IntersectSource(tuple(scene_from_dict(c) for c in node["children"]))
        if kind == "subtract":
            return SubtractSource(scene_from_dict(node["a"]), scene_from_dict(node["b"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"scene node {kind!r}: missing/invalid field ({exc})") from exc
    raise ValidationError(f"unknown scene node kind {kind!r}")


def load_scene(path) -> SdfSource:
    return scene_from_dict(read_json(path))


# ---------------------------------------------------------------------------
# Simple generated meshes (test/demo inputs)


def icosphere(subdivisions: int = 3, radius: float = 0.5) -> TriangleMesh:
    """Geodesic sphere by repeated midpoint subdivision of an icosahedron."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = np.array([
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ], dtype=np.float64)
    verts = [tuple(v / np.linalg.norm(v)) for v in raw]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i: int, j: int) -> int:
            key = (min(i, j), max(i, j))
            if key not in cache:
                v = np.asarray(verts[i]) + np.asarray(verts[j])
                v = v / np.linalg.norm(v)
                cache[key] = len(verts)
                verts.append(tuple(v))
            return cache[key]

        nxt = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            nxt += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = nxt
    v = np.array(verts, dtype=np.float64) * radius
    return TriangleMesh(v, np.array(faces, dtype=np.int64))
