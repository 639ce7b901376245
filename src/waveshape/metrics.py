"""Point-set and silhouette metrics for comparing shape collections,
plus nearest-shape retrieval."""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from . import rng as rng_mod
from .errors import ShapeMismatchError, ValidationError
from .tsdf import TriangleMesh, _ragged

DEFAULT_SURFACE_SAMPLES = 2048


def _points(p, name: str = "point set") -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError(f"{name} must have shape (n, 3), got {arr.shape}")
    if arr.shape[0] == 0:
        raise ValidationError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite coordinates")
    return arr


def sample_surface(m: TriangleMesh, n: int = DEFAULT_SURFACE_SAMPLES,
                   seed: int = 0) -> np.ndarray:
    """Uniform area-weighted surface samples; same seed, same points."""
    if m.num_triangles == 0:
        raise ValidationError("cannot sample an empty mesh")
    if n < 1:
        raise ValidationError("sample count must be >= 1")
    tri = m.vertices[m.triangles]
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    total = areas.sum()
    if total <= 0.0:
        raise ValidationError("mesh has zero total area")
    gen = rng_mod.stream(seed, "surface-samples")
    choice = gen.choice(len(areas), size=n, p=areas / total)
    # uniform barycentric via the square-root trick
    r1 = np.sqrt(gen.random(n))
    r2 = gen.random(n)
    w0 = 1.0 - r1
    w1 = r1 * (1.0 - r2)
    w2 = r1 * r2
    t = tri[choice]
    return w0[:, None] * t[:, 0] + w1[:, None] * t[:, 1] + w2[:, None] * t[:, 2]


def chamfer(P, Q) -> float:
    """Symmetric mean squared nearest-neighbor distance (squared-distance
    convention: the two directed means are added)."""
    P = _points(P, "P")
    Q = _points(Q, "Q")
    d_pq = cKDTree(Q).query(P)[0]
    d_qp = cKDTree(P).query(Q)[0]
    return float(np.mean(d_pq ** 2) + np.mean(d_qp ** 2))


# ---------------------------------------------------------------------------
# Earth mover's distance


def _auction_assignment(cost: np.ndarray) -> np.ndarray:
    """Deterministic epsilon-scaling forward auction for square min-cost
    assignment.  Epsilon starts at max(cost)/4 and divides by 4 each phase
    until below max(cost) * 2e-4 / n, bounding the total suboptimality by
    2e-4 * max(cost)."""
    n = cost.shape[0]
    value = cost.max() - cost  # maximize value
    vmax = value.max()
    if vmax <= 0.0:
        return np.arange(n)
    eps = vmax / 4.0
    eps_min = vmax * 2e-4 / n
    price = np.zeros(n)
    owner = np.full(n, -1)
    row_of = np.full(n, -1)
    while True:
        eps = max(eps, eps_min)
        owner[:] = -1
        row_of[:] = -1
        queue = list(range(n))
        while queue:
            i = queue.pop()
            gain = value[i] - price
            j = int(np.argmax(gain))
            best = gain[j]
            gain[j] = -np.inf
            second = gain.max()
            price[j] += best - second + eps
            prev = owner[j]
            owner[j] = i
            row_of[i] = j
            if prev >= 0:
                row_of[prev] = -1
                queue.append(prev)
        if eps <= eps_min:
            return row_of
        eps /= 4.0


def emd_approx(P, Q, method: str = "auto") -> float:
    """Mean matched Euclidean distance under a perfect matching.

    Exact Hungarian solve for n <= 512 (or method='exact'); larger sets use
    the deterministic auction approximation (method='auction')."""
    P = _points(P, "P")
    Q = _points(Q, "Q")
    if len(P) != len(Q):
        raise ShapeMismatchError(f"matching needs equal sizes, {len(P)} vs {len(Q)}")
    if method not in ("auto", "exact", "auction"):
        raise ValidationError(f"unknown method {method!r}")
    diff = P[:, None, :] - Q[None, :, :]
    cost = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    if method == "exact" or (method == "auto" and len(P) <= 512):
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].mean())
    cols = _auction_assignment(cost)
    return float(cost[np.arange(len(P)), cols].mean())


# ---------------------------------------------------------------------------
# Collection-level metrics


def set_metrics(generated, reference) -> dict:
    """COV, MMD and 1-NNA between two lists of point sets under chamfer.

    COV: fraction of reference shapes that are the nearest reference of at
    least one generated shape.  MMD: mean over reference of the distance to
    its nearest generated shape.  1-NNA: leave-one-out nearest-neighbor
    classification accuracy on the union (50% means indistinguishable).
    """
    if len(generated) == 0 or len(reference) == 0:
        raise ValidationError("set_metrics needs nonempty lists")
    pool = list(generated) + list(reference)
    full = np.full((len(pool), len(pool)), np.inf)
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            full[i, j] = full[j, i] = chamfer(pool[i], pool[j])
    cross = full[:len(generated), len(generated):]  # chamfer(generated, reference)
    nearest_ref = np.argmin(cross, axis=1)
    cov = len(set(nearest_ref.tolist())) / len(reference)
    mmd = float(cross.min(axis=0).mean())

    labels = np.array([0] * len(generated) + [1] * len(reference))
    nn = np.argmin(full, axis=1)
    acc = float(np.mean(labels[nn] == labels))
    return {"COV": cov, "MMD": mmd, "1-NNA": acc}


# ---------------------------------------------------------------------------
# Silhouette descriptor distance

_IMAGE_SIZE = 128
_ZERNIKE_MAX_ORDER = 10
_FOURIER_COUNT = 10
_ANGLE_BINS = 64
_PAIR_BLOCK = 1 << 18  # (triangle, pixel) pairs rasterized at once


def _dodecahedron_views() -> np.ndarray:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = []
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            for sz in (-1.0, 1.0):
                verts.append((sx, sy, sz))
    for sa in (-1.0, 1.0):
        for sb in (-1.0, 1.0):
            verts.append((0.0, sa / phi, sb * phi))
            verts.append((sa / phi, sb * phi, 0.0))
            verts.append((sa * phi, 0.0, sb / phi))
    arr = np.array(sorted(verts))
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


_VIEWS = _dodecahedron_views()


def _view_frame(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    up0 = np.array([0.0, 0.0, 1.0])
    if abs(direction @ up0) > 0.9:
        up0 = np.array([1.0, 0.0, 0.0])
    right = np.cross(up0, direction)
    right /= np.linalg.norm(right)
    up = np.cross(direction, right)
    return right, up


def _rasterize(points2d: np.ndarray, triangles: np.ndarray,
               size: int = _IMAGE_SIZE) -> np.ndarray:
    """Orthographic fill of 2D triangles over the [-1, 1]^2 window.

    Each triangle is tested at the pixel centers of its bounding-box window,
    grown by one pixel and clipped to the image; the (triangle, pixel) pairs
    of consecutive triangles are tested together, about _PAIR_BLOCK at once.
    """
    img = np.zeros((size, size), dtype=bool)
    px = (np.arange(size) + 0.5) / size * 2.0 - 1.0
    tri = points2d[triangles]  # (T, 3, 2)
    lo, hi = tri.min(axis=1), tri.max(axis=1)
    start = np.maximum(np.searchsorted(px, lo) - 1, 0)  # (T, 2) pixel windows
    extent = np.maximum(np.minimum(np.searchsorted(px, hi) + 1, size) - start, 0)
    count = extent[:, 0] * extent[:, 1]
    first = np.cumsum(count) - count
    cuts = np.searchsorted(first, np.arange(0, count.sum() + _PAIR_BLOCK, _PAIR_BLOCK))
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        owner, rank = _ragged(count[t0:t1])
        t = t0 + owner
        ii = start[t, 0] + rank // extent[t, 1]
        jj = start[t, 1] + rank % extent[t, 1]
        gx, gy = px[ii], px[jj]
        (ax, ay), (bx, by), (cx, cy) = tri[t].transpose(1, 2, 0)
        d0 = (bx - ax) * (gy - ay) - (by - ay) * (gx - ax)
        d1 = (cx - bx) * (gy - by) - (cy - by) * (gx - bx)
        d2 = (ax - cx) * (gy - cy) - (ay - cy) * (gx - cx)
        inside = ((d0 >= 0) & (d1 >= 0) & (d2 >= 0)) | \
                 ((d0 <= 0) & (d1 <= 0) & (d2 <= 0))
        img[ii[inside], jj[inside]] = True
    return img


@functools.lru_cache(maxsize=4)
def _zernike_basis(size: int = _IMAGE_SIZE) -> np.ndarray:
    """(35, size * size) read-only moment rows, orders 1..10, per image size."""
    px = (np.arange(size) + 0.5) / size * 2.0 - 1.0
    gx = px[:, None] * np.ones((1, size))
    gy = np.ones((size, 1)) * px[None, :]
    rho = np.sqrt(gx ** 2 + gy ** 2)
    disk = rho <= 1.0
    theta = np.arctan2(gy, gx)
    rows = []
    for n_ord in range(1, _ZERNIKE_MAX_ORDER + 1):
        for m_ord in range(n_ord % 2, n_ord + 1, 2):
            radial = np.zeros_like(rho)
            for k in range((n_ord - m_ord) // 2 + 1):
                coeff = ((-1) ** k * math.factorial(n_ord - k)
                         / (math.factorial(k)
                            * math.factorial((n_ord + m_ord) // 2 - k)
                            * math.factorial((n_ord - m_ord) // 2 - k)))
                radial += coeff * rho ** (n_ord - 2 * k)
            basis = radial * np.exp(-1j * m_ord * theta)
            basis = basis * disk * ((n_ord + 1) / math.pi) * (2.0 / size) ** 2
            rows.append(basis.reshape(-1))
    out = np.array(rows)
    out.setflags(write=False)  # one array is shared by every caller
    return out


def zernike_magnitudes(image: np.ndarray) -> np.ndarray:
    """35 Zernike moment magnitudes (orders 1..10) of a binary image whose
    pixel grid spans [-1, 1]^2; pixels outside the unit disk are ignored."""
    size = image.shape[0]
    if image.shape != (size, size):
        raise ValidationError("zernike_magnitudes expects a square image")
    return np.abs(_zernike_basis(size) @ image.astype(np.float64).reshape(-1))


def contour_fourier_magnitudes(image: np.ndarray) -> np.ndarray:
    """10 Fourier magnitudes of the silhouette's radial contour signature,
    normalized by the DC term."""
    filled = image.astype(bool)
    if not filled.any():
        return np.zeros(_FOURIER_COUNT)
    inner = filled.copy()
    inner[1:, :] &= filled[:-1, :]
    inner[:-1, :] &= filled[1:, :]
    inner[:, 1:] &= filled[:, :-1]
    inner[:, :-1] &= filled[:, 1:]
    boundary = filled & ~inner
    ii, jj = np.nonzero(boundary)
    size = image.shape[0]
    px = (np.arange(size) + 0.5) / size * 2.0 - 1.0
    ci = float(np.mean(px[np.nonzero(filled)[0]]))
    cj = float(np.mean(px[np.nonzero(filled)[1]]))
    x = px[ii] - ci
    y = px[jj] - cj
    r = np.sqrt(x ** 2 + y ** 2)
    theta = np.mod(np.arctan2(y, x), 2.0 * math.pi)
    bins = np.minimum((theta / (2.0 * math.pi) * _ANGLE_BINS).astype(int),
                      _ANGLE_BINS - 1)
    signature = np.zeros(_ANGLE_BINS)
    np.maximum.at(signature, bins, r)
    spectrum = np.abs(np.fft.rfft(signature))
    dc = spectrum[0]
    if dc <= 0.0:
        return np.zeros(_FOURIER_COUNT)
    return spectrum[1:_FOURIER_COUNT + 1] / dc


def _normalize_for_views(m: TriangleMesh) -> np.ndarray:
    lo = m.vertices.min(axis=0)
    hi = m.vertices.max(axis=0)
    center = (lo + hi) / 2.0
    shifted = m.vertices - center
    radius = np.linalg.norm(shifted, axis=1).max()
    if radius <= 0.0:
        raise ValidationError("mesh is degenerate (single point)")
    return shifted * (0.9 / radius)


def silhouette_descriptors(m: TriangleMesh) -> np.ndarray:
    """(20, 45) descriptor block: one 35+10 feature row per viewpoint."""
    if m.num_triangles == 0:
        raise ValidationError("cannot render an empty mesh")
    verts = _normalize_for_views(m)
    rows = []
    for direction in _VIEWS:
        right, up = _view_frame(direction)
        pts2d = np.stack([verts @ right, verts @ up], axis=1)
        img = _rasterize(pts2d, m.triangles)
        rows.append(np.concatenate([zernike_magnitudes(img),
                                    contour_fourier_magnitudes(img)]))
    return np.array(rows)


def lfd(mA: TriangleMesh, mB: TriangleMesh) -> float:
    """Sum over the 20 matched viewpoints of the L1 descriptor distance.

    Unlike the classical formulation there is no minimization over camera
    system rotations; both meshes are rendered from the same fixed view set,
    so the value is meaningful for relative comparison only.
    """
    da = silhouette_descriptors(mA)
    db = silhouette_descriptors(mB)
    return float(np.abs(da - db).sum())


def lfd_percentiles(distances, percentiles=(0, 5, 25, 50, 75, 95, 100)) -> dict:
    arr = np.asarray(distances, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("no distances to summarize")
    return {str(p): float(np.percentile(arr, p)) for p in percentiles}


# ---------------------------------------------------------------------------
# Retrieval


def retrieve_topk(query: TriangleMesh, corpus, k: int = 4,
                  n_samples: int = 512, seed: int = 0):
    """Indices of the k chamfer-nearest corpus meshes, ascending distance with
    ties broken by index.  Chamfer runs on identically seeded surface
    samples, so an exact copy retrieves at distance zero."""
    if len(corpus) == 0:
        raise ValidationError("retrieval corpus is empty")
    qp = sample_surface(query, n_samples, seed)
    dists = [chamfer(qp, sample_surface(m, n_samples, seed)) for m in corpus]
    order = sorted(range(len(corpus)), key=lambda i: (dists[i], i))
    top = order[:max(0, int(k))] if k < len(corpus) else order
    return [(i, dists[i]) for i in top]
