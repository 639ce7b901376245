"""Reference checks on the artifacts of the waveshape CLI.

Everything here is computed apart from the program: it imports nothing from
``waveshape`` and re-derives what it needs from the documented file formats
(WSV1, OBJ, JSON) and conventions (analytic SDF kinds, area-weighted surface
sampling keyed by named Philox streams, squared-distance chamfer, COV / MMD /
1-NNA).  Every check raises ``CheckFailed`` with a reason; none returns a
verdict silently.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

TRUNCATION = 0.1
WSV1_HEADER = struct.Struct("<4s3I6dB")
WSV1_DTYPES = {0: "<f4", 1: "<f8", 2: "u1"}

# Largest distance, in voxels of the generating grid, between a vertex of a
# generated or interpolated mesh and the analytic surface of the component it
# reproduces.  The truncated reconstruction (coarse + one detail level) plus
# linear edge interpolation reached 0.56 voxel on the two-sphere union.
SURFACE_TOL_VOXELS = 0.85
# Largest relative L2 distance between a generated coarse volume and the
# corpus component it reproduces.
COARSE_REL_TOL = 0.05
# Voxels closer than this many source-mesh grid spacings to the analytic
# surface may disagree in sign with it after mesh TSDF sampling.
SIGN_BAND_SPACINGS = 1.5
RETAINED_FRACTION_MAX = 0.05
# Relative slack on "late-quarter refinement error no higher than early".
# Over 120 inversions (seeds 11-30) the quarter medians agreed to 1e-7; a code
# that sends the weight to a wrong component raises the error 10- to 50-fold.
REFINE_REL_TOL = 0.01


class CheckFailed(Exception):
    """An artifact disagrees with the reference computation."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Readers


def read_wsv1(path):
    """(values as float64 or uint8 array of shape (nx, ny, nz), origin, spacing)."""
    raw = Path(path).read_bytes()
    require(len(raw) >= WSV1_HEADER.size, f"{path}: truncated WSV1 header")
    magic, nx, ny, nz, ox, oy, oz, sx, sy, sz, tag = WSV1_HEADER.unpack_from(raw)
    require(magic == b"WSV1", f"{path}: bad magic {magic!r}")
    require(tag in WSV1_DTYPES, f"{path}: unknown dtype tag {tag}")
    dtype = np.dtype(WSV1_DTYPES[tag])
    count = nx * ny * nz
    require(len(raw) == WSV1_HEADER.size + count * dtype.itemsize,
            f"{path}: payload size does not match header dims")
    flat = np.frombuffer(raw, dtype=dtype, offset=WSV1_HEADER.size)
    vals = flat.reshape((nx, ny, nz), order="F")  # x fastest on disk
    vals = vals.astype(np.uint8 if tag == 2 else np.float64)
    return vals, np.array([ox, oy, oz]), np.array([sx, sy, sz])


def read_obj(path):
    """(vertices (V, 3) float64, triangles (T, 3) int64, 0-based).  Faces with
    zero area are dropped, as the OBJ convention of the program does."""
    verts, tris = [], []
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append([float(x) for x in parts[1:4]])
        elif parts[0] == "f":
            idx = [int(tok.split("/")[0]) - 1 for tok in parts[1:]]
            for k in range(1, len(idx) - 1):
                tris.append([idx[0], idx[k], idx[k + 1]])
    v = np.array(verts, dtype=np.float64).reshape(-1, 3)
    t = np.array(tris, dtype=np.int64).reshape(-1, 3)
    require(len(t) > 0, f"{path}: no triangles")
    require(t.min() >= 0 and t.max() < len(v), f"{path}: face index out of range")
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    t = t[np.linalg.norm(np.cross(b - a, c - a), axis=1) > 0.0]
    return v, t


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def file_digest(path) -> str:
    return hashlib.blake2s(Path(path).read_bytes()).hexdigest()


def tree_digests(root) -> dict:
    """BLAKE2s digest of every file below ``root``, keyed by relative path."""
    root = Path(root)
    return {str(p.relative_to(root)): file_digest(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# Analytic signed distance (scene dicts as documented in the README)


def sdf(node: dict, p: np.ndarray) -> np.ndarray:
    """Signed distance of scene ``node`` at points ``p`` (N, 3); negative inside."""
    kind = node["kind"]
    if kind == "sphere":
        return np.sqrt(np.sum((p - np.array(node["center"])) ** 2, axis=1)) \
            - node["radius"]
    if kind == "box":
        q = np.abs(p - np.array(node["center"])) - np.array(node["half_extents"])
        outside = np.sqrt(np.sum(np.maximum(q, 0.0) ** 2, axis=1))
        return outside + np.minimum(q.max(axis=1), 0.0)
    if kind == "torus":
        d = p - np.array(node["center"])
        ring = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2) - node["major_radius"]
        return np.sqrt(ring ** 2 + d[:, 2] ** 2) - node["minor_radius"]
    if kind == "capsule":
        a = np.array(node["a"], dtype=np.float64)
        ab = np.array(node["b"], dtype=np.float64) - a
        t = np.clip((p - a) @ ab / (ab @ ab), 0.0, 1.0)
        return np.sqrt(np.sum((p - a - t[:, None] * ab) ** 2, axis=1)) \
            - node["radius"]
    if kind == "union":
        return np.min([sdf(c, p) for c in node["children"]], axis=0)
    if kind == "intersect":
        return np.max([sdf(c, p) for c in node["children"]], axis=0)
    if kind == "subtract":
        return np.maximum(sdf(node["a"], p), -sdf(node["b"], p))
    raise ValueError(f"unknown scene kind {kind!r}")


def voxel_centers(dims, origin, spacing) -> np.ndarray:
    axes = [origin[i] + np.arange(dims[i]) * spacing[i] for i in range(3)]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    return np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)


# ---------------------------------------------------------------------------
# Mesh checks


def check_closed(path) -> None:
    """Every edge of the mesh is shared by exactly two triangles."""
    _, t = read_obj(path)
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]),
                    axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    bad = int(np.sum(counts != 2))
    require(bad == 0, f"{path}: {bad} edges not shared by exactly two triangles")


def check_on_surface(path, scene: dict, voxel: float,
                     tol_voxels: float = SURFACE_TOL_VOXELS) -> float:
    """Every vertex lies within ``tol_voxels`` voxels of the analytic surface;
    returns the worst distance in voxels."""
    v, _ = read_obj(path)
    worst = float(np.max(np.abs(sdf(scene, v)))) / voxel
    require(worst <= tol_voxels,
            f"{path}: vertex {worst:.3f} voxels from the analytic surface "
            f"(limit {tol_voxels})")
    return worst


# ---------------------------------------------------------------------------
# Coefficient volumes


def nearest_component(path, components) -> tuple[int, float]:
    """(index, relative L2 distance) of the corpus component nearest to the
    coarse volume at ``path``."""
    vals, _, _ = read_wsv1(path)
    rel = [float(np.linalg.norm(vals - c) / np.linalg.norm(c)) for c in components]
    k = int(np.argmin(rel))
    return k, rel[k]


def check_coarse_sample(path, components, tol: float = COARSE_REL_TOL) -> int:
    """The coarse volume lies within ``tol`` relative L2 of one component;
    returns that component's index."""
    k, rel = nearest_component(path, components)
    require(rel <= tol, f"{path}: {rel:.4f} relative L2 from the nearest "
                        f"component {k} (limit {tol})")
    return k


def check_inverted(path, components, expected: int) -> None:
    k, rel = nearest_component(path, components)
    require(k == expected, f"{path}: nearest component {k} (rel {rel:.4f}), "
                           f"input was built from component {expected}")


def linear_alpha_bars(T: int, beta_start: float, beta_end: float) -> np.ndarray:
    """alpha_bar_t for t = 1..T of the linear beta schedule."""
    betas = np.linspace(beta_start, beta_end, T)
    return np.cumprod(1.0 - betas)


def check_refine_trace(path, iters: int, seed: int, dims, alpha_bars) -> None:
    """The refinement converges: once each loss is put in clean-volume terms,
    the late-quarter median is no higher than the early-quarter median (up to
    ``REFINE_REL_TOL``).

    An iteration's loss is the voxel mean of (eps_hat - eps)^2 at a drawn
    step t, which is alpha_bar_t / (1 - alpha_bar_t) times the voxel mean of
    (C0 - predicted C0)^2.  The raw loss therefore spans five orders of
    magnitude with t, and its quarter means are set by the few small-t draws.
    The t of each iteration is re-drawn from the stream ``(seed, "refine")``
    (one integer in 1..T, then one normal per voxel), and the loss is divided
    by that factor.  Medians, not means: single large-t draws in which the
    posterior leaks weight to another component add up to 6x the error for
    one iteration."""
    rows = [r.split(",") for r in Path(path).read_text().splitlines()[1:]]
    require([int(r[0]) for r in rows] == list(range(iters)),
            f"{path}: iterations are not 0..{iters - 1}")
    loss = np.array([float(r[1]) for r in rows])
    require(bool(np.all(np.isfinite(loss)) and np.all(loss >= 0.0)),
            f"{path}: loss trace holds a negative or non-finite value")
    gen = named_stream(seed, "refine")
    steps = np.empty(iters, dtype=np.int64)
    for i in range(iters):
        steps[i] = gen.integers(1, len(alpha_bars) + 1)
        gen.standard_normal(tuple(dims))
    ab = alpha_bars[steps - 1]
    x0_err = loss * (1.0 - ab) / ab
    q = iters // 4
    early, late = float(np.median(x0_err[:q])), float(np.median(x0_err[-q:]))
    require(late <= early * (1.0 + REFINE_REL_TOL),
            f"{path}: late-quarter median clean-volume error {late:.6g} above "
            f"the early-quarter median {early:.6g}")


def check_boundary(path) -> None:
    rep = read_json(path)
    manip = rep["boundary_metric_manipulated"]
    naive = rep["boundary_metric_naive_mix"]
    require(manip <= naive, f"{path}: manipulated seam {manip:.6g} above naive "
                            f"stitch {naive:.6g}")


# ---------------------------------------------------------------------------
# prepare


def check_scene_tsdf(path, scene: dict) -> None:
    """The stored TSDF equals the analytic SDF clamped to the truncation band,
    up to the float32 rounding of the file."""
    vals, origin, spacing = read_wsv1(path)
    pts = voxel_centers(vals.shape, origin, spacing)
    ref = np.clip(sdf(scene, pts), -TRUNCATION, TRUNCATION)
    ulp = np.spacing(np.abs(ref).astype(np.float32)).astype(np.float64)
    err = np.abs(vals.ravel() - ref)
    bad = int(np.sum(err > ulp))
    require(bad == 0, f"{path}: {bad} voxels differ from the analytic TSDF by "
                      f"more than float32 rounding (worst {err.max():.3g})")


def check_retained(path, limit: float = RETAINED_FRACTION_MAX) -> None:
    frac = read_json(path)["retained_fraction"]
    require(frac <= limit, f"{path}: retained fraction {frac:.4f} above {limit}")


def check_mesh_tsdf_sign(tsdf_path, obj_path, scene: dict,
                         source_spacing: float) -> None:
    """Away from the surface, the sign of a TSDF sampled from ``obj_path``
    (which ``prepare --obj`` normalized to a centered box of largest edge 1.8)
    agrees with the analytic SDF of the scene the mesh was extracted from."""
    vals, origin, spacing = read_wsv1(tsdf_path)
    v, _ = read_obj(obj_path)
    lo, hi = v.min(axis=0), v.max(axis=0)
    center, scale = (lo + hi) / 2.0, 1.8 / float((hi - lo).max())
    pts = voxel_centers(vals.shape, origin, spacing) / scale + center
    ref = sdf(scene, pts)
    far = np.abs(ref) > SIGN_BAND_SPACINGS * source_spacing
    bad = int(np.sum(far & ((vals.ravel() < 0) != (ref < 0))))
    require(bad == 0, f"{tsdf_path}: {bad} voxels off the surface band have "
                      f"the wrong sign")


# ---------------------------------------------------------------------------
# eval / novelty


def named_stream(seed: int, *names) -> np.random.Generator:
    """Philox stream keyed the way the program documents: the root seed, then
    two little-endian u32 words per name (ints split, strings BLAKE2s-hashed)."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for name in names:
        if isinstance(name, int):
            entropy += [name & 0xFFFFFFFF, (name >> 32) & 0xFFFFFFFF]
        else:
            d = hashlib.blake2s(str(name).encode(), digest_size=8).digest()
            entropy += [int.from_bytes(d[:4], "little"),
                        int.from_bytes(d[4:], "little")]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def surface_samples(path, n: int, seed: int) -> np.ndarray:
    """Area-weighted surface samples with square-root barycentrics."""
    v, t = read_obj(path)
    tri = v[t]
    areas = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
    gen = named_stream(seed, "surface-samples")
    choice = gen.choice(len(areas), size=n, p=areas / areas.sum())
    r1 = np.sqrt(gen.random(n))
    r2 = gen.random(n)
    w = np.stack([1.0 - r1, r1 * (1.0 - r2), r1 * r2], axis=1)
    return np.einsum("nk,nkd->nd", w, tri[choice])


def brute_chamfer(P: np.ndarray, Q: np.ndarray) -> float:
    """Sum of both directed mean squared nearest distances, over all pairs."""
    d2 = (np.sum(P * P, axis=1)[:, None] + np.sum(Q * Q, axis=1)[None, :]
          - 2.0 * (P @ Q.T))
    np.maximum(d2, 0.0, out=d2)
    return float(d2.min(axis=1).mean() + d2.min(axis=0).mean())


def check_set_metrics(metrics_path, gen_dir, ref_dir) -> None:
    """COV, MMD and 1-NNA equal a brute-force recomputation."""
    rep = read_json(metrics_path)
    n, seed = rep["samples_per_shape"], rep["seed"]
    gen = [surface_samples(p, n, seed) for p in sorted(Path(gen_dir).glob("*.obj"))]
    ref = [surface_samples(p, n, seed) for p in sorted(Path(ref_dir).glob("*.obj"))]
    pool = gen + ref
    full = np.full((len(pool), len(pool)), np.inf)
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            full[i, j] = full[j, i] = brute_chamfer(pool[i], pool[j])
    cross = full[:len(gen), len(gen):]
    labels = np.array([0] * len(gen) + [1] * len(ref))
    expect = {
        "COV": len(set(np.argmin(cross, axis=1).tolist())) / len(ref),
        "MMD": float(cross.min(axis=0).mean()),
        "1-NNA": float(np.mean(labels[np.argmin(full, axis=1)] == labels)),
    }
    got = rep["metrics"]
    for key in ("COV", "1-NNA"):
        require(got[key] == expect[key],
                f"{metrics_path}: {key} {got[key]} != recomputed {expect[key]}")
    require(abs(got["MMD"] - expect["MMD"]) <= 1e-9 * expect["MMD"],
            f"{metrics_path}: MMD {got['MMD']} != recomputed {expect['MMD']}")


def check_self_retrieval(novelty_path, expected_name: str) -> None:
    """An exact copy of a training mesh retrieves itself at distance zero."""
    q = read_json(novelty_path)["queries"][0]
    best = q["topk"][0]
    require(best["name"] == expected_name,
            f"{novelty_path}: nearest {best['name']}, expected {expected_name}")
    require(best["chamfer"] == 0.0,
            f"{novelty_path}: self chamfer {best['chamfer']} is not 0")
    require(q["lfd_min"] == 0.0,
            f"{novelty_path}: self lfd_min {q['lfd_min']} is not 0")
