"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive (scalar loops, exact rational
arithmetic, one diffusion state at a time) and shares no code with
``waveshape``; tests compare the fast vectorized implementations against
these.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Symmetric (half-point) boundary extension and direct 1D filter passes


def reflect_index(i: int, n: int) -> int:
    """Map a signed index onto 0..n-1 by half-point reflection.

    Pattern around the left edge: ..., x1, x0 | x0, x1, ...; period 2n.
    """
    m = i % (2 * n)
    return m if m < n else 2 * n - 1 - m


def conv_analysis_1d(x, taps, origin, kmin, count):
    """Filter then keep even positions 2k for k = kmin..kmin+count-1.

    ``taps[s]`` sits at signed position ``s - origin``; output sample k is
    sum_s taps[s] * x[2k - (s - origin)] with reflected indexing.
    """
    n = len(x)
    out = np.zeros(count)
    for idx in range(count):
        k = kmin + idx
        acc = 0.0
        for s in range(len(taps)):
            pos = s - origin
            acc += taps[s] * x[reflect_index(2 * k - pos, n)]
        out[idx] = acc
    return out


def conv_synthesis_1d(c, k0, n_out, taps, origin, delay):
    """Upsample coefficients (sample k at position 2k + k0*2), filter, crop.

    Output sample m (0..n_out-1) is sum over coefficient index j of
    c[j] * taps at position (m + delay) - 2*(j + k0), with the coefficient
    array reflected at its own boundary.
    """
    nc = len(c)
    out = np.zeros(n_out)
    for m in range(n_out):
        acc = 0.0
        for s in range(len(taps)):
            pos = s - origin
            num = (m + delay) - pos  # = 2 * (j + k0)
            if num % 2 != 0:
                continue
            j = num // 2 - k0
            acc += taps[s] * c[reflect_index(j, nc)]
        out[m] = acc
    return out


def apply_axis(arr: np.ndarray, axis: int, fn) -> np.ndarray:
    """Apply a 1D array -> 1D array function along one axis of a 3D block."""
    moved = np.moveaxis(arr, axis, -1)
    flat = moved.reshape(-1, moved.shape[-1])
    rows = [fn(row) for row in flat]
    out = np.stack(rows).reshape(moved.shape[:-1] + (len(rows[0]),))
    return np.moveaxis(out, -1, axis)


# ---------------------------------------------------------------------------
# Exact Laurent polynomials over rationals (for filter regeneration)


class LaurentQ:
    """Laurent polynomial with Fraction coefficients keyed by exponent."""

    def __init__(self, coeffs: dict[int, Fraction]):
        self.coeffs = {e: Fraction(c) for e, c in coeffs.items() if c != 0}

    @classmethod
    def term(cls, coeff, exponent: int) -> "LaurentQ":
        return cls({exponent: Fraction(coeff)})

    def __add__(self, other: "LaurentQ") -> "LaurentQ":
        merged = dict(self.coeffs)
        for e, c in other.coeffs.items():
            merged[e] = merged.get(e, Fraction(0)) + c
        return LaurentQ(merged)

    def __mul__(self, other: "LaurentQ") -> "LaurentQ":
        out: dict[int, Fraction] = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                out[ea + eb] = out.get(ea + eb, Fraction(0)) + ca * cb
        return LaurentQ(out)

    def scaled(self, factor) -> "LaurentQ":
        return LaurentQ({e: c * Fraction(factor) for e, c in self.coeffs.items()})

    def pow(self, k: int) -> "LaurentQ":
        out = LaurentQ.term(1, 0)
        for _ in range(k):
            out = out * self
        return out

    def as_table(self) -> dict[int, Fraction]:
        return dict(self.coeffs)


# ---------------------------------------------------------------------------
# Log-space Gaussian-mixture posterior with fsum accumulation


def mixture_eps_reference(c_t, stack, log_pi, abar, cond_quad=None):
    """Bayes eps-prediction for an atomic mixture, accumulated with fsum.

    c_t: flat observation array; stack: (K, n) flat components; log_pi:
    length-K log prior; cond_quad: optional extra per-component log term
    (e.g. -||z - a_k||^2 / (2 tau^2)).
    """
    sa = math.sqrt(abar)
    var = 1.0 - abar
    logits = []
    for k in range(stack.shape[0]):
        sq = math.fsum((float(ct) - sa * float(xk)) ** 2
                       for ct, xk in zip(c_t, stack[k]))
        term = log_pi[k] - sq / (2.0 * var)
        if cond_quad is not None:
            term += cond_quad[k]
        logits.append(term)
    peak = max(logits)
    w = [math.exp(l - peak) for l in logits]
    total = math.fsum(w)
    w = [wi / total for wi in w]
    mean = np.zeros_like(np.asarray(c_t, dtype=np.float64))
    for k, wk in enumerate(w):
        mean += wk * stack[k]
    eps = (np.asarray(c_t, dtype=np.float64) - sa * mean) / math.sqrt(var)
    return eps, np.array(w)


def mixture_eps_single(C, stack, weights, abar, anchors=None, tau=1.0, z=None):
    """One state's mixture eps-prediction with the per-state einsum sums the
    batched oracle must reproduce bit for bit (no BLAS products)."""
    diff = C[None] - math.sqrt(abar) * stack
    logits = np.log(weights) - np.einsum("kijl,kijl->k", diff, diff) / (
        2.0 * (1.0 - abar))
    if z is not None:
        dz = np.asarray(z, dtype=np.float64) - anchors
        logits = logits - np.einsum("kl,kl->k", dz, dz) / (2.0 * tau ** 2)
    logits = logits - logits.max()
    w = np.exp(logits)
    w = w / w.sum()
    expect = np.einsum("k,kijl->ijl", w, stack)
    return (C - math.sqrt(abar) * expect) / math.sqrt(1.0 - abar)


# ---------------------------------------------------------------------------
# Single reverse chains: one state at a time, with the noise contract
# re-derived (named Philox streams keyed by blake2s words of each name)


def _name_words(name) -> list:
    if isinstance(name, int):
        return [name & 0xFFFFFFFF, (name >> 32) & 0xFFFFFFFF]
    digest = hashlib.blake2s(str(name).encode("utf-8"), digest_size=8).digest()
    return [int.from_bytes(digest[:4], "little"),
            int.from_bytes(digest[4:], "little")]


def named_stream(seed: int, *names) -> np.random.Generator:
    entropy = [seed & 0xFFFFFFFFFFFFFFFF]
    for name in names:
        entropy.extend(_name_words(name))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def chain_name(z) -> str:
    """"unconditional", or the blake2s digest of the float64 code."""
    if z is None:
        return "unconditional"
    code = np.ascontiguousarray(np.asarray(z, dtype=np.float64))
    h = hashlib.blake2s(digest_size=8)
    h.update(b"float64")
    h.update(str(code.shape).encode())
    h.update(code.tobytes())
    return h.hexdigest()


def single_chain_reference(eps_fn, sched, dims, seed, z=None, step_subset=None):
    """One reverse chain as a loop of single-state steps.

    ``eps_fn(C, t, z)`` predicts eps for one state.  The start is the
    ``(seed, "init")`` stream; ancestral step t > 1 adds sigma(t) times the
    ``(seed, "chain", chain_name(z), "step", t)`` stream; a step subset runs
    the deterministic (eta = 0) updates instead.
    """
    C = named_stream(seed, "init").standard_normal(dims)
    if step_subset is None:
        for t in range(sched.T, 0, -1):
            eps = eps_fn(C, t, z)
            mean = C - sched.beta(t) / math.sqrt(1.0 - sched.alpha_bar(t)) * eps
            mean /= math.sqrt(sched.alpha(t))
            if t > 1:
                noise = named_stream(seed, "chain", chain_name(z), "step",
                                     t).standard_normal(dims)
                mean = mean + sched.sigma(t) * noise
            C = mean
        return C
    steps = list(step_subset)
    for i, t in enumerate(steps):
        eps = eps_fn(C, t, z)
        ab = sched.alpha_bar(t)
        x0 = (C - math.sqrt(1.0 - ab) * eps) / math.sqrt(ab)
        if i + 1 < len(steps):
            ab_prev = sched.alpha_bar(steps[i + 1])
            C = math.sqrt(ab_prev) * x0 + math.sqrt(1.0 - ab_prev) * eps
        else:
            C = x0
    return C


# ---------------------------------------------------------------------------
# Mesh bookkeeping used by surface and acceptance tests


def euler_characteristic(verts: np.ndarray, tris: np.ndarray) -> int:
    edges = set()
    for a, b, c in tris:
        for u, v in ((a, b), (b, c), (c, a)):
            edges.add((min(u, v), max(u, v)))
    return len(verts) - len(edges) + len(tris)


def boundary_edge_count(tris: np.ndarray) -> int:
    """Edges used by exactly one triangle (0 for a closed surface)."""
    seen: dict[tuple[int, int], int] = {}
    for a, b, c in tris:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            seen[key] = seen.get(key, 0) + 1
    return sum(1 for count in seen.values() if count != 2)


# ---------------------------------------------------------------------------
# Geometry kernels: per-triangle rasterizer and dense ray parity


def rasterize_reference(points2d, triangles, size):
    """Fill 2D triangles over the [-1, 1]^2 window one triangle at a time,
    testing each at the pixel centers of its bounding-box window grown by
    one pixel and clipped to the image."""
    img = np.zeros((size, size), dtype=bool)
    px = (np.arange(size) + 0.5) / size * 2.0 - 1.0
    for tri in triangles:
        a, b, c = points2d[tri]
        lo = np.minimum(np.minimum(a, b), c)
        hi = np.maximum(np.maximum(a, b), c)
        i0 = max(int(np.searchsorted(px, lo[0])) - 1, 0)
        i1 = min(int(np.searchsorted(px, hi[0])) + 1, size)
        j0 = max(int(np.searchsorted(px, lo[1])) - 1, 0)
        j1 = min(int(np.searchsorted(px, hi[1])) + 1, size)
        if i0 >= i1 or j0 >= j1:
            continue
        gx = px[i0:i1][:, None]
        gy = px[j0:j1][None, :]
        d0 = (b[0] - a[0]) * (gy - a[1]) - (b[1] - a[1]) * (gx - a[0])
        d1 = (c[0] - b[0]) * (gy - b[1]) - (c[1] - b[1]) * (gx - b[0])
        d2 = (a[0] - c[0]) * (gy - c[1]) - (a[1] - c[1]) * (gx - c[0])
        inside = ((d0 >= 0) & (d1 >= 0) & (d2 >= 0)) | \
                 ((d0 <= 0) & (d1 <= 0) & (d2 <= 0))
        img[i0:i1, j0:j1] |= inside
    return img


def _dense_crossings(tv, pu, pv, eps):
    """Every ray against every triangle: crossing coordinate, hit mask and
    boundary-graze mask, each of shape (rays, triangles)."""
    au, av, aw = tv[:, 0, 0], tv[:, 0, 1], tv[:, 0, 2]
    bu, bv, bw = tv[:, 1, 0], tv[:, 1, 1], tv[:, 1, 2]
    cu, cv, cw = tv[:, 2, 0], tv[:, 2, 1], tv[:, 2, 2]
    denom = (bu - au) * (cv - av) - (bv - av) * (cu - au)
    pu = pu[:, None]
    pv = pv[:, None]
    wa = (bu - pu) * (cv - pv) - (bv - pv) * (cu - pu)
    wb = (cu - pu) * (av - pv) - (cv - pv) * (au - pu)
    wc = (au - pu) * (bv - pv) - (av - pv) * (bu - pu)
    scale = np.abs(denom)
    degenerate = scale <= eps
    scale_safe = np.where(degenerate, 1.0, denom)
    ba = wa / scale_safe
    bb = wb / scale_safe
    bc = wc / scale_safe
    tol = eps / np.maximum(scale, eps)
    inside = (ba > tol) & (bb > tol) & (bc > tol) & ~degenerate
    graze = ((np.abs(ba) <= tol) | (np.abs(bb) <= tol) | (np.abs(bc) <= tol)) \
        & (ba >= -tol) & (bb >= -tol) & (bc >= -tol) & ~degenerate
    return ba * aw + bb * bw + bc * cw, inside, graze


def ray_crossings_reference(vertices, triangles, pu, pv, axis,
                            eps=1e-12, perturb=1e-7, retries=3):
    """Crossings of +axis rays through (pu, pv), every ray tested against
    every triangle.  A ray grazing an edge or vertex is retried from its
    original position shifted by (+-k * perturb, k * perturb), k = 1, 2, ...

    Returns, per ray, the sorted crossing coordinates (None when the ray
    still grazes after the last retry), and which rays were retried.
    """
    other = [ax for ax in range(3) if ax != axis]
    tv = vertices[triangles][:, :, other + [axis]]
    pu = np.asarray(pu, dtype=np.float64)
    pv = np.asarray(pv, dtype=np.float64)
    qu, qv = pu.copy(), pv.copy()
    crossings = [None] * len(pu)
    retried = np.zeros(len(pu), dtype=bool)
    pending = np.arange(len(pu))
    for attempt in range(retries + 1):
        w, inside, graze = _dense_crossings(tv, qu[pending], qv[pending], eps)
        grazed = graze.any(axis=1)
        for k, ray in enumerate(pending):
            if not grazed[k]:
                crossings[ray] = np.sort(w[k][inside[k]])
        pending = pending[grazed]
        if not len(pending) or attempt == retries:
            break
        retried[pending] = True
        delta = perturb * (attempt + 1)
        qu[pending] = pu[pending] + (delta if attempt % 2 == 0 else -delta)
        qv[pending] = pv[pending] + delta
    return crossings, retried
