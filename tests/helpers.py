"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive (scalar loops, exact rational
arithmetic) and shares no code with ``waveshape``; tests compare the fast
vectorized implementations against these.
"""

from __future__ import annotations

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
