"""Biorthogonal filter banks, separable 3D wavelet transforms, and the
coarse/detail coefficient pyramid.

Filters are stored as tap arrays with an explicit center offset: a filter
with taps ``t`` and origin ``o`` has tap ``t[i]`` at signed position
``i - o``.  Analysis convolves and keeps even positions; synthesis
upsamples, convolves, and crops.  Boundaries use symmetric half-point
extension (edge sample repeated: ..., x1, x0 | x0, x1, ...).

The default bank is a B-spline biorthogonal pair with 6 synthesis-side and
8 analysis-side vanishing moments.  Its coefficients are exact dyadic
rationals times sqrt(2), generated by expanding

    analysis_low(w)  = sqrt(2) * cos(w/2)^6
    synthesis_low(w) = sqrt(2) * cos(w/2)^8 * P(sin(w/2)^2),
    P(y) = sum_{m=0}^{6} C(6+m, m) * y^m,

where P is the degree-6 Bezout solution of c^14 P(s) + s^14 P(c) = 1 with
c + s = 1; that identity makes the pair perfect-reconstruction.  The
integer numerators below are that expansion over a common power-of-two
denominator; a test regenerates them from exact rational arithmetic and
independently checks the vanishing-moment counts.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError, ValidationError
from .formats import _read_wsv1_stream, _write_wsv1_stream
from .grid import Volume3

_SQRT2 = math.sqrt(2.0)

# analysis low: numerators over 2^6, taps at positions -3..3
_ANALYSIS_LO_NUM = (1, 6, 15, 20, 15, 6, 1)
_ANALYSIS_LO_DEN = 64

# synthesis low: numerators over 2^18, taps at positions -10..10
_SYNTHESIS_LO_NUM = (
    231, -1386, 1302, 8358, -19397, -15624, 83400, -9896, -210210, 84084,
    420420,
    84084, -210210, -9896, 83400, -15624, -19397, 8358, 1302, -1386, 231,
)
_SYNTHESIS_LO_DEN = 262144


@dataclass(frozen=True)
class _Filter:
    taps: np.ndarray
    origin: int  # index of the tap at signed position 0

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)

    @property
    def pos_min(self) -> int:
        return -self.origin

    @property
    def pos_max(self) -> int:
        return len(self.taps) - 1 - self.origin

    def moment(self, q: int) -> float:
        pos = np.arange(len(self.taps)) - self.origin
        return float(np.sum(self.taps * pos.astype(np.float64) ** q))


def _modulate_shift(f: _Filter, shift: int) -> _Filter:
    # out(z) = z^shift * f(-z): tap at position m equals (-1)^(m+shift) f[m+shift]
    pos = np.arange(len(f.taps)) - f.origin
    signs = np.where((pos % 2) == 0, 1.0, -1.0)
    return _Filter(f.taps * signs, f.origin + shift)


def _laurent_mul(a: _Filter, b: _Filter) -> _Filter:
    return _Filter(np.convolve(a.taps, b.taps), a.origin + b.origin)


def _negate_arg(f: _Filter) -> _Filter:
    pos = np.arange(len(f.taps)) - f.origin
    return _Filter(f.taps * np.where(pos % 2 == 0, 1.0, -1.0), f.origin)


@dataclass(frozen=True)
class WaveletFilterBank:
    """Two-channel perfect-reconstruction filter bank.

    High-pass filters are derived from the opposite low-pass by modulation:
    analysis_high(z) = z * synthesis_low(-z) and synthesis_high(z) =
    z^-1 * analysis_low(-z), which cancels aliasing for any low-pass pair
    satisfying the halfband condition.  Construction verifies the
    perfect-reconstruction identities numerically and records the overall
    integer delay.
    """

    name: str
    analysis_low: _Filter
    analysis_high: _Filter = field(init=False)
    synthesis_low: _Filter
    synthesis_high: _Filter = field(init=False)

    def __post_init__(self):
        ah = _modulate_shift(self.synthesis_low, 1)
        sh = _modulate_shift(self.analysis_low, -1)
        object.__setattr__(self, "analysis_high", ah)
        object.__setattr__(self, "synthesis_high", sh)

        # distortion must be a pure delay 2*z^-d; alias must cancel exactly
        dist_lo = _laurent_mul(self.synthesis_low, self.analysis_low)
        dist_hi = _laurent_mul(self.synthesis_high, self.analysis_high)
        o = max(dist_lo.origin, dist_hi.origin)
        width = max(len(dist_lo.taps) - dist_lo.origin,
                    len(dist_hi.taps) - dist_hi.origin) + o
        dist = np.zeros(width)
        dist[o - dist_lo.origin:o - dist_lo.origin + len(dist_lo.taps)] += dist_lo.taps
        dist[o - dist_hi.origin:o - dist_hi.origin + len(dist_hi.taps)] += dist_hi.taps
        peak = int(np.argmax(np.abs(dist)))
        rest = np.delete(dist, peak)
        if abs(dist[peak] - 2.0) > 1e-10 or (len(rest) and np.abs(rest).max() > 1e-10):
            raise ValidationError(f"bank {self.name!r}: distortion is not a pure delay")
        object.__setattr__(self, "delay", peak - o)

        alias_lo = _laurent_mul(self.synthesis_low, _negate_arg(self.analysis_low))
        alias_hi = _laurent_mul(self.synthesis_high, _negate_arg(self.analysis_high))
        a_o = max(alias_lo.origin, alias_hi.origin)
        a_w = max(len(alias_lo.taps) - alias_lo.origin, len(alias_hi.taps) - alias_hi.origin) + a_o
        alias = np.zeros(a_w)
        alias[a_o - alias_lo.origin:a_o - alias_lo.origin + len(alias_lo.taps)] += alias_lo.taps
        alias[a_o - alias_hi.origin:a_o - alias_hi.origin + len(alias_hi.taps)] += alias_hi.taps
        if len(alias) and np.abs(alias).max() > 1e-10:
            raise ValidationError(f"bank {self.name!r}: alias does not cancel")

    delay: int = field(init=False, default=0)

    @property
    def analysis_length(self) -> int:
        """Length L of the analysis low-pass; drives the pyramid size recurrence."""
        return len(self.analysis_low.taps)


def bior_6_8() -> WaveletFilterBank:
    """Default bank: 6 synthesis / 8 analysis vanishing moments."""
    alo = _Filter(np.array(_ANALYSIS_LO_NUM, np.float64) / _ANALYSIS_LO_DEN * _SQRT2, 3)
    slo = _Filter(np.array(_SYNTHESIS_LO_NUM, np.float64) / _SYNTHESIS_LO_DEN * _SQRT2, 10)
    return WaveletFilterBank("bior-6.8", analysis_low=alo, synthesis_low=slo)


def haar() -> WaveletFilterBank:
    alo = _Filter(np.array([1.0, 1.0]) / _SQRT2, 1)   # positions -1, 0
    slo = _Filter(np.array([1.0, 1.0]) / _SQRT2, 0)   # positions 0, 1
    return WaveletFilterBank("haar", analysis_low=alo, synthesis_low=slo)


_BANKS = {"bior-6.8": bior_6_8, "haar": haar}


def get_bank(name: str) -> WaveletFilterBank:
    try:
        return _BANKS[name]()
    except KeyError:
        raise ValidationError(f"unknown filter bank {name!r}") from None


DEFAULT_BANK = "bior-6.8"


# ---------------------------------------------------------------------------
# 1D passes along one axis of a 3D block


def _reflect_indices(lo: int, hi: int, n: int) -> np.ndarray:
    """Signed positions lo..hi mapped onto 0..n-1 by half-point reflection."""
    idx = np.arange(lo, hi + 1)
    m = np.mod(idx, 2 * n)
    return np.where(m < n, m, 2 * n - 1 - m)


def _analyze_axis(arr: np.ndarray, f: _Filter, axis: int, kmin: int, count: int) -> np.ndarray:
    """Subband a[k] = sum_s taps[s] * x(2k - s) for k = kmin .. kmin+count-1."""
    arr = np.moveaxis(arr, axis, 0)
    n = arr.shape[0]
    kmax = kmin + count - 1
    ext_lo = 2 * kmin - f.pos_max
    ext_hi = 2 * kmax - f.pos_min
    ext = np.take(arr, _reflect_indices(ext_lo, ext_hi, n), axis=0)
    win = np.lib.stride_tricks.sliding_window_view(ext, len(f.taps), axis=0)[::2]
    out = np.tensordot(win, f.taps[::-1], axes=([-1], [0]))
    return np.moveaxis(out, 0, axis)


def _synth_axis(c: np.ndarray, k0: int, n_out: int, f: _Filter, delay: int,
                axis: int) -> np.ndarray:
    """out[j] = sum_k c[k] * taps[j + delay - 2k] for j = 0..n_out-1.

    Coefficients outside the stored window are supplied by symmetric
    reflection of the window.
    """
    c = np.moveaxis(c, axis, 0)
    m = c.shape[0]
    need_lo = math.ceil((0 + delay - f.pos_max) / 2)
    need_hi = (n_out - 1 + delay - f.pos_min) // 2
    padl = max(0, k0 - need_lo)
    padr = max(0, need_hi - (k0 + m - 1))
    if padl or padr:
        c = np.pad(c, [(padl, padr)] + [(0, 0)] * (c.ndim - 1), mode="symmetric")
        k0 -= padl
        m = c.shape[0]
    u = np.zeros((2 * m - 1,) + c.shape[1:])
    u[::2] = c
    L = len(f.taps)
    fu = np.zeros((2 * m - 1 + L - 1,) + c.shape[1:])
    for ti in range(L):
        fu[ti:ti + 2 * m - 1] += f.taps[ti] * u
    # fu index q holds signed position 2*k0 - origin + q
    start = delay - (2 * k0 - f.origin)
    out = np.zeros((n_out,) + c.shape[1:])
    q0 = max(0, start)
    q1 = min(len(fu), start + n_out)
    if q1 > q0:
        out[q0 - start:q1 - start] = fu[q0:q1]
    return np.moveaxis(out, 0, axis)


def _lowpass_window(n: int, bank: WaveletFilterBank) -> tuple[int, int]:
    """(kmin, count) of the kept low-pass coefficients along one axis."""
    kmin = math.ceil(-bank.analysis_low.origin / 2)
    count = (n + bank.analysis_length - 1) // 2
    return kmin, count


def _analyze_low3(arr: np.ndarray, bank: WaveletFilterBank) -> np.ndarray:
    for axis in range(3):
        kmin, count = _lowpass_window(arr.shape[axis], bank)
        arr = _analyze_axis(arr, bank.analysis_low, axis, kmin, count)
    return arr


def _synth_up3(arr: np.ndarray, target: tuple[int, int, int],
               bank: WaveletFilterBank) -> np.ndarray:
    """Upsample-synthesize onto ``target`` with the bank's synthesis low-pass."""
    for axis in range(3):
        kmin, _ = _lowpass_window(target[axis], bank)
        arr = _synth_axis(arr, kmin, target[axis], bank.synthesis_low,
                          bank.delay, axis)
    return arr


# ---------------------------------------------------------------------------
# Coarse/detail pyramid


@dataclass(frozen=True)
class WaveletPyramid:
    """Coarse volume C^J plus detail volumes D^J..D^1.

    details[0] is D^J (at the dims of C^{J-1}) and details[-1] is D^1 (at
    the dims of the source volume).  dims_table lists the dims of
    C^0..C^J; storing it makes files self-describing.
    """

    coarse: Volume3
    details: tuple
    bank_name: str
    dims_table: tuple

    @property
    def levels(self) -> int:
        return len(self.details)

    def __post_init__(self):
        J = len(self.details)
        if len(self.dims_table) != J + 1:
            raise ValidationError("dims_table must list C^0..C^J")
        if tuple(self.coarse.dims) != tuple(self.dims_table[J]):
            raise ShapeMismatchError("coarse dims disagree with dims_table")
        for j, d in enumerate(self.details):  # details[0] = D^J
            level = J - j
            if tuple(d.dims) != tuple(self.dims_table[level - 1]):
                raise ShapeMismatchError(
                    f"detail D^{level} dims {d.dims} != C^{level-1} dims "
                    f"{self.dims_table[level - 1]}"
                )


def pyramid_decompose(tsdf: Volume3, J: int = 3,
                      bank: WaveletFilterBank | None = None) -> WaveletPyramid:
    """C^j = low-pass analyze C^{j-1}; D^j = C^{j-1} - upsample-synthesize(C^j)."""
    bank = bank or bior_6_8()
    if J < 1:
        raise ValidationError("J must be >= 1")
    dims_table = [tuple(tsdf.dims)]
    arr = tsdf.values
    details = []
    for level in range(1, J + 1):
        if min(arr.shape) < bank.analysis_length:
            raise ValidationError(
                f"dims {arr.shape} too small for analysis pass {level} "
                f"(filter length {bank.analysis_length})"
            )
        nxt = _analyze_low3(arr, bank)
        up = _synth_up3(nxt, arr.shape, bank)
        details.append(arr - up)
        arr = nxt
        dims_table.append(tuple(arr.shape))
    sp = tuple(s * 2 ** J for s in tsdf.spacing)
    coarse = Volume3(arr, tsdf.origin, sp)
    detail_vols = tuple(
        Volume3(d, tsdf.origin, tuple(s * 2 ** (J - 1 - i) for s in tsdf.spacing))
        for i, d in enumerate(reversed(details))
    )
    # reversed(details) yields D^J first
    return WaveletPyramid(coarse, detail_vols, bank.name, tuple(dims_table))


def pyramid_reconstruct(p: WaveletPyramid) -> Volume3:
    """Lossless inverse: C^{j-1} = upsample-synthesize(C^j) + D^j, J times."""
    bank = get_bank(p.bank_name)
    arr = p.coarse.values
    J = p.levels
    for j in range(J, 0, -1):
        target = p.dims_table[j - 1]
        d = p.details[J - j]
        arr = _synth_up3(arr, target, bank) + d.values
    src = p.details[-1]
    return Volume3(arr, src.origin, src.spacing)


def reconstruct_truncated(cJ: Volume3, dJ: Volume3, dims_table,
                          bank: WaveletFilterBank | None = None) -> Volume3:
    """Reconstruct with D^{J-1}..D^1 treated as zero volumes."""
    bank = bank or bior_6_8()
    dims_table = [tuple(d) for d in dims_table]
    J = len(dims_table) - 1
    if tuple(cJ.dims) != dims_table[J]:
        raise ShapeMismatchError(f"coarse dims {cJ.dims} != dims_table[{J}]")
    if tuple(dJ.dims) != dims_table[J - 1]:
        raise ShapeMismatchError(f"detail dims {dJ.dims} != dims_table[{J - 1}]")
    arr = _synth_up3(cJ.values, dims_table[J - 1], bank) + dJ.values
    for j in range(J - 1, 0, -1):
        arr = _synth_up3(arr, dims_table[j - 1], bank)
    return Volume3(arr, dJ.origin, tuple(s / 2 ** (J - 1) for s in dJ.spacing))


def truncated_reconstruction_error(p: WaveletPyramid, source: Volume3) -> float:
    """Mean |recon - source| / mean |source| using only (C^J, D^J)."""
    bank = get_bank(p.bank_name)
    recon = reconstruct_truncated(p.coarse, p.details[0], p.dims_table, bank)
    denom = float(np.mean(np.abs(source.values)))
    if denom == 0.0:
        return 0.0
    return float(np.mean(np.abs(recon.values - source.values))) / denom


def compactness_report(p: WaveletPyramid, truncated_recon_error: float | None = None) -> dict:
    """Retained-coefficient fraction, per-level energy, and relative error."""
    total = 1
    for n in p.dims_table[0]:
        total *= n
    retained = p.coarse.values.size + p.details[0].values.size
    energies = {"coarse": float(np.sum(p.coarse.values ** 2))}
    for i, d in enumerate(p.details):
        energies[f"detail_{p.levels - i}"] = float(np.sum(d.values ** 2))
    report = {
        "levels": p.levels,
        "bank": p.bank_name,
        "dims_table": [list(d) for d in p.dims_table],
        "retained_fraction": retained / total,
        "retained_count": retained,
        "total_count": total,
        "level_energy": energies,
    }
    if truncated_recon_error is not None:
        report["truncated_recon_error"] = float(truncated_recon_error)
    return report


# ---------------------------------------------------------------------------
# WSP1 pyramid container

MAGIC_PYRAMID = b"WSP1"


def write_wsp1(path, p: WaveletPyramid) -> None:
    with open(path, "wb") as fh:
        name = p.bank_name.encode("utf-8")
        fh.write(MAGIC_PYRAMID)
        fh.write(struct.pack("<IB", p.levels, len(name)))
        fh.write(name)
        for dims in p.dims_table:
            fh.write(struct.pack("<3I", *dims))
        _write_wsv1_stream(fh, p.coarse, wide=True)
        for d in p.details:
            _write_wsv1_stream(fh, d, wide=True)


def _read_header(fh, fmt: str) -> tuple:
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise ValidationError("truncated WSP1 header")
    return struct.unpack(fmt, raw)


def read_wsp1(path) -> WaveletPyramid:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC_PYRAMID:
            raise ValidationError(f"bad magic {magic!r}, expected {MAGIC_PYRAMID!r}")
        J, name_len = _read_header(fh, "<IB")
        try:
            bank_name = fh.read(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"WSP1 bank name is not UTF-8 ({exc})") from exc
        dims_table = tuple(_read_header(fh, "<3I") for _ in range(J + 1))
        coarse = _read_wsv1_stream(fh)
        details = tuple(_read_wsv1_stream(fh) for _ in range(J))
    get_bank(bank_name)  # validate known bank
    return WaveletPyramid(coarse, details, bank_name, dims_table)
