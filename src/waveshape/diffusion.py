"""Noise schedules, forward/reverse diffusion over coefficient volumes, and
closed-form Gaussian-mixture oracle denoisers.

All stochastic steps draw from named counter-based streams derived from a
single run seed (see rng.stream), so chains are reproducible bit-for-bit
and independent chains never share noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as rng_mod
from .errors import NumericalError, ShapeMismatchError, ValidationError
from .formats import read_json, read_volume, write_json, write_wsv1
from .grid import Volume3


@dataclass(frozen=True)
class NoiseSchedule:
    """Tables for t = 1..T; alpha_bar(0) is defined as 1, so sigma(1) = 0."""

    betas: np.ndarray  # length T, betas[i] is beta_{i+1}

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or len(betas) < 2:
            raise ValidationError("schedule needs at least 2 steps")
        if betas.min() <= 0.0 or betas.max() >= 1.0:
            raise ValidationError("betas must lie strictly inside (0, 1)")
        betas.setflags(write=False)
        object.__setattr__(self, "betas", betas)
        alphas = 1.0 - betas
        alpha_bars = np.cumprod(alphas)
        prev = np.concatenate([[1.0], alpha_bars[:-1]])  # alpha_bar(t-1)
        sigmas = (1.0 - prev) / (1.0 - alpha_bars) * betas
        for arr in (alphas, alpha_bars, sigmas):
            arr.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "alpha_bars", alpha_bars)
        object.__setattr__(self, "sigmas", sigmas)

    @property
    def T(self) -> int:
        return len(self.betas)

    def _check_t(self, t: int) -> int:
        t = int(t)
        if not 1 <= t <= self.T:
            raise ValidationError(f"step {t} outside 1..{self.T}")
        return t

    def beta(self, t: int) -> float:
        return float(self.betas[self._check_t(t) - 1])

    def alpha(self, t: int) -> float:
        return float(self.alphas[self._check_t(t) - 1])

    def alpha_bar(self, t: int) -> float:
        if t == 0:
            return 1.0
        return float(self.alpha_bars[self._check_t(t) - 1])

    def sigma(self, t: int) -> float:
        return float(self.sigmas[self._check_t(t) - 1])


def make_linear_schedule(T: int = 1000, beta_start: float = 1e-4,
                         beta_end: float = 0.02) -> NoiseSchedule:
    """beta_t = beta_start + (t-1)/(T-1) * (beta_end - beta_start)."""
    if T < 2:
        raise ValidationError("T must be >= 2")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValidationError("need 0 < beta_start <= beta_end < 1")
    t = np.arange(1, T + 1, dtype=np.float64)
    betas = beta_start + (t - 1.0) / (T - 1.0) * (beta_end - beta_start)
    return NoiseSchedule(betas)


def _require_same_dims(a: Volume3, b: Volume3, what: str) -> None:
    if a.dims != b.dims:
        raise ShapeMismatchError(f"{what}: dims {a.dims} vs {b.dims}")


def q_sample(C0: Volume3, t: int, eps: Volume3, sched: NoiseSchedule) -> Volume3:
    """Forward corruption: sqrt(abar_t) * C0 + sqrt(1 - abar_t) * eps."""
    _require_same_dims(C0, eps, "q_sample")
    ab = sched.alpha_bar(sched._check_t(t))
    return C0.with_values(math.sqrt(ab) * C0.values
                          + math.sqrt(1.0 - ab) * eps.values)


def p_step(C_t: np.ndarray, t: int, eps_hat: np.ndarray, noise: np.ndarray,
           sched: NoiseSchedule) -> np.ndarray:
    """Ancestral reverse step on arrays of one shape (any leading shape, one
    chain state per row); the injected noise is scaled by sigma(t), which is
    zero at t = 1."""
    if C_t.shape != eps_hat.shape or C_t.shape != noise.shape:
        raise ShapeMismatchError(f"p_step: shapes {C_t.shape} vs "
                                 f"{eps_hat.shape} vs {noise.shape}")
    t = sched._check_t(t)
    beta = sched.beta(t)
    mean = C_t - beta / math.sqrt(1.0 - sched.alpha_bar(t)) * eps_hat
    mean /= math.sqrt(sched.alpha(t))
    sigma = sched.sigma(t)
    return mean if sigma == 0.0 else mean + sigma * noise


class DenoiserInterface:
    """predict_eps(C_t, t, z) -> (B, nx, ny, nz) eps_hat, deterministic.

    ``C_t`` holds one chain state per row, shape (B, nx, ny, nz); ``z`` is
    None or B entries, each a row's latent code or None (unconditional).
    Row b of the result depends only on ``C_t[b]`` and ``z[b]``.  Optional:
    predict_eps_grad_z(C_t, t, z, eps) -> (eps_hat, grad) for one chain on
    Volume3s, grad being d/dz of the voxel-mean ||eps_hat - eps||^2.
    """

    def predict_eps(self, C_t: np.ndarray, t: int, z=None) -> np.ndarray:
        raise NotImplementedError


class GaussianMixtureOracle(DenoiserInterface):
    """Exact Bayes eps-predictor when C0 is drawn from a finite weighted set.

    Posterior over components given one row C_t (all in log-space):
        log w_k = log pi_k - ||C_t - sqrt(abar_t) X_k||^2 / (2 (1 - abar_t))
                  [- ||z - a_k||^2 / (2 tau^2) when the row has a code z]
    then E[C0 | C_t] = sum_k w_k X_k and
        eps_hat = (C_t - sqrt(abar_t) E[C0 | C_t]) / sqrt(1 - abar_t).
    Rows are reduced by the same einsum sums a single row would use, so a
    row's result does not depend on the batch it is in.
    """

    def __init__(self, components, anchors=None, tau: float = 1.0, sched=None):
        if not components:
            raise ValidationError("oracle needs at least one component")
        weights = np.array([w for w, _ in components], dtype=np.float64)
        if weights.min() <= 0.0:
            raise ValidationError("component weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValidationError("component weights must sum to 1")
        weights = weights / weights.sum()
        vols = [v for _, v in components]
        dims = vols[0].dims
        for v in vols:
            if v.dims != dims:
                raise ShapeMismatchError("all components must share dims")
        self.weights = weights
        self.volumes = tuple(vols)
        self.stack = np.stack([v.values for v in vols])  # (K, nx, ny, nz)
        self.dims = dims
        if anchors is not None:
            anchors = np.asarray(anchors, dtype=np.float64)
            if len(anchors) != len(vols):
                raise ValidationError("one anchor per component required")
        self.anchors = anchors
        if tau <= 0.0:
            raise ValidationError("tau must be positive")
        self.tau = float(tau)
        self.sched = sched

    @property
    def K(self) -> int:
        return len(self.weights)

    def _logits(self, C_t: np.ndarray, t: int, z) -> np.ndarray:
        ab = self.sched.alpha_bar(t)
        diff = C_t[:, None] - math.sqrt(ab) * self.stack
        d2 = np.einsum("bkijl,bkijl->bk", diff, diff)
        logits = np.log(self.weights) - d2 / (2.0 * (1.0 - ab))
        rows = [] if z is None else [b for b, zb in enumerate(z) if zb is not None]
        if rows:
            if self.anchors is None:
                raise ValidationError("conditional query but oracle has no anchors")
            codes = np.asarray([z[b] for b in rows], dtype=np.float64)
            dz = codes[:, None] - self.anchors
            logits[rows] -= np.einsum("bkl,bkl->bk", dz, dz) / (2.0 * self.tau ** 2)
        return logits

    def _check_query(self, C_t: np.ndarray, z) -> None:
        if self.sched is None:
            raise ValidationError("oracle has no schedule bound")
        if C_t.ndim != 4 or C_t.shape[1:] != self.dims:
            raise ShapeMismatchError(
                f"state shape {C_t.shape} vs (B, *{self.dims}) of components")
        if z is not None and len(z) != len(C_t):
            raise ValidationError(f"{len(z)} codes for {len(C_t)} rows")
        if z is not None and self.anchors is not None:
            for zb in z:
                if zb is not None and np.shape(zb) != self.anchors.shape[1:]:
                    raise ShapeMismatchError(
                        f"latent code shape {np.shape(zb)} vs anchor shape "
                        f"{self.anchors.shape[1:]}")

    def posterior_weights(self, C_t: np.ndarray, t: int, z=None) -> np.ndarray:
        """(B, K) posterior component weights, one row per chain state."""
        self._check_query(C_t, z)
        logits = self._logits(C_t, t, z)
        logits = logits - logits.max(axis=1, keepdims=True)
        w = np.exp(logits)
        return w / w.sum(axis=1, keepdims=True)

    def _posterior_eps(self, C_t: np.ndarray, t: int, z):
        """(eps_hat rows, posterior weights, sqrt(abar_t), sqrt(1 - abar_t)).

        At abar_t = 1 (t = 0) no noise is present: eps_hat is zero and the
        weights are None.
        """
        self._check_query(C_t, z)
        ab = self.sched.alpha_bar(t)
        if ab >= 1.0:
            return np.zeros(C_t.shape), None, 1.0, 0.0
        w = self.posterior_weights(C_t, t, z)
        expect = np.einsum("bk,kijl->bijl", w, self.stack)
        root_ab = math.sqrt(ab)
        root_1mab = math.sqrt(1.0 - ab)
        return (C_t - root_ab * expect) / root_1mab, w, root_ab, root_1mab

    def predict_eps(self, C_t: np.ndarray, t: int, z=None) -> np.ndarray:
        return self._posterior_eps(C_t, t, z)[0]

    def predict_eps_grad_z(self, C_t: Volume3, t: int, z, eps: Volume3):
        """(eps_hat, d/dz of voxel-mean ||eps_hat - eps||^2) for one chain."""
        if z is None or self.anchors is None:
            raise ValidationError("gradient requires z and anchors")
        eps_hat, w, root_ab, root_1mab = self._posterior_eps(
            C_t.values[None], t, [z])
        eps_hat = eps_hat[0]
        if w is None:
            return C_t.with_values(eps_hat), np.zeros(len(np.asarray(z)))
        w = w[0]
        nvox = eps_hat.size
        resid = eps_hat - eps.values
        # dL/dw_k through eps_hat; dw/dz through the softmax of logits
        dl_dw = -(2.0 * root_ab / (nvox * root_1mab)) * np.einsum(
            "ijl,kijl->k", resid, self.stack)
        z = np.asarray(z, dtype=np.float64)
        dlogit_dz = (self.anchors - z) / self.tau ** 2  # (K, L)
        mean_dlogit = np.einsum("k,kl->l", w, dlogit_dz)
        dw_dz = w[:, None] * (dlogit_dz - mean_dlogit[None, :])
        grad = np.einsum("k,kl->l", dl_dw, dw_dz)
        return C_t.with_values(eps_hat), grad


# ---------------------------------------------------------------------------
# Sampling


def chain_stream_name(z) -> str:
    """Stable chain identifier: digest of the conditioning code, if any."""
    if z is None:
        return "unconditional"
    return rng_mod.digest_array(np.asarray(z, dtype=np.float64))


def default_step_subset(T: int, count: int | None = None) -> tuple[int, ...]:
    """Evenly spaced decreasing steps from T to 1 (default T // 10 of them,
    at least 2); an explicit count must lie in 2..T."""
    if count is None:
        count = max(2, T // 10)
    elif not 2 <= count <= T:
        raise ValidationError(f"step count {count} outside 2..{T}")
    steps = np.unique(np.round(np.linspace(1, T, int(count))).astype(np.int64))
    return tuple(int(s) for s in steps[::-1])


def _validate_subset(step_subset, T: int) -> tuple[int, ...]:
    subset = [int(s) for s in step_subset]
    if not subset:
        raise ValidationError("empty step subset")
    if any(not 1 <= s <= T for s in subset):
        raise ValidationError("subset steps must lie in [1, T]")
    if any(nxt >= prv for prv, nxt in zip(subset, subset[1:])):
        raise ValidationError("subset must be strictly decreasing")
    if subset[-1] != 1:
        raise ValidationError("subset must end at step 1")
    return tuple(subset)


def _require_finite(C: np.ndarray, t: int) -> np.ndarray:
    """C itself, or NumericalError naming step t and the first bad row."""
    finite = np.isfinite(C)
    if not finite.all():
        row = int(np.argmin(finite.reshape(len(C), -1).all(axis=1)))
        raise NumericalError(f"non-finite chain state at step {t}, row {row}")
    return C


def _ancestral_step(denoiser: DenoiserInterface, sched: NoiseSchedule,
                    C: np.ndarray, t: int, zs, rng_seeds, chains) -> np.ndarray:
    """One ancestral reverse step of every row of C; row b's noise is the
    ``(rng_seeds[b], "chain", chains[b], "step", t)`` stream, zero at t = 1."""
    eps_hat = denoiser.predict_eps(C, t, zs)
    noise = np.zeros_like(C)
    if t > 1:
        for row, seed, chain in zip(noise, rng_seeds, chains):
            rng_mod.stream(seed, "chain", chain, "step", t).standard_normal(out=row)
    return _require_finite(p_step(C, t, eps_hat, noise, sched), t)


def sample(denoiser: DenoiserInterface, sched: NoiseSchedule,
           dims: tuple[int, int, int], rng_seeds, zs=None,
           step_subset=None) -> np.ndarray:
    """Reverse-process sampling from pure noise, one chain per seed.

    Returns (B, *dims); row b starts from the ``(rng_seeds[b], "init")``
    stream, is guided by ``zs[b]`` (None: unconditional) and does not depend
    on the other rows.  Without a subset: T stochastic ancestral (DDPM)
    steps.  With a strictly decreasing subset ending at 1: deterministic
    (eta = 0) subsequence updates.  A non-finite state raises NumericalError.
    """
    seeds = [int(s) for s in rng_seeds]
    zs = [None] * len(seeds) if zs is None else list(zs)
    if len(zs) != len(seeds):
        raise ValidationError(f"{len(zs)} codes for {len(seeds)} chains")
    subset = None if step_subset is None else _validate_subset(step_subset, sched.T)
    C = np.empty((len(seeds), *dims))
    for row, seed in zip(C, seeds):
        rng_mod.stream(seed, "init").standard_normal(out=row)
    if subset is None:
        chains = [chain_stream_name(z) for z in zs]
        for t in range(sched.T, 0, -1):
            C = _ancestral_step(denoiser, sched, C, t, zs, seeds, chains)
        return C
    for i, t in enumerate(subset):
        eps_hat = denoiser.predict_eps(C, t, zs)
        ab = sched.alpha_bar(t)
        x0 = (C - math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(ab)
        if i + 1 < len(subset):
            ab_prev = sched.alpha_bar(subset[i + 1])
            C = math.sqrt(ab_prev) * x0 + math.sqrt(1.0 - ab_prev) * eps_hat
        else:
            C = x0
        _require_finite(C, t)
    return C


# ---------------------------------------------------------------------------
# Oracle corpus directory (WSV1 volumes + JSON manifest)


def write_oracle_corpus(dir_path, oracle: GaussianMixtureOracle, details,
                        dims_table, bank_name: str) -> None:
    """Persist the oracle's components, one detail volume per component, and
    the size table and filter-bank name needed to rebuild full-resolution
    fields from generated coarse volumes."""
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    if len(details) != len(oracle.volumes):
        raise ValidationError("one detail volume per component required")
    entries = []
    for k, vol in enumerate(oracle.volumes):
        name = f"component_{k:03d}.wsv1"
        detail_name = f"detail_{k:03d}.wsv1"
        write_wsv1(d / name, vol)
        write_wsv1(d / detail_name, details[k])
        entries.append({
            "path": name,
            "weight": float(oracle.weights[k]),
            "anchor": (None if oracle.anchors is None
                       else [float(x) for x in oracle.anchors[k]]),
            "detail_path": detail_name,
        })
    write_json(d / "corpus.json", {
        "tau": oracle.tau,
        "components": entries,
        "reconstruction": {
            "dims_table": [list(int(x) for x in dims) for dims in dims_table],
            "bank": bank_name,
        },
    })


def read_oracle_corpus(dir_path, sched: NoiseSchedule | None = None):
    """Read a corpus directory, each volume once.

    Returns ``(oracle, details, dims_table, bank)``: the mixture oracle over
    the stored components, then the per-component detail volumes, the size
    table and the filter-bank name needed for reconstruction.  Anchors are
    optional; every entry must name its detail volume and the manifest must
    carry the ``reconstruction`` block.
    """
    d = Path(dir_path)
    manifest = read_json(d / "corpus.json")
    comps, anchors, details = [], [], []
    try:
        tau = float(manifest["tau"])
        for e in manifest["components"]:
            comps.append((float(e["weight"]), read_volume(d / e["path"])))
            anchors.append(e.get("anchor"))
            details.append(read_volume(d / e["detail_path"]))
        has_anchors = all(a is not None for a in anchors) and anchors
        anchors = np.array(anchors, dtype=np.float64) if has_anchors else None
        recon = manifest["reconstruction"]
        dims_table = [tuple(int(x) for x in dims)
                      for dims in recon["dims_table"]]
        bank = recon["bank"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"corpus manifest malformed: {exc!r}") from exc
    oracle = GaussianMixtureOracle(comps, anchors=anchors, tau=tau, sched=sched)
    return oracle, tuple(details), dims_table, bank
