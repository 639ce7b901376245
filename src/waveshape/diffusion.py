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
from .errors import ShapeMismatchError, ValidationError
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


def schedule_to_csv(sched: NoiseSchedule, path) -> None:
    lines = ["t,beta,alpha_bar,sigma"]
    for t in range(1, sched.T + 1):
        lines.append(f"{t},{sched.beta(t):.17g},{sched.alpha_bar(t):.17g},"
                     f"{sched.sigma(t):.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def _require_same_dims(a: Volume3, b: Volume3, what: str) -> None:
    if a.dims != b.dims:
        raise ShapeMismatchError(f"{what}: dims {a.dims} vs {b.dims}")


def q_sample(C0: Volume3, t: int, eps: Volume3, sched: NoiseSchedule) -> Volume3:
    """Forward corruption: sqrt(abar_t) * C0 + sqrt(1 - abar_t) * eps."""
    _require_same_dims(C0, eps, "q_sample")
    ab = sched.alpha_bar(sched._check_t(t))
    return C0.with_values(math.sqrt(ab) * C0.values
                          + math.sqrt(1.0 - ab) * eps.values)


def p_step(C_t: Volume3, t: int, eps_hat: Volume3, noise: Volume3,
           sched: NoiseSchedule) -> Volume3:
    """Ancestral reverse step; the injected noise is scaled by sigma(t),
    which is zero at t = 1."""
    _require_same_dims(C_t, eps_hat, "p_step")
    _require_same_dims(C_t, noise, "p_step noise")
    t = sched._check_t(t)
    beta = sched.beta(t)
    mean = (C_t.values - beta / math.sqrt(1.0 - sched.alpha_bar(t)) * eps_hat.values)
    mean /= math.sqrt(sched.alpha(t))
    sigma = sched.sigma(t)
    out = mean if sigma == 0.0 else mean + sigma * noise.values
    return C_t.with_values(out)


class DenoiserInterface:
    """predict_eps(C_t, t, z) -> Volume3 of the same dims, deterministic.

    Implementations may also provide predict_eps_grad_z(C_t, t, z, eps)
    -> (eps_hat, grad) where grad is the derivative of the voxel-mean
    squared error ||eps_hat - eps||^2 / V with respect to z.
    """

    def predict_eps(self, C_t: Volume3, t: int, z=None) -> Volume3:
        raise NotImplementedError


class GaussianMixtureOracle(DenoiserInterface):
    """Exact Bayes eps-predictor when C0 is drawn from a finite weighted set.

    Posterior over components given C_t (all in log-space):
        log w_k = log pi_k - ||C_t - sqrt(abar_t) X_k||^2 / (2 (1 - abar_t))
                  [- ||z - a_k||^2 / (2 tau^2) when z is given]
    then E[C0 | C_t] = sum_k w_k X_k and
        eps_hat = (C_t - sqrt(abar_t) E[C0 | C_t]) / sqrt(1 - abar_t).
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

    def _logits(self, C_t: Volume3, t: int, z) -> np.ndarray:
        ab = self.sched.alpha_bar(t)
        diff = C_t.values[None] - math.sqrt(ab) * self.stack
        d2 = np.einsum("kijl,kijl->k", diff, diff)
        logits = np.log(self.weights) - d2 / (2.0 * (1.0 - ab))
        if z is not None:
            if self.anchors is None:
                raise ValidationError("conditional query but oracle has no anchors")
            dz = np.asarray(z, dtype=np.float64) - self.anchors
            logits = logits - np.einsum("kl,kl->k", dz, dz) / (2.0 * self.tau ** 2)
        return logits

    def _check_query(self, C_t: Volume3) -> None:
        if self.sched is None:
            raise ValidationError("oracle has no schedule bound")
        if C_t.dims != self.dims:
            raise ShapeMismatchError(f"dims {C_t.dims} vs components {self.dims}")

    def posterior_weights(self, C_t: Volume3, t: int, z=None) -> np.ndarray:
        self._check_query(C_t)
        logits = self._logits(C_t, t, z)
        logits = logits - logits.max()
        w = np.exp(logits)
        return w / w.sum()

    def _posterior_eps(self, C_t: Volume3, t: int, z):
        """(eps_hat values, posterior weights, sqrt(abar_t), sqrt(1 - abar_t)).

        At abar_t = 1 (t = 0) no noise is present: eps_hat is zero and the
        weights are None.
        """
        self._check_query(C_t)
        ab = self.sched.alpha_bar(t)
        if ab >= 1.0:
            return np.zeros(self.dims), None, 1.0, 0.0
        w = self.posterior_weights(C_t, t, z)
        expect = np.einsum("k,kijl->ijl", w, self.stack)
        root_ab = math.sqrt(ab)
        root_1mab = math.sqrt(1.0 - ab)
        return (C_t.values - root_ab * expect) / root_1mab, w, root_ab, root_1mab

    def predict_eps(self, C_t: Volume3, t: int, z=None) -> Volume3:
        return C_t.with_values(self._posterior_eps(C_t, t, z)[0])

    def predict_eps_grad_z(self, C_t: Volume3, t: int, z, eps: Volume3):
        """(eps_hat, d/dz of voxel-mean ||eps_hat - eps||^2)."""
        if z is None or self.anchors is None:
            raise ValidationError("gradient requires z and anchors")
        eps_hat, w, root_ab, root_1mab = self._posterior_eps(C_t, t, z)
        if w is None:
            return C_t.with_values(eps_hat), np.zeros(len(np.asarray(z)))
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
    """Evenly spaced decreasing steps from T to 1 (default T // 10 of them)."""
    count = count if count is not None else max(2, T // 10)
    count = max(2, min(int(count), T))
    steps = np.unique(np.round(np.linspace(1, T, count)).astype(np.int64))
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


def _ancestral_step(denoiser: DenoiserInterface, sched: NoiseSchedule,
                    C_t: Volume3, t: int, z, rng_seed: int, chain: str) -> Volume3:
    """One ancestral reverse step of the chain named ``chain``; its noise is
    the ``(rng_seed, "chain", chain, "step", t)`` stream, zero at t = 1."""
    eps_hat = denoiser.predict_eps(C_t, t, z)
    if t > 1:
        noise = rng_mod.stream(rng_seed, "chain", chain, "step", t)\
            .standard_normal(C_t.dims)
    else:
        noise = np.zeros(C_t.dims)
    return p_step(C_t, t, eps_hat, C_t.with_values(noise), sched)


def sample(denoiser: DenoiserInterface, sched: NoiseSchedule,
           dims: tuple[int, int, int], rng_seed: int, z=None,
           step_subset=None) -> Volume3:
    """Reverse-process sampling from pure noise.

    Without a subset: T stochastic ancestral (DDPM) steps.  With a strictly
    decreasing subset ending at 1: deterministic (eta = 0) subsequence
    updates.  Identical inputs give bit-identical outputs.
    """
    init = rng_mod.stream(rng_seed, "init").standard_normal(dims)
    C = Volume3(init)
    if step_subset is None:
        chain = chain_stream_name(z)
        for t in range(sched.T, 0, -1):
            C = _ancestral_step(denoiser, sched, C, t, z, rng_seed, chain)
        return C
    subset = _validate_subset(step_subset, sched.T)
    for i, t in enumerate(subset):
        eps_hat = denoiser.predict_eps(C, t, z)
        ab = sched.alpha_bar(t)
        x0 = (C.values - math.sqrt(1.0 - ab) * eps_hat.values) / math.sqrt(ab)
        if i + 1 < len(subset):
            ab_prev = sched.alpha_bar(subset[i + 1])
            C = C.with_values(math.sqrt(ab_prev) * x0
                              + math.sqrt(1.0 - ab_prev) * eps_hat.values)
        else:
            C = C.with_values(x0)
    return C


def training_loss(denoiser: DenoiserInterface, C0: Volume3,
                  sched: NoiseSchedule, rng: np.random.Generator, z=None,
                  t: int | None = None, eps: Volume3 | None = None) -> float:
    """Voxel-mean squared eps-prediction error at a random (or fixed) step."""
    if t is None:
        t = int(rng.integers(1, sched.T + 1))
    else:
        t = sched._check_t(t)
    if eps is None:
        eps = C0.with_values(rng.standard_normal(C0.dims))
    _require_same_dims(C0, eps, "training_loss")
    C_t = q_sample(C0, t, eps, sched)
    eps_hat = denoiser.predict_eps(C_t, t, z)
    return float(np.mean((eps.values - eps_hat.values) ** 2))


# ---------------------------------------------------------------------------
# Oracle corpus directory (WSV1 volumes + JSON manifest)


def write_oracle_corpus(dir_path, oracle: GaussianMixtureOracle,
                        details=None, dims_table=None,
                        bank_name: str | None = None) -> None:
    """Persist the oracle's components; optionally also one detail volume per
    component plus the size table and filter-bank name needed to rebuild
    full-resolution fields from generated coarse volumes."""
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    if details is not None and len(details) != len(oracle.volumes):
        raise ValidationError("one detail volume per component required")
    entries = []
    for k, vol in enumerate(oracle.volumes):
        name = f"component_{k:03d}.wsv1"
        write_wsv1(d / name, vol)
        entry = {
            "path": name,
            "weight": float(oracle.weights[k]),
            "anchor": (None if oracle.anchors is None
                       else [float(x) for x in oracle.anchors[k]]),
        }
        if details is not None:
            detail_name = f"detail_{k:03d}.wsv1"
            write_wsv1(d / detail_name, details[k])
            entry["detail_path"] = detail_name
        entries.append(entry)
    payload = {"tau": oracle.tau, "components": entries}
    if dims_table is not None:
        payload["reconstruction"] = {
            "dims_table": [list(int(x) for x in dims) for dims in dims_table],
            "bank": bank_name,
        }
    write_json(d / "corpus.json", payload)


def read_oracle_corpus(dir_path, sched: NoiseSchedule | None = None):
    """Read a corpus directory, each volume once.

    Returns ``(oracle, details, dims_table, bank)``: the mixture oracle over
    the stored components, then the per-component detail volumes, the size
    table and the filter-bank name needed for reconstruction, each None when
    the corpus does not store it.
    """
    d = Path(dir_path)
    manifest = read_json(d / "corpus.json")
    comps, anchors, details = [], [], []
    dims_table = bank = None
    try:
        tau = float(manifest["tau"])
        for e in manifest["components"]:
            comps.append((float(e["weight"]), read_volume(d / e["path"])))
            anchors.append(e.get("anchor"))
            if e.get("detail_path"):
                details.append(read_volume(d / e["detail_path"]))
        has_anchors = all(a is not None for a in anchors) and anchors
        anchors = np.array(anchors, dtype=np.float64) if has_anchors else None
        recon = manifest.get("reconstruction")
        if recon:
            dims_table = [tuple(int(x) for x in dims)
                          for dims in recon["dims_table"]]
            bank = recon.get("bank")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"corpus manifest malformed: {exc!r}") from exc
    if details and len(details) != len(comps):
        raise ValidationError("corpus stores detail volumes for only some components")
    oracle = GaussianMixtureOracle(comps, anchors=anchors, tau=tau, sched=sched)
    return oracle, tuple(details) or None, dims_table, bank
