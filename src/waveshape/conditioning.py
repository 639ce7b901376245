"""Latent codes, encoders, detail predictors, and shape-guided latent
refinement against the diffusion training objective."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as rng_mod
from .diffusion import (DenoiserInterface, NoiseSchedule, make_linear_schedule,
                        q_sample, read_oracle_corpus, sample)
from .errors import NumericalError, ShapeMismatchError, ValidationError
from .formats import read_json, write_json
from .grid import Volume3

DEFAULT_LATENT_LENGTH = 256


@dataclass(frozen=True)
class LatentCode:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValidationError("latent code must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype=dtype)


def as_latent(z) -> LatentCode:
    return z if isinstance(z, LatentCode) else LatentCode(np.asarray(z))


def write_latent(path, z) -> None:
    z = as_latent(z)
    write_json(path, {"length": len(z), "values": [float(x) for x in z.values]})


def read_latent(path) -> LatentCode:
    payload = read_json(path)
    try:
        values = payload["values"]
        length = int(payload["length"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"latent file malformed: {exc}") from exc
    if len(values) != length:
        raise ValidationError("latent file length field disagrees with values")
    return LatentCode(np.asarray(values, dtype=np.float64))


class EncoderInterface:
    """encode(C0) -> LatentCode; deterministic."""

    def encode(self, C0: Volume3) -> LatentCode:
        raise NotImplementedError


class PoolProjectEncoder(EncoderInterface):
    """Average-pool to a small grid, then apply a fixed seeded projection
    with orthonormal rows.  Linear and deterministic by construction."""

    def __init__(self, latent_length: int = DEFAULT_LATENT_LENGTH,
                 pool: int = 8, seed: int = 0):
        pooled = pool ** 3
        if latent_length > pooled:
            raise ValidationError(
                f"latent length {latent_length} exceeds pooled size {pooled}")
        self.pool = pool
        self.seed = int(seed)
        self.latent_length = int(latent_length)
        g = rng_mod.stream(self.seed, "encoder").standard_normal((pooled, latent_length))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diagonal(r))[None, :]  # fix QR sign freedom
        self.projection = np.ascontiguousarray(q.T)  # (L, pooled), orthonormal rows
        self.projection.setflags(write=False)

    def _pool(self, values: np.ndarray) -> np.ndarray:
        out = values
        for axis in range(3):
            n = out.shape[axis]
            if n < self.pool:
                raise ValidationError(
                    f"volume dim {n} smaller than pooling grid {self.pool}")
            bounds = (np.arange(self.pool + 1) * n) // self.pool
            sums = np.add.reduceat(out, bounds[:-1], axis=axis)
            counts = np.diff(bounds).astype(np.float64)
            shape = [1, 1, 1]
            shape[axis] = self.pool
            out = sums / counts.reshape(shape)
        return out

    def encode(self, C0: Volume3) -> LatentCode:
        pooled = self._pool(C0.values).reshape(-1)
        return LatentCode(self.projection @ pooled)


class DetailPredictorInterface:
    """predict(C0) -> detail volume at the paired resolution."""

    def predict(self, C0: Volume3) -> Volume3:
        raise NotImplementedError


class NearestDetailPredictor(DetailPredictorInterface):
    """Returns the stored detail of the nearest training coarse volume."""

    def __init__(self, pairs):
        if not pairs:
            raise ValidationError("predictor needs at least one (C, D) pair")
        coarse = [c for c, _ in pairs]
        details = [d for _, d in pairs]
        cdims = coarse[0].dims
        ddims = details[0].dims
        for c, d in pairs:
            if c.dims != cdims or d.dims != ddims:
                raise ShapeMismatchError("all training pairs must share dims")
        self.coarse_stack = np.stack([c.values for c in coarse])
        self.details = tuple(details)
        self.coarse_dims = cdims

    def predict(self, C0: Volume3) -> Volume3:
        if C0.dims != self.coarse_dims:
            raise ShapeMismatchError(
                f"dims {C0.dims} vs training {self.coarse_dims}")
        diff = self.coarse_stack - C0.values[None]
        d2 = np.einsum("kijl,kijl->k", diff, diff)
        return self.details[int(np.argmin(d2))]


# ---------------------------------------------------------------------------
# Shape-guided refinement


def _loss_and_grad(denoiser, C_t: Volume3, t: int, z: np.ndarray,
                   eps: Volume3, sched: NoiseSchedule,
                   fd_step: float = 1e-3):
    grad_op = getattr(denoiser, "predict_eps_grad_z", None)
    if grad_op is not None:
        eps_hat, grad = grad_op(C_t, t, z, eps)
        loss = float(np.mean((eps_hat.values - eps.values) ** 2))
        return loss, np.asarray(grad, dtype=np.float64)

    def loss_at(zz) -> float:
        eh = denoiser.predict_eps(C_t.values[None], t, [zz])[0]
        return float(np.mean((eh - eps.values) ** 2))

    loss = loss_at(z)
    grad = np.zeros(len(z))
    for i in range(len(z)):
        zp = z.copy()
        zp[i] += fd_step
        zm = z.copy()
        zm[i] -= fd_step
        grad[i] = (loss_at(zp) - loss_at(zm)) / (2.0 * fd_step)
    return loss, grad


def refine_latent(C0: Volume3, z_init, denoiser: DenoiserInterface,
                  sched: NoiseSchedule, iters: int = 400, lr: float = 5e-2,
                  rng: np.random.Generator | None = None):
    """Minimize the eps-prediction objective over z with the model frozen.

    Each iteration draws a fresh (t, eps) pair from the given stream and
    takes one adaptive-moment step (beta1 0.9, beta2 0.999, eps 1e-8).
    Returns the refined code and the per-iteration loss trace.
    """
    if iters < 0:
        raise ValidationError("iters must be >= 0")
    z = as_latent(z_init).values.copy()
    if rng is None:
        rng = rng_mod.stream(0, "refine")
    trace = np.zeros(iters)
    m = np.zeros_like(z)
    v = np.zeros_like(z)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    for i in range(iters):
        t = int(rng.integers(1, sched.T + 1))
        eps = C0.with_values(rng.standard_normal(C0.dims))
        C_t = q_sample(C0, t, eps, sched)
        loss, grad = _loss_and_grad(denoiser, C_t, t, z, eps, sched)
        if not math.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise NumericalError(
                f"non-finite refinement loss at iteration {i}; "
                f"trace so far: {trace[:i].tolist()}")
        trace[i] = loss
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1 ** (i + 1))
        v_hat = v / (1.0 - beta2 ** (i + 1))
        z = z - lr * m_hat / (np.sqrt(v_hat) + adam_eps)
    return LatentCode(z), trace


def loss_trace_ema(trace: np.ndarray, window: int = 50) -> np.ndarray:
    """Exponential moving average with decay 2/(window+1)."""
    trace = np.asarray(trace, dtype=np.float64)
    if len(trace) == 0:
        return trace
    alpha = 2.0 / (window + 1.0)
    out = np.empty_like(trace)
    acc = trace[0]
    for i, x in enumerate(trace):
        acc = alpha * x + (1.0 - alpha) * acc
        out[i] = acc
    return out


def trace_to_csv(trace: np.ndarray, path) -> None:
    lines = ["iteration,loss"]
    for i, x in enumerate(trace):
        lines.append(f"{i},{x:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def invert(C0: Volume3, encoder: EncoderInterface, denoiser: DenoiserInterface,
           sched: NoiseSchedule, refine: bool = True, rng_seed: int = 0,
           iters: int = 400, lr: float = 5e-2):
    """Encode, optionally refine, then draw the conditional sample.

    Returns (latent code, inverted coarse volume, loss trace); the trace is
    empty when refinement is off.
    """
    z = encoder.encode(C0)
    trace = np.zeros(0)
    if refine:
        z, trace = refine_latent(
            C0, z, denoiser, sched, iters=iters, lr=lr,
            rng=rng_mod.stream(rng_seed, "refine"))
    vol = sample(denoiser, sched, C0.dims, [rng_seed], [z.values])[0]
    return z, C0.with_values(vol), trace


def interpolate_latent(zA, zB, alpha: float) -> LatentCode:
    za = as_latent(zA).values
    zb = as_latent(zB).values
    if len(za) != len(zb):
        raise ShapeMismatchError(f"latent lengths {len(za)} vs {len(zb)}")
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha {alpha} outside [0, 1]")
    return LatentCode((1.0 - alpha) * za + alpha * zb)


# ---------------------------------------------------------------------------
# Model manifest: everything needed to rebuild the generative stack


def write_model_manifest(path, *, encoder_seed: int, latent_length: int,
                         corpus_path: str, tau: float, T: int,
                         beta_start: float, beta_end: float,
                         encoder_kind: str = "pool-project",
                         pool: int = 8) -> None:
    write_json(path, {
        "encoder": {"kind": encoder_kind, "seed": int(encoder_seed),
                    "pool": int(pool)},
        "latent_length": int(latent_length),
        "corpus": corpus_path,
        "tau": float(tau),
        "schedule": {"T": int(T), "beta_start": float(beta_start),
                     "beta_end": float(beta_end)},
    })


@dataclass(frozen=True)
class ModelBundle:
    """The generative stack of a model manifest.  The detail predictor, size
    table and filter-bank name are None when the corpus does not store the
    reconstruction data."""

    encoder: EncoderInterface
    denoiser: DenoiserInterface
    sched: NoiseSchedule
    latent_length: int
    manifest_digest: str
    detail_predictor: DetailPredictorInterface | None = None
    dims_table: list | None = None
    bank_name: str | None = None


def load_model(manifest_path) -> ModelBundle:
    path = Path(manifest_path)
    payload = read_json(path)
    try:
        enc = payload["encoder"]
        if enc["kind"] != "pool-project":
            raise ValidationError(f"unknown encoder kind {enc['kind']!r}")
        latent_length = int(payload["latent_length"])
        encoder = PoolProjectEncoder(latent_length, int(enc.get("pool", 8)),
                                     int(enc["seed"]))
        sp = payload["schedule"]
        sched = make_linear_schedule(int(sp["T"]), float(sp["beta_start"]),
                                     float(sp["beta_end"]))
        corpus_dir = path.parent / payload["corpus"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"model manifest malformed: {exc}") from exc
    oracle, details, dims_table, bank = read_oracle_corpus(corpus_dir, sched=sched)
    predictor = (None if details is None
                 else NearestDetailPredictor(list(zip(oracle.volumes, details))))
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = rng_mod.digest_bytes(canonical.encode())
    return ModelBundle(encoder, oracle, sched, latent_length, digest,
                       predictor, dims_table, bank)
