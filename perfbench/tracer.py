"""Per-layer calls and self time, recorded from outside the program.

``Tracer.install()`` replaces every public function of each ``waveshape``
module (and the few methods and private hooks listed in ``METHODS`` and
``HOOKS``) with a wrapper that counts calls and self time: the call's
duration minus the wrapped calls inside it.  The recorder's own bookkeeping
(volume paths, cloud digests, counters) is kept out of every self time.
Module attributes are patched wherever the original object is bound, so
``from .x import f`` call sites are traced too.  The recorder keeps one call stack, so it assumes one thread
(the benchmark sets ``WAVESHAPE_THREADS=1``).
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("formats", "grid", "rng", "tsdf", "wavelet", "diffusion",
           "conditioning", "manipulation", "surface", "metrics")
# Methods that carry a layer's work, under the metric names they report as.
METHODS = {
    ("diffusion", "GaussianMixtureOracle", "predict_eps"): "diffusion.predict_eps",
    ("diffusion", "GaussianMixtureOracle", "predict_eps_grad_z"):
        "conditioning.predict_eps_grad_z",
    ("conditioning", "NearestDetailPredictor", "predict"):
        "conditioning.detail_predict",
}
# Private functions whose calls mark an event: each _combine is one splice.
HOOKS = {("manipulation", "_combine"): "manipulation.splice"}

# (metric, unit, how it is derived from the per-operation totals)
LAYER_METRICS = [
    ("cli.load.s", "s", ("self", "conditioning.load_model",
                         "diffusion.read_oracle_corpus",
                         "diffusion.read_corpus_payload")),
    ("formats.read_volume.calls", "count", ("calls", "formats.read_volume")),
    ("formats.read_volume.s", "s", ("self", "formats.read_volume",
                                    "formats.read_wsv1")),
    ("formats.distinct_read_ratio", "ratio",
     ("ratio", "formats.distinct_volumes", "formats.read_volume")),
    ("formats.write.s", "s", ("self", "formats.write_wsv1", "formats.write_json")),
    ("formats.bytes_written", "B", ("counter", "formats.bytes_written")),
    ("tsdf.sample_tsdf_mesh.s", "s", ("self", "tsdf.sample_tsdf[mesh]")),
    ("tsdf.sample_tsdf_analytic.s", "s", ("self", "tsdf.sample_tsdf[analytic]")),
    ("tsdf.mesh_triangles", "count", ("counter", "tsdf.mesh_triangles")),
    ("tsdf.read_obj.s", "s", ("self", "tsdf.read_obj")),
    ("tsdf.write_obj.s", "s", ("self", "tsdf.write_obj")),
    ("wavelet.pyramid_decompose.s", "s", ("self", "wavelet.pyramid_decompose")),
    ("wavelet.pyramid_decompose.calls", "count",
     ("calls", "wavelet.pyramid_decompose")),
    ("wavelet.reconstruct_truncated.s", "s",
     ("self", "wavelet.reconstruct_truncated")),
    ("wavelet.reconstruct_truncated.calls", "count",
     ("calls", "wavelet.reconstruct_truncated")),
    ("diffusion.sample.calls", "count", ("calls", "diffusion.sample")),
    ("diffusion.sample.s", "s", ("self", "diffusion.sample")),
    ("diffusion.predict_eps.calls", "count", ("calls", "diffusion.predict_eps")),
    ("diffusion.predict_eps.s", "s", ("self", "diffusion.predict_eps",
                                      "diffusion.oracle_predict_eps")),
    ("diffusion.p_step.s", "s", ("self", "diffusion.p_step")),
    ("rng.stream.calls", "count", ("calls", "rng.stream")),
    ("conditioning.refine_latent.s", "s", ("self", "conditioning.refine_latent")),
    ("conditioning.predict_eps_grad_z.calls", "count",
     ("calls", "conditioning.predict_eps_grad_z")),
    ("conditioning.detail_predict.s", "s", ("self", "conditioning.detail_predict")),
    ("manipulation.manipulate.s", "s", ("self", "manipulation.manipulate")),
    ("manipulation.harmonize.calls", "count", ("calls", "manipulation.harmonize")),
    ("manipulation.harmonize.s", "s", ("self", "manipulation.harmonize")),
    ("manipulation.harmonize_ratio", "ratio",
     ("ratio", "manipulation.harmonize", "manipulation.splice")),
    ("surface.marching_cubes.calls", "count", ("calls", "surface.marching_cubes")),
    ("surface.marching_cubes.s", "s", ("self", "surface.marching_cubes")),
    ("surface.triangles_out", "count", ("counter", "surface.triangles_out")),
    ("metrics.silhouette_descriptors.calls", "count",
     ("calls", "metrics.silhouette_descriptors")),
    ("metrics.silhouette_descriptors.s", "s",
     ("self", "metrics.silhouette_descriptors")),
    ("metrics.triangles_rendered", "count", ("counter", "metrics.triangles_rendered")),
    ("metrics.chamfer.calls", "count", ("calls", "metrics.chamfer")),
    ("metrics.chamfer.s", "s", ("self", "metrics.chamfer")),
    ("metrics.chamfer_pair_ratio", "ratio",
     ("ratio", "metrics.distinct_pairs", "metrics.chamfer")),
    ("metrics.set_metrics.s", "s", ("self", "metrics.set_metrics")),
    ("metrics.sample_surface.s", "s", ("self", "metrics.sample_surface")),
    ("metrics.retrieve_topk.s", "s", ("self", "metrics.retrieve_topk")),
    ("trace.self_time_share", "ratio", ("share",)),
    ("trace.op_p50_s", "s", ("op_p50",)),
]

SILHOUETTE_VIEWS = 20


def _cloud_id(points) -> bytes:
    return hashlib.blake2s(points.tobytes(), digest_size=8).digest()


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack = []
        self._volumes = set()
        self._pairs = set()
        self._mesh_source = None

    # -- recording ---------------------------------------------------------

    def _key(self, key, args):
        if key == "tsdf.sample_tsdf":
            kind = "mesh" if isinstance(args[0], self._mesh_source) else "analytic"
            return f"{key}[{kind}]"
        return key

    def _observe(self, key, args, result):
        if key == "formats.read_volume":
            self._volumes.add(str(Path(args[0]).resolve()))
        elif key == "tsdf.sample_tsdf[mesh]":
            self.counters["tsdf.mesh_triangles"] += args[0].mesh.num_triangles
        elif key == "surface.marching_cubes":
            self.counters["surface.triangles_out"] += result.num_triangles
        elif key == "metrics.silhouette_descriptors":
            self.counters["metrics.triangles_rendered"] += \
                SILHOUETTE_VIEWS * args[0].num_triangles
        elif key == "metrics.chamfer":
            self._pairs.add(frozenset((_cloud_id(args[0]), _cloud_id(args[1]))))

    def wrap(self, key, fn):
        def traced(*args, **kwargs):
            name = self._key(key, args)
            inner = [0.0]
            self._stack.append(inner)
            start = time.perf_counter()
            stop = None
            try:
                result = fn(*args, **kwargs)
                stop = time.perf_counter()
                self._observe(name, args, result)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                # The caller's inner total takes the call and its bookkeeping,
                # so neither lands in the caller's self time.
                if self._stack:
                    self._stack[-1][0] += end - start
                self.calls[name] += 1
                took = (end if stop is None else stop) - start
                self.self_s[name] += took - inner[0]
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import waveshape  # noqa: F401  (loads every module)
        from waveshape.tsdf import MeshSdfSource
        self._mesh_source = MeshSdfSource
        mods = [m for name, m in sys.modules.items()
                if name.startswith("waveshape.")]
        swaps = {}
        for short in MODULES:
            mod = sys.modules[f"waveshape.{short}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not name.startswith("_")
                             or (short, name) in HOOKS)):
                    key = HOOKS.get((short, name), f"{short}.{name}")
                    swaps[obj] = self.wrap(key, obj)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in swaps:
                    setattr(mod, name, swaps[obj])
        for (short, cls_name, meth), key in METHODS.items():
            cls = getattr(sys.modules[f"waveshape.{short}"], cls_name)
            setattr(cls, meth, self.wrap(key, getattr(cls, meth)))

    # -- per-operation bookkeeping -----------------------------------------

    def end_operation(self, bytes_written: int) -> None:
        """Fold the per-operation sets into counters."""
        self.counters["formats.distinct_volumes"] += len(self._volumes)
        self.counters["metrics.distinct_pairs"] += len(self._pairs)
        self.counters["formats.bytes_written"] += bytes_written
        self._volumes.clear()
        self._pairs.clear()

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()
        self._volumes.clear()
        self._pairs.clear()

    def table(self) -> dict:
        """Every traced function: calls and self time, all operations."""
        return {k: {"calls": self.calls[k], "self_s": self.self_s[k]}
                for k in sorted(self.calls)}

    def layer_metrics(self, op_times) -> dict:
        n = len(op_times)
        ordered = sorted(op_times)
        mid = n // 2
        p50 = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        out = {}
        for name, unit, (how, *keys) in LAYER_METRICS:
            if how == "self":
                value = sum(self.self_s[k] for k in keys) / n
            elif how == "calls":
                value = self.calls[keys[0]] / n
            elif how == "counter":
                value = self.counters[keys[0]] / n
            elif how == "ratio":
                num, den = keys
                top = self.counters[num] if num in self.counters else self.calls[num]
                value = top / self.calls[den] if self.calls[den] else 0.0
            elif how == "share":
                value = sum(self.self_s.values()) / sum(op_times)
            else:
                value = p50
            out[name] = {"value": value, "unit": unit}
        return out
