"""The three workloads: their model, their seeded inputs, one operation each,
and the reference checks run on every operation's artifacts.

An operation is a fixed sequence of ``waveshape.cli.main(argv)`` calls.  Set-up
(``build()``: the model, the input shapes and meshes) uses the library
directly; only the operations are timed.  Constructing a workload only derives
its seeded descriptions, so a process can reuse inputs that another one built.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

import refcheck

MODEL_RES = 128
MODEL_LEVELS = 2
MODEL_BANK = "bior-6.8"
MODEL_T = 1000
MODEL_BETAS = (1e-4, 0.02)  # linear schedule: first and last beta
MODEL_TAU = 0.25
MODEL_LATENT = 32
ENCODER_SEED = 11

# The model's eight analytic components, in corpus order.
SHAPES = [
    {"kind": "sphere", "center": [0.0, 0.0, 0.0], "radius": 0.55},
    {"kind": "box", "center": [0.0, 0.0, 0.0], "half_extents": [0.45, 0.45, 0.45]},
    {"kind": "torus", "center": [0.0, 0.0, 0.0], "major_radius": 0.5,
     "minor_radius": 0.22},
    {"kind": "capsule", "a": [-0.45, 0.0, 0.0], "b": [0.45, 0.0, 0.0],
     "radius": 0.3},
    {"kind": "union", "children": [
        {"kind": "sphere", "center": [-0.3, 0.0, 0.0], "radius": 0.4},
        {"kind": "sphere", "center": [0.35, 0.0, 0.0], "radius": 0.35}]},
    {"kind": "union", "children": [
        {"kind": "box", "center": [0.0, 0.0, -0.3], "half_extents": [0.5, 0.5, 0.15]},
        {"kind": "sphere", "center": [0.0, 0.0, 0.2], "radius": 0.35}]},
    {"kind": "subtract",
     "a": {"kind": "box", "center": [0.0, 0.0, 0.0], "half_extents": [0.5, 0.5, 0.5]},
     "b": {"kind": "sphere", "center": [0.0, 0.0, 0.5], "radius": 0.45}},
    {"kind": "box", "center": [0.0, 0.0, 0.0], "half_extents": [0.7, 0.25, 0.35]},
]

# edit: which components shapes A and B are built from.
EDIT_A, EDIT_B = 1, 2
EDIT_REFINE_ITERS = 400
EDIT_FRAMES = 3
# geometry: grid of the meshes fed to prepare --obj, eval and novelty
# (about 2-3k triangles each), and the sizes of eval and novelty.
MESH_RES = 36
OBJ_SCENE = 5
SCENE_INDEX = 4
EVAL_SHAPES = 8
EVAL_SAMPLES = 2048
TRAIN_SHAPES = (0, 1, 2, 3)
QUERY_COPY = 2
# Inputs are the model shapes translated by up to this much per axis.
JITTER = 0.03


def translated(node: dict, offset) -> dict:
    node = copy.deepcopy(node)

    def shift(n):
        for key in ("center", "a", "b"):
            if key in n and isinstance(n[key], list):
                n[key] = [float(x + d) for x, d in zip(n[key], offset)]
        for key in ("a", "b"):
            if isinstance(n.get(key), dict):
                shift(n[key])
        for child in n.get("children", []):
            shift(child)

    shift(node)
    return node


def jittered(index: int, rng: np.random.Generator) -> dict:
    return translated(SHAPES[index], rng.uniform(-JITTER, JITTER, 3))


def write_scene_json(path, scene: dict) -> None:
    Path(path).write_text(json.dumps(scene, indent=2, sort_keys=True) + "\n")


def build_model(root: Path) -> Path:
    """Corpus of the eight shapes at 128^3, J = 2, and its manifest."""
    from waveshape.conditioning import PoolProjectEncoder, write_model_manifest
    from waveshape.diffusion import (GaussianMixtureOracle, make_linear_schedule,
                                     write_oracle_corpus)
    from waveshape.tsdf import sample_tsdf, scene_from_dict
    from waveshape.wavelet import get_bank, pyramid_decompose

    bank = get_bank(MODEL_BANK)
    encoder = PoolProjectEncoder(MODEL_LATENT, pool=8, seed=ENCODER_SEED)
    coarse, details, dims_table = [], [], None
    for scene in SHAPES:
        pyr = pyramid_decompose(sample_tsdf(scene_from_dict(scene), MODEL_RES),
                                J=MODEL_LEVELS, bank=bank)
        coarse.append(pyr.coarse)
        details.append(pyr.details[0])
        dims_table = pyr.dims_table
    anchors = np.stack([encoder.encode(c).values for c in coarse])
    sched = make_linear_schedule(MODEL_T, *MODEL_BETAS)
    weights = [1.0 / len(SHAPES)] * len(SHAPES)
    oracle = GaussianMixtureOracle(list(zip(weights, coarse)), anchors=anchors,
                                   tau=MODEL_TAU, sched=sched)
    write_oracle_corpus(root / "corpus", oracle, details=details,
                        dims_table=dims_table, bank_name=MODEL_BANK)
    manifest = root / "model.json"
    write_model_manifest(manifest, encoder_seed=ENCODER_SEED,
                         latent_length=MODEL_LATENT, corpus_path="corpus",
                         tau=MODEL_TAU, T=MODEL_T, beta_start=MODEL_BETAS[0],
                         beta_end=MODEL_BETAS[1], pool=8)
    return manifest


def corpus_components(model: Path) -> list:
    corpus = model.parent / "corpus"
    entries = refcheck.read_json(corpus / "corpus.json")["components"]
    return [refcheck.read_wsv1(corpus / e["path"])[0] for e in entries]


def write_mesh(path, scene: dict, res: int) -> None:
    from waveshape.surface import marching_cubes
    from waveshape.tsdf import sample_tsdf, scene_from_dict, write_obj
    write_obj(path, marching_cubes(sample_tsdf(scene_from_dict(scene), res)))


class Workload:
    """``build()`` writes the model and inputs under ``root``; ``steps(i,
    out)`` gives the CLI argument lists of operation ``i``; ``check(i, out)``
    verifies its artifacts.  Operation ``i`` of a seed is the same on every
    run."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.inputs = root / "inputs"
        self.model = root / "model" / "model.json"

    def build(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)

    def op_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    @property
    def components(self) -> list:
        if not hasattr(self, "_components"):
            self._components = corpus_components(self.model)
        return self._components


class Generate(Workload):
    COUNT = 4

    def build(self):
        super().build()
        build_model(self.model.parent)

    def steps(self, i, out):
        return [["generate", "--model", str(self.model), "--seed",
                 str(self.op_seed(i)), "--count", str(self.COUNT),
                 "--out", str(out)]]

    def check(self, i, out):
        voxel = 2.0 / MODEL_RES
        for k in range(self.COUNT):
            comp = refcheck.check_coarse_sample(
                out / f"sample_{k:03d}_coarse.wsv1", self.components)
            refcheck.check_closed(out / f"sample_{k:03d}.obj")
            refcheck.check_on_surface(out / f"sample_{k:03d}.obj",
                                      SHAPES[comp], voxel)


class Edit(Workload):
    def __init__(self, root, seed):
        super().__init__(root, seed)
        rng = np.random.default_rng([seed, 1])
        self.scenes = {name: jittered(index, rng)
                       for name, index in (("a", EDIT_A), ("b", EDIT_B))}

    def build(self):
        super().build()
        from waveshape.formats import write_wsv1
        from waveshape.grid import RegionMask3
        from waveshape.tsdf import sample_tsdf, scene_from_dict

        build_model(self.model.parent)
        for name, scene in self.scenes.items():
            write_wsv1(self.inputs / f"shape_{name}.wsv1",
                       sample_tsdf(scene_from_dict(scene), MODEL_RES))
        bits = np.zeros(self.components[0].shape, dtype=bool)
        bits[bits.shape[0] // 2:] = True  # chain B supplies the +x half
        write_wsv1(self.inputs / "mask.wsv1", RegionMask3(bits))

    def steps(self, i, out):
        s = self.op_seed(i)
        m = str(self.model)
        plan = {"mode": "replacement", "mask": str(self.inputs / "mask.wsv1"),
                "z_a": str(out / "inv_a" / "latent.json"),
                "z_b": str(out / "inv_b" / "latent.json"),
                "delta_t": 10, "harmonize_repeats": 10, "alphas": [0.5],
                "seed": s}
        plan_path = self.inputs / f"plan_{out.name}.json"
        plan_path.write_text(json.dumps(plan, indent=2, sort_keys=True) + "\n")
        invert = [["invert", "--input", str(self.inputs / f"shape_{n}.wsv1"),
                   "--model", m, "--refine-iters", str(EDIT_REFINE_ITERS),
                   "--seed", str(s), "--out", str(out / f"inv_{n}")]
                  for n in ("a", "b")]
        return invert + [
            ["manipulate", "--plan", str(plan_path), "--model", m,
             "--out", str(out / "manip")],
            ["interpolate", "--za", str(out / "inv_a" / "latent.json"),
             "--zb", str(out / "inv_b" / "latent.json"),
             "--steps", str(EDIT_FRAMES), "--model", m, "--seed", str(s),
             "--out", str(out / "interp")],
        ]

    def check(self, i, out):
        voxel = 2.0 / MODEL_RES
        for n, index in (("a", EDIT_A), ("b", EDIT_B)):
            refcheck.check_inverted(out / f"inv_{n}" / "inverted_coarse.wsv1",
                                    self.components, index)
            refcheck.check_refine_trace(
                out / f"inv_{n}" / "refine_trace.csv", EDIT_REFINE_ITERS,
                self.op_seed(i), self.components[0].shape,
                refcheck.linear_alpha_bars(MODEL_T, *MODEL_BETAS))
        refcheck.check_boundary(out / "manip" / "boundary_comparison.json")
        refcheck.check_on_surface(out / "interp" / "frame_000.obj",
                                  SHAPES[EDIT_A], voxel)
        refcheck.check_on_surface(
            out / "interp" / f"frame_{EDIT_FRAMES - 1:03d}.obj",
            SHAPES[EDIT_B], voxel)


class Geometry(Workload):
    def __init__(self, root, seed):
        super().__init__(root, seed)
        rng = np.random.default_rng([seed, 2])
        self.obj_scene = jittered(OBJ_SCENE, rng)
        self.scene = jittered(SCENE_INDEX, rng)
        self.meshes = {f"{set_name}/{set_name}_{k}.obj": jittered(k, rng)
                       for set_name in ("gen", "ref")
                       for k in range(EVAL_SHAPES)}
        self.meshes.update({f"train/train_{k}.obj": jittered(k, rng)
                            for k in TRAIN_SHAPES})
        self.query_name = f"train_{TRAIN_SHAPES[QUERY_COPY]}.obj"

    def build(self):
        super().build()
        write_mesh(self.inputs / "source.obj", self.obj_scene, MESH_RES)
        write_scene_json(self.inputs / "scene.json", self.scene)
        for sub in ("gen", "ref", "train", "query"):
            (self.inputs / sub).mkdir(exist_ok=True)
        for rel, scene in self.meshes.items():
            write_mesh(self.inputs / rel, scene, MESH_RES)
        (self.inputs / "query" / "copy.obj").write_bytes(
            (self.inputs / "train" / self.query_name).read_bytes())

    def steps(self, i, out):
        s = str(self.op_seed(i))
        return [
            ["prepare", "--obj", str(self.inputs / "source.obj"), "--res", "64",
             "--out", str(out / "prep_obj")],
            ["prepare", "--scene", str(self.inputs / "scene.json"), "--res",
             "128", "--levels", "3", "--out", str(out / "prep_scene")],
            ["eval", "--generated", str(self.inputs / "gen"), "--reference",
             str(self.inputs / "ref"), "--samples", str(EVAL_SAMPLES),
             "--seed", s, "--out", str(out / "eval")],
            ["novelty", "--generated", str(self.inputs / "query"), "--train",
             str(self.inputs / "train"), "--k", str(len(TRAIN_SHAPES)),
             "--seed", s, "--out", str(out / "novelty")],
        ]

    def check(self, i, out):
        refcheck.check_scene_tsdf(out / "prep_scene" / "tsdf.wsv1", self.scene)
        refcheck.check_retained(out / "prep_scene" / "compactness.json")
        refcheck.check_mesh_tsdf_sign(out / "prep_obj" / "tsdf.wsv1",
                                      self.inputs / "source.obj",
                                      self.obj_scene, 2.0 / MESH_RES)
        refcheck.check_set_metrics(out / "eval" / "metrics.json",
                                   self.inputs / "gen", self.inputs / "ref")
        refcheck.check_self_retrieval(out / "novelty" / "novelty.json",
                                      self.query_name)


WORKLOADS = {"generate": Generate, "edit": Edit, "geometry": Geometry}
NAMES = tuple(WORKLOADS)
