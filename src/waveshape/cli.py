"""Command-line pipeline driver.

Every subcommand writes a ``run.json`` manifest (command line, seed, model
digest, tool version) into its output directory so a rerun with the same
arguments reproduces every artifact byte for byte.  ``WAVESHAPE_THREADS``
caps the thread pool used for meshing, ``eval`` and ``novelty``; diffusion
chains run as the rows of one batched ``sample`` call.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from . import rng as rng_mod
from .conditioning import (interpolate_latent, invert, load_model, read_latent,
                           trace_to_csv, write_latent)
from .diffusion import default_step_subset, sample
from .errors import NumericalError, ValidationError
from .formats import read_mask, read_volume, write_json, write_wsv1
from .grid import Volume3
from .manipulation import (ManipulationPlan, boundary_discontinuity, manipulate,
                           naive_mix_baseline, read_plan_file)
from .metrics import (DEFAULT_SURFACE_SAMPLES, lfd_percentiles, retrieve_topk,
                      sample_surface, set_metrics, silhouette_descriptors)
from .surface import marching_cubes
from .tsdf import (MeshSdfSource, TriangleMesh, load_scene, normalize_mesh,
                   read_obj, sample_tsdf, write_obj)
from .wavelet import (compactness_report, get_bank, pyramid_decompose,
                      pyramid_reconstruct, read_wsp1, reconstruct_truncated,
                      truncated_reconstruction_error, write_wsp1, DEFAULT_BANK)

CD_CONVENTION = "chamfer distance uses squared Euclidean distances"
LFD_CONVENTION = ("light-field distance uses fixed matched viewpoints "
                  "(no rotation minimization)")
EMD_CONVENTION = "earth mover's distance reports the mean matched distance"


def thread_count() -> int:
    env = os.environ.get("WAVESHAPE_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise ValidationError(f"WAVESHAPE_THREADS={env!r} is not an int") from exc
        if n < 1:
            raise ValidationError("WAVESHAPE_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def _map_ordered(fn, items):
    """Apply fn over items concurrently, preserving input order."""
    workers = min(thread_count(), max(len(items), 1))
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _write_run_manifest(out_dir: Path, args_list, seed=None, model_digest=None):
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "run.json", {
        "command": args_list,
        "seed": seed,
        "model_digest": model_digest,
        "tool_version": __version__,
    })


def _derive_sample_seed(seed: int, index: int) -> int:
    return int(rng_mod.stream(seed, "sample", index).integers(0, 2 ** 63 - 1))


def _load_shape_volume(path: str, res: int | None) -> Volume3:
    p = Path(path)
    if p.suffix.lower() == ".obj":
        if res is None:
            raise ValidationError("an .obj input needs --res")
        mesh = normalize_mesh(read_obj(p))
        return sample_tsdf(MeshSdfSource(mesh), res)
    return read_volume(p)


# ---------------------------------------------------------------------------
# Reconstruction pipeline shared by generate / invert / interpolate / manipulate


class _ReconContext:
    """Corpus-derived machinery for turning coarse volumes into meshes."""

    def __init__(self, manifest_path: str):
        self.bundle = load_model(manifest_path)
        self.template = self.bundle.denoiser.volumes[0]

    def to_mesh(self, coarse: Volume3) -> TriangleMesh:
        detail = self.bundle.detail_predictor.predict(coarse)
        field = reconstruct_truncated(coarse, detail, self.bundle.dims_table,
                                      get_bank(self.bundle.bank_name))
        return marching_cubes(field)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_prepare(args) -> int:
    out = Path(args.out)
    if (args.scene is None) == (args.obj is None):
        raise ValidationError("exactly one of --scene / --obj is required")
    if args.scene:
        source = load_scene(args.scene)
    else:
        source = MeshSdfSource(normalize_mesh(read_obj(args.obj)))
    tsdf = sample_tsdf(source, args.res)
    bank = get_bank(args.bank)
    pyramid = pyramid_decompose(tsdf, J=args.levels, bank=bank)
    err = truncated_reconstruction_error(pyramid, tsdf)
    report = compactness_report(pyramid, truncated_recon_error=err)
    _write_run_manifest(out, _argv_list(args))
    write_wsv1(out / "tsdf.wsv1", tsdf)
    write_wsp1(out / "pyramid.wsp1", pyramid)
    write_json(out / "compactness.json", report)
    print(f"retained fraction {report['retained_fraction']:.6f} | "
          f"truncated relative error {err:.6f}")
    return 0


def cmd_decompose(args) -> int:
    out = Path(args.out)
    tsdf = read_volume(args.input)
    pyramid = pyramid_decompose(tsdf, J=args.levels, bank=get_bank(args.bank))
    err = truncated_reconstruction_error(pyramid, tsdf)
    _write_run_manifest(out, _argv_list(args))
    write_wsp1(out / "pyramid.wsp1", pyramid)
    write_json(out / "compactness.json",
               compactness_report(pyramid, truncated_recon_error=err))
    return 0


def cmd_reconstruct(args) -> int:
    out = Path(args.out)
    pyramid = read_wsp1(args.input)
    vol = pyramid_reconstruct(pyramid)
    _write_run_manifest(out, _argv_list(args))
    write_wsv1(out / "reconstructed.wsv1", vol)
    return 0


def cmd_reconstruct_truncated(args) -> int:
    out = Path(args.out)
    pyramid = read_wsp1(args.input)
    vol = reconstruct_truncated(pyramid.coarse, pyramid.details[0],
                                pyramid.dims_table, get_bank(pyramid.bank_name))
    _write_run_manifest(out, _argv_list(args))
    write_wsv1(out / "reconstructed.wsv1", vol)
    report = {"retained_fraction":
              compactness_report(pyramid)["retained_fraction"]}
    if args.source:
        src = read_volume(args.source)
        report["truncated_recon_error"] = truncated_reconstruction_error(
            pyramid, src)
    write_json(out / "truncation.json", report)
    return 0


def cmd_generate(args) -> int:
    out = Path(args.out)
    if args.count < 1:
        raise ValidationError("--count must be >= 1")
    ctx = _ReconContext(args.model)
    sched = ctx.bundle.sched
    subset = (None if args.ddim_steps is None
              else default_step_subset(sched.T, args.ddim_steps))
    seeds = [_derive_sample_seed(args.seed, i) for i in range(args.count)]
    rows = sample(ctx.bundle.denoiser, sched, ctx.template.dims, seeds,
                  step_subset=subset)
    coarse = [ctx.template.with_values(row) for row in rows]
    meshes = _map_ordered(ctx.to_mesh, coarse)
    _write_run_manifest(out, _argv_list(args), seed=args.seed,
                        model_digest=ctx.bundle.manifest_digest)
    for i, (vol, mesh) in enumerate(zip(coarse, meshes)):
        write_wsv1(out / f"sample_{i:03d}_coarse.wsv1", vol)
        write_obj(out / f"sample_{i:03d}.obj", mesh)
    print(f"generated {args.count} samples into {out}")
    return 0


def cmd_invert(args) -> int:
    out = Path(args.out)
    ctx = _ReconContext(args.model)
    tsdf = _load_shape_volume(args.input, args.res)
    dims_table = ctx.bundle.dims_table
    if tuple(tsdf.dims) != dims_table[0]:
        raise ValidationError(
            f"input dims {tsdf.dims} do not match model resolution "
            f"{dims_table[0]}")
    bank = get_bank(ctx.bundle.bank_name)
    pyramid = pyramid_decompose(tsdf, J=len(dims_table) - 1, bank=bank)
    coarse_in = ctx.template.with_values(pyramid.coarse.values)
    z, coarse_out, trace = invert(
        coarse_in, ctx.bundle.encoder, ctx.bundle.denoiser, ctx.bundle.sched,
        refine=not args.no_refine, rng_seed=args.seed,
        iters=args.refine_iters, lr=args.refine_lr)
    mesh = ctx.to_mesh(coarse_out)
    _write_run_manifest(out, _argv_list(args), seed=args.seed,
                        model_digest=ctx.bundle.manifest_digest)
    write_latent(out / "latent.json", z)
    trace_to_csv(trace, out / "refine_trace.csv")
    write_wsv1(out / "inverted_coarse.wsv1", coarse_out)
    write_obj(out / "inverted.obj", mesh)
    return 0


def cmd_interpolate(args) -> int:
    out = Path(args.out)
    if args.steps < 2:
        raise ValidationError("--steps must be >= 2")
    ctx = _ReconContext(args.model)
    za = read_latent(args.za)
    zb = read_latent(args.zb)
    zs = [interpolate_latent(za, zb, k / (args.steps - 1)).values
          for k in range(args.steps)]
    rows = sample(ctx.bundle.denoiser, ctx.bundle.sched, ctx.template.dims,
                  [args.seed] * args.steps, zs)
    frames = [ctx.template.with_values(row) for row in rows]
    meshes = _map_ordered(ctx.to_mesh, frames)
    _write_run_manifest(out, _argv_list(args), seed=args.seed,
                        model_digest=ctx.bundle.manifest_digest)
    for k, mesh in enumerate(meshes):
        write_obj(out / f"frame_{k:03d}.obj", mesh)
    return 0


def cmd_manipulate(args) -> int:
    out = Path(args.out)
    ctx = _ReconContext(args.model)
    plan_dir = Path(args.plan).parent
    spec = read_plan_file(args.plan)
    mask = read_mask(plan_dir / spec["mask"])
    if mask.dims != ctx.template.dims:
        raise ValidationError(f"mask dims {mask.dims} do not match coarse "
                              f"dims {ctx.template.dims}")
    z_a = read_latent(plan_dir / spec["z_a"]).values if spec["z_a"] else None
    z_b = read_latent(plan_dir / spec["z_b"]).values if spec["z_b"] else None
    plan = ManipulationPlan(
        mode=spec["mode"], mask=mask, sched=ctx.bundle.sched,
        denoiser_a=ctx.bundle.denoiser, delta_t=spec["delta_t"],
        harmonize_repeats=spec["harmonize_repeats"], alphas=spec["alphas"])
    seed = spec["seed"]
    result = ctx.template.with_values(
        manipulate(z_a, z_b, plan, rng_seed=seed).values)

    chain_a, chain_b = sample(ctx.bundle.denoiser, ctx.bundle.sched,
                              ctx.template.dims, [seed, seed], [z_a, z_b])
    naive = naive_mix_baseline(ctx.template.with_values(chain_a),
                               ctx.template.with_values(chain_b), mask)
    comparison = {
        "boundary_metric_manipulated": boundary_discontinuity(result, mask),
        "boundary_metric_naive_mix": boundary_discontinuity(naive, mask),
    }
    mesh = ctx.to_mesh(result)
    naive_mesh = ctx.to_mesh(naive)
    _write_run_manifest(out, _argv_list(args), seed=seed,
                        model_digest=ctx.bundle.manifest_digest)
    write_wsv1(out / "manipulated_coarse.wsv1", result)
    write_obj(out / "manipulated.obj", mesh)
    write_wsv1(out / "naive_mix_coarse.wsv1", naive)
    write_obj(out / "naive_mix.obj", naive_mesh)
    write_json(out / "boundary_comparison.json", comparison)
    print(f"boundary metric: manipulated "
          f"{comparison['boundary_metric_manipulated']:.6g} vs naive mix "
          f"{comparison['boundary_metric_naive_mix']:.6g}")
    return 0


def _load_mesh_dir(dir_path: str):
    d = Path(dir_path)
    paths = sorted(d.glob("*.obj"))
    if not paths:
        raise ValidationError(f"no .obj meshes found in {d}")
    return paths, [read_obj(p) for p in paths]


def _dir_digest(paths) -> str:
    h = []
    for p in paths:
        h.append(f"{p.name}:{rng_mod.digest_bytes(p.read_bytes())}")
    return rng_mod.digest_bytes("\n".join(h).encode())


def cmd_eval(args) -> int:
    gen_paths, gen_meshes = _load_mesh_dir(args.generated)
    ref_paths, ref_meshes = _load_mesh_dir(args.reference)
    n = args.samples

    def cloud(item):
        index, mesh = item
        return sample_surface(mesh, n, seed=args.seed)

    gen_sets = _map_ordered(cloud, list(enumerate(gen_meshes)))
    ref_sets = _map_ordered(cloud, list(enumerate(ref_meshes)))
    result = set_metrics(gen_sets, ref_sets)
    report = {
        "metrics": result,
        "conventions": [CD_CONVENTION, EMD_CONVENTION, LFD_CONVENTION],
        "seed": args.seed,
        "samples_per_shape": n,
        "generated_digest": _dir_digest(gen_paths),
        "reference_digest": _dir_digest(ref_paths),
        "generated_count": len(gen_paths),
        "reference_count": len(ref_paths),
    }
    print(f"COV {result['COV']:.4f} | MMD {result['MMD']:.6g} | "
          f"1-NNA {result['1-NNA']:.4f}")
    if args.out:
        out = Path(args.out)
        _write_run_manifest(out, _argv_list(args), seed=args.seed)
        write_json(out / "metrics.json", report)
    return 0


def cmd_novelty(args) -> int:
    if args.k < 1:
        raise ValidationError("--k must be >= 1")
    gen_paths, gen_meshes = _load_mesh_dir(args.generated)
    train_paths, train_meshes = _load_mesh_dir(args.train)

    train_desc = _map_ordered(silhouette_descriptors, train_meshes)
    queries = []
    for qp, qm in zip(gen_paths, gen_meshes):
        top = retrieve_topk(qm, train_meshes, k=args.k, seed=args.seed)
        qd = silhouette_descriptors(qm)
        lfd_dists = [float(np.abs(qd - td).sum()) for td in train_desc]
        queries.append({
            "query": qp.name,
            "topk": [{"index": i, "name": train_paths[i].name,
                      "chamfer": d} for i, d in top],
            "lfd_percentiles": lfd_percentiles(lfd_dists),
            "lfd_min": float(min(lfd_dists)),
        })
    report = {
        "queries": queries,
        "conventions": [CD_CONVENTION, LFD_CONVENTION],
        "k": args.k,
        "seed": args.seed,
        "train_digest": _dir_digest(train_paths),
    }
    for q in queries:
        best = q["topk"][0]
        print(f"{q['query']}: nearest {best['name']} "
              f"(chamfer {best['chamfer']:.6g}, lfd_min {q['lfd_min']:.6g})")
    if args.out:
        out = Path(args.out)
        _write_run_manifest(out, _argv_list(args), seed=args.seed)
        write_json(out / "novelty.json", report)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _argv_list(args) -> list:
    return list(getattr(args, "_argv", []))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="waveshape",
        description="Wavelet-domain implicit shape pipeline")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("prepare", help="mesh/scene -> TSDF + pyramid")
    sp.add_argument("--scene")
    sp.add_argument("--obj")
    sp.add_argument("--res", type=int, required=True)
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--bank", default=DEFAULT_BANK)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_prepare)

    sp = sub.add_parser("decompose", help="TSDF -> pyramid")
    sp.add_argument("--input", required=True)
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--bank", default=DEFAULT_BANK)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("reconstruct", help="pyramid -> TSDF (lossless)")
    sp.add_argument("--input", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_reconstruct)

    sp = sub.add_parser("reconstruct-truncated",
                        help="pyramid -> TSDF from (C^J, D^J) only")
    sp.add_argument("--input", required=True)
    sp.add_argument("--source", help="original TSDF for the error report")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_reconstruct_truncated)

    sp = sub.add_parser("generate", help="sample shapes from a model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--ddim-steps", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("invert", help="shape -> latent + reconstruction")
    sp.add_argument("--input", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--no-refine", action="store_true")
    sp.add_argument("--refine-iters", type=int, default=400)
    sp.add_argument("--refine-lr", type=float, default=5e-2)
    sp.add_argument("--res", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_invert)

    sp = sub.add_parser("interpolate", help="latent interpolation frames")
    sp.add_argument("--za", required=True)
    sp.add_argument("--zb", required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_interpolate)

    sp = sub.add_parser("manipulate", help="masked dual-chain editing")
    sp.add_argument("--plan", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_manipulate)

    sp = sub.add_parser("eval", help="set-level metrics report")
    sp.add_argument("--generated", required=True)
    sp.add_argument("--reference", required=True)
    sp.add_argument("--samples", type=int, default=DEFAULT_SURFACE_SAMPLES)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("novelty", help="top-k retrieval against training set")
    sp.add_argument("--generated", required=True)
    sp.add_argument("--train", required=True)
    sp.add_argument("--k", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_novelty)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
