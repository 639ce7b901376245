"""Self-test of the benchmark's reference checks, and determinism of its
operations.

    python3 perfbench/selfcheck.py

For each workload, with seed 1, it runs operation 1 three times into the same directory:
twice untraced, then once with the tracer installed.  The three runs must
leave byte-identical artifacts (BLAKE2s digests of every file).  It then
corrupts copies of those artifacts one check at a time (a moved vertex, a
perturbed voxel, a dropped face or an edited JSON / CSV value) and requires
that check to fail.  Exits 1 if anything does not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# The worker's thread settings (run.THREAD_ENV), set before numpy is imported.
for _var in ("WAVESHAPE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import refcheck  # noqa: E402
import workloads  # noqa: E402
from refcheck import CheckFailed  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT = ROOT / ".perfbench-out" / "selfcheck"
SEED = 1


# ---------------------------------------------------------------------------
# Corruptions, written against the file formats directly


def perturb_wsv1(path: Path, index, delta: float) -> None:
    """Add ``delta`` to the voxel at ``index`` (x, y, z) of a WSV1 file."""
    raw = bytearray(path.read_bytes())
    _, nx, ny, _, *_rest, tag = refcheck.WSV1_HEADER.unpack_from(raw)
    fmt = refcheck.WSV1_DTYPES[tag]
    size = np.dtype(fmt).itemsize
    x, y, z = index
    off = refcheck.WSV1_HEADER.size + size * (x + nx * (y + ny * z))
    value = np.frombuffer(raw, dtype=fmt, count=1, offset=off)[0]
    raw[off:off + size] = np.array([value + delta], dtype=fmt).tobytes()
    path.write_bytes(bytes(raw))


def replace_wsv1(path: Path, values: np.ndarray) -> None:
    raw = path.read_bytes()
    tag = raw[refcheck.WSV1_HEADER.size - 1]
    payload = values.astype(refcheck.WSV1_DTYPES[tag]).ravel(order="F")
    path.write_bytes(raw[:refcheck.WSV1_HEADER.size] + payload.tobytes())


def move_vertex(path: Path, dx: float) -> None:
    lines = path.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("v "))
    x, y, z = (float(t) for t in lines[k].split()[1:4])
    lines[k] = f"v {x + dx!r} {y!r} {z!r}"
    path.write_text("\n".join(lines) + "\n")


def drop_face(path: Path) -> None:
    lines = path.read_text().splitlines()
    k = max(i for i, ln in enumerate(lines) if ln.startswith("f "))
    path.write_text("\n".join(lines[:k] + lines[k + 1:]) + "\n")


def edit_json(path: Path, fn) -> None:
    payload = json.loads(path.read_text())
    fn(payload)
    path.write_text(json.dumps(payload))


def scale_late_losses(path: Path, factor: float) -> None:
    """Multiply the loss of every iteration in the last quarter."""
    lines = path.read_text().splitlines()
    rows = len(lines) - 1
    for k in range(1 + rows - rows // 4, len(lines)):
        it, loss = lines[k].split(",")
        lines[k] = f"{it},{float(loss) * factor!r}"
    path.write_text("\n".join(lines) + "\n")


def wsv1_norm(path: Path) -> float:
    return float(np.linalg.norm(refcheck.read_wsv1(path)[0]))


# ---------------------------------------------------------------------------
# One corruption per check: (name, corrupt(op_dir), check(op_dir))


def cases(name: str, work):
    voxel = 2.0 / workloads.MODEL_RES
    if name == "generate":
        coarse = "sample_000_coarse.wsv1"
        return [
            ("coarse sample near a component: perturbed voxel",
             lambda d: perturb_wsv1(d / coarse, (5, 5, 5), 0.2 * wsv1_norm(d / coarse)),
             lambda d: refcheck.check_coarse_sample(d / coarse, work.components)),
            ("closed mesh: dropped face",
             lambda d: drop_face(d / "sample_000.obj"),
             lambda d: refcheck.check_closed(d / "sample_000.obj")),
            ("vertices on the analytic surface: moved vertex",
             lambda d: move_vertex(d / "sample_000.obj", 3 * voxel),
             lambda d: refcheck.check_on_surface(
                 d / "sample_000.obj",
                 workloads.SHAPES[refcheck.nearest_component(
                     d / coarse, work.components)[0]], voxel)),
        ]
    if name == "edit":
        inv = "inv_a/inverted_coarse.wsv1"
        other = work.components[workloads.EDIT_B] - work.components[workloads.EDIT_A]
        return [
            ("inverted volume nearest its source: perturbed voxels",
             lambda d: replace_wsv1(d / inv, refcheck.read_wsv1(d / inv)[0] + other),
             lambda d: refcheck.check_inverted(d / inv, work.components,
                                               workloads.EDIT_A)),
            ("refinement loss falls: late-quarter losses doubled",
             lambda d: scale_late_losses(d / "inv_a/refine_trace.csv", 2.0),
             lambda d: refcheck.check_refine_trace(
                 d / "inv_a/refine_trace.csv", workloads.EDIT_REFINE_ITERS,
                 work.op_seed(1), work.components[0].shape,
                 refcheck.linear_alpha_bars(workloads.MODEL_T,
                                            *workloads.MODEL_BETAS))),
            ("manipulated seam no worse than naive: edited JSON value",
             lambda d: edit_json(
                 d / "manip/boundary_comparison.json",
                 lambda p: p.update(boundary_metric_manipulated=2.0 * p[
                     "boundary_metric_naive_mix"] + 1.0)),
             lambda d: refcheck.check_boundary(d / "manip/boundary_comparison.json")),
            ("first frame on shape A: moved vertex",
             lambda d: move_vertex(d / "interp/frame_000.obj", 3 * voxel),
             lambda d: refcheck.check_on_surface(
                 d / "interp/frame_000.obj",
                 workloads.SHAPES[workloads.EDIT_A], voxel)),
        ]
    scene_tsdf = "prep_scene/tsdf.wsv1"
    obj_tsdf = "prep_obj/tsdf.wsv1"
    return [
        ("scene TSDF equals the analytic SDF: perturbed voxel",
         lambda d: perturb_wsv1(d / scene_tsdf, (64, 64, 64), 1e-6),
         lambda d: refcheck.check_scene_tsdf(d / scene_tsdf, work.scene)),
        ("retained fraction at most 5 %: edited JSON value",
         lambda d: edit_json(d / "prep_scene/compactness.json",
                             lambda p: p.update(retained_fraction=0.06)),
         lambda d: refcheck.check_retained(d / "prep_scene/compactness.json")),
        ("mesh TSDF sign off the surface: perturbed voxel",
         lambda d: perturb_wsv1(d / obj_tsdf, (32, 32, 32), 0.2),  # deep inside
         lambda d: refcheck.check_mesh_tsdf_sign(
             d / obj_tsdf, work.inputs / "source.obj", work.obj_scene,
             2.0 / workloads.MESH_RES)),
        ("COV / MMD / 1-NNA recomputed: edited JSON value",
         lambda d: edit_json(d / "eval/metrics.json",
                             lambda p: p["metrics"].update(
                                 MMD=p["metrics"]["MMD"] * (1 + 1e-6))),
         lambda d: refcheck.check_set_metrics(d / "eval/metrics.json",
                                              work.inputs / "gen",
                                              work.inputs / "ref")),
        ("self retrieval at distance zero: edited JSON value",
         lambda d: edit_json(d / "novelty/novelty.json",
                             lambda p: p["queries"][0].update(lfd_min=1e-3)),
         lambda d: refcheck.check_self_retrieval(d / "novelty/novelty.json",
                                                 work.query_name)),
    ]


def run_op(cli_main, work, out: Path) -> dict:
    """Digests of the artifacts of operation 1, run afresh into ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    for argv in work.steps(1, out):
        code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}")
    return refcheck.tree_digests(out)


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    from waveshape import cli

    shutil.rmtree(OUT, ignore_errors=True)
    report, ok = {}, True
    # Untraced runs of every workload come first: installing the tracer
    # patches the modules for the rest of the process.
    works, digests = {}, {}
    for name in workloads.NAMES:
        works[name] = workloads.WORKLOADS[name](OUT / name, SEED)
        works[name].build()
        out = OUT / name / "op"
        first = run_op(cli.main, works[name], out)
        second = run_op(cli.main, works[name], out)
        digests[name] = (first, second)
    Tracer().install()
    for name in workloads.NAMES:
        work = works[name]
        out = OUT / name / "op"
        traced = run_op(cli.main, work, out)
        first, second = digests[name]
        entry = {"files": len(first), "rerun_identical": first == second,
                 "traced_identical": first == traced, "checks": {}}
        ok &= entry["rerun_identical"] and entry["traced_identical"]
        try:
            work.check(1, out)
            entry["clean_artifacts_pass"] = True
        except CheckFailed as exc:
            entry["clean_artifacts_pass"] = False
            entry["clean_error"] = str(exc)
            ok = False
        for label, corrupt, check in cases(name, work):
            bad = OUT / name / "corrupt"
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(out, bad)
            corrupt(bad)
            try:
                check(bad)
                caught = False
            except CheckFailed:
                caught = True
            entry["checks"][label] = "fails on corruption" if caught else "MISSED"
            ok &= caught
        report[name] = entry
        print(f"{name}: {entry['files']} files, rerun identical "
              f"{entry['rerun_identical']}, traced identical "
              f"{entry['traced_identical']}, clean artifacts pass "
              f"{entry['clean_artifacts_pass']}")
        for label, verdict in entry["checks"].items():
            print(f"    {label}: {verdict}")
    (OUT / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
