"""Golden digests of every CLI artifact.

Builds the conftest model, runs every subcommand once with relative paths
from inside one working directory (so the argument lists recorded in each
``run.json`` do not depend on where the test runs), and compares the
BLAKE2s digest of every file written with the checked-in table in
``golden_digests.json``.

The digests are pinned for this package's numpy/scipy build; a change that
alters artifact bytes on purpose re-blesses the table by running this file
as a script and lists the changed rows and the reason in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from conftest import build_model_dir
from waveshape import cli
from waveshape.formats import write_json, write_wsv1
from waveshape.grid import RegionMask3
from waveshape.manipulation import write_plan_file
from waveshape.tsdf import icosphere, write_obj

GOLDEN = Path(__file__).with_name("golden_digests.json")
MODEL = "model/model.json"
COMMANDS = [
    ["prepare", "--scene", "scene.json", "--res", "32", "--levels", "2",
     "--out", "prep_scene"],
    ["prepare", "--obj", "shape.obj", "--res", "32", "--levels", "2",
     "--out", "prep_obj"],
    ["decompose", "--input", "prep_scene/tsdf.wsv1", "--levels", "2",
     "--out", "dec"],
    ["reconstruct", "--input", "dec/pyramid.wsp1", "--out", "rec"],
    ["reconstruct-truncated", "--input", "dec/pyramid.wsp1",
     "--source", "prep_scene/tsdf.wsv1", "--out", "trunc"],
    ["generate", "--model", MODEL, "--seed", "2", "--count", "2",
     "--out", "gen"],
    ["generate", "--model", MODEL, "--seed", "3", "--count", "1",
     "--ddim-steps", "10", "--out", "gen_ddim"],
    ["invert", "--input", "prep_scene/tsdf.wsv1", "--model", MODEL,
     "--refine-iters", "40", "--seed", "2", "--out", "inv"],
    ["invert", "--input", "shape.obj", "--res", "32", "--model", MODEL,
     "--no-refine", "--seed", "2", "--out", "inv_obj"],
    ["interpolate", "--za", "inv/latent.json", "--zb", "inv_obj/latent.json",
     "--steps", "3", "--model", MODEL, "--seed", "4", "--out", "interp"],
    ["manipulate", "--plan", "plan.json", "--model", MODEL, "--out", "edit"],
    ["eval", "--generated", "gen", "--reference", "interp", "--samples", "256",
     "--seed", "1", "--out", "eval"],
    ["novelty", "--generated", "gen_ddim", "--train", "gen", "--k", "2",
     "--seed", "3", "--out", "novelty"],
]


def _write_inputs() -> None:
    write_json(Path("scene.json"),
               {"kind": "sphere", "center": [0.0, 0.0, 0.0], "radius": 0.5})
    write_obj("shape.obj", icosphere(2, 0.6))
    bits = np.zeros((12, 12, 12), dtype=bool)
    bits[:, :, 6:] = True
    write_wsv1("mask.wsv1", RegionMask3(bits))
    write_plan_file("plan.json", mode="replacement", mask_path="mask.wsv1",
                    delta_t=10, harmonize_repeats=2,
                    z_a_path="inv/latent.json", z_b_path="inv_obj/latent.json",
                    seed=5)


def run_every_subcommand(model_dir: Path) -> dict:
    """Run COMMANDS in the current directory; return {path: digest} of
    every file they wrote (the model directory and inputs excluded)."""
    shutil.copytree(model_dir, "model")
    _write_inputs()
    inputs = {p for p in Path(".").rglob("*") if p.is_file()}
    for argv in COMMANDS:
        assert cli.main(list(argv)) == 0, argv
    return {p.as_posix(): hashlib.blake2s(p.read_bytes()).hexdigest()
            for p in sorted(Path(".").rglob("*"))
            if p.is_file() and p not in inputs}


def test_every_artifact_matches_golden_digest(tmp_path, model_manifest,
                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_every_subcommand(model_manifest.parent)
    expected = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(expected)
    changed = sorted(k for k in got if got[k] != expected[k])
    assert not changed, f"artifacts changed: {changed}"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "src_model").mkdir()
        build_model_dir(root / "src_model")
        (root / "work").mkdir()
        os.chdir(root / "work")
        table = run_every_subcommand(root / "src_model")
        os.chdir(root)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
