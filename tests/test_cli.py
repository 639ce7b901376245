"""End-to-end command-line pipeline tests driven through main()."""

import json
import shutil
import struct

import numpy as np
import pytest

from conftest import (MODEL_BANK, MODEL_LATENT, MODEL_LEVELS, MODEL_RES,
                      MODEL_T, model_shapes)
from waveshape import __version__, cli
from waveshape import tsdf as tsdf_mod
from waveshape.conditioning import LatentCode, load_model, read_latent, \
    write_latent
from waveshape.errors import NumericalError
from waveshape.formats import read_json, read_volume, write_wsv1
from waveshape.grid import RegionMask3
from waveshape.manipulation import write_plan_file
from waveshape.wavelet import get_bank, pyramid_decompose


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def sphere_scene(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(
        {"kind": "sphere", "center": [0.0, 0.0, 0.0], "radius": 0.5}))
    return path


# ---------------------------------------------------------------------------
# Basic invocation


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("--version")
    assert err.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("frobnicate")
    assert err.value.code == 2


def test_missing_input_file_exits_2(tmp_path, capsys):
    rc = run_cli("decompose", "--input", tmp_path / "nope.wsv1",
                 "--out", tmp_path / "o")
    assert rc == 2
    assert "validation error" in capsys.readouterr().err


def _model_copy_with_entry(tmp_path, model_manifest, reconstruction=True,
                           **change):
    shutil.copytree(model_manifest.parent, tmp_path / "m")
    corpus = tmp_path / "m" / "corpus" / "corpus.json"
    payload = json.loads(corpus.read_text())
    if not reconstruction:
        del payload["reconstruction"]
    entry = payload["components"][0]
    for key, value in change.items():
        if value is None:
            del entry[key]
        else:
            entry[key] = value
    corpus.write_text(json.dumps(payload))
    return ["generate", "--model", tmp_path / "m" / "model.json",
            "--out", tmp_path / "o"]


def _wsp1_with(tmp_path, blob):
    path = tmp_path / "bad.wsp1"
    path.write_bytes(blob)
    return ["reconstruct", "--input", path, "--out", tmp_path / "o"]


def _wsv1_with(tmp_path, blob):
    path = tmp_path / "bad.wsv1"
    path.write_bytes(blob)
    return ["decompose", "--input", path, "--out", tmp_path / "o"]


def _obj_with(tmp_path, text):
    path = tmp_path / "bad.obj"
    path.write_text(text)
    return ["prepare", "--obj", path, "--res", 16, "--out", tmp_path / "o"]


def _latents_of_length(tmp_path, n):
    """Two latent files of n entries, which the model's anchors do not match."""
    for name, value in (("za.json", 0.5), ("zb.json", -0.5)):
        write_latent(tmp_path / name, LatentCode(np.full(n, value)))
    return tmp_path / "za.json", tmp_path / "zb.json"


def _interpolate_with_latents(tmp_path, model_manifest, n):
    za, zb = _latents_of_length(tmp_path, n)
    return ["interpolate", "--za", za, "--zb", zb, "--steps", 2,
            "--model", model_manifest, "--out", tmp_path / "o"]


def _manipulate_with_latents(tmp_path, model_manifest, n):
    _latents_of_length(tmp_path, n)
    bits = np.zeros((12, 12, 12), dtype=bool)
    bits[:, :, 6:] = True
    write_wsv1(tmp_path / "mask.wsv1", RegionMask3(bits))
    write_plan_file(tmp_path / "plan.json", mode="replacement",
                    mask_path="mask.wsv1", harmonize_repeats=1,
                    z_a_path="za.json", z_b_path="zb.json", seed=1)
    return ["manipulate", "--plan", tmp_path / "plan.json",
            "--model", model_manifest, "--out", tmp_path / "o"]


def _novelty_with_k(tmp_path, k):
    meshes = tmp_path / "meshes"
    meshes.mkdir()
    tsdf_mod.write_obj(meshes / "a.obj", tsdf_mod.icosphere(1, 0.5))
    return ["novelty", "--generated", meshes, "--train", meshes, "--k", k,
            "--out", tmp_path / "o"]


def _generate_with(tmp_path, model_manifest, *flags):
    return ["generate", "--model", model_manifest, *flags,
            "--out", tmp_path / "o"]


MALFORMED = {
    "obj-vertex-token": lambda tmp, _: _obj_with(
        tmp, "v 0 0 0\nv 1 0 x\nv 0 1 0\nf 1 2 3\n"),
    "obj-face-token": lambda tmp, _: _obj_with(
        tmp, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n"),
    "wsv1-header-dims": lambda tmp, _: _wsv1_with(
        tmp, struct.pack("<4s3I6dB", b"WSV1", 2 ** 31, 2 ** 31, 2 ** 31,
                         0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0) + bytes(64)),
    "wsp1-short-header": lambda tmp, _: _wsp1_with(tmp, b"WSP1\x02\x00"),
    "wsp1-bank-name": lambda tmp, _: _wsp1_with(
        tmp, b"WSP1" + struct.pack("<IB", 1, 2) + b"\xff\xfe"),
    "corpus-entry-path": lambda tmp, m: _model_copy_with_entry(
        tmp, m, path=None),
    "corpus-entry-weight": lambda tmp, m: _model_copy_with_entry(
        tmp, m, weight="heavy"),
    "corpus-entry-detail-path": lambda tmp, m: _model_copy_with_entry(
        tmp, m, detail_path=None),
    "corpus-no-reconstruction": lambda tmp, m: _model_copy_with_entry(
        tmp, m, reconstruction=False),
    "latent-length-1-interpolate": lambda tmp, m: _interpolate_with_latents(
        tmp, m, 1),
    "latent-length-3-interpolate": lambda tmp, m: _interpolate_with_latents(
        tmp, m, 3),
    "latent-length-3-manipulate": lambda tmp, m: _manipulate_with_latents(
        tmp, m, 3),
    "novelty-k-0": lambda tmp, _: _novelty_with_k(tmp, 0),
    "novelty-k-negative": lambda tmp, _: _novelty_with_k(tmp, -1),
    "generate-ddim-steps-0": lambda tmp, m: _generate_with(
        tmp, m, "--ddim-steps", 0),
    "generate-ddim-steps-above-T": lambda tmp, m: _generate_with(
        tmp, m, "--ddim-steps", MODEL_T + 1),
    "generate-count-0": lambda tmp, m: _generate_with(tmp, m, "--count", 0),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_without_traceback(tmp_path, model_manifest,
                                                    capsys, case):
    argv = MALFORMED[case](tmp_path, model_manifest)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert "Traceback" not in err


def test_prepare_needs_exactly_one_source(tmp_path, sphere_scene, capsys):
    rc = run_cli("prepare", "--res", 16, "--out", tmp_path / "o")
    assert rc == 2
    rc = run_cli("prepare", "--scene", sphere_scene, "--obj", "x.obj",
                 "--res", 16, "--out", tmp_path / "o")
    assert rc == 2


# ---------------------------------------------------------------------------
# TSDF / pyramid commands


def test_prepare_decompose_reconstruct_round_trip(tmp_path, sphere_scene,
                                                  capsys):
    prep = tmp_path / "prep"
    rc = run_cli("prepare", "--scene", sphere_scene, "--res", 32,
                 "--levels", 2, "--out", prep)
    assert rc == 0
    printed = capsys.readouterr().out
    assert "retained fraction" in printed
    assert "truncated relative error" in printed
    for name in ("tsdf.wsv1", "pyramid.wsp1", "compactness.json", "run.json"):
        assert (prep / name).exists()

    dec = tmp_path / "dec"
    assert run_cli("decompose", "--input", prep / "tsdf.wsv1", "--levels", 2,
                   "--out", dec) == 0
    rec = tmp_path / "rec"
    assert run_cli("reconstruct", "--input", dec / "pyramid.wsp1",
                   "--out", rec) == 0
    original = read_volume(prep / "tsdf.wsv1")
    restored = read_volume(rec / "reconstructed.wsv1")
    assert original.dims == restored.dims
    assert np.abs(original.values - restored.values).max() <= 1e-6
    assert original.origin == restored.origin
    assert original.spacing == restored.spacing


def test_reconstruct_truncated_reports(tmp_path, sphere_scene):
    prep = tmp_path / "prep"
    assert run_cli("prepare", "--scene", sphere_scene, "--res", 32,
                   "--levels", 2, "--out", prep) == 0
    out = tmp_path / "trunc"
    rc = run_cli("reconstruct-truncated", "--input", prep / "pyramid.wsp1",
                 "--source", prep / "tsdf.wsv1", "--out", out)
    assert rc == 0
    report = read_json(out / "truncation.json")
    assert 0.0 < report["retained_fraction"] < 0.5
    assert 0.0 < report["truncated_recon_error"] < 0.1
    vol = read_volume(out / "reconstructed.wsv1")
    assert vol.dims == (32, 32, 32)


# ---------------------------------------------------------------------------
# Generation


def test_generate_rerun_is_byte_identical(tmp_path, model_manifest):
    out = tmp_path / "gen"
    argv = ["generate", "--model", str(model_manifest), "--seed", "3",
            "--count", "2", "--out", str(out)]
    assert cli.main(argv) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["run.json", "sample_000.obj", "sample_000_coarse.wsv1",
                     "sample_001.obj", "sample_001_coarse.wsv1"]
    snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
    shutil.rmtree(out)
    assert cli.main(argv) == 0
    for p in out.iterdir():
        assert p.read_bytes() == snapshot[p.name], p.name


def test_generate_ddim_subset(tmp_path, model_manifest):
    out = tmp_path / "fast"
    rc = run_cli("generate", "--model", model_manifest, "--seed", "3",
                 "--count", "1", "--ddim-steps", "10", "--out", out)
    assert rc == 0
    assert (out / "sample_000.obj").exists()


def test_run_manifest_contents(tmp_path, model_manifest):
    out = tmp_path / "g"
    argv = ["generate", "--model", str(model_manifest), "--seed", "5",
            "--count", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    payload = read_json(out / "run.json")
    assert payload["command"] == argv
    assert payload["seed"] == 5
    assert payload["tool_version"] == __version__
    assert payload["model_digest"] == load_model(model_manifest).manifest_digest
    assert set(payload) == {"command", "seed", "model_digest", "tool_version"}


def test_numerical_error_exit_code(tmp_path, model_manifest, monkeypatch,
                                   capsys):
    def diverge(*args, **kwargs):
        raise NumericalError("chain diverged")

    monkeypatch.setattr(cli, "sample", diverge)
    rc = run_cli("generate", "--model", model_manifest, "--seed", "1",
                 "--count", "1", "--out", tmp_path / "x")
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_chain_exits_3_without_traceback(tmp_path, model_manifest,
                                                    capsys):
    shutil.copytree(model_manifest.parent, tmp_path / "m")
    corpus = tmp_path / "m" / "corpus"
    for k, path in enumerate(sorted(corpus.glob("component_*.wsv1"))):
        vol = read_volume(path)
        sign = 1.0 if k % 2 == 0 else -1.0
        write_wsv1(path, vol.with_values(np.full(vol.dims, sign * 1e200)),
                   wide=True)
    rc = run_cli("generate", "--model", tmp_path / "m" / "model.json",
                 "--seed", "1", "--count", "2", "--out", tmp_path / "x")
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical error" in err
    assert "non-finite chain state at step 100, row 0" in err
    assert "Traceback" not in err


def test_thread_pool_does_not_change_bytes(tmp_path, model_manifest,
                                           monkeypatch):
    def generate(out):
        assert run_cli("generate", "--model", model_manifest, "--seed", "9",
                       "--count", "3", "--out", out) == 0
        return {p.name: p.read_bytes() for p in out.glob("sample_*")}

    serial = generate(tmp_path / "serial")
    monkeypatch.setenv("WAVESHAPE_THREADS", "2")
    threaded = generate(tmp_path / "threaded")
    assert serial == threaded
    monkeypatch.setenv("WAVESHAPE_THREADS", "zero")
    assert run_cli("generate", "--model", model_manifest, "--seed", "9",
                   "--count", "1", "--out", tmp_path / "bad") == 2
    monkeypatch.setenv("WAVESHAPE_THREADS", "0")
    assert run_cli("generate", "--model", model_manifest, "--seed", "9",
                   "--count", "1", "--out", tmp_path / "bad") == 2


# ---------------------------------------------------------------------------
# Inversion and interpolation


@pytest.fixture()
def model_input_volume(tmp_path):
    vol = tsdf_mod.sample_tsdf(model_shapes()[0], MODEL_RES)
    path = tmp_path / "input.wsv1"
    write_wsv1(path, vol, wide=True)
    return path


def test_invert_without_refinement_is_plain_encoding(tmp_path, model_manifest,
                                                     model_input_volume):
    out = tmp_path / "unrefined"
    rc = run_cli("invert", "--input", model_input_volume, "--model",
                 model_manifest, "--no-refine", "--seed", 2, "--out", out)
    assert rc == 0
    z = read_latent(out / "latent.json")
    assert len(z) == MODEL_LATENT
    trace_lines = (out / "refine_trace.csv").read_text().strip().splitlines()
    assert trace_lines == ["iteration,loss"]
    assert (out / "inverted.obj").exists()
    assert (out / "inverted_coarse.wsv1").exists()

    bundle = load_model(model_manifest)
    pyr = pyramid_decompose(read_volume(model_input_volume), J=MODEL_LEVELS,
                            bank=get_bank(MODEL_BANK))
    expected = bundle.encoder.encode(pyr.coarse)
    np.testing.assert_array_equal(z.values, expected.values)


def test_invert_with_refinement_writes_trace(tmp_path, model_manifest,
                                             model_input_volume):
    out = tmp_path / "refined"
    rc = run_cli("invert", "--input", model_input_volume, "--model",
                 model_manifest, "--refine-iters", 40, "--seed", 2,
                 "--out", out)
    assert rc == 0
    lines = (out / "refine_trace.csv").read_text().strip().splitlines()
    assert len(lines) == 41
    losses = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(np.isfinite(losses))


def test_invert_obj_input_requires_res(tmp_path, model_manifest, capsys):
    obj = tmp_path / "shape.obj"
    tsdf_mod.write_obj(obj, tsdf_mod.icosphere(1, 0.5))
    rc = run_cli("invert", "--input", obj, "--model", model_manifest,
                 "--out", tmp_path / "o")
    assert rc == 2
    assert "--res" in capsys.readouterr().err


def test_invert_rejects_wrong_resolution(tmp_path, model_manifest):
    vol = tsdf_mod.sample_tsdf(model_shapes()[0], 16)
    path = tmp_path / "small.wsv1"
    write_wsv1(path, vol)
    rc = run_cli("invert", "--input", path, "--model", model_manifest,
                 "--out", tmp_path / "o")
    assert rc == 2


def test_interpolate_frames(tmp_path, model_manifest):
    bundle = load_model(model_manifest)
    za, zb = tmp_path / "za.json", tmp_path / "zb.json"
    write_latent(za, LatentCode(bundle.denoiser.anchors[0]))
    write_latent(zb, LatentCode(bundle.denoiser.anchors[1]))
    out = tmp_path / "frames"
    rc = run_cli("interpolate", "--za", za, "--zb", zb, "--steps", 3,
                 "--model", model_manifest, "--seed", 4, "--out", out)
    assert rc == 0
    assert sorted(p.name for p in out.glob("frame_*.obj")) == \
        ["frame_000.obj", "frame_001.obj", "frame_002.obj"]
    rc = run_cli("interpolate", "--za", za, "--zb", zb, "--steps", 1,
                 "--model", model_manifest, "--out", tmp_path / "bad")
    assert rc == 2


# ---------------------------------------------------------------------------
# Manipulation


def test_manipulate_from_plan_file(tmp_path, model_manifest, capsys):
    bundle = load_model(model_manifest)
    bits = np.zeros((12, 12, 12), dtype=bool)
    bits[:, :, 6:] = True
    write_wsv1(tmp_path / "mask.wsv1", RegionMask3(bits))
    write_latent(tmp_path / "za.json", LatentCode(bundle.denoiser.anchors[0]))
    write_latent(tmp_path / "zb.json", LatentCode(bundle.denoiser.anchors[1]))
    write_plan_file(tmp_path / "plan.json", mode="replacement",
                    mask_path="mask.wsv1", delta_t=10, harmonize_repeats=2,
                    z_a_path="za.json", z_b_path="zb.json", seed=5)
    out = tmp_path / "edit"
    rc = run_cli("manipulate", "--plan", tmp_path / "plan.json",
                 "--model", model_manifest, "--out", out)
    assert rc == 0
    assert "boundary metric" in capsys.readouterr().out
    comparison = read_json(out / "boundary_comparison.json")
    assert set(comparison) == {"boundary_metric_manipulated",
                               "boundary_metric_naive_mix"}
    for name in ("manipulated.obj", "manipulated_coarse.wsv1",
                 "naive_mix.obj", "naive_mix_coarse.wsv1", "run.json"):
        assert (out / name).exists()


def test_manipulate_rejects_wrong_mask_dims(tmp_path, model_manifest):
    bits = np.zeros((5, 5, 5), dtype=bool)
    write_wsv1(tmp_path / "mask.wsv1", RegionMask3(bits))
    write_plan_file(tmp_path / "plan.json", mode="regeneration",
                    mask_path="mask.wsv1", delta_t=10, seed=1)
    rc = run_cli("manipulate", "--plan", tmp_path / "plan.json",
                 "--model", model_manifest, "--out", tmp_path / "o")
    assert rc == 2


# ---------------------------------------------------------------------------
# Evaluation and novelty


@pytest.fixture()
def generated_dir(tmp_path, model_manifest):
    # seed 2 lands the two samples on different mixture modes, so the meshes
    # are genuinely distinct shapes
    out = tmp_path / "gen"
    assert run_cli("generate", "--model", model_manifest, "--seed", "2",
                   "--count", "2", "--out", out) == 0
    return out


def test_eval_identity_metrics(tmp_path, generated_dir, capsys):
    ref = tmp_path / "ref"
    ref.mkdir()
    for p in generated_dir.glob("*.obj"):
        (ref / p.name).write_bytes(p.read_bytes())
    out = tmp_path / "eval"
    rc = run_cli("eval", "--generated", generated_dir, "--reference", ref,
                 "--samples", 256, "--seed", 1, "--out", out)
    assert rc == 0
    printed = capsys.readouterr().out
    assert "COV 1.0000" in printed
    assert "1-NNA 0.0000" in printed
    report = read_json(out / "metrics.json")
    assert report["metrics"] == {"COV": 1.0, "MMD": 0.0, "1-NNA": 0.0}
    assert report["generated_digest"] == report["reference_digest"]
    assert report["generated_count"] == 2
    assert len(report["conventions"]) == 3


def test_eval_empty_directory_exits_2(tmp_path, generated_dir):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = run_cli("eval", "--generated", generated_dir, "--reference", empty,
                 "--out", tmp_path / "o")
    assert rc == 2


def test_novelty_self_match(tmp_path, generated_dir, capsys):
    out = tmp_path / "novelty"
    rc = run_cli("novelty", "--generated", generated_dir, "--train",
                 generated_dir, "--k", 2, "--seed", 3, "--out", out)
    assert rc == 0
    report = read_json(out / "novelty.json")
    assert len(report["queries"]) == 2
    for query in report["queries"]:
        assert query["topk"][0]["name"] == query["query"]
        assert query["topk"][0]["chamfer"] == 0.0
        assert query["lfd_min"] == 0.0
        assert "50" in query["lfd_percentiles"]
    assert "nearest" in capsys.readouterr().out
