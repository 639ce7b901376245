"""Latent codes, the pooled linear encoder, detail prediction, and
shape-guided latent refinement."""

import json
import shutil

import numpy as np
import pytest

from waveshape.conditioning import (DEFAULT_LATENT_LENGTH, LatentCode,
                                    NearestDetailPredictor,
                                    PoolProjectEncoder, as_latent,
                                    interpolate_latent, invert, load_model,
                                    loss_trace_ema, read_latent,
                                    refine_latent, trace_to_csv, write_latent,
                                    write_model_manifest)
from waveshape.diffusion import (DenoiserInterface, GaussianMixtureOracle,
                                 make_linear_schedule)
from waveshape.errors import (NumericalError, ShapeMismatchError,
                              ValidationError)
from waveshape.grid import Volume3
from waveshape.rng import stream


def _vol(seed, dims=(5, 5, 5)):
    return Volume3(np.random.default_rng(seed).standard_normal(dims))


# ---------------------------------------------------------------------------
# Latent codes


def test_latent_code_basics():
    z = LatentCode(np.array([1.0, 2.0, 3.0]))
    assert len(z) == 3
    np.testing.assert_array_equal(np.asarray(z), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        z.values[0] = 5.0
    with pytest.raises(ValidationError):
        LatentCode(np.array([1.0, np.nan]))
    assert len(as_latent([0.0] * 4)) == 4
    assert as_latent(z) is z


def test_latent_file_round_trip(tmp_path):
    z = LatentCode(np.random.default_rng(0).standard_normal(16))
    path = tmp_path / "z.json"
    write_latent(path, z)
    payload = json.loads(path.read_text())
    assert payload["length"] == 16
    back = read_latent(path)
    np.testing.assert_array_equal(back.values, z.values)
    path.write_text(json.dumps({"length": 3, "values": [1.0, 2.0]}))
    with pytest.raises(ValidationError):
        read_latent(path)
    path.write_text("[]")
    with pytest.raises(ValidationError):
        read_latent(path)


def test_interpolate_latent_endpoints_and_validation():
    za, zb = LatentCode(np.zeros(4)), LatentCode(np.ones(4))
    np.testing.assert_array_equal(interpolate_latent(za, zb, 0.0).values, za.values)
    np.testing.assert_array_equal(interpolate_latent(za, zb, 1.0).values, zb.values)
    np.testing.assert_array_equal(interpolate_latent(za, zb, 0.25).values,
                                  np.full(4, 0.25))
    with pytest.raises(ValidationError):
        interpolate_latent(za, zb, 1.5)
    with pytest.raises(ShapeMismatchError):
        interpolate_latent(za, LatentCode(np.ones(5)), 0.5)


# ---------------------------------------------------------------------------
# Encoder


def test_encoder_projection_rows_orthonormal():
    enc = PoolProjectEncoder(latent_length=32, pool=4, seed=3)
    gram = enc.projection @ enc.projection.T
    np.testing.assert_allclose(gram, np.eye(32), atol=1e-12)


def test_encoder_is_linear():
    enc = PoolProjectEncoder(latent_length=16, pool=4, seed=1)
    x, y = _vol(1, (9, 9, 9)), _vol(2, (9, 9, 9))
    a, b = 0.6, -2.5
    combo = enc.encode(Volume3(a * x.values + b * y.values)).values
    parts = a * enc.encode(x).values + b * enc.encode(y).values
    np.testing.assert_allclose(combo, parts, rtol=0, atol=1e-9)


def test_encoder_pooling_matches_cell_means():
    enc = PoolProjectEncoder(latent_length=8, pool=2, seed=0)
    vals = np.random.default_rng(5).standard_normal((5, 4, 6))
    pooled = enc._pool(vals)
    assert pooled.shape == (2, 2, 2)
    # axis bounds follow (i * n) // pool, so cells may have unequal sizes
    for ci, (i0, i1) in enumerate(((0, 2), (2, 5))):
        for cj, (j0, j1) in enumerate(((0, 2), (2, 4))):
            for ck, (k0, k1) in enumerate(((0, 3), (3, 6))):
                expect = vals[i0:i1, j0:j1, k0:k1].mean()
                assert pooled[ci, cj, ck] == pytest.approx(expect, abs=1e-12)


def test_encoder_determinism_and_seed_sensitivity():
    a = PoolProjectEncoder(latent_length=8, pool=4, seed=7)
    b = PoolProjectEncoder(latent_length=8, pool=4, seed=7)
    c = PoolProjectEncoder(latent_length=8, pool=4, seed=8)
    np.testing.assert_array_equal(a.projection, b.projection)
    assert not np.array_equal(a.projection, c.projection)
    v = _vol(9, (6, 6, 6))
    np.testing.assert_array_equal(a.encode(v).values, b.encode(v).values)


def test_encoder_validation():
    with pytest.raises(ValidationError):
        PoolProjectEncoder(latent_length=65, pool=4)
    enc = PoolProjectEncoder(latent_length=8, pool=8)
    with pytest.raises(ValidationError):
        enc.encode(_vol(1, (7, 8, 8)))


def test_default_latent_length():
    assert DEFAULT_LATENT_LENGTH == 256
    enc = PoolProjectEncoder()
    assert enc.latent_length == 256
    assert enc.projection.shape == (256, 512)


# ---------------------------------------------------------------------------
# Detail predictor


def test_nearest_detail_predictor_returns_stored_pair():
    coarse = [_vol(i, (4, 4, 4)) for i in range(3)]
    details = [_vol(10 + i, (7, 7, 7)) for i in range(3)]
    pred = NearestDetailPredictor(list(zip(coarse, details)))
    for c, d in zip(coarse, details):
        got = pred.predict(c)
        np.testing.assert_array_equal(got.values, d.values)
    near = Volume3(coarse[1].values + 1e-3)
    np.testing.assert_array_equal(pred.predict(near).values, details[1].values)


def test_nearest_detail_predictor_validation():
    with pytest.raises(ValidationError):
        NearestDetailPredictor([])
    pairs = [(_vol(1, (4, 4, 4)), _vol(2, (7, 7, 7)))]
    with pytest.raises(ShapeMismatchError):
        NearestDetailPredictor(pairs + [(_vol(3, (5, 4, 4)), _vol(4, (7, 7, 7)))])
    pred = NearestDetailPredictor(pairs)
    with pytest.raises(ShapeMismatchError):
        pred.predict(_vol(5, (5, 4, 4)))


# ---------------------------------------------------------------------------
# Refinement: an oracle whose conditioning matters


def _refinement_setup():
    """Two nearby components whose anchors disagree strongly under tau."""
    gen = np.random.default_rng(33)
    base = gen.standard_normal((5, 5, 5))
    bump = np.zeros((5, 5, 5))
    bump[2:, 2:, 2:] = 0.12
    X_a = Volume3(base)
    X_b = Volume3(base + bump)
    anchors = np.zeros((2, 6))
    anchors[0, 0], anchors[1, 0] = 1.0, -1.0
    tau = 0.35  # anchor gap 2.0 -> logit separation ~16
    sched = make_linear_schedule(50)
    oracle = GaussianMixtureOracle([(0.5, X_a), (0.5, X_b)], anchors=anchors,
                                   tau=tau, sched=sched)
    return oracle, sched, X_a, X_b, anchors


def test_refinement_moves_code_to_the_matching_anchor():
    oracle, sched, X_a, X_b, anchors = _refinement_setup()
    z0 = anchors[1]  # start at the wrong component's anchor
    z, trace = refine_latent(X_a, z0, oracle, sched, iters=150, lr=5e-2,
                             rng=stream(4, "refine"))
    d_right = np.linalg.norm(z.values - anchors[0])
    d_wrong = np.linalg.norm(z.values - anchors[1])
    assert d_right < d_wrong
    assert len(trace) == 150 and np.all(np.isfinite(trace))
    ema = loss_trace_ema(trace)
    quarter = len(ema) // 4
    assert ema[-quarter:].mean() < ema[:quarter].mean()


def test_refinement_zero_iterations_is_identity():
    oracle, sched, X_a, _, anchors = _refinement_setup()
    z, trace = refine_latent(X_a, anchors[1], oracle, sched, iters=0)
    np.testing.assert_array_equal(z.values, anchors[1])
    assert len(trace) == 0


def test_refinement_rejects_negative_iters():
    oracle, sched, X_a, _, anchors = _refinement_setup()
    with pytest.raises(ValidationError):
        refine_latent(X_a, anchors[0], oracle, sched, iters=-1)


class _GradFreeOracle(DenoiserInterface):
    """Wrapper hiding the analytic gradient, forcing the FD fallback."""

    def __init__(self, inner):
        self._inner = inner

    def predict_eps(self, C_t, t, z=None):
        return self._inner.predict_eps(C_t, t, z)


def test_finite_difference_fallback_tracks_analytic_path():
    from waveshape.conditioning import _loss_and_grad
    oracle, sched, X_a, X_b, anchors = _refinement_setup()
    gen = np.random.default_rng(44)
    eps = X_a.with_values(gen.standard_normal((5, 5, 5)))
    from waveshape.diffusion import q_sample
    C_t = q_sample(Volume3((X_a.values + X_b.values) / 2), 45, eps, sched)
    z = (anchors[0] + anchors[1]) / 2 + 0.05
    loss_a, grad_a = _loss_and_grad(oracle, C_t, 45, z, eps, sched)
    loss_f, grad_f = _loss_and_grad(_GradFreeOracle(oracle), C_t, 45, z, eps, sched)
    assert loss_f == loss_a
    np.testing.assert_allclose(grad_f, grad_a, rtol=1e-3, atol=1e-9)


class _ExplodingDenoiser(DenoiserInterface):
    def predict_eps(self, C_t, t, z=None):
        return C_t.with_values(np.full(C_t.dims, 1e200))

    def predict_eps_grad_z(self, C_t, t, z, eps):
        bad = np.full(C_t.dims, 1e200)
        return C_t.with_values(bad), np.full(len(np.asarray(z)), np.inf)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_refinement_raises_numerical_error_with_trace():
    sched = make_linear_schedule(10)
    C0 = _vol(3)
    with pytest.raises(NumericalError) as err:
        refine_latent(C0, np.zeros(4), _ExplodingDenoiser(), sched, iters=5)
    assert "iteration 0" in str(err.value)


# ---------------------------------------------------------------------------
# EMA and trace files


def test_loss_trace_ema_constant_and_monotone():
    const = np.full(20, 3.5)
    np.testing.assert_allclose(loss_trace_ema(const), const, atol=1e-12)
    down = np.linspace(10.0, 1.0, 30)
    ema = loss_trace_ema(down, window=5)
    assert np.all(np.diff(ema) < 0)
    assert ema[0] == pytest.approx(down[0], abs=1e-12)
    assert loss_trace_ema(np.zeros(0)).size == 0


def test_trace_to_csv(tmp_path):
    trace = np.array([1.5, 0.25, 0.125])
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,loss"
    assert [float(l.split(",")[1]) for l in lines[1:]] == [1.5, 0.25, 0.125]


# ---------------------------------------------------------------------------
# Inversion


class _FixedEncoder(PoolProjectEncoder):
    """Encoder stub returning a constant code regardless of input."""

    def __init__(self, code):
        self._code = np.asarray(code, dtype=np.float64)

    def encode(self, C0):
        return LatentCode(self._code)


def test_unrefined_inversion_lands_on_wrong_component():
    oracle, sched, X_a, X_b, anchors = _refinement_setup()
    enc = _FixedEncoder(anchors[1])  # systematically wrong encoder
    z, vol, trace = invert(X_a, enc, oracle, sched, refine=False, rng_seed=5)
    assert trace.size == 0
    err_wrong = np.linalg.norm(vol.values - X_b.values)
    err_right = np.linalg.norm(vol.values - X_a.values)
    assert err_wrong < 1e-9
    assert err_right > 0.1


def test_refined_inversion_recovers_target_component():
    oracle, sched, X_a, X_b, anchors = _refinement_setup()
    enc = _FixedEncoder(anchors[1])
    z_u, vol_u, _ = invert(X_a, enc, oracle, sched, refine=False, rng_seed=5)
    z_r, vol_r, trace = invert(X_a, enc, oracle, sched, refine=True,
                               rng_seed=5, iters=150, lr=5e-2)
    err_u = np.linalg.norm(vol_u.values - X_a.values)
    err_r = np.linalg.norm(vol_r.values - X_a.values)
    assert err_r < err_u
    assert err_r <= 1e-9
    assert len(trace) == 150


# ---------------------------------------------------------------------------
# Manifest / bundle


def test_model_manifest_round_trip(tmp_path, model_manifest):
    bundle = load_model(model_manifest)
    assert bundle.latent_length == 32
    assert bundle.sched.T == 100
    assert bundle.denoiser.K == 3
    assert bundle.encoder.latent_length == 32
    again = load_model(model_manifest)
    assert again.manifest_digest == bundle.manifest_digest
    np.testing.assert_array_equal(again.denoiser.anchors, bundle.denoiser.anchors)


def test_model_digest_ignores_manifest_formatting(tmp_path, model_manifest):
    shutil.copytree(model_manifest.parent, tmp_path / "m")
    path = tmp_path / "m" / "model.json"
    before = load_model(path).manifest_digest
    path.write_text(json.dumps(json.loads(path.read_text()), indent=7))
    assert load_model(path).manifest_digest == before


def test_model_manifest_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"encoder": {"kind": "mystery", "seed": 0}}))
    with pytest.raises(ValidationError):
        load_model(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"latent_length": 4}))
    with pytest.raises(ValidationError):
        load_model(missing)


def test_write_model_manifest_contents(tmp_path):
    path = tmp_path / "model.json"
    write_model_manifest(path, encoder_seed=4, latent_length=16,
                         corpus_path="corpus", tau=0.5, T=40,
                         beta_start=1e-4, beta_end=0.02)
    payload = json.loads(path.read_text())
    assert payload["encoder"] == {"kind": "pool-project", "seed": 4, "pool": 8}
    assert payload["latent_length"] == 16
    assert payload["schedule"] == {"T": 40, "beta_start": 1e-4, "beta_end": 0.02}
