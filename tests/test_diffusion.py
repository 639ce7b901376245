"""Noise schedule tables, forward/reverse steps, the mixture oracle, and
sampling determinism.  The posterior is cross-checked against a log-space
fsum re-derivation and the schedule against exact rational recomputation."""

import math
from fractions import Fraction

import numpy as np
import pytest

import helpers
from waveshape.diffusion import (DenoiserInterface, GaussianMixtureOracle,
                                 NoiseSchedule, chain_stream_name,
                                 default_step_subset, make_linear_schedule,
                                 p_step, q_sample, read_oracle_corpus,
                                 sample, schedule_to_csv, training_loss,
                                 write_oracle_corpus)
from waveshape.errors import (NumericalError, ShapeMismatchError,
                              ValidationError)
from waveshape.grid import Volume3
from waveshape.rng import stream


def _vol(seed, dims=(4, 4, 4)):
    return Volume3(np.random.default_rng(seed).standard_normal(dims))


# ---------------------------------------------------------------------------
# Schedule tables


def test_linear_schedule_endpoints_exact():
    s = make_linear_schedule(1000, 1e-4, 0.02)
    assert s.beta(1) == 1e-4
    assert s.beta(1000) == 0.02
    assert s.T == 1000


def test_schedule_tables_match_exact_rational_recomputation():
    T, bs, be = 60, 1e-4, 0.02
    s = make_linear_schedule(T, bs, be)
    bs_f, be_f = Fraction(bs), Fraction(be)
    abar = Fraction(1)
    prev = Fraction(1)
    for t in range(1, T + 1):
        beta = bs_f + Fraction(t - 1, T - 1) * (be_f - bs_f)
        assert abs(s.beta(t) - float(beta)) <= 1e-15
        prev = abar
        abar = abar * (1 - beta)
        assert abs(s.alpha_bar(t) - float(abar)) <= 1e-12 * float(abar)
        sigma = (1 - prev) / (1 - abar) * beta
        if t == 1:
            assert s.sigma(1) == 0.0
        else:
            assert abs(s.sigma(t) - float(sigma)) <= 1e-12 * float(sigma)


def test_alpha_bar_zero_is_one_and_bounds_checked():
    s = make_linear_schedule(10)
    assert s.alpha_bar(0) == 1.0
    with pytest.raises(ValidationError):
        s.beta(0)
    with pytest.raises(ValidationError):
        s.beta(11)
    with pytest.raises(ValidationError):
        s.sigma(-1)


def test_schedule_validation():
    with pytest.raises(ValidationError):
        make_linear_schedule(1)
    with pytest.raises(ValidationError):
        make_linear_schedule(10, 0.0, 0.02)
    with pytest.raises(ValidationError):
        make_linear_schedule(10, 0.3, 0.2)
    with pytest.raises(ValidationError):
        NoiseSchedule(np.array([0.1]))
    with pytest.raises(ValidationError):
        NoiseSchedule(np.array([0.1, 1.0]))


def test_schedule_to_csv_round_trips_floats(tmp_path):
    s = make_linear_schedule(12)
    path = tmp_path / "sched.csv"
    schedule_to_csv(s, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,beta,alpha_bar,sigma"
    assert len(lines) == 13
    for line in lines[1:]:
        t, beta, abar, sigma = line.split(",")
        t = int(t)
        assert float(beta) == s.beta(t)
        assert float(abar) == s.alpha_bar(t)
        assert float(sigma) == s.sigma(t)


# ---------------------------------------------------------------------------
# Forward and reverse steps


def test_q_sample_formula():
    s = make_linear_schedule(20)
    C0, eps = _vol(1), _vol(2)
    for t in (1, 7, 20):
        got = q_sample(C0, t, eps, s)
        ab = s.alpha_bar(t)
        expect = math.sqrt(ab) * C0.values + math.sqrt(1 - ab) * eps.values
        np.testing.assert_array_equal(got.values, expect)


def test_p_step_formula_and_terminal_determinism():
    s = make_linear_schedule(20)
    C, eh, noise = _vol(3).values, _vol(4).values, _vol(5).values
    t = 9
    got = p_step(C, t, eh, noise, s)
    mean = (C - s.beta(t) / math.sqrt(1 - s.alpha_bar(t)) * eh)
    mean = mean / math.sqrt(s.alpha(t))
    np.testing.assert_allclose(got, mean + s.sigma(t) * noise,
                               rtol=0, atol=1e-15)
    # at t=1 sigma is exactly zero: the injected noise must not matter
    a = p_step(C, 1, eh, _vol(6).values, s)
    b = p_step(C, 1, eh, 1e6 * np.ones(C.shape), s)
    np.testing.assert_array_equal(a, b)
    # a batch of states steps row by row
    rows = np.stack([C, eh])
    both = p_step(rows, t, np.stack([eh, C]), np.stack([noise, noise]), s)
    np.testing.assert_array_equal(both[0], got)
    np.testing.assert_array_equal(both[1], p_step(eh, t, C, noise, s))


def test_steps_validate_dims():
    s = make_linear_schedule(10)
    with pytest.raises(ShapeMismatchError):
        q_sample(_vol(1), 3, _vol(2, dims=(3, 4, 4)), s)
    with pytest.raises(ShapeMismatchError):
        p_step(_vol(1).values, 3, _vol(2, dims=(3, 4, 4)).values,
               _vol(3).values, s)


# ---------------------------------------------------------------------------
# Oracle posterior against an independent log-space derivation


@pytest.fixture(scope="module")
def small_oracle():
    gen = np.random.default_rng(7)
    comps = [Volume3(gen.standard_normal((6, 6, 6))) for _ in range(3)]
    anchors = gen.standard_normal((3, 4))
    sched = make_linear_schedule(40)
    oracle = GaussianMixtureOracle(
        [(0.2, comps[0]), (0.3, comps[1]), (0.5, comps[2])],
        anchors=anchors, tau=0.7, sched=sched)
    return oracle, sched


@pytest.mark.parametrize("t", [1, 13, 40])
@pytest.mark.parametrize("conditional", [False, True])
def test_predict_eps_matches_fsum_reference(small_oracle, t, conditional):
    oracle, sched = small_oracle
    gen = np.random.default_rng(100 + t)
    C_t = Volume3(gen.standard_normal((6, 6, 6)))
    z = gen.standard_normal(4) if conditional else None

    stack = oracle.stack.reshape(3, -1)
    cond = None
    if conditional:
        dz = z - oracle.anchors
        cond = [-float(d @ d) / (2 * oracle.tau ** 2) for d in dz]
    expect_eps, expect_w = helpers.mixture_eps_reference(
        C_t.values.ravel(), stack, np.log(oracle.weights), sched.alpha_bar(t),
        cond)

    got = oracle.predict_eps(C_t.values[None], t, [z])[0]
    np.testing.assert_allclose(got.ravel(), expect_eps, rtol=0, atol=1e-10)
    w = oracle.posterior_weights(C_t.values[None], t, [z])[0]
    np.testing.assert_allclose(w, expect_w, rtol=0, atol=1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_gradient_matches_finite_differences():
    # components must stay close and the observation near their barycenter,
    # otherwise the posterior saturates and every gradient is ~0
    gen = np.random.default_rng(55)
    base = gen.standard_normal((4, 4, 4))
    comps = [Volume3(base + 0.1 * gen.standard_normal((4, 4, 4)))
             for _ in range(3)]
    anchors = gen.standard_normal((3, 4))
    sched = make_linear_schedule(40)
    oracle = GaussianMixtureOracle(
        [(0.2, comps[0]), (0.3, comps[1]), (0.5, comps[2])],
        anchors=anchors, tau=1.5, sched=sched)
    t = 35
    mid = Volume3((comps[0].values + comps[2].values) / 2)
    eps = Volume3(gen.standard_normal((4, 4, 4)))
    C_t = q_sample(mid, t, eps, sched)
    z = anchors[1] + 0.3 * gen.standard_normal(4)

    w = oracle.posterior_weights(C_t.values[None], t, [z])[0]
    assert w.max() < 0.99, "fixture must keep the posterior mixed"

    eps_hat, grad = oracle.predict_eps_grad_z(C_t, t, z, eps)
    np.testing.assert_array_equal(
        eps_hat.values, oracle.predict_eps(C_t.values[None], t, [z])[0])
    assert np.abs(grad).max() > 1e-6, "fixture must have a usable gradient"

    def loss(zv):
        eh = oracle.predict_eps(C_t.values[None], t, [zv])[0]
        return float(np.mean((eh - eps.values) ** 2))

    h = 1e-6
    for i in range(4):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        fd = (loss(zp) - loss(zm)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-9)


def test_oracle_validation():
    v = _vol(1, dims=(4, 4, 4))
    with pytest.raises(ValidationError):
        GaussianMixtureOracle([])
    with pytest.raises(ValidationError):
        GaussianMixtureOracle([(0.5, v), (0.6, v)])
    with pytest.raises(ValidationError):
        GaussianMixtureOracle([(1.0, v)], tau=0.0)
    with pytest.raises(ValidationError):
        GaussianMixtureOracle([(0.5, v), (-0.5, v)])
    with pytest.raises(ShapeMismatchError):
        GaussianMixtureOracle([(0.5, v), (0.5, _vol(2, dims=(3, 4, 4)))])
    with pytest.raises(ValidationError):
        GaussianMixtureOracle([(0.6, v), (0.4, v)], anchors=np.zeros((3, 2)))
    sched = make_linear_schedule(10)
    una = GaussianMixtureOracle([(1.0, v)], sched=sched)
    rows = v.values[None]
    with pytest.raises(ValidationError):
        una.predict_eps(rows, 3, z=[np.zeros(2)])  # conditional without anchors
    with pytest.raises(ValidationError):
        una.predict_eps(rows, 3, z=[None, None])  # one code per row
    unbound = GaussianMixtureOracle([(1.0, v)])
    with pytest.raises(ValidationError):
        unbound.predict_eps(rows, 3)
    with pytest.raises(ShapeMismatchError):
        una.predict_eps(_vol(3, dims=(5, 4, 4)).values[None], 3)
    with pytest.raises(ShapeMismatchError):
        una.predict_eps(v.values, 3)  # a bare volume is not a batch


def test_predict_eps_at_time_zero_is_zero():
    v = _vol(9)
    oracle = GaussianMixtureOracle([(1.0, v)], sched=make_linear_schedule(10))
    out = oracle.predict_eps(v.values[None], 0)
    np.testing.assert_array_equal(out, np.zeros((1, *v.dims)))


def test_single_component_eps_recovery_exact():
    sched = make_linear_schedule(30)
    X = _vol(11)
    oracle = GaussianMixtureOracle([(1.0, X)], sched=sched)
    eps = _vol(12)
    for t in (1, 15, 30):
        C_t = q_sample(X, t, eps, sched)
        got = oracle.predict_eps(C_t.values[None], t)[0]
        np.testing.assert_allclose(got, eps.values, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# Sampling


def test_ddpm_single_component_collapses_to_it():
    sched = make_linear_schedule(50)
    X = _vol(13)
    oracle = GaussianMixtureOracle([(1.0, X)], sched=sched)
    out = sample(oracle, sched, dims=X.dims, rng_seeds=[3])[0]
    np.testing.assert_allclose(out, X.values, rtol=0, atol=1e-9)


def test_ddim_single_component_collapses_to_it():
    sched = make_linear_schedule(50)
    X = _vol(14)
    oracle = GaussianMixtureOracle([(1.0, X)], sched=sched)
    out = sample(oracle, sched, dims=X.dims, rng_seeds=[3],
                 step_subset=default_step_subset(50))[0]
    np.testing.assert_allclose(out, X.values, rtol=0, atol=1e-9)


def test_sampling_is_bit_reproducible():
    sched = make_linear_schedule(25)
    gen = np.random.default_rng(15)
    comps = [Volume3(gen.standard_normal((4, 4, 4))) for _ in range(2)]
    oracle = GaussianMixtureOracle([(0.5, comps[0]), (0.5, comps[1])],
                                   sched=sched)
    a = sample(oracle, sched, dims=(4, 4, 4), rng_seeds=[77])
    b = sample(oracle, sched, dims=(4, 4, 4), rng_seeds=[77])
    np.testing.assert_array_equal(a, b)
    c = sample(oracle, sched, dims=(4, 4, 4), rng_seeds=[78])
    assert not np.array_equal(a, c)


def _coded_oracle(T=30, dims=(6, 5, 4), K=4, L=3, seed=21):
    gen = np.random.default_rng(seed)
    comps = [Volume3(gen.standard_normal(dims)) for _ in range(K)]
    anchors = gen.standard_normal((K, L))
    sched = make_linear_schedule(T)
    oracle = GaussianMixtureOracle([(1.0 / K, c) for c in comps],
                                   anchors=anchors, tau=0.8, sched=sched)
    return oracle, sched, anchors


@pytest.mark.parametrize("B", [1, 4])
@pytest.mark.parametrize("t", [1, 2, 17, 40])
def test_batched_predict_eps_rows_match_single_state_sums(B, t):
    oracle, sched, anchors = _coded_oracle(T=40, dims=(9, 8, 7), K=8, L=5)
    gen = np.random.default_rng(B * 100 + t)
    C = 0.3 * gen.standard_normal((B, 9, 8, 7)) + oracle.stack[0]
    for zs in (None, [anchors[b % 8] + 0.1 * b if b % 2 == 0 else None
                      for b in range(B)]):
        got = oracle.predict_eps(C, t, zs)
        assert got.shape == C.shape
        for b in range(B):
            z = None if zs is None else zs[b]
            expect = helpers.mixture_eps_single(
                C[b], oracle.stack, oracle.weights, sched.alpha_bar(t),
                anchors, oracle.tau, z)
            np.testing.assert_array_equal(got[b], expect)


@pytest.mark.parametrize("subset", [None, (30, 22, 9, 4, 1)],
                         ids=["ancestral", "subset"])
def test_batched_rows_equal_single_chain_reference(subset):
    oracle, sched, anchors = _coded_oracle()
    dims = oracle.dims
    seeds = [5, 2 ** 40 + 3, 5]
    # coded and uncoded rows mixed, as regeneration's unconditional chain B
    zs = [anchors[1], None, anchors[2] + 0.1]
    rows = sample(oracle, sched, dims, seeds, zs, step_subset=subset)
    assert rows.shape == (3, *dims)

    def eps_fn(C, t, z):
        return helpers.mixture_eps_single(C, oracle.stack, oracle.weights,
                                          sched.alpha_bar(t), anchors,
                                          oracle.tau, z)

    for i in range(3):
        ref = helpers.single_chain_reference(eps_fn, sched, dims, seeds[i],
                                             zs[i], subset)
        np.testing.assert_array_equal(rows[i], ref)
        alone = sample(oracle, sched, dims, seeds[i:i + 1], zs[i:i + 1],
                       step_subset=subset)
        np.testing.assert_array_equal(alone[0], rows[i])
    unconditional = sample(oracle, sched, dims, seeds, step_subset=subset)
    np.testing.assert_array_equal(
        unconditional[1], helpers.single_chain_reference(
            eps_fn, sched, dims, seeds[1], None, subset))
    assert sample(oracle, sched, dims, [], step_subset=subset).shape == (0, *dims)


def test_sample_needs_one_code_slot_per_seed():
    oracle, sched, anchors = _coded_oracle()
    with pytest.raises(ValidationError):
        sample(oracle, sched, oracle.dims, [1, 2], [anchors[0]])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("subset", [None, (10, 5, 1)],
                         ids=["ancestral", "subset"])
def test_non_finite_chain_state_raises_numerical_error(subset):
    sched = make_linear_schedule(10)
    huge = np.full((4, 4, 4), 1e200)
    oracle = GaussianMixtureOracle([(0.5, Volume3(huge)), (0.5, Volume3(-huge))],
                                   sched=sched)
    with pytest.raises(NumericalError, match="step 10, row 0"):
        sample(oracle, sched, (4, 4, 4), [1, 2], step_subset=subset)


def test_conditioning_code_changes_the_noise_stream():
    # chains are keyed by a digest of z, so distinct codes decorrelate even
    # when the conditional posterior is identical
    assert chain_stream_name(None) == "unconditional"
    z1, z2 = np.zeros(3), np.ones(3)
    assert chain_stream_name(z1) == chain_stream_name(np.zeros(3))
    assert chain_stream_name(z1) != chain_stream_name(z2)


def test_default_step_subset_properties():
    subset = default_step_subset(1000)
    assert len(subset) == 100
    assert subset[0] == 1000 and subset[-1] == 1
    assert all(a > b for a, b in zip(subset, subset[1:]))
    tiny = default_step_subset(5)
    assert tiny[0] == 5 and tiny[-1] == 1


def test_sample_rejects_bad_subsets():
    sched = make_linear_schedule(20)
    X = _vol(16)
    oracle = GaussianMixtureOracle([(1.0, X)], sched=sched)
    for subset in ([], [20, 20, 1], [20, 5], [0], [25, 1]):
        with pytest.raises(ValidationError):
            sample(oracle, sched, dims=X.dims, rng_seeds=[1],
                   step_subset=subset)


# ---------------------------------------------------------------------------
# Training objective


class _ZeroDenoiser(DenoiserInterface):
    def predict_eps(self, C_t, t, z=None):
        return np.zeros(C_t.shape)


def test_training_loss_zero_denoiser_equals_eps_power():
    sched = make_linear_schedule(10)
    C0 = _vol(17)
    eps = _vol(18)
    loss = training_loss(_ZeroDenoiser(), C0, sched,
                         stream(0, "unused"), t=5, eps=eps)
    assert loss == pytest.approx(float(np.mean(eps.values ** 2)), abs=1e-15)


def test_training_loss_perfect_oracle_is_tiny():
    sched = make_linear_schedule(10)
    X = _vol(19)
    oracle = GaussianMixtureOracle([(1.0, X)], sched=sched)
    loss = training_loss(oracle, X, sched, stream(1, "loss"), t=5)
    assert loss <= 1e-18


def test_training_loss_random_step_is_reproducible():
    sched = make_linear_schedule(10)
    X = _vol(20)
    oracle = GaussianMixtureOracle([(1.0, X)], sched=sched)
    a = training_loss(oracle, X, sched, stream(2, "loss"))
    b = training_loss(oracle, X, sched, stream(2, "loss"))
    assert a == b


# ---------------------------------------------------------------------------
# Corpus directory round trip


def test_corpus_round_trip(tmp_path):
    gen = np.random.default_rng(21)
    comps = [Volume3(gen.standard_normal((5, 5, 5))) for _ in range(2)]
    details = [Volume3(gen.standard_normal((9, 9, 9))) for _ in range(2)]
    anchors = gen.standard_normal((2, 3))
    sched = make_linear_schedule(10)
    oracle = GaussianMixtureOracle([(0.4, comps[0]), (0.6, comps[1])],
                                   anchors=anchors, tau=0.5, sched=sched)
    dims_table = ((17, 17, 17), (9, 9, 9), (5, 5, 5))
    write_oracle_corpus(tmp_path, oracle, details=details,
                        dims_table=dims_table, bank_name="bior-6.8")

    back, back_details, back_dims, bank = read_oracle_corpus(tmp_path, sched=sched)
    np.testing.assert_allclose(back.weights, [0.4, 0.6], atol=1e-12)
    assert back.tau == 0.5
    assert back.sched is sched
    np.testing.assert_allclose(back.anchors, anchors, atol=1e-12)
    for got, want in zip(back.volumes, comps):
        assert np.abs(got.values - want.values).max() <= 1.2e-7 * np.abs(want.values).max()

    assert back_dims == [tuple(d) for d in dims_table]
    assert bank == "bior-6.8"
    assert len(back_details) == 2
    for got, want in zip(back_details, details):
        assert np.abs(got.values - want.values).max() <= 1.2e-7 * np.abs(want.values).max()


def test_corpus_without_optional_parts(tmp_path):
    X = _vol(22, dims=(5, 5, 5))
    oracle = GaussianMixtureOracle([(1.0, X)])
    write_oracle_corpus(tmp_path, oracle)
    back, details, dims_table, bank = read_oracle_corpus(tmp_path)
    assert back.anchors is None
    assert details is None
    assert dims_table is None and bank is None


def test_corpus_detail_count_mismatch(tmp_path):
    X = _vol(23, dims=(5, 5, 5))
    oracle = GaussianMixtureOracle([(1.0, X)])
    with pytest.raises(ValidationError):
        write_oracle_corpus(tmp_path, oracle, details=[X, X])


def test_corpus_malformed_manifest(tmp_path):
    (tmp_path / "corpus.json").write_text("{\"tau\": 1.0}")
    with pytest.raises(ValidationError):
        read_oracle_corpus(tmp_path)
