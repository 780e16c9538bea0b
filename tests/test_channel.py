"""Markov-correlated depolarizing sampler: frozen draw scheme, marginals,
and burst bookkeeping.

`sample_error` is the per-row oracle: one trial's error drawn with two
separate calls (u, then v) and chained by a plain loop over the qubits.
Every row of `sample_error_batch` must equal it.  The sampler reproduces
the uniforms of default_rng((seed, t)) from one reused PCG64; the guard
tests compare them with numpy's own generator bit for bit, so a numpy
release that changes SeedSequence, PCG64 or default_rng fails here."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqc import channel
from eaqc.channel import ChannelParams, _draw, _uniforms, sample_error_batch
from eaqc.decoder import DecoderConfig
from eaqc.eacode import build_theorem5, build_theorem8
from eaqc.harness import SimConfig, run_trials, sweep, write_csv
from paulis import PauliVector


def sample_error(n, params, seed):
    """One error from default_rng(seed), by the documented draw scheme."""
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    v = rng.random(n)
    cats = np.zeros(n, dtype=int)
    for j in range(n):
        if v[j] < 1.0 - params.p_d:
            c = 0
        else:
            c = 1 + min(2, int((v[j] - (1.0 - params.p_d)) / params.p_d * 3))
        cats[j] = cats[j - 1] if j > 0 and u[j] < params.eta else c
    x = ((cats == 1) | (cats == 2)).astype(np.uint8)
    z = ((cats == 2) | (cats == 3)).astype(np.uint8)
    return PauliVector(x, z)


def _row(n, params, seed):
    """The error sample_error_batch draws for trial 0 of master seed seed."""
    xs, zs = sample_error_batch(n, params, seed, 1)
    return PauliVector(xs[0], zs[0])


def max_burst_length(e):
    """Longest run of consecutive non-identity Paulis."""
    best = run = 0
    for h in e.x | e.z:
        run = run + 1 if h else 0
        best = max(best, run)
    return best


def test_params_validated():
    ChannelParams(0.0, 0.0)
    ChannelParams(1.0, 1.0)
    with pytest.raises(ValueError):
        ChannelParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        ChannelParams(0.5, 1.5)


@pytest.mark.parametrize("p_d, eta, name", [
    (True, 0.0, "p_d"), (False, 0.5, "p_d"), (0.1, True, "eta"), (0.1, np.False_, "eta")])
def test_a_bool_p_d_or_eta_fails_at_construction(p_d, eta, name):
    # a bool passes the range check as 0 or 1, and a sweep would write it
    # into the CSV's p_d or eta column as True or False
    with pytest.raises(TypeError, match=f"{name} must be a number"):
        ChannelParams(p_d, eta)


def test_zero_noise_is_identity_for_any_correlation():
    for eta in (0.0, 0.3, 1.0):
        e = _row(50, ChannelParams(0.0, eta), 7)
        assert not e.x.any() and not e.z.any() and e.phase == 0


def test_full_correlation_gives_constant_runs():
    for seed in range(20):
        e = _row(40, ChannelParams(0.9, 1.0), seed)
        assert np.all(e.x == e.x[0]) and np.all(e.z == e.z[0])
        assert max_burst_length(e) in (0, 40)


def test_determinism_and_seed_sensitivity():
    params = ChannelParams(0.3, 0.4)
    a = _row(60, params, 11)
    b = _row(60, params, 11)
    c = _row(60, params, 12)
    assert a == b
    assert a != c  # 60 qubits at p_d=0.3 collide with negligible probability


def test_frozen_draw_scheme():
    # the documented order, which sample_error spells out: u array first,
    # then v; qubit 0 ignores u
    params = ChannelParams(0.25, 0.6)
    assert _row(30, params, 424242) == sample_error(30, params, (424242, 0))


def test_batch_rows_match_per_trial_seeds():
    params = ChannelParams(0.2, 0.5)
    xs, zs = sample_error_batch(25, params, master_seed=99, trials=40)
    assert xs.shape == zs.shape == (40, 25)
    for t in range(40):
        e = sample_error(25, params, (99, t))
        assert np.array_equal(xs[t], e.x) and np.array_equal(zs[t], e.z)


def test_batch_from_an_offset_holds_those_trials():
    params = ChannelParams(0.2, 0.5)
    whole = sample_error_batch(25, params, master_seed=99, trials=40)
    part = sample_error_batch(25, params, master_seed=99, trials=15, first=20)
    assert all(np.array_equal(p, w[20:35]) for p, w in zip(part, whole))


def test_uncorrelated_frequencies_match_marginal():
    n = 100_000
    e = _row(n, ChannelParams(0.3, 0.0), 5)
    cats = e.x.astype(int) + 2 * e.z.astype(int)  # I=0 X=1 Y=3 Z=2 relabeling
    counts = np.bincount(cats, minlength=4)
    for count, prob in zip(counts, (0.7, 0.1, 0.1, 0.1)):
        sigma = np.sqrt(n * prob * (1 - prob))
        assert abs(count - n * prob) < 3 * sigma


@pytest.mark.parametrize("eta", [0.0, 0.5, 0.9])
def test_marginal_is_stationary_along_the_chain(eta):
    # fixed positions across many trials: the marginal must not drift
    params = ChannelParams(0.3, eta)
    trials, n = 4000, 9
    xs, zs = sample_error_batch(n, params, master_seed=31, trials=trials)
    ident = ~(xs.astype(bool) | zs.astype(bool))
    for pos in (0, n // 2, n - 1):
        count = int(ident[:, pos].sum())
        sigma = np.sqrt(trials * 0.7 * 0.3)
        assert abs(count - trials * 0.7) < 4 * sigma, (eta, pos)


@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_adjacent_repeat_rate_matches_conditional(eta):
    p_d = 0.3
    n = 100_000
    e = _row(n, ChannelParams(p_d, eta), 8)
    cats = e.x.astype(int) + 2 * e.z.astype(int)
    repeats = int(np.sum(cats[1:] == cats[:-1]))
    prob = (1 - eta) * ((1 - p_d) ** 2 + 3 * (p_d / 3) ** 2) + eta
    sigma = np.sqrt((n - 1) * prob * (1 - prob))
    assert abs(repeats - (n - 1) * prob) < 4 * sigma


def test_burst_length_hand_cases():
    mk = PauliVector.from_support
    assert max_burst_length(mk(6)) == 0
    assert max_burst_length(mk(6, x_on=[2])) == 1
    assert max_burst_length(mk(6, x_on=[1, 2], z_on=[2, 3])) == 3
    assert max_burst_length(mk(6, x_on=[0, 5], z_on=[1])) == 2
    assert max_burst_length(mk(3, x_on=[0, 1, 2])) == 3


def test_rejects_empty_register():
    with pytest.raises(ValueError):
        sample_error_batch(0, ChannelParams(0.1, 0.0), 1, 3)


def test_negative_seed_fails_loudly():
    # default_rng((-1, t)) raises; the sampler must not wrap -1 to 2^32 - 1
    with pytest.raises(ValueError, match="-5"):
        sample_error_batch(9, ChannelParams(0.1, 0.0), -5, 3)


def test_trial_range_is_checked():
    with pytest.raises(ValueError):
        sample_error_batch(9, ChannelParams(0.1, 0.0), 1, 3, first=-1)
    # the last trial index that fits in two entropy words is 2^64 - 1
    sample_error_batch(9, ChannelParams(0.1, 0.0), 1, 2, first=2**64 - 2)
    with pytest.raises(ValueError):
        sample_error_batch(9, ChannelParams(0.1, 0.0), 1, 3, first=2**64 - 2)


# ── the one kept draw ─────────────────────────────────────────────────

def test_a_repeated_draw_is_the_same_read_only_array():
    first = _uniforms(50, 7, 12, 3)
    assert _uniforms(50, 7, 12, 3) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0.5


@pytest.mark.parametrize("args", [(52, 7, 12, 3), (50, 8, 12, 3), (50, 7, 13, 3),
                                  (50, 7, 12, 4)])
def test_a_changed_argument_draws_afresh(args):
    kept = _uniforms(50, 7, 12, 3)
    got = _uniforms(*args)
    assert got is not kept
    width, seed, trials, first = args
    _assert_draws_match_default_rng(width // 2, seed, trials, first)
    # and the key that was evicted draws the same numbers again
    assert np.array_equal(_uniforms(50, 7, 12, 3), kept)


def test_the_kept_draw_does_not_answer_a_bad_seed():
    params = ChannelParams(0.1, 0.0)
    sample_error_batch(9, params, 0, 3)
    # 0.0 == 0 with one hash: the seed is checked before the cache is read
    with pytest.raises(TypeError):
        sample_error_batch(9, params, 0.0, 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="-1"):
            sample_error_batch(9, params, -1, 3)


def _counted(monkeypatch, name):
    """channel's function name, counting its calls from now on in calls[0]."""
    fn, calls = getattr(channel, name), [0]

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(channel, name, counted)
    return calls


def test_the_points_of_a_sweep_share_one_draw(monkeypatch):
    cfg = SimConfig(build_theorem5(5, 2, 2), ChannelParams(0.02, 0.0),
                    DecoderConfig("binary-spa", 0.02), 40, 3)
    pds, etas = (0.02, 0.04), (0.0, 0.5)
    _draw.cache_clear()
    made, asked = _counted(monkeypatch, "_pcg64_states"), _counted(monkeypatch, "_draw")
    shared = write_csv(sweep(cfg, pds, etas))
    # the sweep samples each point for its syndrome table, then run_trials
    # samples it again: one draw made, asked for eight times
    assert (made[0], asked[0]) == (1, 8)
    rows = []
    for p_d in pds:
        for eta in etas:
            _draw.cache_clear()
            rows += sweep(cfg, (p_d,), (eta,))
    assert write_csv(rows) == shared


@pytest.mark.parametrize("build, trials", [((build_theorem5, 7, 3, 3), 5000),
                                          ((build_theorem8, 6, 2), 1000)],
                         ids=["n49-5000", "n390-1000"])
def test_a_point_of_several_chunks_peaks_as_without_the_kept_draw(build, trials,
                                                                   monkeypatch):
    # 3566 + 1434 trials on [[49,12;1]], 3 x 448 trials on [[390,132;128]]:
    # no chunk's draw is asked for again, so keeping one must not raise the
    # point's peak, neither while the next chunk is drawn nor while a chunk
    # decodes
    code = build[0](*build[1:])
    cfg = SimConfig(code, ChannelParams(0.001, 0.0),
                    DecoderConfig("quaternary-spa", 0.001), trials, 0)
    run_trials(cfg)  # the code's graph and basis, built outside the measure

    def peak():
        _draw.cache_clear()
        tracemalloc.start()
        try:
            run_trials(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    kept = peak()
    monkeypatch.setattr(channel, "_draw", _draw.__wrapped__)
    cache_free = peak()
    chunk_draw = 16 * code.n * (3566 if code.n == 49 else 448)
    assert kept <= cache_free + chunk_draw // 64


# ── the frozen draws against numpy's default_rng ──────────────────────

# Every family of the README: [[9,4;1]], [[25,8;1]], [[42,10;6]],
# [[49,12;1]], [[121,70;51]], [[381,2;379]] and [[390,132;128]].
FAMILY_NS = (9, 25, 42, 49, 121, 381, 390)

# Seeds of 1, 1, 1, 2, 3 and 4 32-bit words; with the trial's word,
# 2**96 + 5 gives SeedSequence more entropy than its pool of 4 words.
GUARD_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64, 2**96 + 5)


def _assert_draws_match_default_rng(n, seed, trials, first=0):
    """Every row equals default_rng((seed, t)).random(2n), bit for bit."""
    got = _uniforms(2 * n, seed, trials, first)
    want = np.array([np.random.default_rng((seed, t)).random(2 * n)
                     for t in range(first, first + trials)]).reshape(trials, 2 * n)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (seed, first)


@pytest.mark.parametrize("seed", GUARD_SEEDS)
def test_draws_match_default_rng_for_every_seed_length(seed):
    _assert_draws_match_default_rng(25, seed, 20)
    _assert_draws_match_default_rng(25, seed, 5, first=1000)


@pytest.mark.parametrize("seed", [0, 2**32, 2**96 + 5])
def test_draws_match_default_rng_across_two_to_the_32(seed):
    # the trial index takes a second entropy word from 2^32 on
    _assert_draws_match_default_rng(9, seed, 6, first=2**32 - 3)
    _assert_draws_match_default_rng(9, seed, 3, first=2**40)


@pytest.mark.parametrize("n", FAMILY_NS)
def test_draws_match_default_rng_for_every_family(n):
    _assert_draws_match_default_rng(n, 7, 12, first=3)
    # and the errors chained from them match the per-row oracle
    params = ChannelParams(0.3, 0.5)
    xs, zs = sample_error_batch(n, params, 7, 4, first=3)
    for row in range(4):
        e = sample_error(n, params, (7, 3 + row))
        assert np.array_equal(xs[row], e.x) and np.array_equal(zs[row], e.z)


def test_no_trials_draw_nothing():
    assert _uniforms(18, 3, 0, 5).shape == (0, 18)
    assert all(a.shape == (0, 9) for a in sample_error_batch(9, ChannelParams(0.1, 0.2), 3, 0))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**130)),
    st.one_of(st.integers(0, 10**6), st.integers(2**32 - 8, 2**32 + 8),
              st.integers(0, 2**64 - 9)),
    st.integers(0, 8),
    st.integers(1, 400),
)
def test_draws_match_default_rng(seed, first, trials, n):
    _assert_draws_match_default_rng(n, seed, trials, first)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 40),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_samples_are_reproducible_and_phase_free(n, p_d, eta, seed):
    params = ChannelParams(p_d, eta)
    xs, zs = sample_error_batch(n, params, seed, 3)
    again = sample_error_batch(n, params, seed, 3)
    assert np.array_equal(xs, again[0]) and np.array_equal(zs, again[1])
    assert xs.shape == zs.shape == (3, n)
    for t in range(3):
        assert PauliVector(xs[t], zs[t]) == sample_error(n, params, (seed, t))
