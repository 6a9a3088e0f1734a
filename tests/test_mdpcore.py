"""Log-prob utilities, keyed random streams, sampling, entropy, and trajectory
record invariants."""

from __future__ import annotations

import copy
import math
import tracemalloc

import numpy as np
import pytest

from espolab.config import RunConfig
from espolab import mdpcore
from espolab.mdpcore import (
    EVAL_STREAM,
    KEY_BLOCK,
    LANE_CELLS,
    LANE_RATIO,
    SEED_ROWS,
    TRAIN_STREAM,
    _keyed_pools,
    _pcg64_seeds,
    _state_words,
    _xsl_rr_columns,
    derived_rng,
    keyed_seeds,
    keyed_uniforms,
    log_softmax,
    seeded_uniforms,
)
from espolab.policy import TabularActor, TabularCritic
from espolab.rollout import CachedPolicy
from espolab.trainer import compute_advantages

from conftest import (
    StopReason,
    by_row,
    collect_small_batch,
    drop_kept_streams,
    pick_from_cumulative,
    random_actor,
    random_critic,
    records,
    trajectory_rng,
)


def oracle_log_softmax(logits):
    """Direct exp/sum definition, no stabilization tricks."""
    denom = math.fsum(math.exp(v) for v in logits)
    return [math.log(math.exp(v) / denom) for v in logits]


def oracle_entropy(probs):
    return -math.fsum(p * math.log(p) for p in probs if p > 0.0)


def sample_tokens(log_probs, rng, n=1):
    """Draw n tokens from a log-probability vector through the sampler that
    collection uses, CachedPolicy.sample, and check them against the scalar
    bisect reference over the same table on a copy of the stream."""
    actor = TabularActor(1, len(log_probs))
    actor.table[0] = np.where(np.isfinite(log_probs), log_probs, -1e4)
    policy = CachedPolicy(actor, TabularCritic(1))
    cum = policy.cum_probs[0].tolist()
    reference_rng = copy.deepcopy(rng)
    tokens = policy.sample(np.zeros(n, dtype=np.int64), rng.random(n))
    assert tokens.tolist() == [pick_from_cumulative(cum, reference_rng) for _ in range(n)]
    return tokens


def entropy(logits):
    """Entropy of one logit row, as the per-batch policy cache computes it."""
    actor = TabularActor(1, len(logits))
    actor.table[0] = logits
    return CachedPolicy(actor, TabularCritic(1)).entropies[0]


def check_invariants(traj, actor, t_max=None, tol=1e-12):
    """Raise AssertionError if a trajectory collected under actor violates a
    structural invariant."""
    assert traj.steps, "trajectory must contain at least one step"
    for rec in traj.steps:
        lp_max = float(log_softmax(actor.table[rec.state_id]).max())
        assert rec.regret_raw >= 0.0
        assert rec.log_prob_sampled <= lp_max <= 0.0 + tol
        assert abs(rec.regret_raw - (lp_max - rec.log_prob_sampled)) <= tol
    if t_max is not None:
        assert len(traj.steps) <= t_max
        if traj.stop_reason is StopReason.HORIZON_CAP:
            assert len(traj.steps) == t_max
    if traj.hypothetical_stop_index is not None:
        assert 0 <= traj.hypothetical_stop_index < len(traj.steps)


class TestLogSoftmax:
    def test_uniform_logits(self):
        out = log_softmax([0.0, 0.0, 0.0, 0.0])
        for v in out:
            assert abs(v - math.log(0.25)) < 1e-12

    def test_against_direct_computation(self):
        expected = oracle_log_softmax([2.0, 0.0])
        out = log_softmax([2.0, 0.0])
        assert abs(out[0] - expected[0]) < 1e-12
        assert abs(out[1] - expected[1]) < 1e-12
        # frozen from the oracle above
        assert abs(out[0] - -0.126928011042972) < 1e-12

    def test_shift_invariance(self):
        a = log_softmax([5.0, 5.0])
        b = log_softmax([0.0, 0.0])
        assert np.max(np.abs(a - b)) < 1e-12

    def test_shift_invariance_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            logits = rng.normal(0, 2, size=rng.integers(2, 12))
            shift = rng.normal(0, 10)
            assert np.max(np.abs(log_softmax(logits) - log_softmax(logits + shift))) < 1e-12

    def test_normalization(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            lp = log_softmax(rng.normal(0, 3, size=6))
            assert abs(np.exp(lp).sum() - 1.0) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            log_softmax([1.0, float("nan")])
        with pytest.raises(ValueError):
            log_softmax([1.0, float("inf")])

    def test_rowwise_matches_vector(self):
        rng = np.random.default_rng(9)
        table = rng.normal(0, 2, size=(5, 8))
        rows = log_softmax(table, axis=-1)
        for i in range(5):
            assert np.array_equal(rows[i], log_softmax(table[i]))


T_MAX = RunConfig().t_max
SEEDS = [0, 12, 2**32 - 1, 2**32, 2**70 + 1]
PREFIXES = [(TRAIN_STREAM, 0), (TRAIN_STREAM, 299), (TRAIN_STREAM, 2**33), (EVAL_STREAM, 7)]
ROW_SPANS = [(0, 64), (64, 5), (2**32 - 4, 4)]  # (first, count); the last ends at 2**32 - 1


def stacked_streams(seed, prefix, first, count, n):
    """The oracle: one SeedSequence -> PCG64 -> Generator per row."""
    return np.stack([derived_rng(seed, *prefix, i).random(n) for i in range(first, first + count)])


class TestKeyedUniforms:
    @pytest.mark.parametrize("prefix", PREFIXES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_equal_their_own_streams(self, seed, prefix):
        for first, count in ROW_SPANS:
            for n in (1, T_MAX, 2 * T_MAX):
                out = keyed_uniforms(seed, prefix, first, count, n)
                assert out.shape == (count, n)
                assert (out == stacked_streams(seed, prefix, first, count, n)).all()

    @pytest.mark.parametrize("prefix", PREFIXES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_stages_equal_numpys_own(self, seed, prefix):
        # three consecutive last keys, each with the last six row indices
        first, count, keys = 2**32 - 6, 6, 3
        pools = _keyed_pools(seed, prefix, first, count, keys)
        words = _state_words(pools)
        seeds = _pcg64_seeds(words)
        assert pools.dtype == np.uint32 and words.dtype == seeds.dtype == np.uint64
        assert np.array_equal(keyed_seeds(seed, prefix, first, count, keys), seeds)
        *head, last = prefix
        for j, (k, i) in enumerate((k, i) for k in range(keys)
                                   for i in range(first, first + count)):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(*head, last + k, i))
            assert pools[:, j].tolist() == ss.pool.tolist()
            assert words[:, j].tolist() == ss.generate_state(4, np.uint64).tolist()
            state = np.random.PCG64(ss).state["state"]
            s_hi, s_lo, inc_hi, inc_lo = seeds[:, j].tolist()
            assert (s_hi << 64 | s_lo, inc_hi << 64 | inc_lo) == (state["state"], state["inc"])

    @pytest.mark.parametrize("seed", [0, 2**70 + 1])
    def test_rows_across_block_boundaries(self, seed):
        # last keys on both sides of a block boundary, and blocks that end at
        # 2**32 - 1 and start at 2**32 and 2**33, where the key gains a word;
        # 64 x 64 is drawn as lanes on both edges of the lane rule (LANE_RATIO
        # streams a draw, LANE_CELLS uniforms), 32 x 64 on the ratio's edge
        assert (KEY_BLOCK, LANE_RATIO, LANE_CELLS) == (32, 16, 2**17)
        for last in (31, 32, 33, 2**32 - 1, 2**32, 2**33 - 1, 2**33, 2**33 + 1):
            for count in (1, 8, 32, 64, 100, 2049):
                n = 2 if count > 64 else T_MAX
                out = keyed_uniforms(seed, (TRAIN_STREAM, last), 0, count, n)
                assert (out == stacked_streams(seed, (TRAIN_STREAM, last), 0, count, n)).all()

    def test_a_block_holds_at_most_seed_rows_streams(self):
        # 32 keys of up to 64 rows, halved until they fit SEED_ROWS, or one key
        for count, keys in [(64, 32), (100, 16), (2049, 1)]:
            keyed_uniforms(0, (TRAIN_STREAM, 40), 0, count, 1)
            hits = keyed_seeds.cache_info().hits
            block = keyed_seeds(0, (TRAIN_STREAM, 40 - 40 % keys), 0, count, keys)
            assert keyed_seeds.cache_info().hits == hits + 1
            assert block.shape == (4, keys * count) and keys * count <= max(SEED_ROWS, count)

    def test_calls_out_of_order_and_after_a_fresh_seeding(self):
        # the kept block serves a later key of the same block, a key of an
        # earlier block in between, and the first call after it is dropped
        for last in (40, 3, 40, 63, 32):
            out = keyed_uniforms(7, (TRAIN_STREAM, last), 0, 64, T_MAX)
            assert (out == stacked_streams(7, (TRAIN_STREAM, last), 0, 64, T_MAX)).all()
        drop_kept_streams()
        out = keyed_uniforms(7, (TRAIN_STREAM, 40), 0, 64, T_MAX)
        assert (out == stacked_streams(7, (TRAIN_STREAM, 40), 0, 64, T_MAX)).all()
        assert not keyed_seeds(7, (TRAIN_STREAM, 32), 0, 64, KEY_BLOCK).flags.writeable

    def test_lane_words_equal_pcg64_raw_output(self):
        # before the double conversion: each lane's XSL-RR words are its
        # PCG64's random_raw, for a three-word seed and two-word keys
        seeds = keyed_seeds(2**70 + 1, (TRAIN_STREAM, 2**32), 0, 64, 4)
        words = np.stack(list(_xsl_rr_columns(seeds, 40)))
        assert words.dtype == np.uint64 and words.shape == (40, 256)
        for j in (0, 63, 64, 130, 255):
            ss = np.random.SeedSequence(entropy=2**70 + 1,
                                        spawn_key=(TRAIN_STREAM, 2**32 + j // 64, j % 64))
            assert words[:, j].tolist() == np.random.PCG64(ss).random_raw(40).tolist()

    def test_wide_short_blocks_take_lanes(self):
        # which shapes the rule draws as lanes: the protocol's 64 x 64 does,
        # and counterfactual-long's 8 x 512 and random_stop's 64 x 128 do not
        for count, n, lanes in [(64, 64, True), (32, 64, True), (4096, 32, True),
                                (64, 65, False), (32, 65, False), (4096, 33, False),
                                (8, 512, False), (64, 128, False)]:
            drop_kept_streams()
            out = keyed_uniforms(0, (TRAIN_STREAM, 5), 0, count, n)
            assert bool(mdpcore._kept_lanes) == lanes == (not out.flags.writeable), (count, n)
            assert out.shape == (count, n)

    def test_a_new_lane_block_replaces_the_kept_one(self):
        # from key 31 to 32 at 64 x 64: the kept block is dropped before the
        # next one is drawn, and drawing it makes no block-sized temporary
        block_bytes = 64 * KEY_BLOCK * 64 * 8
        drop_kept_streams()
        tracemalloc.start()
        try:
            keyed_uniforms(3, (TRAIN_STREAM, 31), 0, 64, 64)
            assert tracemalloc.get_traced_memory()[0] >= block_bytes
            tracemalloc.reset_peak()
            keyed_uniforms(3, (TRAIN_STREAM, 32), 0, 64, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block_bytes

    @pytest.mark.parametrize("first", [0, 960])
    def test_eval_chunks_of_one_seeded_tag(self, first):
        # evaluate_policy seeds a tag's 1,024 episodes at once, then fills a
        # 64-episode chunk at a time
        seeds = keyed_seeds(12, (EVAL_STREAM, 300), 0, 1024)
        out = seeded_uniforms(seeds[:, first:first + 64], T_MAX)
        assert (out == stacked_streams(12, (EVAL_STREAM, 300), first, 64, T_MAX)).all()

    def test_row_index_must_fit_one_word(self):
        for first, count in [(2**32 - 1, 2), (2**32, 1), (-1, 2)]:
            with pytest.raises(ValueError, match="2\\*\\*32"):
                keyed_uniforms(3, (TRAIN_STREAM, 1), first, count, 4)

    def test_negative_keys_rejected(self):
        for seed, prefix in [(-1, (TRAIN_STREAM, 0)), (0, (TRAIN_STREAM, -5))]:
            with pytest.raises(ValueError, match="non-negative"):
                keyed_uniforms(seed, prefix, 0, 2, 4)


class TestSampleToken:
    def test_one_hot_always_returns_hot_index(self):
        lp = np.array([-np.inf, -np.inf, 0.0, -np.inf])
        rng = np.random.default_rng(0)
        assert (sample_tokens(lp, rng, 50) == 2).all()

    def test_uniform_frequency(self):
        lp = log_softmax([0.0, 0.0])
        rng = np.random.default_rng(123)
        draws = np.count_nonzero(sample_tokens(lp, rng, 100_000) == 0)
        assert 0.49 <= draws / 100_000 <= 0.51

    def test_determinism_under_fixed_seed(self):
        lp = log_softmax([0.3, -0.2, 1.1])
        first = sample_tokens(lp, np.random.default_rng(42))
        for _ in range(5):
            assert sample_tokens(lp, np.random.default_rng(42)) == first

    def test_uniform_on_a_boundary_picks_the_next_token(self):
        # u * total equal to a cumulative entry counts that entry, as
        # bisect_right does: cum = [0.5, 1.0] and u = 0.5 give token 1
        class Half:
            def random(self):
                return 0.5

        actor = TabularActor(1, 2)
        policy = CachedPolicy(actor, TabularCritic(1))
        assert policy.cum_probs[0].tolist() == [0.5, 1.0]
        assert policy.sample(np.zeros(1, dtype=np.int64), np.array([0.5]))[0] == 1
        assert pick_from_cumulative(policy.cum_probs[0].tolist(), Half()) == 1

    def test_trajectory_streams_are_keyed_not_sequential(self):
        a = trajectory_rng(0, 3, 5).random(4)
        b = trajectory_rng(0, 3, 5).random(4)
        c = trajectory_rng(0, 3, 6).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestEntropy:
    def test_uniform_maximum(self):
        assert abs(entropy(log_softmax([0.0] * 4)) - math.log(4)) < 1e-12

    def test_one_hot_zero(self):
        # exp(-1e4) underflows to exactly 0: a one-hot distribution
        assert entropy(np.array([0.0, -1e4, -1e4])) == 0.0

    def test_nine_one_split(self):
        lp = np.log([0.9, 0.1])
        expected = oracle_entropy([0.9, 0.1])
        assert abs(entropy(lp) - expected) < 1e-12
        assert abs(entropy(lp) - 0.3251) < 5e-5

    def test_range_and_shift_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            logits = rng.normal(0, 2, size=rng.integers(2, 10))
            h = entropy(logits)
            assert 0.0 <= h <= math.log(len(logits)) + 1e-12
            h_shift = entropy(logits + rng.normal(0, 5))
            assert abs(h - h_shift) < 1e-12


class TestTrajectoryRecords:
    def test_batch_satisfies_structural_invariants(self, small_env):
        rng = np.random.default_rng(5)
        actor = random_actor(small_env, rng)
        critic = random_critic(small_env, rng)
        batch = collect_small_batch(small_env, actor, critic, batch_size=16, t_max=8)
        td_errors = by_row(compute_advantages(batch, RunConfig(gamma=1.0), -1.0).td_errors, batch)
        for traj, row in zip(records(batch), td_errors):
            check_invariants(traj, actor, t_max=8)
            # reward sparsity: the trainer sees reward 0 at every non-final
            # step and the outcome at the last, so delta_t = V(s_t+1) - V(s_t)
            values = [rec.value_estimate for rec in traj.steps]
            deltas = row[:len(values)].tolist()
            assert deltas[:-1] == [b - a for a, b in zip(values, values[1:])]
            assert deltas[-1] == traj.outcome_reward - values[-1]

    def test_regret_identity_against_raw_logits(self, small_env):
        # regret recorded from the log-softmax path equals the raw logit gap
        rng = np.random.default_rng(6)
        actor = random_actor(small_env, rng)
        critic = random_critic(small_env, rng)
        batch = collect_small_batch(small_env, actor, critic, batch_size=8, t_max=8)
        for traj in records(batch):
            for rec in traj.steps:
                row = actor.table[rec.state_id]
                gap = row.max() - row[rec.action]
                assert abs(rec.regret_raw - gap) < 1e-12

    def test_early_stop_reason_implication(self, small_env):
        rng = np.random.default_rng(13)
        actor = random_actor(small_env, rng)
        critic = random_critic(small_env, rng)
        snapshot = None
        from conftest import plain_snapshot

        snapshot = plain_snapshot(beta=0.5, value_floor=0.2)
        batch = collect_small_batch(small_env, actor, critic, snapshot=snapshot,
                                    batch_size=32, t_max=8)
        td_errors = by_row(compute_advantages(batch, RunConfig(), -1.0).td_errors, batch)
        stopped = [(t, row) for t, row in zip(records(batch), td_errors)
                   if t.stop_reason is StopReason.EARLY_STOP]
        assert stopped, "tuned snapshot should produce early stops"
        for traj, row in stopped:
            assert traj.outcome_reward == -1.0
            assert row[len(traj.steps) - 1] == -1.0 - traj.steps[-1].value_estimate
