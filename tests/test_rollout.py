"""Collection loop: stop semantics, counterfactual mode, determinism, accounting."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import espolab
from espolab import mdpcore, rollout
from espolab.envs import RecoverableBranchSpec, TrapChainSpec, build_environment
from espolab.config import RunConfig
from espolab.mdpcore import log_softmax
from espolab.policy import TabularActor, TabularCritic
from espolab.rollout import EARLY_STOP, CachedPolicy, collect_batch, evaluate_policy
from espolab.stopper import StopperState
from espolab.trainer import TrainingRun, compute_advantages
from espolab.variants import COUNTERFACTUAL, STANDARD, variant_dispatch

from conftest import (
    StepRecord,
    StopReason,
    Trajectory,
    assert_same_batch,
    batch_from_trajectories,
    by_row,
    collect_small_batch,
    collect_trajectory,
    dump_trajectory,
    drop_kept_streams,
    env_step,
    pick_from_cumulative,
    plain_snapshot,
    random_actor,
    random_critic,
    records,
    standard_view,
    trajectory_rng,
)


def make_env(padding=None, vocab=4, length=3):
    return build_environment(TrapChainSpec(vocab, length, tuple(range(length)), padding))


def make_traj(length, reason=StopReason.NATURAL_END, outcome=0.0,
              hypothetical_stop_index=None):
    steps = tuple(StepRecord(0, 0, -1.0, 0.0, 0.0, 0.0, 0.1) for _ in range(length))
    return Trajectory(steps, reason, outcome, hypothetical_stop_index)


def collect_one(actor, critic, snapshot, env, t_max, mode, r_fail=-1.0, seed=0):
    """Trajectory 0 of a one-trajectory collect_batch, as `mode`'s loop
    leaves it (its standard_view in standard mode), checked against the
    scalar oracle on the same stream."""
    batch = collect_batch(actor, critic, snapshot, env, 1, t_max, mode, r_fail, seed, 1)
    (traj,) = records(standard_view(batch, r_fail) if mode == STANDARD else batch)
    assert traj == collect_trajectory(actor, critic, snapshot, env, t_max, mode, r_fail,
                                      trajectory_rng(seed, 1, 0))
    return traj


class TestCollectTrajectory:
    def test_disabled_mode_matches_plain_decoding(self):
        # oracle: hand-rolled sampling loop with the same stream
        env = make_env()
        rng = np.random.default_rng(3)
        actor = random_actor(env, rng)
        critic = random_critic(env, rng)
        traj = collect_one(actor, critic, plain_snapshot(rule="ppo"), env, 8,
                           STANDARD, seed=7)
        oracle_rng = trajectory_rng(7, 1, 0)
        state = env.initial_state
        for rec in traj.steps:
            probs = np.exp(log_softmax(actor.table[state]))
            action = pick_from_cumulative(np.cumsum(probs).tolist(), oracle_rng)
            assert rec.state_id == state
            assert rec.action == action
            state, terminal, _reward = env_step(env, state, action)
            if terminal:
                break

    def test_tuned_stopper_fires_at_step_three(self):
        # negative frozen mean turns z into a deterministic ramp 0.1, 0.19,
        # 0.271; with threshold beta*eps = 0.2 the rule fires on the third step
        env = make_env(padding=None)
        actor = TabularActor(env.state_count, env.vocab_size)
        actor.table[0] = [0.0, 30.0, 0.0, 0.0]  # force a wrong first token
        critic = TabularCritic(env.state_count)
        snapshot = plain_snapshot(frozen_mu=-1.0, frozen_var=1.0 - 1e-8,
                                  alpha_s=0.9, beta=1.0, value_floor=0.2)
        traj = collect_one(actor, critic, snapshot, env, 64, STANDARD)
        assert traj.stop_reason is StopReason.EARLY_STOP
        assert len(traj.steps) == 3
        assert traj.stop_index == 2
        assert traj.outcome_reward == -1.0

    def test_natural_end_wins_over_stop_rule(self):
        # rule would fire on every step; a one-token success must still
        # terminate naturally with the environment's reward
        env = make_env(length=1, vocab=4)
        actor = TabularActor(env.state_count, env.vocab_size)
        actor.table[0] = [30.0, 0.0, 0.0, 0.0]  # always emits the target
        critic = TabularCritic(env.state_count)
        snapshot = plain_snapshot(frozen_mu=-100.0, beta=0.0, value_floor=0.2)
        traj = collect_one(actor, critic, snapshot, env, 8, STANDARD)
        assert traj.stop_reason is StopReason.NATURAL_END
        assert traj.outcome_reward == 1.0

    def test_fire_on_the_last_column_of_a_horizon_row(self):
        # the ramp of test_tuned_stopper_fires_at_step_three first exceeds
        # beta * eps = 0.545 on the eighth step (0.522, then 0.570), the last
        # column of an 8-step horizon: a stop, not a horizon cap
        env = make_env(padding=None)
        actor = TabularActor(env.state_count, env.vocab_size)
        actor.table[0] = [0.0, 30.0, 0.0, 0.0]  # force a wrong first token
        critic = TabularCritic(env.state_count)
        snapshot = plain_snapshot(frozen_mu=-1.0, frozen_var=1.0 - 1e-8,
                                  alpha_s=0.9, beta=2.725, value_floor=0.2)
        stopped = collect_one(actor, critic, snapshot, env, 8, STANDARD)
        assert stopped.stop_reason is StopReason.EARLY_STOP
        assert len(stopped.steps) == 8
        assert stopped.outcome_reward == -1.0
        extended = collect_one(actor, critic, snapshot, env, 8, COUNTERFACTUAL)
        assert extended.stop_reason is StopReason.HORIZON_CAP
        assert extended.hypothetical_stop_index == 7
        assert extended.steps == stopped.steps

    def test_horizon_cap_gets_zero_outcome(self):
        env = make_env(padding=None)
        actor = TabularActor(env.state_count, env.vocab_size)
        actor.table[0] = [0.0, 30.0, 0.0, 0.0]  # dooms immediately
        critic = TabularCritic(env.state_count)
        traj = collect_one(actor, critic, plain_snapshot(warmup_active=True), env, 16,
                           STANDARD)
        assert traj.stop_reason is StopReason.HORIZON_CAP
        assert len(traj.steps) == 16
        assert traj.outcome_reward == 0.0

    def test_warmup_suppresses_all_stops(self, small_env):
        rng = np.random.default_rng(9)
        actor = random_actor(small_env, rng)
        critic = random_critic(small_env, rng)
        snapshot = plain_snapshot(beta=0.0, warmup_active=True)
        batch = collect_small_batch(small_env, actor, critic, snapshot=snapshot,
                                    batch_size=32)
        assert all(t.stop_reason is not StopReason.EARLY_STOP for t in records(batch))

    def test_early_stop_absorbing_contract(self, small_env):
        rng = np.random.default_rng(10)
        actor = random_actor(small_env, rng)
        critic = random_critic(small_env, rng)
        batch = collect_small_batch(small_env, actor, critic,
                                    snapshot=plain_snapshot(beta=0.3),
                                    batch_size=64, t_max=8)
        td_errors = by_row(compute_advantages(batch, RunConfig(gamma=1.0), -1.0).td_errors, batch)
        stopped = [(t, row) for t, row in zip(records(standard_view(batch)), td_errors)
                   if t.stop_reason is StopReason.EARLY_STOP]
        assert stopped
        for traj, row in stopped:
            # only the stop step is rewarded: delta_t = V(s_t+1) - V(s_t)
            # before it, and r_fail - V(s_stop) with no bootstrap at it
            values = [rec.value_estimate for rec in traj.steps]
            deltas = row[:len(values)].tolist()
            assert deltas[:-1] == [b - a for a, b in zip(values, values[1:])]
            assert deltas[-1] == -1.0 - values[-1]


class TestStopSignals:
    def test_recorded_signals_follow_explicit_recursion(self, small_env):
        # g = max log-prob - sampled log-prob, g~ = clip((g - mu) / sqrt(var +
        # delta), -c, c), z = alpha * z + (1 - alpha) * g~ from z_0 = 0
        rng = np.random.default_rng(14)
        for trial in range(20):
            actor = random_actor(small_env, rng, scale=2.0)
            critic = random_critic(small_env, rng)
            mu, var = float(rng.normal(0, 1)), float(rng.uniform(0.01, 2.0))
            alpha, c = float(rng.uniform(0.5, 0.99)), float(rng.uniform(0.5, 5.0))
            snapshot = plain_snapshot(frozen_mu=mu, frozen_var=var, alpha_s=alpha,
                                      clip_bound=c, beta=0.5)
            batch = collect_small_batch(small_env, actor, critic, snapshot=snapshot,
                                        batch_size=8, seed=trial)
            for traj in records(batch):
                z = 0.0
                for rec in traj.steps:
                    lp = log_softmax(actor.table[rec.state_id])
                    assert rec.log_prob_sampled == pytest.approx(lp[rec.action], abs=1e-12)
                    assert rec.regret_raw == pytest.approx(lp.max() - lp[rec.action],
                                                           abs=1e-12)
                    scaled = (rec.regret_raw - mu) / math.sqrt(var + snapshot.stabilizer)
                    g_norm = min(max(scaled, -c), c)
                    z = alpha * z + (1.0 - alpha) * g_norm
                    assert rec.regret_normalized == g_norm
                    assert rec.smoothed_score == z


class TestCachedPolicy:
    def test_rows_match_scalar_references(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            states, vocab = int(rng.integers(1, 12)), int(rng.integers(2, 10))
            actor = TabularActor(states, vocab)
            actor.table = rng.normal(0, 3, size=(states, vocab))
            critic = TabularCritic(states)
            critic.table = rng.normal(0, 1, size=states)
            pol = CachedPolicy(actor, critic)
            for s in range(states):
                lp = log_softmax(actor.table[s])
                assert pol.log_probs[s].tolist() == pytest.approx(lp.tolist(), abs=1e-12)
                assert pol.regrets[s].tolist() == pytest.approx((lp.max() - lp).tolist(),
                                                                abs=1e-12)
                # g is each token's gap to the state's max log-prob, 0 at the max
                assert (pol.log_probs[s] + pol.regrets[s]).tolist() == pytest.approx(
                    [lp.max()] * vocab, abs=1e-12)
                assert pol.regrets[s].min() == 0.0
                entropy = -math.fsum(p * math.log(p) for p in np.exp(lp) if p > 0.0)
                assert pol.entropies[s] == pytest.approx(entropy, abs=1e-12)
                assert pol.cum_probs[s].tolist() == pytest.approx(
                    np.cumsum(np.exp(lp)).tolist(), abs=1e-12)
                assert pol.probs[s].tolist() == pytest.approx(np.exp(lp).tolist(), abs=1e-12)
                assert pol.logits[s].tolist() == actor.table[s].tolist()
                assert pol.values[s] == critic.table[s]


class TestCounterfactualMode:
    def collect_pair(self, seed=11, beta=0.5, lean=0.0, frozen_mu=0.0, **snapshot_fields):
        env = make_env(padding=None, vocab=4, length=3)
        rng = np.random.default_rng(seed)
        actor = random_actor(env, rng)
        actor.table[[0, 1, 2], [0, 1, 2]] += lean  # toward the targets 0, 1, 2
        critic = random_critic(env, rng)
        snapshot = plain_snapshot(beta=beta, frozen_mu=frozen_mu, **snapshot_fields)
        standard = collect_batch(actor, critic, snapshot, env, 16, 12,
                                 STANDARD, -1.0, seed, 1)
        extended = collect_batch(actor, critic, snapshot, env, 16, 12,
                                 COUNTERFACTUAL, -1.0, seed, 1)
        return standard, extended

    @pytest.mark.parametrize("env_name", ["trap-absorbing", "trap-padded", "recoverable"])
    @pytest.mark.parametrize("batch_size", [8, 64])  # row by row, then in lockstep
    @pytest.mark.parametrize("rule", ["espo", "value_only", "regret_only", "random_stop", "ppo"])
    def test_standard_and_counterfactual_batches_are_equal(self, rule, batch_size, env_name):
        # the mode decides only what a batch counts, so from one seed both
        # modes collect the same batch: every array equal by bytes, rows that
        # fired running on past their stop
        build, targets = ROW_PATH_ENVS[env_name]
        env = build()
        rng = np.random.default_rng(7)
        actor, critic = random_actor(env, rng), random_critic(env, rng)
        actor.table[[0, 1, 2], targets] += 1.5  # toward the targets: some rows succeed
        snapshot = plain_snapshot(rule=rule, beta=0.5, frozen_mu=-0.5, random_stop_rate=0.1,
                                  rule_threshold=0.3)
        standard, extended = (collect_batch(actor, critic, snapshot, env, batch_size, 33, mode,
                                            -1.0, 1, 2) for mode in (STANDARD, COUNTERFACTUAL))
        assert (standard.mode, extended.mode) == (STANDARD, COUNTERFACTUAL)
        assert_same_batch(standard, dataclasses.replace(extended, mode=STANDARD))
        fired = standard.stops >= 0
        assert (standard.lengths[fired] > standard.stops[fired] + 1).any() == (rule != "ppo")

    def test_fired_row_runs_on_to_success(self):
        # a policy leaning to the targets, and a negative frozen mean that
        # raises z on the chain: the rule fires on rows that still reach the
        # success terminal; standard mode cuts each at the fire with r_fail
        standard, extended = self.collect_pair(lean=2.0, frozen_mu=-1.0)
        rows = np.flatnonzero((extended.stops >= 0) & (extended.outcomes == 1.0))
        assert rows.size
        cut, full = records(standard_view(standard)), records(extended)
        for i in rows.tolist():
            idx = full[i].hypothetical_stop_index
            assert full[i].stop_reason is StopReason.NATURAL_END
            assert cut[i].stop_reason is StopReason.EARLY_STOP
            assert cut[i].steps == full[i].steps[:idx + 1]
            assert cut[i].outcome_reward == -1.0

    def test_counterfactual_records_natural_outcome(self):
        _standard, extended = self.collect_pair()
        for traj in records(extended):
            assert traj.stop_reason is not StopReason.EARLY_STOP
            if traj.hypothetical_stop_index is not None:
                # the environment's reward at the natural end, never r_fail
                assert traj.outcome_reward in (0.0, 1.0)

    def test_hypothetical_stop_count(self):
        # the stops the controller counts, in either mode, are the rows with
        # a stop index: hypothetical here, real in standard mode
        standard, extended = self.collect_pair()
        fired = sum(1 for t in records(extended) if t.hypothetical_stop_index is not None)
        assert np.count_nonzero(extended.stops >= 0) == fired
        assert np.count_nonzero(extended.stop_codes == EARLY_STOP) == 0
        stopped = sum(1 for t in records(standard_view(standard))
                      if t.stop_reason is StopReason.EARLY_STOP)
        assert np.count_nonzero(standard.stops >= 0) == stopped

    @pytest.mark.parametrize("rule", ["espo", "value_only", "regret_only", "random_stop", "ppo"])
    def test_standard_and_counterfactual_stops_are_equal(self, rule):
        # the rule decides every stop and the mode only what it does, so
        # under the same seeds both modes find the same first fire in a row
        standard, extended = self.collect_pair(
            rule=rule, rule_threshold=0.0 if rule == "value_only" else 0.3,
            random_stop_rate=0.1)
        assert standard.stops.dtype == extended.stops.dtype
        assert np.array_equal(standard.stops, extended.stops)
        assert (np.count_nonzero(standard.stops >= 0) > 0) == (rule != "ppo")

    def test_standard_rows_end_at_their_stop(self):
        # a standard row that stopped is trained and counted up to its stop,
        # effective_lengths == stops + 1, and keeps its natural end: no row
        # is collected as EARLY_STOP, and some run on past their stop
        standard, _extended = self.collect_pair()
        stopped = standard.stops >= 0
        assert stopped.any()
        assert np.array_equal(standard.effective_lengths[stopped], standard.stops[stopped] + 1)
        assert standard.total_tokens == int(standard.effective_lengths.sum())
        assert not (standard.stop_codes == EARLY_STOP).any()
        assert (standard.lengths[stopped] > standard.stops[stopped] + 1).any()


class TestRandomStopMode:
    def test_trajectory_level_rate_matches_hazard_oracle(self):
        # doomed env -> every trajectory is exposed for the full horizon, so
        # the trajectory-level stop probability is 1 - (1-q)^t_max
        env = make_env(padding=None)
        actor = TabularActor(env.state_count, env.vocab_size)
        actor.table[0] = [0.0, 30.0, 0.0, 0.0]
        critic = TabularCritic(env.state_count)
        q, t_max = 0.02, 32
        p = 1.0 - (1.0 - q) ** t_max
        stops = 0
        trials = 0
        for b in range(100):
            batch = collect_batch(actor, critic,
                                  plain_snapshot(rule="random_stop", random_stop_rate=q), env,
                                  32, t_max, STANDARD, -1.0, 5, b)
            stops += int(np.count_nonzero(batch.stops >= 0))
            trials += batch.size
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(stops / trials - p) <= 3 * sigma

    def test_rate_validation(self):
        # every hazard collection sees lies in [0, 1]: the config rejects a
        # fixed rate outside it, and the snapshot clips a traced hazard
        with pytest.raises(ValueError, match=r"random_stop_rate must lie in \[0, 1\]"):
            TrainingRun(RunConfig(variant="random_stop", random_stop_rate=1.5))
        cfg = RunConfig(variant="random_stop", random_stop_rate=0.0)
        stopper = StopperState(cfg, dataclasses.replace(variant_dispatch(cfg),
                                                        random_trace=(0.5,)))
        for correction, rate in ((2.0, 1.0), (-2.0, 0.0)):
            stopper.random_correction = correction
            assert stopper.snapshot(1).random_stop_rate == rate


class TestBatchDeterminism:
    def test_same_master_seed_gives_identical_batches(self, small_env):
        rng = np.random.default_rng(12)
        actor = random_actor(small_env, rng)
        critic = random_critic(small_env, rng)
        a = collect_small_batch(small_env, actor, critic, batch_size=8, seed=3)
        b = collect_small_batch(small_env, actor, critic, batch_size=8, seed=3)
        assert a.trajectories == b.trajectories

    def test_schedule_independence(self, small_env):
        # collecting trajectories individually, in shuffled order, reproduces
        # the batch exactly: removal/reordering cannot change any trajectory
        rng = np.random.default_rng(13)
        actor = random_actor(small_env, rng)
        critic = random_critic(small_env, rng)
        snapshot = plain_snapshot(beta=0.5)
        batch = collect_batch(actor, critic, snapshot, small_env, 8, 8,
                              STANDARD, -1.0, 21, 4)
        order = list(range(8))
        random.Random(0).shuffle(order)
        for i in order:
            solo = collect_trajectory(actor, critic, snapshot, small_env, 8,
                                      STANDARD, -1.0,
                                      trajectory_rng(21, 4, i))
            assert solo == records(standard_view(batch))[i]

    @pytest.mark.parametrize("overrides", [
        dict(variant="espo"),
        dict(variant="espo", counterfactual=True),
        dict(variant="random_stop", random_stop_rate=0.05),
    ], ids=["standard", "counterfactual", "random"])
    def test_recollecting_from_snapshot_and_mode_gives_equal_rows(self, overrides):
        # a run's batch collected again from the actor and critic it was
        # collected with, its snapshot and its mode compares equal through
        # .trajectories, and one changed score or outcome makes it unequal
        cfg = RunConfig(vocab_size=4, target_length=3, t_max=12, batch_size=8, seed=3,
                        total_steps=6, actor_init_scale=1.0, beta_init=1.0, beta_max=2.0,
                        eta_beta=0.1, **overrides)
        run = TrainingRun(cfg)
        for _ in range(cfg.total_steps - 1):
            run.step()
        actor, critic = run.actor.copy(), run.critic.copy()
        run.step()
        batch = run.last_batch
        assert np.count_nonzero(batch.stops >= 0)
        again = collect_batch(actor, critic, batch.snapshot, run.env, cfg.batch_size,
                              cfg.t_max, batch.mode, run.plan.early_stop_reward, cfg.seed,
                              run.step_index)
        assert again.trajectories == batch.trajectories
        for field in ("scores", "outcomes"):
            changed = getattr(batch, field).copy()
            changed.flat[0] += 1.0
            assert (dataclasses.replace(batch, **{field: changed}).trajectories
                    != batch.trajectories), field

    @pytest.mark.parametrize("overrides", [
        dict(variant="espo"),
        dict(variant="random_stop", random_stop_rate=0.05),
    ], ids=["standard", "random"])
    def test_step_50_collected_alone_equals_the_run_batch(self, overrides):
        # the 50th batch of a run, collected again alone with the streams'
        # kept block dropped first, as a fresh process would: every array
        # equal, and the snapshot and mode too
        cfg = RunConfig(vocab_size=4, target_length=3, t_max=12, batch_size=8, seed=5,
                        total_steps=50, actor_init_scale=1.0, beta_init=1.0, beta_max=2.0,
                        eta_beta=0.1, **overrides)
        run = TrainingRun(cfg)
        for _ in range(49):
            run.step()
        actor, critic = run.actor.copy(), run.critic.copy()
        run.step()
        batch = run.last_batch
        drop_kept_streams()
        again = collect_batch(actor, critic, batch.snapshot, run.env, cfg.batch_size,
                              cfg.t_max, batch.mode, run.plan.early_stop_reward, cfg.seed, 50)
        assert_same_batch(again, batch)


ROW_PATH_ENVS = {  # each with its target sequence
    "trap-absorbing": (lambda: make_env(padding=None), [0, 1, 2]),
    "trap-padded": (lambda: make_env(padding=2), [0, 1, 2]),
    "recoverable": (lambda: build_environment(RecoverableBranchSpec(3, 3, 2)), [0, 0, 0]),
}


class TestBatchFields:
    def test_pairs_and_scores_are_the_only_per_step_arrays(self, small_env):
        # a step's state and token are its pair's halves, and its log-prob,
        # value and regrets are entries of the policy tables it was drawn from
        rng = np.random.default_rng(4)
        actor, critic = random_actor(small_env, rng), random_critic(small_env, rng)
        batch = collect_small_batch(small_env, actor, critic)
        per_step = [f.name for f in dataclasses.fields(batch)
                    if isinstance(getattr(batch, f.name), np.ndarray)
                    and getattr(batch, f.name).ndim == 2]
        assert per_step == ["pairs", "scores"]
        assert isinstance(batch.policy, CachedPolicy)


class TestRowPathMatchesLockstep:
    """Narrow batches decode row by row, wide ones in lockstep; forced through
    either path, every input gives the same arrays, dtypes and sign bits."""

    @pytest.mark.parametrize("env_name", sorted(ROW_PATH_ENVS))
    @pytest.mark.parametrize("rule, mode", [
        *((rule, mode) for rule in ("ppo", "espo", "value_only", "regret_only")
          for mode in (STANDARD, COUNTERFACTUAL)),
        ("random_stop", STANDARD), ("random_stop", COUNTERFACTUAL),
    ])
    def test_both_paths_give_the_same_batch(self, monkeypatch, env_name, rule, mode):
        build, targets = ROW_PATH_ENVS[env_name]
        env = build()
        rng = np.random.default_rng(7)
        actor, critic = random_actor(env, rng), random_critic(env, rng)
        actor.table[[0, 1, 2], targets] += 1.5  # toward the targets: some rows succeed
        snapshot = plain_snapshot(rule=rule, beta=0.5, frozen_mu=-0.5, random_stop_rate=0.1,
                                  rule_threshold=0.3)
        seen = np.zeros(3, dtype=np.int64)  # rows by stop code, over the grid
        fired = 0
        for batch_size in (1, 15, 16, 40):
            for t_max in (1, 4, 33, 128):
                batch = self.assert_same_batches(monkeypatch, actor, critic, snapshot, env,
                                                 batch_size, t_max, mode, -1.0, 5, t_max)
                seen += np.bincount(batch.stop_codes, minlength=3)
                fired += int(np.count_nonzero(batch.stops >= 0))
        # rows ran to the horizon, absorbed or not, and to a natural end, and
        # the rule fired on rows wherever it can
        assert seen[rollout.HORIZON_CAP] > 0 and seen[rollout.NATURAL_END] > 0
        assert seen[EARLY_STOP] == 0 and (fired > 0) == (rule != "ppo")

    def test_lockstep_bulk_finish_equals_the_per_token_loop(self, monkeypatch):
        # TestBulkFinishAgainstOracle's batches of 12 rows take the row path;
        # forced through the lockstep path, its cases reach every branch of
        # the lockstep's common bulk start
        from test_differential import TestBulkFinishAgainstOracle
        monkeypatch.setattr(rollout, "ROW_PATH_ROWS", 0)
        TestBulkFinishAgainstOracle().test_every_mode_equals_the_per_token_loop()

    @staticmethod
    def assert_same_batches(monkeypatch, *args):
        batches = []
        for row_path_rows in (0, 10**9):  # lockstep, then row by row
            monkeypatch.setattr(rollout, "ROW_PATH_ROWS", row_path_rows)
            batches.append(collect_batch(*args))
        assert_same_batch(*batches)
        return batches[0]

    @pytest.mark.parametrize("padding", [2, None])
    @pytest.mark.parametrize("mode", [STANDARD, COUNTERFACTUAL])
    def test_draws_on_a_cumulative_entry_pick_the_same_token(self, monkeypatch, mode, padding):
        # zero logits over 4 tokens give the cumulative table [1/4, 1/2, 3/4, 1]
        # exactly, and every uniform here is a multiple of 1/4: each draw ties
        # with an entry and takes the token after it. Two tokens of the first
        # state have probability 0, so its table repeats entries. Without
        # padding, token 2 there enters doom:absorb, whose row has two
        # zero-probability tokens too: its ties and repeats reach the tail draw.
        env = make_env(padding=padding)
        actor = TabularActor(env.state_count, 4)
        critic = random_critic(env, np.random.default_rng(3))
        actor.table[0, [1, 3]] = -800.0
        doom = env.labels.index("doom:absorb") if padding is None else None
        if doom is not None:
            actor.table[doom, [0, 2]] = -800.0
        pol = CachedPolicy(actor, critic)
        assert pol.cum_probs[1].tolist() == [0.25, 0.5, 0.75, 1.0]
        assert pol.cum_probs[0].tolist() == [0.5, 0.5, 1.0, 1.0]
        if doom is not None:
            assert env.absorbing[doom] and pol.cum_probs[doom].tolist() == [0.0, 0.5, 0.5, 1.0]

        def quarters(master_seed, key, first, count, n):
            return np.random.default_rng(key).integers(0, 4, size=(count, n)) / 4

        monkeypatch.setattr(rollout, "keyed_uniforms", quarters)
        for batch_size, t_max in ((3, 9), (15, 33)):
            batch = self.assert_same_batches(monkeypatch, actor, critic,
                                             plain_snapshot(beta=0.5, frozen_mu=-0.5), env,
                                             batch_size, t_max, mode, -1.0, 0, t_max)
            assert set(batch.actions[:, 0].tolist()) == {0, 2}  # never a zero-probability token
            if doom is not None:
                absorbed = batch.actions[batch.states == doom]
                assert set(absorbed.tolist()) == {1, 3}


class TestGuideTableDraw:
    """The absorbed-tail draw, rollout._absorbed_tokens over a rollout._guide
    table, returns np.searchsorted(cum, u * cum[-1], side="right"): the
    token CachedPolicy.sample takes."""

    @staticmethod
    def tables(k):
        """Cumulative rows of k tokens: softmax rows as CachedPolicy builds
        them, rows with runs of zero-probability tokens (repeated entries,
        leading and trailing ones too), dyadic rows whose entries ties can
        hit, one token holding nearly all the mass, and totals other than 1."""
        rng = np.random.default_rng(k)
        yield np.cumsum(np.exp(log_softmax(rng.normal(0.0, 2.0, size=k))))
        yield np.cumsum(rng.random(k) * 3.7)
        zeros = rng.random(k) * 0.3
        zeros[rng.random(k) < 0.5] = 0.0
        zeros[[0, -1]] = 0.0
        zeros[k // 2] = 1.0
        yield np.cumsum(zeros)
        yield np.cumsum(rng.integers(0, 4, size=k) / 8.0 + (np.arange(k) == 1))
        skewed = np.full(k, 1e-6)
        skewed[k // 3] = 5.0
        yield np.cumsum(skewed)

    @staticmethod
    def uniforms(cum):
        """Every bucket edge b / M and the double below it, every uniform
        whose product with the total ties an entry, 0, 1 - 2**-53, and
        random draws."""
        buckets = rollout._guide(cum)[0]
        edges = np.arange(buckets) / buckets
        total = cum[-1]
        near = np.concatenate([cum / total, np.nextafter(cum / total, 0.0),
                               np.nextafter(cum / total, 1.0)])
        ties = near[(near < 1.0) & np.isin(near * total, cum)]
        rng = np.random.default_rng(len(cum))
        u = np.concatenate([edges, np.nextafter(edges[1:], 0.0), ties,
                            [0.0, 1.0 - 2.0**-53], rng.random(4096)])
        return u, ties

    @pytest.mark.parametrize("k", [2, 3, 8, 9, 64, 200])
    def test_walk_ends_at_the_searchsorted_count(self, k):
        tied = walked = 0
        for cum in self.tables(k):
            u, ties = self.uniforms(cum)
            tied += ties.size
            assert (u >= 0.0).all() and (u < 1.0).all()
            want = np.searchsorted(cum, u * cum[-1], side="right")
            buckets, lower, _, _ = guide = rollout._guide(cum)
            got = rollout._absorbed_tokens(guide, u)
            assert got.dtype == np.int64 and (got == want).all()
            walked = max(walked, int((got - lower.take((u * buckets).astype(np.int64))).max()))
            # as the lockstep path calls it, a block of rows by columns
            block = u[:len(u) // 8 * 8].reshape(8, -1)
            assert (rollout._absorbed_tokens(guide, block)
                    == want[:block.size].reshape(block.shape)).all()
        assert tied  # the dyadic rows put draws on their entries
        assert walked > 1 or k == 2  # walks pass runs of entries, which K = 2 cannot hold


class TestHandBuiltBatches:
    """conftest.batch_from_trajectories draws a batch's rows from the tables
    its records imply, and rejects records no table can hold."""

    def test_consistent_records_come_back_from_the_tables(self):
        snapshot = plain_snapshot(frozen_mu=0.2)
        g = [float(snapshot.normalize(x)) for x in (0.3, 0.0)]
        steps = (StepRecord(0, 1, -0.7, 0.25, 0.3, g[0], 0.05),
                 StepRecord(2, 0, -1.2, -0.5, 0.0, g[1], 0.1),
                 StepRecord(0, 1, -0.7, 0.25, 0.3, g[0], 0.2))
        trajs = (Trajectory(steps, StopReason.NATURAL_END, 1.0),
                 Trajectory(steps[:1], StopReason.HORIZON_CAP, 0.0))
        batch = batch_from_trajectories(trajs, snapshot, shape=(3, 2))
        assert batch.pairs.tolist() == [[1, 4, 1], [1, 0, 0]]
        assert records(batch) == trajs

    @pytest.mark.parametrize("change, message", [
        (dict(log_prob_sampled=-2.0), r"log-prob of \(state, token\) \(1, 2\)"),
        (dict(log_prob_sampled=-0.0), r"log-prob of \(state, token\) \(1, 2\)"),
        (dict(regret_raw=-0.0, regret_normalized=-0.0), r"regret of \(state, token\) \(1, 2\)"),
        (dict(action=0, value_estimate=0.25), r"value of state 1"),
        (dict(action=0, regret_normalized=0.5), r"\(1, 0\) is not its regret through"),
    ], ids=["log-prob", "log-prob sign", "regret sign", "value", "normalized regret"])
    def test_records_that_disagree_are_rejected(self, change, message):
        step = StepRecord(1, 2, 0.0, 0.5, 0.0, 0.0, 0.1)
        other = dataclasses.replace(step, **change)
        with pytest.raises(ValueError, match=message):
            batch_from_trajectories([Trajectory((step, other), StopReason.NATURAL_END, 0.0)])


class TestTokenAccounting:
    # the trainer's average lengths divide these sums by the batch size
    def test_arithmetic(self):
        trajs = tuple(make_traj(n) for n in (3, 5, 7, 9))
        batch = batch_from_trajectories(trajs, plain_snapshot(rule="ppo"),
                                        STANDARD)
        assert batch.total_tokens == 24
        assert batch.effective_lengths.tolist() == batch.lengths.tolist() == [3, 5, 7, 9]

    def test_counterfactual_actual_vs_original(self):
        fired = make_traj(10, outcome=1.0, hypothetical_stop_index=3)
        plain = make_traj(6)
        batch = batch_from_trajectories((fired, plain), plain_snapshot(),
                                        COUNTERFACTUAL)
        assert batch.total_tokens == 16
        assert batch.effective_lengths.tolist() == [4, 6]


class TestEvaluatePolicy:
    def test_greedy_success_on_correct_mode_policy(self):
        env = make_env()
        actor = TabularActor(env.state_count, env.vocab_size)
        for p, tok in enumerate((0, 1, 2)):
            row = [0.0] * 4
            row[tok] = 10.0
            actor.table[p] = row
        policy = CachedPolicy(actor, TabularCritic(env.state_count))
        assert evaluate_policy(policy, env, 8, 4, seed=0)[0] == 1.0

    def test_sampled_eval_deterministic_per_seed(self):
        env = make_env()
        rng = np.random.default_rng(14)
        policy = CachedPolicy(random_actor(env, rng), TabularCritic(env.state_count))
        a = evaluate_policy(policy, env, 8, 200, seed=3)
        b = evaluate_policy(policy, env, 8, 200, seed=3)
        assert a == b

    @pytest.mark.parametrize("batch_size, t_max", [(64, 8), (8, 64)])  # lanes, then seeds
    def test_eval_between_steps_leaves_the_kept_block(self, batch_size, t_max):
        # batch 0 keeps its block for batch 1; a sampled evaluation in
        # between seeds its own streams and leaves that block in place
        env = make_env()
        actor = random_actor(env, np.random.default_rng(14))
        critic = TabularCritic(env.state_count)

        def collect(batch_index):
            return collect_batch(actor, critic, plain_snapshot(), env, batch_size, t_max,
                                 STANDARD, -1.0, 3, batch_index)

        drop_kept_streams()
        policy = collect(0).policy
        [(seeding, block)] = mdpcore._kept_block.items()
        assert block.dtype == (np.float64 if batch_size == 64 else np.uint64)
        evaluate_policy(policy, env, t_max, 200, 3, 1)
        assert list(mdpcore._kept_block) == [seeding] and mdpcore._kept_block[seeding] is block
        collect(1)
        assert list(mdpcore._kept_block) == [seeding] and mdpcore._kept_block[seeding] is block


class TestDump:
    def test_dump_shape_and_stop_flag(self, small_env):
        rng = np.random.default_rng(15)
        actor = random_actor(small_env, rng)
        critic = random_critic(small_env, rng)
        batch = collect_small_batch(small_env, actor, critic,
                                    snapshot=plain_snapshot(beta=0.3), batch_size=32)
        stopped = next(t for t in records(standard_view(batch))
                       if t.stop_reason is StopReason.EARLY_STOP)
        lines = dump_trajectory(stopped).splitlines()
        assert len(lines) == len(stopped.steps)
        for i, line in enumerate(lines):
            cols = line.split("\t")
            assert len(cols) == 8
            assert int(cols[0]) == i
        assert lines[-1].endswith("\t1")
        assert all(line.endswith("\t0") for line in lines[:-1])


ABSORBING_RUN = """
import sys
from espolab.config import RunConfig
from espolab.trainer import TrainingRun
run = TrainingRun(RunConfig(env="recoverable", counterfactual=True, vocab_size=3,
                            target_length=4, repair_window=1, t_max=64, batch_size=8,
                            total_steps=3, actor_init_scale=1.0, eval_every=1,
                            eval_episodes=32, out_dir=sys.argv[1]))
for _ in run.run():
    pass
absorbed = run.env.absorbing[run.last_batch.states].any()
print(bool(absorbed), "numpy.ma" in sys.modules)
"""


class TestMemoryFootprint:
    def test_row_path_holds_one_row_in_python_floats(self):
        # a narrow batch of long rows, stopped early by the random hazard, so
        # that the decode, not the gathers, sets the peak. Its own B x t_max
        # arrays are four float64 arrays: the uniforms (two per step), the
        # pairs and the scores. The row path adds one row of x and z in
        # Python floats; the whole batch in Python floats, 32 B an element
        # for each of x and z, would add eight more arrays' worth.
        env = make_env(padding=None)
        rng = np.random.default_rng(0)
        actor, critic = random_actor(env, rng), random_critic(env, rng)
        snapshot = plain_snapshot(rule="random_stop", random_stop_rate=0.1)
        batch_size, t_max = 8, 10_000
        assert batch_size < rollout.ROW_PATH_ROWS
        collect_batch(actor, critic, snapshot, env, batch_size, t_max, STANDARD, -1.0, 0, 1)
        tracemalloc.start()  # the keyed streams of batch 2 were seeded with batch 1's
        try:
            batch = collect_batch(actor, critic, snapshot, env, batch_size, t_max, STANDARD,
                                  -1.0, 0, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = 4 * batch_size * t_max * 8
        assert peak < 2 * own, f"peak {peak / 2**20:.2f} MiB"
        assert batch.effective_lengths.max() < t_max and batch.total_tokens

    def test_absorbing_run_does_not_import_numpy_ma(self, tmp_path):
        # np.unique on an integer array imports numpy.ma, which adds about
        # 1.2 MiB to a run's peak RSS; collection and evaluation never need it
        src = os.path.dirname(os.path.dirname(os.path.abspath(espolab.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", ABSORBING_RUN, str(tmp_path)],
                             env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["True", "False"]


class CountingTake(np.ndarray):
    """An array view that counts the entries its take() reads."""
    taken = 0

    def take(self, indices, *args, **kwargs):
        CountingTake.taken += np.size(indices)
        return np.asarray(self).take(indices, *args, **kwargs)


def counting_decode(monkeypatch, name):
    """Route collect_batch's decoder `name` through a pair_x that counts the
    x values it hands out: the values each path folds into z."""
    decode = getattr(rollout, name)
    CountingTake.taken = 0
    monkeypatch.setattr(rollout, name, lambda pol, env, u, pair_x, alpha, cuts: decode(
        pol, env, u, pair_x.view(CountingTake), alpha, cuts))


BATCH_FIELDS = ("states", "actions", "log_probs", "values", "regrets", "normalized_regrets",
                "scores", "lengths", "stop_codes", "outcomes", "stops")


def batch_digest(batch) -> str:
    """sha256 of a batch's arrays as RolloutBatch once stored them: the B x T
    columns of state, token, the policy's log-prob, value and regret, the
    normalized regret and the score, zero past each row's end, then the
    per-row arrays."""
    pol, pairs, states = batch.policy, batch.pairs, batch.states
    past_end = np.arange(pairs.shape[1]) >= batch.lengths[:, None]

    def gathered(table, index):
        return np.where(past_end, 0.0, table.take(index))

    arrays = (states, batch.actions, gathered(pol.log_probs, pairs), gathered(pol.values, states),
              gathered(pol.regrets, pairs), gathered(batch.snapshot.normalize(pol.regrets), pairs),
              batch.scores, batch.lengths, batch.stop_codes, batch.outcomes, batch.stops)
    digest = hashlib.sha256()
    for name, array in zip(BATCH_FIELDS, arrays):
        array = np.ascontiguousarray(array)
        digest.update(f"{name}{array.shape}{array.dtype}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestRandomStopFold:
    """Under the random_stop rule the uniforms alone decide the stops, so a
    row's z is folded only up to its first fire."""

    @staticmethod
    def long_batch(rows):
        env = make_env(padding=None)
        rng = np.random.default_rng(0)
        actor, critic = random_actor(env, rng), random_critic(env, rng)
        snapshot = plain_snapshot(rule="random_stop", random_stop_rate=0.1)
        return collect_batch(actor, critic, snapshot, env, rows, 10_000, STANDARD, -1.0, 0, 2)

    def test_row_path_folds_only_the_kept_steps(self, monkeypatch):
        # TestMemoryFootprint's 8 x 10,000 batch: folding every decoded step
        # would fold 80,000 values to keep a few dozen
        counting_decode(monkeypatch, "_decode_rows")
        batch = self.long_batch(8)
        assert CountingTake.taken == int(batch.effective_lengths.sum()) < 100
        assert (batch.stops >= 0).all()

    def test_lockstep_folds_up_to_the_longest_kept_row(self, monkeypatch):
        monkeypatch.setattr(rollout, "ROW_PATH_ROWS", 0)
        counting_decode(monkeypatch, "_decode_lockstep")
        batch = self.long_batch(8)
        assert CountingTake.taken == 8 * int(batch.effective_lengths.max()) < 8 * 100

    # sha256 of every array of the standard views of random-stop batches,
    # as collected when z was folded over every decoded step and a standard
    # batch was cut at its stops
    PINNED = {
        ("trap", 8): "e92c0a14746e36ad16212db6c62995772ce9bc2935f1c7fda97f3092ac525f6a",
        ("trap", 64): "98efe356fa679b08139ec8228e7b3447568cfec84aed028dfd8b7412b8b034a6",
        ("recoverable", 8): "f64eb0e16a916e956556da173e7303da6f9cf84b6653f9cc4dd1bd7ac4f83ede",
        ("recoverable", 64): "bde321afc0681583a66e8e0f9c57a1e725c8f759db02b80a8a4e6a9cfb8d9ad7",
    }

    @pytest.mark.parametrize("env_name, rows", sorted(PINNED))
    def test_batches_keep_their_bytes(self, env_name, rows):
        spec = (TrapChainSpec(4, 3, (0, 1, 2), None) if env_name == "trap"
                else RecoverableBranchSpec(3, 4, 1))
        env = build_environment(spec)
        rng = np.random.default_rng(21)
        actor, critic = random_actor(env, rng), random_critic(env, rng)
        snapshot = plain_snapshot(frozen_mu=0.3, frozen_var=0.8, rule="random_stop",
                                  random_stop_rate=0.04)
        batch = standard_view(collect_batch(actor, critic, snapshot, env, rows, 40, STANDARD,
                                            -1.0, 3, 2))
        assert batch_digest(batch) == self.PINNED[env_name, rows]
        # stops and horizon caps occur, and natural ends in the wide batches
        assert set(batch.stop_codes.tolist()) == ({0, 1, 2} if rows == 64 else {1, 2})
