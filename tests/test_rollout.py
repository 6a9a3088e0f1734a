"""Collection loop: stop semantics, counterfactual mode, determinism, accounting."""

from __future__ import annotations

import dataclasses
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import espolab
from espolab.envs import TrapChainSpec, build_trap_chain
from espolab.config import RunConfig
from espolab.mdpcore import log_softmax
from espolab.policy import TabularActor, TabularCritic
from espolab.rollout import (
    COUNTERFACTUAL,
    DISABLED,
    EARLY_STOP,
    RANDOM,
    STANDARD,
    CachedPolicy,
    CollectionMode,
    collect_batch,
    evaluate_policy,
)
from espolab.trainer import TrainingRun, compute_advantages

from conftest import (
    StepRecord,
    StopReason,
    Trajectory,
    batch_from_trajectories,
    collect_small_batch,
    collect_trajectory,
    dump_trajectory,
    env_step,
    pick_from_cumulative,
    plain_snapshot,
    random_actor,
    random_critic,
    records,
    trajectory_rng,
)


def make_env(padding=None, vocab=4, length=3):
    return build_trap_chain(TrapChainSpec(vocab, length, tuple(range(length)), padding))


def make_traj(length, reason=StopReason.NATURAL_END, outcome=0.0,
              hypothetical_stop_index=None):
    steps = tuple(StepRecord(0, 0, -1.0, 0.0, 0.5, 0.5, 0.1) for _ in range(length))
    return Trajectory(steps, reason, outcome, hypothetical_stop_index)


def collect_one(actor, critic, snapshot, env, t_max, mode, r_fail=-1.0, seed=0):
    """Trajectory 0 of a one-trajectory collect_batch, checked against the
    scalar oracle on the same stream."""
    (traj,) = records(collect_batch(actor, critic, snapshot, env, 1, t_max, mode, r_fail,
                                    seed, 1))
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
        traj = collect_one(actor, critic, plain_snapshot(), env, 8,
                           CollectionMode(DISABLED), seed=7)
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
        traj = collect_one(actor, critic, snapshot, env, 64, CollectionMode(STANDARD))
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
        traj = collect_one(actor, critic, snapshot, env, 8, CollectionMode(STANDARD))
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
        stopped = collect_one(actor, critic, snapshot, env, 8, CollectionMode(STANDARD))
        assert stopped.stop_reason is StopReason.EARLY_STOP
        assert len(stopped.steps) == 8
        assert stopped.outcome_reward == -1.0
        extended = collect_one(actor, critic, snapshot, env, 8, CollectionMode(COUNTERFACTUAL))
        assert extended.stop_reason is StopReason.HORIZON_CAP
        assert extended.hypothetical_stop_index == 7
        assert extended.steps == stopped.steps

    def test_horizon_cap_gets_zero_outcome(self):
        env = make_env(padding=None)
        actor = TabularActor(env.state_count, env.vocab_size)
        actor.table[0] = [0.0, 30.0, 0.0, 0.0]  # dooms immediately
        critic = TabularCritic(env.state_count)
        traj = collect_one(actor, critic, plain_snapshot(warmup_active=True), env, 16,
                           CollectionMode(STANDARD))
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
        td_errors = compute_advantages(batch, RunConfig(gamma=1.0), -1.0).td_errors
        stopped = [(t, row) for t, row in zip(records(batch), td_errors)
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
                assert pol.max_log_prob[s] == pytest.approx(lp.max(), abs=1e-12)
                assert pol.regrets[s].tolist() == pytest.approx((lp.max() - lp).tolist(),
                                                                abs=1e-12)
                entropy = -math.fsum(p * math.log(p) for p in np.exp(lp) if p > 0.0)
                assert pol.entropies[s] == pytest.approx(entropy, abs=1e-12)
                assert pol.cum_probs[s].tolist() == pytest.approx(
                    np.cumsum(np.exp(lp)).tolist(), abs=1e-12)
                assert pol.greedy_actions[s] == actor.table[s].argmax()
                assert pol.values[s] == critic.table[s]


class TestCounterfactualMode:
    def collect_pair(self, seed=11, beta=0.5, lean=0.0, frozen_mu=0.0):
        env = make_env(padding=None, vocab=4, length=3)
        rng = np.random.default_rng(seed)
        actor = random_actor(env, rng)
        actor.table[[0, 1, 2], [0, 1, 2]] += lean  # toward the targets 0, 1, 2
        critic = random_critic(env, rng)
        snapshot = plain_snapshot(beta=beta, frozen_mu=frozen_mu)
        standard = collect_batch(actor, critic, snapshot, env, 16, 12,
                                 CollectionMode(STANDARD), -1.0, seed, 1)
        extended = collect_batch(actor, critic, snapshot, env, 16, 12,
                                 CollectionMode(COUNTERFACTUAL), -1.0, seed, 1)
        return standard, extended

    def test_prefix_is_bit_identical_to_standard_mode(self):
        standard, extended = self.collect_pair()
        fired = 0
        for st, ex in zip(records(standard), records(extended)):
            if ex.hypothetical_stop_index is None:
                assert st.steps == ex.steps
                continue
            fired += 1
            idx = ex.hypothetical_stop_index
            assert st.stop_reason is StopReason.EARLY_STOP
            assert len(st.steps) == idx + 1
            # identical prefix up to and including the stop step; only the
            # standard trajectory ends there, with r_fail
            assert st.steps == ex.steps[:idx + 1]
            assert st.outcome_reward == -1.0
        assert fired > 0

    def test_fired_row_runs_on_to_success(self):
        # a policy leaning to the targets, and a negative frozen mean that
        # raises z on the chain: the rule fires on rows that still reach the
        # success terminal; standard mode cuts each at the fire with r_fail
        standard, extended = self.collect_pair(lean=2.0, frozen_mu=-1.0)
        rows = np.flatnonzero((extended.hypothetical_stops >= 0) & (extended.outcomes == 1.0))
        assert rows.size
        cut, full = records(standard), records(extended)
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
        assert np.count_nonzero(extended.stop_indices >= 0) == fired
        assert np.count_nonzero(extended.stop_codes == EARLY_STOP) == 0
        stopped = sum(1 for t in records(standard) if t.stop_reason is StopReason.EARLY_STOP)
        assert np.count_nonzero(standard.stop_indices >= 0) == stopped


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
            batch = collect_batch(actor, critic, plain_snapshot(), env, 32, t_max,
                                  CollectionMode(RANDOM, q), -1.0, 5, b)
            stops += int(np.count_nonzero(batch.stop_indices >= 0))
            trials += batch.size
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(stops / trials - p) <= 3 * sigma

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            CollectionMode(RANDOM, 1.5)


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
                              CollectionMode(STANDARD), -1.0, 21, 4)
        order = list(range(8))
        random.Random(0).shuffle(order)
        for i in order:
            solo = collect_trajectory(actor, critic, snapshot, small_env, 8,
                                      CollectionMode(STANDARD), -1.0,
                                      trajectory_rng(21, 4, i))
            assert solo == records(batch)[i]

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
        assert np.count_nonzero(batch.stop_indices >= 0)
        again = collect_batch(actor, critic, batch.snapshot, run.env, cfg.batch_size,
                              cfg.t_max, batch.mode, run.plan.early_stop_reward, cfg.seed,
                              run.step_index)
        assert again.trajectories == batch.trajectories
        for field in ("scores", "outcomes"):
            changed = getattr(batch, field).copy()
            changed.flat[0] += 1.0
            assert (dataclasses.replace(batch, **{field: changed}).trajectories
                    != batch.trajectories), field


class TestTokenAccounting:
    # the trainer's average lengths divide these sums by the batch size
    def test_arithmetic(self):
        trajs = tuple(make_traj(n) for n in (3, 5, 7, 9))
        batch = batch_from_trajectories(trajs, plain_snapshot(),
                                        CollectionMode(DISABLED))
        assert batch.total_tokens == 24
        assert batch.effective_lengths.tolist() == batch.lengths.tolist() == [3, 5, 7, 9]

    def test_counterfactual_actual_vs_original(self):
        fired = make_traj(10, outcome=1.0, hypothetical_stop_index=3)
        plain = make_traj(6)
        batch = batch_from_trajectories((fired, plain), plain_snapshot(),
                                        CollectionMode(COUNTERFACTUAL))
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
        assert evaluate_policy(policy, env, 8, 4, seed=0, greedy=True) == 1.0

    def test_sampled_eval_deterministic_per_seed(self):
        env = make_env()
        rng = np.random.default_rng(14)
        policy = CachedPolicy(random_actor(env, rng), TabularCritic(env.state_count))
        a = evaluate_policy(policy, env, 8, 200, seed=3, greedy=False)
        b = evaluate_policy(policy, env, 8, 200, seed=3, greedy=False)
        assert a == b


class TestDump:
    def test_dump_shape_and_stop_flag(self, small_env):
        rng = np.random.default_rng(15)
        actor = random_actor(small_env, rng)
        critic = random_critic(small_env, rng)
        batch = collect_small_batch(small_env, actor, critic,
                                    snapshot=plain_snapshot(beta=0.3), batch_size=32)
        stopped = next(t for t in records(batch)
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
    def test_absorbing_run_does_not_import_numpy_ma(self, tmp_path):
        # np.unique on an integer array imports numpy.ma, which adds about
        # 1.2 MiB to a run's peak RSS; collection and evaluation never need it
        src = os.path.dirname(os.path.dirname(os.path.abspath(espolab.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", ABSORBING_RUN, str(tmp_path)],
                             env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["True", "False"]
