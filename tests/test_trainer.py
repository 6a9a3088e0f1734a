"""TD/GAE, surrogate and critic gradients, and the training loop."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from espolab import trainer
from espolab.config import ConfigError, RunConfig
from espolab.envs import TrapChainSpec, build_environment
from espolab.mdpcore import log_softmax
from espolab.policy import TabularActor, TabularCritic, save_params
from espolab.rollout import CachedPolicy, collect_batch
from espolab.trainer import (
    TrainingRun,
    compute_advantages,
    critic_grad,
    critic_loss,
    gae,
    ppo_surrogate_grad,
)
from espolab.variants import STANDARD

from conftest import (
    StepRecord,
    StopReason,
    Trajectory,
    advantage_set,
    batch_from_trajectories,
    batch_statistics,
    drop_kept_streams,
    plain_snapshot,
    ppo_surrogate_value,
    random_actor,
    random_critic,
    records,
    scalar_advantages,
    scalar_surrogate_grad,
)


def traj_from(values, outcome, reason=StopReason.NATURAL_END, log_prob=-1.0, token=0):
    """Trajectory that takes `token` in state t at step t, whose value is
    values[t]; only its last step is rewarded, with outcome."""
    steps = tuple(StepRecord(t, token, log_prob, v, 0.0, 0.0, 0.1) for t, v in enumerate(values))
    return Trajectory(steps, reason, outcome)


def one_batch(traj, shape=None):
    return batch_from_trajectories([traj], shape=shape)


def td_errors(traj, gamma):
    """TD errors of a single trajectory, as compute_advantages produces them."""
    advs = compute_advantages(one_batch(traj), RunConfig(gamma=gamma), -1.0)
    return advs.td_errors.tolist()


def gae_oracle(deltas, gamma, lam):
    """Explicit double-sum definition."""
    horizon = len(deltas)
    return [
        math.fsum((gamma * lam) ** l * deltas[t + l] for l in range(horizon - t))
        for t in range(horizon)
    ]


class TestTdErrors:
    def test_natural_end_recursion(self):
        traj = traj_from([0.5, 0.6, 0.7], 1.0)
        deltas = td_errors(traj, gamma=1.0)
        assert deltas == pytest.approx([0.1, 0.1, 0.3], abs=1e-12)

    def test_early_stop_delta_is_exact(self):
        traj = traj_from([0.5, 0.6], -1.0, reason=StopReason.EARLY_STOP)
        deltas = td_errors(traj, gamma=1.0)
        assert deltas[0] == pytest.approx(0.1, abs=1e-12)
        # bit-exact identity, not approximate: no bootstrap past the stop
        assert deltas[1] == -1.0 - 0.6

    def test_constant_values_telescope_to_zero(self):
        traj = traj_from([0.3, 0.3, 0.3, 0.3], 0.0)
        deltas = td_errors(traj, gamma=1.0)
        assert deltas[:-1] == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)
        assert deltas[-1] == pytest.approx(-0.3, abs=1e-15)


class TestGae:
    def test_undiscounted_suffix_sums(self):
        advs = gae([0.1, 0.1, 0.3], 1.0, 1.0)
        assert advs == pytest.approx([0.5, 0.4, 0.3], abs=1e-12)
        assert advs == pytest.approx(gae_oracle([0.1, 0.1, 0.3], 1.0, 1.0), abs=1e-12)

    def test_lambda_zero_degenerates_to_td(self):
        deltas = [0.2, -0.4, 0.9]
        assert gae(deltas, 0.95, 1e-300) == pytest.approx(deltas, abs=1e-12)

    def test_single_step(self):
        assert gae([0.7], 0.9, 0.9) == [0.7]

    def test_recursion_matches_double_sum_oracle(self):
        # acceptance-style check at smaller volume; the full 1000-trajectory
        # sweep lives in test_acceptance
        rng = np.random.default_rng(21)
        for _ in range(100):
            deltas = [float(d) for d in rng.normal(0, 1, size=rng.integers(1, 17))]
            for gamma in (0.9, 0.95, 1.0):
                for lam in (0.9, 0.95, 1.0):
                    got = gae(deltas, gamma, lam)
                    want = gae_oracle(deltas, gamma, lam)
                    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10


def gae_scan(deltas, decay):
    """The reverse recursion one column at a time, from A = +0.0."""
    out = np.empty_like(deltas)
    acc = np.zeros(deltas.shape[:-1])
    for t in range(deltas.shape[-1] - 1, -1, -1):
        acc = deltas[..., t] + decay * acc
        out[..., t] = acc
    return out


class TestUndiscountedGae:
    """gamma * lam == 1 takes the reversed-cumsum path, compared bit for bit
    (sign of zero included) with the recursion."""

    def test_signed_zero_rows(self):
        deltas = np.array([
            [-0.0, -0.0, -0.0, -0.0],
            [-0.0, 0.0, -0.0, -0.0],
            [0.0, -0.0, -0.0, -0.0],
            [-0.0, -0.0, -0.0, 0.0],
            [1.5, -0.0, -1.5, -0.0],
            [-0.0, 2.0, -2.0, -0.0],
        ])
        got, want = gae(deltas, 1.0, 1.0), gae_scan(deltas, 1.0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not np.signbit(got[:4]).any()

    def test_random_rows_with_signed_zeros(self):
        rng = np.random.default_rng(8)
        deltas = rng.normal(0.0, 1.0, size=(64, 33))
        deltas[rng.random(deltas.shape) < 0.3] = 0.0
        deltas[rng.random(deltas.shape) < 0.3] = -0.0
        got, want = gae(deltas, 1.0, 1.0), gae_scan(deltas, 1.0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(np.signbit(got), np.signbit(want))


def small_training_batch(seed=5, beta=0.5, batch_size=6, t_max=8):
    env = build_environment(TrapChainSpec(4, 3, (0, 1, 2), 2))
    rng = np.random.default_rng(seed)
    actor = random_actor(env, rng)
    critic = random_critic(env, rng)
    batch = collect_batch(actor, critic, plain_snapshot(beta=beta), env,
                          batch_size, t_max, STANDARD, -1.0, seed, 1)
    return env, actor, critic, batch


class TestSurrogate:
    def test_on_policy_identity(self):
        # at theta = theta_old every ratio is 1: objective equals the mean
        # advantage and nothing is clipped
        _env, actor, critic, batch = small_training_batch()
        cfg = RunConfig()
        advs = compute_advantages(batch, cfg, -1.0)
        value = ppo_surrogate_value(actor, batch, advs, cfg)
        flat = advs.advantages.tolist()
        assert value == pytest.approx(math.fsum(flat) / len(flat), abs=1e-12)
        _grad, clip_fraction = ppo_surrogate_grad(actor, batch, advs, cfg)
        assert clip_fraction == 0.0

    def test_clip_branch_freezes_gradient(self):
        # single step, ratio 1.3 vs clip 1.2 with positive advantage: the
        # objective takes the clipped constant and the gradient vanishes
        actor = TabularActor(1, 4)
        lp_now = float(np.log(0.25))
        old_lp = lp_now - math.log(1.3)
        batch = one_batch(traj_from([0.0], 1.0, log_prob=old_lp), shape=(1, 4))
        advs = advantage_set(batch, [((1.0,), (1.0,), (1.0,))])
        cfg = RunConfig(clip_ratio=0.2)
        value = ppo_surrogate_value(actor, batch, advs, cfg)
        assert value == pytest.approx(1.2, abs=1e-12)
        grad, clip_fraction = ppo_surrogate_grad(actor, batch, advs, cfg)
        assert grad.shape == (1, 4) and not grad.any()
        assert clip_fraction == 1.0

    @pytest.mark.parametrize("bad_advantage", [0.0, 1.0])
    @pytest.mark.parametrize("bad_log_prob", [-1000.0, math.nan, -math.inf],
                             ids=["overflow", "nan", "inf"])
    def test_non_finite_ratio_excluded(self, caplog, bad_log_prob, bad_advantage):
        # a collecting-table log-prob of -1000 (exp overflows), NaN or -inf
        # gives the second step's pair a +inf, NaN or +inf ratio; the step
        # leaves the mean and the gradient, is logged, and raises nothing,
        # even times a zero advantage
        actor = TabularActor(1, 4)
        good = traj_from([0.0], 1.0, log_prob=float(np.log(0.25)) - math.log(1.1))
        bad = traj_from([0.0], 1.0, log_prob=bad_log_prob, token=1)
        cfg = RunConfig(clip_ratio=0.2)
        row = ((1.0,), (1.0,), (1.0,))
        single = one_batch(good, shape=(1, 4))
        want = ppo_surrogate_grad(actor, single, advantage_set(single, [row]), cfg)
        batch = batch_from_trajectories([good, bad], shape=(1, 4))
        advs = advantage_set(batch, [row, ((bad_advantage,), (1.0,), (1.0,))])
        with warnings.catch_warnings(), caplog.at_level(logging.WARNING):
            warnings.simplefilter("error")
            grad, clip_fraction = ppo_surrogate_grad(actor, batch, advs, cfg)
        assert np.array_equal(grad, want[0]) and grad.any()
        assert clip_fraction == want[1] == 0.0
        assert "excluded 1 steps with non-finite ratios" in caplog.text

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        cfg = RunConfig(clip_ratio=0.2)
        for trial in range(20):
            _env, actor, _critic, batch = small_training_batch(seed=trial, beta=0.7)
            advs = compute_advantages(batch, cfg, -1.0)
            actor.table = actor.table + rng.normal(0, 0.2, size=actor.table.shape)
            grad, _cf = ppo_surrogate_grad(actor, batch, advs, cfg)
            visited = {rec.state_id for t in records(batch) for rec in t.steps}
            h = 1e-5
            for s in visited:
                for k in range(actor.vocab_size):
                    base = actor.table[s, k]
                    actor.table[s, k] = base + h
                    up = ppo_surrogate_value(actor, batch, advs, cfg)
                    actor.table[s, k] = base - h
                    down = ppo_surrogate_value(actor, batch, advs, cfg)
                    actor.table[s, k] = base
                    fd = (up - down) / (2 * h)
                    a = grad[s, k]
                    assert abs(a - fd) / max(abs(a), abs(fd), 1e-8) < 1e-4


class TestCriticRegression:
    def test_zero_gradient_at_perfect_fit(self):
        _env, _actor, critic, batch = small_training_batch(seed=8)
        cfg = RunConfig()
        advs = compute_advantages(batch, cfg, -1.0)
        # overwrite the critic so V(s) equals every return seen at s
        # (construct a batch-free case instead: single state, single step)
        single = one_batch(traj_from([0.0], 1.0))
        advset = advantage_set(single, [((0.0,), (1.0,), (0.0,))])
        critic2 = TabularCritic(1)
        critic2.table[0] = 1.0
        assert not critic_grad(critic2, single, advset).any()
        assert critic_loss(critic2, single, advset) == 0.0

    def test_single_state_gradient_value(self):
        batch = one_batch(traj_from([0.0], 1.0))
        advset = advantage_set(batch, [((0.0,), (1.0,), (0.0,))])
        critic = TabularCritic(1)
        grad = critic_grad(critic, batch, advset)
        assert grad.shape == (1,)
        assert grad[0] == -2.0  # descent direction raises V toward the return

    def test_gradient_matches_finite_differences(self):
        cfg = RunConfig()
        for trial in range(20):
            _env, _actor, critic, batch = small_training_batch(seed=100 + trial)
            advs = compute_advantages(batch, cfg, -1.0)
            grad = critic_grad(critic, batch, advs)
            h = 1e-5
            for s in range(len(grad)):
                base = critic.table[s]
                critic.table[s] = base + h
                up = critic_loss(critic, batch, advs)
                critic.table[s] = base - h
                down = critic_loss(critic, batch, advs)
                critic.table[s] = base
                fd = (up - down) / (2 * h)
                a = grad[s]
                assert abs(a - fd) / max(abs(a), abs(fd), 1e-8) < 1e-4


class TestNegativeSignalConcentration:
    def test_stop_step_advantage_is_negative(self):
        rng = np.random.default_rng(41)
        cfg = RunConfig()
        for _ in range(50):
            length = int(rng.integers(2, 10))
            values = [float(v) for v in rng.uniform(-0.49, 0.49, size=length)]
            traj = traj_from(values, -1.0, reason=StopReason.EARLY_STOP)
            advs = compute_advantages(one_batch(traj), cfg, -1.0)
            assert advs.advantages[-1] < 0.0
            assert advs.td_errors[-1] == -1.0 - values[-1]


def base_config(**overrides):
    defaults = dict(variant="espo", vocab_size=3, target_length=3, t_max=12,
                    batch_size=16, total_steps=20, seed=7, lr_actor=0.05,
                    lr_critic=0.1)
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestTrainingLoop:
    def test_determinism_same_config_same_rows(self):
        rows_a = list(TrainingRun(base_config()).run())
        rows_b = list(TrainingRun(base_config()).run())
        assert rows_a == rows_b

    def test_ppo_baseline_never_stops(self):
        rows = list(TrainingRun(base_config(variant="ppo")).run())
        assert all(r.stop_rate == 0.0 for r in rows)
        assert all(not r.warmup_active for r in rows)

    def test_disable_stopping_reduces_to_ppo(self):
        espo_rows = list(TrainingRun(base_config(variant="espo", disable_stopping=True)).run())
        ppo_rows = list(TrainingRun(base_config(variant="ppo")).run())
        assert espo_rows == ppo_rows

    def test_warmup_phase_has_zero_stop_rate(self):
        # huge loss scale keeps the warmup gate closed until the step cap
        cfg = base_config(variant="espo", actor_init_scale=1.0, beta_init=0.5,
                          beta_max=0.5, total_steps=30, warmup_abs_threshold=1e-9,
                          warmup_delta_threshold=1e-12)
        rows = list(TrainingRun(cfg).run())
        released = [r.step for r in rows if not r.warmup_active]
        cap = math.ceil(0.10 * 30)
        assert min(released) == cap + 1  # gate closes at the cap, visible next step
        for row in rows:
            if row.warmup_active:
                assert row.stop_rate == 0.0

    def test_learning_on_easy_chain(self):
        # vocab 3, length 3, instant failure termination: successes are
        # frequent and the reward signal dense enough for PPO to climb
        cfg = base_config(variant="ppo", total_steps=80, batch_size=32,
                          doom_padding=0, lr_actor=0.8, lr_critic=0.3)
        rows = list(TrainingRun(cfg).run())
        early = sum(r.success_rate for r in rows[:10]) / 10
        late = sum(r.success_rate for r in rows[-10:]) / 10
        assert late > early + 0.2

    @pytest.mark.parametrize("counterfactual", [False, True])
    def test_row_statistics_equal_the_step_loops(self, counterfactual):
        # the row's per-trajectory and per-step statistics, recomputed with
        # plain loops over the trajectory records of the step's batch
        run = TrainingRun(base_config(counterfactual=counterfactual, actor_init_scale=1.0,
                                      total_steps=12, beta_init=1.0, beta_max=2.0,
                                      eta_beta=0.1))
        stops = 0
        for _ in range(12):
            policy = CachedPolicy(run.actor, run.critic)
            row = run.step()
            trajs = records(run.last_batch)
            spans = [t.steps[:t.effective_length] for t in trajs]
            entropy_sum = 0.0
            for span in spans:
                for rec in span:
                    entropy_sum += float(policy.entropies[rec.state_id])
            steps = sum(len(span) for span in spans)
            assert row.mean_entropy == entropy_sum / steps
            fired = [t for t in trajs if t.stop_index is not None]
            stops += len(fired)
            assert row.stop_rate == len(fired) / len(trajs)
            assert row.success_rate == sum(t.outcome_reward == 1.0 for t in trajs) / len(trajs)
            assert row.avg_trajectory_length_actual == steps / len(trajs)
            assert row.avg_trajectory_length_original == \
                sum(len(t.steps) for t in trajs) / len(trajs)
            assert row.false_positive_rate == (
                sum(t.outcome_reward == 1.0 for t in fired) / len(trajs)
                if counterfactual else 0.0)
        assert stops  # the stop rate counts real or hypothetical stops

    def test_cumulative_tokens_monotone(self):
        rows = list(TrainingRun(base_config()).run())
        for a, b in zip(rows, rows[1:]):
            assert b.cumulative_tokens >= a.cumulative_tokens

    def test_advantage_whitening_flag(self):
        _env, _actor, _critic, batch = small_training_batch(seed=3, batch_size=8)
        raw = compute_advantages(batch, RunConfig(), -1.0)
        white = compute_advantages(batch, RunConfig(advantage_whitening=True), -1.0)
        flat = white.advantages.tolist()
        assert abs(math.fsum(flat) / len(flat)) < 1e-10
        var = math.fsum(a * a for a in flat) / len(flat)
        assert var == pytest.approx(1.0, abs=1e-8)
        # returns stay unwhitened: they are the critic's regression targets
        assert np.array_equal(raw.returns, white.returns)

    def test_beta_anneals_from_upper_bound_after_warmup(self):
        cfg = base_config(variant="espo", total_steps=40, actor_init_scale=1.0,
                          beta_init=4.0, beta_max=8.0, anneal_fraction=0.5,
                          eta_beta=0.0)
        rows = list(TrainingRun(cfg).run())
        released = [r for r in rows if not r.warmup_active]
        assert released[0].beta == 8.0  # anneal starts at the upper bound
        assert released[-1].beta == pytest.approx(4.0)  # and lands on beta_init
        betas = [r.beta for r in released]
        assert all(a >= b for a, b in zip(betas, betas[1:]))

    def test_config_validation_lists_every_error(self):
        bad = base_config(alpha_s=2.0, clip_ratio=0.0, batch_size=0)
        with pytest.raises(ConfigError) as err:
            TrainingRun(bad)
        message = str(err.value)
        assert "alpha_s" in message and "clip_ratio" in message and "batch_size" in message

    def test_epochs_beyond_first_change_parameters(self):
        kwargs = dict(total_steps=6, batch_size=32, doom_padding=0, lr_actor=0.8)
        one = TrainingRun(base_config(epochs_per_batch=1, **kwargs))
        two = TrainingRun(base_config(epochs_per_batch=2, **kwargs))
        for _ in range(6):
            one.step()
            two.step()
        assert np.abs(one.actor.table).max() > 0  # signal actually flowed
        assert not np.array_equal(one.actor.table, two.actor.table)


class TestCheckpointResume:
    def test_resume_continues_bit_identically(self, tmp_path):
        self.assert_resumes_bit_identically(tmp_path, batch_size=16, total_steps=24, at=12)

    def test_resume_inside_a_lane_block(self, tmp_path):
        # 64 rows draw a 2,048-stream lane block once per KEY_BLOCK steps; step
        # 13 resumes inside the first block, and the run goes on into the second
        self.assert_resumes_bit_identically(tmp_path, batch_size=64, total_steps=40, at=13)

    @staticmethod
    def assert_resumes_bit_identically(tmp_path, batch_size, total_steps, at):
        from espolab.harness import run_experiment

        full_cfg = base_config(batch_size=batch_size, total_steps=total_steps,
                               checkpoint_every=at, out_dir=str(tmp_path / "full"))
        run_experiment(full_cfg)
        full_csv = (tmp_path / "full" / "metrics.csv").read_bytes()

        # replay up to the checkpoint, then resume from it as a new process would
        half_dir = tmp_path / "resumed"
        half_cfg = dataclasses.replace(full_cfg, out_dir=str(half_dir))
        run = TrainingRun(half_cfg)
        from espolab.metrics import MetricsWriter

        half_dir.mkdir()
        with MetricsWriter(half_dir / "metrics.csv") as writer:
            for _ in range(at):
                writer.write(run.step())
        ckpt = run.save_checkpoint(half_dir / "checkpoints" / f"step_{at:06d}")
        drop_kept_streams()
        run_experiment(half_cfg, resume_checkpoint=ckpt)
        assert (half_dir / "metrics.csv").read_bytes() == full_csv

    @pytest.mark.parametrize("variant", ["espo", "espo_no_warmup"])
    def test_resume_through_warmup_release_and_anneal(self, tmp_path, variant):
        # checkpoints during warmup, at the release step (where the stopper
        # sets its anneal horizon), in the middle of the anneal and where the
        # controller takes over; each resumes to the uninterrupted run's bytes
        from espolab.harness import run_experiment

        full = tmp_path / "full"
        cfg = base_config(variant=variant, total_steps=30, checkpoint_every=1,
                          anneal_fraction=0.5, out_dir=str(full))
        run_experiment(cfg)
        full_csv = (full / "metrics.csv").read_bytes()

        def state_at(step):
            return json.loads((full / "checkpoints" / step / "state.json").read_text())

        stoppers = {k: state_at(f"step_{k:06d}")["stopper"] for k in range(1, 31)}
        for stopper in stoppers.values():
            assert set(stopper) == {"stats", "beta", "gate", "steps_since_warmup",
                                    "anneal_horizon"}
        released = [k for k, stopper in stoppers.items() if not stopper["gate"][0]]
        release = released[0]
        horizon = stoppers[release]["anneal_horizon"]
        assert horizon > 2
        mid, end = (next(k for k in released if stoppers[k]["steps_since_warmup"] == n)
                    for n in (horizon // 2, horizon))
        points = [release, mid, end]
        if variant == "espo":
            assert release > 1 and stoppers[release]["steps_since_warmup"] == 0
            assert horizon == math.ceil(0.5 * (30 - release))
            points.insert(0, release - 1)
        else:
            assert release == 1 and horizon == math.ceil(0.5 * 30)
        # the controller moves (every batch stops below target) only after the anneal
        assert [stoppers[k]["beta"] for k in range(1, end + 1)] == [7.0] * end
        assert stoppers[end + 1]["beta"] < 7.0

        rows = full_csv.splitlines(keepends=True)
        for k in points:
            resumed = tmp_path / f"resumed_{k}"
            resumed.mkdir()
            (resumed / "metrics.csv").write_bytes(b"".join(rows[:k + 1]))
            run_experiment(dataclasses.replace(cfg, out_dir=str(resumed)),
                           resume_checkpoint=full / "checkpoints" / f"step_{k:06d}")
            assert (resumed / "metrics.csv").read_bytes() == full_csv, k
            final = TrainingRun.resume(cfg, resumed / "checkpoints" / "final")
            assert final.stopper.state_dict() == state_at("final")["stopper"], k
            assert final.step_index == 30

    @pytest.mark.parametrize("variant", ["ppo", "espo"])
    def test_checkpoints_record_the_gate_collection_used(self, tmp_path, variant):
        # a checkpoint's gate is armed exactly when the next step collects in
        # warmup; a ppo run never consults the gate, so it is never armed
        from espolab.harness import run_experiment
        from espolab.metrics import read_metrics

        cfg = base_config(variant=variant, total_steps=8, checkpoint_every=1,
                          warmup_step_cap_fraction=0.5, out_dir=str(tmp_path))
        run_experiment(cfg)

        def gate(name):
            path = tmp_path / "checkpoints" / name / "state.json"
            return json.loads(path.read_text())["stopper"]["gate"]

        gates = [gate(f"step_{k:06d}") for k in range(1, 9)]
        assert gate("final") == gates[-1]
        rows = read_metrics(tmp_path / "metrics.csv")
        assert [g[0] for g in gates[:-1]] == [row.warmup_active for row in rows[1:]]
        if variant == "ppo":
            assert all(g == [False, 0, None] for g in gates)
        else:
            assert gates[0][0] and gates[0][2] is not None and not gates[-1][0]

    def test_resume_accepts_a_ppo_checkpoint_with_an_armed_gate(self, tmp_path):
        # ppo checkpoints from before the gate was left unarmed hold
        # [true, 0, null]; they resume to the same rows and an unarmed gate
        from espolab.harness import run_experiment

        full = tmp_path / "full"
        cfg = base_config(variant="ppo", total_steps=6, checkpoint_every=3,
                          out_dir=str(full))
        run_experiment(cfg)
        full_csv = (full / "metrics.csv").read_bytes()
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        (resumed / "metrics.csv").write_bytes(b"".join(full_csv.splitlines(keepends=True)[:4]))
        state_path = full / "checkpoints" / "step_000003" / "state.json"
        state = json.loads(state_path.read_text())
        state["stopper"]["gate"] = [True, 0, None]
        state_path.write_text(json.dumps(state))
        run_experiment(dataclasses.replace(cfg, out_dir=str(resumed)),
                       resume_checkpoint=full / "checkpoints" / "step_000003")
        assert (resumed / "metrics.csv").read_bytes() == full_csv
        final = json.loads((resumed / "checkpoints" / "final" / "state.json").read_text())
        assert final["stopper"]["gate"] == [False, 0, None]

    def test_resume_restores_the_random_trace_correction(self, tmp_path):
        # random_stop replaying a reference run's stop-rate trace corrects its
        # hazard after every batch; a mid-run checkpoint carries the
        # correction, and resuming from it gives the uninterrupted bytes
        from espolab.harness import run_experiment

        reference = tmp_path / "reference"
        run_experiment(base_config(actor_init_scale=1.0, beta_init=1.0, beta_max=2.0,
                                   eta_beta=0.1, out_dir=str(reference)))
        full = tmp_path / "full"
        cfg = base_config(variant="random_stop", reference_run=str(reference),
                          actor_init_scale=1.0, eta_beta=1.0, checkpoint_every=3,
                          out_dir=str(full))
        run_experiment(cfg)
        full_csv = (full / "metrics.csv").read_bytes()
        checkpoint = full / "checkpoints" / "step_000009"
        assert json.loads((checkpoint / "state.json").read_text())["random_correction"] != 0.0
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        (resumed / "metrics.csv").write_bytes(b"".join(full_csv.splitlines(keepends=True)[:10]))
        run_experiment(dataclasses.replace(cfg, out_dir=str(resumed)),
                       resume_checkpoint=checkpoint)
        assert (resumed / "metrics.csv").read_bytes() == full_csv
        final = "checkpoints/final/state.json"
        assert (resumed / final).read_bytes() == (full / final).read_bytes()

    def test_resume_rejects_mismatched_config(self, tmp_path):
        cfg = base_config(total_steps=4, out_dir=str(tmp_path / "a"))
        run = TrainingRun(cfg)
        run.step()
        ckpt = run.save_checkpoint(tmp_path / "a" / "ck")
        other = base_config(total_steps=4, seed=99, out_dir=str(tmp_path / "a"))
        with pytest.raises(ConfigError):
            TrainingRun.resume(other, ckpt)

    def test_resume_rejects_parameters_of_other_shapes(self, tmp_path):
        # params.txt matches its state.json digest and the experiment hash,
        # but holds one more state than the config's environment
        cfg = base_config(total_steps=4, out_dir=str(tmp_path / "a"))
        run = TrainingRun(cfg)
        run.step()
        ckpt = run.save_checkpoint(tmp_path / "a" / "ck")
        params = tmp_path / "a" / "ck" / "params.txt"
        states = run.env.state_count + 1
        save_params(TabularActor(states, cfg.vocab_size), TabularCritic(states), params)
        state_path = tmp_path / "a" / "ck" / "state.json"
        state = json.loads(state_path.read_text())
        state["params_sha256"] = hashlib.sha256(params.read_bytes()).hexdigest()
        state_path.write_text(json.dumps(state))
        with pytest.raises(ConfigError, match="parameter shapes do not match the config"):
            TrainingRun.resume(cfg, ckpt)

    def test_resume_accepts_retired_snapshot_counter_key(self, tmp_path):
        # checkpoints written before the snapshot counter was dropped hold a
        # "snapshot_counter" entry in their stopper state; they still load
        cfg = base_config(total_steps=4, out_dir=str(tmp_path / "a"))
        run = TrainingRun(cfg)
        run.step()
        ckpt = run.save_checkpoint(tmp_path / "a" / "ck")
        state_path = tmp_path / "a" / "ck" / "state.json"
        state = json.loads(state_path.read_text())
        state["stopper"]["snapshot_counter"] = 1
        state_path.write_text(json.dumps(state))
        resumed = TrainingRun.resume(cfg, ckpt)
        assert resumed.stopper.state_dict() == run.stopper.state_dict()
        assert resumed.step() == run.step()


class TestSurrogateMemory:
    def test_gradient_temporaries_stay_below_one_mib(self):
        # K = 64 and 4,096 trained-on steps: one (steps x (K + 1)) scatter
        # would allocate ~4 MiB of indices and as much of weights; over four
        # epochs on the set's plan, the chunked scatter and each epoch's one
        # row block keep the peak of new allocations under 1 MiB
        env = build_environment(TrapChainSpec(64, 12, tuple(range(12)), None))
        rng = np.random.default_rng(0)
        actor, critic = random_actor(env, rng), random_critic(env, rng)
        batch = collect_batch(actor, critic, plain_snapshot(rule="ppo"), env, 64, 64,
                              STANDARD, -1.0, 0, 1)
        advs = compute_advantages(batch, RunConfig(), -1.0)
        assert len(advs.states) == 4096
        actor.table = actor.table + rng.normal(0, 0.1, size=actor.table.shape)  # ratios != 1
        epochs = []
        tracemalloc.start()
        try:
            for _ in range(4):
                table = actor.table.copy()
                grad, _clip_fraction = ppo_surrogate_grad(actor, batch, advs, RunConfig())
                epochs.append((table, grad))
                actor.apply_gradient(grad, 1.0)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peak {peak / 2**20:.2f} MiB"
        # the chunks and passes carry their running sums: each epoch is the step loop's
        rows = scalar_advantages(records(batch), 1.0, 1.0, -1.0)
        for table, grad in epochs:
            actor.table = table
            want, _ = scalar_surrogate_grad(actor, records(batch), rows, 0.2)
            assert grad.any() and np.array_equal(grad, want)


def pairwise_sum(values):
    """The sum of the two halves' sums, as pairwise summation orders it."""
    if len(values) == 1:
        return values[0]
    half = len(values) // 2
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


class TestRowSumPremises:
    """The numpy behaviour that trainer._row_sum keeps the step loop's bits
    by. A numpy that changes it fails here, by name."""

    @pytest.mark.parametrize("vocab", [2, 8, 64])
    def test_reduce_along_axis_0_adds_the_rows_in_order(self, vocab):
        # 2**53 then fifteen 1.0s: in order every 1.0 rounds away (a tie goes
        # to the even 2**53), while a pairwise sum adds them up first
        crafted = np.ones((16, vocab))
        crafted[0] = 2.0 ** 53
        column = crafted[:, 0].tolist()
        assert pairwise_sum(column) != 2.0 ** 53
        rng = np.random.default_rng(vocab)
        cases = [crafted] + [
            rng.normal(size=(rows, vocab)) * 10.0 ** rng.integers(-12, 12, size=(rows, 1))
            for rows in (2, 3, 9, 17, 129, 511, 2049)]
        for block in cases:
            assert block.flags.c_contiguous
            loop = block[0].copy()
            for row in block[1:]:
                loop = loop + row
            assert np.array_equal(np.add.reduce(block, axis=0), loop)

    def test_einsum_outer_product_is_one_multiply_per_entry(self):
        # equal to np.multiply.outer, into a strided output; only a zero
        # product's sign may differ, which a sum that starts at +0.0 never shows
        values = np.array([0.0, -0.0, 5e-324, -2.5e-308, 0.3, -1.7, 1e300, np.inf, -np.inf,
                           np.nan])
        rng = np.random.default_rng(1)
        for left, right in ((values, values), (rng.normal(size=7), values),
                            (values, rng.normal(size=64)), (-rng.random(300), rng.random(64))):
            block = np.zeros((2 * len(left) + 1, len(right)))
            with np.errstate(all="ignore"):
                np.einsum("i,k->ik", left, right, out=block[1::2])
                want = np.multiply.outer(left, right)
            got = block[1::2]
            assert np.array_equal(got, want, equal_nan=True)
            assert (got[np.signbit(got) != np.signbit(want)] == 0.0).all()
            assert not block[2::2].any()

    def test_signed_zero_terms_change_no_sum(self):
        # a step that adds nothing keeps its place with c = 0.0 and adds
        # +-0.0 terms: they leave np.bincount and the axis-0 reduce as they
        # are, bit for bit, because both sums start at +0.0 and a
        # round-to-nearest sum is -0.0 only when both addends are -0.0; a
        # sum of signed zeros alone stays +0.0
        rng = np.random.default_rng(3)
        terms = rng.normal(size=400) * 10.0 ** rng.integers(-9, 9, size=400)
        cells = rng.integers(0, 6, size=400)
        zeros = np.resize([0.0, -0.0], 200)
        zero_cells = np.resize(np.arange(7), 200)  # cell 6 gets zeros alone
        order = rng.permutation(600)
        weights = np.concatenate([terms, zeros])[order]
        index = np.concatenate([cells, zero_cells])[order]
        kept = order < 400
        got = np.bincount(index, weights=weights, minlength=7)
        want = np.bincount(index[kept], weights=weights[kept], minlength=7)
        assert np.array_equal(got, want) and (np.signbit(got) == np.signbit(want)).all()
        assert got[6] == 0.0 and not np.signbit(got[6])
        for vocab in (2, 8, 64):
            rows = rng.normal(size=(300, vocab)) * 10.0 ** rng.integers(-9, 9, size=(300, 1))
            rows[:, 0] = -0.0  # a column of zeros alone
            zero_rows = np.where(rng.random((150, vocab)) < 0.5, 0.0, -0.0)
            order = rng.permutation(450)
            block = np.concatenate([np.zeros((1, vocab)), np.concatenate([rows, zero_rows])[order]])
            kept = np.concatenate([[True], order < 300])
            got = np.add.reduce(block, axis=0)
            want = np.add.reduce(np.ascontiguousarray(block[kept]), axis=0)
            assert np.array_equal(got, want) and (np.signbit(got) == np.signbit(want)).all()
            assert got[0] == 0.0 and not np.signbit(got[0])


# (ROW_SUM_VOCAB, ROW_SUM_STEPS, ROW_SUM_BLOCK as a function of the vocabulary)
SURROGATE_PATHS = {
    "scatter": (10**9, 1, lambda vocab: trainer.ROW_SUM_BLOCK),
    "rows": (0, 1, lambda vocab: trainer.ROW_SUM_BLOCK),
    "rows in 3-step blocks": (0, 1, lambda vocab: 7 * vocab),
    "rows from 64 steps": (0, 64, lambda vocab: trainer.ROW_SUM_BLOCK),
    "module constants": (trainer.ROW_SUM_VOCAB, trainer.ROW_SUM_STEPS,
                         lambda vocab: trainer.ROW_SUM_BLOCK),
}
# trained-on steps per state, around the thresholds above and the 255-step
# blocks of a 64-token vocabulary
STATE_STEPS = (1, 63, 64, 65, 255, 256, 257, 511, 513)


def surrogate_case(vocab):
    """An actor, trajectories and advantage rows in which state i has
    STATE_STEPS[i] steps, shuffled into rows of 1-64 steps. The steps are
    drawn from a collecting table of one log-prob per (state, token) pair,
    each a ratio within exp(+-0.15) of the actor's, except state i's odd pair,
    token i % vocab. The odd pair's ratio is 1.5 in states 0, 3 and 6; its
    collecting log-prob is -inf in states 1, 4 and 7 and NaN in 2, 5 and 8,
    so its ratio is not finite. 150 steps take their state's odd pair, with
    a positive advantage, and 150 others have a zero advantage. The last
    token's probability underflows to 0 and, from 3 tokens on, the first
    token's is subnormal."""
    rng = np.random.default_rng(vocab)
    state_count = len(STATE_STEPS)
    actor = TabularActor(state_count, vocab)
    actor.table = rng.normal(0.0, 1.0, size=(state_count, vocab))
    actor.table[:, -1] = -800.0
    if vocab >= 3:
        actor.table[:, 0] = -720.0
    log_pi = log_softmax(actor.table, axis=-1)
    collecting = log_pi - rng.uniform(-0.15, 0.15, size=log_pi.shape)
    odd = np.arange(state_count) % vocab
    for state, token in enumerate(odd.tolist()):
        collecting[state, token] = (log_pi[state, token] - math.log(1.5), -math.inf,
                                    math.nan)[state % 3]
    states = np.repeat(np.arange(state_count), STATE_STEPS)
    kinds = np.zeros(len(states), int)
    kinds[rng.choice(len(states), 300, replace=False)] = np.arange(300) % 2 + 1
    order = rng.permutation(len(states))
    steps, advantages = [], []
    for state, kind in zip(states[order].tolist(), kinds[order].tolist()):
        action = int(rng.integers(vocab - 1))
        action += action >= odd[state]  # any token but the odd one
        advantage = float(rng.normal())
        if kind == 1:  # the odd pair: clipped, or a non-finite ratio
            action, advantage = int(odd[state]), abs(advantage)
        elif kind == 2:  # a zero coefficient
            advantage = 0.0
        steps.append(StepRecord(state, action, float(collecting[state, action]), 0.0, 0.0, 0.0,
                                0.0))
        advantages.append(advantage)
    trajectories, rows, first = [], [], 0
    while first < len(steps):
        n = int(rng.integers(1, 65))
        trajectories.append(Trajectory(tuple(steps[first:first + n]), StopReason.NATURAL_END, 1.0))
        advs = tuple(advantages[first:first + n])
        rows.append((advs, (0.0,) * len(advs), (0.0,) * len(advs)))
        first += n
    return actor, trajectories, rows


def advantage_set_digest(advs) -> str:
    """sha256 of every field of an AdvantageSet and every attribute of its
    plan: the dtype, shape and bytes of each array, the repr of the rest."""
    h = hashlib.sha256()

    def add(value):
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(value.tobytes())
        elif isinstance(value, (list, tuple)):
            for item in value:
                add(item)
        else:
            h.update(repr(value).encode())

    for field in dataclasses.fields(advs):
        value = getattr(advs, field.name)
        add(sorted(vars(value).items()) if field.name == "plan" else value)
    return h.hexdigest()


def non_finite_steps(trajectories) -> int:
    """Steps whose collecting log-prob is NaN or -inf."""
    return sum(not math.isfinite(rec.log_prob_sampled) for t in trajectories for rec in t.steps)


class TestSurrogatePathsAgainstScalarLoop:
    @pytest.mark.parametrize("vocab", [2, 3, 16, 64])
    @pytest.mark.parametrize("path", sorted(SURROGATE_PATHS))
    def test_each_path_equals_the_step_loop(self, monkeypatch, caplog, vocab, path):
        min_vocab, min_steps, block = SURROGATE_PATHS[path]
        monkeypatch.setattr(trainer, "ROW_SUM_VOCAB", min_vocab)
        monkeypatch.setattr(trainer, "ROW_SUM_STEPS", min_steps)
        monkeypatch.setattr(trainer, "ROW_SUM_BLOCK", block(vocab))
        summed = []
        row_sum = trainer._row_sum
        monkeypatch.setattr(trainer, "_row_sum",
                            lambda pi, c, *plan: summed.append(len(c)) or row_sum(pi, c, *plan))
        actor, trajectories, rows = surrogate_case(vocab)
        batch = batch_from_trajectories(trajectories, shape=actor.table.shape)
        advs = advantage_set(batch, rows)
        with caplog.at_level(logging.WARNING):
            grad, clip_fraction = ppo_surrogate_grad(actor, batch, advs, RunConfig())
        want, want_clip = scalar_surrogate_grad(actor, trajectories, rows, 0.2)
        assert np.array_equal(grad, want)
        assert (np.signbit(grad) == np.signbit(want)).all()
        assert clip_fraction == want_clip > 0.0
        excluded = non_finite_steps(trajectories)
        assert excluded and f"excluded {excluded} steps with non-finite ratios" in caplog.text
        # a state's clipped, zero and non-finite steps stay in its rows with c = 0.0
        heavy = [n for n in STATE_STEPS if vocab >= min_vocab and n >= min_steps]
        assert summed == heavy


class TestTrainedStepTable:
    """Every epoch, the critic and the step statistics read the AdvantageSet
    of the batch's trained-on steps, which compute_advantages builds once."""

    def test_epochs_on_one_batch_equal_the_step_loop(self, monkeypatch):
        # the first epoch runs on the policy that collected the batch, so
        # every log-ratio is 0 and no ratio is exponentiated; the later ones,
        # after updates, take one math.exp per visited (state, token) pair,
        # and no epoch sorts floats
        env = build_environment(TrapChainSpec(4, 3, (0, 1, 2), None))
        rng = np.random.default_rng(11)
        actor, critic = random_actor(env, rng), random_critic(env, rng)
        batch = collect_batch(actor, critic, plain_snapshot(beta=0.6), env, 32, 24,
                              STANDARD, -1.0, 11, 1)
        config = RunConfig(clip_ratio=0.05)
        advs = compute_advantages(batch, config, -1.0)
        trajectories = records(batch)
        rows = scalar_advantages(trajectories, 1.0, 1.0, -1.0)
        float_sorts, exps = [], []
        for name in ("unique", "sort", "argsort", "lexsort"):
            def spy(values, *a, _sort=getattr(np, name), **k):
                float_sorts.append(np.asarray(values).dtype.kind == "f")
                return _sort(values, *a, **k)
            monkeypatch.setattr(np, name, spy)
        exp = math.exp
        monkeypatch.setattr(math, "exp", lambda x: exps.append(1) or exp(x))
        per_epoch = []
        for _ in range(4):
            before = len(exps)
            grad, clip_fraction = ppo_surrogate_grad(actor, batch, advs, config)
            per_epoch.append(len(exps) - before)
            want, want_clip = scalar_surrogate_grad(actor, trajectories, rows, 0.05)
            assert np.array_equal(grad, want) and grad.any()
            assert (np.signbit(grad) == np.signbit(want)).all()
            assert clip_fraction == want_clip
            actor.apply_gradient(grad, 5.0)
        pairs = {(rec.state_id, rec.action) for t in trajectories for rec in t.steps}
        assert per_epoch == [0] + [len(pairs)] * 3
        assert not any(float_sorts)
        assert clip_fraction > 0.0  # the later epochs reach the clipped branch

    def test_hand_built_sets_hold_the_steps_in_order(self):
        actor, trajectories, rows = surrogate_case(8)
        batch = batch_from_trajectories(trajectories, shape=actor.table.shape)
        advs = advantage_set(batch, rows)
        grad, clip_fraction = ppo_surrogate_grad(actor, batch, advs, RunConfig())
        steps = [rec for t in trajectories for rec in t.steps]
        assert advs.states.tolist() == [rec.state_id for rec in steps]
        assert advs.pairs.tolist() == [rec.state_id * 8 + rec.action for rec in steps]
        assert len(advs.returns) == len(steps) and not advs.returns.any()
        assert np.array_equal(batch.policy.log_probs.ravel()[advs.pairs],
                              [rec.log_prob_sampled for rec in steps], equal_nan=True)
        assert advs.advantages.tolist() == [a for advs_row, _r, _d in rows for a in advs_row]
        want, want_clip = scalar_surrogate_grad(actor, trajectories, rows, 0.2)
        assert np.array_equal(grad, want)
        assert (np.signbit(grad) == np.signbit(want)).all()
        assert clip_fraction == want_clip

    def test_pairs_share_their_collecting_log_prob(self, caplog):
        # the collecting table holds one log-prob per (state, token) pair,
        # finite, NaN and -inf among them: every step of a pair takes
        # the pair's ratio, one per visited pair, and four epochs equal the
        # step loop
        rng = np.random.default_rng(8)
        actor = TabularActor(3, 5)
        actor.table = rng.normal(size=(3, 5))
        collecting = log_softmax(actor.table, axis=-1) - 0.1
        collecting[1, 2] -= 0.3  # the shared pair: clipped at a positive advantage
        collecting[1, 4], collecting[2, 0] = math.nan, -math.inf
        steps, advantages = [], []
        for i in range(90):
            state, action = (1, 2) if i % 2 else (int(rng.integers(3)), int(rng.integers(5)))
            steps.append(StepRecord(state, action, float(collecting[state, action]), 0.0, 0.0,
                                    0.0, 0.0))
            advantages.append(float(rng.normal()) if i % 7 else 0.0)
        trajectories = [Trajectory(tuple(steps[i:i + 9]), StopReason.NATURAL_END, 1.0)
                        for i in range(0, 90, 9)]
        rows = [(tuple(advantages[i:i + 9]), (0.0,) * 9, (0.0,) * 9) for i in range(0, 90, 9)]
        batch = batch_from_trajectories(trajectories, shape=(3, 5))
        advs = advantage_set(batch, rows)
        clip_fractions = []
        for _ in range(4):
            with caplog.at_level(logging.WARNING):
                grad, clip_fraction = ppo_surrogate_grad(actor, batch, advs, RunConfig())
            want, want_clip = scalar_surrogate_grad(actor, trajectories, rows, 0.2)
            assert np.array_equal(grad, want) and grad[1].any()
            assert (np.signbit(grad) == np.signbit(want)).all()
            assert clip_fraction == want_clip
            clip_fractions.append(clip_fraction)
            actor.apply_gradient(grad, 0.5)
        excluded = sum((rec.state_id, rec.action) in ((1, 4), (2, 0)) for rec in steps)
        assert excluded and f"excluded {excluded} steps with non-finite ratios" in caplog.text
        assert any(clip_fractions)
        assert advs.plan.visited.tolist() == sorted({r.state_id * 5 + r.action for r in steps})

    @pytest.mark.parametrize("overrides, heavy", [
        (dict(), False),
        (dict(counterfactual=True, advantage_whitening=True), False),
        (dict(variant="random_stop", random_stop_rate=0.02, vocab_size=32, target_length=2,
              t_max=64, batch_size=8), True),
    ], ids=["espo", "counterfactual-whitened", "heavy-states"])
    def test_training_step_leaves_the_set_as_built(self, monkeypatch, overrides, heavy):
        # four epochs, the critic, the step statistics and the stopper's
        # multiset all read the set; none of them writes to it, so the bytes
        # of every field and plan array after the step are those it was
        # built with. States of 16 steps or more are summed row by row; the
        # random stops' rewards give the heavy state nonzero advantages
        built = []
        compute = trainer.compute_advantages

        def spy(*args):
            advs = compute(*args)
            built.append((advs, advantage_set_digest(advs)))
            return advs

        monkeypatch.setattr(trainer, "compute_advantages", spy)
        monkeypatch.setattr(trainer, "ROW_SUM_STEPS", 16)
        run = TrainingRun(base_config(epochs_per_batch=4, **overrides))
        run.step()
        (advs, digest), = built
        assert advantage_set_digest(advs) == digest
        assert bool(advs.plan.heavy) == heavy
        assert all(advs.advantages[steps].any() for _s, steps, _at in advs.plan.heavy)

    def test_ema_multiset_equals_the_per_element_formula(self):
        # the EMA reads each visited (state, token) pair's regret with its
        # count; pairs that share a regret value, such as the greedy token's
        # 0.0 in every visited state, stay separate multiset entries
        run = TrainingRun(base_config(variant="espo_no_warmup", actor_init_scale=1.0,
                                      total_steps=6))
        alpha = run.config.alpha_ema
        shared = 0
        for _ in range(6):
            mu, var = run.stopper.mu_g, run.stopper.var_g
            run.step()
            batch = run.last_batch
            trained = np.arange(batch.pairs.shape[1]) < batch.effective_lengths[:, None]
            pairs = batch.pairs[trained]
            regrets = batch.policy.regrets.take(pairs)
            shared += len(set(pairs.tolist())) > len(set(regrets.tolist()))
            mean, variance = batch_statistics(regrets)
            assert run.stopper.mu_g == alpha * mu + (1.0 - alpha) * mean
            assert run.stopper.var_g == alpha * var + (1.0 - alpha) * variance
        assert shared == 6


class TestFinalEvalRow:
    def test_final_row_reuses_the_last_steps_evaluation(self, tmp_path, monkeypatch):
        # eval_every divides total_steps: the step-6 row is written twice,
        # from one evaluation
        calls = []
        evaluate = trainer.evaluate_policy
        monkeypatch.setattr(trainer, "evaluate_policy",
                            lambda *a, **k: calls.append(a[5]) or evaluate(*a, **k))
        run = TrainingRun(base_config(total_steps=6, eval_every=3, eval_episodes=16,
                                      out_dir=str(tmp_path)))
        for _ in run.run():
            pass
        lines = (tmp_path / "eval.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["step", "3", "6", "6"]
        assert lines[-1] == lines[-2]
        assert calls == [3, 3, 6, 6]
