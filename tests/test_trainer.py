"""TD/GAE, surrogate and critic gradients, and the training loop."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from espolab.config import ConfigError, RunConfig
from espolab.envs import TrapChainSpec, build_trap_chain
from espolab.policy import TabularActor, TabularCritic
from espolab.rollout import DISABLED, STANDARD, CachedPolicy, CollectionMode, collect_batch
from espolab.trainer import (
    TrainingRun,
    compute_advantages,
    critic_grad,
    critic_loss,
    gae,
    ppo_surrogate_grad,
)

from conftest import (
    StepRecord,
    StopReason,
    Trajectory,
    advantage_set,
    batch_from_trajectories,
    plain_snapshot,
    ppo_surrogate_value,
    random_actor,
    random_critic,
    records,
    scalar_advantages,
    scalar_surrogate_grad,
)


def traj_from(values, outcome, reason=StopReason.NATURAL_END, log_prob=-1.0):
    """Trajectory in state 0 with the given recorded values; only its last
    step is rewarded, with outcome."""
    steps = tuple(StepRecord(0, 0, log_prob, v, 0.5, 0.5, 0.1) for v in values)
    return Trajectory(steps, reason, outcome)


def one_batch(traj):
    return batch_from_trajectories([traj])


def td_errors(traj, gamma):
    """TD errors of a single trajectory, as compute_advantages produces them."""
    advs = compute_advantages(one_batch(traj), RunConfig(gamma=gamma), -1.0)
    return advs.td_errors[0].tolist()


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
    env = build_trap_chain(TrapChainSpec(4, 3, (0, 1, 2), 2))
    rng = np.random.default_rng(seed)
    actor = random_actor(env, rng)
    critic = random_critic(env, rng)
    batch = collect_batch(actor, critic, plain_snapshot(beta=beta), env,
                          batch_size, t_max, CollectionMode(STANDARD), -1.0, seed, 1)
    return env, actor, critic, batch


class TestSurrogate:
    def test_on_policy_identity(self):
        # at theta = theta_old every ratio is 1: objective equals the mean
        # advantage and nothing is clipped
        _env, actor, critic, batch = small_training_batch()
        cfg = RunConfig()
        advs = compute_advantages(batch, cfg, -1.0)
        value = ppo_surrogate_value(actor, batch, advs, cfg)
        flat = advs.advantages[advs.mask].tolist()
        assert value == pytest.approx(math.fsum(flat) / len(flat), abs=1e-12)
        _grad, clip_fraction = ppo_surrogate_grad(actor, batch, advs, cfg)
        assert clip_fraction == 0.0

    def test_clip_branch_freezes_gradient(self):
        # single step, ratio 1.3 vs clip 1.2 with positive advantage: the
        # objective takes the clipped constant and the gradient vanishes
        actor = TabularActor(1, 4)
        lp_now = float(np.log(0.25))
        old_lp = lp_now - math.log(1.3)
        batch = one_batch(traj_from([0.0], 1.0, log_prob=old_lp))
        advs = advantage_set([((1.0,), (1.0,), (1.0,))])
        cfg = RunConfig(clip_ratio=0.2)
        value = ppo_surrogate_value(actor, batch, advs, cfg)
        assert value == pytest.approx(1.2, abs=1e-12)
        grad, clip_fraction = ppo_surrogate_grad(actor, batch, advs, cfg)
        assert grad.shape == (1, 4) and not grad.any()
        assert clip_fraction == 1.0

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
        advset = advantage_set([((0.0,), (1.0,), (0.0,))])
        critic2 = TabularCritic(1)
        critic2.table[0] = 1.0
        assert not critic_grad(critic2, single, advset).any()
        assert critic_loss(critic2, single, advset) == 0.0

    def test_single_state_gradient_value(self):
        batch = one_batch(traj_from([0.0], 1.0))
        advset = advantage_set([((0.0,), (1.0,), (0.0,))])
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
            assert advs.advantages[0, -1] < 0.0
            assert advs.td_errors[0, -1] == -1.0 - values[-1]


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
        flat = white.advantages[white.mask].tolist()
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
        from espolab.harness import run_experiment

        full_cfg = base_config(total_steps=24, checkpoint_every=12,
                               out_dir=str(tmp_path / "full"))
        run_experiment(full_cfg)
        full_csv = (tmp_path / "full" / "metrics.csv").read_bytes()

        # replay the first half, then resume from its checkpoint
        half_dir = tmp_path / "resumed"
        half_cfg = base_config(total_steps=24, checkpoint_every=12,
                               out_dir=str(half_dir))
        run = TrainingRun(half_cfg)
        from espolab.metrics import MetricsWriter

        half_dir.mkdir()
        with MetricsWriter(half_dir / "metrics.csv") as writer:
            for _ in range(12):
                writer.write(run.step())
        ckpt = run.save_checkpoint(half_dir / "checkpoints" / "step_000012")
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
        # would allocate ~4 MiB of indices and as much of weights; the chunked
        # scatter keeps the peak of new allocations under 1 MiB
        env = build_trap_chain(TrapChainSpec(64, 12, tuple(range(12)), None))
        rng = np.random.default_rng(0)
        actor, critic = random_actor(env, rng), random_critic(env, rng)
        batch = collect_batch(actor, critic, plain_snapshot(), env, 64, 64,
                              CollectionMode(DISABLED), -1.0, 0, 1)
        advs = compute_advantages(batch, RunConfig(), -1.0)
        assert int(advs.mask.sum()) == 4096
        actor.table = actor.table + rng.normal(0, 0.1, size=actor.table.shape)  # ratios != 1
        tracemalloc.start()
        try:
            grad, _clip_fraction = ppo_surrogate_grad(actor, batch, advs, RunConfig())
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peak {peak / 2**20:.2f} MiB"
        # the chunks carry their running sums: the result is the step loop's
        rows = scalar_advantages(records(batch), 1.0, 1.0, -1.0)
        want, _ = scalar_surrogate_grad(actor, records(batch), rows, 0.2)
        assert grad.any() and np.array_equal(grad, want)
