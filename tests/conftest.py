"""Shared fixtures: small environments, policies, collection helpers, and the
scalar references the array code is checked against (the per-step records
with their trajectory dump, the per-trajectory random stream, the per-token
collection loop, the per-step environment step, the per-element EMA batch
statistics, and the per-step loops of the trainer)."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import pytest

from espolab.config import RunConfig
from espolab.envs import TrapChainSpec, build_trap_chain
from espolab.mdpcore import TRAIN_STREAM, derived_rng, log_softmax
from espolab.policy import TabularActor, TabularCritic
from espolab.rollout import (
    COUNTERFACTUAL,
    RANDOM,
    STANDARD,
    STOP_REASONS,
    CachedPolicy,
    CollectionMode,
    RolloutBatch,
    collect_batch,
)
from espolab.stopper import StopperSnapshot, StopperState, StopRule
from espolab.trainer import AdvantageSet
from espolab.variants import variant_dispatch


@pytest.fixture
def small_env():
    """Trap chain K=4, L=3, padding=2 (7 states)."""
    return build_trap_chain(TrapChainSpec(4, 3, (0, 1, 2), 2))


def random_actor(env, rng, scale=1.0):
    actor = TabularActor(env.state_count, env.vocab_size)
    actor.table = rng.normal(0.0, scale, size=actor.table.shape)
    return actor


def random_critic(env, rng, scale=0.5):
    critic = TabularCritic(env.state_count)
    critic.table = rng.normal(0.0, scale, size=critic.table.shape)
    return critic


def plain_snapshot(**overrides) -> StopperSnapshot:
    """Snapshot with inert statistics and warmup released."""
    defaults = dict(frozen_mu=0.0, frozen_var=1.0, warmup_active=False)
    defaults.update(overrides)
    return StopperSnapshot(**defaults)


def make_stopper(**overrides) -> StopperState:
    """A fresh StopperState for RunConfig(**overrides) and its variant plan."""
    cfg = RunConfig(**overrides)
    return StopperState(cfg, variant_dispatch(cfg))


def batch_statistics(regrets: np.ndarray) -> tuple[float, float]:
    """Mean and population variance of a regret batch by the per-element
    formula StopperState.update_ema must reproduce bit for bit: math.fsum over
    every regret, then over libm pow(regret - mean, 2.0) of every regret."""
    n = regrets.size
    mean = math.fsum(regrets.tolist()) / n
    return mean, math.fsum(math.pow(d, 2.0) for d in (regrets - mean).tolist()) / n


def collect_small_batch(env, actor, critic, snapshot=None, batch_size=4, t_max=8,
                        mode=None, r_fail=-1.0, seed=0, batch_index=1):
    snapshot = snapshot if snapshot is not None else plain_snapshot()
    mode = mode if mode is not None else CollectionMode(STANDARD)
    return collect_batch(actor, critic, snapshot, env, batch_size, t_max, mode,
                         r_fail, seed, batch_index)


# -- per-step records ----------------------------------------------------------


class StopReason(Enum):
    NATURAL_END = "natural_end"
    HORIZON_CAP = "horizon_cap"
    EARLY_STOP = "early_stop"


@dataclass(slots=True)
class StepRecord:
    """One generation step: one column of one row of a RolloutBatch.

    regret_raw is g_t, the state's maximum log-prob minus log_prob_sampled;
    regret_normalized is the clipped z-scored value under the frozen batch
    statistics, and smoothed_score is the running statistic z_t after this
    step's accumulation. Steps carry no reward: only the last step of a
    trajectory is rewarded, with Trajectory.outcome_reward.
    """

    state_id: int
    action: int
    log_prob_sampled: float
    value_estimate: float
    regret_raw: float
    regret_normalized: float
    smoothed_score: float


@dataclass(frozen=True)
class Trajectory:
    """One rollout, a row of a RolloutBatch. hypothetical_stop_index is set
    only in counterfactual-extend mode, at the step where the stop criterion
    would have fired; the rollout continued to its natural end and earned
    outcome_reward."""

    steps: tuple[StepRecord, ...]
    stop_reason: StopReason
    outcome_reward: float
    hypothetical_stop_index: int | None = None

    @property
    def stop_index(self) -> int | None:
        """Step at which the stop rule fired, in earnest or hypothetically."""
        if self.hypothetical_stop_index is not None:
            return self.hypothetical_stop_index
        if self.stop_reason is StopReason.EARLY_STOP:
            return len(self.steps) - 1
        return None

    @property
    def effective_length(self) -> int:
        """Length of the trained-on span: up to the hypothetical stop, if any."""
        if self.hypothetical_stop_index is not None:
            return self.hypothetical_stop_index + 1
        return len(self.steps)


def records(batch: RolloutBatch) -> tuple[Trajectory, ...]:
    """The rows of a batch as Trajectory records."""
    return tuple(Trajectory(tuple(StepRecord(*step) for step in steps),
                            StopReason(STOP_REASONS[code]), outcome,
                            hyp if hyp >= 0 else None)
                 for steps, code, outcome, hyp in batch.trajectories)


def dump_trajectory(traj: Trajectory) -> str:
    """Tab-separated debug dump: one line per step with the stop signal path."""
    lines = []
    stop_index = traj.stop_index
    for i, rec in enumerate(traj.steps):
        lines.append("\t".join([
            str(i), str(rec.state_id), str(rec.action), repr(rec.regret_raw),
            repr(rec.regret_normalized), repr(rec.smoothed_score),
            repr(rec.value_estimate), "1" if i == stop_index else "0",
        ]))
    return "\n".join(lines)


def dump_batch(batch: RolloutBatch, step: int) -> str:
    """What trajectories.tsv gains for the batch of training step `step`: a
    header line per trajectory, then its dump."""
    return "".join(f"# step {step} trajectory {ti} reason {traj.stop_reason.value}\n"
                   f"{dump_trajectory(traj)}\n" for ti, traj in enumerate(records(batch)))


# -- scalar references ---------------------------------------------------------


def env_step(env, state_id: int, action: int) -> tuple[int, bool, float]:
    """One transition read from the environment's tables, with the checks a
    caller stepping one token at a time needs."""
    if not 0 <= state_id < env.state_count:
        raise ValueError(f"unknown state {state_id}")
    if not 0 <= action < env.vocab_size:
        raise ValueError(f"action {action} outside vocabulary")
    if env.next_state[state_id, 0] < 0:
        raise ValueError(f"step() called on terminal state {state_id}")
    return (int(env.next_state[state_id, action]), bool(env.terminal[state_id, action]),
            float(env.reward[state_id, action]))


def trajectory_rng(master_seed: int, batch_index: int, traj_index: int) -> np.random.Generator:
    """Trajectory traj_index's own stream in batch batch_index, built one
    SeedSequence at a time: the oracle for collect_batch's bulk uniforms."""
    return derived_rng(master_seed, TRAIN_STREAM, batch_index, traj_index)


def pick_from_cumulative(cum_probs, rng: np.random.Generator) -> int:
    """Sample an index from an inclusive cumulative-probability list with one
    uniform draw: bisect on u * total, clamped to the last index."""
    u = rng.random() * cum_probs[-1]
    idx = bisect.bisect_right(cum_probs, u)
    last = len(cum_probs) - 1
    return last if idx > last else idx


def decide(snapshot: StopperSnapshot, z: float, value: float) -> bool:
    """The stop rule written out for one step: strict inequalities, nothing
    fires while warmup is active."""
    if snapshot.warmup_active:
        return False
    if snapshot.rule is StopRule.VALUE_ONLY:
        return value < snapshot.rule_threshold
    if snapshot.rule is StopRule.REGRET_ONLY:
        return z > snapshot.rule_threshold
    return z > snapshot.beta * max(value, snapshot.value_floor)


def normalize(snapshot: StopperSnapshot, g: float) -> float:
    scaled = (g - snapshot.frozen_mu) / math.sqrt(snapshot.frozen_var + snapshot.stabilizer)
    return min(max(scaled, -snapshot.clip_bound), snapshot.clip_bound)


def collect_trajectory(actor, critic, snapshot, env, t_max, mode, r_fail, rng) -> Trajectory:
    """The published collection loop, one token at a time: sample, regret,
    normalize, smooth, then test the stop rule. The oracle collect_batch is
    compared against."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    lp_table = log_softmax(actor.table, axis=-1)
    steps = []
    z = 0.0
    alpha = snapshot.alpha_s
    state = env.initial_state
    cf_index = None
    stop_reason = StopReason.HORIZON_CAP
    outcome = 0.0
    for t in range(t_max):
        lp_row = lp_table[state].tolist()
        action = pick_from_cumulative(np.cumsum(np.exp(lp_table[state])).tolist(), rng)
        lp_a = lp_row[action]
        g = max(lp_row) - lp_a
        g_norm = normalize(snapshot, g)
        z = alpha * z + (1.0 - alpha) * g_norm
        value = float(critic.table[state])
        steps.append(StepRecord(state, action, lp_a, value, g, g_norm, z))
        next_state, terminal, env_reward = env_step(env, state, action)
        if terminal:  # natural end wins over the stop rule
            stop_reason = StopReason.NATURAL_END
            outcome = env_reward
            break
        if mode.kind == RANDOM:
            fires = rng.random() < mode.random_stop_rate
        elif mode.kind in (STANDARD, COUNTERFACTUAL):
            fires = decide(snapshot, z, value)
        else:
            fires = False
        if fires and mode.kind != COUNTERFACTUAL:
            stop_reason = StopReason.EARLY_STOP
            outcome = r_fail
            break
        if fires and cf_index is None:
            cf_index = t
        state = next_state
    return Trajectory(tuple(steps), stop_reason, outcome, cf_index)


def batch_from_trajectories(trajectories, snapshot=None, mode=None) -> RolloutBatch:
    """A RolloutBatch holding the given Trajectory records as its rows."""
    snapshot = snapshot if snapshot is not None else plain_snapshot()
    mode = mode if mode is not None else CollectionMode(STANDARD)
    trajectories = tuple(trajectories)
    width = max((len(t.steps) for t in trajectories), default=0)
    shape = (len(trajectories), width)
    columns = [np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)]
    columns += [np.zeros(shape) for _ in range(5)]
    for i, traj in enumerate(trajectories):
        for t, rec in enumerate(traj.steps):
            for column, value in zip(columns, (rec.state_id, rec.action, rec.log_prob_sampled,
                                               rec.value_estimate, rec.regret_raw,
                                               rec.regret_normalized, rec.smoothed_score)):
                column[i, t] = value
    return RolloutBatch(
        *columns,
        lengths=np.array([len(t.steps) for t in trajectories], dtype=np.int64),
        stop_codes=np.array([STOP_REASONS.index(t.stop_reason.value) for t in trajectories],
                            dtype=np.int8),
        outcomes=np.array([t.outcome_reward for t in trajectories], dtype=np.float64),
        hypothetical_stops=np.array(
            [-1 if t.hypothetical_stop_index is None else t.hypothetical_stop_index
             for t in trajectories], dtype=np.int64),
        snapshot=snapshot, mode=mode)


def advantage_set(rows) -> AdvantageSet:
    """An AdvantageSet from per-trajectory (advantages, returns, td_errors)."""
    rows = list(rows)
    width = max((len(r[0]) for r in rows), default=0)
    arrays = [np.zeros((len(rows), width)) for _ in range(3)]
    for i, row in enumerate(rows):
        for array, values in zip(arrays, row):
            array[i, :len(values)] = values
    lengths = np.array([len(r[0]) for r in rows], dtype=np.int64)
    return AdvantageSet(*arrays, np.arange(width) < lengths[:, None])


def scalar_advantages(trajectories, gamma, lam, early_stop_reward, whitening=False):
    """Per-trajectory (advantages, returns, td_errors) lists by the scalar
    recursions: TD errors with no bootstrap past the last step, then GAE from
    the end, then optional whitening over all steps."""
    out = []
    for traj in trajectories:
        eff = traj.effective_length
        rewards = [0.0] * eff
        rewards[-1] = (early_stop_reward if traj.hypothetical_stop_index is not None
                       else traj.outcome_reward)
        values = [traj.steps[i].value_estimate for i in range(eff)]
        deltas = [rewards[t] + gamma * (values[t + 1] if t + 1 < eff else 0.0) - values[t]
                  for t in range(eff)]
        advs = [0.0] * eff
        acc = 0.0
        for t in range(eff - 1, -1, -1):
            acc = deltas[t] + gamma * lam * acc
            advs[t] = acc
        out.append((advs, [advs[i] + values[i] for i in range(eff)], deltas))
    if whitening:
        flat = [a for advs, _r, _d in out for a in advs]
        if flat:
            mean = math.fsum(flat) / len(flat)
            var = math.fsum((a - mean) ** 2 for a in flat) / len(flat)
            scale = 1.0 / max(math.sqrt(var), 1e-8)
            out = [([(a - mean) * scale for a in advs], rets, deltas)
                   for advs, rets, deltas in out]
    return out


def scalar_surrogate_grad(actor, trajectories, rows, clip_ratio):
    """(gradient, clip fraction) of the mean clipped surrogate by a loop over
    the steps: each unclipped step adds -c * pi(k|s) to every entry of its
    state's row and +c at its token, c = ratio * advantage."""
    table = log_softmax(actor.table, axis=-1)
    lp_list = [row.tolist() for row in table]
    prob_list = [row.tolist() for row in np.exp(table)]
    vocab = actor.vocab_size
    lo, hi = 1.0 - clip_ratio, 1.0 + clip_ratio
    dense = {}
    included = clipped_steps = 0
    for traj, (advs, _rets, _deltas) in zip(trajectories, rows):
        for i, adv in enumerate(advs):
            rec = traj.steps[i]
            state, action = rec.state_id, rec.action
            ratio = math.exp(lp_list[state][action] - rec.log_prob_sampled)
            if not math.isfinite(ratio):
                continue
            included += 1
            if (adv > 0.0 and ratio > hi) or (adv < 0.0 and ratio < lo):
                clipped_steps += 1
                continue
            coeff = ratio * adv
            if coeff == 0.0:
                continue
            row = dense.setdefault(state, [0.0] * vocab)
            for k in range(vocab):
                row[k] -= coeff * prob_list[state][k]
            row[action] += coeff
    grad = np.zeros_like(table)
    if included:
        for state, row in dense.items():
            grad[state] = row
        grad *= 1.0 / included
    return grad, clipped_steps / included if included else 0.0


def scalar_critic(critic, trajectories, rows):
    """(gradient, loss) of mean (V(s) - return)^2 by a loop over the steps."""
    values = critic.table.tolist()
    acc = [0.0] * critic.state_count
    total = 0.0
    count = 0
    for traj, (_advs, rets, _deltas) in zip(trajectories, rows):
        for i, ret in enumerate(rets):
            state = traj.steps[i].state_id
            diff = values[state] - ret
            acc[state] += 2.0 * diff
            total += diff * diff
            count += 1
    grad = np.array(acc)
    if count:
        grad *= 1.0 / count
    return grad, total / count if count else 0.0


def ppo_surrogate_value(actor, batch, advantage_sets, config) -> float:
    """Mean clipped surrogate over the unmasked steps, the objective whose
    gradient ppo_surrogate_grad returns; the finite-difference reference."""
    table = log_softmax(actor.table, axis=-1)
    lo, hi = 1.0 - config.clip_ratio, 1.0 + config.clip_ratio
    total = 0.0
    included = 0
    for traj, advs, n in zip(records(batch), advantage_sets.advantages,
                             advantage_sets.mask.sum(axis=1).tolist()):
        for rec, adv in zip(traj.steps, advs[:n].tolist()):
            ratio = math.exp(table[rec.state_id, rec.action] - rec.log_prob_sampled)
            if not math.isfinite(ratio):
                continue
            included += 1
            total += min(ratio * adv, min(max(ratio, lo), hi) * adv)
    return total / included if included else 0.0
