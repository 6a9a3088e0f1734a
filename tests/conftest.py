"""Shared fixtures: small environments, policies, collection helpers, and the
scalar references the array code is checked against (the per-step records
with their trajectory dump, the per-trajectory random stream, the per-token
collection loop, the per-step environment step and the per-(label, token)
environment rules, the per-element EMA batch statistics, and the per-step
loops of the trainer)."""

from __future__ import annotations

import bisect
import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

import numpy as np
import pytest

from espolab.config import RunConfig
from espolab.envs import RecoverableBranchSpec, TrapChainSpec, build_environment
from espolab import mdpcore
from espolab.mdpcore import TRAIN_STREAM, derived_rng, log_softmax
from espolab.policy import TabularActor, TabularCritic
from espolab.rollout import STOP_REASONS, CachedPolicy, RolloutBatch, collect_batch
from espolab.stopper import StopperSnapshot, StopperState
from espolab.trainer import AdvantageSet
from espolab.variants import COUNTERFACTUAL, STANDARD, variant_dispatch


@pytest.fixture
def small_env():
    """Trap chain K=4, L=3, padding=2 (7 states)."""
    return build_environment(TrapChainSpec(4, 3, (0, 1, 2), 2))


def random_actor(env, rng, scale=1.0):
    actor = TabularActor(env.state_count, env.vocab_size)
    actor.table = rng.normal(0.0, scale, size=actor.table.shape)
    return actor


def params_text(actor, critic) -> str:
    """save_params's file, written one entry at a time through float repr."""
    text = f"shape {actor.state_count} {actor.vocab_size}\n"
    for s in range(actor.state_count):
        for k in range(actor.vocab_size):
            text += f"actor {s} {k} {float(actor.table[s, k])!r}\n"
    for s in range(critic.state_count):
        text += f"critic {s} {float(critic.table[s])!r}\n"
    return text


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


def grouped(regrets):
    """A plain regret batch as the multiset StopperState.update_ema takes:
    its distinct values and their counts."""
    return np.unique(np.asarray(regrets, dtype=np.float64), return_counts=True)


def collect_small_batch(env, actor, critic, snapshot=None, batch_size=4, t_max=8,
                        mode=STANDARD, r_fail=-1.0, seed=0, batch_index=1):
    snapshot = snapshot if snapshot is not None else plain_snapshot()
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
    """The rows of a batch as Trajectory records. A counterfactual row's stop
    is its hypothetical stop index; a standard row's stop is where the row
    was cut, which its record carries as EARLY_STOP and its last step."""
    rows = tuple(Trajectory(tuple(StepRecord(*step) for step in steps),
                            StopReason(STOP_REASONS[code]), outcome,
                            stop if batch.mode == COUNTERFACTUAL and stop >= 0 else None)
                 for steps, code, outcome, stop in batch.trajectories)
    assert batch.stops.tolist() == [-1 if t.stop_index is None else t.stop_index for t in rows]
    return rows


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


def _chain_move(spec, p: int, token: int, wrong: tuple[str, bool, float]):
    """The target token at chain position p leads on, past the last position
    to the success terminal with reward 1; any other token makes `wrong`."""
    if token != spec.target_sequence[p]:
        return wrong
    if p + 1 < spec.target_length:
        return f"chain:{p + 1}", False, 0.0
    return "terminal:success", True, 1.0


def _trap_chain_rules(spec):
    """Doomed branch labels in state order, and the move of (label, token)."""
    n = spec.doom_padding
    if n is None:
        branch, entry = ["doom:absorb"], ("doom:absorb", False, 0.0)
    else:
        branch = [f"doom:{r}" for r in range(n, 0, -1)] + ["terminal:failure"]
        entry = (f"doom:{n}", False, 0.0) if n else ("terminal:failure", True, 0.0)

    def move(label: str, token: int):
        kind, _, at = label.partition(":")
        if kind == "chain":
            return _chain_move(spec, int(at), token, entry)
        if at == "absorb":
            return "doom:absorb", False, 0.0
        if int(at) > 1:
            return f"doom:{int(at) - 1}", False, 0.0
        return "terminal:failure", True, 0.0

    return branch, move


def _recoverable_rules(spec):
    """Detour labels (then the absorbing doom) in state order, and the move of
    (label, token). Every chain position expects token 0."""
    window = spec.repair_window
    branch = [f"detour:{p}:{w}" for p in range(spec.target_length)
              for w in range(window, 0, -1)] + ["doom:absorb"]

    def move(label: str, token: int):
        kind, _, at = label.partition(":")
        if kind == "chain":
            entry = f"detour:{at}:{window}" if window else "doom:absorb"
            return _chain_move(spec, int(at), token, (entry, False, 0.0))
        if kind == "detour":
            p, w = (int(x) for x in at.split(":"))
            if token == 0:
                return f"chain:{p}", False, 0.0
            return (f"detour:{p}:{w - 1}" if w > 1 else "doom:absorb"), False, 0.0
        return "doom:absorb", False, 0.0

    return branch, move


def oracle_environment(spec) -> tuple[list[str], dict]:
    """A spec's environment written per (label, token) from the rules in the
    envs.py docstrings: the state labels in order (the chain, the success
    terminal, then the family's branch), and for each non-terminal label and
    token its (next label, terminal, reward)."""
    rules = {TrapChainSpec: _trap_chain_rules, RecoverableBranchSpec: _recoverable_rules}
    branch, move = rules[type(spec)](spec)
    labels = [f"chain:{p}" for p in range(spec.target_length)] + ["terminal:success", *branch]
    return labels, {(label, a): move(label, a) for label in labels
                    if not label.startswith("terminal:") for a in range(spec.vocab)}


def trajectory_rng(master_seed: int, batch_index: int, traj_index: int) -> np.random.Generator:
    """Trajectory traj_index's own stream in batch batch_index, built one
    SeedSequence at a time: the oracle for collect_batch's bulk uniforms."""
    return derived_rng(master_seed, TRAIN_STREAM, batch_index, traj_index)


def drop_kept_streams():
    """Drop the block that keyed_uniforms keeps, so the next call seeds and
    draws afresh, as a new process would."""
    mdpcore._kept_block.clear()


def pick_from_cumulative(cum_probs, rng: np.random.Generator) -> int:
    """Sample an index from an inclusive cumulative-probability list with one
    uniform draw: bisect on u * total, clamped to the last index."""
    u = rng.random() * cum_probs[-1]
    idx = bisect.bisect_right(cum_probs, u)
    last = len(cum_probs) - 1
    return last if idx > last else idx


def decide(snapshot: StopperSnapshot, z: float, value: float) -> bool:
    """The stop rule written out for one step: strict inequalities, nothing
    fires under the ppo rule or while warmup is active. (The random_stop rule
    draws its own test in collect_trajectory.)"""
    if snapshot.warmup_active or snapshot.rule == "ppo":
        return False
    if snapshot.rule == "value_only":
        return value < snapshot.rule_threshold
    if snapshot.rule == "regret_only":
        return z > snapshot.rule_threshold
    return z > snapshot.beta * max(value, snapshot.value_floor)


def normalize(snapshot: StopperSnapshot, g: float) -> float:
    scaled = (g - snapshot.frozen_mu) / math.sqrt(snapshot.frozen_var + snapshot.stabilizer)
    return min(max(scaled, -snapshot.clip_bound), snapshot.clip_bound)


def collect_trajectory(actor, critic, snapshot, env, t_max, mode, r_fail, rng) -> Trajectory:
    """The published collection loop, one token at a time: sample, regret,
    normalize, smooth, then test the snapshot's stop rule; standard mode ends
    the trajectory at the first fire, counterfactual mode records it and
    goes on. The oracle collect_batch is compared against."""
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
        if snapshot.rule == "random_stop":
            fires = rng.random() < snapshot.random_stop_rate
        else:
            fires = decide(snapshot, z, value)
        if fires and mode == STANDARD:
            stop_reason = StopReason.EARLY_STOP
            outcome = r_fail
            break
        if fires and cf_index is None:
            cf_index = t
        state = next_state
    return Trajectory(tuple(steps), stop_reason, outcome, cf_index)


def batch_from_trajectories(trajectories, snapshot=None, mode=STANDARD,
                            shape=None) -> RolloutBatch:
    """A RolloutBatch holding the given Trajectory records as its rows, drawn
    from the frozen tables the records imply: each (state, token) pair's
    log-prob and regret and each state's value, over `shape` (state count,
    vocabulary; by default just wide enough for the records), 0.0 where no
    record says. Raises ValueError naming the pair or state on which two
    records disagree, bit for bit, or whose normalized regret is not its
    regret through the snapshot."""
    snapshot = snapshot if snapshot is not None else plain_snapshot()
    trajectories = tuple(trajectories)
    steps = [rec for traj in trajectories for rec in traj.steps]
    if shape is None:
        shape = (1 + max((r.state_id for r in steps), default=0),
                 1 + max((r.action for r in steps), default=0))
    tables = {"log-prob": np.zeros(shape), "regret": np.zeros(shape), "value": np.zeros(shape[0])}
    seen = {}
    for rec in steps:
        pair = (rec.state_id, rec.action)
        if float(snapshot.normalize(rec.regret_raw)).hex() != float(rec.regret_normalized).hex():
            raise ValueError(f"the normalized regret of (state, token) {pair} is not its regret "
                             "through the snapshot")
        for name, at, value in (("log-prob", pair, rec.log_prob_sampled),
                                ("regret", pair, rec.regret_raw),
                                ("value", rec.state_id, rec.value_estimate)):
            if float(seen.setdefault((name, at), value)).hex() != float(value).hex():
                where = "state" if name == "value" else "(state, token)"
                raise ValueError(f"the records disagree on the {name} of {where} {at}")
            tables[name][at] = value
    width = max((len(t.steps) for t in trajectories), default=0)
    pairs = np.zeros((len(trajectories), width), dtype=np.int64)
    scores = np.zeros(pairs.shape)
    for i, traj in enumerate(trajectories):
        for t, rec in enumerate(traj.steps):
            pairs[i, t] = rec.state_id * shape[1] + rec.action
            scores[i, t] = rec.smoothed_score
    # the log-prob table stands for the logits too, so a table that agrees with
    # its own log-probs and probabilities is what the surrogate reads
    policy = SimpleNamespace(logits=tables["log-prob"], log_probs=tables["log-prob"],
                             probs=np.exp(tables["log-prob"]), regrets=tables["regret"],
                             values=tables["value"], vocab_size=shape[1])
    return RolloutBatch(
        pairs=pairs, scores=scores,
        lengths=np.array([len(t.steps) for t in trajectories], dtype=np.int64),
        stop_codes=np.array([STOP_REASONS.index(t.stop_reason.value) for t in trajectories],
                            dtype=np.int8),
        outcomes=np.array([t.outcome_reward for t in trajectories], dtype=np.float64),
        stops=np.array([-1 if t.stop_index is None else t.stop_index for t in trajectories],
                       dtype=np.int64),
        snapshot=snapshot, mode=mode, policy=policy)


def assert_same_batch(ours: RolloutBatch, theirs: RolloutBatch) -> None:
    """The two batches hold the same rows drawn from the same tables: every
    array field equal in dtype, value and sign bit, the snapshot and mode
    equal, and every table of the policies array_equal."""
    for field in dataclasses.fields(theirs):
        a, b = getattr(ours, field.name), getattr(theirs, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
            assert np.array_equal(np.signbit(a), np.signbit(b)), field.name
        elif field.name == "policy":
            assert vars(a).keys() == vars(b).keys()
            for name, table in vars(b).items():
                assert np.array_equal(vars(a)[name], table), name
        else:
            assert a == b, field.name


def advantage_set(batch: RolloutBatch, rows) -> AdvantageSet:
    """The AdvantageSet of `batch` with per-trajectory (advantages, returns,
    td_errors), one row per trajectory, joined in step order."""
    rows = list(rows)
    joined = (np.array([v for row in rows for v in row[i]], dtype=float) for i in range(3))
    steps = np.flatnonzero(np.arange(batch.pairs.shape[1]) < batch.effective_lengths[:, None])
    return AdvantageSet.of_batch(batch, steps, *joined)


def by_row(values: np.ndarray, batch: RolloutBatch) -> list[np.ndarray]:
    """A set's flat step-order array split into the batch's rows, each up to
    its effective length."""
    return np.split(values, np.cumsum(batch.effective_lengths)[:-1])


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
    """Mean clipped surrogate over the trained-on steps, the objective whose
    gradient ppo_surrogate_grad returns; the finite-difference reference."""
    table = log_softmax(actor.table, axis=-1)
    lo, hi = 1.0 - config.clip_ratio, 1.0 + config.clip_ratio
    total = 0.0
    included = 0
    for traj, advs in zip(records(batch), by_row(advantage_sets.advantages, batch)):
        for rec, adv in zip(traj.steps, advs.tolist()):
            ratio = math.exp(table[rec.state_id, rec.action] - rec.log_prob_sampled)
            if not math.isfinite(ratio):
                continue
            included += 1
            total += min(ratio * adv, min(max(ratio, lo), hi) * adv)
    return total / included if included else 0.0
