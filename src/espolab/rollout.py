"""Rollout collection with online early termination.

collect_trajectory follows the published collection loop exactly: sample the
token, compute the step regret, normalize it against the frozen batch
statistics, fold it into the smoothed score, and only then test the stop
rule. The sampled token at the stop step is retained and carries the failure
reward; nothing is decoded past the stop, and simultaneous natural
termination wins over the stop rule.

Counterfactual-extend mode records where the rule WOULD have fired and keeps
decoding to the natural end, so the prefix up to the hypothetical stop index
is bit-identical to what standard mode would have produced under the same
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdpcore import (
    EVAL_STREAM,
    StepRecord,
    StopReason,
    Trajectory,
    derived_rng,
    log_softmax,
    pick_from_cumulative,
    trajectory_rng,
)
from .policy import TabularActor, TabularCritic
from .stopper import StopperSnapshot

__all__ = [
    "CachedPolicy",
    "CollectionMode",
    "RolloutBatch",
    "TokenAccounting",
    "collect_batch",
    "collect_trajectory",
    "dump_trajectory",
    "evaluate_policy",
    "false_positive_rate",
    "token_accounting",
]

STANDARD = "standard"
COUNTERFACTUAL = "counterfactual"
DISABLED = "disabled"
RANDOM = "random"


@dataclass(frozen=True, slots=True)
class CollectionMode:
    """How the stop rule participates in collection.

    random_stop_rate is the per-step independent stop hazard and is only
    meaningful for the random kind.
    """

    kind: str = STANDARD
    random_stop_rate: float = 0.0

    def __post_init__(self):
        if self.kind not in (STANDARD, COUNTERFACTUAL, DISABLED, RANDOM):
            raise ValueError(f"unknown collection mode {self.kind!r}")
        if not 0.0 <= self.random_stop_rate <= 1.0:
            raise ValueError("random_stop_rate must lie in [0, 1]")

    @classmethod
    def standard(cls) -> "CollectionMode":
        return cls(STANDARD)

    @classmethod
    def counterfactual_extend(cls) -> "CollectionMode":
        return cls(COUNTERFACTUAL)

    @classmethod
    def stopping_disabled(cls) -> "CollectionMode":
        return cls(DISABLED)

    @classmethod
    def random_stop(cls, rate: float) -> "CollectionMode":
        return cls(RANDOM, rate)


class CachedPolicy:
    """Frozen per-batch view of the actor/critic over all enumerable states.

    The actor is immutable during collection, so the per-state log-softmax,
    cumulative sampling table, max log-prob, and entropy are computed once per
    batch. Plain Python lists keep the hot loop off the numpy scalar path.
    """

    def __init__(self, actor: TabularActor, critic: TabularCritic):
        table = log_softmax(actor.table, axis=-1)
        probs = np.exp(table)
        self.log_probs = [row.tolist() for row in table]
        self.cum_probs = [row.tolist() for row in np.cumsum(probs, axis=1)]
        self.max_log_prob = table.max(axis=1).tolist()
        with np.errstate(invalid="ignore"):
            ent = -np.where(probs > 0.0, probs * table, 0.0).sum(axis=1)
        self.entropies = np.maximum(ent, 0.0).tolist()
        self.values = critic.table.tolist()
        self.vocab_size = actor.vocab_size


@dataclass(frozen=True)
class RolloutBatch:
    """Fixed set of trajectories collected under one frozen stopper snapshot."""

    trajectories: tuple[Trajectory, ...]
    snapshot: StopperSnapshot
    mode: CollectionMode

    @property
    def size(self) -> int:
        return len(self.trajectories)

    @property
    def stop_count(self) -> int:
        """Trajectories that ended with StopReason.EARLY_STOP."""
        return sum(1 for t in self.trajectories if t.stop_reason is StopReason.EARLY_STOP)

    @property
    def hypothetical_stop_count(self) -> int:
        """Counterfactual-mode trajectories whose criterion fired (the "stops"
        the controller sees in that mode)."""
        return sum(1 for t in self.trajectories if t.hypothetical_stop_index is not None)

    @property
    def total_tokens(self) -> int:
        return sum(len(t.steps) for t in self.trajectories)


def false_positive_rate(batch: RolloutBatch) -> float:
    """Share of trajectories whose criterion fired but whose full rollout
    still earned reward 1. Only defined for counterfactual-extend batches."""
    if batch.mode.kind != COUNTERFACTUAL:
        raise ValueError("false_positive_rate requires a counterfactual-extend batch")
    if not batch.size:
        return 0.0
    hits = sum(1 for t in batch.trajectories
               if t.hypothetical_stop_index is not None and t.outcome_reward == 1.0)
    return hits / batch.size


def collect_trajectory(actor: TabularActor, critic: TabularCritic,
                       snapshot: StopperSnapshot, env, t_max: int,
                       mode: CollectionMode, r_fail: float,
                       rng: np.random.Generator,
                       cache: CachedPolicy | None = None) -> Trajectory:
    """Generate one trajectory under the frozen snapshot.

    r_fail is the outcome reward of an early-stopped trajectory (0.0 under
    the no-penalty ablation). The per-trajectory rng must be a fresh stream
    keyed by (batch, index) for schedule independence.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    pol = cache if cache is not None else CachedPolicy(actor, critic)

    steps: list[StepRecord] = []
    z = 0.0
    alpha = snapshot.alpha_s
    one_minus_alpha = 1.0 - alpha
    state = env.reset()
    cf_index: int | None = None
    stop_reason = StopReason.HORIZON_CAP
    outcome = 0.0

    for t in range(t_max):
        cum = pol.cum_probs[state]
        action = pick_from_cumulative(cum, rng)
        lp_row = pol.log_probs[state]
        lp_max = pol.max_log_prob[state]
        lp_a = lp_row[action]
        g = lp_max - lp_a
        g_norm = snapshot.normalize(g)
        z = alpha * z + one_minus_alpha * g_norm
        value = pol.values[state]
        steps.append(StepRecord(state, action, lp_a, value, g, g_norm, z))

        next_state, terminal, env_reward = env.step(state, action)
        if terminal:  # natural end wins over the stop rule
            stop_reason = StopReason.NATURAL_END
            outcome = env_reward
            break
        if mode.kind == STANDARD or mode.kind == COUNTERFACTUAL:
            fires = snapshot.decide(z, value)
        else:
            fires = mode.kind == RANDOM and rng.random() < mode.random_stop_rate
        if fires and mode.kind != COUNTERFACTUAL:
            stop_reason = StopReason.EARLY_STOP
            outcome = r_fail
            break
        if fires and cf_index is None:
            cf_index = t
        state = next_state

    return Trajectory(tuple(steps), stop_reason, outcome, cf_index)


def collect_batch(actor: TabularActor, critic: TabularCritic,
                  snapshot: StopperSnapshot, env, batch_size: int, t_max: int,
                  mode: CollectionMode, r_fail: float,
                  master_seed: int, batch_index: int,
                  cache: CachedPolicy | None = None) -> RolloutBatch:
    """Collect batch_size trajectories under one frozen snapshot.

    Each trajectory owns the stream keyed by (batch_index, its index), so the
    batch contents do not depend on collection order or worker scheduling.
    """
    if cache is None:
        cache = CachedPolicy(actor, critic)
    trajectories = tuple(
        collect_trajectory(actor, critic, snapshot, env, t_max, mode, r_fail,
                           trajectory_rng(master_seed, batch_index, i), cache=cache)
        for i in range(batch_size))
    return RolloutBatch(trajectories, snapshot, mode)


@dataclass(frozen=True, slots=True)
class TokenAccounting:
    """Average generated length, and the average trained-on (effective)
    length, which is shorter only in counterfactual mode."""

    avg_length: float
    avg_length_actual: float


def token_accounting(batch: RolloutBatch) -> TokenAccounting:
    n = max(1, batch.size)
    actual = sum(t.effective_length for t in batch.trajectories)
    return TokenAccounting(batch.total_tokens / n, actual / n)


def evaluate_policy(actor: TabularActor, env, t_max: int, episodes: int,
                    seed: int, eval_tag: int = 0, greedy: bool = True) -> float:
    """Success rate over fresh episodes with no stopping machinery.

    Greedy picks the argmax token (deterministic given the env); sampled
    draws from the policy with per-episode streams keyed by (eval_tag,
    episode). Success means terminal reward 1.
    """
    table = log_softmax(actor.table, axis=-1)
    argmax = np.asarray(actor.table).argmax(axis=1).tolist()
    cum = [row.tolist() for row in np.cumsum(np.exp(table), axis=1)]
    successes = 0
    for episode in range(episodes):
        rng = None if greedy else derived_rng(seed, EVAL_STREAM, eval_tag, episode)
        state = env.reset()
        for _ in range(t_max):
            if greedy:
                action = argmax[state]
            else:
                action = pick_from_cumulative(cum[state], rng)
            state, terminal, reward = env.step(state, action)
            if terminal:
                if reward == 1.0:
                    successes += 1
                break
    return successes / episodes


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
