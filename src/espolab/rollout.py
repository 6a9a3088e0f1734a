"""Rollout collection with online early termination.

collect_batch follows the published collection loop for every trajectory of
a batch at once: sample the token, compute the step regret, normalize it
against the frozen batch statistics, fold it into the smoothed score, and
only then test the stop rule. The sampled token at the stop step is retained
and carries the failure reward; nothing is decoded past the stop, and
simultaneous natural termination wins over the stop rule.

Counterfactual-extend mode records where the rule WOULD have fired and keeps
decoding to the natural end, so the prefix up to the hypothetical stop index
is bit-identical to what standard mode would have produced under the same
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .mdpcore import EVAL_STREAM, TRAIN_STREAM, keyed_uniforms, log_softmax
from .policy import TabularActor, TabularCritic

if TYPE_CHECKING:  # stopper imports CollectionMode from this module
    from .stopper import StopperSnapshot

__all__ = [
    "CachedPolicy",
    "CollectionMode",
    "RolloutBatch",
    "STOP_REASONS",
    "collect_batch",
    "evaluate_policy",
    "false_positive_rate",
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


class CachedPolicy:
    """Frozen per-batch view of the actor/critic over all enumerable states.

    The actor is immutable during collection, so the per-state log-softmax,
    cumulative sampling table, max log-prob, step regret of every token,
    entropy and greedy token are computed once per batch, as arrays that
    whole columns of a batch index at once.
    """

    def __init__(self, actor: TabularActor, critic: TabularCritic):
        table = log_softmax(actor.table, axis=-1)
        probs = np.exp(table)
        self.log_probs = table
        self.cum_probs = np.cumsum(probs, axis=1)
        self.max_log_prob = table.max(axis=1)
        self.regrets = self.max_log_prob[:, None] - table  # g for every (state, token)
        with np.errstate(invalid="ignore"):
            ent = -np.where(probs > 0.0, probs * table, 0.0).sum(axis=1)
        self.entropies = np.maximum(ent, 0.0)
        # from the logits: rounding in the log-softmax can tie distinct logits
        self.greedy_actions = actor.table.argmax(axis=1)
        self.values = critic.table.copy()
        self.vocab_size = actor.vocab_size

    def sample(self, states: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Token drawn in each of `states` by the matching uniform in [0, 1):
        the number of inclusive cumulative probabilities at or below
        u * total (bisect_right). As u < 1, u * total rounds below the last
        entry, so a draw never runs past the last token."""
        cum = self.cum_probs.take(states, axis=0)
        return (cum <= (uniforms * cum[:, -1])[:, None]).argmin(axis=1)


# Stop codes of RolloutBatch.stop_codes, indexes into STOP_REASONS.
NATURAL_END, HORIZON_CAP, EARLY_STOP = 0, 1, 2
STOP_REASONS = ("natural_end", "horizon_cap", "early_stop")


@dataclass(frozen=True, eq=False)
class RolloutBatch:
    """Fixed set of trajectories collected under one frozen stopper snapshot,
    stored as arrays.

    The per-step arrays are B x T, one row per trajectory and one column per
    step; entries at or past a row's length are zero. `scores` holds the
    smoothed score z after each step. Per row: the length, the stop code (an
    index into STOP_REASONS), the outcome reward, and the counterfactual
    hypothetical stop step (-1 where the criterion never fired).
    """

    states: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray
    regrets: np.ndarray
    normalized_regrets: np.ndarray
    scores: np.ndarray
    lengths: np.ndarray
    stop_codes: np.ndarray
    outcomes: np.ndarray
    hypothetical_stops: np.ndarray
    snapshot: StopperSnapshot
    mode: CollectionMode

    @property
    def size(self) -> int:
        return len(self.lengths)

    @property
    def total_tokens(self) -> int:
        return int(self.lengths.sum())

    @property
    def effective_lengths(self) -> np.ndarray:
        """Length of each trained-on span: up to the hypothetical stop, if any."""
        return np.where(self.hypothetical_stops >= 0, self.hypothetical_stops + 1,
                        self.lengths)

    @property
    def stop_indices(self) -> np.ndarray:
        """Step at which the stop rule fired, in earnest or hypothetically;
        -1 where it never fired."""
        stopped = np.where(self.stop_codes == EARLY_STOP, self.lengths - 1, -1)
        return np.where(self.hypothetical_stops >= 0, self.hypothetical_stops, stopped)

    @property
    def trajectories(self) -> tuple:
        """The rows as plain values, built on each access: per row, its step
        tuples (state, action, log-prob, value, regret, normalized regret,
        score), stop code, outcome and hypothetical stop. Two batches hold
        the same rows exactly when their views are equal."""
        columns = (self.states, self.actions, self.log_probs, self.values, self.regrets,
                   self.normalized_regrets, self.scores)
        rows = zip(self.lengths.tolist(), self.stop_codes.tolist(), self.outcomes.tolist(),
                   self.hypothetical_stops.tolist())
        return tuple((tuple(zip(*(c[i, :n].tolist() for c in columns))), code, outcome, hyp)
                     for i, (n, code, outcome, hyp) in enumerate(rows))


def false_positive_rate(batch: RolloutBatch) -> float:
    """Share of trajectories whose criterion fired but whose full rollout
    still earned reward 1. Only defined for counterfactual-extend batches."""
    if batch.mode.kind != COUNTERFACTUAL:
        raise ValueError("false_positive_rate requires a counterfactual-extend batch")
    if not batch.size:
        return 0.0
    hits = np.count_nonzero((batch.hypothetical_stops >= 0) & (batch.outcomes == 1.0))
    return int(hits) / batch.size


def collect_batch(actor: TabularActor, critic: TabularCritic,
                  snapshot: StopperSnapshot, env, batch_size: int, t_max: int,
                  mode: CollectionMode, r_fail: float,
                  master_seed: int, batch_index: int,
                  cache: CachedPolicy | None = None) -> RolloutBatch:
    """Collect batch_size trajectories under one frozen snapshot.

    Each trajectory owns the stream keyed by (batch_index, its index), so the
    batch contents do not depend on collection order or worker scheduling.
    Trajectory i draws all its uniforms up front: one per step, or two in
    random-stop mode (2t samples step t's token, 2t+1 is its stop test). The
    batch then advances in lockstep, one column per step, over the policy
    cache, the environment tables and the snapshot's regret and threshold
    tables.

    Per step: sample the token, fold its normalized regret into the smoothed
    score, and only then test the stop rule. The token at the stop step is
    kept and carries r_fail (0.0 under the no-penalty ablation); nothing is
    decoded past a stop, and a natural end at the same step wins over the
    stop rule. Counterfactual-extend mode records where the rule would first
    have fired and keeps decoding to the natural end.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    pol = cache if cache is not None else CachedPolicy(actor, critic)
    draws_per_step = 2 if mode.kind == RANDOM else 1
    uniforms = keyed_uniforms(master_seed, (TRAIN_STREAM, batch_index), 0, batch_size,
                              draws_per_step * t_max)
    norm_regrets = snapshot.normalize(pol.regrets).ravel()
    thresholds = (snapshot.stop_thresholds(pol.values)
                  if mode.kind in (STANDARD, COUNTERFACTUAL) else None)
    vocab = pol.vocab_size
    next_state, terminal = env.next_state.ravel(), env.terminal.ravel()
    alpha = snapshot.alpha_s
    scaled_regrets = (1.0 - alpha) * norm_regrets
    counterfactual = mode.kind == COUNTERFACTUAL

    pairs = np.zeros((batch_size, t_max), dtype=np.int64)  # state * vocab + action
    scores = np.zeros((batch_size, t_max))
    lengths = np.full(batch_size, t_max)
    stop_codes = np.full(batch_size, HORIZON_CAP, dtype=np.int8)
    outcomes = np.zeros(batch_size)
    hypothetical = np.full(batch_size, -1)

    # Every row steps every column; a finished row is parked on the initial
    # state and what it records past its length is cleared below. Once every
    # live row sits in an absorbing state, the loop hands the rest of the
    # batch, columns `start` onwards, to the bulk finish below.
    absorbing = env.absorbing
    start = t_max
    done = np.zeros(batch_size, dtype=bool)
    armed = np.ones(batch_size, dtype=bool)  # counterfactual: not fired yet
    remaining = batch_size
    state = np.full(batch_size, env.initial_state)
    z = np.zeros(batch_size)
    for t in range(t_max):
        if (absorbing.take(state) | done).all():
            start = t
            break
        pair = state * vocab + pol.sample(state, uniforms[:, draws_per_step * t])
        z = alpha * z + scaled_regrets.take(pair)
        pairs[:, t] = pair
        scores[:, t] = z

        ended = terminal.take(pair)  # natural end wins over the stop rule
        if thresholds is not None:
            fires = z > thresholds.take(state)
        elif mode.kind == RANDOM:
            fires = uniforms[:, 2 * t + 1] < mode.random_stop_rate
        else:
            fires = None
        if counterfactual:
            first = fires & armed & ~ended
            if np.count_nonzero(first):
                hypothetical[first] = t
                armed &= ~first
            finish = ended & ~done
        else:
            finish = (ended if fires is None else ended | fires) & ~done
        finished = np.count_nonzero(finish)
        if finished:
            rows = np.flatnonzero(finish)
            natural = ended[rows]
            lengths[rows] = t + 1
            stop_codes[rows] = np.where(natural, NATURAL_END, EARLY_STOP)
            outcomes[rows] = np.where(natural, env.reward.ravel().take(pair[rows]), r_fail)
            done |= finish
            armed &= ~finish
            remaining -= finished
            if not remaining:
                break
        state = next_state.take(pair)
        if remaining < batch_size:
            state[done] = env.initial_state

    if start < t_max:
        # Each live row stays in its state s for good and no token ends it,
        # so whole blocks of columns go at once: tokens by bisecting s's
        # cumulative table as CachedPolicy.sample does, regrets by lookup,
        # then z one column at a time, and the first fire by argmax.
        live = np.flatnonzero(~done)
        s = state[live]
        u = uniforms[live, draws_per_step * start::draws_per_step]
        tokens = np.empty(u.shape, dtype=np.int64)
        for absorbed in sorted(set(s.tolist())):  # np.unique would import numpy.ma
            rows = s == absorbed
            cum = pol.cum_probs[absorbed]
            tokens[rows] = np.searchsorted(cum, u[rows] * cum[-1], side="right")
        tail = s[:, None] * vocab + tokens
        x = scaled_regrets.take(tail)
        zs = np.empty_like(x)
        z = z[live]
        for j in range(x.shape[1]):
            z = alpha * z + x[:, j]
            zs[:, j] = z
        pairs[live, start:] = tail
        scores[live, start:] = zs

        if thresholds is not None:
            fires = zs > thresholds.take(s)[:, None]
        elif mode.kind == RANDOM:
            fires = uniforms[live, 2 * start + 1::2] < mode.random_stop_rate
        else:
            fires = None
        if fires is not None:
            fired = fires.any(axis=1)
            first = start + fires.argmax(axis=1)
            if counterfactual:
                fired &= armed[live]
                hypothetical[live[fired]] = first[fired]
            else:
                rows = live[fired]
                lengths[rows] = first[fired] + 1
                stop_codes[rows] = EARLY_STOP
                outcomes[rows] = r_fail

    width = int(lengths.max()) if batch_size else 0
    pairs, scores = pairs[:, :width], scores[:, :width]
    past_end = np.arange(width) >= lengths[:, None]
    pairs[past_end] = 0
    scores[past_end] = 0.0

    def gathered(table, index):
        out = table.take(index)
        out[past_end] = 0.0
        return out

    states = pairs // vocab
    return RolloutBatch(
        states=states, actions=pairs - states * vocab,
        log_probs=gathered(pol.log_probs, pairs), values=gathered(pol.values, states),
        regrets=gathered(pol.regrets, pairs), normalized_regrets=gathered(norm_regrets, pairs),
        scores=scores, lengths=lengths, stop_codes=stop_codes, outcomes=outcomes,
        hypothetical_stops=hypothetical, snapshot=snapshot, mode=mode)


EVAL_CHUNK = 64  # sampled episodes advanced in lockstep at a time


def evaluate_policy(policy: CachedPolicy, env, t_max: int, episodes: int,
                    seed: int, eval_tag: int = 0, greedy: bool = True) -> float:
    """Success rate over fresh episodes with no stopping machinery.

    Greedy picks the argmax token. The env and the argmax are deterministic,
    so every greedy episode is the same one: it runs once and scores for all.
    Sampled episodes draw from the policy with per-episode streams keyed by
    (eval_tag, episode) and advance in lockstep chunks. Success means
    terminal reward 1. An episode that enters an absorbing state can never
    reach a terminal, so it is dropped there as a failure.
    """
    vocab = policy.vocab_size
    next_state, terminal = env.next_state.ravel(), env.terminal.ravel()
    success = env.reward.ravel() == 1.0
    absorbing = env.absorbing
    if greedy:
        state = env.initial_state
        won = False
        for _ in range(t_max):
            if absorbing[state]:
                break
            pair = state * vocab + int(policy.greedy_actions[state])
            if terminal[pair]:
                won = bool(success[pair])
                break
            state = int(next_state[pair])
        return (episodes if won else 0) / episodes
    successes = 0
    for first in range(0, episodes, EVAL_CHUNK):
        count = min(EVAL_CHUNK, episodes - first)
        uniforms = keyed_uniforms(seed, (EVAL_STREAM, eval_tag), first, count, t_max)
        rows = np.arange(count)
        state = np.full(count, env.initial_state)
        for t in range(t_max):
            if not rows.size:
                break
            pair = state * vocab + policy.sample(state, uniforms[rows, t])
            ended = terminal[pair]
            successes += int(np.count_nonzero(success[pair[ended]]))
            state = next_state[pair]
            keep = ~(ended | absorbing[state])
            rows, state = rows[keep], state[keep]
    return successes / episodes
