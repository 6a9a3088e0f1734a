"""Rollout collection with early termination.

collect_batch gives every trajectory of a batch what the published collection
loop gives it: sample the token, compute the step regret, normalize it
against the frozen batch statistics, fold it into the smoothed score, and
only then test the snapshot's stop rule. Every batch records, per row, the
first step where the rule fired (`stops`). The collection mode decides only
what that stop does. Standard mode cuts the row there: the sampled token at
the stop step is retained and carries the failure reward, nothing past the
stop is recorded or counted, and simultaneous natural termination wins over
the stop rule. Counterfactual-extend mode keeps the row to its natural end,
so the prefix up to the stop is bit-identical to what standard mode would
have produced under the same seeds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .mdpcore import (
    EVAL_STREAM,
    SEED_ROWS,
    TRAIN_STREAM,
    keyed_seeds,
    keyed_uniforms,
    log_softmax,
    seeded_uniforms,
)
from .policy import TabularActor, TabularCritic
from .stopper import StopperSnapshot
from .variants import COUNTERFACTUAL, STANDARD

__all__ = [
    "CachedPolicy",
    "RolloutBatch",
    "STOP_REASONS",
    "collect_batch",
    "evaluate_policy",
    "false_positive_rate",
]


def moved_rows(logits: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """The rows of `logits` that differ bit for bit from `previous`'s (a
    -0.0 that became +0.0 counts), as row indices."""
    return np.flatnonzero((logits.view(np.int64) != previous.view(np.int64)).any(axis=1))


class CachedPolicy:
    """Frozen per-batch view of the actor/critic over all enumerable states.

    The actor is immutable during collection, so the per-state log-softmax,
    probabilities, cumulative sampling table, step regret of every token
    and entropy are computed once per batch, as arrays that whole columns
    of a batch index at once. A row of each depends on its state's logits
    alone, and numpy reduces a row the same way whatever rows sit beside it,
    so a cache built from `previous` (an earlier actor's) recomputes only the
    rows whose logits moved and copies the others; it never writes to
    `previous`. The critic's values are copied whole.
    """

    def __init__(self, actor: TabularActor, critic: TabularCritic,
                 previous: CachedPolicy | None = None):
        self.logits = actor.table.copy()
        self.values = critic.table.copy()
        self.vocab_size = actor.vocab_size
        moved = slice(None) if previous is None else moved_rows(self.logits, previous.logits)
        logits = self.logits[moved]
        table = log_softmax(logits, axis=-1)
        probs = np.exp(table)
        ent = -np.multiply(probs, table, out=np.zeros_like(probs), where=probs > 0.0).sum(axis=1)
        rows = {"log_probs": table, "probs": probs, "cum_probs": np.cumsum(probs, axis=1),
                "regrets": table.max(axis=1)[:, None] - table,  # g for every (state, token)
                "entropies": np.maximum(ent, 0.0)}
        for name, new in rows.items():
            full = new if previous is None else getattr(previous, name).copy()
            full[moved] = new
            setattr(self, name, full)

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
    """Fixed set of trajectories collected under one frozen stopper snapshot
    from the frozen CachedPolicy `policy`, stored as arrays.

    `pairs` (state * vocab + token) and `scores` (the smoothed score z after
    each step) are B x T, one row per trajectory and one column per step;
    entries at or past a row's length are zero. A step's log-prob, regret and
    value are its pair's and its state's entries in `policy`. Per row: the
    length, the stop code (an index into STOP_REASONS), the outcome reward,
    and the stop: the first step where the rule fired, -1 where it never
    did. A standard row that stopped ends there (length stop + 1); a
    counterfactual row runs on.
    """

    pairs: np.ndarray
    scores: np.ndarray
    lengths: np.ndarray
    stop_codes: np.ndarray
    outcomes: np.ndarray
    stops: np.ndarray
    snapshot: StopperSnapshot
    mode: str  # the collection mode collect_batch was given
    policy: CachedPolicy

    @property
    def states(self) -> np.ndarray:
        return self.pairs // self.policy.vocab_size

    @property
    def actions(self) -> np.ndarray:
        return self.pairs % self.policy.vocab_size

    @property
    def size(self) -> int:
        return len(self.lengths)

    @property
    def total_tokens(self) -> int:
        return int(self.lengths.sum())

    @property
    def effective_lengths(self) -> np.ndarray:
        """Length of each trained-on span: up to the stop, if any."""
        return np.where(self.stops >= 0, self.stops + 1, self.lengths)

    @property
    def trajectories(self) -> tuple:
        """The rows as plain values, built on each access: per row, its step
        tuples (state, action, log-prob, value, regret, normalized regret,
        score), stop code, outcome and stop. Two batches hold the same rows
        exactly when their views are equal."""
        pol, states = self.policy, self.states
        regrets = pol.regrets.take(self.pairs)
        columns = (states, self.actions, pol.log_probs.take(self.pairs), pol.values.take(states),
                   regrets, self.snapshot.normalize(regrets), self.scores)
        rows = zip(self.lengths.tolist(), self.stop_codes.tolist(), self.outcomes.tolist(),
                   self.stops.tolist())
        return tuple((tuple(zip(*(c[i, :n].tolist() for c in columns))), code, outcome, stop)
                     for i, (n, code, outcome, stop) in enumerate(rows))


def false_positive_rate(batch: RolloutBatch) -> float:
    """Share of trajectories whose criterion fired but whose full rollout
    still earned reward 1. Only defined for counterfactual-extend batches."""
    if batch.mode != COUNTERFACTUAL:
        raise ValueError("false_positive_rate requires a counterfactual-extend batch")
    hits = np.count_nonzero((batch.stops >= 0) & (batch.outcomes == 1.0))
    return int(hits) / batch.size


# Batches of fewer rows decode and fold each row on its own in Python; wider
# ones step whole columns in numpy (DECISIONS.md "Narrow batches decoded row
# by row").
ROW_PATH_ROWS = 16


def _guide(cum: np.ndarray) -> tuple:
    """A guide table over one state's cumulative row `cum` (DECISIONS.md
    "Absorbed rows finished in bulk"): M buckets, M the power of two of at
    least 4K; per bucket b the count of entries at or below (b / M) * total,
    a lower bound for every draw whose uniform falls in the bucket; the row
    with +inf appended, which stops every walk; and the total."""
    buckets = 1 << (4 * len(cum) - 1).bit_length()
    total = cum[-1]
    lower = np.searchsorted(cum, np.arange(buckets) / buckets * total, side="right")
    return buckets, lower, np.append(cum, np.inf), total


def _absorbed_tokens(guide: tuple, uniforms: np.ndarray) -> np.ndarray:
    """Tokens drawn by `uniforms` in an absorbing state, where no token ends
    the row or moves it, all at once: the counts CachedPolicy.sample takes,
    walked up from the `_guide` table's bound in each uniform's bucket."""
    buckets, lower, ext, total = guide
    keys = uniforms * total
    tokens = lower.take((uniforms * buckets).astype(np.int64))
    while True:
        step = ext.take(tokens) <= keys
        if not step.any():
            return tokens
        tokens += step


def _decode_lockstep(pol: CachedPolicy, env, uniforms: np.ndarray, pair_x: np.ndarray,
                     alpha: float, cuts: np.ndarray) -> tuple:
    """Every row decoded to its natural end or the horizon, one column of the
    batch at a time, and its smoothed scores: (pairs, lengths, ended, scores),
    the pairs as wide as the longest row. Column t of `uniforms` draws step
    t's tokens; z folds in pair_x[pair] up to the longest min(length, cut)."""
    batch_size, t_max = uniforms.shape
    vocab = pol.vocab_size
    next_state, terminal = env.next_state.ravel(), env.terminal.ravel()
    # Every row steps every column; a row that has ended is parked on the
    # initial state, and what it records past its length is cleared by the
    # caller. Once every row not yet ended sits in an absorbing state, the
    # rest of the batch, columns `start` onwards, goes at once.
    pairs = np.zeros((batch_size, t_max), dtype=np.int64)  # state * vocab + action
    lengths = np.full(batch_size, t_max)
    ended = np.zeros(batch_size, dtype=bool)  # naturally, at column lengths - 1
    absorbing = env.absorbing
    start = t_max
    state = np.full(batch_size, env.initial_state)
    for t in range(t_max):
        if (absorbing.take(state) | ended).all():
            start = t
            break
        pair = state * vocab + pol.sample(state, uniforms[:, t])
        pairs[:, t] = pair
        ends = terminal.take(pair) & ~ended
        if np.count_nonzero(ends):
            lengths[ends] = t + 1
            ended |= ends
        state = next_state.take(pair)
        state[ended] = env.initial_state
    live = np.flatnonzero(~ended)
    if start < t_max and live.size:
        s, u = state[live], uniforms[live, start:]
        tokens = np.empty(u.shape, dtype=np.int64)
        for absorbed in sorted(set(s.tolist())):  # np.unique would import numpy.ma
            rows = s == absorbed
            tokens[rows] = _absorbed_tokens(_guide(pol.cum_probs[absorbed]), u[rows])
        pairs[live, start:] = s[:, None] * vocab + tokens

    # The smoothed score of every decoded column, one column at a time: each
    # row gets the per-token loop's two roundings per step, in its order,
    # z = alpha * z + x, folded in place over the contiguous columns of x.
    width = int(lengths.max())
    pairs = pairs[:, :width]
    columns = pair_x.take(pairs[:, :int(np.minimum(lengths, cuts).max(initial=0))].T)  # x, then z
    z, scaled, alpha = np.zeros(batch_size), np.empty(batch_size), np.array(alpha)
    for column in columns:
        np.add(np.multiply(z, alpha, out=scaled), column, out=column)
        z = column
    return pairs, lengths, ended, columns.T


def _decode_rows(pol: CachedPolicy, env, uniforms: np.ndarray, pair_x: np.ndarray,
                 alpha: float, cuts: np.ndarray) -> tuple:
    """_decode_lockstep's result, one row at a time. A row steps in Python
    until it ends or enters an absorbing state, bisecting its state's
    cumulative list as CachedPolicy.sample counts; its absorbed tail goes at
    once, through the state's guide table (built once per batch). Its z is
    then folded in Python floats up to its length or its cut, the same two
    roundings per step, and the row is written out before the next one
    starts, so Python floats never hold more than one row. Pairs past a
    natural end, and scores past the fold, stay 0."""
    batch_size, t_max = uniforms.shape
    vocab = pol.vocab_size
    pairs = np.zeros((batch_size, t_max), dtype=np.int64)
    scores = np.zeros((batch_size, t_max))
    lengths = np.full(batch_size, t_max)
    ended = np.zeros(batch_size, dtype=bool)
    moves = {}  # per visited state: cumulative list, successors, terminal flags, and
    # the _guide table of an absorbing one (None for the others)
    for i in range(batch_size):
        u = uniforms[i]
        state, row = env.initial_state, []
        for t in range(t_max):
            if state not in moves:
                moves[state] = (pol.cum_probs[state].tolist(), env.next_state[state].tolist(),
                                env.terminal[state].tolist(),
                                _guide(pol.cum_probs[state]) if env.absorbing[state] else None)
            cum, successors, terminal, guide = moves[state]
            if guide is not None:
                pairs[i, t:] = state * vocab + _absorbed_tokens(guide, u[t:])
                break
            token = bisect_right(cum, u.item(t) * cum[-1])
            row.append(state * vocab + token)
            if terminal[token]:
                lengths[i], ended[i] = t + 1, True
                break
            state = successors[token]
        pairs[i, :len(row)] = row
        n = min(lengths[i], cuts[i])
        z = 0.0
        scores[i, :n] = [z := alpha * z + x for x in pair_x.take(pairs[i, :n]).tolist()]
    width = int(lengths.max())
    return pairs[:, :width], lengths, ended, scores[:, :width]


def collect_batch(actor: TabularActor, critic: TabularCritic,
                  snapshot: StopperSnapshot, env, batch_size: int, t_max: int,
                  mode: str, r_fail: float,
                  master_seed: int, batch_index: int,
                  cache: CachedPolicy | None = None) -> RolloutBatch:
    """Collect batch_size trajectories under one frozen snapshot.

    Each trajectory owns the stream keyed by (batch_index, its index), so the
    batch contents do not depend on collection order or worker scheduling.
    Trajectory i draws all its uniforms up front: one per step, or two under
    the random_stop rule (2t samples step t's token, 2t+1 is its stop test).
    A batch of ROW_PATH_ROWS rows or more then advances in lockstep, one
    column per step, over the policy cache, the environment tables and the
    snapshot's regret and threshold tables; a narrower one decodes row by
    row. Both give the same bytes.

    Every row first decodes its tokens to its natural end or the horizon.
    Then the smoothed score z is folded from the normalized regrets of the
    decoded columns (a standard random_stop row's up to its first fire, as
    its uniforms decide), and one test over the batch finds each row's
    first step where the snapshot's rule fires (the random_stop rule at the
    snapshot's random_stop_rate, ignoring warmup; the ppo rule never). A
    natural end at the same step wins over the stop rule. `mode` is
    STANDARD or COUNTERFACTUAL. In standard mode the token at the stop step
    is kept and carries r_fail (0.0 under the no-penalty ablation), and
    nothing past a stop is recorded or counted. Counterfactual-extend mode
    keeps the row to its natural end. The batch records each step's pair and
    score and keeps the policy cache it was drawn from (`cache`, or one built
    from the actor and critic), which holds every other per-step value.
    """
    pol = cache if cache is not None else CachedPolicy(actor, critic)
    random_rule = snapshot.rule == "random_stop"
    draws_per_step = 2 if random_rule else 1
    uniforms = keyed_uniforms(master_seed, (TRAIN_STREAM, batch_index), 0, batch_size,
                              draws_per_step * t_max)
    vocab = pol.vocab_size
    alpha = snapshot.alpha_s
    # the smoothed score is z = alpha * z + x
    pair_x = (1.0 - alpha) * snapshot.normalize(pol.regrets).ravel()
    fires = uniforms[:, 1::2] < snapshot.random_stop_rate if random_rule else None
    cuts = np.full(batch_size, t_max)  # the columns of z that each row needs
    if random_rule and mode == STANDARD:  # z past the first fire would be cleared unread
        cuts = np.where(fires.any(axis=1), fires.argmax(axis=1) + 1, t_max)
    decode = _decode_rows if batch_size < ROW_PATH_ROWS else _decode_lockstep
    pairs, lengths, ended, scores = decode(pol, env, uniforms[:, ::draws_per_step], pair_x,
                                           alpha, cuts)
    width = pairs.shape[1]

    # Decide every stop at once. A row's tokens come from its own uniforms
    # alone, so its record up to a stop is what stopping there would have
    # produced. The rule may fire before the natural end, never at it.
    stop_codes = np.where(ended, NATURAL_END, HORIZON_CAP).astype(np.int8)
    last = pairs[np.arange(batch_size), lengths - 1]
    outcomes = np.where(ended, env.reward.ravel().take(last), 0.0)
    if random_rule:
        fires = fires[:, :width]
    else:
        fires = scores > np.repeat(snapshot.stop_thresholds(pol.values), vocab).take(pairs)
    fires &= np.arange(width) < (lengths - ended)[:, None]
    stops = np.where(fires.any(axis=1), fires.argmax(axis=1), -1)
    if mode == STANDARD:
        fired = stops >= 0
        lengths[fired] = stops[fired] + 1
        stop_codes[fired] = EARLY_STOP
        outcomes[fired] = r_fail

    width = int(lengths.max())
    pairs, scores = pairs[:, :width], scores[:, :width]
    past_end = np.arange(width) >= lengths[:, None]
    pairs[past_end] = 0
    scores[past_end] = 0.0
    return RolloutBatch(pairs=pairs, scores=scores, lengths=lengths, stop_codes=stop_codes,
                        outcomes=outcomes, stops=stops, snapshot=snapshot, mode=mode, policy=pol)


EVAL_CHUNK = 64  # sampled episodes advanced in lockstep at a time; divides SEED_ROWS


def evaluate_policy(policy: CachedPolicy, env, t_max: int, episodes: int,
                    seed: int, eval_tag: int = 0) -> tuple[float, float]:
    """(greedy, sampled) success rates over fresh episodes with no stopping
    machinery.

    Greedy picks the argmax token. The env and the argmax are deterministic,
    so every greedy episode is the same one: it runs once and scores for all.
    Sampled episodes draw from the policy with per-episode streams keyed by
    (eval_tag, episode), seeded up to SEED_ROWS episodes at once, and advance
    in lockstep chunks. Success means terminal reward 1. An episode that
    enters an absorbing state can never reach a terminal, so it is dropped
    there as a failure.
    """
    vocab = policy.vocab_size
    next_state, terminal = env.next_state.ravel(), env.terminal.ravel()
    success = env.reward.ravel() == 1.0
    absorbing = env.absorbing
    greedy = 0.0
    state = env.initial_state
    for _ in range(t_max):
        if absorbing[state]:
            break
        # from the logits: rounding in the log-softmax can tie distinct logits
        pair = state * vocab + int(policy.logits[state].argmax())
        if terminal[pair]:
            greedy = 1.0 if success[pair] else 0.0
            break
        state = int(next_state[pair])
    successes = 0
    for first in range(0, episodes, EVAL_CHUNK):
        if first % SEED_ROWS == 0:  # seed the next SEED_ROWS episodes' streams at once
            seeds = keyed_seeds(seed, (EVAL_STREAM, eval_tag), first,
                                min(SEED_ROWS, episodes - first))
        count = min(EVAL_CHUNK, episodes - first)
        at = first % SEED_ROWS
        uniforms = seeded_uniforms(seeds[:, at:at + count], t_max)
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
    return greedy, successes / episodes
