"""PPO training over collected batches.

TD errors with absorbing-state handling, GAE, the clipped surrogate gradient,
critic regression, and the loop that sequences warmup -> anneal -> controller.

Every trajectory ends in a terminal event (natural end, horizon cap, or early
stop) and none of them bootstraps past the final step. A trajectory whose
rule fired trains as if truncated at its stop: in counterfactual mode the
tail past the stop is excluded from gradients, statistics, and rate
accounting, and the stop step carries the early-stop reward in either mode.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, RunConfig, experiment_hash, require_valid
from .envs import build_environment, env_spec_from_config
from .mdpcore import log_softmax
from .metrics import MetricsRow, replacing
from .policy import TabularActor, TabularCritic, load_params, save_params
from .rollout import (
    STOP_REASONS,
    CachedPolicy,
    RolloutBatch,
    collect_batch,
    evaluate_policy,
    false_positive_rate,
)
from .stopper import StopperState
from .variants import COUNTERFACTUAL, VariantPlan, variant_dispatch

logger = logging.getLogger(__name__)

__all__ = [
    "AdvantageSet",
    "TrainingRun",
    "compute_advantages",
    "critic_grad",
    "critic_loss",
    "gae",
    "ppo_surrogate_grad",
]

# The files a run appends to, each with the header a new file starts with; a
# fresh run removes them first (harness.run_experiment)
SIDE_FILES = {
    "eval.csv": "step,greedy_success,sampled_success,episodes\n",
    "stop_events.tsv": "step\ttrajectory\tstop_step\tvalue_estimate\tz\n",
    "trajectories.tsv": "",
}


@dataclass(frozen=True, eq=False)
class AdvantageSet:
    """The trained-on steps of a batch, those before each row's effective
    (possibly simulated-truncated) length, as flat arrays in step order (row
    by row): each step's state and (state, token) pair, its GAE advantage,
    regression return and TD error; and `plan`, the _SurrogatePlan that every
    ppo_surrogate_grad epoch over the batch reads. Built by `of_batch`."""

    states: np.ndarray
    pairs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray
    td_errors: np.ndarray
    plan: _SurrogatePlan

    @classmethod
    def of_batch(cls, batch: RolloutBatch, advantages: np.ndarray, returns: np.ndarray,
                 td_errors: np.ndarray) -> AdvantageSet:
        """The set of `batch`'s trained-on steps with these step-order values."""
        trained = np.arange(batch.pairs.shape[1]) < batch.effective_lengths[:, None]
        pairs = batch.pairs[trained]
        states = pairs // batch.policy.vocab_size
        plan = _SurrogatePlan(states, pairs, *batch.policy.log_probs.shape)
        return cls(states, pairs, advantages, returns, td_errors, plan)


def gae(deltas, gamma: float, lam: float) -> np.ndarray:
    """Reverse recursion A_t = delta_t + gamma * lam * A_{t+1} along the last
    axis (one column at a time for a B x T array), from A = 0 past the end.

    With gamma * lam == 1 the recursion is a suffix sum: a reversed cumsum
    adds in the same order, and the trailing + 0.0 turns its -0.0 prefixes
    into the +0.0 the recursion gives (it starts from A = +0.0)."""
    deltas = np.asarray(deltas, dtype=np.float64)
    decay = gamma * lam
    if decay == 1.0:
        return np.cumsum(deltas[..., ::-1], axis=-1)[..., ::-1] + 0.0
    out = np.empty_like(deltas)
    acc = np.zeros(deltas.shape[:-1])
    for t in range(deltas.shape[-1] - 1, -1, -1):
        acc = deltas[..., t] + decay * acc
        out[..., t] = acc
    return out


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum from 0.0, as a Python loop adds: cumsum is
    sequential where np.sum is pairwise. The trailing + 0.0 turns a -0.0
    total into the loop's 0.0."""
    return float(np.cumsum(values)[-1]) + 0.0


def compute_advantages(batch: RolloutBatch, config: RunConfig,
                       early_stop_reward: float) -> AdvantageSet:
    """TD errors delta_t = r_t + gamma * V(s_{t+1}) - V(s_t) and their GAE
    over each trajectory's effective span, run over B x T arrays and kept as
    the AdvantageSet of the trained-on steps, with its _SurrogatePlan.

    Uses the critic values of the policy the batch was drawn from. Only the
    last step is rewarded: with the early-stop reward where the rule fired,
    else the outcome reward. The last step bootstraps from exactly 0.0 (every
    trajectory terminates), so an early-stop step satisfies
    delta = r_fail - V(s_stop) bit for bit.
    """
    lengths = batch.effective_lengths
    trained = np.arange(batch.pairs.shape[1]) < lengths[:, None]
    values = np.where(trained, batch.policy.values.take(batch.states), 0.0)
    rewards = np.zeros_like(values)
    rewards[np.arange(batch.size), lengths - 1] = np.where(
        batch.stops >= 0, early_stop_reward, batch.outcomes)
    bootstrap = np.zeros_like(values)
    bootstrap[:, :-1] = values[:, 1:]
    deltas = rewards + config.gamma * bootstrap - values
    advantages = gae(deltas, config.gamma, config.lam)[trained]
    returns = advantages + values[trained]
    if config.advantage_whitening:
        flat = advantages.tolist()
        mean = math.fsum(flat) / len(flat)
        var = math.fsum((a - mean) ** 2 for a in flat) / len(flat)
        scale = 1.0 / max(math.sqrt(var), 1e-8)
        advantages = (advantages - mean) * scale
    return AdvantageSet.of_batch(batch, advantages, returns, deltas[trained])


SURROGATE_CHUNK = 8192  # gradient entries scattered per bincount call
LOG_RATIO_MAX = math.log(np.finfo(float).max)  # math.exp overflows above it
# With a vocabulary of ROW_SUM_VOCAB or more, a state with ROW_SUM_STEPS or
# more trained-on steps is summed row by row in blocks of at most ROW_SUM_BLOCK
# entries (measured crossover: DECISIONS.md "Heavy states summed row by row")
ROW_SUM_VOCAB = 32
ROW_SUM_STEPS = 256
ROW_SUM_BLOCK = 32768


def _row_sum(pi: np.ndarray, coeff: np.ndarray, at: np.ndarray, block: np.ndarray):
    """One state's gradient row from its steps, in step order, as a view of
    `block` row 0: each pass holds the running sums, then per step its -c * pi
    row and a row with +c at flat offset `at`, and np.add.reduce adds them in
    order. A sum that starts at +0.0 never becomes -0.0, so its +0.0 entries
    and the +0.0 that np.einsum may give a -0.0 product change no sum."""
    per_block = len(block) // 2
    flat = block.reshape(-1)
    block[0] = 0.0
    for first in range(0, len(coeff), per_block):
        c = coeff[first:first + per_block]
        rows = block[:2 * len(c) + 1]
        np.einsum("i,k->ik", -c, pi, out=rows[1::2])  # one product each, faster than outer
        tokens = at[first:first + per_block]
        flat[tokens] = c
        rows[0] = np.add.reduce(rows, axis=0)
        flat[tokens] = 0.0
    return block[0]


class _SurrogatePlan:
    """What every ppo_surrogate_grad epoch over one batch shares: the steps
    per (state, token) pair, the pairs `visited` and, with a vocabulary of
    ROW_SUM_VOCAB or more, each state of ROW_SUM_STEPS or more steps as
    (state, its steps, their +c offsets in a `block_shape` block). The other
    steps, `light` (all of them, as a slice, when no state is heavy), go
    through the scatter. No epoch writes to it."""

    def __init__(self, states: np.ndarray, pairs: np.ndarray, state_count: int, vocab: int):
        self.pair_counts = np.bincount(pairs, minlength=state_count * vocab)
        self.visited = np.flatnonzero(self.pair_counts)
        state_steps = np.bincount(states, minlength=state_count)
        row_summed = (state_steps >= ROW_SUM_STEPS) & (vocab >= ROW_SUM_VOCAB)
        per_block = min(max(1, (ROW_SUM_BLOCK // vocab - 1) // 2),
                        int(state_steps[row_summed].max(initial=0)))
        self.block_shape = (2 * per_block + 1, vocab)
        token_rows = np.arange(2, 2 * per_block + 2, 2) * vocab  # of one pass
        self.heavy = []
        for s in np.flatnonzero(row_summed).tolist():
            steps = np.flatnonzero(states == s)
            self.heavy.append((s, steps, np.resize(token_rows, len(steps)) + pairs[steps] % vocab))
        self.light = np.flatnonzero(~row_summed[states]) if row_summed.any() else slice(None)

    def ratios(self, table: np.ndarray, then: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        """Each step's importance ratio, its pair's exp(table - then), `then`
        being the collecting policy's log-probs: 1 while every log-ratio is
        +-0.0, then one math.exp (not np.exp: they differ in the last bit on
        some inputs) per visited pair."""
        log_ratios = table.ravel()[self.visited] - then.ravel()[self.visited]
        if not log_ratios.any():
            return np.ones(len(pairs))
        log_ratios[log_ratios > LOG_RATIO_MAX] = np.inf  # an overflowing ratio counts as +inf
        ratios = np.empty(table.size)
        ratios[self.visited] = list(map(math.exp, log_ratios.tolist()))
        return ratios[pairs]


def ppo_surrogate_grad(actor: TabularActor, batch: RolloutBatch,
                       advantage_sets: AdvantageSet,
                       config: RunConfig) -> tuple[np.ndarray, float]:
    """Exact gradient of the mean clipped surrogate, as a (state_count,
    vocab_size) array, plus the clip fraction.

    Steps on the clipped (constant) branch contribute zero gradient and count
    toward the clip fraction. A step's importance ratio is its pair's under
    the actor over its pair's under the policy the batch was drawn from.
    Non-finite ratios are excluded from both the mean and the gradient and
    reported via the module logger.

    A step in state s with token a and coefficient c = ratio * advantage adds
    -c * pi(k|s) to entry (s, k) for every k, then +c to (s, a): each cell
    takes its terms in step order, as a loop over the steps adds them; a
    clipped, zero or non-finite step adds its +-0.0 terms, which change no
    sum. Cells of different states are disjoint, so each state may take its
    own path, which the set's _SurrogatePlan holds for every epoch. A heavy
    state is summed by _row_sum, an in-order reduce of its rows. The others
    go through np.bincount, which adds its weights in input order: the
    entries go in as the steps come, each step's K terms before its token's,
    in chunks that each start from the running sums, bounding temporaries.
    """
    table = log_softmax(actor.table, axis=-1)
    probs = np.exp(table)
    state_count, vocab = table.shape
    lo, hi = 1.0 - config.clip_ratio, 1.0 + config.clip_ratio

    states, pairs, advs, plan = (advantage_sets.states, advantage_sets.pairs,
                                 advantage_sets.advantages, advantage_sets.plan)
    ratio = plan.ratios(table, batch.policy.log_probs, pairs)
    finite = np.isfinite(ratio)
    included = int(np.count_nonzero(finite))
    excluded = len(ratio) - included
    clipped = finite & (((advs > 0.0) & (ratio > hi)) | ((advs < 0.0) & (ratio < lo)))
    coeff = np.zeros(len(ratio))
    np.multiply(ratio, advs, out=coeff, where=finite & ~clipped)
    if excluded:
        logger.warning("ppo_surrogate_grad: excluded %d steps with non-finite ratios",
                       excluded)

    light_states, light_pairs, light_coeff = (a[plan.light] for a in (states, pairs, coeff))
    cells = state_count * vocab
    cell_index = np.arange(cells).reshape(state_count, vocab)
    grad = np.zeros(cells)
    per_chunk = max(1, SURROGATE_CHUNK // (vocab + 1))
    for first in range(0, len(light_coeff), per_chunk):
        s = light_states[first:first + per_chunk]
        c = light_coeff[first:first + per_chunk]
        n = len(c)
        index = np.empty(cells + n * (vocab + 1), dtype=np.intp)
        weight = np.empty(len(index))
        index[:cells] = cell_index.ravel()
        weight[:cells] = grad
        step_index = index[cells:].reshape(n, vocab + 1)
        step_weight = weight[cells:].reshape(n, vocab + 1)
        step_index[:, :vocab] = cell_index.take(s, axis=0)
        step_index[:, vocab] = light_pairs[first:first + per_chunk]
        np.multiply((-c)[:, None], probs.take(s, axis=0), out=step_weight[:, :vocab])
        step_weight[:, vocab] = c
        grad = np.bincount(index, weights=weight, minlength=cells)
    grad = grad.reshape(state_count, vocab)
    block = np.zeros(plan.block_shape)
    for s, steps, at in plan.heavy:
        grad[s] = _row_sum(probs[s], coeff[steps], at, block)
    if included:
        grad *= 1.0 / included
    clip_fraction = int(np.count_nonzero(clipped)) / included if included else 0.0
    return grad, clip_fraction


def critic_grad(critic: TabularCritic, batch: RolloutBatch,
                advantage_sets: AdvantageSet) -> np.ndarray:
    """Gradient of mean (V(s) - return)^2 over the trained-on steps, as a
    (state_count,) array. bincount adds in step order, as a loop would. The
    critic functions do not read `batch` (ROADMAP item 2 drops it)."""
    states = advantage_sets.states
    diffs = critic.table[states] - advantage_sets.returns
    grad = np.bincount(states, weights=2.0 * diffs, minlength=critic.state_count)
    grad *= 1.0 / len(diffs)
    return grad


def critic_loss(critic: TabularCritic, batch: RolloutBatch,
                advantage_sets: AdvantageSet) -> float:
    diffs = critic.table[advantage_sets.states] - advantage_sets.returns
    return _sequential_sum(diffs * diffs) / len(diffs)


def _file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TrainingRun:
    """One experiment: env + tables + stopper + step loop.

    Side outputs (checkpoints, eval.csv, stop_events.tsv, trajectories.tsv)
    are written under config.out_dir when it is set; the metrics stream is
    yielded to the caller, which owns metrics.csv and the manifest.
    """

    def __init__(self, config: RunConfig):
        require_valid(config)
        self.config = config
        self.plan: VariantPlan = variant_dispatch(config)
        self.env = build_environment(env_spec_from_config(config), config.state_budget)
        self.actor = TabularActor(self.env.state_count, config.vocab_size,
                                  config.actor_init_scale, config.seed)
        self.critic = TabularCritic(self.env.state_count)
        self.stopper = StopperState(config, self.plan)
        self.step_index = 0
        self.cumulative_tokens = 0
        self.last_batch = None  # most recent RolloutBatch; test/debug hook
        self._eval_row = (None, "")  # (step, line) of the last eval.csv row written

    @property
    def ppo(self) -> RunConfig:
        """The run config. perfbench's micro benchmarks pass it to
        compute_advantages and ppo_surrogate_grad; it stays until they read
        `config` (ROADMAP item 2)."""
        return self.config

    # -- per-step machinery -------------------------------------------------

    def step(self) -> MetricsRow:
        cfg = self.config
        plan = self.plan
        self.step_index += 1
        step = self.step_index

        snapshot = self.stopper.snapshot(step)
        cache = CachedPolicy(self.actor, self.critic)
        batch = collect_batch(self.actor, self.critic, snapshot, self.env,
                              cfg.batch_size, cfg.t_max, plan.mode,
                              plan.early_stop_reward, cfg.seed, step, cache=cache)

        self.last_batch = batch
        advantage_sets = compute_advantages(batch, cfg, plan.early_stop_reward)

        clip_fraction = 0.0
        for _ in range(cfg.epochs_per_batch):
            grad, clip_fraction = ppo_surrogate_grad(self.actor, batch, advantage_sets, cfg)
            self.actor.apply_gradient(grad, cfg.lr_actor)
        loss = critic_loss(self.critic, batch, advantage_sets)
        cgrad = critic_grad(self.critic, batch, advantage_sets)
        self.critic.apply_gradient(cgrad, cfg.lr_critic)

        # batch statistics over the trained-on steps, at least one in each row
        states = advantage_sets.states
        mean_entropy = _sequential_sum(cache.entropies[states]) / states.size  # per step

        stop_rate = int(np.count_nonzero(batch.stops >= 0)) / batch.size  # in either mode
        fp_rate = false_positive_rate(batch) if plan.mode == COUNTERFACTUAL else 0.0
        success_rate = int(np.count_nonzero(batch.outcomes == 1.0)) / batch.size
        self.cumulative_tokens += batch.total_tokens

        if plan.stopping:  # the regrets as a multiset: each visited pair's, with its count
            ids, counts = advantage_sets.plan.visited, advantage_sets.plan.pair_counts
            self.stopper.end_of_batch(cache.regrets.take(ids), counts[ids], stop_rate, loss, step)

        row = MetricsRow(
            step=step,
            cumulative_tokens=self.cumulative_tokens,
            avg_trajectory_length_actual=int(batch.effective_lengths.sum()) / batch.size,
            avg_trajectory_length_original=batch.total_tokens / batch.size,
            stop_rate=stop_rate,
            false_positive_rate=fp_rate,
            mean_entropy=mean_entropy,
            success_rate=success_rate,
            beta=snapshot.beta,
            mu_g=snapshot.frozen_mu,
            sigma2_g=snapshot.frozen_var,
            critic_loss=loss,
            clip_fraction=clip_fraction,
            warmup_active=snapshot.warmup_active,
        )
        self._side_outputs(batch, row)
        return row

    # -- side outputs ---------------------------------------------------------

    @contextlib.contextmanager
    def _appending(self, name: str):
        """Side file `name` in out_dir, open to append; a new file gets its
        SIDE_FILES header first."""
        path = os.path.join(self.config.out_dir, name)
        fresh = not os.path.exists(path)
        with open(path, "a", encoding="utf-8") as fh:
            if fresh:
                fh.write(SIDE_FILES[name])
            yield fh

    def _side_outputs(self, batch: RolloutBatch, row: MetricsRow) -> None:
        cfg = self.config
        if cfg.record_stop_events and cfg.out_dir:
            with self._appending("stop_events.tsv") as fh:
                for ti in np.flatnonzero(batch.stops >= 0).tolist():
                    idx = int(batch.stops[ti])
                    state = batch.pairs[ti, idx] // batch.policy.vocab_size
                    value, z = batch.policy.values[state].item(), batch.scores[ti, idx].item()
                    fh.write(f"{row.step}\t{ti}\t{idx}\t{value!r}\t{z!r}\n")
        if cfg.dump_trajectories and cfg.out_dir:
            # one line per step: index, state, token, regret, normalized
            # regret, z, value, and 1 at the stop step
            with self._appending("trajectories.tsv") as fh:
                for ti, (steps, code, _outcome, stop) in enumerate(batch.trajectories):
                    fh.write(f"# step {row.step} trajectory {ti} reason {STOP_REASONS[code]}\n")
                    for t, (s, a, _log_prob, v, g, gn, z) in enumerate(steps):
                        fh.write(f"{t}\t{s}\t{a}\t{g!r}\t{gn!r}\t{z!r}\t{v!r}\t{int(t == stop)}\n")
        if cfg.eval_every and row.step % cfg.eval_every == 0 and cfg.out_dir:
            self._write_eval(row.step)
        if cfg.checkpoint_every and row.step % cfg.checkpoint_every == 0 and cfg.out_dir:
            self.save_checkpoint(os.path.join(cfg.out_dir, "checkpoints",
                                              f"step_{row.step:06d}"))

    def _write_eval(self, step: int) -> None:
        cfg = self.config
        if self._eval_row[0] != step:  # run() repeats the last step's row as it is
            policy = CachedPolicy(self.actor, self.critic)
            greedy = evaluate_policy(policy, self.env, cfg.t_max, cfg.eval_episodes,
                                     cfg.seed, step, greedy=True)
            sampled = evaluate_policy(policy, self.env, cfg.t_max, cfg.eval_episodes,
                                      cfg.seed, step, greedy=False)
            self._eval_row = (step, f"{step},{greedy!r},{sampled!r},{cfg.eval_episodes}\n")
        with self._appending("eval.csv") as fh:
            fh.write(self._eval_row[1])

    # -- run/checkpoint lifecycle -------------------------------------------

    def run(self):
        """Yield one MetricsRow per remaining training step; write the final
        checkpoint and evaluation when out_dir is set."""
        while self.step_index < self.config.total_steps:
            yield self.step()
        if self.config.out_dir:
            self._write_eval(self.step_index)
            self.save_checkpoint(os.path.join(self.config.out_dir, "checkpoints", "final"))

    def save_checkpoint(self, directory) -> str:
        """Write params.txt, then state.json with params.txt's sha256, each
        replaced whole: a failure between the two leaves a state.json whose
        digest no longer matches, which resume rejects."""
        os.makedirs(directory, exist_ok=True)
        params = os.path.join(directory, "params.txt")
        save_params(self.actor, self.critic, params)
        state = {
            "params_sha256": _file_sha256(params),
            "step": self.step_index,
            "cumulative_tokens": self.cumulative_tokens,
            "experiment_hash": experiment_hash(self.config),
            "stopper": self.stopper.state_dict(),
            "random_correction": self.stopper.random_correction,
        }
        with replacing(os.path.join(directory, "state.json")) as fh:
            json.dump(state, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return directory

    @classmethod
    def resume(cls, config: RunConfig, checkpoint_dir) -> "TrainingRun":
        run = cls(config)
        with open(os.path.join(checkpoint_dir, "state.json"), encoding="utf-8") as fh:
            state = json.load(fh)
        if state["experiment_hash"] != experiment_hash(config):
            raise ConfigError("checkpoint was produced by a different config")
        params = os.path.join(checkpoint_dir, "params.txt")
        if state.get("params_sha256") != _file_sha256(params):
            raise ConfigError(f"{params} is not the parameter file its state.json was saved with")
        actor, critic = load_params(params)
        if actor.table.shape != run.actor.table.shape:
            raise ConfigError("checkpoint parameter shapes do not match the config")
        run.actor, run.critic = actor, critic
        run.stopper.load_state_dict(state["stopper"])
        run.step_index = state["step"]
        run.cumulative_tokens = state["cumulative_tokens"]
        run.stopper.random_correction = state["random_correction"]
        return run
