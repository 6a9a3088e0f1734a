"""PPO training over collected batches.

TD errors with absorbing-state handling, GAE, the clipped surrogate gradient,
critic regression, and the loop that sequences warmup -> anneal -> controller.

Every trajectory ends in a terminal event (natural end, horizon cap, or early
stop) and none of them bootstraps past the final step. Counterfactual-mode
trajectories whose criterion fired train as if truncated there: the masked
tail is excluded from gradients, statistics, and rate accounting, and the
simulated stop step carries the early-stop reward.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    experiment_hash,
    parse_target_sequence,
    require_valid,
)
from .envs import RecoverableBranchSpec, TrapChainSpec, build_environment
from .mdpcore import log_softmax
from .metrics import MetricsRow
from .policy import TabularActor, TabularCritic, load_params, save_params
from .rollout import (
    COUNTERFACTUAL,
    DISABLED,
    RANDOM,
    CachedPolicy,
    CollectionMode,
    RolloutBatch,
    collect_batch,
    dump_trajectory,
    evaluate_policy,
    false_positive_rate,
    token_accounting,
)
from .stopper import (
    BetaController,
    EmaStats,
    StopperSnapshot,
    StopperState,
    WarmupGate,
)
from .variants import VariantPlan, variant_dispatch

logger = logging.getLogger(__name__)

__all__ = [
    "AdvantageSet",
    "PpoConfig",
    "TrainingRun",
    "compute_advantages",
    "critic_grad",
    "critic_loss",
    "env_spec_from_config",
    "gae",
    "ppo_surrogate_grad",
]


@dataclass(frozen=True, slots=True)
class PpoConfig:
    clip_ratio: float = 0.2
    gamma: float = 1.0
    lam: float = 1.0
    epochs_per_batch: int = 1
    lr_actor: float = 0.05
    lr_critic: float = 0.1
    advantage_whitening: bool = False

    def __post_init__(self):
        if not 0.0 < self.clip_ratio < 1.0:
            raise ValueError("clip_ratio must lie in (0, 1)")
        if not 0.0 < self.gamma <= 1.0 or not 0.0 < self.lam <= 1.0:
            raise ValueError("gamma and lam must lie in (0, 1]")


@dataclass(frozen=True, slots=True)
class AdvantageSet:
    """Per-step GAE advantages, regression returns, and TD errors for the
    effective (possibly simulated-truncated) span of one trajectory."""

    advantages: tuple[float, ...]
    returns: tuple[float, ...]
    td_errors: tuple[float, ...]


def _td_from_lists(rewards, values, gamma: float) -> list[float]:
    """delta_t = r_t + gamma * V(s_{t+1}) - V(s_t).

    Uses the critic values recorded at collection time; the final step (every
    trajectory terminates) bootstraps from exactly 0.0, so an early-stop step
    satisfies delta = r_fail - V(s_stop) bit for bit.
    """
    horizon = len(rewards)
    out = []
    for t in range(horizon):
        bootstrap = values[t + 1] if t + 1 < horizon else 0.0
        out.append(rewards[t] + gamma * bootstrap - values[t])
    return out


def gae(deltas, gamma: float, lam: float) -> list[float]:
    """Reverse recursion A_t = delta_t + gamma * lam * A_{t+1}."""
    decay = gamma * lam
    out = [0.0] * len(deltas)
    acc = 0.0
    for t in range(len(deltas) - 1, -1, -1):
        acc = deltas[t] + decay * acc
        out[t] = acc
    return out


def _effective_rewards(traj, early_stop_reward: float) -> tuple[int, list[float]]:
    """Length and per-step rewards of the training view of a trajectory: 0.0
    at every step but the last, which carries the outcome reward, or the
    early-stop reward at a hypothetical stop."""
    eff = traj.effective_length
    rewards = [0.0] * eff
    rewards[-1] = (early_stop_reward if traj.hypothetical_stop_index is not None
                   else traj.outcome_reward)
    return eff, rewards


def compute_advantages(batch: RolloutBatch, config: PpoConfig,
                       early_stop_reward: float) -> list[AdvantageSet]:
    out = []
    for traj in batch.trajectories:
        eff, rewards = _effective_rewards(traj, early_stop_reward)
        values = [traj.steps[i].value_estimate for i in range(eff)]
        deltas = _td_from_lists(rewards, values, config.gamma)
        advs = gae(deltas, config.gamma, config.lam)
        rets = [advs[i] + values[i] for i in range(eff)]
        out.append(AdvantageSet(tuple(advs), tuple(rets), tuple(deltas)))
    if config.advantage_whitening:
        flat = [a for s in out for a in s.advantages]
        if flat:
            mean = math.fsum(flat) / len(flat)
            var = math.fsum((a - mean) ** 2 for a in flat) / len(flat)
            scale = 1.0 / max(math.sqrt(var), 1e-8)
            out = [
                AdvantageSet(tuple((a - mean) * scale for a in s.advantages),
                             s.returns, s.td_errors)
                for s in out
            ]
    return out


def ppo_surrogate_grad(actor: TabularActor, batch: RolloutBatch, advantage_sets,
                       config: PpoConfig) -> tuple[np.ndarray, float]:
    """Exact gradient of the mean clipped surrogate, as a (state_count,
    vocab_size) array, plus the clip fraction.

    Steps on the clipped (constant) branch contribute zero gradient and count
    toward the clip fraction. Non-finite importance ratios are excluded from
    both the mean and the gradient and reported via the module logger.
    """
    table = log_softmax(actor.table, axis=-1)
    lp_list = [row.tolist() for row in table]
    prob_list = [row.tolist() for row in np.exp(table)]
    vocab = actor.vocab_size
    lo, hi = 1.0 - config.clip_ratio, 1.0 + config.clip_ratio

    dense: dict[int, list[float]] = {}
    included = 0
    clipped_steps = 0
    excluded = 0
    for ti, traj in enumerate(batch.trajectories):
        advs = advantage_sets[ti].advantages
        steps = traj.steps
        for i in range(len(advs)):
            rec = steps[i]
            state, action = rec.state_id, rec.action
            ratio = math.exp(lp_list[state][action] - rec.log_prob_sampled)
            if not math.isfinite(ratio):
                excluded += 1
                continue
            included += 1
            adv = advs[i]
            if (adv > 0.0 and ratio > hi) or (adv < 0.0 and ratio < lo):
                clipped_steps += 1
                continue
            coeff = ratio * adv
            if coeff == 0.0:
                continue
            row = dense.get(state)
            if row is None:
                row = dense[state] = [0.0] * vocab
            probs = prob_list[state]
            for k in range(vocab):
                row[k] -= coeff * probs[k]
            row[action] += coeff
    if excluded:
        logger.warning("ppo_surrogate_grad: excluded %d steps with non-finite ratios",
                       excluded)
    grad = np.zeros_like(table)
    if included:
        for state, row in dense.items():
            grad[state] = row
        grad *= 1.0 / included
    clip_fraction = clipped_steps / included if included else 0.0
    return grad, clip_fraction


def _critic_terms(critic: TabularCritic, batch: RolloutBatch, advantage_sets):
    values = critic.table.tolist()
    for ti, traj in enumerate(batch.trajectories):
        rets = advantage_sets[ti].returns
        steps = traj.steps
        for i in range(len(rets)):
            state = steps[i].state_id
            yield state, values[state] - rets[i]


def critic_grad(critic: TabularCritic, batch: RolloutBatch, advantage_sets) -> np.ndarray:
    """Gradient of mean (V(s) - return)^2 over unmasked steps, as a
    (state_count,) array."""
    acc = [0.0] * critic.state_count
    count = 0
    for state, diff in _critic_terms(critic, batch, advantage_sets):
        acc[state] += 2.0 * diff
        count += 1
    grad = np.array(acc)
    if count:
        grad *= 1.0 / count
    return grad


def critic_loss(critic: TabularCritic, batch: RolloutBatch, advantage_sets) -> float:
    total = 0.0
    count = 0
    for _state, diff in _critic_terms(critic, batch, advantage_sets):
        total += diff * diff
        count += 1
    return total / count if count else 0.0


def env_spec_from_config(cfg: RunConfig):
    if cfg.env == "trap_chain":
        return TrapChainSpec(cfg.vocab_size, cfg.target_length,
                             parse_target_sequence(cfg), cfg.doom_padding)
    return RecoverableBranchSpec(cfg.vocab_size, cfg.target_length, cfg.repair_window)


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
        self.ppo = PpoConfig(
            clip_ratio=config.clip_ratio, gamma=config.gamma, lam=config.lam,
            epochs_per_batch=config.epochs_per_batch, lr_actor=config.lr_actor,
            lr_critic=config.lr_critic, advantage_whitening=config.advantage_whitening)
        self.stopper = StopperState(
            stats=EmaStats(stabilizer=config.stabilizer, clip_bound=config.clip_bound,
                           alpha_ema=config.alpha_ema),
            controller=BetaController(beta=config.beta_init, eta_beta=config.eta_beta,
                                      target_rate=config.target_stop_rate,
                                      beta_min=config.beta_min, beta_max=config.beta_max),
            gate=WarmupGate(active=self.plan.warmup_enabled,
                            abs_threshold=config.warmup_abs_threshold,
                            delta_threshold=config.warmup_delta_threshold,
                            required_consecutive=config.warmup_consecutive,
                            step_cap_fraction=config.warmup_step_cap_fraction),
            value_floor=config.value_floor,
            alpha_s=config.alpha_s,
            rule=self.plan.rule,
            rule_threshold=self.plan.rule_threshold,
            anneal_horizon=0,
            beta_updates_enabled=self.plan.beta_updates_enabled,
        )
        if not self.plan.warmup_enabled:
            # no warmup: annealing spans the configured fraction of all steps
            self.stopper.anneal_horizon = math.ceil(
                config.anneal_fraction * config.total_steps)
        self._inert_snapshot = StopperSnapshot(
            stabilizer=config.stabilizer, clip_bound=config.clip_bound,
            alpha_s=config.alpha_s, beta=config.beta_init,
            value_floor=config.value_floor, warmup_active=False)
        self.step_index = 0
        self.cumulative_tokens = 0
        self._random_correction = 0.0
        self.last_batch = None  # most recent RolloutBatch; test/debug hook

    # -- per-step machinery -------------------------------------------------

    def _random_hazard(self) -> float:
        plan = self.plan
        if plan.random_trace is not None:
            idx = min(self.step_index - 1, len(plan.random_trace) - 1)
            target = plan.random_trace[idx]
            base = 1.0 - (1.0 - min(target, 1.0)) ** (1.0 / self.config.t_max)
            hazard = base + self._random_correction
            return min(max(hazard, 0.0), 1.0)
        return plan.random_fixed_rate or 0.0

    def _collection_mode(self) -> CollectionMode:
        kind = self.plan.mode_kind
        if kind == RANDOM:
            return CollectionMode.random_stop(self._random_hazard())
        return CollectionMode(kind)

    def step(self) -> MetricsRow:
        cfg = self.config
        plan = self.plan
        self.step_index += 1
        step = self.step_index

        stopping = plan.mode_kind != DISABLED
        snapshot = self.stopper.snapshot() if stopping else self._inert_snapshot
        mode = self._collection_mode()
        cache = CachedPolicy(self.actor, self.critic)
        batch = collect_batch(self.actor, self.critic, snapshot, self.env,
                              cfg.batch_size, cfg.t_max, mode,
                              plan.early_stop_reward, cfg.seed, step, cache=cache)

        self.last_batch = batch
        advantage_sets = compute_advantages(batch, self.ppo, plan.early_stop_reward)

        clip_fraction = 0.0
        for _ in range(self.ppo.epochs_per_batch):
            grad, clip_fraction = ppo_surrogate_grad(
                self.actor, batch, advantage_sets, self.ppo)
            self.actor.apply_gradient(grad, self.ppo.lr_actor)
        loss = critic_loss(self.critic, batch, advantage_sets)
        cgrad = critic_grad(self.critic, batch, advantage_sets)
        self.critic.apply_gradient(cgrad, self.ppo.lr_critic)

        # batch statistics over the effective (trained-on) spans
        regrets: list[float] = []
        entropy_sum = 0.0
        for traj in batch.trajectories:
            eff = traj.effective_length
            steps = traj.steps
            for i in range(eff):
                rec = steps[i]
                regrets.append(rec.regret_raw)
                entropy_sum += cache.entropies[rec.state_id]
        mean_entropy = entropy_sum / len(regrets) if regrets else 0.0  # per trained-on step

        if mode.kind == COUNTERFACTUAL:
            stop_events = batch.hypothetical_stop_count
        else:
            stop_events = batch.stop_count
        stop_rate = stop_events / batch.size if batch.size else 0.0

        fp_rate = false_positive_rate(batch) if mode.kind == COUNTERFACTUAL else 0.0
        lengths = token_accounting(batch)

        success = sum(1 for t in batch.trajectories if t.outcome_reward == 1.0)
        success_rate = success / batch.size if batch.size else 0.0
        self.cumulative_tokens += batch.total_tokens

        if stopping:
            released_before = not self.stopper.gate.active
            self.stopper.end_of_batch(regrets, stop_rate, loss, step, cfg.total_steps)
            if not self.stopper.gate.active and not released_before:
                remaining = max(0, cfg.total_steps - step)
                self.stopper.anneal_horizon = math.ceil(cfg.anneal_fraction * remaining)
            if plan.random_trace is not None:
                idx = min(step - 1, len(plan.random_trace) - 1)
                gain = cfg.eta_beta / cfg.t_max
                self._random_correction += gain * (plan.random_trace[idx] - stop_rate)

        row = MetricsRow(
            step=step,
            cumulative_tokens=self.cumulative_tokens,
            avg_trajectory_length_actual=lengths.avg_length_actual,
            avg_trajectory_length_original=lengths.avg_length,
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

    def _out_path(self, name: str) -> str | None:
        if not self.config.out_dir:
            return None
        return os.path.join(self.config.out_dir, name)

    def _side_outputs(self, batch: RolloutBatch, row: MetricsRow) -> None:
        cfg = self.config
        if cfg.record_stop_events and cfg.out_dir:
            path = self._out_path("stop_events.tsv")
            fresh = not os.path.exists(path)
            with open(path, "a", encoding="utf-8") as fh:
                if fresh:
                    fh.write("step\ttrajectory\tstop_step\tvalue_estimate\tz\n")
                for ti, traj in enumerate(batch.trajectories):
                    idx = traj.stop_index
                    if idx is not None:
                        rec = traj.steps[idx]
                        fh.write(f"{row.step}\t{ti}\t{idx}\t{rec.value_estimate!r}"
                                 f"\t{rec.smoothed_score!r}\n")
        if cfg.dump_trajectories and cfg.out_dir:
            with open(self._out_path("trajectories.tsv"), "a", encoding="utf-8") as fh:
                for ti, traj in enumerate(batch.trajectories):
                    fh.write(f"# step {row.step} trajectory {ti} "
                             f"reason {traj.stop_reason.value}\n")
                    fh.write(dump_trajectory(traj) + "\n")
        if cfg.eval_every and row.step % cfg.eval_every == 0:
            self._write_eval(row.step)
        if cfg.checkpoint_every and row.step % cfg.checkpoint_every == 0 and cfg.out_dir:
            self.save_checkpoint(os.path.join(cfg.out_dir, "checkpoints",
                                              f"step_{row.step:06d}"))

    def _write_eval(self, step: int) -> None:
        cfg = self.config
        path = self._out_path("eval.csv")
        if path is None:
            return
        greedy = evaluate_policy(self.actor, self.env, cfg.t_max, cfg.eval_episodes,
                                 cfg.seed, step, greedy=True)
        sampled = evaluate_policy(self.actor, self.env, cfg.t_max, cfg.eval_episodes,
                                  cfg.seed, step, greedy=False)
        fresh = not os.path.exists(path)
        with open(path, "a", encoding="utf-8") as fh:
            if fresh:
                fh.write("step,greedy_success,sampled_success,episodes\n")
            fh.write(f"{step},{greedy!r},{sampled!r},{cfg.eval_episodes}\n")

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
        os.makedirs(directory, exist_ok=True)
        save_params(self.actor, self.critic, os.path.join(directory, "params.txt"))
        state = {
            "step": self.step_index,
            "cumulative_tokens": self.cumulative_tokens,
            "experiment_hash": experiment_hash(self.config),
            "stopper": self.stopper.state_dict(),
            "random_correction": self._random_correction,
        }
        with open(os.path.join(directory, "state.json"), "w", encoding="utf-8") as fh:
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
        actor, critic = load_params(os.path.join(checkpoint_dir, "params.txt"))
        if actor.table.shape != run.actor.table.shape:
            raise ConfigError("checkpoint parameter shapes do not match the config")
        run.actor, run.critic = actor, critic
        run.stopper.load_state_dict(state["stopper"])
        run.step_index = state["step"]
        run.cumulative_tokens = state["cumulative_tokens"]
        run._random_correction = state["random_correction"]
        return run
