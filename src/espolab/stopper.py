"""Regret-gated stopping machinery.

Per-step surrogate regret, frozen-batch EMA normalization, exponential
smoothing, the value-gated stop decision, the proportional stop-rate
controller, and the adaptive critic-warmup gate.

Batch statistics are functional value types: updates return new instances,
and rollout workers only ever see a frozen StopperSnapshot, so no collection
can observe statistics influenced by its own batch.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

__all__ = [
    "BetaController",
    "EmaStats",
    "StopRule",
    "StopperSnapshot",
    "StopperState",
    "WarmupGate",
    "anneal_beta",
    "update_beta",
    "update_ema",
    "warmup_step",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class EmaStats:
    """Running EMA of per-batch regret mean/variance. Generation sees them
    only through the StopperSnapshot taken at the start of each batch."""

    mu_g: float = 0.0
    var_g: float = 1.0
    stabilizer: float = 1e-8
    clip_bound: float = 5.0
    alpha_ema: float = 0.99


@dataclass(frozen=True, slots=True)
class BetaController:
    """Proportional setpoint controller for the stop-threshold multiplier."""

    beta: float = 7.0
    eta_beta: float = 0.1
    target_rate: float = 0.25
    beta_min: float = 0.0
    beta_max: float = 10.0


@dataclass(frozen=True, slots=True)
class WarmupGate:
    """Stopping stays disabled until the critic's loss stabilizes.

    The gate releases when, for required_consecutive steps in a row, either
    |loss| < abs_threshold or |loss - previous loss| < delta_threshold; it
    releases unconditionally once ceil(step_cap_fraction * total_steps)
    training steps have elapsed. Once released it never re-arms.
    """

    active: bool = True
    consecutive_hits: int = 0
    abs_threshold: float = 0.5
    delta_threshold: float = 0.1
    required_consecutive: int = 3
    step_cap_fraction: float = 0.10
    last_loss: float | None = None


class StopRule(Enum):
    ESPO = "espo"              # z > beta * max(V, value_floor)
    VALUE_ONLY = "value_only"  # V < fixed threshold
    REGRET_ONLY = "regret_only"  # z > fixed threshold


def update_ema(stats: EmaStats, batch_regrets) -> EmaStats:
    """Blend running statistics with one batch's mean/variance; the next
    snapshot freezes the result for the next batch.

    Variance is the population formula (divide by N). Sums use math.fsum so
    the result is invariant under permutation of the batch. Called exactly
    once per rollout batch; an empty batch leaves stats unchanged.
    """
    values = list(batch_regrets)
    if not values:
        logger.warning("update_ema called with an empty batch; statistics unchanged")
        return stats
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / n
    a = stats.alpha_ema
    mu = a * stats.mu_g + (1.0 - a) * mean
    sigma2 = a * stats.var_g + (1.0 - a) * var
    return replace(stats, mu_g=mu, var_g=sigma2)


def update_beta(ctrl: BetaController, empirical_stop_rate: float) -> BetaController:
    """beta <- clip(beta + eta * (stop_rate - target), beta_min, beta_max)."""
    if not 0.0 <= empirical_stop_rate <= 1.0:
        raise ValueError(f"stop rate {empirical_stop_rate} outside [0, 1]")
    beta = ctrl.beta + ctrl.eta_beta * (empirical_stop_rate - ctrl.target_rate)
    beta = min(max(beta, ctrl.beta_min), ctrl.beta_max)
    return replace(ctrl, beta=beta)


def warmup_step(gate: WarmupGate, critic_loss: float, step: int, total_steps: int) -> WarmupGate:
    """Advance the warmup gate after one training step (1-based step index)."""
    if not gate.active:
        return gate
    hit = abs(critic_loss) < gate.abs_threshold or (
        gate.last_loss is not None
        and abs(critic_loss - gate.last_loss) < gate.delta_threshold)
    hits = gate.consecutive_hits + 1 if hit else 0
    hits = min(hits, gate.required_consecutive)
    cap = math.ceil(gate.step_cap_fraction * total_steps)
    active = hits < gate.required_consecutive and step < cap
    return replace(gate, active=active, consecutive_hits=hits, last_loss=critic_loss)


def anneal_beta(ctrl: BetaController, steps_since_warmup: int, anneal_horizon: int) -> BetaController:
    """Effective controller during the post-warmup anneal.

    beta interpolates linearly from beta_max down to the controller's current
    beta over anneal_horizon steps; at and beyond the horizon the controller
    is returned unchanged (and only then do setpoint updates apply).
    """
    if anneal_horizon <= 0 or steps_since_warmup >= anneal_horizon:
        return ctrl
    frac = steps_since_warmup / anneal_horizon
    beta = ctrl.beta_max + (ctrl.beta - ctrl.beta_max) * frac
    return replace(ctrl, beta=beta)


@dataclass(frozen=True, slots=True)
class StopperSnapshot:
    """Frozen view handed to rollout workers for one batch.

    Carries everything the per-step decision needs: frozen normalization
    statistics, the smoothing constant, the effective (annealed) beta, the
    value floor, warmup status, and which rule variant is in force. Both
    decision inputs are tables over the batch: the normalized regret of every
    (state, token) pair and the stop threshold of every state.
    """

    frozen_mu: float = 0.0
    frozen_var: float = 1.0
    stabilizer: float = 1e-8
    clip_bound: float = 5.0
    alpha_s: float = 0.9
    beta: float = 7.0
    value_floor: float = 0.2
    warmup_active: bool = False
    rule: StopRule = StopRule.ESPO
    rule_threshold: float = 0.0

    def normalize(self, g):
        """Clipped z-score of step regrets g (a scalar or an array) under the
        frozen statistics."""
        scaled = (g - self.frozen_mu) / math.sqrt(self.frozen_var + self.stabilizer)
        return np.clip(scaled, -self.clip_bound, self.clip_bound)

    def stop_thresholds(self, values: np.ndarray) -> np.ndarray:
        """Per-state threshold of the rule in force, for states whose critic
        values are `values`: a trajectory in state s with smoothed score z
        stops iff z > thresholds[s]. Strict, so ties continue.

        espo: beta * max(V, value_floor); regret_only: the fixed threshold;
        value_only fires on V < threshold whatever z is (-inf there, +inf
        elsewhere). While warmup is active no state ever fires (+inf).
        """
        if self.warmup_active:
            return np.full(len(values), np.inf)
        if self.rule is StopRule.VALUE_ONLY:
            return np.where(values < self.rule_threshold, -np.inf, np.inf)
        if self.rule is StopRule.REGRET_ONLY:
            return np.full(len(values), self.rule_threshold)
        return self.beta * np.maximum(values, self.value_floor)


class StopperState:
    """Mutable batch-boundary side of the machinery.

    Owns the EMA statistics, the controller, the warmup gate, and the anneal
    progress; produces one StopperSnapshot per batch and consumes one
    end_of_batch per training step. All mutation happens in the serialized
    control phase between batches.
    """

    def __init__(self, stats: EmaStats, controller: BetaController, gate: WarmupGate,
                 value_floor: float, alpha_s: float,
                 rule: StopRule = StopRule.ESPO, rule_threshold: float = 0.0,
                 anneal_horizon: int = 0, beta_updates_enabled: bool = True):
        self.stats = stats
        self.controller = controller
        self.gate = gate
        self.value_floor = value_floor
        self.alpha_s = alpha_s
        self.rule = rule
        self.rule_threshold = rule_threshold
        self.anneal_horizon = anneal_horizon
        self.beta_updates_enabled = beta_updates_enabled
        self.steps_since_warmup = 0

    def snapshot(self) -> StopperSnapshot:
        annealed = anneal_beta(self.controller, self.steps_since_warmup, self.anneal_horizon)
        return StopperSnapshot(
            frozen_mu=self.stats.mu_g,
            frozen_var=self.stats.var_g,
            stabilizer=self.stats.stabilizer,
            clip_bound=self.stats.clip_bound,
            alpha_s=self.alpha_s,
            beta=annealed.beta,
            value_floor=self.value_floor,
            warmup_active=self.gate.active,
            rule=self.rule,
            rule_threshold=self.rule_threshold,
        )

    def end_of_batch(self, batch_regrets, stop_rate: float, critic_loss: float,
                     step: int, total_steps: int) -> None:
        """Serialized batch-boundary update: EMA, warmup gate, anneal progress,
        then (only once annealing has completed) the setpoint controller."""
        self.stats = update_ema(self.stats, batch_regrets)
        was_released = not self.gate.active
        if self.gate.active:
            self.gate = warmup_step(self.gate, critic_loss, step, total_steps)
        if was_released:
            anneal_complete = self.steps_since_warmup >= self.anneal_horizon
            if anneal_complete and self.beta_updates_enabled:
                self.controller = update_beta(self.controller, stop_rate)
            self.steps_since_warmup += 1

    def state_dict(self) -> dict:
        return {
            "stats": [self.stats.mu_g, self.stats.var_g],
            "beta": self.controller.beta,
            "gate": [self.gate.active, self.gate.consecutive_hits, self.gate.last_loss],
            "steps_since_warmup": self.steps_since_warmup,
            "anneal_horizon": self.anneal_horizon,
        }

    def load_state_dict(self, state: dict) -> None:
        mu, var = state["stats"]
        self.stats = replace(self.stats, mu_g=mu, var_g=var)
        self.controller = replace(self.controller, beta=state["beta"])
        active, hits, last_loss = state["gate"]
        self.gate = replace(self.gate, active=active, consecutive_hits=hits, last_loss=last_loss)
        self.steps_since_warmup = state["steps_since_warmup"]
        self.anneal_horizon = state["anneal_horizon"]
