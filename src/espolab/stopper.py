"""Regret-gated stopping machinery.

Per-step surrogate regret, frozen-batch EMA normalization, exponential
smoothing, the value-gated stop decision, the proportional stop-rate
controllers (beta, and the random-stop hazard's correction), and the adaptive
critic-warmup gate.

StopperState changes only between batches, and rollout workers only ever see
the frozen StopperSnapshot taken before their batch, so no collection can
observe statistics influenced by its own batch.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .config import RunConfig
from .variants import VariantPlan

__all__ = [
    "StopperSnapshot",
    "StopperState",
    "weighted_fsum",
]

logger = logging.getLogger(__name__)

_HIGH_HALF = np.int64(-1 << 26)  # keeps sign, exponent and top 26 fraction bits
_DIGIT_BITS = 26
_DIGIT = (1 << _DIGIT_BITS) - 1


def weighted_fsum(values: np.ndarray, counts: np.ndarray) -> float:
    """math.fsum of a multiset given as contiguous float64 `values` and
    positive integer `counts`: bit for bit the fsum of counts[i] copies of
    each values[i], whatever the counts, from O(len(values) * log(max count))
    addends.

    Why every addend is exact, and how overflow and non-finite values
    behave: DECISIONS.md, "EMA statistics from distinct values".
    """
    finite = np.isfinite(values)
    if not finite.all():
        return math.fsum(values[~finite].tolist())
    hi = (values.view(np.int64) & _HIGH_HALF).view(np.float64)
    lo = values - hi
    terms = []
    for shift in range(0, int(counts.max(initial=0)).bit_length(), _DIGIT_BITS):
        digit = (counts >> shift & _DIGIT) * 2.0 ** shift
        terms += (hi * digit).tolist()
        terms += (lo * digit).tolist()
    total = math.fsum(terms)
    if math.isinf(total):
        raise OverflowError("intermediate overflow in fsum")
    return total


@dataclass(frozen=True, slots=True)
class StopperSnapshot:
    """Frozen view handed to rollout workers for one batch.

    Carries everything the per-step decision needs: frozen normalization
    statistics, the smoothing constant, the effective (annealed) beta, the
    value floor, warmup status, the rule in force ("ppo", "espo",
    "value_only", "regret_only" or "random_stop") with its threshold, and the
    random_stop rule's per-step hazard (0.0 under every other rule). The
    other rules read two tables over the batch: the normalized regret of
    every (state, token) pair and the stop threshold of every state.
    """

    frozen_mu: float = 0.0
    frozen_var: float = 1.0
    stabilizer: float = 1e-8
    clip_bound: float = 5.0
    alpha_s: float = 0.9
    beta: float = 7.0
    value_floor: float = 0.2
    warmup_active: bool = False
    rule: str = "espo"
    rule_threshold: float = 0.0
    random_stop_rate: float = 0.0

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
        elsewhere). Under ppo, and while warmup is active, no state ever
        fires (+inf). random_stop fires on its hazard instead.
        """
        if self.warmup_active or self.rule == "ppo":
            return np.full(len(values), np.inf)
        if self.rule == "value_only":
            return np.where(values < self.rule_threshold, -np.inf, np.inf)
        if self.rule == "regret_only":
            return np.full(len(values), self.rule_threshold)
        return self.beta * np.maximum(values, self.value_floor)


class StopperState:
    """Mutable batch-boundary side of the machinery: the EMA regret
    statistics, the beta controller with its post-warmup anneal, the
    critic-warmup gate and the random-stop hazard correction. Constants come
    from the run config; the rule, its threshold and which mechanisms are on
    come from the variant plan. Yields one StopperSnapshot per batch and
    takes one end_of_batch per step."""

    def __init__(self, cfg: RunConfig, plan: VariantPlan):
        self.cfg = cfg
        self.plan = plan
        self.mu_g = 0.0
        self.var_g = 1.0
        self.beta = cfg.beta_init
        # a run without stopping never consults the gate, so it is not armed
        self.warmup_active = plan.warmup_enabled and plan.stopping
        self.consecutive_hits = 0
        self.last_loss: float | None = None
        self.steps_since_warmup = 0
        # without warmup, annealing spans the configured fraction of all steps
        self.anneal_horizon = (0 if plan.warmup_enabled
                               else math.ceil(cfg.anneal_fraction * cfg.total_steps))
        self.random_correction = 0.0

    def update_ema(self, values: np.ndarray, counts: np.ndarray) -> None:
        """Blend the running statistics with one batch's regret mean and
        population variance (divide by N). The batch is a multiset: float64
        `values` with positive integer `counts`, such as each visited (state,
        token) pair's regret and its count. Mean: math.fsum of the regrets;
        variance: math.fsum of libm pow(regret - mean, 2.0) (as `** 2` on a
        float is, not x * x); each over N. `weighted_fsum` gives both bit for
        bit as the per-element sums, however the batch is grouped or ordered,
        since a square is a function of the regret alone. An empty batch
        leaves the statistics unchanged."""
        n = int(counts.sum())
        if not n:
            logger.warning("update_ema called with an empty batch; statistics unchanged")
            return
        mean = weighted_fsum(values, counts) / n
        squares = np.fromiter(map(math.pow, (values - mean).tolist(), repeat(2.0)),
                              np.float64, len(values))
        var = weighted_fsum(squares, counts) / n
        a = self.cfg.alpha_ema
        self.mu_g = a * self.mu_g + (1.0 - a) * mean
        self.var_g = a * self.var_g + (1.0 - a) * var

    def update_beta(self, stop_rate: float) -> None:
        """beta <- clip(beta + eta * (stop_rate - target), beta_min, beta_max)."""
        if not 0.0 <= stop_rate <= 1.0:
            raise ValueError(f"stop rate {stop_rate} outside [0, 1]")
        cfg = self.cfg
        beta = self.beta + cfg.eta_beta * (stop_rate - cfg.target_stop_rate)
        self.beta = min(max(beta, cfg.beta_min), cfg.beta_max)

    def warmup_step(self, critic_loss: float, step: int) -> None:
        """Advance the warmup gate after training step `step` (1-based).

        The gate releases when, for warmup_consecutive steps in a row, either
        |loss| < warmup_abs_threshold or |loss - previous loss| <
        warmup_delta_threshold; it releases unconditionally once
        ceil(warmup_step_cap_fraction * total_steps) steps have elapsed. Once
        released it never re-arms.
        """
        if not self.warmup_active:
            return
        cfg = self.cfg
        hit = abs(critic_loss) < cfg.warmup_abs_threshold or (
            self.last_loss is not None
            and abs(critic_loss - self.last_loss) < cfg.warmup_delta_threshold)
        hits = min(self.consecutive_hits + 1 if hit else 0, cfg.warmup_consecutive)
        cap = math.ceil(cfg.warmup_step_cap_fraction * cfg.total_steps)
        self.warmup_active = hits < cfg.warmup_consecutive and step < cap
        self.consecutive_hits = hits
        self.last_loss = critic_loss

    def annealed_beta(self) -> float:
        """The beta in force: during the post-warmup anneal, linear from
        beta_max down to the controller's beta over anneal_horizon steps. A
        run without stopping has no anneal."""
        horizon, done = self.anneal_horizon, self.steps_since_warmup
        if horizon <= 0 or done >= horizon or not self.plan.stopping:
            return self.beta
        beta_max = self.cfg.beta_max
        return beta_max + (self.beta - beta_max) * (done / horizon)

    def snapshot(self, step: int) -> StopperSnapshot:
        """The frozen view for batch `step` (1-based). In a run without
        stopping it is inert: end_of_batch never runs, so it keeps the initial
        statistics and beta, with warmup released. A random stopper's hazard
        is its fixed rate or, replaying a reference trace, the per-step hazard
        that stops a t_max-step rollout at the traced rate, plus the
        correction, clipped to [0, 1]."""
        cfg, plan = self.cfg, self.plan
        rate = 0.0
        if plan.random_trace is not None:
            base = 1.0 - (1.0 - min(self._traced_rate(step), 1.0)) ** (1.0 / cfg.t_max)
            rate = min(max(base + self.random_correction, 0.0), 1.0)
        elif plan.rule == "random_stop":
            rate = plan.random_fixed_rate or 0.0
        return StopperSnapshot(
            frozen_mu=self.mu_g,
            frozen_var=self.var_g,
            stabilizer=cfg.stabilizer,
            clip_bound=cfg.clip_bound,
            alpha_s=cfg.alpha_s,
            beta=self.annealed_beta(),
            value_floor=cfg.value_floor,
            warmup_active=self.warmup_active,
            rule=plan.rule,
            rule_threshold=plan.rule_threshold,
            random_stop_rate=rate,
        )

    def _traced_rate(self, step: int) -> float:
        """The reference run's stop rate at `step`, its last one past the end."""
        trace = self.plan.random_trace
        return trace[min(step - 1, len(trace) - 1)]

    def end_of_batch(self, values: np.ndarray, counts: np.ndarray, stop_rate: float,
                     critic_loss: float, step: int) -> None:
        """Update after training step `step`: EMA from the batch's regrets
        (`values` with `counts`, as update_ema takes them) and the random
        hazard's correction, then the warmup gate while it is armed (on
        release, the anneal spans anneal_fraction of the steps left), else
        anneal progress and, once it is over, the controller (under the espo
        rule only)."""
        self.update_ema(values, counts)
        if self.plan.random_trace is not None:
            gain = self.cfg.eta_beta / self.cfg.t_max
            self.random_correction += gain * (self._traced_rate(step) - stop_rate)
        if self.warmup_active:
            self.warmup_step(critic_loss, step)
            if not self.warmup_active:
                remaining = max(0, self.cfg.total_steps - step)
                self.anneal_horizon = math.ceil(self.cfg.anneal_fraction * remaining)
            return
        if self.steps_since_warmup >= self.anneal_horizon and self.plan.rule == "espo":
            self.update_beta(stop_rate)
        self.steps_since_warmup += 1

    def state_dict(self) -> dict:
        return {
            "stats": [self.mu_g, self.var_g],
            "beta": self.beta,
            "gate": [self.warmup_active, self.consecutive_hits, self.last_loss],
            "steps_since_warmup": self.steps_since_warmup,
            "anneal_horizon": self.anneal_horizon,
        }

    def load_state_dict(self, state: dict) -> None:
        self.mu_g, self.var_g = state["stats"]
        self.beta = state["beta"]
        armed, self.consecutive_hits, self.last_loss = state["gate"]
        self.warmup_active = armed and self.plan.stopping  # older checkpoints arm it
        self.steps_since_warmup = state["steps_since_warmup"]
        self.anneal_horizon = state["anneal_horizon"]
