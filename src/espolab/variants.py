"""Variant dispatch: one knob away from the full method, per ablation row.

Each ablation variant differs from full espo by exactly one mechanism:

    ppo             stopping disabled entirely (full-horizon baseline)
    espo_no_warmup  warmup gate permanently inactive
    espo_no_penalty early-stop steps carry reward 0 instead of r_fail
    value_only      stop when V < fixed threshold (regret machinery unused)
    regret_only     stop when z > fixed threshold (value gate unused)
    random_stop     per-step hazard replaying a reference run's stop-rate trace

Fixed thresholds for value_only/regret_only default to the medians of (V, z)
at the reference run's stop events; the random hazard is calibrated from the
reference run's per-batch stop-rate trace.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass

from .config import VARIANTS, ConfigError, RunConfig
from .metrics import read_metrics
from .rollout import COUNTERFACTUAL, DISABLED, RANDOM, STANDARD
from .stopper import StopRule

__all__ = [
    "VariantPlan",
    "load_stop_events",
    "load_stop_rate_trace",
    "variant_dispatch",
]


@dataclass(frozen=True)
class VariantPlan:
    variant: str
    mode_kind: str  # DISABLED exactly when the stopper takes no part
    early_stop_reward: float
    warmup_enabled: bool
    rule: StopRule
    rule_threshold: float
    beta_updates_enabled: bool
    random_trace: tuple[float, ...] | None = None
    random_fixed_rate: float | None = None

    @property
    def stopping(self) -> bool:
        """Whether the stopper takes part in the run at all."""
        return self.mode_kind != DISABLED


def load_stop_rate_trace(run_dir) -> tuple[float, ...]:
    rows = read_metrics(os.path.join(run_dir, "metrics.csv"))
    if not rows:
        raise ConfigError(f"reference run {run_dir} has no metrics rows")
    return tuple(row.stop_rate for row in rows)


def load_stop_events(run_dir) -> tuple[float, float]:
    """Median (value_estimate, z) over the reference run's stop events."""
    path = os.path.join(run_dir, "stop_events.tsv")
    values, zs = [], []
    try:
        with open(path, encoding="utf-8") as fh:
            fh.readline()  # header
            for line in fh:
                parts = line.split("\t")
                if len(parts) >= 5:
                    values.append(float(parts[3]))
                    zs.append(float(parts[4]))
    except FileNotFoundError as exc:
        raise ConfigError(
            f"reference run {run_dir} has no stop_events.tsv "
            "(rerun it with record_stop_events = true)") from exc
    if not values:
        raise ConfigError(f"reference run {run_dir} recorded no stop events")
    return statistics.median(values), statistics.median(zs)


def variant_dispatch(cfg: RunConfig) -> VariantPlan:
    """Resolve the config into a concrete collection/training plan."""
    variant = cfg.variant
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")

    early_stop_reward = 0.0 if variant == "espo_no_penalty" else cfg.r_fail
    warmup_enabled = variant != "espo_no_warmup"
    rule = StopRule.ESPO
    rule_threshold = 0.0
    beta_updates = True
    random_trace = None
    random_fixed = None

    if variant == "value_only":
        rule = StopRule.VALUE_ONLY
        beta_updates = False
        if cfg.value_stop_threshold is not None:
            rule_threshold = cfg.value_stop_threshold
        else:
            rule_threshold, _ = load_stop_events(cfg.reference_run)
    elif variant == "regret_only":
        rule = StopRule.REGRET_ONLY
        beta_updates = False
        if cfg.regret_stop_threshold is not None:
            rule_threshold = cfg.regret_stop_threshold
        else:
            _, rule_threshold = load_stop_events(cfg.reference_run)

    if variant == "ppo" or cfg.disable_stopping:
        mode_kind = DISABLED
    elif variant == "random_stop":
        mode_kind = RANDOM
        beta_updates = False
        if cfg.reference_run:
            random_trace = load_stop_rate_trace(cfg.reference_run)
        else:
            random_fixed = cfg.random_stop_rate
    elif cfg.counterfactual:
        mode_kind = COUNTERFACTUAL
    else:
        mode_kind = STANDARD

    return VariantPlan(
        variant=variant,
        mode_kind=mode_kind,
        early_stop_reward=early_stop_reward,
        warmup_enabled=warmup_enabled,
        rule=rule,
        rule_threshold=rule_threshold,
        beta_updates_enabled=beta_updates,
        random_trace=random_trace,
        random_fixed_rate=random_fixed,
    )

