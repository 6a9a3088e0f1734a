"""Variant dispatch: one knob away from the full method, per ablation row.

Each ablation variant differs from full espo by exactly one mechanism:

    ppo             stopping disabled entirely (full-horizon baseline)
    espo_no_warmup  warmup gate permanently inactive
    espo_no_penalty early-stop steps carry reward 0 instead of r_fail
    value_only      stop when V < fixed threshold (regret machinery unused)
    regret_only     stop when z > fixed threshold (value gate unused)
    random_stop     per-step hazard replaying a reference run's stop-rate trace

The stop rule is named by its variant id: "espo", "value_only" or
"regret_only". config.CALIBRATED maps each calibrated variant to the key that
sets its value. An explicit threshold wins over the median V (value_only) or z
(regret_only) at the reference run's stop events; random_stop replays the
reference's per-batch stop-rate trace, which wins over random_stop_rate.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass

from .config import CALIBRATED, VARIANTS, ConfigError, RunConfig
from .metrics import read_metrics
from .rollout import COUNTERFACTUAL, DISABLED, RANDOM, STANDARD

__all__ = [
    "VariantPlan",
    "load_reference",
    "variant_dispatch",
]


@dataclass(frozen=True)
class VariantPlan:
    mode_kind: str  # DISABLED exactly when the stopper takes no part
    early_stop_reward: float
    warmup_enabled: bool
    rule: str  # "espo", "value_only" or "regret_only"
    rule_threshold: float
    beta_updates_enabled: bool
    random_trace: tuple[float, ...] | None = None
    random_fixed_rate: float | None = None

    @property
    def stopping(self) -> bool:
        """Whether the stopper takes part in the run at all."""
        return self.mode_kind != DISABLED


def load_reference(run_dir, variant: str) -> float | tuple[float, ...]:
    """What the reference run gives a calibrated variant: its per-batch
    stop-rate trace (random_stop), or the median V (value_only) or z
    (regret_only) over its stop events."""
    if variant == "random_stop":
        rows = read_metrics(os.path.join(run_dir, "metrics.csv"))
        if not rows:
            raise ConfigError(f"reference run {run_dir} has no metrics rows")
        return tuple(row.stop_rate for row in rows)
    column = 3 if variant == "value_only" else 4  # value_estimate, z
    try:
        with open(os.path.join(run_dir, "stop_events.tsv"), encoding="utf-8") as fh:
            fh.readline()  # header
            picked = [float(parts[column]) for parts in (line.split("\t") for line in fh)
                      if len(parts) >= 5]
    except FileNotFoundError as exc:
        raise ConfigError(
            f"reference run {run_dir} has no stop_events.tsv "
            "(rerun it with record_stop_events = true)") from exc
    if not picked:
        raise ConfigError(f"reference run {run_dir} recorded no stop events")
    return statistics.median(picked)


def variant_dispatch(cfg: RunConfig) -> VariantPlan:
    """Resolve the config into a concrete collection/training plan."""
    variant = cfg.variant
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if variant == "ppo" or cfg.disable_stopping:
        mode_kind = DISABLED
    elif variant == "random_stop":
        mode_kind = RANDOM
    elif cfg.counterfactual:
        mode_kind = COUNTERFACTUAL
    else:
        mode_kind = STANDARD
    rule = variant if variant in ("value_only", "regret_only") else "espo"
    random_mode = mode_kind == RANDOM

    # a calibrated variant's value: its key's or its reference run's
    explicit = getattr(cfg, CALIBRATED[variant]) if variant in CALIBRATED else None
    from_reference = (bool(cfg.reference_run) if random_mode
                      else explicit is None and rule != "espo")
    calibration = load_reference(cfg.reference_run, variant) if from_reference else explicit

    return VariantPlan(
        mode_kind=mode_kind,
        early_stop_reward=0.0 if variant == "espo_no_penalty" else cfg.r_fail,
        warmup_enabled=variant != "espo_no_warmup",
        rule=rule,
        rule_threshold=0.0 if rule == "espo" else calibration,
        beta_updates_enabled=rule == "espo" and not random_mode,
        random_trace=calibration if random_mode and from_reference else None,
        random_fixed_rate=calibration if random_mode and not from_reference else None,
    )
