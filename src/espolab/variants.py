"""Variant dispatch: one knob away from the full method, per ablation row.

Each ablation variant differs from full espo by exactly one mechanism:

    ppo             stopping disabled entirely (full-horizon baseline)
    espo_no_warmup  warmup gate permanently inactive
    espo_no_penalty early-stop steps carry reward 0 instead of r_fail
    value_only      stop when V < fixed threshold (regret machinery unused)
    regret_only     stop when z > fixed threshold (value gate unused)
    random_stop     per-step hazard replaying a reference run's stop-rate trace

A plan's rule (config.stop_rule) decides whether and where a row stops:
"ppo" (never; any variant under disable_stopping), "espo" (the espo_*
variants too), "value_only", "regret_only" or "random_stop". A row is trained
up to its stop; its collection mode decides only what a run counts: STANDARD
the trained spans, COUNTERFACTUAL every decoded token, with false positives.
config.CALIBRATED maps each calibrated variant to the key that sets its
value. An explicit threshold wins over the median V (value_only) or z
(regret_only) at the reference run's stop events; random_stop replays the
reference's per-batch stop-rate trace, which wins over random_stop_rate.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass

from .config import CALIBRATED, ConfigError, RunConfig, stop_rule
from .metrics import read_finished_run

__all__ = [
    "COUNTERFACTUAL",
    "STANDARD",
    "VariantPlan",
    "load_reference",
    "variant_dispatch",
]

STANDARD = "standard"  # a run counts each row up to its stop
COUNTERFACTUAL = "counterfactual"  # a run counts every decoded token


@dataclass(frozen=True)
class VariantPlan:
    mode: str  # STANDARD or COUNTERFACTUAL
    early_stop_reward: float
    warmup_enabled: bool
    rule: str  # "ppo", "espo", "value_only", "regret_only" or "random_stop"
    rule_threshold: float
    random_trace: tuple[float, ...] | None = None
    random_fixed_rate: float | None = None

    @property
    def stopping(self) -> bool:
        """Whether the stopper takes part in the run at all."""
        return self.rule != "ppo"


def load_reference(run_dir, variant: str) -> float | tuple[float, ...]:
    """What the reference run, a complete one (read_finished_run), gives a
    calibrated variant: its per-batch stop-rate trace (random_stop), or the
    median V (value_only) or z (regret_only) over its stop events."""
    if variant == "random_stop":
        return tuple(row.stop_rate for row in read_finished_run(run_dir, "reference run")[1])
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
    read_finished_run(run_dir, "reference run")  # refuses one that did not complete
    return statistics.median(picked)


def variant_dispatch(cfg: RunConfig) -> VariantPlan:
    """Resolve a validated config into a concrete collection/training plan."""
    variant = cfg.variant
    rule = stop_rule(cfg)
    random_mode = rule == "random_stop"

    # a calibrated rule's value: its key's or its reference run's
    explicit = getattr(cfg, CALIBRATED[rule]) if rule in CALIBRATED else None
    from_reference = (bool(cfg.reference_run) if random_mode
                      else rule in CALIBRATED and explicit is None)
    calibration = load_reference(cfg.reference_run, rule) if from_reference else explicit

    return VariantPlan(
        mode=COUNTERFACTUAL if cfg.counterfactual else STANDARD,
        early_stop_reward=0.0 if variant == "espo_no_penalty" else cfg.r_fail,
        warmup_enabled=variant != "espo_no_warmup",
        rule=rule,
        rule_threshold=calibration if rule in ("value_only", "regret_only") else 0.0,
        random_trace=calibration if random_mode and from_reference else None,
        random_fixed_rate=calibration if random_mode and not from_reference else None,
    )
