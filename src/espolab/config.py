"""Run configuration: flat keys, file/env/flag layering, validation.

Precedence, lowest to highest: built-in defaults, ESPOLAB_<KEY> environment
variables, the config file, command-line flags. Every RunConfig field is a
config-file line `key = value`, an environment variable, and a CLI flag of
the same name.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, fields

__all__ = [
    "CALIBRATED",
    "ConfigError",
    "RunConfig",
    "VARIANTS",
    "build_run_config",
    "config_hash",
    "load_config_file",
    "parse_target_sequence",
    "stop_rule",
    "to_flat_dict",
    "validate_run_config",
]

VARIANTS = (
    "ppo",
    "espo",
    "espo_no_warmup",
    "espo_no_penalty",
    "value_only",
    "regret_only",
    "random_stop",
)

# Each variant calibrated by a reference espo run, and the key that sets its
# value directly (precedence: espolab.variants)
CALIBRATED = {
    "value_only": "value_stop_threshold",
    "regret_only": "regret_stop_threshold",
    "random_stop": "random_stop_rate",
}

ENV_KINDS = ("trap_chain", "recoverable")


class ConfigError(ValueError):
    """Carries every validation failure, not just the first."""


def key(default, help_text: str, valid=None):
    """A RunConfig field: its default, help text and valid values (">= n",
    "> n", an interval such as "(0, 1]", a tuple of choices, or None: any)."""
    return field(default=default, metadata={"help": help_text, "valid": valid})


@dataclass
class RunConfig:
    """Every config key: its name, its kind (the annotation) and its key().
    Kinds: int, float, bool, str, int | None, float | None."""

    # experiment identity
    variant: str = key("espo", "method variant", VARIANTS)
    seed: int = key(0, "master seed; all RNG streams derive from it", ">= 0")
    total_steps: int = key(300, "number of training steps (one rollout batch each)", ">= 1")
    batch_size: int = key(64, "trajectories per rollout batch", ">= 1")
    out_dir: str = key("", "output directory for metrics/manifest/checkpoints")
    # environment
    env: str = key("trap_chain", "environment kind", ENV_KINDS)
    vocab_size: int = key(8, "token vocabulary size K", ">= 2")
    target_length: int = key(12, "length of the rewarded token sequence", ">= 1")
    target_sequence: str = key(
        "", "comma-separated target tokens; empty generates from target_seed")
    target_seed: int = key(0, "seed used when generating the target sequence", ">= 0")
    doom_padding: int | None = key(None, "doomed-branch length; 'none' absorbs to T_max", ">= 0")
    repair_window: int = key(3, "recoverable env: steps allowed to emit the repair token", ">= 0")
    t_max: int = key(64, "horizon cap T_max", ">= 1")
    state_budget: int = key(100_000, "maximum enumerable states before erroring", ">= 1")
    # stopping machinery
    r_fail: float = key(-1.0, "terminal reward written at an early stop")
    alpha_ema: float = key(0.99, "EMA factor for batch regret statistics", "(0, 1)")
    alpha_s: float = key(0.9, "per-trajectory smoothing factor of the stop statistic", "(0, 1)")
    beta_init: float = key(7.0, "initial threshold multiplier (anneal target)")
    beta_min: float = key(0.0, "controller lower clip for beta")
    beta_max: float = key(10.0, "controller upper clip; annealing starts here")
    eta_beta: float = key(0.1, "proportional controller gain", ">= 0")
    target_stop_rate: float = key(0.25, "controller setpoint for the batch stop rate", "[0, 1]")
    value_floor: float = key(0.2, "epsilon floor inside max(V, epsilon) of the stop rule", "> 0")
    clip_bound: float = key(5.0, "clip bound c for the normalized regret", "> 0")
    stabilizer: float = key(1e-8, "variance stabilizer delta", "> 0")
    warmup_abs_threshold: float = key(0.5, "warmup exits when |critic loss| stays below this")
    warmup_delta_threshold: float = key(0.1, "warmup exits when |loss delta| stays below this")
    warmup_consecutive: int = key(3, "consecutive qualifying steps needed to exit warmup", ">= 1")
    warmup_step_cap_fraction: float = key(0.1, "warmup cap as a fraction of total steps", "[0, 1]")
    anneal_fraction: float = key(0.1, "fraction of post-warmup steps that anneal beta", "[0, 1]")
    disable_stopping: bool = key(False, "bypass the stopper entirely (reduces to plain PPO)")
    counterfactual: bool = key(
        False, "count every decoded token and report false positives (measurement mode)")
    # optimization
    gamma: float = key(1.0, "discount factor", "(0, 1]")
    lam: float = key(1.0, "GAE lambda", "(0, 1]")
    clip_ratio: float = key(0.2, "PPO clipping epsilon", "(0, 1)")
    epochs_per_batch: int = key(1, "PPO epochs per collected batch", ">= 1")
    lr_actor: float = key(0.05, "actor learning rate (desk scale)", ">= 0")
    lr_critic: float = key(0.1, "critic learning rate (desk scale)", ">= 0")
    advantage_whitening: bool = key(False, "whiten advantages across the batch before the update")
    actor_init_scale: float = key(0.0, "stddev of Gaussian logit init; 0 = uniform policy", ">= 0")
    # ablation support
    value_stop_threshold: float | None = key(None, "value_only variant: stop when V < this")
    regret_stop_threshold: float | None = key(None, "regret_only variant: stop when z > this")
    random_stop_rate: float | None = key(None, "random_stop variant: fixed step hazard", "[0, 1]")
    reference_run: str = key("", f"run dir used to calibrate {'/'.join(CALIBRATED)}")
    # outputs
    checkpoint_every: int = key(0, "save a checkpoint every N steps (0 disables)", ">= 0")
    eval_every: int = key(0, "evaluate greedy/sampled success every N steps (0 disables)", ">= 0")
    eval_episodes: int = key(1024, "episodes per evaluation", ">= 1")
    dump_trajectories: bool = key(False, "append per-step trajectory dumps to trajectories.tsv")
    record_stop_events: bool = key(False, "append (V, z) at every stop event to stop_events.tsv")


def _coerce(name: str, kind: str, raw) -> object:
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    low = text.lower()
    if kind.endswith("| None") and low in ("", "none", "null"):
        return None
    try:
        if kind.startswith("int"):
            return int(text)
        if kind.startswith("float"):
            return float(text)
        if kind == "bool":
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"config key {name}: cannot parse {text!r} as {kind}") from exc


def load_config_file(path) -> dict[str, str]:
    """Parse the flat `key = value` config format ('#' starts a comment)."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def build_run_config(file_values: dict | None = None,
                     flag_values: dict | None = None,
                     environ: dict | None = None) -> RunConfig:
    """Layer defaults < environment < file < flags into a RunConfig."""
    environ = os.environ if environ is None else environ
    kinds = {f.name: f.type for f in fields(RunConfig)}
    merged: dict[str, object] = {}
    unknown: list[str] = []
    for name, kind in kinds.items():
        env_key = f"ESPOLAB_{name.upper()}"
        if env_key in environ:
            merged[name] = _coerce(name, kind, environ[env_key])
    for source in (file_values or {}, flag_values or {}):
        for name, raw in source.items():
            if raw is None:
                continue
            if name not in kinds:
                unknown.append(name)
                continue
            merged[name] = _coerce(name, kinds[name], raw)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(set(unknown))))
    return RunConfig(**merged)


def to_flat_dict(cfg: RunConfig) -> dict[str, str]:
    """Canonical text form for every key (floats via repr, lossless)."""
    out = {}
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            out[f.name] = "none"
        elif isinstance(value, bool):
            out[f.name] = "true" if value else "false"
        elif isinstance(value, float):
            out[f.name] = repr(value)
        else:
            out[f.name] = str(value)
    return out


def _digest(cfg: RunConfig, skip=frozenset()) -> str:
    canon = "\n".join(f"{k}={v}" for k, v in sorted(to_flat_dict(cfg).items()) if k not in skip)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def config_hash(cfg: RunConfig) -> str:
    return _digest(cfg)


# Keys that do not affect the training stream; a checkpoint stays resumable
# when only these differ (e.g. resuming into a fresh output directory).
OPERATIONAL_KEYS = frozenset({
    "out_dir", "checkpoint_every", "eval_every", "eval_episodes",
    "dump_trajectories", "record_stop_events",
})


def experiment_hash(cfg: RunConfig) -> str:
    return _digest(cfg, OPERATIONAL_KEYS)


def _explicit_target(cfg: RunConfig) -> tuple[int, ...]:
    """The tokens of target_sequence; () when it is unset."""
    if not cfg.target_sequence.strip():
        return ()
    try:
        return tuple(int(tok) for tok in cfg.target_sequence.split(","))
    except ValueError as exc:
        raise ConfigError(f"target_sequence: cannot parse {cfg.target_sequence!r}") from exc


def parse_target_sequence(cfg: RunConfig) -> tuple[int, ...]:
    seq = _explicit_target(cfg)
    if seq:
        return seq
    from .envs import generate_target_sequence

    return generate_target_sequence(cfg.vocab_size, cfg.target_length, cfg.target_seed)


def domain(f) -> str:
    """Field f's valid values as its errors and --help word them."""
    valid = f.metadata["valid"]
    text = (f"be one of {valid}" if isinstance(valid, tuple)
            else f"lie in {valid}" if valid[0] in "([" else f"be {valid}")
    return text + " or none" if f.type.endswith("| None") else text


def _accepts(valid, value) -> bool:
    if isinstance(valid, tuple):
        return value in valid
    if valid[0] == ">":  # ">= n" or "> n"
        return value > float(valid[2:]) or valid[1] == "=" and value == float(valid[2:])
    low, high = map(float, valid[1:-1].split(","))
    return (low < value or valid[0] == "[" and value == low) and (
        value < high or valid[-1] == "]" and value == high)


def stop_rule(cfg: RunConfig) -> str:
    """The rule that decides the run's stops: "ppo" (never) under
    disable_stopping, "espo" for every espo_* variant, else the variant."""
    if cfg.disable_stopping:
        return "ppo"
    return "espo" if cfg.variant.startswith("espo_") else cfg.variant


def validate_run_config(cfg: RunConfig) -> list[str]:
    """Every problem with the config, in one pass; empty list means valid."""
    errors: list[str] = []

    def need(cond: bool, message: str) -> None:
        if not cond:
            errors.append(message)

    for f in fields(RunConfig):
        value, valid = getattr(cfg, f.name), f.metadata["valid"]
        if f.type.startswith("float") and value is not None:
            need(math.isfinite(value), f"{f.name} must be finite, got {value!r}")
        if valid is not None and value is not None and not _accepts(valid, value):
            got = f", got {value!r}" if isinstance(valid, tuple) else ""
            errors.append(f"{f.name} must {domain(f)}{got}")
    need(cfg.beta_min <= cfg.beta_init <= cfg.beta_max,
         "beta_init must lie in [beta_min, beta_max]")
    rule = stop_rule(cfg)
    if rule in CALIBRATED:
        explicit = CALIBRATED[rule]
        need(bool(cfg.reference_run) or getattr(cfg, explicit) is not None,
             f"{rule} needs reference_run or {explicit}")
    try:
        seq = _explicit_target(cfg)
    except ConfigError as exc:
        errors.append(str(exc))
    else:
        if seq:
            need(len(seq) == cfg.target_length,
                 "target_sequence length must equal target_length")
            need(all(0 <= t < cfg.vocab_size for t in seq),
                 "target_sequence tokens must lie in [0, vocab_size)")
    if not errors:  # the environment spec of an otherwise valid config can be built
        from .envs import env_spec_from_config

        # a chain longer than the budget is over it before its target is generated
        states = (cfg.target_length if cfg.target_length > cfg.state_budget
                  else env_spec_from_config(cfg).state_count)
        need(states <= cfg.state_budget, f"the environment has at least {states} states, "
             f"more than state_budget={cfg.state_budget}")
    return errors


def require_valid(cfg: RunConfig) -> None:
    errors = validate_run_config(cfg)
    if errors:
        raise ConfigError("invalid config:\n" + "\n".join(f"  - {e}" for e in errors))
