"""Run configuration: flat key schema, file/env/flag layering, validation.

Precedence, lowest to highest: built-in defaults, ESPOLAB_<KEY> environment
variables, the config file, command-line flags. Every key in the schema is a
config-file line `key = value`, an environment variable, and a CLI flag of
the same name.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields

__all__ = [
    "ConfigError",
    "RunConfig",
    "SCHEMA",
    "VARIANTS",
    "build_run_config",
    "config_hash",
    "env_signature",
    "load_config_file",
    "parse_target_sequence",
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

ENV_KINDS = ("trap_chain", "recoverable")


class ConfigError(ValueError):
    """Carries every validation failure, not just the first."""


@dataclass
class RunConfig:
    # experiment identity
    variant: str = "espo"
    seed: int = 0
    total_steps: int = 300
    batch_size: int = 64
    out_dir: str = ""
    # environment
    env: str = "trap_chain"
    vocab_size: int = 8
    target_length: int = 12
    target_sequence: str = ""  # comma-separated tokens; empty -> generated from target_seed
    target_seed: int = 0
    doom_padding: int | None = None  # None -> doomed branch absorbs until the horizon
    repair_window: int = 3
    t_max: int = 64
    state_budget: int = 100_000
    # stopping machinery
    r_fail: float = -1.0
    alpha_ema: float = 0.99
    alpha_s: float = 0.9
    beta_init: float = 7.0
    beta_min: float = 0.0
    beta_max: float = 10.0
    eta_beta: float = 0.1
    target_stop_rate: float = 0.25
    value_floor: float = 0.2
    clip_bound: float = 5.0
    stabilizer: float = 1e-8
    warmup_abs_threshold: float = 0.5
    warmup_delta_threshold: float = 0.1
    warmup_consecutive: int = 3
    warmup_step_cap_fraction: float = 0.10
    anneal_fraction: float = 0.10
    disable_stopping: bool = False
    counterfactual: bool = False
    # optimization
    gamma: float = 1.0
    lam: float = 1.0
    clip_ratio: float = 0.2
    epochs_per_batch: int = 1
    lr_actor: float = 0.05
    lr_critic: float = 0.1
    advantage_whitening: bool = False
    actor_init_scale: float = 0.0
    # ablation support
    value_stop_threshold: float | None = None
    regret_stop_threshold: float | None = None
    random_stop_rate: float | None = None
    reference_run: str = ""  # run dir used to calibrate value_only/regret_only/random_stop
    # outputs
    checkpoint_every: int = 0
    eval_every: int = 0
    eval_episodes: int = 1024
    dump_trajectories: bool = False
    record_stop_events: bool = False


# key -> (kind, help). Kinds: int, float, bool, str, opt_int, opt_float.
SCHEMA: dict[str, tuple[str, str]] = {
    "variant": ("str", f"method variant, one of {'|'.join(VARIANTS)}"),
    "seed": ("int", "master seed; all RNG streams derive from it"),
    "total_steps": ("int", "number of training steps (one rollout batch each)"),
    "batch_size": ("int", "trajectories per rollout batch"),
    "out_dir": ("str", "output directory for metrics/manifest/checkpoints"),
    "env": ("str", "environment kind: trap_chain | recoverable"),
    "vocab_size": ("int", "token vocabulary size K"),
    "target_length": ("int", "length of the rewarded token sequence"),
    "target_sequence": ("str", "comma-separated target tokens; empty generates from target_seed"),
    "target_seed": ("int", "seed used when generating the target sequence"),
    "doom_padding": ("opt_int", "doomed-branch length; 'none' absorbs until the horizon"),
    "repair_window": ("int", "recoverable env: steps allowed to emit the repair token"),
    "t_max": ("int", "horizon cap T_max"),
    "state_budget": ("int", "maximum enumerable states before erroring"),
    "r_fail": ("float", "terminal reward written at an early stop"),
    "alpha_ema": ("float", "EMA factor for batch regret statistics"),
    "alpha_s": ("float", "per-trajectory smoothing factor for the stopping statistic"),
    "beta_init": ("float", "initial threshold multiplier (anneal target)"),
    "beta_min": ("float", "controller lower clip for beta"),
    "beta_max": ("float", "controller upper clip; annealing starts here"),
    "eta_beta": ("float", "proportional controller gain"),
    "target_stop_rate": ("float", "controller setpoint for the per-batch stop rate"),
    "value_floor": ("float", "epsilon floor inside max(V, epsilon) of the stop rule"),
    "clip_bound": ("float", "clip bound c for the normalized regret"),
    "stabilizer": ("float", "variance stabilizer delta"),
    "warmup_abs_threshold": ("float", "warmup exits when |critic loss| stays below this"),
    "warmup_delta_threshold": ("float", "warmup exits when |loss delta| stays below this"),
    "warmup_consecutive": ("int", "consecutive qualifying steps required to exit warmup"),
    "warmup_step_cap_fraction": ("float", "fraction of total steps forcing warmup exit"),
    "anneal_fraction": ("float", "fraction of post-warmup steps spent annealing beta"),
    "disable_stopping": ("bool", "bypass the stopper entirely (reduces to plain PPO)"),
    "counterfactual": ("bool", "record hypothetical stops but keep decoding (measurement mode)"),
    "gamma": ("float", "discount factor"),
    "lam": ("float", "GAE lambda"),
    "clip_ratio": ("float", "PPO clipping epsilon"),
    "epochs_per_batch": ("int", "PPO epochs per collected batch"),
    "lr_actor": ("float", "actor learning rate (desk scale)"),
    "lr_critic": ("float", "critic learning rate (desk scale)"),
    "advantage_whitening": ("bool", "whiten advantages across the batch before the update"),
    "actor_init_scale": ("float", "stddev of seeded Gaussian logit init; 0 = uniform policy"),
    "value_stop_threshold": ("opt_float", "value_only variant: stop when V < this"),
    "regret_stop_threshold": ("opt_float", "regret_only variant: stop when z > this"),
    "random_stop_rate": ("opt_float", "random_stop variant: fixed per-step hazard"),
    "reference_run": ("str", "run dir used to calibrate value_only/regret_only/random_stop"),
    "checkpoint_every": ("int", "save a checkpoint every N steps (0 disables)"),
    "eval_every": ("int", "evaluate greedy/sampled success every N steps (0 disables)"),
    "eval_episodes": ("int", "episodes per evaluation"),
    "dump_trajectories": ("bool", "append per-step trajectory dumps to trajectories.tsv"),
    "record_stop_events": ("bool", "append (V, z) at every stop event to stop_events.tsv"),
}


def _coerce(key: str, kind: str, raw) -> object:
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    low = text.lower()
    if kind in ("opt_int", "opt_float") and low in ("", "none", "null"):
        return None
    try:
        if kind == "int" or kind == "opt_int":
            return int(text)
        if kind == "float" or kind == "opt_float":
            return float(text)
        if kind == "bool":
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"config key {key}: cannot parse {text!r} as {kind}") from exc


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
    merged: dict[str, object] = {}
    unknown: list[str] = []
    for key, (kind, _) in SCHEMA.items():
        env_key = f"ESPOLAB_{key.upper()}"
        if env_key in environ:
            merged[key] = _coerce(key, kind, environ[env_key])
    for source in (file_values or {}, flag_values or {}):
        for key, raw in source.items():
            if raw is None:
                continue
            if key not in SCHEMA:
                unknown.append(key)
                continue
            merged[key] = _coerce(key, SCHEMA[key][0], raw)
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


def config_hash(cfg: RunConfig) -> str:
    canon = "\n".join(f"{k}={v}" for k, v in sorted(to_flat_dict(cfg).items()))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# Keys that do not affect the training stream; a checkpoint stays resumable
# when only these differ (e.g. resuming into a fresh output directory).
OPERATIONAL_KEYS = frozenset({
    "out_dir", "checkpoint_every", "eval_every", "eval_episodes",
    "dump_trajectories", "record_stop_events",
})


def experiment_hash(cfg: RunConfig) -> str:
    canon = "\n".join(f"{k}={v}" for k, v in sorted(to_flat_dict(cfg).items())
                      if k not in OPERATIONAL_KEYS)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def parse_target_sequence(cfg: RunConfig) -> tuple[int, ...]:
    if cfg.target_sequence.strip():
        try:
            return tuple(int(tok) for tok in cfg.target_sequence.split(","))
        except ValueError as exc:
            raise ConfigError(f"target_sequence: cannot parse {cfg.target_sequence!r}") from exc
    from .envs import generate_target_sequence

    return generate_target_sequence(cfg.vocab_size, cfg.target_length, cfg.target_seed)


def env_signature(cfg: RunConfig) -> tuple:
    """Fields that must agree for runs to be comparable."""
    seq = parse_target_sequence(cfg) if cfg.env == "trap_chain" else ()
    return (cfg.env, cfg.vocab_size, cfg.target_length, seq,
            cfg.doom_padding, cfg.repair_window, cfg.t_max)


def validate_run_config(cfg: RunConfig) -> list[str]:
    """Every problem with the config, in one pass; empty list means valid."""
    errors: list[str] = []

    def need(cond: bool, message: str) -> None:
        if not cond:
            errors.append(message)

    for key, (kind, _help) in SCHEMA.items():
        value = getattr(cfg, key)
        if kind == "float" or (kind == "opt_float" and value is not None):
            need(math.isfinite(value), f"{key} must be finite, got {value!r}")
    need(cfg.variant in VARIANTS, f"variant must be one of {VARIANTS}, got {cfg.variant!r}")
    need(cfg.env in ENV_KINDS, f"env must be one of {ENV_KINDS}, got {cfg.env!r}")
    need(cfg.vocab_size >= 2, "vocab_size must be >= 2")
    need(cfg.target_length >= 1, "target_length must be >= 1")
    need(cfg.doom_padding is None or cfg.doom_padding >= 0, "doom_padding must be >= 0 or none")
    need(cfg.repair_window >= 0, "repair_window must be >= 0")
    need(cfg.t_max >= 1, "t_max must be >= 1")
    need(cfg.batch_size >= 1, "batch_size must be >= 1")
    need(cfg.total_steps >= 1, "total_steps must be >= 1")
    need(cfg.state_budget >= 1, "state_budget must be >= 1")
    need(0.0 < cfg.alpha_ema < 1.0, "alpha_ema must lie in (0, 1)")
    need(0.0 < cfg.alpha_s < 1.0, "alpha_s must lie in (0, 1)")
    need(0.0 <= cfg.target_stop_rate <= 1.0, "target_stop_rate must lie in [0, 1]")
    need(cfg.value_floor > 0.0, "value_floor must be > 0")
    need(cfg.clip_bound > 0.0, "clip_bound must be > 0")
    need(cfg.stabilizer > 0.0, "stabilizer must be > 0")
    need(cfg.beta_min <= cfg.beta_init <= cfg.beta_max,
         "beta_init must lie in [beta_min, beta_max]")
    need(cfg.eta_beta >= 0.0, "eta_beta must be >= 0")
    need(0.0 < cfg.clip_ratio < 1.0, "clip_ratio must lie in (0, 1)")
    need(0.0 < cfg.gamma <= 1.0, "gamma must lie in (0, 1]")
    need(0.0 < cfg.lam <= 1.0, "lam must lie in (0, 1]")
    need(cfg.lr_actor >= 0.0, "lr_actor must be >= 0")
    need(cfg.lr_critic >= 0.0, "lr_critic must be >= 0")
    need(cfg.epochs_per_batch >= 1, "epochs_per_batch must be >= 1")
    need(cfg.warmup_consecutive >= 1, "warmup_consecutive must be >= 1")
    need(0.0 <= cfg.warmup_step_cap_fraction <= 1.0,
         "warmup_step_cap_fraction must lie in [0, 1]")
    need(0.0 <= cfg.anneal_fraction <= 1.0, "anneal_fraction must lie in [0, 1]")
    need(cfg.eval_episodes >= 1, "eval_episodes must be >= 1")
    need(cfg.checkpoint_every >= 0, "checkpoint_every must be >= 0")
    need(cfg.eval_every >= 0, "eval_every must be >= 0")
    if cfg.random_stop_rate is not None:
        need(0.0 <= cfg.random_stop_rate <= 1.0, "random_stop_rate must lie in [0, 1]")
    if cfg.variant == "random_stop":
        need(bool(cfg.reference_run) or cfg.random_stop_rate is not None,
             "random_stop needs reference_run or random_stop_rate")
        need(not cfg.counterfactual, "counterfactual mode is not defined for random_stop")
    if cfg.variant == "value_only":
        need(cfg.value_stop_threshold is not None or bool(cfg.reference_run),
             "value_only needs value_stop_threshold or reference_run")
    if cfg.variant == "regret_only":
        need(cfg.regret_stop_threshold is not None or bool(cfg.reference_run),
             "regret_only needs regret_stop_threshold or reference_run")
    if cfg.target_sequence.strip():
        try:
            seq = tuple(int(tok) for tok in cfg.target_sequence.split(","))
        except ValueError:
            errors.append(f"target_sequence: cannot parse {cfg.target_sequence!r}")
        else:
            need(len(seq) == cfg.target_length,
                 "target_sequence length must equal target_length")
            need(all(0 <= t < cfg.vocab_size for t in seq),
                 "target_sequence tokens must lie in [0, vocab_size)")
    return errors


def require_valid(cfg: RunConfig) -> None:
    errors = validate_run_config(cfg)
    if errors:
        raise ConfigError("invalid config:\n" + "\n".join(f"  - {e}" for e in errors))
