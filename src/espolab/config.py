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
    "ConfigError",
    "RunConfig",
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


def key(default, help_text: str):
    """A RunConfig field: its default and its help text."""
    return field(default=default, metadata={"help": help_text})


@dataclass
class RunConfig:
    """Every config key: its name, its kind (the annotation), its default and
    its help text. Kinds: int, float, bool, str, int | None, float | None."""

    # experiment identity
    variant: str = key("espo", f"method variant, one of {'|'.join(VARIANTS)}")
    seed: int = key(0, "master seed; all RNG streams derive from it")
    total_steps: int = key(300, "number of training steps (one rollout batch each)")
    batch_size: int = key(64, "trajectories per rollout batch")
    out_dir: str = key("", "output directory for metrics/manifest/checkpoints")
    # environment
    env: str = key("trap_chain", "environment kind: trap_chain | recoverable")
    vocab_size: int = key(8, "token vocabulary size K")
    target_length: int = key(12, "length of the rewarded token sequence")
    target_sequence: str = key(
        "", "comma-separated target tokens; empty generates from target_seed")
    target_seed: int = key(0, "seed used when generating the target sequence")
    doom_padding: int | None = key(None, "doomed-branch length; 'none' absorbs until the horizon")
    repair_window: int = key(3, "recoverable env: steps allowed to emit the repair token")
    t_max: int = key(64, "horizon cap T_max")
    state_budget: int = key(100_000, "maximum enumerable states before erroring")
    # stopping machinery
    r_fail: float = key(-1.0, "terminal reward written at an early stop")
    alpha_ema: float = key(0.99, "EMA factor for batch regret statistics")
    alpha_s: float = key(0.9, "per-trajectory smoothing factor for the stopping statistic")
    beta_init: float = key(7.0, "initial threshold multiplier (anneal target)")
    beta_min: float = key(0.0, "controller lower clip for beta")
    beta_max: float = key(10.0, "controller upper clip; annealing starts here")
    eta_beta: float = key(0.1, "proportional controller gain")
    target_stop_rate: float = key(0.25, "controller setpoint for the per-batch stop rate")
    value_floor: float = key(0.2, "epsilon floor inside max(V, epsilon) of the stop rule")
    clip_bound: float = key(5.0, "clip bound c for the normalized regret")
    stabilizer: float = key(1e-8, "variance stabilizer delta")
    warmup_abs_threshold: float = key(0.5, "warmup exits when |critic loss| stays below this")
    warmup_delta_threshold: float = key(0.1, "warmup exits when |loss delta| stays below this")
    warmup_consecutive: int = key(3, "consecutive qualifying steps required to exit warmup")
    warmup_step_cap_fraction: float = key(0.10, "fraction of total steps forcing warmup exit")
    anneal_fraction: float = key(0.10, "fraction of post-warmup steps spent annealing beta")
    disable_stopping: bool = key(False, "bypass the stopper entirely (reduces to plain PPO)")
    counterfactual: bool = key(
        False, "record hypothetical stops but keep decoding (measurement mode)")
    # optimization
    gamma: float = key(1.0, "discount factor")
    lam: float = key(1.0, "GAE lambda")
    clip_ratio: float = key(0.2, "PPO clipping epsilon")
    epochs_per_batch: int = key(1, "PPO epochs per collected batch")
    lr_actor: float = key(0.05, "actor learning rate (desk scale)")
    lr_critic: float = key(0.1, "critic learning rate (desk scale)")
    advantage_whitening: bool = key(False, "whiten advantages across the batch before the update")
    actor_init_scale: float = key(0.0, "stddev of seeded Gaussian logit init; 0 = uniform policy")
    # ablation support
    value_stop_threshold: float | None = key(None, "value_only variant: stop when V < this")
    regret_stop_threshold: float | None = key(None, "regret_only variant: stop when z > this")
    random_stop_rate: float | None = key(None, "random_stop variant: fixed per-step hazard")
    reference_run: str = key("", "run dir used to calibrate value_only/regret_only/random_stop")
    # outputs
    checkpoint_every: int = key(0, "save a checkpoint every N steps (0 disables)")
    eval_every: int = key(0, "evaluate greedy/sampled success every N steps (0 disables)")
    eval_episodes: int = key(1024, "episodes per evaluation")
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

    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.type.startswith("float") and value is not None:
            need(math.isfinite(value), f"{f.name} must be finite, got {value!r}")
    need(cfg.variant in VARIANTS, f"variant must be one of {VARIANTS}, got {cfg.variant!r}")
    need(cfg.env in ENV_KINDS, f"env must be one of {ENV_KINDS}, got {cfg.env!r}")
    need(cfg.seed >= 0, "seed must be >= 0")
    need(cfg.target_seed >= 0, "target_seed must be >= 0")
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
    need(cfg.actor_init_scale >= 0.0, "actor_init_scale must be >= 0")
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
    return errors


def require_valid(cfg: RunConfig) -> None:
    errors = validate_run_config(cfg)
    if errors:
        raise ConfigError("invalid config:\n" + "\n".join(f"  - {e}" for e in errors))
