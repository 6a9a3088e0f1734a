"""Experiment orchestration: single runs, the ablation matrix, checkpoint
evaluation, false-positive measurement, and cross-run comparison."""

from __future__ import annotations

import contextlib
import dataclasses
import os
import shutil
import statistics
import time

from .config import (
    CALIBRATED,
    VARIANTS,
    ConfigError,
    RunConfig,
    build_run_config,
    require_valid,
)
from .envs import build_environment, env_signature, env_spec_from_config
from .metrics import MetricsWriter, read_manifest, read_metrics, write_manifest
from .policy import load_params
from .rollout import CachedPolicy, evaluate_policy, false_positive_rate
from .trainer import TrainingRun

__all__ = [
    "ComparisonRow",
    "ablate",
    "compare_runs",
    "evaluate_run",
    "false_positive_rate",
    "render_comparison",
    "run_experiment",
    "token_saving_pct",
]


def run_experiment(config: RunConfig, resume_checkpoint=None) -> str:
    """Execute one run, writing metrics.csv, manifest.json, and side files to
    config.out_dir. Fails fast, before writing anything, if the config is
    invalid (TrainingRun checks it) or the output path is unwritable. A run
    that raises later marks its manifest failed, with the error. A fresh
    run replaces the checkpoints and the side files that runs append to; a
    resumed one keeps them and appends."""
    if not config.out_dir:
        raise ConfigError("run_experiment needs out_dir")
    started = time.monotonic()
    run = (TrainingRun(config) if resume_checkpoint is None
           else TrainingRun.resume(config, resume_checkpoint))
    os.makedirs(config.out_dir, exist_ok=True)
    probe = os.path.join(config.out_dir, ".write_probe")
    try:
        with open(probe, "w") as fh:
            fh.write("ok")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output path {config.out_dir} is not writable: {exc}") from exc

    if resume_checkpoint is None:
        with contextlib.suppress(FileNotFoundError):
            shutil.rmtree(os.path.join(config.out_dir, "checkpoints"))
        for name in ("eval.csv", "stop_events.tsv", "trajectories.tsv"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(config.out_dir, name))
    writer = MetricsWriter(os.path.join(config.out_dir, "metrics.csv"),
                           resume_at_step=None if resume_checkpoint is None else run.step_index)
    write_manifest(config.out_dir, config, status="running")
    try:
        with writer:
            for row in run.run():
                writer.write(row)
    except BaseException as exc:
        write_manifest(config.out_dir, config, status="failed",
                       wall_time_s=time.monotonic() - started,
                       error=f"{type(exc).__name__}: {exc}")
        raise
    write_manifest(config.out_dir, config, status="complete",
                   wall_time_s=time.monotonic() - started)
    return config.out_dir


def evaluate_run(run_dir, checkpoint: str = "final", episodes: int | None = None,
                 seed: int | None = None) -> dict:
    """Greedy and sampled success rates for a saved checkpoint. episodes and
    seed default to the run's; the config with both is checked up front."""
    cfg = config_from_manifest(run_dir)
    episodes = cfg.eval_episodes if episodes is None else episodes
    seed = cfg.seed if seed is None else seed
    require_valid(dataclasses.replace(cfg, eval_episodes=episodes, seed=seed))
    actor, critic = load_params(os.path.join(run_dir, "checkpoints", checkpoint, "params.txt"))
    env = build_environment(env_spec_from_config(cfg), cfg.state_budget)
    policy = CachedPolicy(actor, critic)
    greedy = evaluate_policy(policy, env, cfg.t_max, episodes, seed, 0, greedy=True)
    sampled = evaluate_policy(policy, env, cfg.t_max, episodes, seed, 0, greedy=False)
    return {"checkpoint": checkpoint, "episodes": episodes,
            "greedy_success": greedy, "sampled_success": sampled}


def config_from_manifest(run_dir) -> RunConfig:
    """The config a run recorded, parsed like a config file (no environment)."""
    return build_run_config(read_manifest(run_dir)["config"], environ={})


def token_saving_pct(tokens: float, baseline_tokens: float) -> float:
    """Percentage of rollout tokens saved relative to a baseline count."""
    if baseline_tokens <= 0:
        raise ValueError("baseline token count must be positive")
    return 100.0 * (1.0 - tokens / baseline_tokens)


@dataclasses.dataclass(frozen=True)
class ComparisonRow:
    variant: str
    seeds: int
    success_mean: float
    success_std: float
    tokens_mean: float
    tokens_std: float
    saving_pct: float


def _final_success(run_dir) -> float:
    eval_path = os.path.join(run_dir, "eval.csv")
    if os.path.exists(eval_path):
        with open(eval_path, encoding="utf-8") as fh:
            fh.readline()
            last = None
            for line in fh:
                if line.strip():
                    last = line
        if last is not None:
            return float(last.split(",")[1])
    rows = read_metrics(os.path.join(run_dir, "metrics.csv"))
    if not rows:
        raise ValueError(f"{run_dir} has no metrics rows")
    return rows[-1].success_rate


def compare_runs(run_dirs, baseline_variant: str = "ppo") -> list[ComparisonRow]:
    """Aggregate completed runs into a per-variant summary with token savings
    against the designated baseline variant."""
    if len(run_dirs) < 2:
        raise ValueError("compare_runs needs at least two runs")
    groups: dict[str, list[tuple[float, float]]] = {}
    signatures = set()
    for run_dir in run_dirs:
        cfg = config_from_manifest(run_dir)
        signatures.add(env_signature(cfg))
        rows = read_metrics(os.path.join(run_dir, "metrics.csv"))
        if not rows:
            raise ValueError(f"{run_dir} has no metrics rows")
        tokens = float(rows[-1].cumulative_tokens)
        success = _final_success(run_dir)
        groups.setdefault(cfg.variant, []).append((success, tokens))
    if len(signatures) > 1:
        raise ValueError("runs use different environments and cannot be compared")
    if baseline_variant not in groups:
        raise ValueError(f"no runs with baseline variant {baseline_variant!r}")
    baseline_tokens = statistics.fmean(t for _s, t in groups[baseline_variant])

    out = []
    for variant, entries in sorted(groups.items()):
        succ = [s for s, _t in entries]
        toks = [t for _s, t in entries]
        out.append(ComparisonRow(
            variant=variant,
            seeds=len(entries),
            success_mean=statistics.fmean(succ),
            success_std=statistics.pstdev(succ) if len(succ) > 1 else 0.0,
            tokens_mean=statistics.fmean(toks),
            tokens_std=statistics.pstdev(toks) if len(toks) > 1 else 0.0,
            saving_pct=token_saving_pct(statistics.fmean(toks), baseline_tokens),
        ))
    return out


def render_comparison(rows: list[ComparisonRow]) -> str:
    header = (f"{'variant':<18} {'seeds':>5} {'success':>18} "
              f"{'cumulative tokens':>26} {'saving%':>8}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.variant:<18} {row.seeds:>5} "
            f"{row.success_mean:>10.4f}±{row.success_std:<7.4f} "
            f"{row.tokens_mean:>16.2f}±{row.tokens_std:<9.2f} "
            f"{row.saving_pct:>8.2f}")
    return "\n".join(lines)


def ablate(base_config: RunConfig, out_root, variants=VARIANTS) -> dict[str, str]:
    """Run the variant matrix from one base config.

    The full method runs first (recording stop events); calibration-dependent
    variants point at it as their reference. Each run writes to its own
    subdirectory of out_root. Every variant's config is checked before any
    run starts.
    """
    for i, variant in enumerate(variants):
        if variant not in VARIANTS or variant in variants[:i]:
            raise ConfigError(f"variant {variant!r} is unknown or repeated; the matrix "
                              f"takes distinct entries of {VARIANTS}")
    if "espo" not in variants or len(variants) < 2:
        raise ConfigError("the ablation matrix needs the espo reference run and another variant")
    configs = {}
    for variant in ("espo", *(v for v in variants if v != "espo")):
        overrides = {"record_stop_events": True} if variant == "espo" else {}
        if variant in CALIBRATED:
            overrides["reference_run"] = os.path.join(out_root, "espo")
        configs[variant] = dataclasses.replace(
            base_config, variant=variant, out_dir=os.path.join(out_root, variant), **overrides)
        require_valid(configs[variant])
    os.makedirs(out_root, exist_ok=True)
    run_dirs = {variant: run_experiment(cfg) for variant, cfg in configs.items()}

    summary = compare_runs(list(run_dirs.values()), baseline_variant="ppo"
                           if "ppo" in run_dirs else "espo")
    with open(os.path.join(out_root, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_comparison(summary) + "\n")
    return run_dirs

