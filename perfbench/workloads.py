"""The benchmark's workloads and the checks every run's outputs must pass.

Each workload is a flat `RunConfig` keyword dict; the seed comes from the
command line and becomes `RunConfig.seed`. Seed 0 is pinned: its output
digests live in `pinned_seed0.json` next to this file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned_seed0.json")
PINNED_SEED = 0
MICRO_STEP = 50  # the step whose batch the frozen-batch microbenchmarks use

# The acceptance protocol (tests/test_acceptance.py PROTOCOL) with variant espo.
PROTOCOL = dict(
    variant="espo", vocab_size=8, target_length=12, t_max=64, batch_size=64,
    total_steps=300, actor_init_scale=1.0, eta_beta=1.0, target_stop_rate=0.5,
    eval_episodes=1024,
)


@dataclass(frozen=True)
class Workload:
    config: dict
    checked_files: tuple[str, ...]
    smoke_overrides: dict


WORKLOADS = {
    "protocol-espo": Workload(
        config=PROTOCOL,
        checked_files=("metrics.csv",),
        smoke_overrides=dict(total_steps=4, eval_episodes=16),
    ),
    "wide-vocab-espo": Workload(
        config={**PROTOCOL, "vocab_size": 64, "epochs_per_batch": 4, "total_steps": 100},
        checked_files=("metrics.csv",),
        smoke_overrides=dict(total_steps=4, eval_episodes=16),
    ),
    "counterfactual-long": Workload(
        config=dict(
            variant="espo", counterfactual=True, env="recoverable", target_length=48,
            repair_window=8, batch_size=8, t_max=512, total_steps=300,
            actor_init_scale=1.0, eta_beta=1.0, target_stop_rate=0.5,
            eval_every=50, eval_episodes=256, checkpoint_every=50,
            record_stop_events=True,
        ),
        checked_files=("metrics.csv", "eval.csv", "stop_events.tsv"),
        smoke_overrides=dict(total_steps=4, eval_every=2, checkpoint_every=2,
                             eval_episodes=16),
    ),
}


def workload_config(name: str, seed: int, out_dir: str, smoke: bool = False) -> dict:
    """RunConfig keywords for one run of a workload."""
    wl = WORKLOADS[name]
    config = {**wl.config, "seed": seed, "out_dir": out_dir}
    if smoke:
        config.update(wl.smoke_overrides)
    return config


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def output_digests(name: str, run_dir: str) -> dict[str, str]:
    return {f: sha256_file(os.path.join(run_dir, f)) for f in WORKLOADS[name].checked_files}


def check_metrics_rows(path: str, total_steps: int) -> list[str]:
    """Rows run 1..total_steps with non-decreasing cumulative_tokens."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    if header[:2] != ["step", "cumulative_tokens"]:
        return [f"{path}: unexpected header {header[:2]}"]
    problems = []
    steps = [int(r[0]) for r in rows]
    if steps != list(range(1, total_steps + 1)):
        problems.append(f"{path}: steps are not 1..{total_steps}")
    tokens = [int(r[1]) for r in rows]
    if any(b < a for a, b in zip(tokens, tokens[1:])):
        problems.append(f"{path}: cumulative_tokens decreases")
    return problems


def load_pinned() -> dict[str, dict[str, str]]:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest_mismatches(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """Files whose digest differs from (or is missing in) the reference."""
    return sorted(f for f in want if got.get(f) != want[f])
