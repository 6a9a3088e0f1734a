"""Shared fixtures: small environments, policies, collection helpers, and the
surrogate-objective reference."""

from __future__ import annotations

import math

import pytest

from espolab.envs import TrapChainSpec, build_trap_chain
from espolab.mdpcore import log_softmax
from espolab.policy import TabularActor, TabularCritic
from espolab.rollout import CollectionMode, collect_batch
from espolab.stopper import StopperSnapshot


@pytest.fixture
def small_env():
    """Trap chain K=4, L=3, padding=2 (7 states)."""
    return build_trap_chain(TrapChainSpec(4, 3, (0, 1, 2), 2))


def random_actor(env, rng, scale=1.0):
    actor = TabularActor(env.state_count, env.vocab_size)
    actor.table = rng.normal(0.0, scale, size=actor.table.shape)
    return actor


def random_critic(env, rng, scale=0.5):
    critic = TabularCritic(env.state_count)
    critic.table = rng.normal(0.0, scale, size=critic.table.shape)
    return critic


def plain_snapshot(**overrides) -> StopperSnapshot:
    """Snapshot with inert statistics and warmup released."""
    defaults = dict(frozen_mu=0.0, frozen_var=1.0, warmup_active=False)
    defaults.update(overrides)
    return StopperSnapshot(**defaults)


def collect_small_batch(env, actor, critic, snapshot=None, batch_size=4, t_max=8,
                        mode=None, r_fail=-1.0, seed=0, batch_index=1):
    snapshot = snapshot if snapshot is not None else plain_snapshot()
    mode = mode if mode is not None else CollectionMode.standard()
    return collect_batch(actor, critic, snapshot, env, batch_size, t_max, mode,
                         r_fail, seed, batch_index)


def ppo_surrogate_value(actor, batch, advantage_sets, config) -> float:
    """Mean clipped surrogate over the unmasked steps, the objective whose
    gradient ppo_surrogate_grad returns; the finite-difference reference."""
    table = log_softmax(actor.table, axis=-1)
    lo, hi = 1.0 - config.clip_ratio, 1.0 + config.clip_ratio
    total = 0.0
    included = 0
    for traj, advset in zip(batch.trajectories, advantage_sets):
        for rec, adv in zip(traj.steps, advset.advantages):
            ratio = math.exp(table[rec.state_id, rec.action] - rec.log_prob_sampled)
            if not math.isfinite(ratio):
                continue
            included += 1
            total += min(ratio * adv, min(max(ratio, lo), hi) * adv)
    return total / included if included else 0.0
