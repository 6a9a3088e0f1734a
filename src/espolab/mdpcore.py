"""Numeric primitives, keyed random streams and per-trajectory records.

Policies are categorical distributions over a small token vocabulary,
represented as unnormalized logit vectors. Everything here is a pure function
over value data. A collected batch is stored as arrays (rollout.RolloutBatch);
StepRecord and Trajectory are the per-trajectory view of one row of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "StepRecord",
    "StopReason",
    "Trajectory",
    "derived_rng",
    "log_softmax",
    "trajectory_rng",
]

# Stream tags keep training / evaluation / initialization draws on disjoint
# branches of the same master seed.
TRAIN_STREAM = 0
EVAL_STREAM = 1
INIT_STREAM = 2


def log_softmax(logits, axis: int = -1) -> np.ndarray:
    """Convert logits to log-probabilities with max-subtraction stability.

    Works on a single logit vector or row-wise on a 2-D table. Adding a
    constant to all logits leaves the output unchanged (up to float rounding),
    and logit differences are preserved exactly up to rounding, which is what
    makes the regret signal computable from either representation.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if arr.shape[axis] < 2:
        raise ValueError("log_softmax requires a vocabulary of at least 2")
    if not np.all(np.isfinite(arr)):
        raise ValueError("log_softmax requires finite logits")
    shifted = arr - arr.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted - lse


def derived_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (master_seed, key...).

    Streams are keyed, not sequential, so any draw order across workers or
    call sites yields identical results.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


def trajectory_rng(master_seed: int, batch_index: int, traj_index: int) -> np.random.Generator:
    """Per-trajectory stream keyed by (batch, index): independent of the order
    in which trajectories are collected."""
    return derived_rng(master_seed, TRAIN_STREAM, batch_index, traj_index)


class StopReason(Enum):
    NATURAL_END = "natural_end"
    HORIZON_CAP = "horizon_cap"
    EARLY_STOP = "early_stop"


@dataclass(slots=True)
class StepRecord:
    """One generation step as recorded at collection time: one column of one
    row of a RolloutBatch.

    Treated as immutable after construction. regret_raw is g_t, the state's
    maximum log-prob minus log_prob_sampled; regret_normalized is the clipped
    z-scored value under the frozen batch statistics, and smoothed_score is
    the running statistic z_t after this step's accumulation. Steps carry no
    reward: only the last step of a trajectory is rewarded, with
    Trajectory.outcome_reward.
    """

    state_id: int
    action: int
    log_prob_sampled: float
    value_estimate: float
    regret_raw: float
    regret_normalized: float
    smoothed_score: float


@dataclass(frozen=True)
class Trajectory:
    """One rollout, a row of a RolloutBatch. hypothetical_stop_index is set only in counterfactual-
    extend mode, at the step where the stop criterion would have fired; the
    rollout continued to its natural end and earned outcome_reward."""

    steps: tuple[StepRecord, ...]
    stop_reason: StopReason
    outcome_reward: float
    hypothetical_stop_index: int | None = None

    @property
    def stop_index(self) -> int | None:
        """Step at which the stop rule fired, in earnest or hypothetically."""
        if self.hypothetical_stop_index is not None:
            return self.hypothetical_stop_index
        if self.stop_reason is StopReason.EARLY_STOP:
            return len(self.steps) - 1
        return None

    @property
    def effective_length(self) -> int:
        """Length of the trained-on span: up to the hypothetical stop, if any."""
        if self.hypothetical_stop_index is not None:
            return self.hypothetical_stop_index + 1
        return len(self.steps)
