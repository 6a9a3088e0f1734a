"""Numeric primitives and keyed random streams.

Policies are categorical distributions over a small token vocabulary,
represented as unnormalized logit vectors. Everything here is a pure function
over value data.
"""

from __future__ import annotations

import numpy as np

__all__ = [
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
