"""Tabular softmax actor and tabular critic with exact analytic gradients.

One logit row per enumerable environment state; scalar value per state.
Exact gradients make the PPO update verifiable against finite differences.
"""

from __future__ import annotations

import math

import numpy as np

from .mdpcore import INIT_STREAM, derived_rng
from .metrics import replacing

__all__ = [
    "TabularActor",
    "TabularCritic",
    "load_params",
    "save_params",
]


def _check_gradient(grad: np.ndarray, shape: tuple, name: str) -> None:
    """Reject a gradient of the wrong shape or with a non-finite entry before
    any parameter moves."""
    if grad.shape != shape:
        raise ValueError(f"{name} gradient shape {grad.shape} does not match table {shape}")
    if not np.isfinite(grad).all():
        bad = np.argwhere(~np.isfinite(grad))
        raise ValueError(f"non-finite {name} gradient at {bad[:5].tolist()} (update rejected)")


class TabularActor:
    """Softmax policy parameterized by a (state_count, vocab_size) logit table.

    init_scale 0.0 gives the all-zero (uniform) initialization; a positive
    scale draws seeded Gaussian logits, which keeps the policy near-uniform
    but breaks the exact symmetry of the zero table.
    """

    def __init__(self, state_count: int, vocab_size: int,
                 init_scale: float = 0.0, seed: int = 0):
        if state_count < 1 or vocab_size < 2:
            raise ValueError("need at least one state and two tokens")
        self.state_count = state_count
        self.vocab_size = vocab_size
        if init_scale > 0.0:
            rng = derived_rng(seed, INIT_STREAM, 0)
            self.table = rng.normal(0.0, init_scale, size=(state_count, vocab_size))
        else:
            self.table = np.zeros((state_count, vocab_size), dtype=np.float64)

    def apply_gradient(self, grad: np.ndarray, lr: float) -> None:
        """Gradient-ascent step on the (state_count, vocab_size) partials:
        logits += lr * grad."""
        _check_gradient(grad, self.table.shape, "actor")
        self.table += lr * grad

    def copy(self) -> "TabularActor":
        clone = TabularActor(self.state_count, self.vocab_size)
        clone.table = self.table.copy()
        return clone


class TabularCritic:
    """State-value table; plain MSE-regression parameters."""

    def __init__(self, state_count: int):
        if state_count < 1:
            raise ValueError("need at least one state")
        self.state_count = state_count
        self.table = np.zeros(state_count, dtype=np.float64)

    def apply_gradient(self, grad: np.ndarray, lr: float) -> None:
        """Gradient-descent step on the value loss: values -= lr * grad."""
        _check_gradient(grad, self.table.shape, "critic")
        self.table -= lr * grad

    def copy(self) -> "TabularCritic":
        clone = TabularCritic(self.state_count)
        clone.table = self.table.copy()
        return clone


def save_params(actor: TabularActor, critic: TabularCritic, path) -> None:
    """Flat key->value text snapshot; floats serialized via repr (lossless).
    The file is replaced whole, so a failed write keeps the previous one.
    One write per actor row holds one row's lines in memory at a time. A
    critic table that does not fit the actor's states is refused first."""
    states, vocab = actor.table.shape
    if critic.table.shape != (states,):
        raise ValueError(f"critic table {critic.table.shape} does not fit {states} states")
    with replacing(path) as fh:
        fh.write(f"shape {states} {vocab}\n")
        for s, row in enumerate(actor.table):
            fh.write("".join([f"actor {s} {k} {v!r}\n" for k, v in enumerate(row.tolist())]))
        fh.write("".join([f"critic {s} {v!r}\n" for s, v in enumerate(critic.table.tolist())]))


def load_params(path) -> tuple[TabularActor, TabularCritic]:
    """Read a save_params snapshot. Every actor and critic entry of the shape
    in the header must appear exactly once, with integer indices and a finite
    value; a torn, padded or corrupt file is rejected, naming the file, rather
    than loaded with zeros, overwritten or non-finite entries."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        try:
            state_count, vocab_size = map(int, header[1:]) if header[:1] == ["shape"] else ()
            actor = TabularActor(state_count, vocab_size)
        except ValueError:
            raise ValueError(f"{path}: malformed parameter snapshot header") from None
        critic = TabularCritic(state_count)
        seen = set()
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            table = {"actor": actor.table, "critic": critic.table}.get(parts[0])
            try:
                index, value = tuple(map(int, parts[1:-1])), float(parts[-1])
            except ValueError:
                index = None
            if table is None or index is None or len(index) != table.ndim:
                raise ValueError(f"{path}: malformed record {line.strip()!r}")
            if not math.isfinite(value):
                raise ValueError(f"{path}: non-finite {parts[0]} entry {index}: {parts[-1]}")
            if not all(0 <= i < n for i, n in zip(index, table.shape)):
                raise ValueError(f"{path}: {parts[0]} entry {index} outside shape {table.shape}")
            if (parts[0], index) in seen:
                raise ValueError(f"{path}: duplicate {parts[0]} entry {index}")
            seen.add((parts[0], index))
            table[index] = value
    expected = actor.table.size + critic.table.size
    if len(seen) != expected:
        raise ValueError(f"{path}: holds {len(seen)} of {expected} parameter entries")
    return actor, critic
