"""Tabular softmax actor and tabular critic with exact analytic gradients.

One logit row per enumerable environment state; scalar value per state.
Exact gradients make the PPO update verifiable against finite differences.
"""

from __future__ import annotations

import numpy as np

from .mdpcore import INIT_STREAM, derived_rng, log_softmax

__all__ = [
    "MissingStateError",
    "TabularActor",
    "TabularCritic",
    "load_params",
    "log_prob_grad",
    "save_params",
]


class MissingStateError(KeyError):
    """Raised when a state id has no entry in the parameter table."""


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

    def _check_state(self, state_id: int) -> None:
        if not 0 <= state_id < self.state_count:
            raise MissingStateError(f"unknown state {state_id} (table has {self.state_count})")

    def logits_for(self, state_id: int) -> np.ndarray:
        """Current parameter row, as a copy so callers cannot mutate it."""
        self._check_state(state_id)
        return self.table[state_id].copy()

    def set_row(self, state_id: int, logits) -> None:
        self._check_state(state_id)
        row = np.asarray(logits, dtype=np.float64)
        if row.shape != (self.vocab_size,):
            raise ValueError("row length must equal vocab_size")
        self.table[state_id] = row

    def log_probs_for(self, state_id: int) -> np.ndarray:
        return log_softmax(self.logits_for(state_id))

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

    def _check_state(self, state_id: int) -> None:
        if not 0 <= state_id < self.state_count:
            raise MissingStateError(f"unknown state {state_id} (table has {self.state_count})")

    def value_for(self, state_id: int) -> float:
        self._check_state(state_id)
        return float(self.table[state_id])

    def set_value(self, state_id: int, value: float) -> None:
        self._check_state(state_id)
        self.table[state_id] = float(value)

    def apply_gradient(self, grad: np.ndarray, lr: float) -> None:
        """Gradient-descent step on the value loss: values -= lr * grad."""
        _check_gradient(grad, self.table.shape, "critic")
        self.table -= lr * grad

    def copy(self) -> "TabularCritic":
        clone = TabularCritic(self.state_count)
        clone.table = self.table.copy()
        return clone


def log_prob_grad(actor: TabularActor, state_id: int, action: int) -> np.ndarray:
    """Analytic d log pi(action|state) / d logits[state]: one_hot(action) - pi(.|state)."""
    probs = np.exp(actor.log_probs_for(state_id))
    if not 0 <= action < actor.vocab_size:
        raise ValueError(f"action {action} outside vocabulary of size {actor.vocab_size}")
    grad = -probs
    grad[action] += 1.0
    return grad


def save_params(actor: TabularActor, critic: TabularCritic, path) -> None:
    """Flat key->value text snapshot; floats serialized via repr (lossless)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"shape {actor.state_count} {actor.vocab_size}\n")
        for s in range(actor.state_count):
            for k in range(actor.vocab_size):
                fh.write(f"actor {s} {k} {float(actor.table[s, k])!r}\n")
        for s in range(critic.state_count):
            fh.write(f"critic {s} {float(critic.table[s])!r}\n")


def load_params(path) -> tuple[TabularActor, TabularCritic]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "shape":
            raise ValueError(f"{path}: malformed parameter snapshot header")
        state_count, vocab_size = int(header[1]), int(header[2])
        actor = TabularActor(state_count, vocab_size)
        critic = TabularCritic(state_count)
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "actor":
                actor.table[int(parts[1]), int(parts[2])] = float(parts[3])
            elif parts[0] == "critic":
                critic.table[int(parts[1])] = float(parts[2])
            else:
                raise ValueError(f"{path}: unknown record {parts[0]!r}")
    return actor, critic
