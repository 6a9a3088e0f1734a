"""Synthetic token-MDPs with enumerable state graphs.

Two task families:

* trap chain -- the first wrong token is irrecoverable; the doomed branch
  burns steps (a fixed padding, or all the way to the horizon) before
  terminating with reward 0.
* recoverable branch -- a wrong token opens a detour; emitting the expected
  token again within the repair window returns to the chain, otherwise the
  trajectory is doomed.

States are abstract integer ids over precomputed transition tables, so the
tabular actor/critic can enumerate them and a step is an array lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdpcore import derived_rng

__all__ = [
    "RecoverableBranchSpec",
    "StateBudgetError",
    "TabularEnv",
    "TrapChainSpec",
    "build_recoverable",
    "build_environment",
    "build_trap_chain",
    "generate_target_sequence",
]

DEFAULT_STATE_BUDGET = 100_000


class StateBudgetError(ValueError):
    """Spec would enumerate more states than the configured budget."""


@dataclass(frozen=True)
class TrapChainSpec:
    vocab: int
    target_length: int
    target_sequence: tuple[int, ...]
    doom_padding: int | None = None  # None: doomed branch absorbs until the horizon

    def __post_init__(self):
        if self.vocab < 2:
            raise ValueError("vocab must be >= 2")
        if self.target_length < 1:
            raise ValueError("target_length must be >= 1")
        if len(self.target_sequence) != self.target_length:
            raise ValueError("target_sequence length must equal target_length")
        if any(not 0 <= t < self.vocab for t in self.target_sequence):
            raise ValueError("target tokens must lie in [0, vocab)")
        if self.doom_padding is not None and self.doom_padding < 0:
            raise ValueError("doom_padding must be >= 0")


@dataclass(frozen=True)
class RecoverableBranchSpec:
    vocab: int
    target_length: int
    repair_window: int

    def __post_init__(self):
        if self.vocab < 2:
            raise ValueError("vocab must be >= 2")
        if self.target_length < 1:
            raise ValueError("target_length must be >= 1")
        if self.repair_window < 0:
            raise ValueError("repair_window must be >= 0")

    @property
    def target_sequence(self) -> tuple[int, ...]:
        # Recoverable chains use token 0 at every position; the interesting
        # structure is the detour, not the target pattern.
        return tuple(0 for _ in range(self.target_length))


def generate_target_sequence(vocab: int, length: int, seed: int) -> tuple[int, ...]:
    rng = derived_rng(seed, 3)
    return tuple(int(t) for t in rng.integers(0, vocab, size=length))


class TabularEnv:
    """Deterministic environment backed by dense transition tables.

    Taking token a in state s leads to next_state[s, a]; the episode ends
    there when terminal[s, a], with reward reward[s, a]. Rows of terminal
    states hold -1 and are never stepped from. Collection and evaluation
    advance whole batches of episodes by indexing these arrays.

    absorbing[s] is True where every token leads from s back to s and none
    ends the episode: an episode in s stays there until the horizon and can
    never earn a reward.
    """

    def __init__(self, vocab_size: int, next_state: np.ndarray, terminal: np.ndarray,
                 reward: np.ndarray, initial_state: int, labels: list[str]):
        self.vocab_size = vocab_size
        self.state_count = next_state.shape[0]
        self.initial_state = initial_state
        self.labels = labels
        self.next_state = next_state
        self.terminal = terminal
        self.reward = reward
        self.absorbing = ((next_state == np.arange(self.state_count)[:, None]).all(axis=1)
                          & ~terminal.any(axis=1))


def _check_budget(count: int, budget: int) -> None:
    if count > budget:
        raise StateBudgetError(f"spec enumerates {count} states, budget is {budget}")


def build_trap_chain(spec: TrapChainSpec, state_budget: int = DEFAULT_STATE_BUDGET) -> TabularEnv:
    """State graph: chain positions 0..L-1, a success terminal, the doomed
    branch (countdown states for finite padding, or a single absorbing state),
    and a failure terminal when the doomed branch terminates on its own."""
    k, length = spec.vocab, spec.target_length
    labels = [f"chain:{p}" for p in range(length)]
    chain = list(range(length))
    success = len(labels)
    labels.append("terminal:success")

    if spec.doom_padding is None:
        absorb = len(labels)
        labels.append("doom:absorb")
        doom_entry, fail = absorb, None
    else:
        doom = {}
        for r in range(spec.doom_padding, 0, -1):
            doom[r] = len(labels)
            labels.append(f"doom:{r}")
        fail = len(labels)
        labels.append("terminal:failure")
        doom_entry = doom[spec.doom_padding] if spec.doom_padding > 0 else None

    count = len(labels)
    _check_budget(count, state_budget)

    next_state = np.full((count, k), -1, dtype=np.int64)
    terminal = np.zeros((count, k), dtype=bool)
    reward = np.zeros((count, k), dtype=np.float64)

    for p in chain:
        correct = spec.target_sequence[p]
        for a in range(k):
            if a == correct:
                if p + 1 < length:
                    next_state[p, a] = p + 1
                else:
                    next_state[p, a] = success
                    terminal[p, a] = True
                    reward[p, a] = 1.0
            elif spec.doom_padding is None:
                next_state[p, a] = doom_entry
            elif spec.doom_padding == 0:
                next_state[p, a] = fail
                terminal[p, a] = True
            else:
                next_state[p, a] = doom_entry

    if spec.doom_padding is None:
        next_state[doom_entry, :] = doom_entry
    else:
        for r in range(spec.doom_padding, 0, -1):
            s = doom[r]
            if r > 1:
                next_state[s, :] = doom[r - 1]
            else:
                next_state[s, :] = fail
                terminal[s, :] = True

    return TabularEnv(k, next_state, terminal, reward, initial_state=0, labels=labels)


def build_recoverable(spec: RecoverableBranchSpec,
                      state_budget: int = DEFAULT_STATE_BUDGET) -> TabularEnv:
    """Chain positions plus detour states detour(p, w): the expected token at
    position p repairs the detour (back to chain position p); any other token
    shrinks the window, and an exhausted window dooms the trajectory into an
    absorbing branch that runs to the horizon."""
    k, length, window = spec.vocab, spec.target_length, spec.repair_window
    target = spec.target_sequence
    labels = [f"chain:{p}" for p in range(length)]
    success = len(labels)
    labels.append("terminal:success")
    detour = {}
    for p in range(length):
        for w in range(window, 0, -1):
            detour[(p, w)] = len(labels)
            labels.append(f"detour:{p}:{w}")
    absorb = len(labels)
    labels.append("doom:absorb")

    count = len(labels)
    _check_budget(count, state_budget)

    next_state = np.full((count, k), -1, dtype=np.int64)
    terminal = np.zeros((count, k), dtype=bool)
    reward = np.zeros((count, k), dtype=np.float64)

    for p in range(length):
        correct = target[p]
        for a in range(k):
            if a == correct:
                if p + 1 < length:
                    next_state[p, a] = p + 1
                else:
                    next_state[p, a] = success
                    terminal[p, a] = True
                    reward[p, a] = 1.0
            elif window >= 1:
                next_state[p, a] = detour[(p, window)]
            else:
                next_state[p, a] = absorb

    for (p, w), s in detour.items():
        repair = target[p]
        for a in range(k):
            if a == repair:
                next_state[s, a] = p
            elif w > 1:
                next_state[s, a] = detour[(p, w - 1)]
            else:
                next_state[s, a] = absorb

    next_state[absorb, :] = absorb

    return TabularEnv(k, next_state, terminal, reward, initial_state=0, labels=labels)


def build_environment(spec, state_budget: int = DEFAULT_STATE_BUDGET) -> TabularEnv:
    """The environment of a spec; state i is labelled labels[i]."""
    if isinstance(spec, TrapChainSpec):
        return build_trap_chain(spec, state_budget)
    if isinstance(spec, RecoverableBranchSpec):
        return build_recoverable(spec, state_budget)
    raise TypeError(f"unknown environment spec {type(spec).__name__}")
