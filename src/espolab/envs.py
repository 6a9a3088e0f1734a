"""Synthetic token-MDPs with enumerable state graphs.

Both task families share one chain, positions chain:0..L-1: the target token
at position p leads to position p+1, past the last position to
terminal:success with reward 1, and any other token enters the family's
branch:

* trap chain -- the first wrong token is irrecoverable; the doomed branch
  burns steps (a fixed padding, or all the way to the horizon) before
  terminating with reward 0.
* recoverable branch -- a wrong token opens a detour; emitting the expected
  token again within the repair window returns to the chain, otherwise the
  trajectory is doomed.

A spec declares only its branch; `build_environment` writes the chain once
and turns both into dense transition tables. A move ends the episode where it
lands on a `terminal:` state. States are abstract integer ids, so the tabular
actor/critic can enumerate them and a step is an array lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig, parse_target_sequence
from .mdpcore import derived_rng

__all__ = [
    "RecoverableBranchSpec",
    "StateBudgetError",
    "TabularEnv",
    "TrapChainSpec",
    "build_environment",
    "env_signature",
    "env_spec_from_config",
    "generate_target_sequence",
]


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

    @property
    def state_count(self) -> int:
        return self.target_length + 2 + (self.doom_padding or 0)

    def branch(self) -> tuple[list[str], dict]:
        """A countdown doom:n..doom:1 into terminal:failure that every token
        advances, or one absorbing state doom:absorb; wrong tokens enter the first."""
        if self.doom_padding is None:
            moves = {"doom:absorb": (None, None, "doom:absorb")}
        else:
            steps = [f"doom:{r}" for r in range(self.doom_padding, 0, -1)] + ["terminal:failure"]
            moves = {s: (None, None, nxt) for s, nxt in zip(steps, steps[1:])}
            moves["terminal:failure"] = None
        return [next(iter(moves))] * self.target_length, moves


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
        # token 0 at every position: the interesting structure is the detour
        return (0,) * self.target_length

    @property
    def state_count(self) -> int:
        return self.target_length * (1 + self.repair_window) + 2

    def branch(self) -> tuple[list[str], dict]:
        """Detour states detour:p:w for w = window..1: the expected token at
        position p repairs the detour (back to chain:p); any other token
        shrinks the window, and an exhausted window dooms the trajectory into
        doom:absorb, which runs to the horizon."""
        def detour(p: int, w: int) -> str:
            return f"detour:{p}:{w}" if w else "doom:absorb"

        target, window = self.target_sequence, self.repair_window
        moves = {detour(p, w): (target[p], f"chain:{p}", detour(p, w - 1))
                 for p in range(self.target_length) for w in range(window, 0, -1)}
        moves["doom:absorb"] = (None, None, "doom:absorb")
        return [detour(p, window) for p in range(self.target_length)], moves


def generate_target_sequence(vocab: int, length: int, seed: int) -> tuple[int, ...]:
    rng = derived_rng(seed, 3)
    return tuple(int(t) for t in rng.integers(0, vocab, size=length))


def env_spec_from_config(cfg: RunConfig):
    if cfg.env == "trap_chain":
        return TrapChainSpec(cfg.vocab_size, cfg.target_length,
                             parse_target_sequence(cfg), cfg.doom_padding)
    return RecoverableBranchSpec(cfg.vocab_size, cfg.target_length, cfg.repair_window)


def env_signature(cfg: RunConfig) -> tuple:
    """What must agree for runs to be comparable: the environment and the horizon."""
    return env_spec_from_config(cfg), cfg.t_max


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


def build_environment(spec, state_budget: int = RunConfig.state_budget) -> TabularEnv:
    """The environment of a spec; state i is labelled labels[i].

    The states are the chain positions, terminal:success, then the spec's
    branch. spec.branch() gives the state each chain position's wrong tokens
    enter, and the branch states in order with their moves: (token, where it
    leads, where any other token leads), token None for every token, and no
    move for a terminal state. The chain's moves are written here. The state
    count is checked against the budget before any state is enumerated.
    """
    if spec.state_count > state_budget:
        raise StateBudgetError(f"spec enumerates {spec.state_count} states, "
                               f"budget is {state_budget}")
    entries, branch = spec.branch()
    chain = [f"chain:{p}" for p in range(spec.target_length)] + ["terminal:success"]
    moves = {s: (token, nxt, wrong) for s, nxt, token, wrong
             in zip(chain, chain[1:], spec.target_sequence, entries)}
    moves["terminal:success"] = None
    moves.update(branch)
    labels = list(moves)
    index = {label: s for s, label in enumerate(labels)}

    next_state = np.full((len(labels), spec.vocab), -1, dtype=np.int64)
    for s, move in enumerate(moves.values()):
        if move is not None:
            token, on_token, otherwise = move
            next_state[s] = index[otherwise]
            if token is not None:
                next_state[s, token] = index[on_token]
    # the trailing False is what the -1 of a terminal state's row reads
    ends = np.array([label.startswith("terminal:") for label in labels] + [False])
    reward = (next_state == index["terminal:success"]).astype(np.float64)
    return TabularEnv(spec.vocab, next_state, ends[next_state], reward,
                      initial_state=0, labels=labels)
