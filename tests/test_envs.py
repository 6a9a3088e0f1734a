"""Synthetic environments: transitions, enumeration, reachability structure."""

from __future__ import annotations

import hashlib
import tracemalloc
from itertools import product

import numpy as np
import pytest

from espolab.config import RunConfig
from espolab.envs import (
    RecoverableBranchSpec,
    StateBudgetError,
    TrapChainSpec,
    build_environment,
    env_spec_from_config,
    generate_target_sequence,
)

from conftest import env_step, oracle_environment

# every family on a grid with its smallest cases: length 1, vocab 2, no
# padding, no repair window
_targets = np.random.default_rng(7)
ORACLE_GRID = [
    *(TrapChainSpec(vocab, length, tuple(int(t) for t in _targets.integers(0, vocab, length)),
                    padding)
      for vocab, length, padding in product((2, 3, 64), (1, 2, 5), (None, 0, 1, 2, 5))),
    *(RecoverableBranchSpec(vocab, length, window)
      for vocab, length, window in product((2, 3, 64), (1, 2, 5), (0, 1, 2, 3))),
]


def rollout_actions(env, actions, t_max=64):
    """Drive the env with a fixed action list; return (length, outcome)."""
    state = env.initial_state
    for t, action in enumerate(actions[:t_max]):
        state, terminal, reward = env_step(env, state, action)
        if terminal:
            return t + 1, reward
    return min(len(actions), t_max), 0.0


class TestTrapChain:
    def setup_method(self):
        self.spec = TrapChainSpec(4, 3, (0, 1, 2), doom_padding=2)
        self.env = build_environment(self.spec)

    def test_all_correct_sequence_terminates_with_reward(self):
        length, reward = rollout_actions(self.env, [0, 1, 2])
        assert (length, reward) == (3, 1.0)

    def test_first_wrong_token_is_irrecoverable(self):
        for tail in ([0, 1, 2], [1, 1, 1], [3, 3, 3]):
            length, reward = rollout_actions(self.env, [3] + tail)
            assert reward == 0.0
            assert length == 1 + self.spec.doom_padding

    def test_exhaustive_enumeration_success_probability(self):
        # oracle: walk every action sequence of length 3; exactly one succeeds
        wins = sum(rollout_actions(self.env, seq)[1] == 1.0
                   for seq in product(range(4), repeat=3))
        assert wins == 1  # probability 1/64 under a uniform policy

    def test_empirical_success_rate_within_binomial_bounds(self):
        rng = np.random.default_rng(0)
        n = 100_000
        p = 1.0 / 64.0
        wins = 0
        for _ in range(n):
            state = self.env.initial_state
            for _t in range(8):
                state, terminal, reward = env_step(self.env, state, int(rng.integers(4)))
                if terminal:
                    wins += reward == 1.0
                    break
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(wins / n - p) <= 3 * sigma

    def test_rewards_sparse_and_binary(self):
        for row_r, row_t in zip(self.env.reward.tolist(), self.env.terminal.tolist()):
            for r, t in zip(row_r, row_t):
                assert r in (0.0, 1.0)
                if r != 0.0:
                    assert t

    def test_doomed_branch_cannot_reach_reward(self):
        # graph traversal: from the doom entry, no path hits a rewarded edge
        doom_states = [i for i, lbl in enumerate(self.env.labels) if lbl.startswith("doom")]
        seen = set(doom_states)
        frontier = list(doom_states)
        while frontier:
            s = frontier.pop()
            for a in range(self.env.vocab_size):
                if self.env.next_state[s, 0] < 0:  # terminal state
                    continue
                nxt, _term, reward = env_step(self.env, s, a)
                assert reward == 0.0
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)

    def test_absorbing_default_runs_to_horizon(self):
        env = build_environment(TrapChainSpec(4, 3, (0, 1, 2), doom_padding=None))
        length, reward = rollout_actions(env, [3] * 50, t_max=50)
        assert (length, reward) == (50, 0.0)


class TestEnumerateStates:
    def test_seven_states_for_k4_l3_padding2(self):
        env = build_environment(TrapChainSpec(4, 3, (0, 1, 2), 2))
        assert env.state_count == len(env.labels) == 7
        assert len(set(env.labels)) == 7  # state i is labels[i], no duplicates

    def test_minimal_graph_for_length_one(self):
        labels = build_environment(TrapChainSpec(2, 1, (0,), 0)).labels
        # chain position 0, success terminal, failure terminal
        assert len(labels) == 3

    def test_stable_ordering_across_calls(self):
        spec = TrapChainSpec(5, 4, (1, 2, 3, 4), 3)
        assert build_environment(spec).labels == build_environment(spec).labels

    def test_budget_exceeded_raises(self):
        with pytest.raises(StateBudgetError):
            build_environment(TrapChainSpec(4, 50, tuple([0] * 50), None), state_budget=10)

    @pytest.mark.parametrize("spec", [TrapChainSpec(4, 3, (0, 1, 2), 10**6),
                                      RecoverableBranchSpec(4, 10, 10**5)],
                             ids=["doom_padding", "repair_window"])
    def test_budget_is_checked_before_any_state_is_enumerated(self, spec):
        # enumerating a million states takes hundreds of MiB
        tracemalloc.start()
        try:
            with pytest.raises(StateBudgetError, match="budget is 100000"):
                build_environment(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_state_count_is_the_number_of_labels(self):
        for spec in ORACLE_GRID:
            assert spec.state_count == len(build_environment(spec).labels), spec


class TestScalarOracle:
    def test_tables_equal_the_per_label_rules(self):
        for spec in ORACLE_GRID:
            env = build_environment(spec)
            labels, moves = oracle_environment(spec)
            assert env.labels == labels, spec
            assert env.initial_state == 0 and env.vocab_size == spec.vocab
            assert (env.next_state.dtype, env.terminal.dtype, env.reward.dtype) == (
                np.int64, np.bool_, np.float64)
            for s, label in enumerate(labels):
                for a in range(spec.vocab):
                    got = (int(env.next_state[s, a]), bool(env.terminal[s, a]),
                           float(env.reward[s, a]))
                    if label.startswith("terminal:"):
                        assert got == (-1, False, 0.0), (spec, label, a)
                    else:
                        nxt, terminal, reward = moves[(label, a)]
                        assert got == (labels.index(nxt), terminal, reward), (spec, label, a)


class TestPinnedTables:
    """sha256 of the transition tables and labels of the benchmark workloads'
    environments, computed before the builder was rewritten: a change meant
    to keep the state numbering keeps these."""

    WORKLOADS = {
        "protocol-espo": (
            dict(vocab_size=8, target_length=12),
            "ed9c79e4e499b5a43da8795bf3713e1c3cf9d7e49ac95711f979a8c848aef221"),
        "wide-vocab-espo": (
            dict(vocab_size=64, target_length=12),
            "d2bf9fe14dfc6237c72f94306ee3954cb22266f1c3b0c60ceff832524b328429"),
        "counterfactual-long": (
            dict(env="recoverable", target_length=48, repair_window=8),
            "ac98338eea767e97d21d33fc128d72cae9e09d5f6c7052f5f0ddee10b6c346c9"),
    }

    @staticmethod
    def digest(env) -> str:
        h = hashlib.sha256()
        for table in (env.next_state, env.terminal, env.reward, env.absorbing):
            h.update(f"{table.dtype.str}{table.shape}".encode())
            h.update(table.tobytes())
        h.update(f"{env.initial_state}\n".encode())
        h.update("\n".join(env.labels).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_workload_tables(self, name):
        keys, want = self.WORKLOADS[name]
        cfg = RunConfig(**keys)
        assert self.digest(build_environment(env_spec_from_config(cfg), cfg.state_budget)) == want


class TestRecoverableBranch:
    def setup_method(self):
        self.spec = RecoverableBranchSpec(4, 3, repair_window=2)
        self.env = build_environment(self.spec)
        self.target = self.spec.target_sequence  # all zeros

    def test_wrong_then_repair_still_succeeds(self):
        # wrong token, repair (the expected token), then complete the chain
        length, reward = rollout_actions(self.env, [2, 0, 0, 0, 0])
        assert reward == 1.0

    def test_no_repair_within_window_dooms(self):
        length, reward = rollout_actions(self.env, [2, 1, 1] + [0] * 30, t_max=20)
        assert reward == 0.0
        assert length == 20  # absorbing doom runs to the cap

    def test_window_zero_reduces_to_trap_chain(self):
        flat = build_environment(RecoverableBranchSpec(4, 3, 0))
        trap = build_environment(TrapChainSpec(4, 3, (0, 0, 0), None))
        rng = np.random.default_rng(1)
        for _ in range(200):
            actions = [int(a) for a in rng.integers(0, 4, size=10)]
            assert rollout_actions(flat, actions) == rollout_actions(trap, actions)

    def test_detour_states_can_reach_reward(self):
        # graph search: every detour state has a path to a rewarded edge
        detours = [i for i, lbl in enumerate(self.env.labels) if lbl.startswith("detour")]
        assert detours
        for start in detours:
            seen = {start}
            frontier = [start]
            found = False
            while frontier and not found:
                s = frontier.pop()
                for a in range(self.env.vocab_size):
                    nxt, term, reward = env_step(self.env, s, a)
                    if reward == 1.0:
                        found = True
                        break
                    if not term and nxt not in seen and self.env.next_state[nxt, 0] >= 0:
                        seen.add(nxt)
                        frontier.append(nxt)
            assert found, f"no path to success from {self.env.labels[start]}"


class TestAbsorbingStates:
    @pytest.mark.parametrize("spec", [
        TrapChainSpec(3, 4, (0, 2, 1, 1)),
        TrapChainSpec(3, 4, (0, 2, 1, 1), doom_padding=0),
        TrapChainSpec(3, 4, (0, 2, 1, 1), doom_padding=3),
        RecoverableBranchSpec(3, 4, 0),
        RecoverableBranchSpec(2, 3, 2),
    ])
    def test_self_loops_with_no_terminal_token(self, spec):
        env = build_environment(spec)
        want = [all(env.next_state[s, a] == s and not env.terminal[s, a]
                    for a in range(env.vocab_size)) for s in range(env.state_count)]
        assert env.absorbing.tolist() == want
        absorbing = [env.labels[s] for s in np.flatnonzero(env.absorbing)]
        finite = getattr(spec, "doom_padding", None) is not None
        assert absorbing == ([] if finite else ["doom:absorb"])


class TestTargetGeneration:
    def test_deterministic_and_in_range(self):
        a = generate_target_sequence(8, 12, seed=5)
        b = generate_target_sequence(8, 12, seed=5)
        assert a == b
        assert all(0 <= t < 8 for t in a)
        assert generate_target_sequence(8, 12, seed=6) != a

    def test_terminal_state_step_rejected(self):
        env = build_environment(TrapChainSpec(4, 3, (0, 1, 2), 2))
        success = next(i for i, lbl in enumerate(env.labels) if lbl == "terminal:success")
        with pytest.raises(ValueError):
            env_step(env, success, 0)
