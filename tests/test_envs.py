"""Synthetic environments: transitions, enumeration, reachability structure."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from espolab.envs import (
    RecoverableBranchSpec,
    StateBudgetError,
    TrapChainSpec,
    build_environment,
    build_recoverable,
    build_trap_chain,
    generate_target_sequence,
)

from conftest import env_step


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
        self.env = build_trap_chain(self.spec)

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
        env = build_trap_chain(TrapChainSpec(4, 3, (0, 1, 2), doom_padding=None))
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


class TestRecoverableBranch:
    def setup_method(self):
        self.spec = RecoverableBranchSpec(4, 3, repair_window=2)
        self.env = build_recoverable(self.spec)
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
        flat = build_recoverable(RecoverableBranchSpec(4, 3, 0))
        trap = build_trap_chain(TrapChainSpec(4, 3, (0, 0, 0), None))
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

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrapChainSpec(1, 3, (0, 0, 0))
        with pytest.raises(ValueError):
            TrapChainSpec(4, 3, (0, 9, 0))
        with pytest.raises(ValueError):
            TrapChainSpec(4, 2, (0, 0, 0))

    def test_terminal_state_step_rejected(self):
        env = build_trap_chain(TrapChainSpec(4, 3, (0, 1, 2), 2))
        success = next(i for i, lbl in enumerate(env.labels) if lbl == "terminal:success")
        with pytest.raises(ValueError):
            env_step(env, success, 0)
