"""Tabular actor/critic: storage, analytic gradients, updates, snapshots."""

from __future__ import annotations

import math

import numpy as np
import pytest

from espolab.config import RunConfig
from espolab.mdpcore import log_softmax
from espolab.policy import TabularActor, TabularCritic, load_params, save_params
from espolab.rollout import CachedPolicy
from espolab.trainer import ppo_surrogate_grad

from conftest import (
    StepRecord,
    StopReason,
    Trajectory,
    advantage_set,
    batch_from_trajectories,
    params_text,
)


def log_prob_grad(actor, state, action):
    """d log pi(action|state) / d logits[state], read from ppo_surrogate_grad
    on a one-step on-policy batch with advantage 1: the ratio is exactly 1, so
    the surrogate gradient is the log-prob gradient."""
    lp = float(log_softmax(actor.table, axis=-1)[state, action])
    traj = Trajectory((StepRecord(state, action, lp, 0.0, 0.0, 0.0, 0.0),),
                      StopReason.NATURAL_END, 0.0)
    batch = batch_from_trajectories([traj], shape=actor.table.shape)
    grad, _clip_fraction = ppo_surrogate_grad(
        actor, batch, advantage_set(batch, [((1.0,), (0.0,), (0.0,))]), RunConfig())
    return grad[state]


def fd_log_prob_grad(actor, state, action, h=1e-5):
    """Central finite differences of log pi(action|state) w.r.t. each logit."""
    out = np.zeros(actor.vocab_size)
    for k in range(actor.vocab_size):
        base = actor.table[state, k]
        actor.table[state, k] = base + h
        up = log_softmax(actor.table[state])[action]
        actor.table[state, k] = base - h
        down = log_softmax(actor.table[state])[action]
        actor.table[state, k] = base
        out[k] = (up - down) / (2 * h)
    return out


class TestActorTable:
    def test_fresh_actor_is_all_zero(self):
        actor = TabularActor(5, 4)
        assert np.array_equal(actor.table[3], np.zeros(4))

    def test_single_update_arithmetic(self):
        actor = TabularActor(3, 4)
        grad = np.zeros((3, 4))
        grad[1, 0] = 1.0
        actor.apply_gradient(grad, 0.1)
        assert actor.table[1, 0] == pytest.approx(0.1, abs=1e-15)
        assert np.array_equal(actor.table[1, 1:], np.zeros(3))
        assert np.array_equal(actor.table[0], np.zeros(4))

    def test_row_round_trip(self):
        # a row written to the table is the row collection samples from
        actor, critic = TabularActor(2, 3), TabularCritic(2)
        row = np.array([0.5, -1.25, 3.75])
        actor.table[0] = row
        assert CachedPolicy(actor, critic).log_probs[0].tolist() == log_softmax(row).tolist()

    def test_unknown_state_raises(self, tmp_path):
        # a snapshot entry for a state outside the header's shape is rejected
        path = tmp_path / "params.txt"
        for record in ("actor 7 0 1.0", "actor 0 3 1.0", "critic -1 1.0"):
            save_params(TabularActor(2, 3), TabularCritic(2), path)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(record + "\n")
            with pytest.raises(ValueError, match="outside"):
                load_params(path)

    def test_copy_is_independent(self):
        actor, critic = TabularActor(2, 3), TabularCritic(2)
        actor_copy, critic_copy = actor.copy(), critic.copy()
        actor_copy.table[0, 0] = 99.0
        critic_copy.table[0] = 99.0
        assert actor.table[0, 0] == 0.0 and critic.table[0] == 0.0

    def test_seeded_noise_init_reproducible(self):
        a = TabularActor(4, 3, init_scale=1.0, seed=9)
        b = TabularActor(4, 3, init_scale=1.0, seed=9)
        c = TabularActor(4, 3, init_scale=1.0, seed=10)
        assert np.array_equal(a.table, b.table)
        assert not np.array_equal(a.table, c.table)


class TestLogProbGrad:
    def test_uniform_two_token_case(self):
        actor = TabularActor(1, 2)
        grad = log_prob_grad(actor, 0, 0)
        assert grad.shape == (2,)
        assert grad[0] == pytest.approx(0.5, abs=1e-12)
        assert grad[1] == pytest.approx(-0.5, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        actor = TabularActor(10, 5)
        for _ in range(100):
            actor.table = rng.normal(0, 1.5, size=(10, 5))
            state = int(rng.integers(10))
            action = int(rng.integers(5))
            grad = log_prob_grad(actor, state, action)
            fd = fd_log_prob_grad(actor, state, action)
            for k in range(5):
                a = grad[k]
                denom = max(abs(a), abs(fd[k]), 1e-8)
                assert abs(a - fd[k]) / denom < 1e-4

    def test_mode_gradient_vanishes_when_near_deterministic(self):
        actor = TabularActor(1, 4)
        actor.table[0] = [30.0, 0.0, 0.0, 0.0]
        grad = log_prob_grad(actor, 0, 0)
        assert all(abs(grad[k]) < 1e-9 for k in range(4))

    def test_partials_sum_to_zero(self):
        rng = np.random.default_rng(4)
        actor = TabularActor(1, 6)
        for _ in range(50):
            actor.table[0] = rng.normal(0, 2, size=6)
            grad = log_prob_grad(actor, 0, int(rng.integers(6)))
            assert abs(math.fsum(grad)) < 1e-10


class TestCritic:
    def test_fresh_critic_is_zero(self):
        assert TabularCritic(3).table[1] == 0.0

    def test_one_mse_step_toward_target(self):
        # loss (V - 1)^2, dL/dV at V=0 is -2; descent with lr 0.5 lands on 1.0
        critic = TabularCritic(1)
        grad = np.array([2.0 * (critic.table[0] - 1.0)])
        assert grad[0] == -2.0
        critic.apply_gradient(grad, 0.5)
        assert critic.table[0] == pytest.approx(1.0, abs=1e-15)

    def test_set_then_read(self):
        # a value written to the table is the value collection records
        critic = TabularCritic(2)
        critic.table[1] = -0.75
        assert CachedPolicy(TabularActor(2, 3), critic).values[1] == -0.75


class TestApplyUpdates:
    def test_zero_gradients_leave_parameters_unchanged(self):
        actor, critic = TabularActor(2, 3, init_scale=1.0, seed=4), TabularCritic(2)
        critic.table = np.array([0.25, -0.5])
        before_a, before_c = actor.table.copy(), critic.table.copy()
        actor.apply_gradient(np.zeros((2, 3)), 0.1)
        critic.apply_gradient(np.zeros(2), 0.1)
        assert np.array_equal(actor.table, before_a)
        assert np.array_equal(critic.table, before_c)

    def test_two_sequential_updates_equal_one_summed(self):
        g1 = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, -1.0]])
        g2 = np.array([[0.25, 2.0, 0.0], [0.0, 0.0, 0.0]])
        a_seq, a_sum = TabularActor(2, 3), TabularActor(2, 3)
        a_seq.apply_gradient(g1, 0.1)
        a_seq.apply_gradient(g2, 0.1)
        a_sum.apply_gradient(g1 + g2, 0.1)
        assert np.allclose(a_seq.table, a_sum.table, atol=1e-15)

    def test_single_entry_moves_only_that_logit(self):
        actor = TabularActor(2, 3)
        grad = np.zeros((2, 3))
        grad[1, 1] = 1.0
        actor.apply_gradient(grad, 0.01)
        expected = np.zeros((2, 3))
        expected[1, 1] = 0.01
        assert np.array_equal(actor.table, expected)

    def test_non_finite_gradient_rejected_with_diagnostic(self):
        actor, critic = TabularActor(1, 2), TabularCritic(1)
        with pytest.raises(ValueError, match="rejected"):
            actor.apply_gradient(np.array([[0.5, float("nan")]]), 0.1)
        with pytest.raises(ValueError, match="rejected"):
            critic.apply_gradient(np.array([float("inf")]), 0.1)
        assert np.array_equal(actor.table, np.zeros((1, 2)))
        assert np.array_equal(critic.table, np.zeros(1))

    def test_wrong_shape_rejected_before_any_change(self):
        actor, critic = TabularActor(2, 3), TabularCritic(2)
        with pytest.raises(ValueError, match="shape"):
            actor.apply_gradient(np.ones((3,)), 0.1)
        with pytest.raises(ValueError, match="shape"):
            critic.apply_gradient(np.ones((2, 1)), 0.1)
        assert not actor.table.any() and not critic.table.any()


class TestDistributionProperties:
    def test_probability_conservation_after_updates(self):
        rng = np.random.default_rng(17)
        actor = TabularActor(4, 5)
        for _ in range(20):
            grad = np.zeros((4, 5))
            for _ in range(6):
                grad[int(rng.integers(4)), int(rng.integers(5))] = float(rng.normal())
            actor.apply_gradient(grad, 0.3)
            for s in range(4):
                assert abs(np.exp(log_softmax(actor.table[s])).sum() - 1.0) < 1e-12

    def test_greedy_mode_identity(self):
        rng = np.random.default_rng(18)
        actor = TabularActor(6, 7)
        actor.table = rng.normal(0, 2, size=(6, 7))
        for s in range(6):
            assert int(actor.table[s].argmax()) == int(log_softmax(actor.table[s]).argmax())


class TestParameterSnapshot:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        actor = TabularActor(5, 4)
        actor.table = rng.normal(0, 3, size=(5, 4))
        critic = TabularCritic(5)
        critic.table = rng.normal(0, 1, size=5)
        path = tmp_path / "params.txt"
        save_params(actor, critic, path)
        actor2, critic2 = load_params(path)
        assert np.array_equal(actor.table, actor2.table)
        assert np.array_equal(critic.table, critic2.table)

    def test_bytes_equal_the_per_entry_oracle(self, tmp_path):
        # a 434-state actor, the recoverable env's size, with signed zeros,
        # subnormals and entries near the float range
        rng = np.random.default_rng(434)
        actor, critic = TabularActor(434, 8), TabularCritic(434)
        actor.table = rng.normal(0, 3, size=(434, 8))
        actor.table.flat[rng.choice(actor.table.size, 40, replace=False)] = [
            -0.0, 0.0, 5e-324, -5e-324, 2.2e-308 / 3, 1e308, -1e308, 1.7976931348623157e308] * 5
        critic.table = rng.normal(0, 1, size=434)
        critic.table[:4] = [-0.0, 5e-324, 1e308, 1e-310]
        path = tmp_path / "params.txt"
        save_params(actor, critic, path)
        assert path.read_bytes() == params_text(actor, critic).encode()

    def test_malformed_snapshot_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        for header in ("nonsense", "shape x 2", "shape 0 2", "shape 2", "shape 2 2 2"):
            path.write_text(header + "\n")
            with pytest.raises(ValueError, match="bad.txt: malformed parameter snapshot header"):
                load_params(path)

    def test_torn_or_duplicated_snapshot_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        save_params(TabularActor(3, 4), TabularCritic(3), path)
        lines = path.read_text().splitlines(keepends=True)
        # header plus 4 of the 12 actor entries: rows 1 and 2 would load as zeros
        path.write_text("".join(lines[:5]))
        with pytest.raises(ValueError, match="params.txt: holds 4 of 15"):
            load_params(path)
        path.write_text("".join(lines + lines[1:2]))
        with pytest.raises(ValueError, match="params.txt: duplicate actor"):
            load_params(path)

    def test_non_finite_or_non_integer_entry_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        save_params(TabularActor(2, 2), TabularCritic(2), path)
        lines = path.read_text().splitlines(keepends=True)  # header, 4 actor, 2 critic
        cases = {
            "actor 1 1 nan": "params.txt: non-finite actor entry \\(1, 1\\): nan",
            "actor 1 1 -inf": "params.txt: non-finite actor entry \\(1, 1\\): -inf",
            "critic 0 inf": "params.txt: non-finite critic entry \\(0,\\): inf",
            "actor 1 1.0 0.5": "params.txt: malformed record 'actor 1 1.0 0.5'",
            "critic x 0.5": "params.txt: malformed record 'critic x 0.5'",
            "critic 0 abc": "params.txt: malformed record 'critic 0 abc'",
        }
        for record, message in cases.items():
            replaced = 4 if record.startswith("actor") else 5
            path.write_text("".join(lines[:replaced] + [record + "\n"] + lines[replaced + 1:]))
            with pytest.raises(ValueError, match=message):
                load_params(path)
