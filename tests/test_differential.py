"""Differential tests: the array code against the scalar references in
conftest, compared with == (bit for bit), over generated cases.

collect_batch decodes a batch of fewer than rollout.ROW_PATH_ROWS rows one
row at a time, and a wider batch in lockstep columns over arrays. The
reference is the per-token loop (conftest.collect_trajectory) on each
trajectory's own stream. The generated batches hold 1 to 16 rows, so they
reach both paths. compute_advantages, ppo_surrogate_grad, critic_loss and
critic_grad work on B x T arrays; the references are the per-step loops.
The vocabularies here are narrow, so ppo_surrogate_grad scatters every
state; test_trainer.py's TestSurrogatePathsAgainstScalarLoop forces each of
its paths. evaluate_policy advances episodes in lockstep; the reference steps
one episode at a time.

Once a row enters an absorbing state, the rest of it is decoded at once. The
row path does this for each row from its own absorbing column. The lockstep
path waits until every row not yet ended is absorbed and then finishes them
together, from that common bulk start. Sampled evaluation drops absorbed
episodes. TestBulkFinishAgainstOracle builds cases that reach every branch
of the lockstep bulk finish. Its batches of 12 rows take the row path here,
and test_rollout.py's TestRowPathMatchesLockstep runs the same cases again
with the lockstep path forced.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from espolab.config import RunConfig  # noqa: E402
from espolab.envs import (  # noqa: E402
    RecoverableBranchSpec,
    TrapChainSpec,
    build_environment,
)
from espolab.mdpcore import EVAL_STREAM, derived_rng  # noqa: E402
from espolab.policy import TabularActor, TabularCritic  # noqa: E402
from espolab.rollout import CachedPolicy, collect_batch, evaluate_policy  # noqa: E402
from espolab.stopper import StopperSnapshot  # noqa: E402
from espolab.trainer import (  # noqa: E402
    compute_advantages,
    critic_grad,
    critic_loss,
    ppo_surrogate_grad,
)
from espolab.variants import COUNTERFACTUAL, STANDARD  # noqa: E402

from conftest import (  # noqa: E402
    collect_trajectory,
    env_step,
    pick_from_cumulative,
    records,
    scalar_advantages,
    scalar_critic,
    scalar_surrogate_grad,
    trajectory_rng,
)

CASES = settings(max_examples=150, deadline=None, database=None, derandomize=True)
# the stop rules; the first three fire on thresholds, "ppo" never fires and
# "random_stop" fires on its hazard
RULES = ("espo", "value_only", "regret_only", "ppo", "random_stop")


@st.composite
def environments(draw):
    vocab = draw(st.integers(2, 6))
    length = draw(st.integers(1, 5))
    if draw(st.booleans()):
        target = tuple(draw(st.lists(st.integers(0, vocab - 1), min_size=length,
                                     max_size=length)))
        padding = draw(st.one_of(st.none(), st.integers(0, 4)))
        return build_environment(TrapChainSpec(vocab, length, target, padding))
    return build_environment(RecoverableBranchSpec(vocab, length, draw(st.integers(0, 3))))


@st.composite
def collection_cases(draw):
    env = draw(environments())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    actor = TabularActor(env.state_count, env.vocab_size)
    actor.table = rng.normal(0.0, draw(st.sampled_from([0.0, 0.5, 2.0, 6.0])),
                             size=actor.table.shape)
    critic = TabularCritic(env.state_count)
    critic.table = rng.normal(0.0, draw(st.sampled_from([0.0, 0.3, 1.0])),
                              size=critic.table.shape)
    rule = draw(st.sampled_from(RULES))
    snapshot = StopperSnapshot(
        frozen_mu=draw(st.floats(-2.0, 2.0)), frozen_var=draw(st.floats(0.01, 4.0)),
        clip_bound=draw(st.floats(0.5, 5.0)), alpha_s=draw(st.floats(0.0, 0.99)),
        beta=draw(st.floats(0.0, 3.0)), value_floor=draw(st.floats(0.01, 1.0)),
        warmup_active=draw(st.booleans()), rule=rule,
        rule_threshold=draw(st.floats(-1.0, 1.0)))
    if rule == "random_stop":
        snapshot = dataclasses.replace(
            snapshot, random_stop_rate=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])))
    return dict(actor=actor, critic=critic, snapshot=snapshot, env=env,
                batch_size=draw(st.integers(1, 16)), t_max=draw(st.integers(1, 40)),
                mode=draw(st.sampled_from([STANDARD, COUNTERFACTUAL])),
                r_fail=draw(st.sampled_from([-1.0, 0.0])),
                master_seed=draw(st.integers(0, 10**6)), batch_index=draw(st.integers(0, 500)))


def oracle_batch(case):
    return tuple(
        collect_trajectory(case["actor"], case["critic"], case["snapshot"], case["env"],
                           case["t_max"], case["mode"], case["r_fail"],
                           trajectory_rng(case["master_seed"], case["batch_index"], i))
        for i in range(case["batch_size"]))


class TestCollectBatchAgainstOracle:
    @CASES
    @given(collection_cases())
    def test_every_field_equals_the_per_token_loop(self, case):
        batch = collect_batch(**case)
        oracle = oracle_batch(case)
        assert records(batch) == oracle
        assert batch.lengths.tolist() == [len(t.steps) for t in oracle]
        assert batch.total_tokens == sum(len(t.steps) for t in oracle)
        assert batch.effective_lengths.tolist() == [t.effective_length for t in oracle]
        assert batch.stops.tolist() == [
            -1 if t.stop_index is None else t.stop_index for t in oracle]
        # nothing is recorded at or past a row's length
        past_end = np.arange(batch.pairs.shape[1]) >= batch.lengths[:, None]
        assert not batch.pairs[past_end].any() and not batch.scores[past_end].any()
        assert batch.pairs.shape[1] == max(len(t.steps) for t in oracle)


def absorbing_case(kind, seed):
    """A collect_batch case of `kind` (a threshold rule in standard or
    counterfactual mode, or the random or the ppo rule in standard mode) on
    an environment with an absorbing state, with stop thresholds near the
    scores the rows reach."""
    rng = np.random.default_rng(seed)
    vocab, length = int(rng.integers(2, 4)), int(rng.integers(2, 5))
    if seed % 2:
        env = build_environment(TrapChainSpec(
            vocab, length, tuple(rng.integers(0, vocab, size=length).tolist())))
    else:
        env = build_environment(RecoverableBranchSpec(vocab, length, int(rng.integers(1, 3))))
    actor = TabularActor(env.state_count, vocab)
    actor.table = rng.normal(0.0, 1.0, size=actor.table.shape)
    critic = TabularCritic(env.state_count)
    critic.table = rng.normal(0.0, 0.5, size=critic.table.shape)
    rule = {"random": "random_stop", "disabled": "ppo"}.get(kind, RULES[seed % 3])
    snapshot = StopperSnapshot(
        alpha_s=float(rng.uniform(0.3, 0.95)), beta=float(rng.uniform(0.05, 1.5)),
        value_floor=0.1, warmup_active=False, rule=rule,
        rule_threshold=float(rng.uniform(-0.5, 1.0)),
        random_stop_rate=[0.05, 0.2, 1.0][seed % 3] if kind == "random" else 0.0)
    return dict(actor=actor, critic=critic, snapshot=snapshot, env=env,
                batch_size=12, t_max=int(rng.integers(8, 30)),
                mode=COUNTERFACTUAL if kind == "counterfactual" else STANDARD,
                r_fail=-1.0, master_seed=seed, batch_index=int(rng.integers(0, 50)))


def bulk_features(batch, case, kind):
    """Which branches of the lockstep bulk finish a case reaches, whichever
    path collected the batch: they are read from the case, not the code.
    Every row decodes to its natural end or the horizon whatever the stop
    rule says, so the bulk start is read from the per-token loop run on the
    same tokens in the batch's twin that never cuts a row (counterfactual
    mode, or the random rule with rate 0): the first column where every row
    not yet ended sits in an absorbing state."""
    env, t_max = case["env"], case["t_max"]
    if kind == "random":
        twin = {"snapshot": dataclasses.replace(case["snapshot"], random_stop_rate=0.0)}
    else:
        twin = {"mode": COUNTERFACTUAL}
    full = oracle_batch({**case, **twin})
    lengths = np.array([len(t.steps) for t in full])
    entry = np.array([next((i for i, rec in enumerate(t.steps) if env.absorbing[rec.state_id]),
                           len(t.steps)) for t in full])
    entered = entry < lengths
    start = int(entry.max())
    live = lengths > start
    if start >= t_max or not live.any():
        return set()
    features = {"bulk"}
    if len(set(entry[entered].tolist())) > 1:
        features.add("rows absorbed at different columns")
    if not entered.all():
        features.add("a row ended before absorbing")
    stops = batch.stops[live]
    if (stops == start).any():
        features.add("fires on the first bulk column")
    if (stops > start).any():
        features.add("fires later in the bulk")
    if (stops == -1).any():
        features.add("never fires")
    if ((stops >= 0) & (stops < start)).any():
        features.add("a row that fired before the bulk decodes on into it")
    if kind == "counterfactual":
        thresholds = case["snapshot"].stop_thresholds(case["critic"].table)
        again = (batch.scores[:, start:] > thresholds[batch.states[:, start:]]).any(axis=1)
        if (live & (batch.stops >= 0) & (batch.stops < start) & again).any():
            features.add("fired before the bulk and would fire in it")
    return features


class TestBulkFinishAgainstOracle:
    def test_every_mode_equals_the_per_token_loop(self):
        # each kind of case must reach each branch of the lockstep bulk
        # finish at least once over its 60 seeds; collected on either path,
        # every batch must equal the per-token loop
        firing = {"bulk", "rows absorbed at different columns", "a row ended before absorbing",
                  "fires on the first bulk column", "fires later in the bulk", "never fires",
                  "a row that fired before the bulk decodes on into it"}
        expected = {
            "standard": firing,
            "random": firing,
            "counterfactual": firing | {"fired before the bulk and would fire in it"},
            "disabled": firing - {"fires on the first bulk column", "fires later in the bulk",
                                  "a row that fired before the bulk decodes on into it"},
        }
        for kind, features in expected.items():
            seen = Counter()
            for seed in range(60):
                case = absorbing_case(kind, seed)
                batch = collect_batch(**case)
                assert records(batch) == oracle_batch(case), (kind, seed)
                seen.update(bulk_features(batch, case, kind))
            assert set(seen) == features, kind

@st.composite
def training_cases(draw):
    case = draw(collection_cases())
    # gamma = lam = 1 (the default) takes gae's suffix-sum path
    gamma, lam = draw(st.one_of(
        st.just((1.0, 1.0)),
        st.tuples(st.sampled_from([1.0, 0.99, 0.9, 0.5]), st.sampled_from([1.0, 0.95, 0.7]))))
    config = RunConfig(
        clip_ratio=draw(st.sampled_from([0.05, 0.2, 0.5])), gamma=gamma, lam=lam,
        advantage_whitening=draw(st.booleans()))
    epochs = draw(st.integers(1, 4))
    lr = draw(st.sampled_from([0.05, 0.5, 3.0]))
    return case, config, epochs, lr


class TestTrainerAgainstScalarLoops:
    @CASES
    @given(training_cases())
    def test_advantages_gradients_and_loss_equal_the_loops(self, drawn):
        case, config, epochs, lr = drawn
        batch = collect_batch(**case)
        trajectories = records(batch)
        early_stop_reward = case["r_fail"]
        advs = compute_advantages(batch, config, early_stop_reward)
        rows = scalar_advantages(trajectories, config.gamma, config.lam, early_stop_reward,
                                 config.advantage_whitening)
        # the trained-on steps in step order, each row up to its effective length
        trained = [rec for traj in trajectories for rec in traj.steps[:traj.effective_length]]
        assert advs.states.tolist() == [rec.state_id for rec in trained]
        assert advs.pairs.tolist() == [rec.state_id * batch.policy.vocab_size + rec.action
                                       for rec in trained]
        for i, array in enumerate((advs.advantages, advs.returns, advs.td_errors)):
            want = np.array([value for row in rows for value in row[i]])
            assert array.tolist() == want.tolist()
            assert np.array_equal(np.signbit(array), np.signbit(want))

        actor, critic = case["actor"].copy(), case["critic"].copy()
        for _ in range(epochs):  # later epochs see ratios away from 1
            grad, clip_fraction = ppo_surrogate_grad(actor, batch, advs, config)
            want_grad, want_clip = scalar_surrogate_grad(actor, trajectories, rows,
                                                         config.clip_ratio)
            assert np.array_equal(grad, want_grad)
            assert clip_fraction == want_clip
            actor.apply_gradient(grad, lr)
        want_cgrad, want_loss = scalar_critic(critic, trajectories, rows)
        assert np.array_equal(critic_grad(critic, batch, advs), want_cgrad)
        assert critic_loss(critic, batch, advs) == want_loss

    def test_clipped_and_zero_coefficient_steps(self, small_env):
        # a zero critic with no rewards gives all-zero advantages (every
        # coefficient 0); with rewards, large steps make later epochs clip
        actor = TabularActor(small_env.state_count, small_env.vocab_size)
        actor.table = np.random.default_rng(3).normal(0, 1, size=actor.table.shape)
        critic = TabularCritic(small_env.state_count)
        batch = collect_batch(actor, critic, StopperSnapshot(rule="ppo"), small_env, 8, 1,
                              STANDARD, -1.0, 4, 1)
        advs = compute_advantages(batch, RunConfig(), -1.0)
        assert not advs.advantages.any()
        grad, clip_fraction = ppo_surrogate_grad(actor, batch, advs, RunConfig())
        assert not grad.any() and clip_fraction == 0.0

        batch = collect_batch(actor, critic, StopperSnapshot(warmup_active=False, beta=0.1),
                              small_env, 16, 8, STANDARD, -1.0, 4, 2)
        trajectories = records(batch)
        config = RunConfig(clip_ratio=0.05)
        advs = compute_advantages(batch, config, -1.0)
        rows = scalar_advantages(trajectories, 1.0, 1.0, -1.0)
        clip_fractions = []
        for _ in range(3):
            grad, clip_fraction = ppo_surrogate_grad(actor, batch, advs, config)
            want = scalar_surrogate_grad(actor, trajectories, rows, 0.05)
            assert np.array_equal(grad, want[0]) and clip_fraction == want[1]
            clip_fractions.append(clip_fraction)
            actor.apply_gradient(grad, 5.0)
        assert clip_fractions[0] == 0.0 and clip_fractions[-1] > 0.0


def scalar_evaluate(actor, env, t_max, episodes, seed, eval_tag, greedy):
    """Success rate by stepping one episode at a time."""
    policy = CachedPolicy(actor, TabularCritic(env.state_count))
    argmax = actor.table.argmax(axis=1).tolist()
    successes = 0
    for episode in range(episodes):
        rng = derived_rng(seed, EVAL_STREAM, eval_tag, episode)
        state = env.initial_state
        for _ in range(t_max):
            if greedy:
                action = argmax[state]
            else:
                action = pick_from_cumulative(policy.cum_probs[state].tolist(), rng)
            state, terminal, reward = env_step(env, state, action)
            if terminal:
                successes += reward == 1.0
                break
    return successes / episodes


class TestEvaluatePolicyAgainstScalarLoop:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(environments(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.0, 4.0]),
           st.integers(1, 30), st.integers(1, 150), st.booleans())
    def test_success_rate_equals_episode_by_episode(self, env, seed, scale, t_max,
                                                    episodes, greedy):
        actor = TabularActor(env.state_count, env.vocab_size)
        actor.table = np.random.default_rng(seed).normal(0.0, scale, size=actor.table.shape)
        policy = CachedPolicy(actor, TabularCritic(env.state_count))
        got = evaluate_policy(policy, env, t_max, episodes, seed % 1000, 7, greedy=greedy)
        assert got == scalar_evaluate(actor, env, t_max, episodes, seed % 1000, 7, greedy)

    def test_absorbed_episodes_are_dropped_as_failures(self):
        # on a trap chain that absorbs its doomed branch, every failure within
        # a horizon longer than the chain is an absorbed episode
        env = build_environment(TrapChainSpec(2, 3, (0, 1, 1)))
        actor = TabularActor(env.state_count, 2)
        actor.table = np.random.default_rng(4).normal(0.0, 1.0, size=actor.table.shape)
        policy = CachedPolicy(actor, TabularCritic(env.state_count))
        for episodes in (1, 64, 150, 2100):  # 2,100 seeds its streams in two blocks
            got = evaluate_policy(policy, env, 20, episodes, 5, 2, greedy=False)
            assert got == scalar_evaluate(actor, env, 20, episodes, 5, 2, greedy=False)
        assert 0.0 < got < 1.0

    def test_greedy_reads_the_logits_argmax(self):
        # logits 0 and 1e-300 tie after the log-softmax; the greedy token is
        # still the larger logit
        env = build_environment(TrapChainSpec(2, 1, (1,), 0))
        actor = TabularActor(env.state_count, 2)
        actor.table[0] = [0.0, 1e-300]
        policy = CachedPolicy(actor, TabularCritic(env.state_count))
        assert policy.log_probs[0, 0] == policy.log_probs[0, 1]
        assert evaluate_policy(policy, env, 4, 3, seed=0, greedy=True) == 1.0
