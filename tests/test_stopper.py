"""Stopping machinery: regret, normalization, smoothing, gate, controller."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espolab.config import RunConfig
from espolab.envs import TrapChainSpec, build_environment
from espolab.policy import TabularActor, TabularCritic
from espolab.rollout import EARLY_STOP, collect_batch
from espolab.stopper import StopperSnapshot, StopperState, weighted_fsum
from espolab.variants import COUNTERFACTUAL, STANDARD, variant_dispatch

from conftest import batch_statistics, grouped, make_stopper, plain_snapshot, records


EMA_CASES = settings(max_examples=200, deadline=None, database=None, derandomize=True)


def finite_floats(min_exp, max_exp):
    """Floats m * 2**(e - 53) with an integer |m| < 2**53, so most carry all
    53 significant bits, and e in [min_exp, max_exp]: zeros, subnormals and
    normals below 2**max_exp."""
    return st.builds(math.ldexp, st.integers(1 - 2**53, 2**53 - 1),
                     st.integers(min_exp - 53, max_exp - 53))


@st.composite
def regret_batches(draw):
    """A shuffled multiset of up to 24 floats, each repeated up to 64 times,
    magnitudes from subnormal to ~1e300 (2**997): all in one binade, spread
    over 2**60, or over the whole range."""
    top = draw(st.integers(-1074, 997))
    spread = draw(st.sampled_from([0, 60, 2071]))
    values = draw(st.lists(finite_floats(top - spread, top), min_size=1, max_size=24))
    counts = draw(st.lists(st.integers(1, 64), min_size=len(values), max_size=len(values)))
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return order.permutation(np.repeat(values, counts))


def collected_steps(logits, batch_size=32, t_max=8, seed=0, noise=0.0):
    """Every step collect_batch records for an actor whose every state has
    the given logits plus seeded Gaussian noise; stopping disabled."""
    vocab = len(logits)
    env = build_environment(TrapChainSpec(vocab, 3, (0, 0, 0), None))
    actor = TabularActor(env.state_count, vocab)
    rng = np.random.default_rng(seed)
    actor.table = np.asarray(logits) + rng.normal(0.0, noise, size=actor.table.shape)
    critic = TabularCritic(env.state_count)
    batch = collect_batch(actor, critic, plain_snapshot(rule="ppo"), env, batch_size, t_max,
                          STANDARD, -1.0, seed, 1)
    return actor, [rec for t in records(batch) for rec in t.steps]


def smoothed_scores(frozen_mu, t_max=12):
    """z_1..z_t_max recorded by collect_batch for a uniform actor with
    alpha_s = 0.9: every step regret is 0, so every normalized regret is
    -frozen_mu (clipped)."""
    env = build_environment(TrapChainSpec(4, 12, tuple(range(4)) * 3, None))
    actor = TabularActor(env.state_count, 4)
    critic = TabularCritic(env.state_count)
    snapshot = plain_snapshot(frozen_mu=frozen_mu, frozen_var=1.0 - 1e-8,
                              alpha_s=0.9, warmup_active=True, rule="ppo")
    (traj,) = records(collect_batch(actor, critic, snapshot, env, 1, t_max,
                                    STANDARD, -1.0, 0, 1))
    assert len(traj.steps) == t_max
    return [rec.smoothed_score for rec in traj.steps]


class TestStepRegret:
    def test_mode_sample_gives_zero(self):
        _actor, steps = collected_steps([2.0, 0.0, -1.0])
        modes = [rec for rec in steps if rec.action == 0]
        assert modes
        assert all(rec.regret_raw == 0.0 for rec in modes)

    def test_logit_gap_preserved(self):
        _actor, steps = collected_steps([2.0, 0.0])
        off_mode = [rec for rec in steps if rec.action == 1]
        assert off_mode
        assert all(abs(rec.regret_raw - 2.0) < 1e-12 for rec in off_mode)

    def test_three_token_derived_case(self):
        _actor, steps = collected_steps([1.0, 0.5, -0.3])
        last = [rec for rec in steps if rec.action == 2]
        assert last
        assert all(abs(rec.regret_raw - 1.3) < 1e-12 for rec in last)

    def test_nonnegative_and_zero_iff_mode(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            vocab = int(rng.integers(2, 10))
            actor, steps = collected_steps([0.0] * vocab, batch_size=8, seed=trial,
                                           noise=2.0)
            for rec in steps:
                row = actor.table[rec.state_id]
                assert rec.regret_raw >= 0.0
                assert (rec.regret_raw == 0.0) == (row[rec.action] == row.max())


class TestNormalizeRegret:
    def test_centering(self):
        snap = StopperSnapshot(frozen_mu=0.7, frozen_var=2.0)
        assert snap.normalize(0.7) == 0.0

    def test_clipping(self):
        snap = StopperSnapshot(frozen_mu=0.0, frozen_var=1.0, clip_bound=5.0)
        assert snap.normalize(10.0) == 5.0
        assert snap.normalize(-10.0) == -5.0

    def test_derived_scaling(self):
        snap = StopperSnapshot(frozen_mu=0.5, frozen_var=0.25, stabilizer=1e-8,
                               clip_bound=5.0)
        expected = (1.5 - 0.5) / math.sqrt(0.25 + 1e-8)
        got = snap.normalize(1.5)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(2.0, abs=1e-6)

    def test_bounded_for_random_inputs(self):
        rng = np.random.default_rng(3)
        snap = StopperSnapshot(frozen_mu=0.2, frozen_var=0.01, clip_bound=5.0)
        for _ in range(500):
            assert abs(snap.normalize(float(rng.normal(0, 50)))) <= 5.0


class TestAccumulate:
    def test_geometric_recursion(self):
        assert smoothed_scores(-1.0, t_max=3) == pytest.approx([0.1, 0.19, 0.271], abs=1e-12)

    def test_fixed_point(self):
        # z_0 = 0 is the fixed point of a zero input; a constant input c
        # draws z_t = c * (1 - alpha^t) toward itself
        assert smoothed_scores(0.0) == [0.0] * 12
        want = [0.37 * (1.0 - 0.9 ** t) for t in range(1, 13)]
        assert smoothed_scores(-0.37) == pytest.approx(want, abs=1e-12)

    def test_negative_pull(self):
        assert smoothed_scores(5.0, t_max=2) == pytest.approx([-0.5, -0.95], abs=1e-12)


def decide(snap, z, value):
    """The stop decision for one step in a state with critic value `value`,
    read from the snapshot's per-state threshold table."""
    return bool(z > snap.stop_thresholds(np.array([value]))[0])


class TestShouldStop:
    def test_low_value_state_stops(self):
        snap = StopperSnapshot(beta=7.0, value_floor=0.2, warmup_active=False)
        assert decide(snap, 1.5, 0.1) is True

    def test_warmup_gates_everything(self):
        snap = StopperSnapshot(beta=7.0, value_floor=0.2, warmup_active=True)
        assert decide(snap, 1.5, 0.1) is False

    def test_high_value_grants_tolerance(self):
        snap = StopperSnapshot(beta=7.0, value_floor=0.2, warmup_active=False)
        assert decide(snap, 1.5, 0.5) is False

    def test_tie_continues(self):
        snap = StopperSnapshot(beta=7.0, value_floor=0.2, warmup_active=False)
        assert decide(snap, 1.4, 0.1) is False

    def test_ppo_rule_never_fires(self):
        # the ppo rule's threshold is +inf in every state, even at beta = 0
        # with z far above any value; the same snapshot under espo fires on
        # every row's first step, and under ppo no row of either mode stops
        snap = StopperSnapshot(beta=0.0, value_floor=0.2, warmup_active=False, rule="ppo")
        assert (snap.stop_thresholds(np.array([-5.0, 0.0, 0.1, 3.0])) == np.inf).all()
        assert decide(snap, 1e308, -1.0) is False
        assert decide(dataclasses.replace(snap, rule="espo"), 1e308, -1.0) is True
        env = build_environment(TrapChainSpec(4, 3, (0, 0, 0), None))
        actor, critic = TabularActor(env.state_count, 4), TabularCritic(env.state_count)
        snap = dataclasses.replace(snap, frozen_mu=-100.0)  # z = 0.5 after one step
        for mode in (STANDARD, COUNTERFACTUAL):
            batch = collect_batch(actor, critic, snap, env, 16, 8, mode, -1.0, 0, 1)
            assert (batch.stops == -1).all() and not (batch.stop_codes == EARLY_STOP).any()
            espo = collect_batch(actor, critic, dataclasses.replace(snap, rule="espo"), env,
                                 16, 8, mode, -1.0, 0, 1)
            assert (espo.stops == 0).all()

    def test_monotone_in_beta_and_value(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            z = float(rng.normal(0, 2))
            v = float(rng.normal(0, 1))
            floor = float(rng.uniform(0.01, 1.0))
            beta = float(rng.uniform(0, 10))
            snap = StopperSnapshot(beta=beta, value_floor=floor)
            fired = decide(snap, z, v)
            higher_beta = decide(StopperSnapshot(beta=beta + rng.uniform(0, 5),
                                                 value_floor=floor), z, v)
            higher_value = decide(snap, z, v + rng.uniform(0, 3))
            if not fired:
                assert not higher_beta
                assert not higher_value


class TestUpdateEma:
    def test_blend_arithmetic(self):
        stopper = make_stopper(alpha_ema=0.99)
        assert (stopper.mu_g, stopper.var_g) == (0.0, 1.0)
        stopper.update_ema(*grouped([1.0]))
        assert stopper.mu_g == pytest.approx(0.01, abs=1e-12)
        assert stopper.var_g == pytest.approx(0.99, abs=1e-12)

    def test_fixed_point(self):
        # batch [0, 4] has mean 2 and population variance 4
        stopper = make_stopper()
        stopper.mu_g, stopper.var_g = 2.0, 4.0
        stopper.update_ema(*grouped([0.0, 4.0]))
        assert stopper.mu_g == pytest.approx(2.0, abs=1e-12)
        assert stopper.var_g == pytest.approx(4.0, abs=1e-12)

    def test_grouping_and_order_invariance_is_bit_exact(self):
        # the batch grouped by value, and the same batch one element at a
        # time in another order, give the same bits
        rng = np.random.default_rng(5)
        values = rng.normal(0, 1, size=1000).round(2)
        a, b = make_stopper(), make_stopper()
        a.update_ema(*grouped(values))
        b.update_ema(rng.permutation(values), np.ones(len(values), dtype=np.int64))
        assert a.mu_g == b.mu_g
        assert a.var_g == b.var_g

    def test_population_variance_formula(self):
        stopper = make_stopper(alpha_ema=0.5)
        stopper.var_g = 0.0
        stopper.update_ema(*grouped([0.0, 2.0]))  # mean 1, population var 1
        assert stopper.var_g == pytest.approx(0.5, abs=1e-12)
        # bit for bit the float loop: squares are libm pow(x, 2.0), as `** 2`
        # on a float is; x * x rounds differently on ~0.1% of inputs (with
        # glibc, on 1.8871580461934296 among others)
        values = np.random.default_rng(8).normal(0.4, 1.7, size=3000).tolist()
        for batch in (values, [1.8871580461934296, -1.8871580461934296]):
            stopper = make_stopper(alpha_ema=0.0)
            stopper.update_ema(*grouped(batch))
            mean = math.fsum(batch) / len(batch)
            assert stopper.mu_g == mean
            assert stopper.var_g == math.fsum((v - mean) ** 2 for v in batch) / len(batch)

    def test_frozen_copies_change_only_through_update(self):
        # a snapshot keeps the statistics it was taken with; only the next
        # snapshot sees the end-of-batch update
        state = make_stopper(variant="espo_no_warmup", total_steps=10)
        before = state.snapshot(1)
        _ = before.normalize(3.0)
        state.end_of_batch(*grouped([1.0, 3.0]), 0.25, 0.0, 1)
        assert (before.frozen_mu, before.frozen_var) == (0.0, 1.0)
        after = state.snapshot(2)
        assert (after.frozen_mu, after.frozen_var) == (state.mu_g, state.var_g)
        assert after.frozen_mu == pytest.approx(0.02, abs=1e-12)

    # update_ema sums over distinct regrets weighted by their counts; the
    # per-element fsum/pow formula (conftest.batch_statistics) is the oracle

    @staticmethod
    def statistics(regrets):
        """(mu_g, var_g) after one update from the initial statistics with
        alpha_ema = 0, i.e. the batch mean and variance themselves, or the
        exception both formulas raise."""
        stopper = make_stopper(alpha_ema=0.0)
        try:
            stopper.update_ema(*grouped(regrets))
        except (OverflowError, ValueError) as exc:
            return type(exc), str(exc)
        return stopper.mu_g, stopper.var_g

    @staticmethod
    def oracle(regrets):
        try:
            return batch_statistics(regrets)
        except (OverflowError, ValueError) as exc:
            return type(exc), str(exc)

    @given(regret_batches())
    @EMA_CASES
    def test_distinct_values_reproduce_the_per_element_formula(self, regrets):
        assert self.statistics(regrets) == self.oracle(regrets)
        # the mean's sum on its own, also where the squares overflow
        values, counts = np.unique(regrets, return_counts=True)
        assert weighted_fsum(values, counts) == math.fsum(regrets.tolist())

    @pytest.mark.parametrize("value", [0.0, 5e-324, 2.2250738585072014e-308, 1.3,
                                       -0.7, 1e300, -1.7e300])
    @pytest.mark.parametrize("count", [1, 7, 4096])
    def test_single_value_batch(self, value, count):
        regrets = np.full(count, value)
        assert self.statistics(regrets) == self.oracle(regrets)

    def test_non_finite_regrets_match_the_per_element_formula(self):
        # the results are nan or inf, or both raise; repr makes nan == nan
        inf, nan = math.inf, math.nan
        for batch in ([inf, 1.0, 1.0], [-inf, 2.0], [nan, 0.5, 0.5], [inf, -inf, 3.0],
                      [nan, inf, 1.0]):
            regrets = np.array(batch)
            with np.errstate(invalid="ignore"):
                assert repr(self.statistics(regrets)) == repr(self.oracle(regrets)), batch

    @given(st.lists(st.tuples(finite_floats(-1074, 900),
                              st.one_of(st.integers(2**26, 2**40),
                                        st.sampled_from([2**26 - 1, 2**26, 2**26 + 1,
                                                         2**40, 2**52 + 1, 2**62 + 3]),
                                        st.integers(1, 64))),
                    max_size=12))
    @EMA_CASES
    def test_weighted_sum_is_exact_for_any_count(self, pairs):
        values = np.array([v for v, _c in pairs])
        counts = np.array([c for _v, c in pairs], dtype=np.int64)
        exact = sum(Fraction(v) * c for v, c in pairs)
        assert weighted_fsum(values, counts) == float(exact)

    @given(finite_floats(-900, 900), st.integers(2, 2**62))
    @EMA_CASES
    def test_weighted_sum_keeps_a_product_rounding_error(self, value, count):
        # count copies of value, less their correctly rounded sum, leave the
        # rounding error alone: a single inexact product term would lose it
        rounded = float(Fraction(value) * count)
        values, counts = np.array([value, -rounded]), np.array([count, 1])
        residual = Fraction(value) * count - Fraction(rounded)
        assert weighted_fsum(values, counts) == float(residual)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_weighted_sum_past_the_float_range_raises_as_fsum(self):
        regrets = np.full(4096, 1e305)
        overflow = (OverflowError, "intermediate overflow in fsum")
        assert self.statistics(regrets) == self.oracle(regrets) == overflow
        with pytest.raises(OverflowError, match="intermediate overflow"):
            weighted_fsum(np.array([1e300, 1.0]), np.array([2**40, 3]))
        with pytest.raises(OverflowError, match="intermediate overflow"):
            weighted_fsum(np.array([1.7e308]), np.array([2**26 + 1]))


class TestBetaController:
    def test_proportional_step(self):
        ctrl = make_stopper(beta_init=7.0, eta_beta=0.1, target_stop_rate=0.25)
        ctrl.update_beta(0.5)
        assert ctrl.beta == pytest.approx(7.025, abs=1e-12)

    def test_setpoint_is_fixed_point(self):
        ctrl = make_stopper(beta_init=4.0, eta_beta=0.1, target_stop_rate=0.25)
        ctrl.update_beta(0.25)
        assert ctrl.beta == 4.0

    def test_clipping_at_bounds(self):
        ctrl = make_stopper(beta_init=10.0, eta_beta=0.1, target_stop_rate=0.25,
                            beta_max=10.0)
        ctrl.update_beta(1.0)
        assert ctrl.beta == 10.0
        ctrl = make_stopper(beta_init=0.0, eta_beta=0.1, target_stop_rate=0.25,
                            beta_min=0.0)
        ctrl.update_beta(0.0)
        assert ctrl.beta == 0.0

    def test_zero_stop_batch_decreases_beta_by_gain_times_target(self):
        ctrl = make_stopper(beta_init=7.0, eta_beta=0.1, target_stop_rate=0.25)
        ctrl.update_beta(0.0)
        assert ctrl.beta == pytest.approx(7.0 - 0.1 * 0.25, abs=1e-12)

    def test_direction_matches_rate_error(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            before = float(rng.uniform(1, 9))
            ctrl = make_stopper(beta_init=before, eta_beta=0.1)
            rate = float(rng.uniform(0, 1))
            ctrl.update_beta(rate)
            if ctrl.beta != before:  # unclipped
                assert math.copysign(1, ctrl.beta - before) == math.copysign(
                    1, rate - ctrl.cfg.target_stop_rate)


class TestWarmupGate:
    def run_trace(self, losses, total_steps=1000):
        gate = make_stopper(total_steps=total_steps)
        release_step = None
        for step, loss in enumerate(losses, start=1):
            gate.warmup_step(loss, step)
            if not gate.warmup_active and release_step is None:
                release_step = step
        return gate, release_step

    def test_absolute_threshold_exit(self):
        _gate, released = self.run_trace([0.4, 0.4, 0.4])
        assert released == 3

    def test_delta_threshold_exit(self):
        _gate, released = self.run_trace([2.0, 1.95, 1.90, 1.85])
        assert released == 4

    def test_oscillation_hits_unconditional_cap(self):
        losses = [0.0 if i % 2 == 0 else 2.0 for i in range(10)]
        total = 40  # cap = ceil(0.1 * 40) = 4
        _gate, release_step = self.run_trace(losses, total_steps=total)
        assert release_step == math.ceil(0.10 * total) == 4

    def test_gate_never_rearms(self):
        gate = make_stopper(variant="espo_no_warmup")
        assert gate.warmup_active is False
        gate.warmup_step(100.0, 1)
        assert gate.warmup_active is False
        assert gate.consecutive_hits == 0

    def test_counter_resets_on_miss(self):
        _gate, released = self.run_trace([0.4, 0.4, 9.0, 0.4, 0.4, 0.4])
        assert released == 6  # the miss at step 3 resets the streak


def annealing(steps_since_warmup, anneal_horizon, beta=7.0, beta_max=10.0):
    """A released stopper whose controller sits at `beta`, that many steps
    into an anneal of the given horizon."""
    stopper = make_stopper(variant="espo_no_warmup", beta_init=beta, beta_max=beta_max)
    stopper.steps_since_warmup, stopper.anneal_horizon = steps_since_warmup, anneal_horizon
    return stopper


class TestAnnealBeta:
    def test_starts_at_beta_max(self):
        assert annealing(0, 30).annealed_beta() == 10.0
        assert annealing(0, 30).snapshot(1).beta == 10.0

    def test_lands_on_configured_beta(self):
        assert annealing(30, 30).annealed_beta() == 7.0

    def test_midpoint_is_arithmetic_mean(self):
        assert annealing(15, 30).annealed_beta() == pytest.approx(8.5, abs=1e-12)

    def test_zero_horizon_is_identity(self):
        assert annealing(0, 0, beta=3.0).annealed_beta() == 3.0
        assert make_stopper(beta_init=3.0).annealed_beta() == 3.0  # warmup armed

    @pytest.mark.parametrize("variant", ["ppo", "espo_no_warmup"])
    def test_run_without_stopping_gets_an_inert_snapshot(self, variant):
        # espo_no_warmup anneals from its first step when it stops; with
        # stopping disabled no anneal reaches the snapshot's beta
        cfg = RunConfig(variant=variant, disable_stopping=True, beta_init=3.0, beta_max=9.0)
        stopper = StopperState(cfg, variant_dispatch(cfg))
        inert = StopperSnapshot(stabilizer=cfg.stabilizer, clip_bound=cfg.clip_bound,
                                alpha_s=cfg.alpha_s, beta=3.0, value_floor=cfg.value_floor,
                                warmup_active=False, rule="ppo")
        assert stopper.snapshot(1) == inert


class TestSetpointTracking:
    def test_rolling_rate_converges_to_target(self):
        # synthetic stationary system: stop probability strictly decreasing
        # in beta; rolling 50-batch rate inside +/-0.05 of 0.25 by update 200
        rng = np.random.default_rng(99)
        ctrl = make_stopper(beta_init=7.0, eta_beta=0.1, target_stop_rate=0.25,
                            beta_min=0.0, beta_max=10.0)
        batch = 64
        rates = []
        for _ in range(300):
            p = 1.0 / (1.0 + math.exp(2.0 * (ctrl.beta - 5.0)))
            stops = rng.binomial(batch, p)
            rate = stops / batch
            rates.append(rate)
            ctrl.update_beta(rate)
        rolling = [sum(rates[i - 50:i]) / 50 for i in range(50, 301)]
        hit = next((i + 50 for i, r in enumerate(rolling) if abs(r - 0.25) <= 0.05), None)
        assert hit is not None and hit <= 200
        assert abs(rolling[200 - 50] - 0.25) <= 0.05


class TestSnapshotHazard:
    def test_kind_follows_the_plan(self):
        # the random hazard is a snapshot field: 0.0 under every rule but
        # random_stop, the fixed rate in every batch of a fixed-rate random
        # stopper; the snapshot carries the plan's rule
        for overrides, mode, rule in ((dict(), STANDARD, "espo"),
                                      (dict(counterfactual=True), COUNTERFACTUAL, "espo"),
                                      (dict(variant="ppo"), STANDARD, "ppo")):
            stopper = make_stopper(**overrides)
            assert (stopper.plan.mode, stopper.plan.rule) == (mode, rule)
            assert stopper.snapshot(1).rule == rule
            assert stopper.snapshot(1).random_stop_rate == 0.0
        fixed = make_stopper(variant="random_stop", random_stop_rate=0.05)
        assert (fixed.plan.mode, fixed.plan.rule) == (STANDARD, "random_stop")
        assert fixed.snapshot(9).rule == "random_stop"
        assert fixed.snapshot(9).random_stop_rate == 0.05

    def test_traced_hazard_and_its_correction(self):
        # the hazard stops a t_max-step rollout at the traced rate, plus the
        # correction, which moves after every batch (warmup included) by
        # eta_beta / t_max times the traced minus the measured rate; past the
        # end of the trace its last rate holds
        cfg = RunConfig(variant="random_stop", random_stop_rate=0.0, t_max=8, eta_beta=0.4)
        plan = dataclasses.replace(variant_dispatch(cfg), random_trace=(0.5, 0.25))
        stopper = StopperState(cfg, plan)
        assert stopper.warmup_active and stopper.random_correction == 0.0
        assert stopper.snapshot(1).random_stop_rate == 1.0 - 0.5 ** (1.0 / 8)
        stopper.end_of_batch(*grouped([0.1, 0.2]), 0.75, 1.0, 1)
        assert stopper.random_correction == (0.4 / 8) * (0.5 - 0.75)
        hazard = 1.0 - 0.75 ** (1.0 / 8) + stopper.random_correction
        assert stopper.snapshot(2).random_stop_rate == hazard
        assert stopper.snapshot(5).random_stop_rate == hazard
        stopper.random_correction = -1.0
        assert stopper.snapshot(2).random_stop_rate == 0.0
