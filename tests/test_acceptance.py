"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The trap-chain end-to-end protocol (criteria 8 and 9) runs once per session
and is shared. Protocol knobs that deviate from the published defaults
(actor_init_scale, eta_beta, target_stop_rate) are desk-scale operating-point
choices recorded in the decisions ledger.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np
import pytest

from espolab.config import RunConfig
from espolab.envs import RecoverableBranchSpec, TrapChainSpec, build_environment
from espolab.harness import (
    compare_runs,
    false_positive_rate,
    run_experiment,
    token_saving_pct,
)
from espolab.mdpcore import log_softmax
from espolab.metrics import MetricsRow, MetricsWriter, read_metrics, write_manifest
from espolab.policy import TabularActor, TabularCritic
from espolab.rollout import collect_batch
from espolab.stopper import StopperSnapshot
from espolab.trainer import (
    TrainingRun,
    compute_advantages,
    critic_grad,
    critic_loss,
    gae,
    ppo_surrogate_grad,
)
from espolab.variants import COUNTERFACTUAL, STANDARD

from conftest import (
    StopReason,
    by_row,
    collect_trajectory,
    make_stopper,
    plain_snapshot,
    ppo_surrogate_value,
    random_actor,
    random_critic,
    records,
    standard_view,
    trajectory_rng,
)


def criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# -- end-to-end trap-chain protocol (criteria 8 and 9) ------------------------

PROTOCOL = dict(
    vocab_size=8, target_length=12, t_max=64, batch_size=64, total_steps=300,
    # desk-scale operating point (see decisions ledger): near-uniform seeded
    # init unfreezes the regret signal; the controller gain and stop-rate
    # target are rescaled to this task's ~100% failure mass
    actor_init_scale=1.0, eta_beta=1.0, target_stop_rate=0.5,
    eval_episodes=1024,
)
SEEDS = (0, 1, 2, 3, 4)
FULL_HORIZON_TOKENS = 64 * 64 * 300


@pytest.fixture(scope="session")
def protocol_runs(tmp_path_factory):
    """5 seeds x {ppo, espo, random_stop, espo_no_penalty} on the pinned
    trap-chain protocol; returns run dirs plus wall time."""
    root = tmp_path_factory.mktemp("protocol")
    started = time.monotonic()
    dirs: dict[tuple[str, int], str] = {}
    for seed in SEEDS:
        espo = run_experiment(RunConfig(
            variant="espo", seed=seed, record_stop_events=True,
            out_dir=str(root / f"espo_{seed}"), **PROTOCOL))
        dirs[("espo", seed)] = espo
        dirs[("ppo", seed)] = run_experiment(RunConfig(
            variant="ppo", seed=seed, out_dir=str(root / f"ppo_{seed}"), **PROTOCOL))
        dirs[("random_stop", seed)] = run_experiment(RunConfig(
            variant="random_stop", seed=seed, reference_run=espo,
            out_dir=str(root / f"random_{seed}"), **PROTOCOL))
        dirs[("espo_no_penalty", seed)] = run_experiment(RunConfig(
            variant="espo_no_penalty", seed=seed,
            out_dir=str(root / f"nopenalty_{seed}"), **PROTOCOL))
    return {"dirs": dirs, "elapsed": time.monotonic() - started}


def final_tokens(run_dir: str) -> int:
    return read_metrics(os.path.join(run_dir, "metrics.csv"))[-1].cumulative_tokens


def final_greedy_success(run_dir: str) -> float:
    with open(os.path.join(run_dir, "eval.csv"), encoding="utf-8") as fh:
        fh.readline()
        last = [line for line in fh if line.strip()][-1]
    return float(last.split(",")[1])


def mean_stop_rate(run_dir: str) -> float:
    rows = read_metrics(os.path.join(run_dir, "metrics.csv"))
    return statistics.fmean(r.stop_rate for r in rows)


# -- criteria ------------------------------------------------------------------


def test_criterion_01_gae_oracle():
    rng = np.random.default_rng(1001)
    started = time.monotonic()
    worst = 0.0
    grid = [(g, l) for g in (0.9, 0.95, 1.0) for l in (0.9, 0.95, 1.0)]
    for i in range(1000):
        deltas = [float(d) for d in rng.normal(0, 1, size=rng.integers(1, 17))]
        gamma, lam = grid[i % len(grid)]
        got = gae(deltas, gamma, lam)
        want = [
            math.fsum((gamma * lam) ** l * deltas[t + l]
                      for l in range(len(deltas) - t))
            for t in range(len(deltas))
        ]
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
    elapsed = time.monotonic() - started
    criterion(1, "gae-oracle", worst < 1e-10 and elapsed < 5.0,
              f"max abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_gradient_oracles():
    rng = np.random.default_rng(1002)
    env = build_environment(TrapChainSpec(4, 3, (0, 1, 2), 2))
    cfg = RunConfig(clip_ratio=0.2)
    started = time.monotonic()
    h = 1e-5
    worst_actor = 0.0
    worst_critic = 0.0
    for trial in range(100):
        actor = random_actor(env, rng)
        critic = random_critic(env, rng)
        batch = collect_batch(actor, critic, plain_snapshot(beta=0.7), env, 4, 8,
                              STANDARD, -1.0, 2000 + trial, 1)
        advs = compute_advantages(batch, cfg, -1.0)
        actor.table = actor.table + rng.normal(0, 0.2, size=actor.table.shape)
        grad, _cf = ppo_surrogate_grad(actor, batch, advs, cfg)
        visited = {rec.state_id for t in records(batch) for rec in t.steps}
        for s in visited:
            for k in range(actor.vocab_size):
                base = actor.table[s, k]
                actor.table[s, k] = base + h
                up = ppo_surrogate_value(actor, batch, advs, cfg)
                actor.table[s, k] = base - h
                down = ppo_surrogate_value(actor, batch, advs, cfg)
                actor.table[s, k] = base
                fd = (up - down) / (2 * h)
                a = grad[s, k]
                worst_actor = max(worst_actor,
                                  abs(a - fd) / max(abs(a), abs(fd), 1e-8))
        cgrad = critic_grad(critic, batch, advs)
        for s in visited:
            base = critic.table[s]
            critic.table[s] = base + h
            up = critic_loss(critic, batch, advs)
            critic.table[s] = base - h
            down = critic_loss(critic, batch, advs)
            critic.table[s] = base
            fd = (up - down) / (2 * h)
            a = cgrad[s]
            worst_critic = max(worst_critic,
                               abs(a - fd) / max(abs(a), abs(fd), 1e-8))
    elapsed = time.monotonic() - started
    ok = worst_actor < 1e-4 and worst_critic < 1e-4 and elapsed < 30.0
    criterion(2, "gradient-oracles", ok,
              f"actor rel err {worst_actor:.2e}, critic rel err {worst_critic:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_03_regret_identity():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(2, 17))
        logits = rng.normal(0, 2, size=k)
        lp = log_softmax(logits)
        a = int(rng.integers(k))
        g = float(lp.max() - lp[a])
        worst = max(worst, abs(g - float(logits.max() - logits[a])))
    criterion(3, "regret-identity", worst < 1e-12, f"max abs err {worst:.2e}")


def test_criterion_04_absorbing_state_td():
    cfg = RunConfig(variant="espo", vocab_size=4, target_length=4, t_max=32,
                    batch_size=32, total_steps=50, seed=11, actor_init_scale=1.0,
                    beta_init=1.0, beta_max=2.0)
    run = TrainingRun(cfg)
    stop_events = 0
    exact = True
    for _ in range(50):
        run.step()
        advs = compute_advantages(run.last_batch, run.config, run.plan.early_stop_reward)
        td_errors = by_row(advs.td_errors, run.last_batch)
        view = standard_view(run.last_batch, run.plan.early_stop_reward)
        for traj, row in zip(records(view), td_errors):
            if traj.stop_reason is not StopReason.EARLY_STOP:
                continue
            stop_events += 1
            deltas = row[:len(traj.steps)]
            stop = traj.steps[-1]
            if deltas[-1] != cfg.r_fail - stop.value_estimate:
                exact = False
            if traj.outcome_reward != cfg.r_fail:
                exact = False
            # reward 0.0 at every non-final step: delta_t = gamma * V(s_t+1) - V(s_t)
            if any(deltas[i] != cfg.gamma * traj.steps[i + 1].value_estimate
                   - traj.steps[i].value_estimate for i in range(len(traj.steps) - 1)):
                exact = False
    criterion(4, "absorbing-state-td", exact and stop_events >= 200,
              f"{stop_events} stop events, all bit-exact")


def test_criterion_05_ppo_reduction(tmp_path):
    shared = dict(vocab_size=3, target_length=3, t_max=12, doom_padding=0,
                  batch_size=32, total_steps=100, seed=5, lr_actor=0.8,
                  lr_critic=0.3, checkpoint_every=25, eval_episodes=64)
    a = run_experiment(RunConfig(variant="espo", disable_stopping=True,
                                 out_dir=str(tmp_path / "espo_off"), **shared))
    b = run_experiment(RunConfig(variant="ppo",
                                 out_dir=str(tmp_path / "ppo"), **shared))
    metrics_equal = (open(os.path.join(a, "metrics.csv"), "rb").read()
                     == open(os.path.join(b, "metrics.csv"), "rb").read())
    params_equal = True
    for name in ("step_000025", "step_000050", "step_000075", "step_000100", "final"):
        pa = open(os.path.join(a, "checkpoints", name, "params.txt"), "rb").read()
        pb = open(os.path.join(b, "checkpoints", name, "params.txt"), "rb").read()
        params_equal = params_equal and pa == pb
    learned = read_metrics(os.path.join(b, "metrics.csv"))[-1].success_rate > 0.2
    criterion(5, "ppo-reduction", metrics_equal and params_equal and learned,
              f"metrics identical: {metrics_equal}, params identical: {params_equal}, "
              f"baseline learned: {learned}")


def test_criterion_06_causality_and_determinism(tmp_path):
    # frozen-snapshot causality: each trajectory is unchanged when others are
    # removed or reordered
    env = build_environment(TrapChainSpec(8, 12, tuple(range(8)) + (0, 1, 2, 3), None))
    rng = np.random.default_rng(1006)
    actor = random_actor(env, rng)
    critic = random_critic(env, rng)
    snapshot = plain_snapshot(beta=0.5)
    batch = collect_batch(actor, critic, snapshot, env, 16, 32,
                          STANDARD, -1.0, 31, 9)
    order = list(range(16))
    np.random.default_rng(0).shuffle(order)
    causal = all(
        collect_trajectory(actor, critic, snapshot, env, 32,
                           STANDARD, -1.0,
                           trajectory_rng(31, 9, i)) == records(standard_view(batch))[i]
        for i in order[:8])

    shared = dict(variant="espo", vocab_size=4, target_length=3, t_max=12,
                  batch_size=8, total_steps=15, seed=4, actor_init_scale=1.0,
                  beta_init=1.0, beta_max=2.0, eval_episodes=16)
    a = run_experiment(RunConfig(out_dir=str(tmp_path / "a"), **shared))
    b = run_experiment(RunConfig(out_dir=str(tmp_path / "b"), **shared))
    identical = (open(os.path.join(a, "metrics.csv"), "rb").read()
                 == open(os.path.join(b, "metrics.csv"), "rb").read())
    criterion(6, "causality-determinism", causal and identical,
              f"schedule-independent: {causal}, byte-identical reruns: {identical}")


def test_criterion_07_controller_setpoint():
    rng = np.random.default_rng(1007)
    ctrl = make_stopper(beta_init=7.0, eta_beta=0.1, target_stop_rate=0.25,
                        beta_min=0.0, beta_max=10.0)
    rates = []
    for _ in range(250):
        p = 1.0 / (1.0 + math.exp(2.0 * (ctrl.beta - 5.0)))  # decreasing in beta
        rate = rng.binomial(64, p) / 64
        rates.append(rate)
        ctrl.update_beta(rate)
    rolling = {n: statistics.fmean(rates[n - 50:n]) for n in range(50, 251)}
    hit = next((n for n in sorted(rolling) if abs(rolling[n] - 0.25) <= 0.05), None)
    ok = hit is not None and hit <= 200 and abs(rolling[200] - 0.25) <= 0.05
    criterion(7, "controller-setpoint", ok,
              f"rolling rate within band at update {hit}, "
              f"rate@200 {rolling[200]:.3f}")


def test_criterion_08_token_saving(protocol_runs):
    dirs = protocol_runs["dirs"]
    espo_tokens = statistics.fmean(final_tokens(dirs[("espo", s)]) for s in SEEDS)
    ppo_tokens = statistics.fmean(final_tokens(dirs[("ppo", s)]) for s in SEEDS)
    espo_succ = statistics.fmean(final_greedy_success(dirs[("espo", s)]) for s in SEEDS)
    ppo_succ = statistics.fmean(final_greedy_success(dirs[("ppo", s)]) for s in SEEDS)
    ratio = espo_tokens / ppo_tokens
    elapsed = protocol_runs["elapsed"]
    ok = ratio <= 0.85 and espo_succ >= ppo_succ - 0.02 and elapsed < 900
    criterion(8, "token-saving", ok,
              f"token ratio {ratio:.3f} (<= 0.85), greedy success "
              f"{espo_succ:.3f} vs {ppo_succ:.3f}, protocol wall time {elapsed:.0f}s")


def test_criterion_09_ablation_ordering(protocol_runs):
    dirs = protocol_runs["dirs"]

    def means(variant):
        succ = statistics.fmean(final_greedy_success(dirs[(variant, s)]) for s in SEEDS)
        toks = statistics.fmean(final_tokens(dirs[(variant, s)]) for s in SEEDS)
        return succ, toks

    espo_s, espo_t = means("espo")
    f_s, f_t = means("random_stop")
    c_s, c_t = means("espo_no_penalty")
    calib = statistics.fmean(
        abs(mean_stop_rate(dirs[("espo", s)]) - mean_stop_rate(dirs[("random_stop", s)]))
        for s in SEEDS)

    def beats(succ_a, tok_a, succ_b, tok_b):
        return succ_a > succ_b or (succ_a == succ_b and tok_a <= tok_b)

    vs_random = beats(espo_s, espo_t, f_s, f_t)
    vs_nopenalty = beats(espo_s, espo_t, c_s, c_t)
    ok = vs_random and vs_nopenalty and calib <= 0.03
    criterion(
        9, "ablation-ordering", ok,
        f"espo (succ {espo_s:.3f}, tokens {espo_t:.0f}) vs random-stop "
        f"(succ {f_s:.3f}, tokens {f_t:.0f}) -> {vs_random}; vs no-penalty "
        f"(succ {c_s:.3f}, tokens {c_t:.0f}) -> {vs_nopenalty}; "
        f"stop-rate calibration gap {calib:.4f} (<= 0.03). "
        "KNOWN LIMIT: at this desk scale no variant ever succeeds, so the "
        "ordering falls to the token tie-break, where a rate-matched random "
        "stopper is structurally at least as front-loaded as the smoothed "
        "threshold crossing; see decisions ledger")


def test_criterion_10_false_positive_harness(tmp_path):
    # (a) stopping disabled -> measured FP rate identically zero
    cfg = RunConfig(variant="espo", disable_stopping=True, counterfactual=True,
                    env="recoverable", vocab_size=8, target_length=12,
                    repair_window=3, t_max=32, batch_size=16, total_steps=10,
                    seed=2, actor_init_scale=1.0, eval_episodes=16,
                    out_dir=str(tmp_path / "disabled"))
    out = run_experiment(cfg)
    rows = read_metrics(os.path.join(out, "metrics.csv"))
    disabled_zero = all(r.false_positive_rate == 0.0 for r in rows)

    # (b) frozen-policy measurement on recoverable(m=3): finite FP rate that
    # strictly decreases when beta is raised 7.0 -> 10.0
    env = build_environment(RecoverableBranchSpec(8, 12, 3))
    actor = TabularActor(env.state_count, env.vocab_size)
    for i, label in enumerate(env.labels):
        row = np.zeros(8)
        if label.startswith("chain:"):
            row[0] = 3.0
        elif label.startswith("detour:"):
            row[0] = 2.0
        actor.table[i] = row
    critic = TabularCritic(env.state_count)

    def fp_at(beta):
        snap = StopperSnapshot(frozen_mu=0.5, frozen_var=0.0625, beta=beta,
                               value_floor=0.2, warmup_active=False)
        rates = []
        for b in range(3):  # reported per batch
            batch = collect_batch(actor, critic, snap, env, 512, 64,
                                  COUNTERFACTUAL,
                                  -1.0, 77, b)
            rates.append(false_positive_rate(batch))
        return rates

    fp7 = fp_at(7.0)
    fp10 = fp_at(10.0)
    finite = all(0.0 <= r <= 1.0 for r in fp7 + fp10)
    monotone = statistics.fmean(fp10) < statistics.fmean(fp7)
    positive = statistics.fmean(fp7) > 0.0
    ok = disabled_zero and finite and monotone and positive
    criterion(10, "false-positive-harness", ok,
              f"disabled run fp==0: {disabled_zero}; fp@beta7 {fp7}, "
              f"fp@beta10 {fp10}")


def test_criterion_11_published_arithmetic(tmp_path):
    def synthetic_run(path, variant, tokens):
        os.makedirs(path)
        write_manifest(path, RunConfig(variant=variant), status="complete")
        with MetricsWriter(os.path.join(path, "metrics.csv")) as writer:
            writer.write(MetricsRow(1, tokens, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0,
                                    7.0, 0.0, 1.0, 0.0, 0.0, False))
        return path

    a = synthetic_run(str(tmp_path / "espo"), "espo", 839_240_000)
    b = synthetic_run(str(tmp_path / "ppo"), "ppo", 1_072_400_000)
    rows = compare_runs([a, b], baseline_variant="ppo")
    saving = next(r for r in rows if r.variant == "espo").saving_pct
    direct = token_saving_pct(839.24, 1072.40)
    ok = abs(saving - 21.7) <= 0.1 and abs(saving - direct) < 1e-9
    criterion(11, "published-arithmetic", ok, f"reported saving {saving:.4f}%")


def test_criterion_12_warmup_behavior():
    def release_step(losses, total_steps=1000):
        gate = make_stopper(total_steps=total_steps)
        for step, loss in enumerate(losses, start=1):
            gate.warmup_step(loss, step)
            if not gate.warmup_active:
                return step
        return None

    abs_exit = release_step([0.4, 0.4, 0.4]) == 3
    delta_exit = release_step([2.0, 1.95, 1.90, 1.85]) == 4
    oscillation = [0.0 if i % 2 == 0 else 2.0 for i in range(20)]
    cap_exit = release_step(oscillation, total_steps=40) == math.ceil(0.10 * 40)
    never_early = release_step([5.0, 4.0, 2.0], total_steps=1000) is None
    ok = abs_exit and delta_exit and cap_exit and never_early
    criterion(12, "warmup-behavior", ok,
              f"abs-exit@3: {abs_exit}, delta-exit@4: {delta_exit}, "
              f"cap-exit@ceil(10%): {cap_exit}")
