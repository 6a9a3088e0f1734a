"""One benchmark run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py MODE WORKLOAD SEED RUN_DIR [--smoke] [--trace-file PATH]

MODE is one of
  setup   enter `harness.run_experiment` and stop at the start of step 1
          (reference seconds as well);
  run     a whole run with tracing off (two clock hooks, see `clock_hooks`),
          its times in reference seconds (see calibration.py);
  traced  a whole run with a span around every call listed in spans.TARGETS;
  micro   time single layers on the frozen batch of one step (no outputs).

`run.py` starts it with `src` on PYTHONPATH. The worker prints one JSON
object as its last line and removes RUN_DIR before it exits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import time

# numpy 2 loads numpy.random on its first use; load it here, so that setup_s
# leaves it out as it leaves out the rest of numpy's import.
import numpy.random  # noqa: F401

import spans
from calibration import SpeedLog
from workloads import MICRO_STEP, WORKLOADS, check_metrics_rows, output_digests, workload_config

from espolab import harness
from espolab.config import RunConfig
from espolab.envs import build_environment
from espolab.metrics import MetricsWriter, read_manifest, read_metrics
from espolab.rollout import CachedPolicy, collect_batch
from espolab.trainer import (
    TrainingRun,
    compute_advantages,
    critic_grad,
    critic_loss,
    env_spec_from_config,
    ppo_surrogate_grad,
)

MICRO_MIN_SECONDS = 0.3  # time each microbenchmark for at least this long
MICRO_MIN_CALLS = 5
CALIBRATE_AROUND_RUN = 3  # kernel runs before the run starts and after it ends


class SetupDone(Exception):
    """Raised at the start of step 1 to end a set-up probe."""


@contextlib.contextmanager
def clock_hooks(marks: dict, row_times: list, speed: SpeedLog | None = None,
                setup_only: bool = False):
    """Record when step 1 starts and when each row has passed MetricsWriter.write.

    The step hook removes itself after the first call, so later steps run the
    original method; the write hook costs one clock read per row and, given a
    SpeedLog, one calibration kernel run that the next step's interval starts
    after.
    """
    step, write = TrainingRun.step, MetricsWriter.write
    clock = time.perf_counter

    def first_step(self):
        marks["step1"] = clock()
        if setup_only:
            raise SetupDone
        TrainingRun.step = step
        return step(self)

    def timed_write(self, row):
        write(self, row)
        row_times.append(clock())
        if speed is not None:
            marks["resume"] = speed.calibrate()

    TrainingRun.step, MetricsWriter.write = first_step, timed_write
    try:
        yield
    finally:
        TrainingRun.step, MetricsWriter.write = step, write


def check_outputs(name: str, cfg: RunConfig) -> tuple[dict, list[str]]:
    problems = check_metrics_rows(os.path.join(cfg.out_dir, "metrics.csv"), cfg.total_steps)
    if read_manifest(cfg.out_dir).get("status") != "complete":
        problems.append("manifest status is not complete")
    return output_digests(name, cfg.out_dir), problems


def state_count(cfg: RunConfig) -> int:
    return build_environment(env_spec_from_config(cfg), cfg.state_budget).state_count


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup_probe(cfg: RunConfig) -> dict:
    marks: dict = {}
    speed = SpeedLog()
    with clock_hooks(marks, [], setup_only=True):
        start = speed.calibrate(CALIBRATE_AROUND_RUN)
        try:
            harness.run_experiment(cfg)
        except SetupDone:
            pass
    speed.calibrate(CALIBRATE_AROUND_RUN)
    return {"setup_s": speed.reference_s(start, marks["step1"])}


def plain_run(name: str, cfg: RunConfig) -> dict:
    """A whole run; every interval is reported in reference seconds (see
    calibration.py), and the wall times that exclude the kernel runs beside."""
    marks: dict = {}
    row_times: list[float] = []
    speed = SpeedLog()
    with clock_hooks(marks, row_times, speed):
        start = speed.calibrate(CALIBRATE_AROUND_RUN)
        harness.run_experiment(cfg)
        end = time.perf_counter()
    speed.calibrate(CALIBRATE_AROUND_RUN)
    step_starts = [marks["step1"]] + speed.ends[CALIBRATE_AROUND_RUN:-CALIBRATE_AROUND_RUN - 1]
    step_s = [speed.reference_s(a, b) for a, b in zip(step_starts, row_times)]
    setup_s = speed.reference_s(start, marks["step1"])
    tail_s = speed.reference_s(marks["resume"], end)
    digests, problems = check_outputs(name, cfg)
    rows = read_metrics(os.path.join(cfg.out_dir, "metrics.csv"))
    kernel_s = speed.kernel_s()
    return {
        "setup_s": setup_s,
        "train_s": setup_s + sum(step_s) + tail_s,
        "step_s": step_s,
        "wall_train_s": end - start - sum(kernel_s[CALIBRATE_AROUND_RUN:-CALIBRATE_AROUND_RUN]),
        "kernel_ms": statistics.median(kernel_s) * 1e3,
        "tokens": rows[-1].cumulative_tokens,
        "peak_rss_mib": peak_rss_mib(),
        "digests": digests,
        "problems": problems,
    }


def traced_run(name: str, cfg: RunConfig, trace_file: str | None) -> dict:
    tracer = spans.Tracer(run_id=f"{name}-seed{cfg.seed}-traced")
    with tracer.instrument():
        run_experiment = tracer.wrap("harness.run_experiment", harness.run_experiment)
        start = time.perf_counter()
        run_experiment(cfg)
        end = time.perf_counter()
    if trace_file:
        tracer.dump(trace_file, header={"workload": name, "seed": cfg.seed})
    digests, problems = check_outputs(name, cfg)
    rows = read_metrics(os.path.join(cfg.out_dir, "metrics.csv"))
    return {
        "train_s": end - start,
        "layers": layer_metrics(tracer.spans, rows, cfg.batch_size, state_count(cfg)),
        "digests": digests,
        "problems": problems,
    }


def layer_metrics(span_list, rows, batch_size: int, state_count: int) -> dict[str, list]:
    """Per-layer metrics of one traced run: name -> [value, unit]."""
    by_name = spans.totals(span_list)
    steps = len(rows)

    def calls(name):
        return by_name[name][0]

    def total_ns(name):
        return by_name[name][1]

    def per_step(name, scale):
        return total_ns(name) / steps / scale

    def per_call(name, scale):
        return total_ns(name) / calls(name) / scale

    decoded = rows[-1].cumulative_tokens
    useful = sum(round(r.avg_trajectory_length_actual * batch_size) for r in rows)
    step_ns = total_ns("trainer.TrainingRun.step")
    ms, us = 1e6, 1e3
    return {
        "trainer.TrainingRun.step.ms_per_step": [per_step("trainer.TrainingRun.step", ms), "ms"],
        "trainer.step.self_ms": [by_name["trainer.TrainingRun.step"][2] / steps / ms, "ms"],
        "rollout.collect_batch.ms_per_step": [per_step("rollout.collect_batch", ms), "ms"],
        "rollout.collect_batch.ns_per_token": [total_ns("rollout.collect_batch") / decoded, "ns"],
        "rollout.collect_batch.step_share": [
            100.0 * total_ns("rollout.collect_batch") / step_ns, "%"],
        "rollout.tokens_decoded": [decoded, "count"],
        "rollout.useful_token_ratio": [useful / decoded, "ratio"],
        "rollout.CachedPolicy.ms_per_step": [per_step("rollout.CachedPolicy", ms), "ms"],
        "envs.state_count": [state_count, "count"],
        "trainer.ppo_surrogate_grad.ms_per_call": [per_call("trainer.ppo_surrogate_grad", ms), "ms"],
        "trainer.ppo_surrogate_grad.calls_per_step": [
            calls("trainer.ppo_surrogate_grad") / steps, "count"],
        "trainer.ppo_surrogate_grad.step_share": [
            100.0 * total_ns("trainer.ppo_surrogate_grad") / step_ns, "%"],
        "trainer.compute_advantages.ms_per_step": [per_step("trainer.compute_advantages", ms), "ms"],
        "trainer.critic_loss.ms_per_step": [per_step("trainer.critic_loss", ms), "ms"],
        "trainer.critic_grad.ms_per_step": [per_step("trainer.critic_grad", ms), "ms"],
        "stopper.snapshot.us_per_step": [per_step("stopper.snapshot", us), "us"],
        "stopper.end_of_batch.us_per_step": [per_step("stopper.end_of_batch", us), "us"],
        "stopper.stops_per_batch": [
            statistics.fmean(r.stop_rate * batch_size for r in rows), "count"],
        "policy.TabularActor.apply_gradient.us_per_call": [
            per_call("policy.TabularActor.apply_gradient", us), "us"],
        "policy.TabularCritic.apply_gradient.us_per_call": [
            per_call("policy.TabularCritic.apply_gradient", us), "us"],
        "rollout.evaluate_policy.ms_per_call": [per_call("rollout.evaluate_policy", ms), "ms"],
        "trainer.TrainingRun.save_checkpoint.ms_per_call": [
            per_call("trainer.TrainingRun.save_checkpoint", ms), "ms"],
        "metrics.MetricsWriter.write.us_per_row": [per_call("metrics.MetricsWriter.write", us), "us"],
        "harness.run_experiment.self_ms": [by_name["harness.run_experiment"][2] / ms, "ms"],
        "config.require_valid.ms": [total_ns("config.require_valid") / ms, "ms"],
        "variants.variant_dispatch.ms": [total_ns("variants.variant_dispatch") / ms, "ms"],
        "envs.build_environment.ms": [total_ns("envs.build_environment") / ms, "ms"],
    }


def median_call_us(fn) -> float:
    fn()  # warm
    times = []
    clock = time.perf_counter
    budget_end = clock() + MICRO_MIN_SECONDS
    while len(times) < MICRO_MIN_CALLS or clock() < budget_end:
        start = clock()
        fn()
        times.append(clock() - start)
    return statistics.median(times) * 1e6


def micro(cfg: RunConfig, at_step: int) -> dict:
    """Time each layer on the batch of step `at_step`, with the actor and
    critic as they were when that batch was collected."""
    run = TrainingRun(cfg)
    for _ in range(at_step - 1):
        run.step()
    actor, critic = run.actor.copy(), run.critic.copy()
    run.step()
    batch, ppo, r_fail = run.last_batch, run.ppo, run.plan.early_stop_reward
    cache = CachedPolicy(actor, critic)

    def collect():
        return collect_batch(actor, critic, batch.snapshot, run.env, cfg.batch_size,
                             cfg.t_max, batch.mode, r_fail, cfg.seed, at_step, cache=cache)

    problems = []
    if collect().trajectories != batch.trajectories:
        problems.append(f"micro: batch {at_step} collected again differs from the run's")
    advs = compute_advantages(batch, ppo, r_fail)
    cases = {
        "collect_batch": collect,
        "compute_advantages": lambda: compute_advantages(batch, ppo, r_fail),
        "ppo_surrogate_grad": lambda: ppo_surrogate_grad(actor, batch, advs, ppo),
        "critic_loss": lambda: critic_loss(critic, batch, advs),
        "critic_grad": lambda: critic_grad(critic, batch, advs),
    }
    return {
        "micro": {f"micro.{fn}.us": [median_call_us(call), "us"] for fn, call in cases.items()},
        "problems": problems,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "traced", "micro"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("run_dir")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    name, smoke = args.workload, args.smoke
    out_dir = "" if args.mode == "micro" else args.run_dir
    cfg = RunConfig(**workload_config(name, args.seed, out_dir, smoke))
    shutil.rmtree(args.run_dir, ignore_errors=True)
    try:
        if args.mode == "setup":
            result = setup_probe(cfg)
        elif args.mode == "run":
            result = plain_run(name, cfg)
        elif args.mode == "traced":
            result = traced_run(name, cfg, args.trace_file)
        else:
            result = micro(cfg, min(MICRO_STEP, cfg.total_steps))
    finally:
        shutil.rmtree(args.run_dir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
