"""Harness surface: dispatch, FP measurement, metrics files, compare, CLI."""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import importlib
import io
import json
import os
import pathlib
import pkgutil

import numpy as np
import pytest

from espolab import metrics as metrics_module
from espolab.cli import main as cli_main
from espolab.config import ConfigError, RunConfig, config_hash
from espolab.harness import (
    ablate,
    compare_runs,
    evaluate_run,
    false_positive_rate,
    render_comparison,
    run_experiment,
    token_saving_pct,
)
from espolab.metrics import (
    MetricsRow,
    MetricsWriter,
    read_manifest,
    read_metrics,
    write_manifest,
)
from espolab.policy import TabularActor, TabularCritic, save_params
from espolab.rollout import CachedPolicy, collect_batch
from espolab.stopper import StopperState
from espolab.trainer import TrainingRun, compute_advantages, ppo_surrogate_grad
from espolab.variants import COUNTERFACTUAL, STANDARD, variant_dispatch

from conftest import (
    StopReason,
    batch_from_trajectories,
    dump_batch,
    grouped,
    plain_snapshot,
    records,
)
from test_rollout import make_traj


def tiny_config(**overrides):
    defaults = dict(variant="espo", vocab_size=4, target_length=3, t_max=12,
                    batch_size=8, total_steps=10, seed=3, actor_init_scale=1.0,
                    beta_init=1.0, beta_max=2.0, eta_beta=0.1)
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestPackageSurface:
    def test_every_exported_name_resolves(self):
        import espolab

        for info in pkgutil.iter_modules(espolab.__path__):
            module = importlib.import_module(f"espolab.{info.name}")
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"espolab.{info.name}.__all__ lists {name}"

    def test_no_unused_imports(self):
        # no linter ships with the lab: every name a module imports must be
        # read, exported in its __all__, or imported on a `# noqa` line
        import espolab

        unused = []
        for path in sorted(pathlib.Path(espolab.__file__).parent.glob("*.py")):
            source = path.read_text(encoding="utf-8")
            lines, tree = source.splitlines(), ast.parse(source)
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for node in tree.body:
                if isinstance(node, ast.Assign) and "__all__" in [
                        getattr(target, "id", None) for target in node.targets]:
                    used |= set(ast.literal_eval(node.value))
            for node in ast.walk(tree):
                if (isinstance(node, (ast.Import, ast.ImportFrom))
                        and getattr(node, "module", None) != "__future__"
                        and "# noqa" not in lines[node.lineno - 1]):
                    unused += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                               if (alias.asname or alias.name.split(".")[0]) not in used]
        assert not unused, unused

    def test_no_import_cycle(self):
        # the package's module-level imports of its own modules, with those
        # under `if TYPE_CHECKING:` counted, form no cycle; the imports
        # deferred into functions are exactly the two named here
        import graphlib

        import espolab

        graph, deferred = {}, set()
        for path in sorted(pathlib.Path(espolab.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            inner = {id(node) for fn in ast.walk(tree)
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for node in ast.walk(fn)}
            graph[path.stem] = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    edge = node.module or "__init__"
                    if id(node) in inner:
                        deferred.add((path.stem, edge))
                    else:
                        graph[path.stem].add(edge)
        graphlib.TopologicalSorter(graph).prepare()  # raises CycleError naming the cycle
        assert deferred == {("config", "envs"), ("metrics", "__init__")}

    def test_no_dead_definitions(self):
        # every function, class and method defined in src/, and every name a
        # src/ module assigns at its top level, must be read in src/ or
        # perfbench/, or exported in its module's __all__; Python itself
        # calls the dunder methods and reads the dunder names
        import espolab

        src = pathlib.Path(espolab.__file__).parent
        bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
        read, defined = set(), []
        for path in sorted(src.glob("*.py")) + sorted(bench.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body if path.parent == src else ():
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                defined += [(f"{path.name}:{node.lineno}", name.id)
                            for target in targets for name in ast.walk(target)
                            if isinstance(name, ast.Name) and not name.id.startswith("__")]
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.Assign) and "__all__" in [
                        getattr(target, "id", None) for target in node.targets]:
                    read |= set(ast.literal_eval(node.value))
                elif (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path.parent == src
                      and not node.name.startswith("__")):
                    defined.append((f"{path.name}:{node.lineno}", node.name))
        dead = [f"{where} {name}" for where, name in defined if name not in read]
        assert not dead, dead


class TestBenchmarkHooks:
    """perfbench wraps the names in perfbench/spans.py TARGETS and feeds
    `TrainingRun.ppo` to the trainer functions; a src change that breaks
    either fails here, not only in the benchmark's own suite."""

    @staticmethod
    def targets():
        """spans.TARGETS, (module, attribute path, span name) each, read
        without importing perfbench."""
        spans = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        tree = ast.parse(spans.read_text(encoding="utf-8"))
        return next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "TARGETS")

    @staticmethod
    def resolve(module_name, path):
        """The object that holds a target's attribute, and the attribute."""
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr

    def test_every_traced_target_resolves(self):
        targets = self.targets()
        assert targets
        for module_name, path, _span in targets:
            owner, attr = self.resolve(module_name, path)
            assert attr in vars(owner), f"{module_name}: {path}"

    def test_every_traced_span_is_recorded(self, tmp_path, monkeypatch):
        # perfbench's layer_metrics looks each span name up in a traced run's
        # totals, so a target that a run no longer calls is a KeyError there
        calls = {}

        def counted(span, fn):
            def wrapper(*args, **kwargs):
                calls[span] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module_name, path, span in self.targets():
            owner, attr = self.resolve(module_name, path)
            calls[span] = 0
            monkeypatch.setattr(owner, attr, counted(span, vars(owner)[attr]))
        run_experiment(tiny_config(out_dir=str(tmp_path), total_steps=4, checkpoint_every=2,
                                   eval_every=2, eval_episodes=8))
        assert [span for span, n in calls.items() if not n] == []

    def test_run_ppo_feeds_the_trainer_functions(self):
        run = TrainingRun(tiny_config())
        run.step()
        batch = run.last_batch
        advs = compute_advantages(batch, run.ppo, run.plan.early_stop_reward)
        grad, clip_fraction = ppo_surrogate_grad(run.actor, batch, advs, run.ppo)
        assert grad.shape == run.actor.table.shape
        assert 0.0 <= clip_fraction <= 1.0

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(counterfactual=True),
        dict(variant="random_stop", random_stop_rate=0.05),
    ], ids=["espo", "counterfactual", "random_stop"])
    def test_micro_recollects_the_run_batch(self, overrides):
        # perfbench/worker.py `micro` collects a step's batch again, passing
        # batch.snapshot and batch.mode positionally with the actor and
        # critic as they were before the step: every field comes out equal
        cfg = tiny_config(total_steps=6, **overrides)
        run = TrainingRun(cfg)
        for _ in range(cfg.total_steps - 1):
            run.step()
        actor, critic = run.actor.copy(), run.critic.copy()
        run.step()
        batch = run.last_batch
        assert np.count_nonzero(batch.stops >= 0)
        again = collect_batch(actor, critic, batch.snapshot, run.env, cfg.batch_size,
                              cfg.t_max, batch.mode, run.plan.early_stop_reward, cfg.seed,
                              run.step_index, cache=CachedPolicy(actor, critic))
        for field in dataclasses.fields(batch):
            ours, theirs = getattr(again, field.name), getattr(batch, field.name)
            if isinstance(theirs, np.ndarray):
                assert ours.dtype == theirs.dtype, field.name
                assert np.array_equal(ours, theirs), field.name
            else:
                assert ours == theirs, field.name


class TestVariantDispatch:
    def test_unknown_variant_rejected(self):
        cfg = dataclasses.replace(RunConfig(), variant="mystery")
        with pytest.raises(ConfigError):
            variant_dispatch(cfg)

    def test_ablation_plans_differ_from_espo_only_in_their_mechanism(self):
        # the plan fields each ablation changes relative to espo; threshold
        # rules also fix the threshold and random_stop its rate (the
        # controller runs under the espo rule alone)
        expected = {
            "ppo": {"rule"},
            "espo_no_warmup": {"warmup_enabled"},
            "espo_no_penalty": {"early_stop_reward"},
            "value_only": {"rule", "rule_threshold"},
            "regret_only": {"rule", "rule_threshold"},
            "random_stop": {"rule", "random_fixed_rate"},
        }
        base = tiny_config(value_stop_threshold=0.25, regret_stop_threshold=0.5,
                           random_stop_rate=0.1)
        espo = dataclasses.asdict(variant_dispatch(base))
        for variant, fields in expected.items():
            plan = dataclasses.asdict(variant_dispatch(
                dataclasses.replace(base, variant=variant)))
            changed = {k for k in plan if plan[k] != espo[k]}
            assert changed == fields, variant

    def test_no_penalty_keeps_truncation_but_zeroes_reward(self):
        cfg = tiny_config(variant="espo_no_penalty", total_steps=6)
        run = TrainingRun(cfg)
        saw_stop = False
        for _ in range(6):
            run.step()
            for traj in records(run.last_batch):
                if traj.stop_reason is StopReason.EARLY_STOP:
                    saw_stop = True
                    assert traj.outcome_reward == 0.0
        assert saw_stop

    def test_value_only_and_regret_only_rules(self):
        plan_d = variant_dispatch(tiny_config(variant="value_only",
                                              value_stop_threshold=0.25))
        assert plan_d.rule == "value_only" and plan_d.rule_threshold == 0.25
        # the controller runs under the espo rule alone: past warmup and
        # anneal, a full stop rate moves espo's beta and not value_only's
        for plan, moves in ((plan_d, False), (variant_dispatch(tiny_config()), True)):
            stopper = StopperState(tiny_config(), plan)
            stopper.warmup_active = False
            stopper.end_of_batch(*grouped([0.1]), 1.0, 0.0, 1)
            assert (stopper.beta != tiny_config().beta_init) == moves
        plan_e = variant_dispatch(tiny_config(variant="regret_only",
                                              regret_stop_threshold=0.5))
        assert plan_e.rule == "regret_only" and plan_e.rule_threshold == 0.5

    @staticmethod
    def reference_run(path) -> str:
        """A reference run directory: stop rates 0.25 then 0.5, and stop
        events whose medians are V = -0.3 and z = 1.5."""
        os.makedirs(path)
        with MetricsWriter(os.path.join(path, "metrics.csv")) as writer:
            for step, rate in ((1, 0.25), (2, 0.5)):
                writer.write(MetricsRow(step, 10 * step, 1.0, 1.0, rate, 0.0, 1.0, 0.0,
                                        7.0, 0.0, 1.0, 0.0, 0.0, False))
        with open(os.path.join(path, "stop_events.tsv"), "w", encoding="utf-8") as fh:
            fh.write("step\ttrajectory\tstop_step\tvalue_estimate\tz\n")
            for value, z in ((-0.5, 1.0), (-0.3, 2.0), (0.1, 1.5)):
                fh.write(f"1\t0\t3\t{value!r}\t{z!r}\n")
        return str(path)

    @pytest.mark.parametrize("variant, key, explicit, median", [
        ("value_only", "value_stop_threshold", 0.25, -0.3),
        ("regret_only", "regret_stop_threshold", 0.5, 1.5),
    ])
    def test_an_explicit_threshold_wins_over_the_reference(self, tmp_path, variant, key,
                                                            explicit, median):
        reference = self.reference_run(tmp_path / "espo")
        cfg = tiny_config(variant=variant, reference_run=reference)
        assert variant_dispatch(cfg).rule_threshold == median
        plan = variant_dispatch(dataclasses.replace(cfg, **{key: explicit}))
        assert plan.rule_threshold == explicit

    def test_random_stop_replays_the_reference_over_a_fixed_rate(self, tmp_path):
        reference = self.reference_run(tmp_path / "espo")
        cfg = tiny_config(variant="random_stop", random_stop_rate=0.1)
        plan = variant_dispatch(cfg)
        assert plan.random_trace is None and plan.random_fixed_rate == 0.1
        plan = variant_dispatch(dataclasses.replace(cfg, reference_run=reference))
        assert plan.random_trace == (0.25, 0.5) and plan.random_fixed_rate is None


class TestFalsePositiveRate:
    def build_batch(self, fired_correct=1, fired_wrong=2, plain=5):
        trajs = []
        for _ in range(fired_correct):
            trajs.append(make_traj(8, outcome=1.0, hypothetical_stop_index=3))
        for _ in range(fired_wrong):
            trajs.append(make_traj(8, outcome=0.0, hypothetical_stop_index=2))
        for _ in range(plain):
            trajs.append(make_traj(6))
        return batch_from_trajectories(trajs, plain_snapshot(),
                                       COUNTERFACTUAL)

    def test_counting_example(self):
        assert false_positive_rate(self.build_batch()) == 0.125

    def test_no_triggers_means_zero(self):
        batch = self.build_batch(fired_correct=0, fired_wrong=0, plain=8)
        assert false_positive_rate(batch) == 0.0

    def test_mode_mismatch_errors(self):
        batch = batch_from_trajectories([make_traj(3)], plain_snapshot(),
                                        STANDARD)
        with pytest.raises(ValueError, match="counterfactual"):
            false_positive_rate(batch)


class TestMetricsFiles:
    def test_run_writes_rows_manifest_and_final_checkpoint(self, tmp_path):
        cfg = tiny_config(out_dir=str(tmp_path / "run"))
        out = run_experiment(cfg)
        rows = read_metrics(os.path.join(out, "metrics.csv"))
        assert len(rows) == cfg.total_steps
        manifest = read_manifest(out)
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["status"] == "complete"
        assert manifest["wall_time_s"] is not None
        assert os.path.exists(os.path.join(out, "checkpoints", "final", "params.txt"))
        assert os.path.exists(os.path.join(out, "eval.csv"))
        for a, b in zip(rows, rows[1:]):
            assert b.cumulative_tokens >= a.cumulative_tokens

    def test_a_run_that_raises_marks_its_manifest_failed(self, tmp_path):
        # r_fail = 1e308 passes validation, and the actor gradient overflows
        # at step 12 of this config
        cfg = RunConfig(variant="espo", r_fail=1e308, vocab_size=4, target_length=3, t_max=16,
                        batch_size=16, total_steps=20, actor_init_scale=1.0, eta_beta=1.0,
                        target_stop_rate=0.5, out_dir=str(tmp_path / "run"))
        with pytest.raises(ValueError, match="non-finite actor gradient") as raised:
            run_experiment(cfg)
        manifest = read_manifest(cfg.out_dir)
        assert manifest["status"] == "failed"
        assert manifest["error"] == f"ValueError: {raised.value}"
        assert manifest["config_hash"] == config_hash(cfg)
        assert len(read_metrics(os.path.join(cfg.out_dir, "metrics.csv"))) == 11
        complete = run_experiment(tiny_config(out_dir=str(tmp_path / "ok")))
        assert "error" not in read_manifest(complete)

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = tiny_config(out_dir=str(tmp_path / "a"))
        cfg_b = tiny_config(out_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_rows_round_trip_through_csv(self, tmp_path):
        cfg = tiny_config(out_dir=str(tmp_path / "run"))
        rows = list(TrainingRun(dataclasses.replace(cfg, out_dir="")).run())
        path = tmp_path / "metrics.csv"
        with MetricsWriter(path) as writer:
            for row in rows:
                writer.write(row)
        assert read_metrics(path) == rows

    def test_writer_resume_guards_row_count(self, tmp_path):
        path = tmp_path / "metrics.csv"
        with MetricsWriter(path) as writer:
            writer.write(MetricsRow(1, 10, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0,
                                    7.0, 0.0, 1.0, 0.0, 0.0, True))
        with pytest.raises(ValueError, match="resume"):
            MetricsWriter(path, resume_at_step=5)

    def test_fresh_run_into_a_used_out_dir_leaves_one_run(self, tmp_path):
        # a run appends to eval.csv, stop_events.tsv and trajectories.tsv; a
        # fresh run replaces them, so two runs leave the bytes of one
        cfg = tiny_config(out_dir=str(tmp_path), total_steps=4, eval_every=2, eval_episodes=8,
                          record_stop_events=True, dump_trajectories=True)

        def files():
            out = {p.relative_to(tmp_path): p.read_bytes()
                   for p in tmp_path.rglob("*") if p.is_file()}
            manifest = json.loads(out.pop(pathlib.Path("manifest.json")))
            del manifest["written_at"], manifest["wall_time_s"]
            return out, manifest

        run_experiment(cfg)
        once = files()
        assert {"eval.csv", "stop_events.tsv", "trajectories.tsv"} <= {
            str(p) for p in once[0]}
        run_experiment(cfg)
        assert files() == once

    def test_fresh_run_replaces_the_checkpoints(self, tmp_path):
        # an earlier run's checkpoints would stay resumable beside a
        # metrics.csv that no longer holds their run
        cfg = tiny_config(out_dir=str(tmp_path), total_steps=4, checkpoint_every=2)
        run_experiment(cfg)
        checkpoints = tmp_path / "checkpoints"
        assert sorted(p.name for p in checkpoints.iterdir()) == [
            "final", "step_000002", "step_000004"]
        run_experiment(dataclasses.replace(cfg, checkpoint_every=0))
        assert [p.name for p in checkpoints.iterdir()] == ["final"]

    def test_a_run_validates_its_config_once(self, tmp_path, monkeypatch):
        import espolab.config

        calls = []
        validate = espolab.config.validate_run_config
        monkeypatch.setattr(espolab.config, "validate_run_config",
                            lambda cfg: calls.append(cfg) or validate(cfg))
        cfg = tiny_config(out_dir=str(tmp_path), total_steps=4, checkpoint_every=2)
        run_experiment(cfg)
        assert calls == [cfg]
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("".join(metrics.read_text().splitlines(True)[:3]))
        run_experiment(cfg, resume_checkpoint=tmp_path / "checkpoints" / "step_000002")
        assert calls == [cfg, cfg]
        assert sorted(p.name for p in (tmp_path / "checkpoints").iterdir()) == [
            "final", "step_000002", "step_000004"]

    def test_unwritable_out_dir_fails_fast(self):
        cfg = tiny_config(out_dir="/proc/definitely/not/writable")
        with pytest.raises((ConfigError, OSError)):
            run_experiment(cfg)

    def test_stop_events_and_dumps_written(self, tmp_path):
        cfg = tiny_config(out_dir=str(tmp_path / "run"), record_stop_events=True,
                          dump_trajectories=True, total_steps=6)
        out = run_experiment(cfg)
        events = (tmp_path / "run" / "stop_events.tsv").read_text().splitlines()
        assert events[0].startswith("step\t")
        assert len(events) > 1
        assert (tmp_path / "run" / "trajectories.tsv").exists()

    @pytest.mark.parametrize("overrides, mode, rule", [
        (dict(), STANDARD, "espo"),
        (dict(counterfactual=True), COUNTERFACTUAL, "espo"),
        (dict(variant="random_stop", random_stop_rate=0.05), STANDARD, "random_stop"),
        (dict(variant="ppo"), STANDARD, "ppo"),
    ], ids=["standard", "counterfactual", "random", "disabled"])
    def test_trajectory_dump_equals_the_record_oracle(self, tmp_path, overrides, mode, rule):
        # trajectories.tsv, written from the batch arrays, holds the bytes
        # the per-step record dump gives for every batch of the run
        cfg = tiny_config(out_dir=str(tmp_path), dump_trajectories=True, total_steps=6,
                          **overrides)
        run = TrainingRun(cfg)
        expected = []
        flagged_mid_row = stopped = False
        for _ in range(cfg.total_steps):
            row = run.step()
            batch = run.last_batch
            assert (batch.mode, batch.snapshot.rule) == (mode, rule)
            expected.append(dump_batch(batch, row.step))
            for traj in records(batch):
                if traj.stop_index is not None:
                    stopped = True
                    flagged_mid_row |= traj.stop_index < len(traj.steps) - 1
        assert (tmp_path / "trajectories.tsv").read_bytes() == "".join(expected).encode()
        assert stopped == (rule != "ppo")
        # a hypothetical stop flags a step before the row's end
        assert flagged_mid_row == (mode == COUNTERFACTUAL)


class TestAtomicWrites:
    """params.txt, state.json and manifest.json are written to a temporary
    file and moved into place: a write that raises part-way keeps the
    previous file byte for byte and leaves no temporary file behind."""

    @staticmethod
    def torn_dump(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:40])
        raise OSError("disk full")

    @staticmethod
    def contents(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    def test_save_params(self, tmp_path, monkeypatch):
        actor, critic = TabularActor(3, 2), TabularCritic(3)
        actor.table[1, 0] = 0.25
        save_params(actor, critic, tmp_path / "params.txt")
        before = self.contents(tmp_path)
        actor.table[1, 0] = -1.5

        class TornFile(io.TextIOWrapper):
            def write(self, text):
                super().write(text[:40])
                raise OSError("disk full")

        def torn_open(path, mode, encoding):
            return TornFile(io.FileIO(path, mode), encoding=encoding)

        monkeypatch.setattr(metrics_module, "open", torn_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_params(actor, critic, tmp_path / "params.txt")
        assert self.contents(tmp_path) == before

    def test_save_params_refuses_a_critic_of_another_state_count(self, tmp_path):
        # load_params would reject the file (7 of 9 entries): the save raises
        # before anything is written and the previous params.txt stays
        actor, critic = TabularActor(3, 2), TabularCritic(3)
        save_params(actor, critic, tmp_path / "params.txt")
        before = self.contents(tmp_path)
        actor.table[1, 0] = -1.5
        critic.table = critic.table[:1]
        with pytest.raises(ValueError, match="does not fit 3 states"):
            save_params(actor, critic, tmp_path / "params.txt")
        assert self.contents(tmp_path) == before

    def test_checkpoint_state(self, tmp_path, monkeypatch):
        run = TrainingRun(tiny_config())
        run.step()
        run.save_checkpoint(tmp_path)
        before = self.contents(tmp_path)
        run.step()
        monkeypatch.setattr(json, "dump", self.torn_dump)
        with pytest.raises(OSError, match="disk full"):
            run.save_checkpoint(tmp_path)
        after = self.contents(tmp_path)  # params.txt was replaced before the failure
        assert after.keys() == before.keys()
        assert after["state.json"] == before["state.json"]
        # step 2's parameters beside step 1's state: resume refuses the mix
        assert after["params.txt"] != before["params.txt"]
        with pytest.raises(ConfigError, match="params.txt"):
            TrainingRun.resume(tiny_config(), tmp_path)

    def test_manifest(self, tmp_path, monkeypatch):
        write_manifest(tmp_path, tiny_config(), status="running")
        before = self.contents(tmp_path)
        monkeypatch.setattr(json, "dump", self.torn_dump)
        with pytest.raises(OSError, match="disk full"):
            write_manifest(tmp_path, tiny_config(), status="complete", wall_time_s=1.0)
        assert self.contents(tmp_path) == before


class TestCompareRuns:
    def synthetic_run(self, path, variant, tokens, success, seed=0, **keys):
        """Minimal on-disk run: manifest + two metrics rows."""
        os.makedirs(path, exist_ok=True)
        cfg = RunConfig(variant=variant, seed=seed, **keys)
        write_manifest(path, cfg, status="complete", wall_time_s=1.0)
        with MetricsWriter(os.path.join(path, "metrics.csv")) as writer:
            writer.write(MetricsRow(1, tokens // 2, 1.0, 1.0, 0.0, 0.0, 1.0,
                                    success / 2, 7.0, 0.0, 1.0, 0.0, 0.0, False))
            writer.write(MetricsRow(2, tokens, 1.0, 1.0, 0.0, 0.0, 1.0,
                                    success, 7.0, 0.0, 1.0, 0.0, 0.0, False))
        return path

    def test_published_token_counts_reproduce_reported_saving(self, tmp_path):
        a = self.synthetic_run(str(tmp_path / "espo"), "espo", 839_240_000, 0.46)
        b = self.synthetic_run(str(tmp_path / "ppo"), "ppo", 1_072_400_000, 0.45)
        rows = compare_runs([a, b], baseline_variant="ppo")
        espo_row = next(r for r in rows if r.variant == "espo")
        assert abs(espo_row.saving_pct - 21.7) <= 0.1

    def test_identical_runs_compare_to_zero(self, tmp_path):
        a = self.synthetic_run(str(tmp_path / "x"), "ppo", 1000, 0.5, seed=0)
        b = self.synthetic_run(str(tmp_path / "y"), "espo", 1000, 0.5, seed=0)
        rows = compare_runs([a, b], baseline_variant="ppo")
        for row in rows:
            assert row.saving_pct == 0.0
        assert rows[0].success_mean == rows[1].success_mean

    def test_seed_aggregation_matches_direct_statistics(self, tmp_path):
        import statistics

        tokens = [1000, 1100, 900, 1050, 950]
        succ = [0.5, 0.6, 0.4, 0.55, 0.45]
        dirs = [self.synthetic_run(str(tmp_path / f"e{i}"), "espo", t, s, seed=i)
                for i, (t, s) in enumerate(zip(tokens, succ))]
        dirs.append(self.synthetic_run(str(tmp_path / "base"), "ppo", 2000, 0.3))
        rows = compare_runs(dirs, baseline_variant="ppo")
        espo_row = next(r for r in rows if r.variant == "espo")
        assert espo_row.seeds == 5
        assert espo_row.success_mean == pytest.approx(statistics.fmean(succ))
        assert espo_row.success_std == pytest.approx(statistics.pstdev(succ))
        assert espo_row.tokens_std == pytest.approx(statistics.pstdev(tokens))

    def test_mismatched_environments_rejected(self, tmp_path):
        a = self.synthetic_run(str(tmp_path / "a"), "ppo", 1000, 0.5)
        b = str(tmp_path / "b")
        os.makedirs(b)
        write_manifest(b, RunConfig(variant="espo", vocab_size=5), status="complete")
        with MetricsWriter(os.path.join(b, "metrics.csv")) as writer:
            writer.write(MetricsRow(1, 10, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0,
                                    7.0, 0.0, 1.0, 0.0, 0.0, False))
        with pytest.raises(ValueError, match="environments"):
            compare_runs([a, b])

    def test_trap_chain_runs_that_differ_in_repair_window_compare(self, tmp_path):
        # the trap chain never reads repair_window
        a = run_experiment(tiny_config(variant="ppo", total_steps=2, eval_episodes=8,
                                       out_dir=str(tmp_path / "ppo")))
        b = run_experiment(tiny_config(total_steps=2, eval_episodes=8, repair_window=5,
                                       out_dir=str(tmp_path / "espo")))
        assert [row.variant for row in compare_runs([a, b])] == ["espo", "ppo"]

    @pytest.mark.parametrize("keys", [dict(doom_padding=4), dict(target_seed=3)])
    def test_recoverable_runs_ignore_the_trap_chain_keys(self, tmp_path, keys):
        a = self.synthetic_run(str(tmp_path / "a"), "ppo", 1000, 0.5, env="recoverable")
        b = self.synthetic_run(str(tmp_path / "b"), "espo", 800, 0.5, env="recoverable", **keys)
        assert len(compare_runs([a, b])) == 2
        c = self.synthetic_run(str(tmp_path / "c"), "espo", 800, 0.5, env="recoverable",
                               vocab_size=5, **keys)
        with pytest.raises(ValueError, match="environments"):
            compare_runs([a, c])

    def test_token_saving_pct(self):
        assert token_saving_pct(839.24, 1072.40) == pytest.approx(21.7419, abs=1e-3)
        with pytest.raises(ValueError):
            token_saving_pct(1.0, 0.0)

    def test_render_has_one_line_per_variant(self, tmp_path):
        a = self.synthetic_run(str(tmp_path / "a"), "ppo", 1000, 0.5)
        b = self.synthetic_run(str(tmp_path / "b"), "espo", 800, 0.5)
        text = render_comparison(compare_runs([a, b]))
        assert "espo" in text and "ppo" in text
        assert "20.00" in text  # (1 - 800/1000) * 100


class TestAblateAndEval:
    def test_full_matrix_smoke(self, tmp_path):
        base = tiny_config(total_steps=8, record_stop_events=False)
        dirs = ablate(base, str(tmp_path / "matrix"))
        assert set(dirs) == {"espo", "ppo", "espo_no_warmup", "espo_no_penalty",
                             "value_only", "regret_only", "random_stop"}
        for d in dirs.values():
            assert len(read_metrics(os.path.join(d, "metrics.csv"))) == 8
        assert (tmp_path / "matrix" / "summary.txt").exists()
        # calibration consumed the espo reference
        ref_events = os.path.join(dirs["espo"], "stop_events.tsv")
        assert os.path.exists(ref_events)

    def test_evaluate_run_reports_rates(self, tmp_path):
        cfg = tiny_config(out_dir=str(tmp_path / "run"), eval_episodes=64)
        out = run_experiment(cfg)
        report = evaluate_run(out, episodes=32)
        assert set(report) == {"checkpoint", "episodes", "greedy_success",
                               "sampled_success"}
        assert 0.0 <= report["greedy_success"] <= 1.0
        assert 0.0 <= report["sampled_success"] <= 1.0

    def test_evaluate_run_rejects_fewer_than_one_episode(self, tmp_path, capsys):
        out = run_experiment(tiny_config(out_dir=str(tmp_path / "run"), total_steps=2,
                                         eval_episodes=8))
        for episodes in (0, -3):
            with pytest.raises(ConfigError, match="eval_episodes must be >= 1"):
                evaluate_run(out, episodes=episodes)
        assert cli_main(["eval", out, "--episodes", "0"]) == 1
        assert "eval_episodes must be >= 1" in capsys.readouterr().err
        assert evaluate_run(out)["episodes"] == 8  # None means the run's eval_episodes

    def test_evaluate_run_rejects_a_negative_seed_up_front(self, tmp_path, capsys):
        out = run_experiment(tiny_config(out_dir=str(tmp_path / "run"), total_steps=2,
                                         eval_episodes=8))
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            evaluate_run(out, seed=-1)
        # rejected before the params are read
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            evaluate_run(out, checkpoint="missing", seed=-1)
        assert cli_main(["eval", out, "--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["bogus", "ppo"])
    def test_ablate_rejects_a_bad_variant_list_before_any_run(self, tmp_path, capsys, bad):
        out_root = tmp_path / "matrix"
        argv = ["ablate", "--vocab-size", "4", "--target-length", "3", "--t-max", "12",
                "--batch-size", "8", "--total-steps", "2", "--out-root", str(out_root),
                "--variants", f"espo,ppo,{bad}"]
        assert cli_main(argv) == 1
        assert f"variant {bad!r} is unknown or repeated" in capsys.readouterr().err
        assert not out_root.exists()

    def test_ablate_rejects_a_single_variant_before_any_run(self, tmp_path, capsys):
        out_root = tmp_path / "matrix"
        argv = ["ablate", "--vocab-size", "3", "--target-length", "2", "--t-max", "6",
                "--batch-size", "4", "--total-steps", "3", "--eval-episodes", "4",
                "--out-root", str(out_root), "--variants", "espo"]
        assert cli_main(argv) == 1
        assert "needs the espo reference run and another variant" in capsys.readouterr().err
        assert not out_root.exists()

    def test_ablate_rejects_an_environment_over_the_budget_before_any_run(self, tmp_path,
                                                                           capsys):
        out_root = tmp_path / "matrix"
        assert cli_main(["ablate", "--doom-padding", "1000000000",
                         "--out-root", str(out_root)]) == 1
        assert "state_budget" in capsys.readouterr().err
        assert not out_root.exists()

    def test_ablate_rejects_a_bad_variant_config_before_any_run(self, tmp_path, capsys):
        # counterfactual mode is valid for every variant but random_stop
        out_root = tmp_path / "matrix"
        argv = ["ablate", "--vocab-size", "4", "--target-length", "3", "--t-max", "12",
                "--batch-size", "8", "--total-steps", "2", "--out-root", str(out_root),
                "--counterfactual", "true"]
        assert cli_main(argv) == 1
        assert "counterfactual mode is not defined for random_stop" in capsys.readouterr().err
        assert not out_root.exists()


class TestPinnedOutputs:
    """sha256 of every deterministic output of a tiny ablate matrix and a
    counterfactual run on the recoverable env, side files included. A change
    meant to keep the bytes keeps these. state.json is left out: its
    experiment_hash covers the reference_run path."""

    FILES = ("metrics.csv", "eval.csv", "stop_events.tsv", "trajectories.tsv",
             os.path.join("checkpoints", "final", "params.txt"))
    DIGESTS = {
        "espo": (
            "296df8d4292825418cbe925920d6e8ffa8175168ec3fbd8b768d94dc8ecd2ecf",
            "9ae2434f9db73c620c36889c370a982ef63b5513d89308cf8d70e917e1fbd0f8",
            "88a0e4e9fa6f637068f7758852361eeab5a7bf521c700bf73d82472c15c2bda9",
            "812fdd87db332e3f8c88fdab514179a05aa3bff56ccae0c02221a14891d0539e",
            "b6b5a23646d53193e386ad9c5cd965145cdb384572ff6633d70f7f63c687a01c",
        ),
        "ppo": (
            "8eb119ab4abd0eaa4951f8f63e8ed1373f6e59050888f9117289a4c263f71ebd",
            "9ae2434f9db73c620c36889c370a982ef63b5513d89308cf8d70e917e1fbd0f8",
            "b761b5ad21fdaf1108a42500ab03165e4f6a45f57cda1bac1aa50d762b539b6e",
            "4d61311e06ab1111505b60293d6e376ffdc44b758e5018bd8ef4c5ba688c3e31",
            "1a128a4173725f6e26f68a32636a6348c8314efbef4bf05e81c9a07c73263cdd",
        ),
        "espo_no_warmup": (
            "eb968711a54eae9a2208166bf60fe9782a07c08b0f5cd1389469f69cc5deff9e",
            "9ae2434f9db73c620c36889c370a982ef63b5513d89308cf8d70e917e1fbd0f8",
            "2dcc5a4f9ebc834a4e9868b66b04336a11f1c7595c02562a1cc6a31e7a699501",
            "c2178fa8c4d95d09c9c16839a9167e566f15e5dcb0661bda92c58f9a74cb1494",
            "0c35fdf700c3895406a816b53de09708662ebb15876ef859294938ca67b216c2",
        ),
        "espo_no_penalty": (
            "c960576feca77347a1b7ae6140efb4e5c10c8c8a70171f18cdd6580495a71d64",
            "9ae2434f9db73c620c36889c370a982ef63b5513d89308cf8d70e917e1fbd0f8",
            "31b8638d506f6573a9a7b910663aed78302e2d7b21b3eeec6f02c65608fc39c0",
            "98db910b65245c139418939cb2ffa7d54a8f014b237ce3f154d845f2f7cdd2ee",
            "78e319b6a924b746c5be9b98567a69e225e0c429c7a742329b863a275d9aa497",
        ),
        "value_only": (
            "6e37b75682f6340047f6977843e9486539cc2641ac8a2a7f69393d5da83a7db4",
            "9ae2434f9db73c620c36889c370a982ef63b5513d89308cf8d70e917e1fbd0f8",
            "b761b5ad21fdaf1108a42500ab03165e4f6a45f57cda1bac1aa50d762b539b6e",
            "bcb46b5837adad655eedefab3eaa3af37aa9e61499a251c4cc74a6d4442a083e",
            "1a128a4173725f6e26f68a32636a6348c8314efbef4bf05e81c9a07c73263cdd",
        ),
        "regret_only": (
            "4e5350ff596a2c906b45cd8c07b86132f8b9739a9fea4c04408cfd25b0fa5932",
            "9ae2434f9db73c620c36889c370a982ef63b5513d89308cf8d70e917e1fbd0f8",
            "20be633ca1ee87b0dd0325b2dded5e6061e72d03af8c46c4f322c34a3de2dda1",
            "27cc2d3dc6255f88127392d3e6f6a6d8430f8523dd3d9c088279b424fc632cbb",
            "db1a545ceff2d99de2ea8b2a4b0961934fc5425b54e17066142d5907931c5558",
        ),
        "random_stop": (
            "2afb679c34d895c32e0f90abe9c07459db1e739dc1ce12c0e2a99479f5768cb7",
            "9ae2434f9db73c620c36889c370a982ef63b5513d89308cf8d70e917e1fbd0f8",
            "72d474588e0eab0b65f4e7bd3e72c09b2337018b9e2c857ecbf214060549cb45",
            "0adcfd47520c2c44d5ed48ca9076f32e4394fa95dd2ec2566728168f82fe8972",
            "e9ac1b0e6b222df76e6cfc7ccae58301e5abc35468e2e9eb9d3395020bdf7090",
        ),
        "counterfactual": (
            "2543a5c4d01b419d9d049eb9e490f9eba03cb9515d7ac123a7e228d4be83fed2",
            "03231325282d1f95665539a5c997970587c8273943181582588e85b96b0bdac2",
            "8c77d3458f9f343ad3109ae70b39def0351d3bcf21da930ca115ed02b671a3a0",
            "6f504fba1eb6308718be579d5f24c747adc444d1fb9f99da37a36b93e79d58e0",
            "bc3cc571d2f214c19e8e546f2a4136a4ca5a0d9f1a13efca6e4ae4861a892538",
        ),
    }
    SUMMARY = "677a2fdf8b580ead69eaef6937250d9fc30688adbb9d2f04164273371ad69c41"
    SIDE = dict(batch_size=16, dump_trajectories=True, record_stop_events=True,
                eval_every=3, eval_episodes=16)

    @staticmethod
    def sha256(path):
        return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()

    def digests(self, run_dir):
        return tuple(self.sha256(os.path.join(run_dir, name)) for name in self.FILES)

    def test_ablate_matrix(self, tmp_path):
        dirs = ablate(tiny_config(**self.SIDE), str(tmp_path))
        for variant, run_dir in dirs.items():
            assert self.digests(run_dir) == self.DIGESTS[variant], variant
        assert self.sha256(tmp_path / "summary.txt") == self.SUMMARY

    def test_counterfactual_recoverable_run(self, tmp_path):
        run_experiment(tiny_config(env="recoverable", counterfactual=True, t_max=16,
                                   out_dir=str(tmp_path), **self.SIDE))
        assert self.digests(tmp_path) == self.DIGESTS["counterfactual"]


class TestCli:
    def test_train_eval_compare_round_trip(self, tmp_path, capsys):
        run_a = str(tmp_path / "a")
        run_b = str(tmp_path / "b")
        argv = ["train", "--variant", "ppo", "--vocab-size", "4",
                "--target-length", "3", "--t-max", "12", "--batch-size", "8",
                "--total-steps", "6", "--eval-episodes", "16"]
        assert cli_main(argv + ["--seed", "1", "--out-dir", run_a]) == 0
        assert cli_main(argv + ["--seed", "2", "--out-dir", run_b]) == 0
        assert cli_main(["eval", run_a, "--episodes", "8"]) == 0
        assert cli_main(["compare", run_a, run_b, "--baseline", "ppo"]) == 0
        out = capsys.readouterr().out
        assert "ppo" in out

    def test_config_file_and_env_precedence(self, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("variant = ppo\nvocab_size = 4\ntarget_length = 3\n"
                            "t_max = 10\nbatch_size = 4\ntotal_steps = 3\n"
                            "eval_episodes = 8\n")
        monkeypatch.setenv("ESPOLAB_TOTAL_STEPS", "99")  # file wins over env
        out_dir = str(tmp_path / "run")
        assert cli_main(["train", "--config", str(cfg_file),
                         "--out-dir", out_dir]) == 0
        rows = read_metrics(os.path.join(out_dir, "metrics.csv"))
        assert len(rows) == 3

    def test_invalid_config_is_a_clean_error(self, tmp_path, capsys):
        rc = cli_main(["train", "--variant", "bogus",
                       "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seed=-1", "--target-seed=-2",
                                      "--actor-init-scale=-1"])
    def test_garbage_config_writes_nothing(self, tmp_path, capsys, flag):
        out_dir = tmp_path / "run"
        assert cli_main(["train", flag, "--out-dir", str(out_dir)]) == 1
        key = flag[2:].split("=")[0].replace("-", "_")
        assert f"{key} must be >= 0" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_environment_over_the_budget_writes_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert cli_main(["train", "--doom-padding", "1000000000",
                         "--out-dir", str(out_dir)]) == 1
        assert "state_budget=100000" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_resume_appends_identical_rows(self, tmp_path):
        import shutil

        out = str(tmp_path / "run")
        argv = ["train", "--variant", "espo", "--vocab-size", "4",
                "--target-length", "3", "--t-max", "12", "--batch-size", "8",
                "--total-steps", "10", "--seed", "3", "--actor-init-scale", "1.0",
                "--beta-init", "1.0", "--beta-max", "2.0", "--eval-episodes", "8",
                "--checkpoint-every", "5", "--out-dir", out]
        assert cli_main(argv) == 0
        full = (tmp_path / "run" / "metrics.csv").read_bytes()

        # simulate an interruption after step 5: keep the mid-run checkpoint
        # and the first five metrics rows, then resume with the same config
        resumed = str(tmp_path / "resumed")
        shutil.copytree(out, resumed)
        lines = (tmp_path / "resumed" / "metrics.csv").read_text().splitlines(True)
        (tmp_path / "resumed" / "metrics.csv").write_text("".join(lines[:6]))
        argv2 = [a if a != out else resumed for a in argv]
        assert cli_main([*argv2, "--resume",
                         os.path.join(resumed, "checkpoints", "step_000005")]) == 0
        assert (tmp_path / "resumed" / "metrics.csv").read_bytes() == full
