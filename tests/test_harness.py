"""Harness surface: dispatch, FP measurement, metrics files, compare, CLI."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import os
import pathlib
import pkgutil

import pytest

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
from espolab.rollout import COUNTERFACTUAL, DISABLED, RANDOM, STANDARD, CollectionMode
from espolab.trainer import TrainingRun, compute_advantages, ppo_surrogate_grad
from espolab.variants import variant_dispatch

from conftest import StopReason, batch_from_trajectories, dump_batch, plain_snapshot, records
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


class TestBenchmarkHooks:
    """perfbench wraps the names in perfbench/spans.py TARGETS and feeds
    `TrainingRun.ppo` to the trainer functions; a src change that breaks
    either fails here, not only in the benchmark's own suite."""

    def test_every_traced_target_resolves(self):
        spans = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        tree = ast.parse(spans.read_text(encoding="utf-8"))
        targets = next(ast.literal_eval(node.value) for node in tree.body
                       if isinstance(node, ast.Assign)
                       and getattr(node.targets[0], "id", None) == "TARGETS")
        assert targets
        for module_name, path, _span in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            assert attr in vars(owner), f"{module_name}: {path}"

    def test_run_ppo_feeds_the_trainer_functions(self):
        run = TrainingRun(tiny_config())
        run.step()
        batch = run.last_batch
        advs = compute_advantages(batch, run.ppo, run.plan.early_stop_reward)
        grad, clip_fraction = ppo_surrogate_grad(run.actor, batch, advs, run.ppo)
        assert grad.shape == run.actor.table.shape
        assert 0.0 <= clip_fraction <= 1.0


class TestVariantDispatch:
    def test_unknown_variant_rejected(self):
        cfg = dataclasses.replace(RunConfig(), variant="mystery")
        with pytest.raises(ConfigError):
            variant_dispatch(cfg)

    def test_ablation_plans_differ_from_espo_only_in_their_mechanism(self):
        # the plan fields each ablation changes relative to espo; rule
        # ablations also fix the threshold and freeze the controller
        expected = {
            "ppo": {"mode_kind"},
            "espo_no_warmup": {"warmup_enabled"},
            "espo_no_penalty": {"early_stop_reward"},
            "value_only": {"rule", "rule_threshold", "beta_updates_enabled"},
            "regret_only": {"rule", "rule_threshold", "beta_updates_enabled"},
            "random_stop": {"mode_kind", "beta_updates_enabled", "random_fixed_rate"},
        }
        base = tiny_config(value_stop_threshold=0.25, regret_stop_threshold=0.5,
                           random_stop_rate=0.1)
        espo = dataclasses.asdict(variant_dispatch(base))
        assert espo["variant"] == "espo"
        for variant, fields in expected.items():
            plan = dataclasses.asdict(variant_dispatch(
                dataclasses.replace(base, variant=variant)))
            changed = {k for k in plan if plan[k] != espo[k]} - {"variant"}
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
        from espolab.stopper import StopRule

        plan_d = variant_dispatch(tiny_config(variant="value_only",
                                              value_stop_threshold=0.25))
        assert plan_d.rule is StopRule.VALUE_ONLY and plan_d.rule_threshold == 0.25
        assert plan_d.beta_updates_enabled is False
        plan_e = variant_dispatch(tiny_config(variant="regret_only",
                                              regret_stop_threshold=0.5))
        assert plan_e.rule is StopRule.REGRET_ONLY and plan_e.rule_threshold == 0.5


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
                                       CollectionMode(COUNTERFACTUAL))

    def test_counting_example(self):
        assert false_positive_rate(self.build_batch()) == 0.125

    def test_no_triggers_means_zero(self):
        batch = self.build_batch(fired_correct=0, fired_wrong=0, plain=8)
        assert false_positive_rate(batch) == 0.0

    def test_mode_mismatch_errors(self):
        batch = batch_from_trajectories([make_traj(3)], plain_snapshot(),
                                        CollectionMode(STANDARD))
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

    @pytest.mark.parametrize("overrides, kind", [
        (dict(), STANDARD),
        (dict(counterfactual=True), COUNTERFACTUAL),
        (dict(variant="random_stop", random_stop_rate=0.05), RANDOM),
        (dict(variant="ppo"), DISABLED),
    ], ids=["standard", "counterfactual", "random", "disabled"])
    def test_trajectory_dump_equals_the_record_oracle(self, tmp_path, overrides, kind):
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
            assert batch.mode.kind == kind
            expected.append(dump_batch(batch, row.step))
            for traj in records(batch):
                if traj.stop_index is not None:
                    stopped = True
                    flagged_mid_row |= traj.stop_index < len(traj.steps) - 1
        assert (tmp_path / "trajectories.tsv").read_bytes() == "".join(expected).encode()
        assert stopped == (kind != DISABLED)
        # a hypothetical stop flags a step before the row's end
        assert flagged_mid_row == (kind == COUNTERFACTUAL)


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

    def test_save_params(self, tmp_path):
        actor, critic = TabularActor(3, 2), TabularCritic(3)
        actor.table[1, 0] = 0.25
        save_params(actor, critic, tmp_path / "params.txt")
        before = self.contents(tmp_path)
        actor.table[1, 0] = -1.5
        critic.table = critic.table[:1]  # the critic rows run out part-way
        with pytest.raises(IndexError):
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
    def synthetic_run(self, path, variant, tokens, success, seed=0):
        """Minimal on-disk run: manifest + two metrics rows."""
        os.makedirs(path, exist_ok=True)
        cfg = RunConfig(variant=variant, seed=seed)
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
            with pytest.raises(ConfigError, match="episodes"):
                evaluate_run(out, episodes=episodes)
        assert cli_main(["eval", out, "--episodes", "0"]) == 1
        assert "episodes" in capsys.readouterr().err
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
