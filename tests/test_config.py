"""Config layering, parsing, validation, and hashing."""

from __future__ import annotations

import argparse
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espolab.cli import _add_config_flags, _config_from_args, build_parser
from espolab.config import (
    CALIBRATED,
    VARIANTS,
    ConfigError,
    RunConfig,
    build_run_config,
    config_hash,
    load_config_file,
    parse_target_sequence,
    stop_rule,
    to_flat_dict,
    validate_run_config,
)
from espolab import trainer
from espolab.envs import env_signature
from espolab.trainer import TrainingRun
from espolab.variants import variant_dispatch


KINDS = ("int", "float", "bool", "str", "int | None", "float | None")

# every key away from its default: each None key set, each bool True, and a
# float whose repr is not round
NON_DEFAULT = RunConfig(
    variant="regret_only", seed=7, total_steps=11, batch_size=5, out_dir="runs/x",
    env="recoverable", vocab_size=5, target_length=4, target_sequence="1,0,3,2",
    target_seed=9, doom_padding=6, repair_window=2, t_max=33, state_budget=5000,
    r_fail=-0.5, alpha_ema=0.9, alpha_s=0.8, beta_init=2.0, beta_min=0.5, beta_max=3.0,
    eta_beta=0.05, target_stop_rate=0.3, value_floor=0.1, clip_bound=4.0,
    stabilizer=1e-6, warmup_abs_threshold=0.4, warmup_delta_threshold=0.2,
    warmup_consecutive=2, warmup_step_cap_fraction=0.2, anneal_fraction=0.3,
    disable_stopping=True, counterfactual=True, gamma=0.99, lam=0.95, clip_ratio=0.1,
    epochs_per_batch=2, lr_actor=0.1 + 0.2, lr_critic=0.2, advantage_whitening=True,
    actor_init_scale=1.5, value_stop_threshold=-0.25, regret_stop_threshold=1.75,
    random_stop_rate=0.125, reference_run="runs/ref", checkpoint_every=3, eval_every=4,
    eval_episodes=16, dump_trajectories=True, record_stop_events=True)


class TestSchema:
    def test_schema_covers_exactly_the_dataclass_fields(self):
        # the loader, the validator and the CLI read each key's kind from its
        # annotation
        kinds = {f.name: f.type for f in dataclasses.fields(RunConfig)}
        assert all(kind in KINDS for kind in kinds.values()), kinds

    def test_every_key_has_help_text(self):
        assert all(f.metadata.get("help") for f in dataclasses.fields(RunConfig))

    def test_operational_keys_are_schema_keys(self):
        from espolab.config import OPERATIONAL_KEYS, experiment_hash

        assert OPERATIONAL_KEYS <= {f.name for f in dataclasses.fields(RunConfig)}
        # operational knobs do not invalidate checkpoints
        assert experiment_hash(RunConfig()) == experiment_hash(
            RunConfig(out_dir="/elsewhere", eval_every=5))
        assert experiment_hash(RunConfig()) != experiment_hash(RunConfig(seed=1))


class TestLayering:
    def test_precedence_env_then_file_then_flags(self):
        environ = {"ESPOLAB_BATCH_SIZE": "10", "ESPOLAB_SEED": "1", "ESPOLAB_T_MAX": "99"}
        file_values = {"batch_size": "20", "seed": "2"}
        flags = {"batch_size": "30"}
        cfg = build_run_config(file_values, flags, environ)
        assert cfg.batch_size == 30  # flag beats file
        assert cfg.seed == 2         # file beats env
        assert cfg.t_max == 99       # env beats default
        assert cfg.total_steps == 300  # untouched default

    def test_values_that_are_not_text_are_taken_as_they_are(self):
        cfg = build_run_config(flag_values={"seed": 3, "counterfactual": True}, environ={})
        assert cfg.seed == 3 and cfg.counterfactual is True

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            build_run_config({"not_a_key": "1"}, {}, {})

    def test_bool_and_none_parsing(self):
        cfg = build_run_config({"counterfactual": "true", "doom_padding": "none",
                                "random_stop_rate": "0.5"}, {}, {})
        assert cfg.counterfactual is True
        assert cfg.doom_padding is None
        assert cfg.random_stop_rate == 0.5

    def test_unparseable_value_reports_key(self):
        with pytest.raises(ConfigError, match="batch_size"):
            build_run_config({"batch_size": "many"}, {}, {})

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment\nvariant = ppo\nbatch_size = 12  #小 batch\nseed=5\n\n")
        values = load_config_file(path)
        cfg = build_run_config(values, {}, {})
        assert (cfg.variant, cfg.batch_size, cfg.seed) == ("ppo", 12, 5)

    def test_every_key_round_trips_through_file_env_and_flags(self):
        defaults = RunConfig()
        assert all(getattr(NON_DEFAULT, f.name) != getattr(defaults, f.name)
                   for f in dataclasses.fields(RunConfig))
        flat = to_flat_dict(NON_DEFAULT)
        assert build_run_config(flat, {}, {}) == NON_DEFAULT
        environ = {f"ESPOLAB_{k.upper()}": v for k, v in flat.items()}
        assert build_run_config({}, {}, environ) == NON_DEFAULT
        args = build_parser().parse_args(
            ["train", *(f"--{k.replace('_', '-')}={v}" for k, v in flat.items())])
        assert _config_from_args(args) == NON_DEFAULT

    @pytest.mark.parametrize("source", ["file", "environment", "flag"])
    def test_non_boolean_text_for_a_bool_key_rejected(self, tmp_path, source):
        path = tmp_path / "run.cfg"
        path.write_text("counterfactual = maybe\n" if source == "file" else "")
        environ = {"ESPOLAB_COUNTERFACTUAL": "maybe"} if source == "environment" else {}
        argv = ["train", "--config", str(path)]
        argv += ["--counterfactual", "maybe"] if source == "flag" else []
        args = build_parser().parse_args(argv)
        with pytest.raises(ConfigError, match="counterfactual: cannot parse 'maybe' as bool"):
            build_run_config(load_config_file(args.config),
                             {f.name: getattr(args, f.name)
                              for f in dataclasses.fields(RunConfig)}, environ)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("justakey\n")
        with pytest.raises(ConfigError, match="expected"):
            load_config_file(path)


class TestValidation:
    def test_valid_default_config(self):
        assert validate_run_config(RunConfig()) == []

    def test_all_errors_reported_at_once(self):
        cfg = RunConfig(variant="nope", alpha_s=2.0, clip_ratio=0.0,
                        batch_size=0, value_floor=-1.0)
        errors = validate_run_config(cfg)
        text = "\n".join(errors)
        for needle in ("variant", "alpha_s", "clip_ratio", "batch_size", "value_floor"):
            assert needle in text
        assert len(errors) >= 5

    def test_variant_specific_requirements(self):
        errs = validate_run_config(RunConfig(variant="random_stop"))
        assert any("random_stop" in e for e in errs)
        errs = validate_run_config(RunConfig(variant="value_only"))
        assert any("value_only" in e for e in errs)
        ok = RunConfig(variant="value_only", value_stop_threshold=0.1)
        assert validate_run_config(ok) == []
        # each calibrated variant without either source names both
        for variant, key in (("value_only", "value_stop_threshold"),
                             ("regret_only", "regret_stop_threshold"),
                             ("random_stop", "random_stop_rate")):
            errs = validate_run_config(RunConfig(variant=variant))
            assert any("reference_run" in e and key in e for e in errs), (variant, errs)

    @pytest.mark.parametrize("variant", sorted(CALIBRATED))
    def test_calibration_checks_apply_only_under_the_rule_that_reads_them(self, variant):
        # a calibrated variant under disable_stopping runs as plain PPO: its
        # reference is never read, so it needs none
        stopping = RunConfig(variant=variant)
        assert validate_run_config(stopping) == [
            f"{variant} needs reference_run or {CALIBRATED[variant]}"]
        disabled = RunConfig(variant=variant, disable_stopping=True)
        assert validate_run_config(disabled) == []
        assert variant_dispatch(disabled).rule == "ppo"
        run = TrainingRun(dataclasses.replace(disabled, batch_size=2, t_max=4))
        assert run.step().stop_rate == 0.0
        # counterfactual mode only changes what is counted, so every rule takes it
        for cfg in (stopping, disabled):
            counterfactual = dataclasses.replace(cfg, counterfactual=True,
                                                 **{CALIBRATED[variant]: 0.5})
            assert validate_run_config(counterfactual) == []

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("disable_stopping", [False, True])
    def test_stop_rule_is_the_plans_rule(self, variant, disable_stopping):
        cfg = RunConfig(variant=variant, disable_stopping=disable_stopping,
                        **{key: 0.5 for key in CALIBRATED.values()})
        assert stop_rule(cfg) == variant_dispatch(cfg).rule

    @pytest.mark.parametrize("key, value", [
        ("lr_actor", float("nan")),
        ("lr_actor", -1.0),
        ("lr_critic", float("inf")),
        ("r_fail", float("nan")),
        ("value_floor", float("inf")),
        ("clip_bound", float("inf")),
        ("stabilizer", float("inf")),
        ("eta_beta", float("inf")),
        ("beta_max", float("inf")),
        ("value_stop_threshold", float("nan")),
        ("regret_stop_threshold", float("nan")),
        ("seed", -1),
        ("target_seed", -2),
        ("actor_init_scale", -1.0),
    ])
    def test_garbage_numbers_rejected(self, key, value):
        errors = validate_run_config(RunConfig(**{key: value}))
        assert any(key in e for e in errors), errors

    def test_target_sequence_checks(self):
        cfg = RunConfig(target_sequence="1,2", target_length=3)
        assert any("length" in e for e in validate_run_config(cfg))
        cfg = RunConfig(target_sequence="1,2,9", target_length=3, vocab_size=4)
        assert any("vocab" in e for e in validate_run_config(cfg))

    def test_unparseable_target_sequence_listed_with_the_other_errors(self):
        errors = validate_run_config(RunConfig(target_sequence="1,x,2", seed=-1, gamma=0.0))
        assert errors == ["seed must be >= 0", "gamma must lie in (0, 1]",
                          "target_sequence: cannot parse '1,x,2'"]

    @pytest.mark.parametrize("keys", [
        dict(doom_padding=10**9),
        dict(env="recoverable", target_length=10, repair_window=10**5),
        dict(target_length=10**9),  # rejected before a target this long is generated
        dict(state_budget=13),  # the default chain has 12 + 2 states
    ])
    def test_environment_over_the_state_budget_rejected(self, keys):
        errors = validate_run_config(RunConfig(**keys))
        assert len(errors) == 1 and "state_budget" in errors[0], errors
        assert validate_run_config(RunConfig(state_budget=14)) == []

    @pytest.mark.parametrize("key, keys", [
        ("vocab_size", dict(vocab_size=1)),
        ("target_length", dict(target_length=0)),
        ("doom_padding", dict(doom_padding=-1)),
        ("repair_window", dict(env="recoverable", repair_window=-1)),
        ("t_max", dict(t_max=0)),
        ("variant", dict(variant="mystery")),
        ("target_sequence", dict(vocab_size=4, target_length=3, target_sequence="0,9,0")),
        ("target_sequence", dict(target_length=2, target_sequence="0,0,0")),
    ], ids=["vocab_size", "target_length", "doom_padding", "repair_window", "t_max",
            "variant", "target_token", "target_sequence_length"])
    def test_a_run_is_the_one_gate(self, monkeypatch, key, keys):
        # validation is the only check of these values: the environment
        # specs, collect_batch and variant_dispatch take them as given, so a
        # run rejects them, naming the key, before anything is built
        built = []
        monkeypatch.setattr(trainer, "build_environment", lambda *args: built.append(args))
        with pytest.raises(ConfigError, match=f"- {key} "):
            TrainingRun(RunConfig(**keys))
        assert built == []


class TestHashingAndSignature:
    def test_hash_stable_and_sensitive(self):
        assert config_hash(RunConfig()) == config_hash(RunConfig())
        assert config_hash(RunConfig()) != config_hash(RunConfig(seed=1))

    def test_default_hash_is_pinned(self):
        # any renamed key or changed default moves it
        assert config_hash(RunConfig()) == (
            "a95c9cc2a96f98dc1311ae28cbbd37e7b039e5946056e842a2dc39d72e42f1ad")

    def test_default_experiment_hash_is_pinned(self):
        # checkpoints store it in state.json; if it moves, they stop resuming
        from espolab.config import experiment_hash

        assert experiment_hash(RunConfig()) == (
            "2bb96ad0cc973edb364afbaf14b61af320518b859a684016591c3f9b2c1732e8")

    def test_flat_dict_round_trips_floats(self):
        cfg = RunConfig(lr_actor=0.1 + 0.2)  # 0.30000000000000004
        flat = to_flat_dict(cfg)
        assert float(flat["lr_actor"]) == cfg.lr_actor

    def test_env_signature_ignores_method_knobs(self):
        a = env_signature(RunConfig(variant="ppo", seed=1))
        b = env_signature(RunConfig(variant="espo", seed=2, beta_init=3.0))
        assert a == b
        c = env_signature(RunConfig(vocab_size=4))
        assert a != c

    def test_generated_target_sequence_is_stable(self):
        cfg = RunConfig()
        assert parse_target_sequence(cfg) == parse_target_sequence(cfg)
        explicit = RunConfig(target_sequence="1,2,3", target_length=3)
        assert parse_target_sequence(explicit) == (1, 2, 3)


# A config that names a reference run, so that every variant has its
# calibration source; otherwise the defaults.
BASE = RunConfig(reference_run="runs/espo")
DECLARED = [f for f in dataclasses.fields(RunConfig) if f.metadata["valid"] is not None]
DEFAULT_STATES = 14  # the default chain: 12 + 2 states


def declared_range(valid: str):
    """(low, high, low_open, high_open) of a declared range, parsed here
    independently of espolab.config."""
    if valid.startswith(">"):
        op, bound = valid.split()
        return float(bound), math.inf, op == ">", False
    low, high = valid[1:-1].split(", ")
    return float(low), float(high), valid[0] == "(", valid[-1] == ")"


def in_declared(f, value) -> bool:
    valid = f.metadata["valid"]
    if value is None:
        return f.type.endswith("| None")
    if isinstance(valid, tuple):
        return value in valid
    low, high, low_open, high_open = declared_range(valid)
    return ((low < value) if low_open else (low <= value)) and (
        (value < high) if high_open else (value <= high))


def inside(f):
    valid = f.metadata["valid"]
    if isinstance(valid, tuple):
        values = st.sampled_from(valid)
    else:
        low, high, low_open, high_open = declared_range(valid)
        if f.type.startswith("int"):
            low = int(low) + low_open
            if f.name == "state_budget":  # the budget rule: the default chain must fit
                low = max(low, DEFAULT_STATES)
            values = st.integers(low, low + 64)
        else:
            values = st.floats(low, min(high, 1e6), exclude_min=low_open,
                               exclude_max=high_open and high <= 1e6)
    return values | st.none() if f.type.endswith("| None") else values


def outside(f):
    valid = f.metadata["valid"]
    if isinstance(valid, tuple):
        return st.text(max_size=12).filter(lambda text: text not in valid)
    low, high, low_open, high_open = declared_range(valid)
    if f.type.startswith("int"):
        return st.integers(int(low) - 64, int(low) - (not low_open))
    below = st.floats(max_value=low, exclude_max=not low_open, allow_nan=False)
    return below if high == math.inf else below | st.floats(
        min_value=high, exclude_min=not high_open, allow_nan=False)


def expected_error(f, value) -> str:
    """The error text a value outside f's declaration draws, worded here."""
    valid = f.metadata["valid"]
    if isinstance(valid, tuple):
        return f"{f.name} must be one of {valid}, got {value!r}"
    verb = "lie in" if valid[0] in "([" else "be"
    return f"{f.name} must {verb} {valid}" + (" or none" if f.type.endswith("| None") else "")


DECLARATION_CASES = settings(max_examples=200, deadline=None, database=None, derandomize=True)


class TestDeclaredValidValues:
    """Each key's `valid` declaration is the whole single-key check."""

    def test_every_default_satisfies_its_declaration(self):
        assert len(DECLARED) == 33
        for f in DECLARED:
            assert in_declared(f, f.default), f.name
        assert validate_run_config(BASE) == []

    @DECLARATION_CASES
    @given(st.sampled_from(DECLARED).flatmap(lambda f: st.tuples(st.just(f), inside(f))))
    def test_a_value_inside_the_declaration_passes(self, case):
        f, value = case
        assert in_declared(f, value)
        assert validate_run_config(dataclasses.replace(BASE, **{f.name: value})) == []

    @DECLARATION_CASES
    @given(st.sampled_from(DECLARED).flatmap(lambda f: st.tuples(st.just(f), outside(f))))
    def test_a_value_outside_the_declaration_fails_naming_the_key(self, case):
        f, value = case
        assert not in_declared(f, value)
        errors = validate_run_config(dataclasses.replace(BASE, **{f.name: value}))
        assert expected_error(f, value) in errors, errors

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)
                                      if f.type.startswith("float")])
    def test_nan_fails_for_every_float_key(self, name):
        errors = validate_run_config(dataclasses.replace(BASE, **{name: math.nan}))
        assert f"{name} must be finite, got nan" in errors, errors

    def test_every_flag_shows_its_valid_values(self):
        parser = argparse.ArgumentParser()
        _add_config_flags(parser)
        helps = {action.dest: action.help for action in parser._actions}
        for f in DECLARED:
            assert str(f.metadata["valid"]) in helps[f.name], f.name
