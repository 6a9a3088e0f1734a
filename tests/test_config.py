"""Config layering, parsing, validation, and hashing."""

from __future__ import annotations

import dataclasses

import pytest

from espolab.cli import _config_from_args, build_parser
from espolab.config import (
    ConfigError,
    RunConfig,
    build_run_config,
    config_hash,
    env_signature,
    load_config_file,
    parse_target_sequence,
    to_flat_dict,
    validate_run_config,
)


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


class TestHashingAndSignature:
    def test_hash_stable_and_sensitive(self):
        assert config_hash(RunConfig()) == config_hash(RunConfig())
        assert config_hash(RunConfig()) != config_hash(RunConfig(seed=1))

    def test_default_hash_is_pinned(self):
        # any renamed key or changed default moves it
        assert config_hash(RunConfig()) == (
            "a95c9cc2a96f98dc1311ae28cbbd37e7b039e5946056e842a2dc39d72e42f1ad")

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
