"""Command-line interface: train, ablate, eval, compare.

Every config key is exposed as a flag of the same name; precedence is
defaults < ESPOLAB_* environment variables < config file < flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .config import VARIANTS, ConfigError, RunConfig, build_run_config, domain, load_config_file
from .harness import (
    ablate,
    compare_runs,
    evaluate_run,
    render_comparison,
    run_experiment,
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    group = parser.add_argument_group("config keys (override file and environment)")
    for f in fields(RunConfig):
        shown = f"; must {domain(f)}" if f.metadata["valid"] is not None else ""
        group.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                           metavar="V", help=f.metadata["help"] + shown)


def _config_from_args(args: argparse.Namespace):
    file_values = load_config_file(args.config) if args.config else {}
    flag_values = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    return build_run_config(file_values, flag_values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="espolab",
        description="Desk-scale laboratory for regret-gated early termination of PPO rollouts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training experiment")
    _add_config_flags(p_train)
    p_train.add_argument("--resume", metavar="CKPT_DIR",
                         help="checkpoint directory to resume from")

    p_ablate = sub.add_parser("ablate", help="run the variant matrix from one base config")
    _add_config_flags(p_ablate)
    p_ablate.add_argument("--out-root", required=True,
                          help="directory receiving one subdirectory per variant")
    p_ablate.add_argument("--variants", default=",".join(VARIANTS),
                          help="comma-separated variant ids (must include espo)")

    p_eval = sub.add_parser("eval", help="evaluate a saved checkpoint")
    p_eval.add_argument("run_dir")
    p_eval.add_argument("--checkpoint", default="final",
                        help="checkpoint name under <run_dir>/checkpoints/")
    p_eval.add_argument("--episodes", type=int, default=None)
    p_eval.add_argument("--seed", type=int, default=None)

    p_cmp = sub.add_parser("compare", help="summarize completed runs")
    p_cmp.add_argument("run_dirs", nargs="+")
    p_cmp.add_argument("--baseline", default="ppo",
                       help="variant whose token count anchors the saving column")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            config = _config_from_args(args)
            out = run_experiment(config, resume_checkpoint=args.resume)
            print(f"run complete: {out}")
        elif args.command == "ablate":
            config = _config_from_args(args)
            variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
            dirs = ablate(config, args.out_root, variants)
            print(f"ablation complete: {len(dirs)} runs under {args.out_root}")
        elif args.command == "eval":
            report = evaluate_run(args.run_dir, args.checkpoint,
                                  args.episodes, args.seed)
            print(json.dumps(report, indent=2, sort_keys=True))
        elif args.command == "compare":
            rows = compare_runs(args.run_dirs, baseline_variant=args.baseline)
            print(render_comparison(rows))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
