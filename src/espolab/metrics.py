"""Per-step metrics rows, the CSV emitter, the run manifest, the reader of a
finished run, and the writer that replaces a whole file at once.

The CSV is the reproducibility surface: floats are written via repr (lossless
round-trip), the header is stable, and the file is flushed after every row so
interrupted runs keep their data. (config, seed) -> byte-identical file.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields

from .config import (
    ConfigError,
    RunConfig,
    build_run_config,
    config_hash,
    require_valid,
    to_flat_dict,
)

__all__ = [
    "MetricsRow",
    "MetricsWriter",
    "config_from_manifest",
    "read_finished_run",
    "read_manifest",
    "read_metrics",
    "replacing",
    "write_manifest",
]


@dataclass(frozen=True, slots=True)
class MetricsRow:
    step: int
    cumulative_tokens: int
    avg_trajectory_length_actual: float
    avg_trajectory_length_original: float
    stop_rate: float
    false_positive_rate: float
    mean_entropy: float
    success_rate: float
    beta: float
    mu_g: float
    sigma2_g: float
    critic_loss: float
    clip_fraction: float
    warmup_active: bool


COLUMNS = tuple(f.name for f in fields(MetricsRow))
_HEADER = ",".join(COLUMNS)


def _format(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def row_to_csv(row: MetricsRow) -> str:
    return ",".join(_format(getattr(row, name)) for name in COLUMNS)


def row_from_csv(line: str) -> MetricsRow:
    parts = line.rstrip("\n").split(",")
    if len(parts) != len(COLUMNS):
        raise ValueError(f"metrics row has {len(parts)} fields, expected {len(COLUMNS)}")
    kwargs = {}
    for name, f, raw in zip(COLUMNS, fields(MetricsRow), parts):
        if f.type in ("int", int):
            kwargs[name] = int(raw)
        elif f.type in ("bool", bool):
            kwargs[name] = raw == "1"
        else:
            kwargs[name] = float(raw)
    return MetricsRow(**kwargs)


class MetricsWriter:
    """Streams rows to <out_dir>/metrics.csv, flushing after each one.

    On resume, existing rows must end exactly at resume_at_step; new rows are
    appended without touching earlier bytes.
    """

    def __init__(self, path, resume_at_step: int | None = None):
        if resume_at_step is None:
            self._fh = open(path, "w", encoding="utf-8", newline="")
            self._fh.write(_HEADER + "\n")
            self._fh.flush()
        else:
            existing = read_metrics(path)
            if len(existing) != resume_at_step:
                raise ValueError(
                    f"{path} holds {len(existing)} rows; cannot resume at step {resume_at_step}")
            self._fh = open(path, "a", encoding="utf-8", newline="")

    def write(self, row: MetricsRow) -> None:
        self._fh.write(row_to_csv(row) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "MetricsWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_metrics(path) -> list[MetricsRow]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != _HEADER:
            raise ValueError(f"{path}: unexpected metrics header")
        return [row_from_csv(line) for line in fh if line.strip()]


@contextmanager
def replacing(path):
    """Text handle on a temporary file next to `path` that replaces `path`
    in one os.replace when the block ends. A block that raises leaves the
    previous file as it was and no temporary file behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_manifest(out_dir, cfg: RunConfig, status: str,
                   wall_time_s: float | None = None, error: str | None = None) -> str:
    """Write manifest.json; `error` is recorded, under that key, only when given."""
    from . import __version__

    manifest = {
        "config": to_flat_dict(cfg),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "code_version": __version__,
        "status": status,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "wall_time_s": wall_time_s,
    }
    if error is not None:
        manifest["error"] = error
    path = os.path.join(out_dir, "manifest.json")
    with replacing(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_manifest(run_dir) -> dict:
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def config_from_manifest(run_dir) -> RunConfig:
    """The config a run recorded, parsed like a config file (no environment)."""
    return build_run_config(read_manifest(run_dir)["config"], environ={})


def read_finished_run(run_dir, name: str = "run") -> tuple[RunConfig, list[MetricsRow]]:
    """A run's config, validated (a manifest is outside input), and its metrics
    rows; a ConfigError naming it (`name` and directory) refuses a run whose
    manifest status is not complete (running, failed) or that has no rows."""
    status = read_manifest(run_dir).get("status")
    if status != "complete":
        raise ConfigError(f"{name} {run_dir} did not complete (manifest status {status!r})")
    cfg = config_from_manifest(run_dir)
    require_valid(cfg)
    rows = read_metrics(os.path.join(run_dir, "metrics.csv"))
    if not rows:
        raise ConfigError(f"{name} {run_dir} has no metrics rows")
    return cfg, rows
