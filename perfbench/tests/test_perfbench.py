"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import spans  # noqa: E402
from calibration import REFERENCE_S, WINDOW, SpeedLog  # noqa: E402
from workloads import WORKLOADS, check_metrics_rows, output_digests  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(*args, cwd=ROOT):
    cmd = [sys.executable, str(BENCH / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = invoke("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                  "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, header_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    header = json.loads(header_line.removeprefix("header: "))
    assert {"git_sha", "nproc", "python", "numpy", "src_lines"} <= set(header)


def test_digest_check_rejects_one_altered_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    content = b"step,cumulative_tokens\n1,64\n2,128\n"
    altered = bytearray(content)
    altered[-2] ^= 1  # '8' -> '9'
    for name, data in (("good", content), ("bad", bytes(altered))):
        (tmp_path / name).mkdir()
        (tmp_path / name / "metrics.csv").write_bytes(data)

    session = bench_run.Session("protocol-espo", 7, smoke=False)
    good = {"problems": [], "digests": output_digests("protocol-espo", "good")}
    bad = {"problems": [], "digests": output_digests("protocol-espo", "bad")}
    reference = session.check("run", good, None)
    assert session.failed == 0
    session.check("run", good, reference)
    assert session.failed == 0
    session.check("run", bad, reference)
    assert session.failed == 1

    pinned = bench_run.Session("protocol-espo", 0, smoke=False)
    pinned.check("run", good, None)  # seed 0 compares against the pinned digests
    assert pinned.failed == 1


def test_metrics_rows_check(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("step,cumulative_tokens\n1,64\n2,128\n")
    assert check_metrics_rows(str(path), 2) == []
    assert check_metrics_rows(str(path), 3)
    path.write_text("step,cumulative_tokens\n1,64\n2,63\n")
    assert check_metrics_rows(str(path), 2)


def test_self_times_on_a_synthetic_tree():
    tree = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["b", 30, 60, 0],   # overlaps a: the union [10, 60] counts once
        ["c", 90, 120, 0],  # clipped to the parent's end
        ["d", 15, 25, 1],
        ["d", 26, 28, 1],
    ]
    assert spans.self_times(tree) == [40, 18, 30, 30, 10, 2]
    assert spans.totals(tree)["d"] == (2, 12, 12)
    assert spans.totals(tree)["root"] == (1, 100, 40)


def test_reference_seconds_use_the_nearest_kernel_runs():
    assert WINDOW == 2
    speed = SpeedLog()
    # kernel runs as (start, end): a slow one far before, runs of 0.1 and 0.3
    # before the interval [6.3, 11.0], runs of 0.2 and 0.4 after it, and a
    # slow one far after
    runs = [(0.0, 5.0), (5.0, 5.1), (6.0, 6.3), (11.0, 11.2), (11.2, 11.6), (20.0, 30.0)]
    speed.starts = [a for a, _ in runs]
    speed.ends = [b for _, b in runs]
    assert speed.kernel_s() == pytest.approx([5.0, 0.1, 0.3, 0.2, 0.4, 10.0])
    # median of 0.1, 0.3, 0.2, 0.4 is 0.25
    assert speed.reference_s(6.3, 11.0) == pytest.approx(4.7 * REFERENCE_S / 0.25)
    # an interval at the start has only the runs after it
    assert speed.reference_s(-1.0, 0.0) == pytest.approx(1.0 * REFERENCE_S / 2.55)


def test_tracer_wraps_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from espolab import trainer

    original = trainer.collect_batch
    tracer = spans.Tracer("t")
    with tracer.instrument():
        assert trainer.collect_batch.__wrapped__ is original
    assert trainer.collect_batch is original


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "protocol-espo",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
