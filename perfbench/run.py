"""espolab benchmark: end-to-end and per-layer timings of training runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the repository root. Every workload run happens in a fresh
interpreter (perfbench/worker.py) started with `src` on PYTHONPATH and
numpy/BLAS pinned to one thread, one run at a time (a closed loop with a
single client).

--trace 0 measures the end-to-end metrics with tracing off: a few set-up
probes, then whole runs back to back until the next one would end after S
seconds (at least one run). Its times are in reference seconds: wall time
scaled by a calibration kernel timed between steps (calibration.py), so that
the host's changing speed does not show as a change of the program.
--trace 1 makes one untraced run, one traced run and the frozen-batch
microbenchmarks, and reports the per-layer metrics.
Every run's outputs are checked; at seed 0 against pinned_seed0.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it carries the run header.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import PINNED_SEED, WORKLOADS, digest_mismatches, load_pinned

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 6
MAX_RUNS = 50
DEADLINE_S = 170.0  # the whole command must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "tokens_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Session:
    """Starts workers and keeps the attempted/failed tally of one invocation."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.reference = load_pinned()[workload] if seed == PINNED_SEED and not smoke else None
        env = dict(os.environ)
        src = os.path.abspath("src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            env[var] = "1"
        self.env = env

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def worker(self, mode: str, trace_file: str | None = None) -> dict | None:
        """Run one worker; None (counted as failed) if it raised or timed out."""
        self.attempted += 1
        run_dir = os.path.join(OUT_DIR, f"{self.workload}-seed{self.seed}-{mode}")
        cmd = [sys.executable, WORKER, mode, self.workload, str(self.seed), run_dir]
        if self.smoke:
            cmd.append("--smoke")
        if trace_file:
            cmd += ["--trace-file", trace_file]
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            log(f"{mode}: timed out after {timeout:.0f} s")
            self.failed += 1
            return None
        if proc.returncode != 0:
            log(f"{mode}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}")
            self.failed += 1
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check(self, mode: str, result: dict, reference: dict | None) -> dict:
        """Count a run whose outputs are wrong or differ from the reference
        digests as failed. Returns the reference for the next run."""
        problems = list(result["problems"])
        reference = self.reference or reference
        if reference is not None:
            problems += [f"{f} differs from the reference digest"
                         for f in digest_mismatches(result["digests"], reference)]
        if problems:
            log(f"{mode}: " + "; ".join(problems))
            self.failed += 1
        return reference or result["digests"]


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    setups: list[float] = []
    for _ in range(SETUP_PROBES):
        probe = session.worker("setup")
        if probe is not None:
            setups.append(probe["setup_s"])
    runs: list[dict] = []
    longest = 0.0
    reference = None
    while len(runs) < MAX_RUNS:
        began = session.elapsed()
        result = session.worker("run")
        longest = max(longest, session.elapsed() - began)
        if result is not None:
            reference = session.check("run", result, reference)
            runs.append(result)
        if session.elapsed() + longest > seconds:
            break
    if not runs:
        return {}, {}
    setups += [r["setup_s"] for r in runs]
    intervals = [s for r in runs for s in r["step_s"]]
    cuts = statistics.quantiles(intervals, n=20, method="inclusive")
    train_s = statistics.median(r["train_s"] for r in runs)
    values = {
        "setup_s": statistics.median(setups),
        "train_s": train_s,
        "step_ms_p50": cuts[9] * 1e3,
        "step_ms_p95": cuts[18] * 1e3,
        "tokens_per_s": runs[0]["tokens"] / train_s,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in runs),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    samples = {"runs": len(runs), "train_s_each": [r["train_s"] for r in runs],
               "wall_train_s_each": [r["wall_train_s"] for r in runs],
               "kernel_ms_each": [r["kernel_ms"] for r in runs],
               "setup_samples": len(setups),
               "step_intervals": len(intervals),
               "intervals_beyond_p95": sum(1 for s in intervals if s > cuts[18])}
    return metrics, samples


def per_layer(session: Session) -> tuple[dict, dict]:
    trace_file = os.path.join(OUT_DIR, f"trace-{session.workload}-seed{session.seed}.json")
    metrics: dict = {}
    plain = session.worker("run")
    reference = session.check("run", plain, None) if plain is not None else None
    traced = session.worker("traced", trace_file=trace_file)
    if traced is not None:
        session.check("traced", traced, reference)
        metrics.update(traced["layers"])
        if plain is not None:
            metrics["trace.overhead_ratio"] = [traced["train_s"] / plain["wall_train_s"], "ratio"]
    micro = session.worker("micro")
    if micro is not None:
        if micro["problems"]:
            log("micro: " + "; ".join(micro["problems"]))
            session.failed += 1
        metrics.update(micro["micro"])
    samples = {"traced_runs": int(traced is not None), "untraced_runs": int(plain is not None),
               "trace_file": trace_file}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, samples


def run_header() -> dict:
    import numpy

    src_files = sorted(os.path.join(d, f) for d, _, fs in os.walk("src") for f in fs
                       if f.endswith(".py"))
    lines = 0
    tree = hashlib.sha256()
    for path in src_files:
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        tree.update(path.encode() + b"\0" + data + b"\0")
    git_sha = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30)
        git_sha = proc.stdout.strip() or None
    return {"git_sha": git_sha, "src_sha256": tree.hexdigest(), "src_lines": lines,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="espolab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="a few steps per run; skips the pinned-digest check")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "espolab", "__init__.py")):
        log("src/espolab not found: run from the root of an espolab checkout")
        return 2

    session = Session(args.workload, args.seed, args.smoke)
    header = run_header()
    if args.trace:
        metrics, samples = per_layer(session)
    else:
        metrics, samples = end_to_end(session, args.seconds)
    if not metrics:
        log("no run completed; nothing to report")
        return 1
    header.update(workload=args.workload, seed=args.seed, trace=args.trace, samples=samples,
                  error_rate=session.failed / session.attempted, wall_s=session.elapsed())
    print("header: " + json.dumps(header))
    print(json.dumps({"correct": session.failed == 0, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
