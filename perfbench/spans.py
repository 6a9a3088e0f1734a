"""In-memory span tracing around calls into espolab's public functions.

`Tracer.instrument()` swaps the module attributes and class methods listed in
`TARGETS` for timing wrappers for the length of a `with` block and puts the
originals back on exit; espolab's source files are not changed. The wrappers
sit at the call sites the training loop uses: `espolab.trainer` imports
`collect_batch`, `compute_advantages` and the rest into its own namespace,
so that is where they are replaced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# (module, attribute path, span name). The span name is <module>.<function>
# of the module that defines the function, whatever namespace it is called
# through.
TARGETS = (
    ("espolab.harness", "require_valid", "config.require_valid"),
    ("espolab.trainer", "require_valid", "config.require_valid"),
    ("espolab.trainer", "variant_dispatch", "variants.variant_dispatch"),
    ("espolab.trainer", "build_environment", "envs.build_environment"),
    ("espolab.trainer", "TrainingRun.__init__", "trainer.TrainingRun.__init__"),
    ("espolab.trainer", "TrainingRun.step", "trainer.TrainingRun.step"),
    ("espolab.trainer", "TrainingRun.save_checkpoint", "trainer.TrainingRun.save_checkpoint"),
    ("espolab.trainer", "CachedPolicy", "rollout.CachedPolicy"),
    ("espolab.trainer", "collect_batch", "rollout.collect_batch"),
    ("espolab.trainer", "evaluate_policy", "rollout.evaluate_policy"),
    ("espolab.trainer", "compute_advantages", "trainer.compute_advantages"),
    ("espolab.trainer", "ppo_surrogate_grad", "trainer.ppo_surrogate_grad"),
    ("espolab.trainer", "critic_loss", "trainer.critic_loss"),
    ("espolab.trainer", "critic_grad", "trainer.critic_grad"),
    ("espolab.policy", "TabularActor.apply_gradient", "policy.TabularActor.apply_gradient"),
    ("espolab.policy", "TabularCritic.apply_gradient", "policy.TabularCritic.apply_gradient"),
    ("espolab.stopper", "StopperState.snapshot", "stopper.snapshot"),
    ("espolab.stopper", "StopperState.end_of_batch", "stopper.end_of_batch"),
    ("espolab.metrics", "MetricsWriter.write", "metrics.MetricsWriter.write"),
)


class Tracer:
    """Collects spans of one run in memory; nothing is written until `dump`.

    A span is [name, start_ns, end_ns, parent], where parent is the index of
    the enclosing span in `spans` or -1. Calls are single-threaded and
    strictly nested, so a stack gives the parent.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def instrument(self, targets=TARGETS):
        """Wrap every target for the length of the block."""
        saved = []
        try:
            for module_name, path, span_name in targets:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(span_name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path: str, header: dict | None = None) -> None:
        selfs = self_times(self.spans)
        records = [
            {"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent,
             "self_ns": selfs[i], "run_id": self.run_id}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "header": header or {}, "spans": records}, fh)
            fh.write("\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_name, start, end, _parent) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def totals(spans) -> dict[str, tuple[int, int, int]]:
    """name -> (calls, total ns, total self ns)."""
    selfs = self_times(spans)
    out: dict[str, tuple[int, int, int]] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        calls, total, own = out.get(name, (0, 0, 0))
        out[name] = (calls + 1, total + end - start, own + selfs[i])
    return out
