"""Spans and counters recorded around calls into the program's layers.

The program is not instrumented; the benchmark replaces module attributes
with wrappers for the length of a pass and restores them afterwards. A name
brought into a module with ``from ... import`` is wrapped in the module that
calls it (``skillrl.embed_batch``), a name called as a module attribute in
its own module (``env2d.step``).
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from dataclasses import dataclass, field

from proxymanip import demogen, env2d, render, reprlearn, retarget, skillrl


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Spans kept in memory: (id, parent id, name, start, end). A span's time
    in ``stats`` leaves out the checks and hooks run inside it, and its self
    time is that minus the time its child spans cover."""

    checker: object = None
    spans: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _next_id: int = 0
    _hook_s: float = 0.0

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def _excluded_s(self) -> float:
        """Seconds spent so far in checks and hooks."""
        return self._hook_s + (self.checker.seconds if self.checker else 0.0)

    def wrap(self, name: str, fn, on_return=None):
        stats = self.stats.setdefault(name, SpanStats())

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, name, 0.0]          # id, name, child time
            self._stack.append(frame)
            e0 = self._excluded_s()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dur = t1 - t0 - (self._excluded_s() - e0)
                if parent is not None:
                    parent[2] += dur
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur - frame[2]
                self.spans.append((span_id, None if parent is None else parent[0],
                                   name, t0, t1))
            if on_return is not None:
                h0 = time.perf_counter()
                on_return(self, args, result)
                self._hook_s += time.perf_counter() - h0
            return result

        return traced

    def write(self, path) -> None:
        """All spans as gzip'd JSON lines, start and end in seconds."""
        with gzip.open(path, "wt") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps([span_id, parent, name, t0, t1]) + "\n")


def _step_returned(tracer: Tracer, args, result) -> None:
    # pose-memo ceiling: only steps whose frame is rendered for the reward
    if tracer.inside("skillrl.collect_rollouts"):
        tracer.count("step_in_rollouts")
        before, after = args[0].object_q, result[0].object_q
        if before.tobytes() == after.tobytes():
            tracer.count("step_in_rollouts_q_unchanged")


def _rollouts_returned(tracer: Tracer, args, result) -> None:
    tracer.count("episodes_finished", len(result["episode_returns"]))


# (module, attribute, span name, hook run on return)
TRACE_POINTS = [
    (env2d, "step", "env2d.step", _step_returned),
    (render, "render", "render.render", None),
    (skillrl, "embed_batch", "reprlearn.embed_batch", None),
    (skillrl, "embed", "reprlearn.embed", None),
    (reprlearn, "train_step", "reprlearn.train_step", None),
    (reprlearn, "batch_loss_and_grads", "reprlearn.batch_loss_and_grads", None),
    (reprlearn, "stack_batch_inputs", "reprlearn.stack_batch_inputs", None),
    (reprlearn, "sample_tcn_batch", "demogen.sample_tcn_batch", None),
    (skillrl, "forward_batch", "numcore.forward_batch", None),
    (reprlearn, "forward_batch", "numcore.forward_batch", None),
    (skillrl, "backward_batch", "numcore.backward_batch", None),
    (reprlearn, "backward_batch", "numcore.backward_batch", None),
    (skillrl, "adam_step", "numcore.adam_step", None),
    (reprlearn, "adam_step", "numcore.adam_step", None),
    (demogen, "run_expert_episode", "demogen.run_expert_episode", None),
    (demogen, "episode_to_clip", "demogen.episode_to_clip", None),
    (demogen, "save_dataset", "demogen.save_dataset", None),
    (demogen, "load_dataset", "demogen.load_dataset", None),
    (skillrl, "collect_rollouts", "skillrl.collect_rollouts", _rollouts_returned),
    (skillrl, "ppo_update", "skillrl.ppo_update", None),
    (skillrl, "evaluate_policy", "skillrl.evaluate_policy", None),
    (skillrl, "sample_actions", "skillrl.sample_actions", None),
    (skillrl, "values", "skillrl.values", None),
    (retarget, "inverse_kinematics", "retarget.inverse_kinematics", None),
    (retarget, "retarget_trajectory", "retarget.retarget_trajectory", None),
    (retarget, "replay_retargeted", "retarget.replay_retargeted", None),
]


class Patches:
    """Replaces program functions with checked (and, given a tracer, traced)
    wrappers. The span wraps the original call and the check wraps the span;
    a check that runs inside an outer span is taken out of that span's time
    by the tracer."""

    def __init__(self, checker):
        self.checker = checker
        self.originals = {}
        for module, attr, *_ in TRACE_POINTS:
            self.originals[(module, attr)] = getattr(module, attr)
        for module, attr, _ in checker.points():
            self.originals[(module, attr)] = getattr(module, attr)

    def install(self, tracer) -> None:
        self.restore()
        fns = dict(self.originals)
        if tracer is not None:
            for module, attr, name, hook in TRACE_POINTS:
                fns[(module, attr)] = tracer.wrap(name, fns[(module, attr)], hook)
        for module, attr, factory in self.checker.points():
            fns[(module, attr)] = factory(fns[(module, attr)])
        for (module, attr), fn in fns.items():
            setattr(module, attr, fn)

    def restore(self) -> None:
        for (module, attr), fn in self.originals.items():
            setattr(module, attr, fn)


# per-layer metric -> (span name, statistic, unit); statistics are per
# traced round (calls) or per call (times)
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
SPAN_METRICS = {
    "env2d.step.calls": ("env2d.step", "calls", "count"),
    "env2d.step.us": ("env2d.step", "mean", "us"),
    "render.render.calls": ("render.render", "calls", "count"),
    "render.render.us": ("render.render", "mean", "us"),
    "reprlearn.embed_batch.ms": ("reprlearn.embed_batch", "mean", "ms"),
    "reprlearn.embed.us": ("reprlearn.embed", "mean", "us"),
    "reprlearn.train_step.ms": ("reprlearn.train_step", "mean", "ms"),
    "reprlearn.batch_loss_and_grads.ms": ("reprlearn.batch_loss_and_grads", "mean", "ms"),
    "reprlearn.stack_batch_inputs.ms": ("reprlearn.stack_batch_inputs", "mean", "ms"),
    "numcore.forward_batch.ms": ("numcore.forward_batch", "mean", "ms"),
    "numcore.backward_batch.ms": ("numcore.backward_batch", "mean", "ms"),
    "numcore.adam_step.ms": ("numcore.adam_step", "mean", "ms"),
    "demogen.run_expert_episode.ms": ("demogen.run_expert_episode", "mean", "ms"),
    "demogen.episode_to_clip.ms": ("demogen.episode_to_clip", "mean", "ms"),
    "demogen.save_dataset.s": ("demogen.save_dataset", "mean", "s"),
    "demogen.load_dataset.s": ("demogen.load_dataset", "mean", "s"),
    "demogen.sample_tcn_batch.ms": ("demogen.sample_tcn_batch", "mean", "ms"),
    "skillrl.collect_rollouts.s": ("skillrl.collect_rollouts", "mean", "s"),
    "skillrl.collect_rollouts.self_s": ("skillrl.collect_rollouts", "self_mean", "s"),
    "skillrl.ppo_update.s": ("skillrl.ppo_update", "mean", "s"),
    "skillrl.evaluate_policy.s": ("skillrl.evaluate_policy", "mean", "s"),
    "skillrl.sample_actions.ms": ("skillrl.sample_actions", "mean", "ms"),
    "skillrl.values.ms": ("skillrl.values", "mean", "ms"),
    "retarget.inverse_kinematics.calls": ("retarget.inverse_kinematics", "calls", "count"),
    "retarget.inverse_kinematics.us": ("retarget.inverse_kinematics", "mean", "us"),
    "retarget.retarget_trajectory.ms": ("retarget.retarget_trajectory", "mean", "ms"),
    "retarget.replay_retargeted.ms": ("retarget.replay_retargeted", "mean", "ms"),
}


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer figures of the traced passes: calls per round, mean time
    per call, and the counters."""
    out = {}
    for metric, (span, stat, unit) in SPAN_METRICS.items():
        st = tracer.stats.get(span, SpanStats())
        if stat == "calls":
            value = st.calls / rounds
        else:
            total = st.total_s if stat == "mean" else st.self_s
            value = total / st.calls * _SCALE[unit] if st.calls else 0.0
        out[metric] = {"value": value, "unit": unit}
    c = tracer.counters
    steps = c.get("step_in_rollouts", 0)
    out["env2d.step.object_q_unchanged_frac"] = {
        "value": c.get("step_in_rollouts_q_unchanged", 0) / steps if steps else 0.0,
        "unit": "ratio"}
    out["skillrl.episodes_finished"] = {
        "value": c.get("episodes_finished", 0) / rounds, "unit": "count"}
    return out


def overhead_pct(traced_s: list[float], untraced_s: list[float]) -> float:
    """Median over rounds of traced vs untraced time of the same round."""
    ratios = [t / u for t, u in zip(traced_s, untraced_s)]
    return (statistics.median(ratios) - 1.0) * 100.0
