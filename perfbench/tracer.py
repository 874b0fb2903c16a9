"""Layer spans for the traced run, recorded from outside the program.

The tracer wraps the public entry points of each layer (see
:func:`plan`) on their classes, so every instance built afterwards
goes through the wrappers. A wrapper records one span — name, start,
end and the span that was open when it began — in flat in-memory
arrays, and keeps per-name call counts and self times: a span's self
time is its duration minus the time covered by the spans it opened.
Count-only wrappers (the kernel's event constructors, the HDFS data
plane generators) record a call and nothing else.

Probes attached to a span (component counts, admission-queue depth,
provenance size) run after the span closes; their time is charged to
``trace.probe`` and to no layer.

``install()`` patches, ``uninstall()`` restores the original functions.
"""

from __future__ import annotations

import json
import time
from array import array

__all__ = ["Tracer", "LAYERS"]

#: Layer name -> span/counter name prefixes that belong to it.
LAYERS = {
    "engine": ("engine.",),
    "flows": ("flows.",),
    "metrics": ("metrics.",),
    "langs": ("langs.",),
    "prov": ("prov.",),
    "sched": ("sched.",),
    "am": ("am.",),
    "rm": ("rm.",),
    "hdfs": ("hdfs.",),
    "obs": ("obs.", "journal.", "live."),
}

SPAN, COUNT = "span", "count"


def _subclasses(cls):
    """``cls`` and every class derived from it, transitively."""
    seen, stack = [], [cls]
    while stack:
        current = stack.pop()
        if current not in seen:
            seen.append(current)
            stack.extend(current.__subclasses__())
    return seen


def plan():
    """(kind, name, [(owner class, attribute), ...], probe) per entry point.

    Built on demand, so an untraced run imports none of it.
    """
    from repro.core.am import YarnExecutionBackend
    from repro.core.engine.core import ExecutionCore
    from repro.core.provenance.manager import ProvenanceManager
    from repro.core.provenance.stores import ProvenanceStore
    from repro.core.schedulers.base import WorkflowScheduler
    from repro.hdfs.filesystem import HdfsClient
    from repro.hdfs.namenode import NameNode
    from repro.obs.bus import EventBus
    from repro.obs.journal import EventJournal
    from repro.obs.live import LiveMonitor
    from repro.sim.engine import Environment
    from repro.sim.flows import Flow, FlowNetwork
    from repro.sim.metrics import MetricRecorder
    from repro.workflow.model import TaskSource
    from repro.yarn.resourcemanager import ResourceManager
    import repro.langs  # noqa: F401  (registers the TaskSource subclasses)
    import repro.core.schedulers  # noqa: F401  (registers the schedulers)

    def own(base, attribute):
        return [
            (cls, attribute) for cls in _subclasses(base)
            if attribute in cls.__dict__
        ]

    return [
        (SPAN, "engine.run", [(Environment, "run")], None),
        (COUNT, "engine.events_created", [
            (Environment, name)
            for name in ("timeout", "event", "process", "all_of", "any_of")
        ], None),
        (SPAN, "flows.start", [(FlowNetwork, "start_flow")], None),
        (SPAN, "flows.cancel", [(Flow, "cancel")], None),
        # The rate solvers: one call per rebalance, whether it came from
        # the deferred flush or from the completion wake.
        (SPAN, "flows.flush", [
            (FlowNetwork, "_rebalance_partitioned"), (FlowNetwork, "_rebalance"),
        ], "components"),
        (SPAN, "flows.wake", [(FlowNetwork, "_on_wake")], None),
        (SPAN, "metrics.observe", [(MetricRecorder, "observe")], None),
        (SPAN, "metrics.snapshot", [
            (MetricRecorder, "snapshot"), (MetricRecorder, "finish"),
        ], None),
        (SPAN, "langs.complete", own(TaskSource, "on_task_completed"), None),
        (SPAN, "langs.initial", own(TaskSource, "initial_tasks"), None),
        (SPAN, "prov.append", [
            (ProvenanceManager, name)
            for name in ("workflow_started", "task_finished", "file_moved")
        ], None),
        (SPAN, "prov.append", [(ProvenanceManager, "workflow_finished")],
         "prov_records"),
        (SPAN, "prov.query", [
            (ProvenanceManager, "runtime_estimate"),
            (ProvenanceManager, "has_observation"),
            *own(ProvenanceStore, "latest_task_runtime"),
        ], None),
        (SPAN, "sched.select", own(WorkflowScheduler, "select_task"), "hit"),
        (SPAN, "sched.plan", own(WorkflowScheduler, "plan"), None),
        (SPAN, "sched.queue", [
            *own(WorkflowScheduler, "enqueue"),
            *own(WorkflowScheduler, "placement_for"),
            *own(WorkflowScheduler, "on_task_finished"),
        ], None),
        (SPAN, "am.dispatch", [(ExecutionCore, "dispatch_ready")], None),
        (SPAN, "am.finished", [(ExecutionCore, "attempt_finished")],
         "attempt_ok"),
        (SPAN, "am.submit", [(YarnExecutionBackend, "submit")], None),
        (SPAN, "rm.request", [(ResourceManager, "request_container")], None),
        (SPAN, "rm.release", [(ResourceManager, "release_container")], None),
        (SPAN, "rm.apps", [(ResourceManager, "submit_application")], "admission"),
        (SPAN, "rm.apps", [(ResourceManager, "unregister_application")], None),
        (COUNT, "hdfs.read", [(HdfsClient, "read")], None),
        (COUNT, "hdfs.write", [(HdfsClient, "write")], None),
        (SPAN, "hdfs.locality", [
            (HdfsClient, "local_fraction"), (HdfsClient, "local_fractions"),
            (NameNode, "local_fraction"), (NameNode, "batch_local_fractions"),
        ], None),
        (SPAN, "hdfs.namespace", [(NameNode, "create")], None),
        (SPAN, "obs.emit", [(EventBus, "emit")], None),
        (SPAN, "journal.record", [(EventJournal, "record")], None),
        (SPAN, "live.handle", [
            (LiveMonitor, name)
            for name in ("on_submitted", "on_finished", "on_attempt",
                         "snapshot", "close")
        ], None),
    ]


class Tracer:
    """Span recorder over the layers' entry points."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.hits: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        # Flat span table: name id, parent span index, start, end.
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        # Child-time accumulator per open span (index 0 = outside any
        # span) and the open span indices (-1 = none).
        self._child = [0.0]
        self._open = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- name table ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    # -- wrappers -----------------------------------------------------------

    def _probe(self, kind: str, instance, kwargs, result) -> None:
        if kind == "components":
            self.samples.setdefault("flows.components", []).append(
                float(instance.component_count())
            )
        elif kind == "admission":
            self.samples.setdefault("rm.admission_queue", []).append(
                float(instance.admission_queue_depth())
            )
        elif kind == "prov_records":
            self.samples.setdefault("prov.records", []).append(
                float(len(instance.store.records()))
            )
        elif kind == "hit":
            if result is not None:
                self.hits["sched.select"] = self.hits.get("sched.select", 0) + 1
        elif kind == "attempt_ok":
            if kwargs.get("success"):
                self.hits["am.finished"] = self.hits.get("am.finished", 0) + 1

    def _span(self, name: str, fn, probe):
        nid = self.name_id(name)
        calls, self_s = self.calls, self.self_s
        child, opened = self._child, self._open
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        probe_id = self.name_id("trace.probe")
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            index = len(s_name)
            s_name.append(nid)
            s_parent.append(opened[-1])
            s_start.append(0.0)
            s_end.append(0.0)
            opened.append(index)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                covered = child.pop()
                opened.pop()
                duration = end - start
                self_s[nid] += duration - covered
                calls[nid] += 1
                s_start[index] = start
                s_end[index] = end
                child[-1] += duration
            if probe is not None:
                began = clock()
                tracer._probe(probe, args[0], kwargs, result)
                spent = clock() - began
                self_s[probe_id] += spent
                calls[probe_id] += 1
                child[-1] += spent
            return result

        span.__wrapped__ = fn
        return span

    def _count(self, name: str, fn):
        nid = self.name_id(name)
        calls = self.calls

        def count(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        count.__wrapped__ = fn
        return count

    # -- install ------------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point in :func:`plan` (idempotent per tracer)."""
        if self._patched:
            return
        for kind, name, targets, probe in plan():
            for owner, attribute in targets:
                original = owner.__dict__[attribute]
                if kind == SPAN:
                    wrapper = self._span(name, original, probe)
                else:
                    wrapper = self._count(name, original)
                setattr(owner, attribute, wrapper)
                self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    # -- accounting ---------------------------------------------------------

    def reset(self) -> None:
        """Drop everything recorded so far (start of a timed phase)."""
        for index in range(len(self.names)):
            self.calls[index] = 0
            self.self_s[index] = 0.0
        self.hits.clear()
        self.samples.clear()
        for table in (self.span_name, self.span_parent,
                      self.span_start, self.span_end):
            del table[:]
        self._child[:] = [0.0]
        self._open[:] = [-1]

    def pause(self):
        """Token marking the start of an interval to leave out."""
        return (
            list(self.calls), list(self.self_s), dict(self.hits),
            {key: len(values) for key, values in self.samples.items()},
            len(self.span_name), self._child[-1],
        )

    def resume(self, token) -> None:
        """Forget everything recorded since :meth:`pause` returned ``token``."""
        calls, self_s, hits, samples, spans, child = token
        self.calls[:len(calls)] = calls
        self.self_s[:len(self_s)] = self_s
        for index in range(len(calls), len(self.names)):
            self.calls[index] = 0
            self.self_s[index] = 0.0
        self.hits = hits
        for key in list(self.samples):
            del self.samples[key][samples.get(key, 0):]
        for table in (self.span_name, self.span_parent,
                      self.span_start, self.span_end):
            del table[spans:]
        self._child[-1] = child

    def counts(self) -> dict[str, int]:
        return dict(zip(self.names, self.calls))

    def self_times(self) -> dict[str, float]:
        return dict(zip(self.names, self.self_s))

    def layer_self_s(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in zip(self.names, self.self_s):
            for layer, prefixes in LAYERS.items():
                if name.startswith(prefixes):
                    totals[layer] += seconds
                    break
        return totals

    def write(self, path: str) -> None:
        """Write the span table as JSON (name, parent index, start, end)."""
        base = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "names": self.names,
                "columns": ["name", "parent", "start_s", "end_s"],
                "spans": [
                    [n, p, round(s - base, 9), round(e - base, 9)]
                    for n, p, s, e in zip(
                        self.span_name, self.span_parent,
                        self.span_start, self.span_end,
                    )
                ],
            }, handle, separators=(",", ":"))
            handle.write("\n")
