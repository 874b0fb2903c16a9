"""Heterogeneous Earliest Finish Time scheduling (Sec. 3.4, [39]).

HEFT exploits heterogeneity in both tasks and infrastructure. It uses
provenance-fed runtime estimates to rank tasks by the expected time from
task onset to workflow terminus (the *upward rank*); by decreasing rank,
tasks are assigned to the compute node with the earliest estimated
finish time, so critical tasks land on the best-performing nodes first.

Estimates follow the paper's strategy: the latest observed runtime of
the same signature on the same node; pairs never observed default to
**zero**, which deliberately encourages trying out new assignments until
the (signature x node) picture is complete — the mechanism behind the
Figure 9 learning curve.
"""

from __future__ import annotations

from repro.core.schedulers.static_base import StaticScheduler
from repro.errors import SchedulingError
from repro.workflow.model import TaskSpec

__all__ = ["HeftScheduler"]


class HeftScheduler(StaticScheduler):
    """Provenance-driven static-adaptive scheduling.

    ``seed`` randomises the order in which workers are considered when
    estimated finish times tie (ubiquitous while estimates are missing).
    The real system's ties break on noisy heartbeat arrival order; a
    deterministic order would make every exploration run probe the same
    nodes in the same sequence.
    """

    name = "heft"

    #: Supported policies for never-observed (signature, node) pairs:
    #: "zero" is the paper's exploration-encouraging default; "mean"
    #: assumes the signature's mean observed runtime instead, which
    #: avoids exploration (ablated in benchmarks/test_ablations.py).
    UNOBSERVED_POLICIES = ("zero", "mean")

    def __init__(self, seed: int | None = None, unobserved: str = "zero"):
        super().__init__()
        self._seed = seed
        if unobserved not in self.UNOBSERVED_POLICIES:
            raise SchedulingError(
                f"unknown unobserved-pair policy {unobserved!r}; "
                f"choose one of {self.UNOBSERVED_POLICIES}"
            )
        self._unobserved = unobserved

    def _estimate(self, provenance, signature: str, node: str, workers) -> float:
        if self._unobserved == "zero" or provenance.has_observation(signature, node):
            return provenance.runtime_estimate(signature, node)
        observed = [
            provenance.runtime_estimate(signature, other)
            for other in workers
            if provenance.has_observation(signature, other)
        ]
        return sum(observed) / len(observed) if observed else 0.0

    def _build_assignment(self, tasks: list[TaskSpec]) -> dict[str, str]:
        context = self._require_context()
        if context.provenance is None:
            workflow = context.workflow_id or "<unsubmitted>"
            task_ids = [task.task_id for task in tasks]
            shown = ", ".join(task_ids[:5]) + (", ..." if len(task_ids) > 5 else "")
            raise SchedulingError(
                f"heft: cannot plan workflow {workflow!r} "
                f"({len(tasks)} tasks: {shown}): no provenance manager in the "
                "scheduler context — HEFT derives runtime estimates from "
                "provenance; pass one when binding, or use a queue policy "
                "(fcfs/data-aware) which needs none"
            )
        workers = list(context.worker_ids)
        if self._seed is not None:
            import random

            random.Random(self._seed).shuffle(workers)
        provenance = context.provenance
        # Provenance cannot change while a plan is built, so each
        # (signature, node) pair is estimated once per plan; Montage,
        # for one, repeats a handful of signatures across all its tasks.
        estimate = {
            (signature, node): self._estimate(provenance, signature, node, workers)
            for signature in dict.fromkeys(task.signature for task in tasks)
            for node in workers
        }

        # Dependency structure from file producer/consumer relations.
        producer: dict[str, str] = {}
        for task in tasks:
            for path in task.outputs:
                producer[path] = task.task_id
        children: dict[str, list[str]] = {task.task_id: [] for task in tasks}
        parents: dict[str, list[str]] = {task.task_id: [] for task in tasks}
        by_id = {task.task_id: task for task in tasks}
        for task in tasks:
            for path in task.inputs:
                parent = producer.get(path)
                if parent is not None and parent != task.task_id:
                    children[parent].append(task.task_id)
                    parents[task.task_id].append(parent)

        # Mean estimated runtime per task (used for upward ranks).
        mean_w = {
            task.task_id: sum(estimate[task.signature, node] for node in workers)
            / len(workers)
            for task in tasks
        }

        # Upward ranks, computed in reverse topological order. ``tasks``
        # arrives topologically sorted from the static task source.
        rank: dict[str, float] = {}
        for task in reversed(tasks):
            downstream = max(
                (rank[child] for child in children[task.task_id]), default=0.0
            )
            rank[task.task_id] = mean_w[task.task_id] + downstream

        # Assignment by decreasing rank; topological index breaks ties so
        # parents are always placed before their children.
        topo_index = {task.task_id: index for index, task in enumerate(tasks)}
        order = sorted(tasks, key=lambda t: (-rank[t.task_id], topo_index[t.task_id]))
        avail = {node: 0.0 for node in workers}
        load = {node: 0 for node in workers}
        finish: dict[str, float] = {}
        assignment: dict[str, str] = {}
        audited = self._decisions_wanted()
        for task in order:
            ready = max(
                (finish[parent] for parent in parents[task.task_id]), default=0.0
            )
            best_node = None
            best_key = None
            candidates: list[tuple[str, float]] = []
            for index, node in enumerate(workers):
                eft = max(avail[node], ready) + estimate[task.signature, node]
                if audited:
                    candidates.append((node, eft))
                # Ties (ubiquitous while estimates are zero) spread by
                # current load, then node order, keeping first-run
                # schedules balanced rather than piling onto one node.
                key = (eft, load[node], index)
                if best_key is None or key < best_key:
                    best_key = key
                    best_node = node
            if audited:
                self._plan_scores[task.task_id] = (
                    sorted(candidates), "estimated_eft", "min",
                )
            assignment[task.task_id] = best_node
            finish[task.task_id] = best_key[0]
            avail[best_node] = best_key[0]
            load[best_node] += 1
        return assignment
