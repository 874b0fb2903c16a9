"""The benchmark's three workloads, each split into set-up and timed run.

Every workload is built from the repository's public API (``HiWay``,
``ServiceRunner`` and the pieces the ``repro.experiments`` harnesses
assemble), with the workload seed as its only input.
``setup(seed, workdir)`` returns an opaque state; ``run(state, clock)``
executes the timed phase and returns a :class:`Pass` holding the host
timings and the simulated outputs the checks compare against the
reference.

The clock passed to ``run`` lets a workload move set-up work that the
public API performs inside the timed call (the service runner stages
its inputs inside ``ServiceRunner.run``) out of ``run_s`` and into
``setup_s``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

__all__ = ["Pass", "WORKLOADS", "SetupClock", "preload"]


@dataclass
class Pass:
    """One timed pass of a workload."""

    #: Set-up seconds, in reference-host seconds (see hostspeed.py).
    setup_s: float = 0.0
    #: Raw host seconds of the timed phase.
    run_s: float = 0.0
    #: Successful task attempts (``hiway_task_attempts_total``).
    tasks_ok: int = 0
    #: Raw host seconds per workflow execution (one entry per execution
    #: on snv-scale and fig9-heft; the per-submission mean on the service).
    exec_s: list[float] = field(default_factory=list)
    #: One entry per operation: (name, succeeded?, reason if not).
    ops: list[tuple[str, bool, str]] = field(default_factory=list)
    #: Simulated outputs compared against the reference.
    outputs: dict = field(default_factory=dict)
    #: Service runs only: the live report text and the journal path.
    report_text: str = ""
    journal_path: str = ""
    #: How much slower than the reference host the host ran during the
    #: pass (set by the runner from its calibration loop).
    host_factor: float = 1.0


class SetupClock:
    """Times set-up calls made from inside the timed phase.

    ``wrap(fn)`` returns a callable that runs ``fn`` and adds its host
    time to ``seconds``; ``on_enter``/``on_exit`` hooks let the tracer
    exclude the same interval from the layer accounting.
    """

    def __init__(self, on_enter=None, on_exit=None):
        self.seconds = 0.0
        self._on_enter = on_enter
        self._on_exit = on_exit

    def wrap(self, fn):
        def timed(*args, **kwargs):
            token = self._on_enter() if self._on_enter else None
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - started
                if self._on_exit:
                    self._on_exit(token)

        return timed


def preload() -> None:
    """Import every module the workloads use (counted in ``setup_s``)."""
    import repro.cluster  # noqa: F401
    import repro.core  # noqa: F401
    import repro.core.provenance  # noqa: F401
    import repro.hdfs  # noqa: F401
    import repro.langs  # noqa: F401
    import repro.obs.journal  # noqa: F401
    import repro.obs.live  # noqa: F401
    import repro.service  # noqa: F401
    import repro.sim  # noqa: F401
    import repro.workloads  # noqa: F401
    import repro.yarn  # noqa: F401


def _success_attempts(registry) -> int:
    return int(registry.value("hiway_task_attempts_total", outcome="success"))


# -- snv-scale: Table 2 weak scaling at 32 workers ---------------------------

SNV_WORKERS = 32
SNV_FILES_PER_SAMPLE = 8
SNV_MB_PER_FILE = 1032.0


def snv_setup(seed: int, workdir: str):
    from repro.cluster import Cluster, ClusterSpec, M3_LARGE
    from repro.core import HiWay, HiWayConfig
    from repro.hdfs import HdfsClient
    from repro.langs import CuneiformSource
    from repro.sim import Environment
    from repro.workloads import SNV_TOOLS, sample_read_files, snv_cuneiform
    from repro.yarn import ResourceManager

    env = Environment()
    cluster = Cluster(env, ClusterSpec(
        worker_spec=M3_LARGE,
        worker_count=SNV_WORKERS,
        master_count=2,
        backbone_mb_s=10_000.0,
    ))
    rm = ResourceManager(env, cluster, max_containers_per_node=1)
    hiway = HiWay(
        cluster,
        hdfs=HdfsClient(cluster, seed=seed),
        rm=rm,
        config=HiWayConfig(
            container_vcores=M3_LARGE.cores,
            container_memory_mb=M3_LARGE.memory_mb * 0.9,
            am_node="master-1",
        ),
    )
    hiway.install_everywhere(*SNV_TOOLS)
    inputs = sample_read_files(
        SNV_WORKERS,
        files_per_sample=SNV_FILES_PER_SAMPLE,
        mb_per_file=SNV_MB_PER_FILE,
        from_s3=True,
    )
    hiway.stage_inputs(inputs, seed=seed)
    source = CuneiformSource(snv_cuneiform(inputs, use_cram=True), name="snv-s3")
    return hiway, source


def snv_run(state, clock: SetupClock) -> Pass:
    hiway, source = state
    started = time.perf_counter()
    result = hiway.run(source, scheduler="fcfs")
    run_s = time.perf_counter() - started
    ok = bool(result.success)
    return Pass(
        run_s=run_s,
        tasks_ok=_success_attempts(hiway.registry),
        exec_s=[run_s],
        ops=[("snv-s3", ok, "" if ok else "; ".join(result.diagnostics))],
        outputs={
            "makespans_s": [result.runtime_seconds],
            "tasks": [result.tasks_completed],
        },
    )


# -- fig9-heft: one Fig. 9 experiment (FCFS + 20 HEFT over provenance) -------

FIG9_WORKERS = 11
FIG9_DEGREE = 0.25
FIG9_HEFT_RUNS = 20


def fig9_setup(seed: int, workdir: str):
    from repro.cluster import (
        Cluster, ClusterSpec, M3_LARGE, apply_stress, paper_fig9_stress,
    )
    from repro.core import HiWay, HiWayConfig
    from repro.core.provenance import TraceFileStore
    from repro.hdfs import HdfsClient
    from repro.sim import Environment
    from repro.workloads import MONTAGE_TOOLS, montage_dax, montage_inputs
    from repro.yarn import ResourceManager

    env = Environment()
    cluster = Cluster(env, ClusterSpec(
        worker_spec=M3_LARGE, worker_count=FIG9_WORKERS, master_count=1,
    ))
    apply_stress(cluster, paper_fig9_stress(cluster.worker_ids))
    store = TraceFileStore()
    hiway = HiWay(
        cluster,
        hdfs=HdfsClient(cluster, seed=seed),
        rm=ResourceManager(env, cluster, max_containers_per_node=1),
        provenance_store=store,
        config=HiWayConfig(container_vcores=1, container_memory_mb=1024.0),
    )
    hiway.install_everywhere(*MONTAGE_TOOLS)
    hiway.stage_inputs(montage_inputs(FIG9_DEGREE), seed=seed)
    return hiway, store, montage_dax(FIG9_DEGREE), seed


def fig9_run(state, clock: SetupClock) -> Pass:
    from repro.core import HeftScheduler
    from repro.langs import DaxSource

    hiway, store, dax, seed = state
    one = Pass()
    makespans = []
    tasks = []
    clock_start = time.perf_counter()
    for index in range(FIG9_HEFT_RUNS + 1):
        if index == 0:
            scheduler, label = "fcfs", "fcfs"
        else:
            scheduler = HeftScheduler(seed=seed * 1000 + index - 1)
            label = f"heft-{index - 1:02d}"
        started = time.perf_counter()
        result = hiway.run(DaxSource(dax), scheduler=scheduler)
        one.exec_s.append(time.perf_counter() - started)
        if index == 0:
            # The FCFS baseline must not seed the HEFT estimates.
            store.clear()
        ok = bool(result.success)
        one.ops.append((label, ok, "" if ok else "; ".join(result.diagnostics)))
        makespans.append(result.runtime_seconds)
        tasks.append(result.tasks_completed)
    one.run_s = time.perf_counter() - clock_start
    one.tasks_ok = _success_attempts(hiway.registry)
    one.outputs = {"makespans_s": makespans, "tasks": tasks}
    return one


# -- service-observed: open-loop service with journal and live monitor -------

SERVICE_WORKERS = 8
SERVICE_CAP = 8
SERVICE_RATE_PER_H = 30.0
SERVICE_SUBMISSIONS = 118
SERVICE_LIVE_PERIOD_S = 300.0
#: Seed of the tenant/workload-kind draws, fixed for every workload seed.
SERVICE_MIX_SEED = 0


def _service_arrivals(seed: int):
    """Poisson arrivals whose times come from ``seed``.

    ``build_schedule`` seeds its tenant/kind draws from
    ``arrivals.seed + 1``; pinning ``seed`` to :data:`SERVICE_MIX_SEED`
    keeps the submitted workflows (and so the amount of work) the same
    for every workload seed, while the arrival times, and with them the
    contention and queueing, change with it. The horizon ends between
    arrival ``SERVICE_SUBMISSIONS`` and the next one, so every seed
    submits exactly that many workflows (about four simulated hours at
    30/h). At seed 0 this is exactly ``serve-sim --rate-per-h 30
    --horizon-s 14400 --seed 0``'s schedule.
    """
    from repro.service import PoissonArrivals

    rate_per_s = SERVICE_RATE_PER_H / 3600.0

    class FixedMixPoisson(PoissonArrivals):
        def times(self, horizon_s: float) -> list[float]:
            return PoissonArrivals(rate_per_s, seed=seed).times(horizon_s)

        def describe(self) -> str:
            return (
                f"poisson (rate {self.rate_per_s:.4f}/s, seed {seed}, "
                f"mix seed {SERVICE_MIX_SEED})"
            )

    arrivals = FixedMixPoisson(rate_per_s, seed=SERVICE_MIX_SEED)
    window = 2.0 * SERVICE_SUBMISSIONS / rate_per_s
    times = arrivals.times(window)
    while len(times) <= SERVICE_SUBMISSIONS:
        window *= 2.0
        times = arrivals.times(window)
    last, after = times[SERVICE_SUBMISSIONS - 1], times[SERVICE_SUBMISSIONS]
    return arrivals, (last + after) / 2.0


def service_setup(seed: int, workdir: str):
    from repro.obs.journal import EventJournal
    from repro.obs.live import LiveMonitor
    from repro.service import ServiceConfig, ServiceRunner, SloTargets

    runner = ServiceRunner(ServiceConfig(
        workers=SERVICE_WORKERS,
        max_concurrent_apps=SERVICE_CAP,
        rm_policy="fair",
        scheduler="data-aware",
        seed=seed,
    ))
    arrivals, horizon_s = _service_arrivals(seed)
    targets = SloTargets()
    path = os.path.join(workdir, f"service-{seed}-{time.perf_counter_ns()}.jsonl")
    journal = EventJournal(path)
    monitor = LiveMonitor(window_s=SERVICE_LIVE_PERIOD_S, targets=targets)
    return runner, arrivals, horizon_s, targets, journal, monitor, path


def service_run(state, clock: SetupClock) -> Pass:
    runner, arrivals, horizon_s, targets, journal, monitor, path = state
    hiway = runner.hiway
    # Tool installation and input staging are set-up work the runner
    # performs inside run(); time them separately.
    hiway.install_everywhere = clock.wrap(hiway.install_everywhere)
    hiway.stage_inputs = clock.wrap(hiway.stage_inputs)
    snapshots: list[str] = []
    started = time.perf_counter()
    try:
        report = runner.run(
            arrivals,
            horizon_s=horizon_s,
            targets=targets,
            journal=journal,
            monitor=monitor,
            snapshot_every_s=SERVICE_LIVE_PERIOD_S,
            on_snapshot=snapshots.append,
        )
    finally:
        journal.close()
    run_s = time.perf_counter() - started - clock.seconds
    one = Pass(run_s=run_s, tasks_ok=_success_attempts(runner.registry))
    for record in report.records:
        if record.rejected:
            one.ops.append((record.name, False, "rejected"))
        elif record.finished_at is None:
            one.ops.append((record.name, False, "unfinished"))
        elif not record.success:
            one.ops.append((record.name, False, "unsuccessful"))
        else:
            one.ops.append((record.name, True, ""))
    # Submissions overlap on the simulated clock, so per-execution host
    # time is the pass's host time per submission.
    one.exec_s = [run_s / max(1, report.submitted)]
    latencies = report.latencies_s
    one.outputs = {
        "submitted": report.submitted,
        "kinds": [record.kind for record in report.records],
        "tasks": one.tasks_ok,
        "duration_s": report.horizon_s,
        "latency_sum_s": sum(latencies),
        "snapshots": len(snapshots),
        "events": journal.events_written,
    }
    one.report_text = report.render()
    one.journal_path = path
    return one


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run: object


WORKLOADS = {
    "snv-scale": Workload("snv-scale", snv_setup, snv_run),
    "fig9-heft": Workload("fig9-heft", fig9_setup, fig9_run),
    "service-observed": Workload("service-observed", service_setup, service_run),
}
