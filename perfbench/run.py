"""Layer-attributed Hi-WAY benchmark: run one workload, check it, report.

Usage (from the repository root)::

    python3 perfbench/run.py --workload snv-scale --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

``--trace 0`` reports the end-to-end metrics of untraced passes;
``--trace 1`` additionally makes traced passes and reports the
per-layer metrics (call counts, self times, shares). ``--workload all``
runs every workload in its own child process, one after the other, so
each peak RSS belongs to one workload. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit). See perfbench/README.md.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOAD_NAMES = ("snv-scale", "fig9-heft", "service-observed")


def _median(values):
    return statistics.median(values) if values else 0.0


def _quantile(values, q: float) -> float:
    """Inclusive-method percentile ``q`` (0..100) of ``values``."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(q) - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- passes -------------------------------------------------------------------


def _passes(workload, seed, seconds, min_passes, workdir, tracer=None):
    """Repeat set-up + timed run for ``seconds``, at least ``min_passes``.

    Each pass's ``host_factor`` is the host slowdown sampled while its
    timed run executed (see hostspeed.py).
    """
    from hostspeed import HostSpeed
    from workloads import SetupClock

    passes, layers = [], []
    began = time.perf_counter()
    while True:
        gc.collect()
        with HostSpeed() as speed:
            started = time.perf_counter()
            state = workload.setup(seed, workdir)
            setup_s = (time.perf_counter() - started) / speed.factor
        if tracer is None:
            clock = SetupClock()
        else:
            tracer.reset()
            clock = SetupClock(tracer.pause, tracer.resume)
        with HostSpeed() as speed:
            one = workload.run(state, clock)
        one.host_factor = speed.factor
        one.setup_s = setup_s + clock.seconds / one.host_factor
        del state
        if tracer is not None:
            layers.append(_snapshot(tracer, one))
        passes.append(one)
        elapsed = time.perf_counter() - began
        if len(passes) >= min_passes and elapsed >= seconds:
            return passes, layers


def _snapshot(tracer, one):
    """Per-pass layer figures, read straight after the timed phase.

    Self times and ``run_s`` are raw host seconds (shares divide them);
    ``ref_run_s`` is the pass in reference-host seconds.
    """
    counts = tracer.counts()
    self_s = tracer.self_times()
    layer_s = tracer.layer_self_s()
    return {
        "run_s": one.run_s,
        "ref_run_s": one.run_s / one.host_factor,
        "counts": counts,
        "self_s": self_s,
        "layer_s": layer_s,
        "hits": dict(tracer.hits),
        "samples": {key: list(values) for key, values in tracer.samples.items()},
    }


# -- checks -------------------------------------------------------------------


def _load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _within(actual: float, expected: float, rel: float) -> bool:
    return abs(actual - expected) <= rel * abs(expected)


def _pass_problems(name, one, first, reference, seed, replayed):
    """Reasons the pass's outputs are wrong (empty when correct).

    ``first`` is the run's first untraced pass: every pass of one seed,
    traced or not, must reproduce its simulated outputs exactly.
    """
    problems = []
    tolerance = reference["tolerance"][name]
    expected = reference["seeds"].get(str(seed), {}).get(name)
    outputs = one.outputs
    if outputs != first.outputs:
        problems.append("simulated outputs differ between passes of one seed")
    if name == "snv-scale":
        if outputs["tasks"] != [reference["snv_tasks"]]:
            problems.append(f"task count {outputs['tasks']} != {reference['snv_tasks']}")
        if one.tasks_ok != reference["snv_tasks"]:
            problems.append(f"successful attempts {one.tasks_ok}")
        if expected and not _within(
            outputs["makespans_s"][0], expected["makespans_s"][0],
            tolerance["makespan_rel"],
        ):
            problems.append(
                f"makespan {outputs['makespans_s'][0]!r} vs reference "
                f"{expected['makespans_s'][0]!r}"
            )
    elif name == "fig9-heft":
        per_run = reference["fig9_tasks_per_run"]
        runs = len(outputs["tasks"])
        if outputs["tasks"] != [per_run] * runs or runs != 21:
            problems.append(f"task counts {outputs['tasks']}")
        if one.tasks_ok != per_run * 21:
            problems.append(f"successful attempts {one.tasks_ok}")
        if expected:
            if not _within(
                outputs["makespans_s"][0], expected["makespans_s"][0],
                tolerance["fcfs_makespan_rel"],
            ):
                problems.append("FCFS makespan outside tolerance")
            if not _within(
                sum(outputs["makespans_s"][1:]), sum(expected["makespans_s"][1:]),
                tolerance["heft_makespan_sum_rel"],
            ):
                problems.append("HEFT makespan sum outside tolerance")
    else:
        per_kind = reference["service_tasks_per_kind"]
        want_tasks = sum(per_kind[kind] for kind in outputs["kinds"])
        if outputs["tasks"] != want_tasks:
            problems.append(f"task count {outputs['tasks']} != {want_tasks}")
        if expected:
            if outputs["submitted"] != expected["submitted"]:
                problems.append("submission count differs from reference")
            if outputs["tasks"] != expected["tasks"]:
                problems.append("task count differs from reference")
            for key in ("duration_s", "latency_sum_s"):
                if not _within(outputs[key], expected[key], tolerance[key + "_rel"]):
                    problems.append(f"{key} outside tolerance")
        if not _replay_matches(one.journal_path, one.report_text, replayed):
            problems.append("journal replay renders differently from the live report")
    return problems


def _replay_matches(journal_path: str, report_text: str, replayed: dict) -> bool:
    """Whether the journal rebuilds a report identical to the live one.

    Passes of one seed write byte-identical journals, so each distinct
    (journal digest, live report) pair is replayed once; ``replayed``
    holds the verdicts so far.
    """
    from repro.obs.journal import load_service_report

    with open(journal_path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    key = (digest, report_text)
    if key not in replayed:
        replayed[key] = load_service_report(journal_path).render() == report_text
    return replayed[key]


def _check(name, passes, seed, first=None):
    """(attempted, failed, problems) over every pass."""
    reference = _load_reference()
    first = first or passes[0]
    attempted = failed = 0
    problems = []
    replayed: dict = {}
    for one in passes:
        bad = _pass_problems(name, one, first, reference, seed, replayed)
        attempted += len(one.ops)
        if bad:
            failed += len(one.ops)
            problems.extend(bad)
            continue
        for op, ok, why in one.ops:
            if not ok:
                failed += 1
                problems.append(f"{op}: {why}")
    return attempted, failed, problems


def _has_reference(name, seed) -> bool:
    return name in _load_reference()["seeds"].get(str(seed), {})


# -- metrics ------------------------------------------------------------------


def _end_to_end(passes, import_ref_s, peak_rss_mb, attempted, failed):
    """The end-to-end metrics; times are in reference-host seconds."""
    runs = [one.run_s / one.host_factor for one in passes]
    execs = [
        seconds / one.host_factor for one in passes for seconds in one.exec_s
    ]
    return {
        "run_s": (_median(runs), "s", len(runs)),
        "tasks_per_s": (
            _median([one.tasks_ok / run for one, run in zip(passes, runs)]),
            "1/s", len(runs),
        ),
        "setup_s": (
            import_ref_s + _median([one.setup_s for one in passes]),
            "s", len(runs),
        ),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "ok_ratio": ((attempted - failed) / attempted, "ratio", attempted),
        "exec_s_p50": (_median(execs), "s", len(execs)),
        "exec_s_p90": (_quantile(execs, 90), "s", len(execs)),
    }


def _per_layer(layers, untraced_run_s):
    from tracer import LAYERS

    def med(fn):
        return _median([fn(snapshot) for snapshot in layers])

    def calls(*names):
        return float(sum(layers[0]["counts"].get(name, 0) for name in names))

    def self_s(*names):
        return med(lambda s: sum(s["self_s"].get(name, 0.0) for name in names))

    def ratio(hits, *names):
        total = calls(*names)
        return layers[0]["hits"].get(hits, 0) / total if total else 0.0

    def sample(key, how):
        values = layers[0]["samples"].get(key, [])
        return how(values) if values else 0.0

    n = len(layers)
    metrics = {
        "engine.events_created": (calls("engine.events_created"), "count", 1),
        "engine.self_s": (self_s("engine.run"), "s", n),
        "flows.start.calls": (calls("flows.start"), "count", 1),
        "flows.cancel.calls": (calls("flows.cancel"), "count", 1),
        "flows.flush.calls": (calls("flows.flush"), "count", 1),
        "flows.flush.self_s": (self_s("flows.flush"), "s", n),
        "flows.start.self_s": (self_s("flows.start"), "s", n),
        "flows.components.mean": (
            sample("flows.components", statistics.fmean), "count", 1
        ),
        "metrics.observe.calls": (calls("metrics.observe"), "count", 1),
        "metrics.self_s": (self_s("metrics.observe", "metrics.snapshot"), "s", n),
        "langs.complete.calls": (calls("langs.complete"), "count", 1),
        "langs.self_s": (self_s("langs.complete", "langs.initial"), "s", n),
        "prov.append.calls": (calls("prov.append"), "count", 1),
        "prov.append.self_s": (self_s("prov.append"), "s", n),
        "prov.query.calls": (calls("prov.query"), "count", 1),
        "prov.query.self_s": (self_s("prov.query"), "s", n),
        "prov.records.max": (sample("prov.records", max), "count", 1),
        "sched.select.calls": (calls("sched.select"), "count", 1),
        "sched.select.self_s": (self_s("sched.select"), "s", n),
        "sched.select.hit_ratio": (ratio("sched.select", "sched.select"), "ratio", 1),
        "sched.plan.self_s": (self_s("sched.plan"), "s", n),
        "am.dispatch.calls": (calls("am.dispatch"), "count", 1),
        "am.dispatch.self_s": (self_s("am.dispatch"), "s", n),
        "am.finished.calls": (calls("am.finished"), "count", 1),
        "am.attempt.success_ratio": (
            ratio("am.finished", "am.finished"), "ratio", 1
        ),
        "rm.request.calls": (calls("rm.request"), "count", 1),
        "rm.release.calls": (calls("rm.release"), "count", 1),
        "rm.request.self_s": (self_s("rm.request"), "s", n),
        "rm.release.self_s": (self_s("rm.release"), "s", n),
        "rm.admission_queue.max": (sample("rm.admission_queue", max), "count", 1),
        "hdfs.read.calls": (calls("hdfs.read"), "count", 1),
        "hdfs.write.calls": (calls("hdfs.write"), "count", 1),
        "hdfs.locality.calls": (calls("hdfs.locality"), "count", 1),
        "hdfs.locality.self_s": (self_s("hdfs.locality"), "s", n),
        "obs.emit.calls": (calls("obs.emit"), "count", 1),
        "obs.emit.self_s": (self_s("obs.emit"), "s", n),
        "journal.record.calls": (calls("journal.record"), "count", 1),
        "journal.record.self_s": (self_s("journal.record"), "s", n),
        "live.self_s": (self_s("live.handle"), "s", n),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (
            med(lambda s: s["layer_s"][layer] / s["run_s"]), "ratio", n
        )
    traced = _median([snapshot["ref_run_s"] for snapshot in layers])
    metrics["trace.overhead"] = (traced / untraced_run_s, "ratio", n)
    metrics["unattributed.share"] = (
        med(lambda s: 1.0 - sum(s["layer_s"].values()) / s["run_s"]), "ratio", n
    )
    return metrics


# -- one workload in this process ---------------------------------------------


def run_one(name, seed, seconds, trace, import_ref_s, workdir):
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if trace:
        # Untraced and traced phases share the run's time.
        seconds, min_passes = seconds / 3.0, 2
    else:
        min_passes = 3
    passes, _ = _passes(workload, seed, seconds, min_passes, workdir)
    peak_rss_mb = _peak_rss_mb()  # before any check allocates
    attempted, failed, problems = _check(name, passes, seed)
    untraced_run_s = _median([one.run_s / one.host_factor for one in passes])
    if not trace:
        metrics = _end_to_end(
            passes, import_ref_s, peak_rss_mb, attempted, failed
        )
        print("raw host seconds of the passes: "
              + " ".join(f"{one.run_s:.3f}" for one in passes)
              + "; host factors: "
              + " ".join(f"{one.host_factor:.3f}" for one in passes))
        return attempted, failed, problems, metrics
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced, layers = _passes(
            workload, seed, seconds, min_passes, workdir, tracer
        )
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(workdir, f"spans-{name}-{seed}.json"))
    more_attempted, more_failed, more_problems = _check(
        name, traced, seed, first=passes[0]
    )
    attempted += more_attempted
    failed += more_failed
    problems += more_problems
    if any(layer["counts"] != layers[0]["counts"] for layer in layers):
        problems.append("call counts differ between traced passes")
    return attempted, failed, problems, _per_layer(layers, untraced_run_s)


def _print_table(name, seed, metrics, attempted, failed, problems, trace):
    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'}) ==")
    width = max(len(metric) for metric in metrics)
    for metric, (value, unit, samples) in metrics.items():
        print(f"  {metric:<{width}}  {value:>14.6g} {unit:<6} n={samples}")
    if not trace:
        ratio = failed / attempted if attempted else 1.0
        print(f"  {'fail_ratio':<{width}}  {ratio:>14.6g} {'ratio':<6} "
              f"n={attempted}")
    reference = "reference" if _has_reference(name, seed) else "no reference"
    verdict = "ok" if not problems else f"{len(problems)} problem(s)"
    print(f"  checks ({reference} for seed {seed}): {verdict}")
    for problem in problems[:10]:
        print(f"    - {problem}")


def _result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit, _) in metrics.items()
        },
    })


def _run_all(args) -> int:
    """Every workload in its own child process; one combined result line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines[-1].startswith("{"):
            print(f"error: workload {name} exited {child.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}/{metric}"] = (entry["value"], entry["unit"], 1)
    print(_result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="host seconds of passes to measure (at least "
                        "three passes are made)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no Hi-WAY sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from hostspeed import HostSpeed

    with HostSpeed() as speed:
        import workloads

        workloads.preload()
        import_s = time.perf_counter() - PROCESS_START
    import_ref_s = import_s / speed.factor
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        attempted, failed, problems, metrics = run_one(
            args.workload, args.seed, args.seconds, bool(args.trace),
            import_ref_s, workdir,
        )
    finally:
        for entry in os.listdir(workdir):
            if entry.endswith(".jsonl"):
                os.remove(os.path.join(workdir, entry))
        if not os.listdir(workdir):
            shutil.rmtree(workdir)
    _print_table(args.workload, args.seed, metrics, attempted, failed,
                 problems, bool(args.trace))
    print(_result_line(not problems and failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
