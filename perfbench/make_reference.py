"""Regenerate perfbench/reference.json: the outputs every check compares to.

Usage (from the repository root)::

    python3 perfbench/make_reference.py --seeds 0-63

Runs each workload once per seed, untraced, and records its simulated
outputs (makespans, task and submission counts, service duration and
latency sum). It also records how many tasks one submission of each
service workload kind runs, which lets the service check derive the
exact task count of any seed from its arrival schedule. Tolerances
already in the file are kept; seeds already recorded are overwritten.
Only regenerate when a change to the program is meant to change these
outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, SetupClock  # noqa: E402

PATH = os.path.join(HERE, "reference.json")


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def service_tasks_per_kind() -> dict[str, int]:
    """Successful tasks of one submission of each workload kind."""
    from repro.service import (
        WORKLOAD_KINDS, ServiceConfig, ServiceRunner, TenantProfile, make_arrivals,
    )

    counts = {}
    for kind in WORKLOAD_KINDS:
        runner = ServiceRunner(ServiceConfig())
        report = runner.run(
            make_arrivals("poisson", 30.0 / 3600.0, seed=0),
            tenants=(TenantProfile("probe", mix={kind: 1.0}),),
            horizon_s=3600.0,
            max_submissions=1,
        )
        if report.submitted != 1 or report.failed:
            raise SystemExit(f"probe submission of {kind!r} did not succeed")
        counts[kind] = int(runner.registry.value(
            "hiway_task_attempts_total", outcome="success"
        ))
    return counts


def outputs_for(name: str, seed: int, workdir: str) -> dict:
    workload = WORKLOADS[name]
    one = workload.run(workload.setup(seed, workdir), SetupClock())
    failed = [op for op, ok, _ in one.ops if not ok]
    if failed:
        raise SystemExit(f"{name} seed {seed}: failed operations {failed}")
    outputs = dict(one.outputs)
    outputs.pop("kinds", None)
    return outputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-63",
                        help="seed list, e.g. '0-63' or '0,5,7-9'")
    args = parser.parse_args()
    with open(PATH, encoding="utf-8") as handle:
        reference = json.load(handle)
    reference["service_tasks_per_kind"] = service_tasks_per_kind()
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for seed in _seeds(args.seeds):
            reference["seeds"][str(seed)] = {
                name: outputs_for(name, seed, workdir) for name in WORKLOADS
            }
            print(f"seed {seed}: {reference['seeds'][str(seed)]['snv-scale']}",
                  flush=True)
    with open(PATH, "w", encoding="utf-8") as handle:
        handle.write(dumps(reference))
    return 0


def dumps(reference: dict) -> str:
    """The reference as JSON with one line per seed."""
    head = {key: value for key, value in reference.items() if key != "seeds"}
    seeds = sorted(reference["seeds"].items(), key=lambda item: int(item[0]))
    lines = [f" {json.dumps(key)}: {json.dumps(value)}," for key, value in head.items()]
    body = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(entry)}" for seed, entry in seeds)
    return "{\n" + "\n".join(lines) + '\n "seeds": {\n' + body + "\n }\n}\n"


if __name__ == "__main__":
    sys.exit(main())
