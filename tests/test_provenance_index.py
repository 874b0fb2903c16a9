"""The provenance stores' latest-runtime index and flat record serialisation.

Every backend answers the scheduler's query (the latest successful
runtime per (signature, node) pair) from an index kept on write. The
differential test drives each store through random append scripts —
equal timestamps, failed attempts, several signatures and nodes,
``clear()`` mid-script, JSON-lines round trips — and checks the index
against a brute-force scan of ``records()`` after every step.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.provenance import (
    TASK_EVENT,
    DocumentProvenanceStore,
    SqlProvenanceStore,
    TraceFileStore,
)
from repro.core.provenance.events import FileEvent, TaskEvent, WorkflowEvent

ALL_STORES = [TraceFileStore, SqlProvenanceStore, DocumentProvenanceStore]
SIGNATURES = ("align", "sort", "merge")
NODES = ("worker-0", "worker-1", "worker-2")


def scan_latest(records, signature, node_id):
    """The reference: a linear scan, later records winning ties."""
    latest, latest_ts = None, float("-inf")
    for record in records:
        if (
            record["kind"] == TASK_EVENT
            and record["signature"] == signature
            and record["node_id"] == node_id
            and record["success"]
            and record["timestamp"] >= latest_ts
        ):
            latest, latest_ts = record["makespan_seconds"], record["timestamp"]
    return latest


def scan_nodes(records, signature):
    return {
        record["node_id"]
        for record in records
        if record["kind"] == TASK_EVENT
        and record["signature"] == signature
        and record["success"]
    }


task_steps = st.tuples(
    st.just("task"),
    st.sampled_from(SIGNATURES),
    st.sampled_from(NODES),
    # Few distinct timestamps, so ties are common.
    st.sampled_from((0.0, 1.0, 2.5, 4.0)),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    st.booleans(),
)
steps = st.lists(
    st.one_of(
        task_steps,
        task_steps,
        task_steps,
        st.just(("workflow",)),
        st.just(("file",)),
        st.just(("clear",)),
        st.just(("roundtrip",)),
    ),
    max_size=40,
)


def make_event(step, number):
    event_id = f"event-{number:08d}"
    if step[0] == "workflow":
        return WorkflowEvent(
            workflow_id="w1", workflow_name="demo", timestamp=float(number),
            phase="start", event_id=event_id,
        )
    if step[0] == "file":
        return FileEvent(
            workflow_id="w1", task_id="t", path="/in/a", size_mb=1.0,
            transfer_seconds=0.5, direction="in", node_id="worker-0",
            timestamp=float(number), event_id=event_id,
        )
    _, signature, node, timestamp, makespan, success = step
    return TaskEvent(
        workflow_id="w1", task_id=f"t{number}", signature=signature,
        tool=signature, command=f"{signature} x", node_id=node,
        timestamp=timestamp, makespan_seconds=makespan, success=success,
        event_id=event_id,
    )


@pytest.mark.parametrize("store_cls", ALL_STORES)
@settings(max_examples=60, deadline=None)
@given(script=steps)
def test_index_matches_brute_force_scan(store_cls, script):
    store = store_cls()
    for number, step in enumerate(script, start=1):
        if step[0] == "clear":
            store.clear()
        elif step[0] == "roundtrip":
            # Only the trace backend serialises to JSON lines; a
            # round trip must rebuild its index from the parsed records.
            if isinstance(store, TraceFileStore):
                store = TraceFileStore.from_jsonl(store.to_jsonl())
        else:
            store.append(make_event(step, number))
        records = store.records()
        for signature in SIGNATURES:
            assert store.observed_nodes(signature) == scan_nodes(records, signature)
            for node in NODES:
                assert store.latest_task_runtime(signature, node) == scan_latest(
                    records, signature, node
                )


@pytest.mark.parametrize("store_cls", ALL_STORES)
def test_equal_timestamps_last_appended_wins(store_cls):
    store = store_cls()
    for number, runtime in enumerate((10.0, 20.0, 30.0), start=1):
        store.append(make_event(
            ("task", "align", "worker-0", 5.0, runtime, True), number
        ))
    # An older record appended later does not displace the latest.
    store.append(make_event(("task", "align", "worker-0", 1.0, 99.0, True), 4))
    assert store.latest_task_runtime("align", "worker-0") == 30.0


# -- flat serialisation ----------------------------------------------------------


def sample_events():
    return [
        WorkflowEvent(
            workflow_id="w1", workflow_name="demo", timestamp=3.0, phase="end",
            runtime_seconds=2.0, success=False,
        ),
        TaskEvent(
            workflow_id="w1", task_id="t1", signature="align", tool="bwa",
            command="bwa mem", node_id="worker-1", timestamp=4.5,
            makespan_seconds=12.25, inputs=["/in/a", "/in/b"],
            outputs=["/out/c"], output_sizes={"/out/c": 7.5}, attempt=2,
            stderr="warn",
        ),
        FileEvent(
            workflow_id="w1", task_id="t1", path="/in/a", size_mb=64.0,
            transfer_seconds=1.5, direction="in", node_id="worker-1",
            timestamp=2.0, local_fraction=0.5,
        ),
    ]


@pytest.mark.parametrize("event", sample_events(), ids=lambda e: type(e).__name__)
def test_to_dict_equals_asdict_in_key_order(event):
    record = event.to_dict()
    assert list(record.items()) == list(dataclasses.asdict(event).items())


@pytest.mark.parametrize("event", sample_events(), ids=lambda e: type(e).__name__)
def test_to_dict_does_not_alias_the_event(event):
    before = dataclasses.asdict(event)
    record = event.to_dict()
    for key, value in record.items():
        if isinstance(value, list):
            value.append("/mutated")
        elif isinstance(value, dict):
            value["/mutated"] = 0.0
        else:
            record[key] = "mutated"
    assert dataclasses.asdict(event) == before
