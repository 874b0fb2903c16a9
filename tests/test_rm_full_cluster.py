"""The RM skips serve passes once no node has room for one vcore.

``ResourceManager._serve_pending`` returns at entry, and stops after a
grant, when no live NodeManager could host a one-vcore container. Every
request needs at least one vcore, so the skipped work could only have
advanced cursors that ``end_scan`` restores. The reference RM below
never takes that exit; under random request, release, crash and
unregister scripts both must grant the same containers in the same
order, leave the same queue order after every operation and keep the
same round-robin cursor.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.obs.events import ContainerAllocated, ContainerRequested
from repro.sim import Environment
from repro.yarn import ContainerResource, ResourceManager
from repro.yarn.allocation import POLICY_NAMES, TenantSpec
from repro.yarn.nodemanager import NodeManager

TENANTS = {
    "t0": TenantSpec(weight=1.0, max_containers=2),
    "t1": TenantSpec(weight=2.0, max_vcores=3),
    "t2": TenantSpec(weight=1.0),
}


class _AlwaysScanRM(ResourceManager):
    """Never treats the cluster as full."""

    def _cluster_full(self) -> bool:
        return False


operations = st.one_of(
    st.tuples(st.just("register"), st.integers(0, 2)),
    st.tuples(
        st.just("request"),
        st.integers(0, 7),  # app
        st.integers(1, 3),  # vcores
        st.sampled_from([512.0, 1024.0, 4096.0]),
        st.one_of(st.none(), st.integers(0, 3)),  # preferred node
        st.booleans(),  # strict
    ),
    st.tuples(st.just("request"), st.integers(0, 7), st.just(1),
              st.just(1024.0), st.none(), st.just(False)),
    st.tuples(st.just("release"), st.integers(0, 63)),
    st.tuples(st.just("release"), st.integers(0, 63)),
    st.tuples(st.just("crash"), st.integers(0, 3)),
    st.tuples(st.just("unregister"), st.integers(0, 7)),
)


def _run(cls, policy, workers, max_per_node, script):
    saved = NodeManager._ids
    NodeManager._ids = itertools.count()
    try:
        env = Environment()
        cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE,
                                           worker_count=workers))
        rm = cls(env, cluster, max_containers_per_node=max_per_node,
                 policy=policy, tenants=TENANTS)
        numbers = {}
        grants = []
        cluster.bus.subscribe(
            ContainerRequested,
            lambda e: numbers.setdefault(e.request_id, len(numbers)),
        )
        cluster.bus.subscribe(
            ContainerAllocated,
            lambda e: grants.append(
                (e.app_id, e.node_id, numbers[e.request_id], e.container_id)
            ),
        )
        apps, held, trace = [], [], []
        nodes = list(rm.node_managers)
        for op in script:
            kind = op[0]
            if kind == "register":
                apps.append(rm.register_application(f"app{len(apps)}",
                                                    tenant=f"t{op[1]}"))
            elif kind == "request" and apps:
                _, app, vcores, memory, node, strict = op
                handle = apps[app % len(apps)]
                if handle.app_id not in rm._apps:
                    continue
                preferred = None if node is None else nodes[node % len(nodes)]
                event = rm.request_container(
                    handle,
                    ContainerResource(vcores=vcores, memory_mb=memory),
                    preferred_node=preferred,
                    strict=strict and preferred is not None,
                )
                held.append(event)
            elif kind == "release":
                granted = [e for e in held if e.triggered]
                if granted:
                    event = granted[op[1] % len(granted)]
                    held.remove(event)
                    rm.release_container(event.value)
            elif kind == "crash":
                node = nodes[op[1] % len(nodes)]
                if rm.node_managers[node].node.alive:
                    rm.crash_node(node)
            elif kind == "unregister" and apps:
                rm.unregister_application(apps[op[1] % len(apps)])
            queues = {
                tenant: [numbers[r.request_id] for r, _ in queue._items
                         if not r.cancelled]
                for tenant, queue in sorted(rm._pool._queues.items())
            }
            trace.append((len(grants), queues, rm._rotation))
        return grants, trace
    finally:
        NodeManager._ids = saved


@pytest.mark.parametrize("policy", POLICY_NAMES)
@given(
    st.integers(1, 4),
    st.sampled_from([None, 1, 2]),
    st.lists(operations, min_size=1, max_size=60),
)
@settings(max_examples=120, deadline=None)
def test_full_cluster_exit_changes_no_grant(policy, workers, max_per_node,
                                            script):
    script = [("register", 0), ("register", 1), ("register", 2)] + script
    assert _run(ResourceManager, policy, workers, max_per_node, script) == \
        _run(_AlwaysScanRM, policy, workers, max_per_node, script)


def test_full_cluster_skips_the_pass():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=1))
    rm = ResourceManager(env, cluster, max_containers_per_node=1)
    app = rm.register_application("app")
    small = ContainerResource(vcores=1, memory_mb=512.0)
    first = rm.request_container(app, small)
    assert first.triggered and rm._cluster_full()
    passes = []

    def no_queues():
        passes.append(1)
        return []

    rm._pool.active_queues = no_queues
    second = rm.request_container(app, small)
    assert not second.triggered and passes == []
    rm.release_container(first.value)
    assert passes == [1]
