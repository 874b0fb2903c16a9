"""Differential test for the persistent contention components.

The network keeps its components up to date incrementally: a started
flow joins or merges them, a removed one leaves (a search decides
whether it split its component), and only contention flips and real
splits re-flood. Each resource keeps its summed flow weight. All of it
is claimed to equal a partition built from scratch after every flush:
the same classification, weight sums, members in canonical order and
cap ladders, and under ``partitioned-v2`` every rate ``==`` a fresh
canonical refill (the reference fill of ``test_flow_fast_paths``). The
scripts below start, cancel and complete flows with and without caps
and with fractional weights, so components merge, split and flip in
both directions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, FlowNetwork
from repro.sim.flows import _EPSILON, SOLVER_NAMES, SOLVER_V2, _Component
from tests.test_flow_fast_paths import _reference_fill


def _scratch_partition(net):
    """Connected components of contended resources, from scratch: a list
    of (flows by id, resources by creation order), plus the free flows."""
    parent = {}

    def find(item):
        while parent[item] is not item:
            item = parent[item]
        return item

    contended = [
        r for r in net.resources.values()
        if any(f.cap is None for f in r.flows)
        or sum(f.cap for f in r.flows if f.cap is not None) > r.capacity + _EPSILON
    ]
    for resource in contended:
        parent[resource] = resource
    for flow in net._flows:
        crossed = [r for r in flow.resources if r in parent]
        for other in crossed[1:]:
            parent[find(other)] = find(crossed[0])
    groups = {}
    for resource in contended:
        groups.setdefault(find(resource), []).append(resource)
    free = []
    members = {root: [] for root in groups}
    for flow in net._flows:
        crossed = [r for r in flow.resources if r in parent]
        if crossed:
            members[find(crossed[0])].append(flow)
        else:
            free.append(flow)
    partition = [
        (
            sorted(members[root], key=lambda f: f.id),
            sorted(resources, key=lambda r: r._order),
        )
        for root, resources in groups.items()
    ]
    return set(contended), partition, free


def _assert_matches_scratch(net):
    """The maintained structure (and, under v2, every rate) equals one
    built from scratch."""
    net._rebuild_components()  # global-v1 keeps the structure lazily
    contended, partition, free = _scratch_partition(net)
    for resource in net.resources.values():
        assert resource._contended == net._classify(resource)
        assert resource._contended == (resource in contended)
        total = 0.0
        for flow in resource.flows:
            total += flow.weight
        assert resource._weight == total
        ids = [flow.id for flow in resource.flows]
        assert ids == sorted(ids)
        if not resource._contended:
            assert resource._component is None
    for flow in free:
        assert flow._component is None
    seen = []
    for flows, resources in partition:
        component = flows[0]._component
        assert component is not None and component in net._components
        assert list(component.flows) == flows
        assert list(component.resources) == resources
        assert all(r._component is component for r in resources)
        assert all(f._component is component for f in flows)
        live = [f for f in component.ladder if f._component is component]
        assert live == sorted((f for f in flows if f.cap is not None),
                              key=lambda f: (f._cap_level, f.id))
        assert len(component.ladder) - len(live) == component.stale
        seen.append(component)
    assert len(set(map(id, seen))) == len(seen)
    assert set(map(id, net._components)) == set(map(id, seen))
    if net.solver == SOLVER_V2:
        solved = {flow: flow._rate for flow in net._flows}
        for flows, resources in partition:
            scratch = _Component(net.env.now)
            scratch.flows = dict.fromkeys(flows)
            scratch.resources = dict.fromkeys(resources)
            _reference_fill(scratch)
        refilled = {flow: flow._rate for flow in net._flows}
        for flow, rate in solved.items():
            flow._rate = rate
        for flows, _ in partition:
            for flow in flows:
                assert solved[flow] == refilled[flow]
        for flow in free:
            assert solved[flow] == min(flow._cap_level * flow.weight, flow.cap)


capacities = st.floats(min_value=1.0, max_value=20.0)
cap_values = st.floats(min_value=0.1, max_value=8.0)
caps = st.one_of(st.none(), cap_values, cap_values)
weights = st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=4.0))
operations = st.tuples(
    st.integers(0, 6),  # 0-2: start, 3-4: cancel, 5-6: advance time
    st.integers(0, 127),  # resource bitmask / cancel index
    st.one_of(st.none(), st.floats(min_value=0.5, max_value=100.0)),
    caps,
    weights,
    st.floats(min_value=0.01, max_value=20.0),  # time step
    st.booleans(),  # flush now, or batch with the next mutation
)


@pytest.mark.parametrize("solver", SOLVER_NAMES)
@given(
    st.lists(capacities, min_size=1, max_size=7),
    st.lists(operations, min_size=1, max_size=50),
)
@settings(max_examples=250, deadline=None)
def test_incremental_components_match_a_scratch_partition(
    solver, resource_caps, script
):
    env = Environment()
    net = FlowNetwork(env, solver=solver)
    for index, capacity in enumerate(resource_caps):
        net.add_resource(f"r{index}", capacity)
    names = list(net.resources)
    flows = []
    for kind, mask, size, cap, weight, step, flush in script:
        if kind >= 5:
            env.run(until=env.now + step)
        elif kind >= 3:
            live = [flow for flow in flows if flow in net._flows]
            if live:
                live[mask % len(live)].cancel()
        else:
            chosen = [names[i] for i in range(len(names)) if mask >> i & 1]
            if not chosen:
                chosen = [names[mask % len(names)]]
            flows.append(net.start_flow(size, chosen, cap=cap, weight=weight))
        if flush or kind >= 5:
            net.flush()
            _assert_matches_scratch(net)
    env.run()
    _assert_matches_scratch(net)


def _net(**capacities):
    env = Environment()
    net = FlowNetwork(env)
    for name, capacity in capacities.items():
        net.add_resource(name, capacity)
    return net


def _count_floods(net):
    calls = []
    flood = net._flood

    def counted(seed, pending):
        calls.append(seed)
        return flood(seed, pending)

    net._flood = counted
    return calls


def test_one_flow_merges_three_components():
    net = _net(a=10.0, b=10.0, c=10.0)
    first = net.start_flow(None, ["c"])
    net.start_flow(None, ["a"])
    net.start_flow(None, ["b"], cap=2.0)
    net.start_flow(None, ["b"])  # b's component has the most flows
    net.flush()
    survivor = net.resources["b"]._component
    floods = _count_floods(net)
    bridge = net.start_flow(None, ["c", "b", "a"], cap=4.0)
    net.flush()
    assert floods == []
    assert net.component_count() == 1
    assert bridge._component is survivor and first._component is survivor
    assert list(survivor.resources) == [net.resources[n] for n in "abc"]
    assert [f.id for f in survivor.flows] == sorted(f.id for f in net._flows)
    assert [f.cap for f in survivor.ladder] == [2.0, 4.0]
    _assert_matches_scratch(net)


def test_removing_a_bridge_flow_splits_its_component():
    net = _net(a=10.0, b=10.0)
    left = net.start_flow(None, ["a"])
    right = net.start_flow(None, ["b"])
    bridge = net.start_flow(None, ["a", "b"])
    net.flush()
    assert left._component is right._component
    floods = _count_floods(net)
    bridge.cancel()
    net.flush()
    assert len(floods) == 2
    assert left._component is not right._component
    assert left.rate == right.rate == 10.0
    _assert_matches_scratch(net)


def test_removing_a_non_bridge_flow_keeps_the_component():
    net = _net(a=10.0, b=10.0)
    net.start_flow(None, ["a", "b"])
    spare = net.start_flow(None, ["a", "b"], cap=1.0)
    net.start_flow(None, ["a"], cap=2.0)
    net.start_flow(None, ["b"], cap=3.0)
    net.flush()
    (component,) = net._components
    floods = _count_floods(net)
    spare.cancel()
    net.flush()
    assert floods == []
    assert list(net._components) == [component]
    # The departed flow stays in the ladder until compaction pays off.
    assert component.stale == 1 and len(component.ladder) == 3
    _assert_matches_scratch(net)


def test_a_component_whose_last_flow_leaves_is_retired():
    net = _net(a=10.0, b=10.0)
    only = net.start_flow(None, ["a", "b"])
    net.flush()
    assert len(net._components) == 1
    only.cancel()
    net.flush()
    assert not net._components
    assert net.resources["a"]._component is None
    assert net.resources["b"]._component is None
    assert net.component_count() == 0
    _assert_matches_scratch(net)
