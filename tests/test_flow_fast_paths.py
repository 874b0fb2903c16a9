"""Bit-exact differential test for the partitioned solver's fast paths.

``partitioned-v2`` skips the component machinery for *free* flows (flows
crossing no contended resource: their rate is set straight from the cap
level) and drops saturated resources from the fill's candidate scan.
Both are claimed to be exact: same float operations, same order. The
reference network below solves every free flow as a singleton component
and fills every component with a verbatim copy of the fill as it was
before those fast paths, so rates, remainders, usages and even the order
of the resources handed to the metrics recorder must match with ``==``.
The fill now starts from the weight sum each resource keeps and the cap
ladder its component keeps; both must equal what the fill's own initial
pass used to compute.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Environment, Flow, FlowNetwork
from repro.sim.flows import _EPSILON, _Component


def _reference_fill(component: _Component) -> None:
    """The per-component progressive fill before the fast paths."""
    weight_sum = {}
    room = {}
    for resource in component.resources:
        weight_sum[resource] = 0.0
        room[resource] = resource.capacity
    for flow in component.flows:
        flow._rate = 0.0
        weight = flow.weight
        for resource in flow.resources:
            if resource in weight_sum:
                weight_sum[resource] += weight
    unfrozen = dict(component.flows)
    capped = sorted(
        (f for f in unfrozen if f.cap is not None),
        key=lambda f: f._cap_level,
    )
    cap_index = 0
    level = 0.0
    while unfrozen:
        while cap_index < len(capped) and capped[cap_index] not in unfrozen:
            cap_index += 1
        delta = math.inf
        bottlenecks = []
        for resource, active_weight in weight_sum.items():
            if active_weight <= _EPSILON:
                continue
            candidate = max(
                (room[resource] - level * active_weight) / active_weight, 0.0
            )
            if candidate < delta - _EPSILON:
                delta = candidate
                bottlenecks = [resource]
            elif candidate <= delta + _EPSILON:
                bottlenecks.append(resource)
        cap_bound = math.inf
        if cap_index < len(capped):
            cap_bound = capped[cap_index]._cap_level - level
        newly_frozen = []
        if cap_bound < delta - _EPSILON:
            level += max(cap_bound, 0.0)
        else:
            if not bottlenecks:
                raise SimulationError("unconstrained flows in rebalance")
            level += delta
            for resource in bottlenecks:
                newly_frozen.extend(f for f in resource.flows if f in unfrozen)
        while (
            cap_index < len(capped)
            and capped[cap_index]._cap_level <= level + _EPSILON
        ):
            flow = capped[cap_index]
            cap_index += 1
            if flow in unfrozen:
                newly_frozen.append(flow)
        if not newly_frozen:
            newly_frozen = list(unfrozen)
        for flow in newly_frozen:
            if flow not in unfrozen:
                continue
            rate = level * flow.weight
            if flow.cap is not None:
                rate = min(rate, flow.cap)
            flow._rate = rate
            unfrozen.pop(flow, None)
            for resource in flow.resources:
                if resource in room:
                    room[resource] -= rate
                    weight_sum[resource] -= flow.weight


def _reference_init(component: _Component):
    """The fill's starting weight sums and cap ladder, computed the way
    the fill computed them before the network kept them."""
    weight_sum = {resource: 0.0 for resource in component.resources}
    capped = []
    for flow in component.flows:
        for resource in flow.resources:
            if resource in weight_sum:
                weight_sum[resource] += flow.weight
        if flow.cap is not None:
            capped.append(flow)
    for resource in list(weight_sum):
        if weight_sum[resource] <= _EPSILON:
            del weight_sum[resource]
    capped.sort(key=lambda f: f._cap_level)
    return weight_sum, capped


def _assert_kept_presums(net):
    """Every live component hands its fill exactly the fill's own
    starting state: the kept weight sums of its resources (in scan
    order, leaving out those at or below ``_EPSILON``) and the live
    entries of its ladder. Every resource lists its flows in increasing
    id, and keeps their id-order weight sum even when uncontended."""
    for resource in net.resources.values():
        ids = [flow.id for flow in resource.flows]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        total = 0.0
        for flow in resource.flows:
            total += flow.weight
        assert resource._weight == total
    for component in net._components:
        weight_sum, capped = _reference_init(component)
        kept = [
            (resource, resource._weight)
            for resource in component.resources
            if resource._weight > _EPSILON
        ]
        assert kept == list(weight_sum.items())
        live = [f for f in component.ladder if f._component is component]
        assert live == capped


class _ReferenceNetwork(FlowNetwork):
    """Fills a free flow as a singleton component, every component with
    :func:`_reference_fill`; everything else is the shipped network."""

    def _rebalance_partitioned(self) -> None:
        retagged = tuple(self._retag)
        fresh = self._rebuild_components()
        if fresh or retagged:
            touched = dict.fromkeys(retagged)
            for item in fresh:
                if isinstance(item, Flow):
                    component = _Component(self.env.now)
                    component.flows[item] = None
                else:
                    component = item
                _reference_fill(component)
                for flow in component.flows:
                    for resource in flow.resources:
                        touched[resource] = None
            for resource in touched:
                usage = 0.0
                for flow in resource.flows:
                    usage += flow._rate
                resource.cached_usage = usage
            if self._recorder is not None:
                self._recorder.observe(self.env.now, touched)
        self._aim_wake()


class _ObserveLog:
    """Recorder stand-in: logs the resources of every rebalance, in order."""

    def __init__(self):
        self.calls = []

    def observe(self, now, resources):
        self.calls.append((now, tuple(resource.name for resource in resources)))


def _expected_component_count(net) -> int:
    """Connected components of flows linked by contended resources, each
    free flow a singleton, computed from scratch."""
    parent = {flow: flow for flow in net._flows}

    def find(flow):
        while parent[flow] is not flow:
            flow = parent[flow]
        return flow

    for resource in net.resources.values():
        total = 0.0
        contended = False
        for flow in resource.flows:
            if flow.cap is None:
                contended = True
                break
            total += flow.cap
        if not (contended or total > resource.capacity + _EPSILON):
            continue
        members = list(resource.flows)
        for other in members[1:]:
            parent[find(other)] = find(members[0])
    return sum(1 for flow in parent if find(flow) is flow)


capacities = st.floats(min_value=1.0, max_value=20.0)
# Mostly capped: capped flows on roomy resources are the free ones.
cap_values = st.floats(min_value=0.1, max_value=8.0)
caps = st.one_of(st.none(), cap_values, cap_values, cap_values)
weights = st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=4.0))
operations = st.tuples(
    st.integers(0, 5),  # 0-2: start, 3: cancel, 4-5: advance time
    st.integers(0, 63),  # resource bitmask / cancel index
    st.one_of(st.none(), st.floats(min_value=0.5, max_value=200.0)),
    caps,
    weights,
    st.floats(min_value=0.01, max_value=30.0),  # time step
    st.booleans(),  # rebalance now, or batch with the next mutation
)


def _build(cls, resource_caps):
    env = Environment()
    net = cls(env)
    for index, capacity in enumerate(resource_caps):
        net.add_resource(f"r{index}", capacity)
    log = _ObserveLog()
    net.set_recorder(log)
    return env, net, log


def _assert_identical(fast, slow, fast_flows, slow_flows):
    for mine, theirs in zip(fast_flows, slow_flows):
        assert mine._rate == theirs._rate
        assert mine.remaining == theirs.remaining
        assert (mine in fast._flows) == (theirs in slow._flows)
        if mine.done is not None:
            assert mine.done.triggered == theirs.done.triggered
    for name, resource in fast.resources.items():
        assert resource.cached_usage == slow.resources[name].cached_usage
        assert resource._contended == slow.resources[name]._contended


@given(
    st.lists(capacities, min_size=1, max_size=6),
    st.lists(operations, min_size=1, max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_fast_paths_match_the_reference_fill_bit_for_bit(resource_caps, script):
    fast_env, fast, fast_log = _build(FlowNetwork, resource_caps)
    slow_env, slow, slow_log = _build(_ReferenceNetwork, resource_caps)
    names = list(fast.resources)
    fast_flows, slow_flows = [], []
    for kind, mask, size, cap, weight, step, rebalance in script:
        if kind >= 4:
            # The deferred rebalance of the mutations so far runs first.
            fast_env.run(until=fast_env.now + step)
            slow_env.run(until=slow_env.now + step)
        elif kind == 3:
            live = [i for i, flow in enumerate(fast_flows) if flow in fast._flows]
            if live:
                index = live[mask % len(live)]
                fast_flows[index].cancel()
                slow_flows[index].cancel()
        else:
            chosen = [names[i] for i in range(len(names)) if mask >> i & 1]
            if not chosen:
                chosen = [names[mask % len(names)]]
            for net, flows in ((fast, fast_flows), (slow, slow_flows)):
                flows.append(
                    net.start_flow(size, chosen, cap=cap, weight=weight)
                )
        if not (rebalance or kind >= 4):
            continue
        fast.flush()
        slow.flush()
        assert fast_env.now == slow_env.now
        _assert_identical(fast, slow, fast_flows, slow_flows)
        _assert_kept_presums(fast)
        assert fast_log.calls == slow_log.calls
        expected = _expected_component_count(fast)
        assert fast.component_count() == expected
        assert len(fast.components()) == expected
        assert slow.component_count() == expected
    fast_env.run()
    slow_env.run()
    assert fast_env.now == slow_env.now
    _assert_identical(fast, slow, fast_flows, slow_flows)
    assert fast_log.calls == slow_log.calls


def test_free_flow_carries_no_component_until_its_resource_contends():
    env = Environment()
    net = FlowNetwork(env)
    net.add_resource("a", 10.0)
    free = net.start_flow(None, ["a"], cap=2.0, weight=0.3)
    assert free.rate == 2.0
    assert free._component is None
    assert net.component_count() == 1
    (singleton,) = net.components()
    assert list(singleton.flows) == [free] and not singleton.resources
    # The cap sum crosses capacity: "a" contends and both flows share a
    # component through it.
    heavy = net.start_flow(None, ["a"], cap=9.0)
    assert net.component_count() == 1
    assert free._component is not None and free._component is heavy._component
    assert free.rate + heavy.rate == pytest.approx(10.0)
    heavy.cancel()
    assert free.rate == 2.0
    assert free._component is None
    assert net.component_count() == 1


def _logged_net(**capacities):
    env = Environment()
    net = FlowNetwork(env)
    for name, capacity in capacities.items():
        net.add_resource(name, capacity)
    log = _ObserveLog()
    net.set_recorder(log)
    return net, log


def _reference_rates(net):
    """Every live flow's rate from a fresh reference fill of its
    component (or of its singleton, when free)."""
    rates = {}
    saved = {flow: flow._rate for flow in net._flows}
    for flow in net._flows:
        if flow in rates:
            continue
        component = flow._component
        if component is None:
            component = _Component(net.env.now)
            component.flows[flow] = None
        _reference_fill(component)
        for member in component.flows:
            rates[member] = member._rate
    for flow, rate in saved.items():
        flow._rate = rate
    return rates


def test_contention_flip_pulls_free_flows_into_canonical_components():
    """Two free flows are dragged into components by flips at one
    instant, retagged out of creation order. Each lands in its flipped
    resource's component, the recorder sees every resource the solve
    touched once, and every rate equals a fresh reference fill."""
    net, log = _logged_net(a=10.0, a2=10.0, c=100.0, e=100.0)
    first = net.start_flow(None, ["c", "a"], cap=3.0)
    second = net.start_flow(None, ["e", "a2"], cap=3.0)
    small = net.start_flow(None, ["a2"], cap=1.0)
    net.flush()
    small.cancel()  # retags a2 before a
    net.start_flow(None, ["a"], cap=8.0)
    net.start_flow(None, ["a2"], cap=8.0)
    net.flush()
    touched = log.calls[-1][1]
    assert sorted(touched) == ["a", "a2", "c", "e"]
    assert len(touched) == len(set(touched))
    assert [r.name for r in first._component.resources] == ["a"]
    assert [r.name for r in second._component.resources] == ["a2"]
    assert net.component_count() == 2
    rates = _reference_rates(net)
    assert all(flow._rate == rates[flow] for flow in net._flows)


def test_flow_turned_free_is_solved_on_the_free_path():
    """A flow whose only contended resource flips back leaves its
    component and is re-solved on the free path, at its cap, in the
    same solve as an unrelated new component."""
    net, log = _logged_net(a=10.0, x=100.0, b=10.0, y=10.0)
    hog = net.start_flow(None, ["a"])
    turned_free = net.start_flow(None, ["a", "x"], cap=1.0)
    net.start_flow(None, ["b", "y"])
    net.flush()
    hog.cancel()
    joined = net.start_flow(None, ["b"])
    net.flush()
    assert turned_free._component is None and turned_free._rate == 1.0
    touched = log.calls[-1][1]
    assert sorted(touched) == ["a", "b", "x", "y"]
    assert len(touched) == len(set(touched))
    assert [r.name for r in joined._component.resources] == ["b", "y"]
    assert net.component_count() == 2
    rates = _reference_rates(net)
    assert all(flow._rate == rates[flow] for flow in net._flows)


def test_a_flow_crosses_each_resource_once():
    """The flood's weight sums count each flow once per resource."""
    net, _ = _logged_net(a=10.0, b=10.0)
    with pytest.raises(SimulationError):
        net.start_flow(1.0, ["a", "b", "a"])
    assert not net.active_flows
