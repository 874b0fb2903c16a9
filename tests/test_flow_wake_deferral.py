"""The completion wake defers its solve to the end-of-timestep flush.

A wake settles, fires the drained flows and leaves the re-solve to the
priority-2 flush, after the processes it resumed have started their
follow-up flows. That is claimed to change nothing: the same rates bit
for bit, the same components in the same order, the same event order
(the wake reserves the event id an immediate re-aim would have drawn)
and the same usage integrals. The reference network below solves and
re-aims inside the wake, as the network used to.

Scripts use power-of-two capacities and weights and half-unit sizes and
delays, so completions and timers often land on exactly the same
instant; that is where a deferred solve, a re-ordered wake or a stale
usage would show. The one state an immediate solve exposes and the
deferred one skips is the zero-length one between a wake and its flush:
it shows only in a recorder step series (a zero-length point) and in the
rate of a flow cancelled at that instant, which keeps its last solved
rate; those two are compared without it.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.sim import Environment, FlowNetwork
from repro.sim.flows import _EPSILON, SOLVER_NAMES
from repro.sim.metrics import MetricRecorder


class _ImmediateWakeNetwork(FlowNetwork):
    """Solves and aims inside the completion wake."""

    def _on_wake(self) -> None:
        self._settle()
        done = [f for f in self._finite if f.remaining <= _EPSILON]
        for flow in done:
            self._drop(flow)
            if flow.done is not None and not flow.done.triggered:
                flow.done.succeed(flow)
        self._solve()


def _structure(net):
    """Every live component, in a canonical order: resources and flows
    in order, plus the weight sums its resources keep and the live
    entries of its cap ladder (what its fill starts from)."""
    return sorted(
        (
            tuple(r.name for r in component.resources),
            tuple(f.label for f in component.flows),
            tuple((r.name, r._weight) for r in component.resources),
            tuple(f.label for f in component.ladder
                  if f._component is component),
        )
        for component in net._components
    )


def _instrument(net, solves):
    """Log the state each solve leaves behind, keeping the last per
    instant (the immediate network solves twice at a wake instant)."""
    aim = net._aim_wake

    def logged_aim():
        aim()
        env = net.env
        state = (
            tuple((f.label, f._rate, f.remaining) for f in net._flows),
            tuple((r.name, r.cached_usage) for r in net.resources.values()),
            _structure(net),
            env._wake_time,
        )
        if solves and solves[-1][0] == env.now:
            solves[-1] = (env.now, state)
        else:
            solves.append((env.now, state))

    net._aim_wake = logged_aim


def _collapse(series):
    """Drop zero-length points, then repeats of the previous rate."""
    kept = [
        point
        for index, point in enumerate(series)
        if index + 1 == len(series) or series[index + 1][0] != point[0]
    ]
    out = []
    for point in kept:
        if not out or out[-1][1] != point[1]:
            out.append(point)
    return out


capacities = st.sampled_from([1.0, 2.0, 4.0])
halves = st.integers(0, 8).map(lambda n: n / 2)
flow_step = st.tuples(
    st.just("flow"),
    st.integers(1, 31),  # resource mask
    halves,  # size; 0 completes at once
    st.sampled_from([None, 0.5, 1.0, 2.0, 4.0]),  # cap
    st.sampled_from([1.0, 1.0, 0.5, 2.0]),  # weight
)
steps = st.one_of(
    flow_step,
    flow_step,
    st.tuples(st.just("sleep"), st.integers(0, 3).map(lambda n: n / 2)),
    st.tuples(st.just("read"), st.integers(0, 63)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(
        st.just("bg"),
        st.integers(1, 31),
        st.sampled_from([None, 0.5, 1.0]),
        st.sampled_from([0.5, 1.0]),
    ),
)
actors = st.lists(
    st.tuples(halves, st.lists(steps, min_size=1, max_size=5)),
    min_size=1,
    max_size=6,
)


def _run(cls, solver, resource_caps, script):
    env = Environment()
    net = cls(env, solver=solver)
    for index, capacity in enumerate(resource_caps):
        net.add_resource(f"r{index}", capacity)
    names = list(net.resources)
    recorder = MetricRecorder(net, keep_series=True)
    solves = []
    _instrument(net, solves)
    log = []
    flows = []

    def pick(mask):
        chosen = [n for i, n in enumerate(names) if mask >> i & 1]
        return chosen or [names[mask % len(names)]]

    def actor(number, delay, plan):
        yield env.timeout(delay)
        for index, step in enumerate(plan):
            label = f"a{number}.{index}"
            kind = step[0]
            if kind == "flow":
                _, mask, size, cap, weight = step
                flow = net.start_flow(size, pick(mask), cap=cap, label=label,
                                      weight=weight)
                flows.append(flow)
                yield flow.done
                log.append(("done", env.now, label))
            elif kind == "bg":
                _, mask, cap, weight = step
                flows.append(net.start_flow(None, pick(mask), cap=cap,
                                            label=label, weight=weight))
            elif kind == "sleep":
                yield env.timeout(step[1])
                log.append(("woke", env.now, label))
            elif kind == "read":
                if flows:
                    flow = flows[step[1] % len(flows)]
                    resource = net.resources[names[step[1] % len(names)]]
                    # A removed flow keeps the rate of the last solve
                    # before its removal; that can be the zero-length
                    # state an immediate wake solve went through.
                    rate = flow.rate if flow in net._flows else None
                    log.append(("read", env.now, label, flow.label, rate,
                                flow.remaining, resource.usage))
            else:
                live = [f for f in flows if f in net._flows]
                if live:
                    victim = live[step[1] % len(live)]
                    victim.cancel()
                    log.append(("cancel", env.now, label, victim.label))

    for number, (delay, plan) in enumerate(script):
        env.process(actor(number, delay, plan))
    env.run()
    for flow in list(net._flows):
        flow.cancel()
    env.run()
    recorder.finish()
    usage = {
        name: (u.integral, _collapse(u.series))
        for name, u in recorder.usages.items()
    }
    return log, solves, usage


@pytest.mark.parametrize("solver", SOLVER_NAMES)
@given(st.lists(capacities, min_size=1, max_size=5), actors)
@settings(max_examples=300, deadline=None)
def test_deferred_wake_matches_an_immediate_solve(solver, resource_caps, script):
    deferred = _run(FlowNetwork, solver, resource_caps, script)
    immediate = _run(_ImmediateWakeNetwork, solver, resource_caps, script)
    log, solves, usage = deferred
    assert log == immediate[0]
    assert solves == immediate[1]
    assert usage == immediate[2]


def test_flow_started_at_a_wake_merges_components_in_the_same_order():
    """The wake drops a flow of component {a, b, c}; the process it
    resumes starts a flow over x then a, merging {x} into it. An
    immediate solve re-solves {a, b, c} at the wake and merges at the
    flush; the deferred solve does both at the flush. Either way the
    merged component lists its resources in creation order, so the
    fills, and every per-instant state, are the same."""
    x, a, b, c = 1, 2, 4, 8
    script = [
        (0.0, [("flow", c, 1.0, None, 1.0), ("flow", x | a, 4.0, None, 1.0)]),
        (0.0, [("flow", a | b, 4.0, None, 1.0)]),
        (0.0, [("flow", b | c, 4.0, None, 1.0)]),
        (0.0, [("flow", x, 4.0, None, 1.0)]),
    ]
    caps = [1.0, 1.0, 1.0, 1.0]
    deferred = _run(FlowNetwork, "partitioned-v2", caps, script)
    immediate = _run(_ImmediateWakeNetwork, "partitioned-v2", caps, script)
    assert deferred == immediate
    merged = [s for t, s in deferred[1] if t == 2.0][0][2]
    assert merged[0][0] == ("r0", "r1", "r2", "r3")


def _two_flow_net(cls):
    env = Environment()
    net = cls(env)
    net.add_resource("link", 2.0)
    return env, net


@pytest.mark.parametrize("cls", [FlowNetwork, _ImmediateWakeNetwork])
def test_wake_fires_before_a_timer_armed_after_it(cls):
    """A process resumed by a completion arms a timer for exactly the
    next completion instant and starts nothing. The wake reserved its
    event id before the timer was created, so at that instant it fires
    first, as an immediately re-aimed wake does."""
    env, net = _two_flow_net(cls)
    short = net.start_flow(1.0, ["link"], label="short")
    long = net.start_flow(3.0, ["link"], label="long")
    seen = []

    def waiter():
        yield short.done
        # long has 2.0 left at the full 2.0/s: it completes at t=2.
        yield env.timeout(1.0)
        seen.append((env.now, long.done.triggered))

    env.process(waiter())
    env.run()
    assert seen == [(2.0, True)]


def test_wake_solve_waits_for_the_flush():
    env, net = _two_flow_net(FlowNetwork)
    first = net.start_flow(1.0, ["link"], label="first")
    second = net.start_flow(3.0, ["link"], label="second")
    seen = []

    def follow():
        yield first.done
        seen.append(net._dirty)
        # Reading a rate still forces the flush.
        seen.append(second.rate)
        seen.append(net._dirty)

    env.process(follow())
    env.run()
    assert seen == [True, 2.0, False]
