"""Flow-level model of shared, capacitated resources.

Every ongoing activity in the simulated cluster — a compute phase burning
CPU cores, a local disk read, an HDFS transfer crossing two host links and
the switch backbone — is modelled as a *flow*: a fixed amount of work that
drains through a set of capacitated resources at a rate determined by
max-min fair sharing. This is the classic fluid approximation used by
flow-level network simulators, generalised so that CPU and disk bandwidth
are handled by the same solver:

* a **resource** has a capacity (cores, MB/s, ...);
* a **flow** traverses one or more resources and may carry a per-flow rate
  cap (e.g. a compute phase can use at most ``threads`` cores);
* rates are assigned by progressive filling: raise all unfrozen flows
  uniformly until some resource saturates (or a flow hits its cap), freeze
  the affected flows, repeat.

Whenever a flow starts or finishes, elapsed progress is settled and rates
are recomputed. *How* they are recomputed is governed by a versioned
two-solver contract:

``global-v1`` — the historical solver, **frozen forever**. One global
progressive fill over every live flow: its accumulating level and shared
capped-flow ladder interleave float operations across independent
contention regions, so the exact bit pattern of every rate — and through
it every completion time — is pinned to this one operation sequence.
Selecting ``global-v1`` reproduces any result table recorded under it
byte for byte; for that reason its fill loop must never be partitioned,
reordered or algebraically "simplified".

``partitioned-v2`` — the default. Contention components (see below) are
brought up to date eagerly at each rebalance and only the components
whose membership or contention changed are re-solved, each by an independent
progressive fill over just its own flows and contended resources.
Untouched components keep their rates: their constraint set did not
change, so re-solving them is pure waste — this is where the order-of-
magnitude win on churn-heavy clusters comes from. The two solvers are
mathematically equal; they differ only in float rounding at the ULP,
because v2's per-component fills do not share v1's global accumulator.
Results produced under v2 are therefore governed by a *declared epsilon*
rather than byte identity: every emitted table and bench document carries
a ``solver_version`` stamp, and cross-solver agreement is asserted within
``PARITY_EPSILON`` at the flow-rate level (``scripts/diff_tables.py``
reports drift at the table level; see DESIGN.md and EXPERIMENTS.md).

Contention *structure* is tracked incrementally under both solvers:
resources whose flows could collectively exceed capacity are *contended*,
and contended resources partition into connected components (a flow links
every contended resource it crosses). Components persist: a started flow
joins (or merges) the components it touches, a removed flow leaves its
own, and only a real split or a contention flip re-floods a region. Each
resource keeps the summed weight of its flows, and each component keeps
its flows in id order, its resources in creation order and its capped
flows in cap-level order — a function of the current flows and
contention alone, not of the order of past mutations. Under v1 they feed
diagnostics, tests and scheduling heuristics; under v2 they are
load-bearing — the unit of the partitioned solve, and its fill scans a
component's resources in that canonical order. A component's effective
settle clock coincides with the global clock at each of its refill
instants (every mutation settles all finite flows before rates change),
which is exact for piecewise-constant rates; ``built_at`` stamps the
instant the component last changed.

A *free* flow — one crossing no contended resource — belongs to no
component. It always has a cap (an uncapped flow makes every resource it
crosses contended), so v2 sets its rate straight from the cap level, with
exactly the float operations its singleton fill would perform. Inside a
fill, a resource whose active weight has dropped to ``_EPSILON`` leaves
the candidate scan; weights only fall during a fill, so this skips work
without changing a single operation. Both shortcuts keep v2's results
bit-identical.

The earliest upcoming completion is tracked by the environment's external
wake slot: re-aimed in place after every rebalance, it consumes a fresh
event id (ordering against same-instant kernel events exactly like a
freshly armed timeout) while leaving *zero* records in the kernel queue —
heavy churn no longer piles up stale timers. A completion wake does not
solve: the flows its completions cause to start at the same instant are
solved together with the rest in the end-of-timestep flush, which
reaches the same components and rates (they depend on the current flows
only) and arms the wake with the event id the wake reserved, so each
instant is solved once (see
:meth:`FlowNetwork._on_wake`). The model is deterministic and exact for
piecewise-constant rate sets under either solver.
"""

from __future__ import annotations

import itertools
import math
from bisect import insort
from typing import Iterable, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.engine import Environment

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.metrics import MetricRecorder

__all__ = [
    "Resource",
    "Flow",
    "FlowNetwork",
    "SOLVER_V1",
    "SOLVER_V2",
    "SOLVER_NAMES",
    "DEFAULT_SOLVER",
    "PARITY_EPSILON",
]

#: Tolerance used when deciding a flow has fully drained.
_EPSILON = 1e-9

#: The frozen byte-reproduction solver: one global progressive fill.
SOLVER_V1 = "global-v1"
#: The partitioned per-component solver (epsilon-governed, the default).
SOLVER_V2 = "partitioned-v2"
SOLVER_NAMES = (SOLVER_V1, SOLVER_V2)
DEFAULT_SOLVER = SOLVER_V2

#: Declared relative tolerance within which ``partitioned-v2`` flow
#: rates must agree with ``global-v1`` after any mutation sequence.
#: Note this bounds *rate* drift, not downstream table drift: a one-ULP
#: completion shift can flip a scheduler tie-break, so table-level drift
#: is measured (not assumed) by ``scripts/diff_tables.py``.
PARITY_EPSILON = 1e-9


def _flow_id(flow: "Flow") -> int:
    return flow.id


def _cap_level(flow: "Flow") -> float:
    return flow._cap_level


def _resource_order(resource: "Resource") -> int:
    return resource._order


def _size(component: "_Component") -> int:
    return len(component.flows)


def _assign(
    component: "_Component", flows: list["Flow"], resources: list["Resource"]
) -> None:
    """Give ``component`` these members in canonical order: flows by id,
    resources by creation, the cap ladder by ``(_cap_level, id)``."""
    flows.sort(key=_flow_id)
    resources.sort(key=_resource_order)
    component.flows = dict.fromkeys(flows)
    component.resources = dict.fromkeys(resources)
    ladder = [flow for flow in flows if flow.cap is not None]
    ladder.sort(key=_cap_level)  # stable: ties stay in id order
    component.ladder = ladder
    component.stale = 0


def _connected(component: "_Component", cut: set["Resource"]) -> bool:
    """Whether the resources in ``cut`` still in ``component`` are all
    linked to each other through its remaining flows."""
    left = {resource for resource in cut if resource._component is component}
    if len(left) < 2:
        return True
    start = left.pop()
    seen = {start}
    stack = [start]
    while stack:
        for flow in stack.pop().flows:
            for resource in flow.resources:
                if resource._contended and resource not in seen:
                    if resource in left:
                        left.remove(resource)
                        if not left:
                            return True
                    seen.add(resource)
                    stack.append(resource)
    return False


class Resource:
    """A capacitated resource flows drain through (a link, disk, or CPU)."""

    __slots__ = (
        "name",
        "capacity",
        "flows",
        "kind",
        "cached_usage",
        "_network",
        "_contended",
        "_component",
        "_order",
        "_weight",
    )

    _orders = itertools.count()

    def __init__(self, name: str, capacity: float, kind: str = "generic"):
        if capacity <= 0:
            raise SimulationError(f"resource {name!r} needs positive capacity")
        #: Creation order: the canonical order of a component's resources.
        self._order = next(Resource._orders)
        self.name = name
        self.capacity = float(capacity)
        self.kind = kind
        # Insertion-ordered (dict-as-set) for deterministic iteration.
        self.flows: dict[Flow, None] = {}
        #: Aggregate rate, refreshed by the network on every rebalance.
        self.cached_usage = 0.0
        self._network: Optional["FlowNetwork"] = None
        #: Whether the flows crossing this resource could collectively
        #: exceed its capacity (i.e. it can act as a bottleneck).
        self._contended = False
        #: The contention component this resource belongs to, when contended.
        self._component: Optional["_Component"] = None
        #: Summed weight of ``flows``, added in flow id order (re-summed
        #: after a removal; see :meth:`FlowNetwork._rebuild_components`).
        self._weight = 0.0

    @property
    def usage(self) -> float:
        """Aggregate rate of all flows currently crossing this resource."""
        if self._network is not None:
            self._network.flush()
        return self.cached_usage

    @property
    def utilization(self) -> float:
        """Fraction of capacity currently in use (0..1)."""
        return self.usage / self.capacity

    def __repr__(self) -> str:
        return f"Resource({self.name!r}, cap={self.capacity:g}, kind={self.kind!r})"


class Flow:
    """A unit of work draining through a set of resources.

    ``size`` is in the same unit the resource capacities are expressed per
    second (bytes over a network link, core-seconds over a CPU). A flow
    with ``size=None`` never completes; these model permanent background
    load such as the paper's ``stress`` processes.
    """

    __slots__ = (
        "id",
        "resources",
        "remaining",
        "cap",
        "weight",
        "_cap_level",
        "_rate",
        "done",
        "label",
        "_network",
        "_component",
    )

    _ids = itertools.count()

    def __init__(
        self,
        network: "FlowNetwork",
        resources: tuple[Resource, ...],
        size: Optional[float],
        cap: Optional[float],
        done: Optional["object"],
        label: str,
        weight: float = 1.0,
    ):
        self.id = next(Flow._ids)
        self.resources = resources
        self.remaining = None if size is None else float(size)
        self.cap = cap
        self.weight = weight
        #: Fill level at which the cap binds; precomputed for the solver.
        self._cap_level = math.inf if cap is None else cap / weight
        self._rate = 0.0
        self.done = done
        self.label = label
        self._network = network
        #: The contention component this flow belongs to (None until the
        #: first flush, or when every crossed resource is uncontended).
        self._component: Optional["_Component"] = None

    @property
    def rate(self) -> float:
        """Current max-min fair rate (forces any pending rebalance)."""
        self._network.flush()
        return self._rate

    @property
    def permanent(self) -> bool:
        """Whether this flow never drains (background load)."""
        return self.remaining is None

    def cancel(self) -> None:
        """Remove the flow without firing its completion event."""
        self._network._remove(self, fire=False)

    def __repr__(self) -> str:
        # Formats from the raw ``_rate`` on purpose: reading the ``rate``
        # property forces a rebalance, and a __repr__ (e.g. printed from a
        # debugger) must never mutate solver state.
        return f"Flow({self.label!r}, rate={self._rate:g}, remaining={self.remaining})"


class _Component:
    """A connected component of contended resources and their flows.

    Components answer "which flows transitively share a bottleneck?".
    Under ``global-v1`` they are diagnostics only; under
    ``partitioned-v2`` they are the unit of the solve — each changed
    component is re-filled independently while untouched components keep
    their rates. They persist across solves and are kept up to date
    incrementally (see :meth:`FlowNetwork._rebuild_components`): a
    started flow joins or merges them, a removed one leaves, and only a
    real split or a contention flip re-floods. ``built_at`` stamps the
    instant the component last changed; unrelated churn elsewhere
    in the network never touches it (the isolation a regression test
    asserts directly), which under v2 also makes it the component's
    effective settle clock: rates within the component have been
    constant since then.

    Everything a fill reads is a function of the current flow set and
    contention alone, never of the order of past mutations: ``flows`` is
    in flow id order, ``resources`` in resource creation order, and the
    live entries of ``ladder`` in ``(_cap_level, id)`` order.
    """

    __slots__ = ("flows", "resources", "built_at", "ladder", "stale", "cut")

    def __init__(self, now: float):
        self.flows: dict[Flow, None] = {}
        #: The contended resources linking these flows.
        self.resources: dict[Resource, None] = {}
        self.built_at = now
        #: The capped flows, sorted by ``(_cap_level, id)``. Flows that
        #: left stay behind (the fill skips them) until ``stale`` of
        #: them make compaction worthwhile, or the ladder is rebuilt.
        self.ladder: list[Flow] = []
        self.stale = 0
        #: Contended resources that a removed flow linked, which must
        #: still be connected at the next rebuild (else it splits).
        self.cut: set[Resource] = set()


class FlowNetwork:
    """Max-min fair allocator over a set of shared resources.

    ``solver`` selects the rate solver: ``"global-v1"`` (frozen,
    byte-reproducible) or ``"partitioned-v2"`` (per-component,
    epsilon-governed — the default). See the module docstring for the
    two-version contract.
    """

    def __init__(self, env: Environment, solver: Optional[str] = None):
        self.env = env
        self.solver = DEFAULT_SOLVER
        self._solve = self._rebalance_partitioned
        self._solver_locked = False
        if solver is not None:
            self.set_solver(solver)
        self.resources: dict[str, Resource] = {}
        # Insertion-ordered (dict-as-set) for deterministic iteration.
        self._flows: dict[Flow, None] = {}
        # The finite (non-permanent) subset of _flows: the only flows the
        # settle/next-completion scans ever need to visit. On stressed
        # clusters permanent background flows dominate the population, so
        # scanning just this subset is a large constant-factor win.
        self._finite: dict[Flow, None] = {}
        #: The global settle clock: the last instant every finite flow's
        #: ``remaining`` was brought up to date.
        self._last_settle = env.now
        self._recorder: Optional["MetricRecorder"] = None
        self._usage_dirty: set[Resource] = set()
        self._dirty = False
        #: Live components that lost a flow since the last structural
        #: update; they are re-solved, and checked for a split.
        self._changed: dict[_Component, None] = {}
        #: Resources whose flow set changed; contention is re-derived for
        #: exactly these at rebuild time.
        self._retag: dict[Resource, None] = {}
        #: Resources that lost a flow: their weight sums are re-summed.
        self._resum: dict[Resource, None] = {}
        #: Flows added since the last rebuild (not yet in any component).
        self._new_flows: dict[Flow, None] = {}
        #: Every live component (free flows have none).
        self._components: dict[_Component, None] = {}
        # Pre-bound callbacks: scheduled on every rebalance and wake, so
        # avoid allocating a fresh bound method each time. The completion
        # timer itself is the environment's external wake slot (re-aimed
        # in place on every rebalance — zero queue entries).
        self._flush_cb = self.flush
        self._wake_cb = self._on_wake
        #: Event id reserved by a completion wake, armed by the next aim
        #: unless a mutation intervenes (see :meth:`_on_wake`).
        self._wake_ticket: Optional[int] = None

    # -- construction ------------------------------------------------------

    def add_resource(self, name: str, capacity: float, kind: str = "generic") -> Resource:
        """Register a resource; names must be unique."""
        if name in self.resources:
            raise SimulationError(f"duplicate resource {name!r}")
        resource = Resource(name, capacity, kind)
        resource._network = self
        self.resources[name] = resource
        return resource

    def set_recorder(self, recorder: "MetricRecorder") -> None:
        """Attach a metrics recorder notified on every rate change."""
        self._recorder = recorder

    def set_solver(self, name: str) -> None:
        """Select the rate solver by version name.

        Idempotent: re-selecting the current solver is always allowed
        (so configuration can be applied to an already-built cluster).
        *Changing* the solver is only allowed before the first flow
        starts — mid-run the two versions' rounding histories have
        already diverged, so a switch would not be attributable to
        either version's contract.
        """
        if name not in SOLVER_NAMES:
            raise SimulationError(
                f"unknown flow solver {name!r}; choose one of {SOLVER_NAMES}"
            )
        if name == self.solver:
            return
        if self._solver_locked:
            raise SimulationError(
                "flow solver cannot change after the first flow has started"
            )
        self.solver = name
        self._solve = (
            self._rebalance if name == SOLVER_V1 else self._rebalance_partitioned
        )

    # -- flow lifecycle ----------------------------------------------------

    def start_flow(
        self,
        size: Optional[float],
        resources: Iterable[Resource | str],
        cap: Optional[float] = None,
        label: str = "",
        weight: float = 1.0,
    ) -> Flow:
        """Begin draining ``size`` units through ``resources``.

        ``weight`` skews the fair share: a flow of weight w receives w
        times the rate of a weight-1 flow competing on the same
        bottleneck (subject to its cap). Weights < 1 model deprioritised
        background load such as non-containerised processes on a node
        whose cgroups favour YARN containers.

        Returns the :class:`Flow`; ``flow.done`` is an event that fires
        with the flow when it completes (absent for permanent flows).
        """
        resolved = tuple(resources)
        for item in resolved:
            if type(item) is str:
                resolved = tuple(
                    self.resources[r] if type(r) is str else r for r in resolved
                )
                break
        if not resolved:
            raise SimulationError("a flow needs at least one resource")
        if len(resolved) > 1 and len(set(resolved)) < len(resolved):
            raise SimulationError("a flow crosses each resource at most once")
        if cap is not None and cap <= 0:
            raise SimulationError("flow cap must be positive")
        if size is not None and size < 0:
            raise SimulationError("flow size must be non-negative")
        if weight <= 0:
            raise SimulationError("flow weight must be positive")
        done = None if size is None else self.env.event()
        self._solver_locked = True
        flow = Flow(self, resolved, size, cap, done, label, weight=weight)
        self._settle()
        if size is not None and size <= _EPSILON:
            # Zero-sized transfers complete immediately.
            flow.remaining = 0.0
            done.succeed(flow)
            return flow
        self._flows[flow] = None
        if size is not None:
            self._finite[flow] = None
        retag = self._retag
        for resource in resolved:
            resource.flows[flow] = None
            # The flow has the largest id yet, so this extends the
            # resource's id-order sum by one term.
            resource._weight += weight
            retag[resource] = None
        self._new_flows[flow] = None
        self._mark_dirty()
        return flow

    def _drop(self, flow: Flow) -> None:
        """Detach ``flow`` from all bookkeeping (no settle, no event)."""
        self._flows.pop(flow, None)
        self._finite.pop(flow, None)
        retag = self._retag
        resum = self._resum
        for resource in flow.resources:
            del resource.flows[flow]
            retag[resource] = None
            resum[resource] = None
        component = flow._component
        if component is None:
            self._new_flows.pop(flow, None)
            return
        flow._component = None
        del component.flows[flow]
        if flow.cap is not None:
            component.stale += 1
        self._changed[component] = None
        linked = [r for r in flow.resources if r._component is component]
        if len(linked) > 1:
            component.cut.update(linked)

    def _remove(self, flow: Flow, fire: bool) -> None:
        if flow not in self._flows:
            return
        # Settle first so peers (and the flow itself, if it tied with a
        # completion) account progress at the pre-removal rates.
        self._settle()
        if flow in self._flows:  # the settle may have drained it
            self._drop(flow)
        if fire and flow.done is not None and not flow.done.triggered:
            flow.done.succeed(flow)
        self._mark_dirty()

    # -- mechanics ---------------------------------------------------------

    def _settle(self) -> None:
        """Account progress made since the last rate change.

        The settle clock is global on purpose: advancing ``remaining``
        for every live finite flow at every mutation instant keeps the
        floating-point accumulation sequence identical across runs and
        refactors, which pins completion times — and therefore whole
        experiment tables — bit for bit. Completions are normally
        handled by the wake timer; settling can still observe them when
        several flows tie exactly, and fires them in flow start order.
        """
        elapsed = self.env.now - self._last_settle
        if elapsed > 0:
            finished = None
            for flow in self._finite:
                rate = flow._rate
                if rate > 0:
                    remaining = flow.remaining - rate * elapsed
                    if not remaining > 0.0:  # max(0.0, x), -0.0 and NaN too
                        remaining = 0.0
                    flow.remaining = remaining
                    if remaining <= _EPSILON:
                        if finished is None:
                            finished = []
                        finished.append(flow)
            if finished:
                for flow in finished:
                    self._drop(flow)
                    if flow.done is not None and not flow.done.triggered:
                        flow.done.succeed(flow)
        self._last_settle = self.env.now

    def _classify(self, resource: Resource) -> bool:
        """Whether ``resource`` can bottleneck: its flows' caps sum past
        its capacity (an uncapped flow makes it contended outright)."""
        total = 0.0
        for flow in resource.flows:
            cap = flow.cap
            if cap is None:
                return True
            total += cap
        return total > resource.capacity + _EPSILON

    def _mark_dirty(self) -> None:
        """Defer the rebalance to the end of the current timestep.

        Several flows frequently start or finish at the same simulated
        instant (e.g. a task staging in all its inputs); since no time
        passes within a timestep, recomputing rates once afterwards is
        exact and much cheaper. Reading any rate before then forces the
        recomputation via :meth:`flush`.

        Any mutation voids a completion wake's reserved event id: the
        wake is then re-aimed with a fresh id, as it always was after a
        mutation.
        """
        self._wake_ticket = None
        if self._dirty:
            return
        self._dirty = True
        # Priority 2: after every ordinary event at this timestamp.
        self.env._schedule_deferred(self._flush_cb, priority=2)

    def flush(self, _arg: object = None) -> None:
        """Apply any deferred rebalance immediately.

        Progress was already settled at the instant the network went
        dirty (every mutation settles before marking, and the deferred
        flush runs within the same timestep), so this only refreshes the
        contention structure and re-solves.
        """
        if not self._dirty:
            return
        self._dirty = False
        self._solve()

    def _rebuild_components(self) -> list[_Component | Flow]:
        """Bring the contention structure up to date with the marks.

        Pure bookkeeping — no event scheduling, and no float arithmetic
        beyond re-summing weights. Mutations only accumulate marks (`_retag`, `_resum`, `_changed`,
        `_new_flows`, each component's ``cut``); this applies them when
        the partitioned solver rebalances or when introspection asks
        (:meth:`components`, :meth:`component_count`). Under
        ``global-v1`` it stays fully lazy — never on the solve hot path.
        Components persist, and are updated in four steps:

        1. Resources that lost a flow re-sum their weight in flow id
           order; every retagged resource is re-classified. A contention
           flip dissolves the components on the flipped resource and
           queues their flows, with its component-less flows, for a
           flood. Flips are the only routine cause of a flood.
        2. A new flow joins the one component its contended resources
           belong to, merging them first when there are several (the
           largest survives). A flow crossing no contended resource is
           *free*: it gets no component and is returned itself. One
           crossing a resource that step 1 dissolved is flooded.
        3. A component that lost a flow linking two or more of its
           resources (its ``cut``) is searched for those resources
           still being connected without it; only a real split
           dissolves it for the flood.
        4. The queued flows are flooded into new components across
           contended resources, absorbing any live component reached.

        The result depends on the current flow set and contention only:
        flows sit in id order and resources in creation order, whichever
        step placed them, and ``resource._weight`` is the id-order sum a
        fill's own initial pass would compute (a start extends it by the
        newest, largest-id flow; a removal re-sums it).

        Returns the components and free flows that changed — exactly the
        ones whose flow rates the partitioned solver must recompute.
        """
        retagged = self._retag
        new_flows = self._new_flows
        changed = self._changed
        if not (retagged or new_flows or changed):
            return []
        live = self._components
        fresh: dict[_Component | Flow, None] = dict.fromkeys(changed)
        self._changed = {}
        pending: list[Flow] = []
        if retagged:
            self._retag = {}
            resum = self._resum
            if resum:
                self._resum = {}
                for resource in resum:
                    total = 0.0
                    for flow in resource.flows:
                        total += flow.weight
                    resource._weight = total
            for resource in retagged:
                contended = self._classify(resource)
                if resource._contended != contended:
                    resource._contended = contended
                    if resource._component is not None:
                        self._dissolve(resource._component, pending)
                    for flow in resource.flows:
                        if flow._component is not None:
                            self._dissolve(flow._component, pending)
                        else:
                            pending.append(flow)
        if new_flows:
            self._new_flows = {}
            for flow in new_flows:
                joined = self._join(flow, pending)
                if joined is not None:
                    fresh[joined] = None
        for item in fresh:
            if type(item) is _Component and item.cut:
                cut = item.cut
                item.cut = set()
                if item in live and not _connected(item, cut):
                    self._dissolve(item, pending)
        for seed in pending:
            if seed._component is not None:
                continue
            for resource in seed.resources:
                if resource._contended:
                    fresh[self._flood(seed, pending)] = None
                    break
            else:
                fresh[seed] = None
        now = self.env.now
        out: list[_Component | Flow] = []
        for item in fresh:
            if type(item) is Flow:
                out.append(item)
            elif item in live:
                item.built_at = now
                if item.stale > len(item.ladder) >> 1:
                    item.ladder = [f for f in item.ladder if f._component is item]
                    item.stale = 0
                out.append(item)
        return out

    def _join(self, flow: Flow, pending: list[Flow]) -> _Component | Flow | None:
        """Place a new flow: in the component its contended resources
        share (merging theirs first if they differ), or nowhere when it
        is free (the flow itself is returned). A flow crossing a
        contended resource without a component is queued for the flood
        instead (None)."""
        target = None
        merging = None
        for resource in flow.resources:
            if not resource._contended:
                continue
            component = resource._component
            if component is None:
                pending.append(flow)
                return None
            if target is None:
                target = component
            elif component is not target:
                if merging is None:
                    merging = [target]
                if component not in merging:
                    merging.append(component)
        if target is None:
            return flow
        if merging is not None:
            target = self._merge(merging)
        # The flow has the largest id yet: it goes last, and after every
        # capped flow with its cap level.
        target.flows[flow] = None
        flow._component = target
        if flow.cap is not None:
            insort(target.ladder, flow, key=_cap_level)
        return target

    def _dissolve(self, component: _Component, pending: list[Flow]) -> None:
        """Retire a live component, queueing its flows for the flood."""
        live = self._components
        if component not in live:
            return
        del live[component]
        for resource in component.resources:
            resource._component = None
        for flow in component.flows:
            flow._component = None
        pending.extend(component.flows)

    def _merge(self, components: list[_Component]) -> _Component:
        """Fold ``components`` into the one with the most flows."""
        survivor = max(components, key=_size)
        flows: list[Flow] = []
        resources: list[Resource] = []
        for component in components:
            flows += component.flows
            resources += component.resources
            if component is survivor:
                continue
            del self._components[component]
            for flow in component.flows:
                flow._component = survivor
            for resource in component.resources:
                resource._component = survivor
            survivor.cut.update(component.cut)
        _assign(survivor, flows, resources)
        return survivor

    def _flood(self, seed: Flow, pending: list[Flow]) -> _Component:
        """Build the component of ``seed`` by flooding across contended
        resources; a live component the flood reaches is dissolved and
        its flows queued, so those still connected are picked up here."""
        component = _Component(self.env.now)
        self._components[component] = None
        seed._component = component
        flows = [seed]
        resources: list[Resource] = []
        stack = [seed]
        while stack:
            flow = stack.pop()
            for resource in flow.resources:
                if not resource._contended:
                    continue
                owner = resource._component
                if owner is component:
                    continue
                if owner is not None:
                    self._dissolve(owner, pending)
                resource._component = component
                resources.append(resource)
                for other in resource.flows:
                    owner = other._component
                    if owner is not component:
                        if owner is not None:
                            self._dissolve(owner, pending)
                        other._component = component
                        flows.append(other)
                        stack.append(other)
        _assign(component, flows, resources)
        return component

    def _rebalance(self) -> None:
        """``global-v1``: recompute all rates via one global fill.

        FROZEN. This exact loop *is* the byte-reproduction contract of
        solver version ``global-v1``: its accumulating level and shared
        capped-flow ladder make its float-operation sequence inseparable
        across contention components, pinning every historical table
        recorded under v1 to this one operation ordering. It must never
        be partitioned, reordered or algebraically "simplified" — new
        solver behaviour goes in a new version (see the module
        docstring). Bookkeeping is incremental, so a rebalance costs
        roughly O(sum of flow degrees + iterations * active resources).
        """
        # Per-resource: aggregate weight of unfrozen flows and headroom
        # left after already-frozen flows. A flow's rate at fill level
        # ``lam`` is ``min(cap, weight * lam)`` (weighted max-min).
        weight_sum: dict[Resource, float] = {}
        room: dict[Resource, float] = {}
        cap_sum: dict[Resource, float] = {}
        for flow in self._flows:
            flow._rate = 0.0
            flow_cap = math.inf if flow.cap is None else flow.cap
            for resource in flow.resources:
                weight_sum[resource] = weight_sum.get(resource, 0.0) + flow.weight
                room.setdefault(resource, resource.capacity)
                cap_sum[resource] = cap_sum.get(resource, 0.0) + flow_cap
        # A resource whose flows cannot collectively exceed its capacity
        # can never become a bottleneck; dropping it from the candidate
        # scan leaves only genuinely contended resources (big speed-up on
        # clusters where most flows are cap-bound compute or heartbeats).
        for resource, total_cap in cap_sum.items():
            if total_cap <= resource.capacity + _EPSILON:
                del weight_sum[resource]
        unfrozen = dict(self._flows)
        # Capped flows ordered by the level at which their cap binds.
        capped = sorted(
            (f for f in unfrozen if f.cap is not None),
            key=lambda f: f._cap_level,
        )
        cap_index = 0
        level = 0.0
        while unfrozen:
            # Flows already frozen by a resource bottleneck must not
            # contribute a (stale) cap bound.
            while cap_index < len(capped) and capped[cap_index] not in unfrozen:
                cap_index += 1
            delta = math.inf
            bottlenecks: list[Resource] = []
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
            newly_frozen: list[Flow] = []
            if cap_bound < delta - _EPSILON:
                level += max(cap_bound, 0.0)
            else:
                if not bottlenecks:
                    raise SimulationError("unconstrained flows in rebalance")
                level += delta
                for resource in bottlenecks:
                    newly_frozen.extend(
                        f for f in resource.flows if f in unfrozen
                    )
            # Every capped flow whose binding level has been reached
            # freezes too (this also covers the cap_bound branch above).
            while (
                cap_index < len(capped)
                and capped[cap_index]._cap_level <= level + _EPSILON
            ):
                flow = capped[cap_index]
                cap_index += 1
                if flow in unfrozen:
                    newly_frozen.append(flow)
            if not newly_frozen:
                # Defensive: never loop forever on degenerate float input.
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
                    room[resource] -= rate
                    if resource in weight_sum:
                        weight_sum[resource] -= flow.weight
        # Refresh the cached per-resource usage: every touched resource's
        # usage is capacity minus what is left of it; resources that lost
        # their last flow drop back to zero.
        stale = self._usage_dirty
        for resource in stale:
            resource.cached_usage = 0.0
        for resource, remaining_room in room.items():
            resource.cached_usage = resource.capacity - remaining_room
        self._usage_dirty = set(room)
        recorder = self._recorder
        if recorder is not None:
            # Per-resource lazy integration makes the split exact: each
            # resource's integral is settled against its own clock.
            now = self.env.now
            recorder.observe(now, room)
            if stale:
                recorder.observe(now, (r for r in stale if r not in room))
        self._aim_wake()

    def _rebalance_partitioned(self) -> None:
        """``partitioned-v2``: re-solve only the components that changed.

        The structural update runs eagerly (it is pure, incremental
        bookkeeping), then each changed component is filled
        independently. Flows outside the changed components keep
        their rates: no resource they cross changed membership or
        contention, so their max-min solution is untouched — this is the
        whole point of partitioning. Per-component fills round
        differently at the ULP than v1's global fill (no shared
        accumulator), which the declared-epsilon contract absorbs.
        """
        retagged = tuple(self._retag)
        fresh = self._rebuild_components()
        if fresh or retagged:
            touched: dict[Resource, None] = dict.fromkeys(retagged)
            for item in fresh:
                if type(item) is Flow:
                    # A free flow's singleton fill ends at its cap level:
                    # ``level = 0.0 + cap_level``, then ``min(rate, cap)``.
                    rate = item._cap_level * item.weight
                    cap = item.cap
                    item._rate = cap if cap < rate else rate
                    for resource in item.resources:
                        touched[resource] = None
                    continue
                self._fill_component(item)
                for flow in item.flows:
                    for resource in flow.resources:
                        touched[resource] = None
            # An uncontended resource may carry flows from several
            # components, so its usage cannot be read off one fill's
            # ``room``; re-sum each touched resource from its (few)
            # flows. Resources that lost their last flow drop to zero.
            for resource in touched:
                usage = 0.0
                for flow in resource.flows:
                    usage += flow._rate
                resource.cached_usage = usage
            recorder = self._recorder
            if recorder is not None:
                recorder.observe(self.env.now, touched)
        self._aim_wake()

    def _fill_component(self, component: _Component) -> None:
        """One progressive fill restricted to ``component``.

        Mirrors the v1 loop shape, but the candidate resources are just
        the component's contended ones (every flow crossing a contended
        resource is in that resource's component, so the fill is closed)
        and uncontended resources are skipped outright — ``_classify``
        already proved they can never bottleneck. It scans them in
        creation order, starting from the weight sum each resource keeps
        and the component's cap ladder, and keeps each candidate's room
        and active weight in one ``[room, weight]`` entry. Ladder
        entries of flows that left the component are skipped like
        frozen ones.

        A resource leaves the candidate scan once its active weight is
        down to ``_EPSILON``: weights only fall during a fill, so it
        could never be a candidate again, and deleting from a dict keeps
        the order of the rest — the scan, and the tie order of its
        ``bottlenecks``, are unchanged.
        """
        active: dict[Resource, list[float]] = {}
        for resource in component.resources:
            weight = resource._weight
            if weight > _EPSILON:
                active[resource] = [resource.capacity, weight]
        capped = component.ladder
        unfrozen = dict(component.flows)
        eps = _EPSILON
        cap_index = 0
        level = 0.0
        while unfrozen:
            while cap_index < len(capped) and capped[cap_index] not in unfrozen:
                cap_index += 1
            delta = below = above = math.inf
            bottlenecks: list[Resource] = []
            for resource, entry in active.items():
                active_weight = entry[1]
                candidate = (entry[0] - level * active_weight) / active_weight
                if candidate < 0.0:
                    candidate = 0.0
                if candidate < below:
                    delta = candidate
                    below = candidate - eps
                    above = candidate + eps
                    bottlenecks = [resource]
                elif candidate <= above:
                    bottlenecks.append(resource)
            cap_bound = math.inf
            if cap_index < len(capped):
                cap_bound = capped[cap_index]._cap_level - level
            newly_frozen: list[Flow] = []
            if cap_bound < delta - _EPSILON:
                level += max(cap_bound, 0.0)
            else:
                if not bottlenecks:
                    raise SimulationError("unconstrained flows in rebalance")
                level += delta
                for resource in bottlenecks:
                    newly_frozen += [f for f in resource.flows if f in unfrozen]
            while (
                cap_index < len(capped)
                and capped[cap_index]._cap_level <= level + _EPSILON
            ):
                flow = capped[cap_index]
                cap_index += 1
                if flow in unfrozen:
                    newly_frozen.append(flow)
            if not newly_frozen:
                # Defensive: never loop forever on degenerate float input.
                newly_frozen = list(unfrozen)
            for flow in newly_frozen:
                if flow not in unfrozen:
                    continue
                weight = flow.weight
                rate = level * weight
                cap = flow.cap
                if cap is not None and cap < rate:
                    rate = cap
                flow._rate = rate
                del unfrozen[flow]
                for resource in flow.resources:
                    entry = active.get(resource)
                    if entry is not None:
                        entry[0] -= rate
                        active_weight = entry[1] - weight
                        if active_weight <= _EPSILON:
                            del active[resource]
                        else:
                            entry[1] = active_weight

    def _aim_wake(self) -> None:
        """Aim the environment's wake slot at the earliest completion.

        Each aim consumes a fresh event id, so the wake orders against
        same-instant kernel events exactly like a freshly armed timeout —
        but as an in-place slot update, not a queue entry, so heavy churn
        leaves nothing behind in the kernel heap. The one exception is a
        completion wake's reserved id (see :meth:`_on_wake`), which this
        aim consumes in place of a fresh one. The delay is clamped a
        min-tick above ``now``: a sub-resolution delay would not advance
        the clock, the settle step would see zero elapsed time, and the
        wake would re-fire at the same instant forever.
        """
        ticket = self._wake_ticket
        self._wake_ticket = None
        next_in = math.inf
        for flow in self._finite:
            if flow._rate > _EPSILON:
                candidate = flow.remaining / flow._rate
                if candidate < next_in:
                    next_in = candidate
        if math.isinf(next_in):
            self.env.clear_wake()
            return
        min_tick = max(1.0, abs(self.env.now)) * 1e-12
        next_in = max(next_in, min_tick)
        self.env.set_wake(self.env.now + max(next_in, 0.0), self._wake_cb, ticket)

    def _on_wake(self) -> None:
        """The completion timer: settle everyone and fire the flows that
        drained, then defer the re-solve to the end-of-timestep flush.

        The processes those completions resume typically start new flows
        at this same instant; solving once after them gives the same
        rates as solving now and again then, because no time passes
        within an instant and a fill depends only on its component,
        whose membership and order are a function of the current flows
        and contention alone (under either solver). Even a min-tick wake
        that completed nothing re-solves at the flush.

        The wake event id is reserved now, where an immediate solve
        would have drawn it when re-aiming. If nothing mutates the
        network before the flush (and it was not already dirty, which
        would have re-aimed with a fresh id anyway), the flush arms the
        wake with that reserved id, so it orders against same-instant
        kernel events exactly as an immediately re-aimed wake would.
        """
        self._settle()
        done = [f for f in self._finite if f.remaining <= _EPSILON]
        for flow in done:
            self._drop(flow)
            if flow.done is not None and not flow.done.triggered:
                flow.done.succeed(flow)
        ticket = None if self._dirty else self.env.reserve_eid()
        self._mark_dirty()
        self._wake_ticket = ticket

    # -- introspection -----------------------------------------------------

    @property
    def active_flows(self) -> tuple[Flow, ...]:
        """Snapshot of the currently active flows."""
        return tuple(self._flows)

    def usage_of(self, name: str) -> float:
        """Current aggregate rate through resource ``name``."""
        return self.resources[name].usage

    def components(self) -> tuple[_Component, ...]:
        """Snapshot of the contention components (forces pending work).

        A free flow (one crossing only uncontended resources) carries no
        component; it is reported here as a throwaway singleton, in the
        order of its flow. This is an introspection/diagnostics hook —
        under ``global-v1`` the structural rebuild it forces is lazy and
        never runs on the solve hot path.
        """
        self.flush()
        self._rebuild_components()
        now = self.env.now
        seen: dict[int, _Component] = {}
        for flow in self._flows:
            component = flow._component
            if component is None:
                component = _Component(now)
                component.flows[flow] = None
            seen[id(component)] = component
        return tuple(seen.values())

    def component_count(self) -> int:
        """Number of contention components, each free flow counting as a
        singleton (forces pending work; allocates nothing per call)."""
        self.flush()
        self._rebuild_components()
        count = len(self._components)
        for flow in self._flows:
            if flow._component is None:
                count += 1
        return count
