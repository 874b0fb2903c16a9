"""Discrete-event simulation kernel and flow-level resource model."""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    Timeout,
)
from repro.sim.flows import (
    DEFAULT_SOLVER,
    PARITY_EPSILON,
    SOLVER_NAMES,
    SOLVER_V1,
    SOLVER_V2,
    Flow,
    FlowNetwork,
    Resource,
)
from repro.sim.metrics import MetricRecorder, ResourceUsage

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Flow",
    "FlowNetwork",
    "Resource",
    "MetricRecorder",
    "ResourceUsage",
    "SOLVER_V1",
    "SOLVER_V2",
    "SOLVER_NAMES",
    "DEFAULT_SOLVER",
    "PARITY_EPSILON",
]
