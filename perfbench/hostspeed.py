"""How fast the host runs while a pass is timed.

The host's CPUs are shared with other machines' work. While it runs,
a pass can slow down by up to half, sometimes for tens of seconds. A
fixed probe, timed throughout the pass, measures that slowdown. The
probe is a short event loop shaped like the simulator's work: a heap of
slotted event objects, dict updates and float arithmetic.

:class:`HostSpeed` runs the probe from a ``SIGALRM`` interval timer
every :data:`PERIOD_S` of wall time. It starts no thread or process,
and it does not touch the simulation, so simulated outputs and call
counts are unchanged. A pass's ``host_factor`` is the mean probe time
over :data:`PROBE_REF_S`. A factor of 1 means the reference host; 1.5
means everything ran 1.5x slower. The probe runs only this file's code,
so a change to the program cannot speed it up. Its time, about 2% of
the pass, stays in the measured times.
"""

from __future__ import annotations

import heapq
import random
import signal
import time

__all__ = ["HostSpeed", "probe"]

#: Wall seconds between probes.
PERIOD_S = 0.2
#: Probe seconds on the reference host: a quiet 2.0 GHz Xeon vCPU
#: running CPython 3.11.
PROBE_REF_S = 0.0025


class _Event:
    __slots__ = ("kind", "data")

    def __init__(self, kind, data):
        self.kind = kind
        self.data = data


def probe(steps: int = 2000, width: int = 200) -> float:
    """Host seconds of a fixed event loop of ``steps`` events."""
    rng = random.Random(1)
    started = time.perf_counter()
    heap = []
    totals: dict = {}
    for seq in range(width):
        heapq.heappush(heap, (rng.random(), seq, _Event(seq % 7, {"k": seq})))
    for seq in range(width, width + steps):
        at, _, event = heapq.heappop(heap)
        key = (event.kind, event.data["k"] % 97)
        totals[key] = totals.get(key, 0.0) + at
        heapq.heappush(heap, (
            at + rng.expovariate(1.0), seq,
            _Event((event.kind + 1) % 7, event.data),
        ))
    return time.perf_counter() - started


class HostSpeed:
    """Context manager sampling :func:`probe` every :data:`PERIOD_S`."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "HostSpeed":
        self.samples.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())

    @property
    def factor(self) -> float:
        """Mean probe time over the reference probe time."""
        return sum(self.samples) / len(self.samples) / PROBE_REF_S
