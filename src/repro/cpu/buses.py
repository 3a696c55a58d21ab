"""Bus timing generators (paper Section 4.1).

SimpleScalar's functional core has no buses with realistic timing, so
the paper adds *bus timing generators* that extract values from the
simulation and re-time them onto cycle-accurate bus schedules.  This
module is our equivalent: the pipeline records ``(cycle, value)``
events onto generators while it executes, and :meth:`render` expands
the event list into a dense per-cycle :class:`~repro.traces.BusTrace`
with *hold* semantics — between events the bus keeps its last value,
exactly like a latched physical bus (idle cycles therefore cost no
transitions, for the coded and un-coded bus alike).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..traces.trace import BusTrace

__all__ = ["BusTimingGenerator"]


class BusTimingGenerator:
    """Accumulates timed value events for one bus and renders a trace.

    Events live in two flat lists, ``cycles`` and ``values``, in record
    order.  The pipeline appends to them directly (its cycles are never
    negative); everything else goes through :meth:`record`.
    """

    def __init__(self, name: str, width: int = 32):
        self.name = name
        self.width = width
        self.cycles: List[int] = []
        self.values: List[int] = []

    def record(self, cycle: int, value: int) -> None:
        """Schedule ``value`` to appear on the bus at ``cycle``.

        Events may be recorded out of order; if several land on the
        same cycle the one recorded last wins (a later transaction
        overdrives the bus).
        """
        if cycle < 0:
            raise ValueError(f"negative cycle {cycle}")
        self.cycles.append(cycle)
        self.values.append(value)

    @property
    def num_events(self) -> int:
        """Number of recorded events."""
        return len(self.cycles)

    @property
    def events(self) -> List[Tuple[int, int]]:
        """The recorded ``(cycle, value)`` events, in record order."""
        return list(zip(self.cycles, self.values))

    def render(self, num_cycles: int) -> BusTrace:
        """Expand events into a dense ``num_cycles``-long trace.

        The bus holds 0 before its first event and holds the latest
        event value through every idle cycle.  Events at or beyond
        ``num_cycles`` are dropped (the simulation ended first).
        """
        values = np.zeros(num_cycles, dtype=np.uint64)
        if not self.cycles or num_cycles <= 0:
            return BusTrace(values, self.width, self.name)
        cycles = np.array(self.cycles, dtype=np.int64)
        # BusTrace masks to the width; only ints outside uint64 (which
        # numpy refuses) need masking first.
        try:
            event_values = np.array(self.values, dtype=np.uint64)
        except OverflowError:
            mask = (1 << self.width) - 1
            event_values = np.array([v & mask for v in self.values], dtype=np.uint64)
        # A stable sort keeps same-cycle events in record order, so the
        # last of each run of equal cycles is the one recorded last.
        order = np.argsort(cycles, kind="stable")
        cycles = cycles[order]
        event_values = event_values[order]
        last = np.append(cycles[1:] != cycles[:-1], True) & (cycles < num_cycles)
        cycles = cycles[last]
        values[cycles] = event_values[last]
        # Forward-fill idle cycles with the previous event's value; the
        # cycles before the first event read values[0], which is 0 unless
        # an event landed on cycle 0.
        held = np.zeros(num_cycles, dtype=np.int64)
        held[cycles] = cycles
        np.maximum.accumulate(held, out=held)
        return BusTrace(values[held], self.width, self.name)
