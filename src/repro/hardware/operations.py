"""Elementary transcoder operations (paper Figure 28, Section 5.3.2).

The paper's methodology (Figure 34) sidesteps full-trace SPICE: the
high-level transcoder simulator counts *elementary energy-consuming
operations*, and those counts are multiplied by per-operation energies
measured once from the extracted layout.  This module defines the
operation vocabulary and the counter container; the per-operation
energies live in :mod:`repro.hardware.circuits`.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Dict, Iterable, Mapping

__all__ = ["Op", "OperationCounts"]


class Op(Enum):
    """Elementary operation kinds, following Section 5.3.2."""

    #: Johnson-counter increment (one ring bit flips).
    COUNT = "count"
    #: Selective-precharge probe of one entry's low-order bits.
    MATCH_LOW = "match_low"
    #: Full-width completion of a match whose low bits matched.
    MATCH_FULL = "match_full"
    #: Pair-wise XOR comparison of two adjacent counters (re-evaluated
    #: when either counter changed).
    COUNTER_COMPARE = "counter_compare"
    #: Swap of two adjacent frequency-table entries (tag + counter).
    SWAP = "swap"
    #: Shift-register insert (one pointer-based entry write).
    SHIFT = "shift"
    #: LAST-value pointer-vector update.
    LAST_TRACK = "last_track"
    #: Pending-bit set/clear.
    PENDING = "pending"
    #: Counter-division event (every counter halved at once).
    DIVIDE = "divide"
    #: One output wire driven to a new value by the encoder mux/latch.
    OUTPUT_DRIVE = "output_drive"
    #: Per-cycle clock distribution and control overhead.
    CYCLE = "cycle"


class OperationCounts:
    """A multiset of operations accumulated over a run.

    Iteration yields ``(op, count)`` in insertion order: the order in
    which each operation was first added with a non-zero count.
    :meth:`TranscoderCircuit.energy` prices in that order, so a kernel
    that builds the same counts in another order changes recorded
    floating-point energies in the last bit.
    """

    def __init__(self, initial: Mapping[Op, int] = ()) -> None:
        self._counts: Counter = Counter(dict(initial) if initial else {})

    def add(self, op: Op, count: int = 1) -> None:
        """Record ``count`` occurrences of ``op``."""
        if count < 0:
            raise ValueError(f"negative count {count} for {op}")
        if count:
            self._counts[op] += count

    def __getitem__(self, op: Op) -> int:
        return self._counts.get(op, 0)

    def __iter__(self) -> Iterable:
        return iter(self._counts.items())

    def __add__(self, other: "OperationCounts") -> "OperationCounts":
        merged = OperationCounts()
        merged._counts = self._counts + other._counts
        return merged

    @property
    def total(self) -> int:
        """Total operations of all kinds."""
        return sum(self._counts.values())

    def as_dict(self) -> Dict[Op, int]:
        """A plain dict copy of the counts."""
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{op.value}={n}" for op, n in sorted(
            self._counts.items(), key=lambda item: item[0].value))
        return f"OperationCounts({inner})"
