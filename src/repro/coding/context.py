"""Context-based transcoding (paper Figures 12-14 and 20-25).

The context-based transcoder augments the window shift register with a
*frequency table*: values (or value transitions) that prove frequent in
the shift-register window are promoted into the table, which is kept
sorted by frequency so that the most frequent entries occupy the
lowest-weight codeword positions (the paper's Invariant 2 — position
*is* the code, so no codeword storage is needed: Invariant 1).

Two flavours, per Section 4.3:

* **value-based** (Figure 13): table entries are bus values;
* **transition-based** (Figure 14): table entries are *(previous,
  next)* value pairs — an arc of the value transition graph.  A pair
  matches only when its first element equals the last transmitted
  value, which is how the hardware's match lines behave.  There are
  far more arcs than states, so for equal hardware this flavour hits
  less often — the effect Figures 20-23 quantify.

Frequency counters saturate (the hardware uses cascaded Johnson
counters) and all counters are halved every ``divide_period`` cycles
(the "counter division time"), so stale phases age out — Figure 25
sweeps this parameter.

The functional model here keeps the table exactly sorted; the
cycle-accurate pending-bit realisation of the same invariant lives in
:mod:`repro.hardware.sorting`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from .errors import CodeIndexError, DesyncError
from .predictive import Predictor, PredictiveTranscoder

__all__ = [
    "ContextPredictor",
    "ContextTranscoder",
    "VALUE_BASED",
    "TRANSITION_BASED",
    "COUNTER_MAX",
]

VALUE_BASED = "value"
TRANSITION_BASED = "transition"

# Four cascaded 4-bit Johnson counters saturate at 8**4 = 4096 (Section
# 5.3.3); the functional model saturates at the same point.
COUNTER_MAX = 4096


@dataclass
class _Entry:
    """One dictionary entry: a tag and its frequency count."""

    tag: Hashable
    count: int = 0


class ContextPredictor(Predictor):
    """Sorted frequency table + counting shift register (Figure 12).

    Parameters
    ----------
    table_size:
        Number of frequency-table entries (paper sweeps 4..64; 24-32 is
        the knee).
    shift_size:
        Shift-register entries (paper settles on 8).
    flavor:
        ``VALUE_BASED`` or ``TRANSITION_BASED``.
    divide_period:
        Halve every counter each time this many values have been
        observed (paper: levels off around 4096).
    width:
        Bus width in bits.
    """

    def __init__(
        self,
        table_size: int = 28,
        shift_size: int = 8,
        flavor: str = VALUE_BASED,
        divide_period: int = 4096,
        width: int = 32,
    ):
        if table_size < 1:
            raise ValueError(f"table_size must be >= 1, got {table_size}")
        if shift_size < 1:
            raise ValueError(f"shift_size must be >= 1, got {shift_size}")
        if flavor not in (VALUE_BASED, TRANSITION_BASED):
            raise ValueError(f"unknown flavor {flavor!r}")
        if divide_period < 1:
            raise ValueError(f"divide_period must be >= 1, got {divide_period}")
        self.table_size = table_size
        self.shift_size = shift_size
        self.flavor = flavor
        self.divide_period = divide_period
        self.width = width
        self.num_codes = 1 + table_size + shift_size
        self.reset()

    def reset(self) -> None:
        self.last = 0
        self._cycle = 0
        self._table: List[Optional[_Entry]] = [None] * self.table_size
        self._table_index: Dict[Hashable, int] = {}
        self._sr: List[Optional[_Entry]] = [None] * self.shift_size
        self._sr_index: Dict[Hashable, int] = {}
        self._sr_head = 0

    # -- tag semantics ----------------------------------------------------

    def _tag_for(self, value: int) -> Hashable:
        """The dictionary tag a new observation of ``value`` creates."""
        if self.flavor == VALUE_BASED:
            return value
        return (self.last, value)

    def _tag_value(self, tag: Hashable) -> int:
        """The bus value a matched tag predicts."""
        if self.flavor == VALUE_BASED:
            return tag  # type: ignore[return-value]
        return tag[1]  # type: ignore[index]

    # -- Predictor interface ------------------------------------------------

    def match(self, value: int) -> Optional[int]:
        if value == self.last:
            return 0
        tag = self._tag_for(value)
        pos = self._table_index.get(tag)
        if pos is not None:
            return 1 + pos
        slot = self._sr_index.get(tag)
        if slot is not None:
            return 1 + self.table_size + slot
        return None

    def lookup(self, index: int) -> int:
        if index == 0:
            return self.last
        if index <= self.table_size:
            entry = self._table[index - 1]
        else:
            slot = index - 1 - self.table_size
            if slot >= self.shift_size:
                raise CodeIndexError(
                    f"code index {index} out of range 0..{self.num_codes - 1}"
                )
            entry = self._sr[slot]
        if entry is None:
            raise DesyncError(f"code index {index} names an empty entry; out of sync")
        return self._tag_value(entry.tag)

    def update(self, value: int) -> None:
        tag = self._tag_for(value)
        pos = self._table_index.get(tag)
        if pos is not None:
            self._bump_table(pos)
        else:
            slot = self._sr_index.get(tag)
            if slot is not None:
                entry = self._sr[slot]
                assert entry is not None
                entry.count = min(entry.count + 1, COUNTER_MAX)
            elif value != self.last or self.flavor == TRANSITION_BASED:
                # A repeat of the last value carries no new information
                # for the value-based dictionary (LAST already covers
                # it); transition flavour still records the self-arc.
                self._insert_sr(_Entry(tag, 0))
        self.last = value
        self._cycle += 1
        if self._cycle % self.divide_period == 0:
            self._divide_counters()

    # -- table maintenance ----------------------------------------------------

    def _bump_table(self, pos: int) -> None:
        """Increment a table entry's counter and restore sorted order."""
        entry = self._table[pos]
        assert entry is not None
        entry.count = min(entry.count + 1, COUNTER_MAX)
        # Bubble toward position 0 while strictly more frequent than the
        # entry above — the steady-state effect of the hardware's
        # neighbour-swap algorithm (Invariant 2).
        while pos > 0:
            above = self._table[pos - 1]
            if above is not None and above.count >= entry.count:
                break
            self._table[pos - 1], self._table[pos] = entry, above
            self._table_index[entry.tag] = pos - 1
            if above is not None:
                self._table_index[above.tag] = pos
            pos -= 1

    def _insert_sr(self, entry: _Entry) -> None:
        """Shift a new entry in at the head; maybe promote the evictee."""
        evicted = self._sr[self._sr_head]
        if evicted is not None:
            del self._sr_index[evicted.tag]
        self._sr[self._sr_head] = entry
        self._sr_index[entry.tag] = self._sr_head
        self._sr_head = (self._sr_head + 1) % self.shift_size
        if evicted is not None and evicted.count > 0:
            self._promote(evicted)

    def _promote(self, candidate: _Entry) -> None:
        """Enter an evicted shift-register value into the table if it is
        more frequent than the least-frequent (bottom) table entry."""
        bottom = self.table_size - 1
        current = self._table[bottom]
        if current is not None and current.count >= candidate.count:
            return
        if current is not None:
            del self._table_index[current.tag]
        self._table[bottom] = candidate
        self._table_index[candidate.tag] = bottom
        # Restore sorted order for the newcomer.
        pos = bottom
        while pos > 0:
            above = self._table[pos - 1]
            if above is not None and above.count >= candidate.count:
                break
            self._table[pos - 1], self._table[pos] = candidate, above
            self._table_index[candidate.tag] = pos - 1
            if above is not None:
                self._table_index[above.tag] = pos
            pos -= 1

    def _divide_counters(self) -> None:
        """Halve every counter (phase adaptation, Section 4.3)."""
        for entry in self._table:
            if entry is not None:
                entry.count >>= 1
        for entry in self._sr:
            if entry is not None:
                entry.count >>= 1

    # -- introspection ----------------------------------------------------------

    @property
    def table_contents(self) -> List[Optional[Tuple[Hashable, int]]]:
        """(tag, count) per table position, top (most frequent) first."""
        return [None if e is None else (e.tag, e.count) for e in self._table]

    def check_invariants(self) -> None:
        """Raise AssertionError if Invariant 1 or 2 is violated."""
        tags = [e.tag for e in self._table if e is not None]
        tags += [e.tag for e in self._sr if e is not None]
        assert len(tags) == len(set(tags)), "Invariant 1 violated: duplicate tags"
        counts = [e.count for e in self._table if e is not None]
        assert all(
            a >= b for a, b in zip(counts, counts[1:])
        ), "Invariant 2 violated: table not sorted by count"
        filled = [e is not None for e in self._table]
        assert all(
            earlier or not later for earlier, later in zip(filled, filled[1:])
        ), "table has an empty slot above a filled one"
        for tag, pos in self._table_index.items():
            entry = self._table[pos]
            assert entry is not None and entry.tag == tag, "table index stale"
        for tag, slot in self._sr_index.items():
            entry = self._sr[slot]
            assert entry is not None and entry.tag == tag, "shift-register index stale"


class ContextTranscoder(PredictiveTranscoder):
    """The paper's Context-based transcoder (value or transition flavour)."""

    # Not inherited by the hardware-audited subclass, which counts its
    # operations in ``encode_value`` (the kernel never calls it).
    _trace_kernel = True

    def __init__(
        self,
        table_size: int = 28,
        shift_size: int = 8,
        flavor: str = VALUE_BASED,
        divide_period: int = 4096,
        width: int = 32,
    ):
        predictor = ContextPredictor(table_size, shift_size, flavor, divide_period, width)
        super().__init__(predictor, width)
