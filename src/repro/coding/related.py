"""Related-work coding schemes (paper Section 2).

The paper positions its transcoders against the prior bus-coding
literature; this module implements those baselines so the comparison
can actually be run:

* :class:`BusInvertTranscoder` — classic bus-invert [Stan & Burleson
  1995]: invert the word when more than half the wires would toggle.
  Unlike :class:`~repro.coding.inversion.InversionTranscoder` (the
  paper's generalisation), this is the textbook formulation: one invert
  wire, Hamming-weight majority decision, optionally applied to
  independent sub-groups of the bus (*partial* bus-invert [Shin, Chae &
  Choi 1998], which concentrates the invert decision where the activity
  is).
* :class:`WorkZoneTranscoder` — work-zone encoding for address buses
  [Musoll, Lang & Cortadella 1997]: addresses cluster into a few active
  "zones" (stack, globals, heap arrays); the coder keeps one base
  register per zone and sends the in-zone *offset* one-hot (transition
  signalled) when the offset is small, falling back to raw addresses
  otherwise.
* :class:`AdaptiveCodebookTranscoder` — adaptive codebook encoding
  [Komatsu, Ikeda & Asada 2000]: XOR the outgoing word with the
  codebook pattern that minimises the transition weight, where the
  codebook *learns*: on a raw fallback, the transmitted word enters the
  codebook (LRU), so recurring deltas get cheap.

All three are honest encoder/decoder pairs on the usual
:class:`~repro.coding.base.Transcoder` contract.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..traces.trace import BusTrace
from .base import Transcoder

__all__ = [
    "BusInvertTranscoder",
    "WorkZoneTranscoder",
    "AdaptiveCodebookTranscoder",
]


class BusInvertTranscoder(Transcoder):
    """Classic (and partial) bus-invert coding.

    The bus is split into ``groups`` equal sub-buses, each with its own
    invert wire appended above the data wires.  Each cycle, each group
    inverts its data when strictly more than half of its wires would
    otherwise toggle — the original majority-voter formulation (the
    invert wire's own transition is not part of the decision, as in the
    1995 paper).
    """

    def __init__(self, width: int = 32, groups: int = 1):
        if groups < 1:
            raise ValueError(f"groups must be >= 1, got {groups}")
        if width % groups:
            raise ValueError(f"width {width} not divisible into {groups} groups")
        self.input_width = width
        self.output_width = width + groups
        self.groups = groups
        self.group_width = width // groups
        self._group_mask = (1 << self.group_width) - 1
        self.reset()

    def reset(self) -> None:
        self._enc_data = 0  # current data-wire states (packed, width bits)
        self._dec_data = 0

    def _encode_group(self, old_bits: int, new_bits: int) -> "tuple[int, int]":
        toggles = bin(old_bits ^ new_bits).count("1")
        if toggles * 2 > self.group_width:
            return (~new_bits) & self._group_mask, 1
        return new_bits, 0

    def encode_value(self, value: int) -> int:
        value &= (1 << self.input_width) - 1
        data = 0
        inverts = 0
        for g in range(self.groups):
            shift = g * self.group_width
            old_bits = (self._enc_data >> shift) & self._group_mask
            new_bits = (value >> shift) & self._group_mask
            sent, inverted = self._encode_group(old_bits, new_bits)
            data |= sent << shift
            inverts |= inverted << g
        self._enc_data = data
        return (inverts << self.input_width) | data

    def _encode_trace_fast(self, trace: BusTrace) -> BusTrace:
        """The per-cycle loop with its state in locals, for exactly this
        class; :meth:`encode_trace_scalar` is the oracle.

        Each group's decision reads only that group's wires, so the loop
        runs one group at a time; a group was inverted in a cycle exactly
        when the bits it sent differ from the value's.
        """
        if type(self) is not BusInvertTranscoder:
            return self.encode_trace_scalar(trace)
        self._check_encode_width(trace)
        self.reset()
        group_width, group_mask = self.group_width, self._group_mask
        out = np.zeros(len(trace), dtype=np.uint64)
        data = 0
        for g in range(self.groups):
            shift = g * group_width
            group = (trace.values >> np.uint64(shift)) & np.uint64(group_mask)
            wires = 0
            sent: List[int] = []
            emit = sent.append
            for bits in group.tolist():
                toggles = (wires ^ bits).bit_count()
                wires = bits ^ group_mask if toggles * 2 > group_width else bits
                emit(wires)
            data |= wires << shift
            sent_bits = np.array(sent, dtype=np.uint64)
            out |= sent_bits << np.uint64(shift)
            inverted = (sent_bits != group).astype(np.uint64)
            out |= inverted << np.uint64(self.input_width + g)
        self._enc_data = data
        return BusTrace(out, self.output_width, self._encoded_name(trace))

    def decode_state(self, state: int) -> int:
        data = state & ((1 << self.input_width) - 1)
        inverts = state >> self.input_width
        self._dec_data = data
        value = 0
        for g in range(self.groups):
            shift = g * self.group_width
            bits = (data >> shift) & self._group_mask
            if (inverts >> g) & 1:
                bits = (~bits) & self._group_mask
            value |= bits << shift
        return value


class WorkZoneTranscoder(Transcoder):
    """Work-zone encoding for address streams.

    ``zones`` base registers track the active address regions.  For an
    address within ``2**offset_bits`` of a zone's base, the coder sends
    the zone id on dedicated wires and *toggles one wire* of a one-hot
    offset field (transition-signalled, so consecutive same-zone
    accesses with small strides cost ~2 transitions); the zone base
    then slides to the new address.  Anything else goes out raw and
    replaces the least-recently-used zone.

    Physical layout (LSB..MSB): W data wires, ``zones`` zone-select
    wires, 1 mode wire.  In offset mode the data wires carry the
    one-hot toggle field (only ``2**offset_bits <= W`` of them move).
    """

    def __init__(
        self,
        width: int = 32,
        zones: int = 4,
        offset_bits: int = 5,
        granularity: int = 2,
    ):
        """``granularity`` is the log2 of the offset unit: 2 (words) by
        default, so the one-hot window spans +/- 2**(offset_bits-1)
        *words* around each base — sequential word and cache-block
        strides stay in zone.  Addresses misaligned to the unit fall
        back to raw."""
        if zones < 1:
            raise ValueError(f"zones must be >= 1, got {zones}")
        if not 1 <= offset_bits <= 6:
            raise ValueError(f"offset_bits must be 1..6, got {offset_bits}")
        if (1 << offset_bits) > width:
            raise ValueError("one-hot offset field must fit in the data wires")
        if granularity < 0:
            raise ValueError(f"granularity must be >= 0, got {granularity}")
        self.input_width = width
        self.output_width = width + zones + 1
        self.zones = zones
        self.offset_bits = offset_bits
        self.granularity = granularity
        self._unit = 1 << granularity
        self._mask = (1 << width) - 1
        self._half_window = 1 << (offset_bits - 1)
        self.reset()

    def reset(self) -> None:
        self._bases: List[Optional[int]] = [None] * self.zones
        self._lru: List[int] = list(range(self.zones))  # front = LRU
        self._data = 0
        self._zone_wires = 0
        self._mode = 0  # 0 = offset mode, 1 = raw
        self._last = 0  # previous address (repeats keep the bus silent)

    def _touch(self, zone: int) -> None:
        self._lru.remove(zone)
        self._lru.append(zone)

    def _find_zone(self, value: int) -> Optional[int]:
        for zone, base in enumerate(self._bases):
            if base is None:
                continue
            delta = (value - base) & self._mask
            if delta % self._unit:
                continue  # misaligned to the offset unit
            units = delta >> self.granularity
            span = (self._mask >> self.granularity) + 1
            if units < self._half_window or units > span - 1 - self._half_window:
                return zone
        return None

    def _offset_toggle(self, base: int, value: int) -> int:
        """One-hot wire index for the (signed, unit-granular) offset."""
        units = ((value - base) & self._mask) >> self.granularity
        if units < self._half_window:
            return units  # 0 .. half-1
        span = (self._mask >> self.granularity) + 1
        return self._half_window + (span - units) - 1  # negative side

    def _pack(self, data: int, zone_wires: int, mode: int) -> int:
        return (mode << (self.input_width + self.zones)) | (
            zone_wires << self.input_width
        ) | data

    def encode_value(self, value: int) -> int:
        value &= self._mask
        if value == self._last:
            # A repeated address leaves the whole bus untouched; an
            # idle address bus holds its value, so repeats are free
            # (mirroring the transcoders' LAST code).
            return self._pack(self._data, self._zone_wires, self._mode)
        zone = self._find_zone(value)
        if zone is not None:
            base = self._bases[zone]
            assert base is not None
            toggle = self._offset_toggle(base, value)
            data = self._data ^ (1 << toggle)
            zone_wires = 1 << zone
            mode = 0
            self._bases[zone] = value
            self._touch(zone)
        else:
            victim = self._lru[0]
            self._bases[victim] = value
            self._touch(victim)
            data = value
            zone_wires = 1 << victim
            mode = 1
        self._data = data
        self._zone_wires = zone_wires
        self._mode = mode
        self._last = value
        return self._pack(data, zone_wires, mode)

    def decode_state(self, state: int) -> int:
        data = state & self._mask
        zone_wires = (state >> self.input_width) & ((1 << self.zones) - 1)
        mode = state >> (self.input_width + self.zones)
        if (
            data == self._data
            and zone_wires == self._zone_wires
            and mode == self._mode
        ):
            return self._last  # silent bus: the address repeats
        zone = zone_wires.bit_length() - 1
        if mode == 1:
            value = data
            self._bases[zone] = value
            self._touch(zone)
        else:
            toggle = (data ^ self._data).bit_length() - 1
            base = self._bases[zone]
            if base is None:
                raise ValueError(f"offset against empty zone {zone}; out of sync")
            if toggle < self._half_window:
                value = (base + (toggle << self.granularity)) & self._mask
            else:
                back = (toggle - self._half_window + 1) << self.granularity
                value = (base - back) & self._mask
            self._bases[zone] = value
            self._touch(zone)
        self._data = data
        self._zone_wires = zone_wires
        self._mode = mode
        self._last = value
        return value


class AdaptiveCodebookTranscoder(Transcoder):
    """Adaptive XOR-codebook coding.

    The outgoing data word is ``value XOR pattern`` for the codebook
    ``pattern`` minimising wire toggles; ``log2(len(codebook))`` select
    wires name the pattern.  Pattern 0 (identity) is pinned; the rest
    adapt — when the best pattern still leaves more than a quarter of
    the wires toggling, the *transition vector itself* replaces the LRU
    adaptive entry, so recurring deltas become near-free later.
    Encoder and decoder update from transmitted data only, keeping the
    books identical.
    """

    def __init__(self, width: int = 32, book_size: int = 8):
        if book_size < 2 or book_size & (book_size - 1):
            raise ValueError(f"book_size must be a power of two >= 2, got {book_size}")
        self.input_width = width
        self.book_size = book_size
        self.select_bits = book_size.bit_length() - 1
        self.output_width = width + self.select_bits
        self._mask = (1 << width) - 1
        self.reset()

    def reset(self) -> None:
        self._book: List[int] = [0] * self.book_size
        self._lru: List[int] = list(range(1, self.book_size))  # entry 0 pinned
        self._enc_data = 0
        self._dec_data = 0

    def _best_pattern(self, data_state: int, value: int) -> int:
        best_index = 0
        best_cost = None
        for index, pattern in enumerate(self._book):
            cost = bin(data_state ^ value ^ pattern).count("1")
            if best_cost is None or cost < best_cost:
                best_index, best_cost = index, cost
        return best_index

    def encode_value(self, value: int) -> int:
        value &= self._mask
        index = self._best_pattern(self._enc_data, value)
        data = value ^ self._book[index]
        cost = bin(self._enc_data ^ data).count("1")
        # Learning keys off the *transmitted* transition so the decoder
        # can mirror it exactly.
        self._learn_transition(self._enc_data, data, cost, index)
        self._enc_data = data
        return (index << self.input_width) | data

    def _encode_trace_fast(self, trace: BusTrace) -> BusTrace:
        """The per-cycle loop with its state in locals, for exactly this
        class; :meth:`encode_trace_scalar` is the oracle.

        Entry 0 is pinned, so every other index is in the LRU list; the
        chosen pattern's toggle count is the transmitted word's cost.
        """
        if type(self) is not AdaptiveCodebookTranscoder:
            return self.encode_trace_scalar(trace)
        self._check_encode_width(trace)
        self.reset()
        book, lru, width = self._book, self._lru, self.input_width
        data = self._enc_data
        states: List[int] = []
        emit = states.append
        for value in trace.values.tolist():
            moved = data ^ value
            costs = [(moved ^ pattern).bit_count() for pattern in book]
            cost = min(costs)
            index = costs.index(cost)  # the lowest index on ties
            sent = value ^ book[index]
            if index:
                lru.remove(index)
                lru.append(index)
            if cost * 4 > width:
                victim = lru.pop(0)
                book[victim] = data ^ sent
                lru.append(victim)
            data = sent
            emit((index << width) | data)
        self._enc_data = data
        out = np.array(states, dtype=np.uint64)
        return BusTrace(out, self.output_width, self._encoded_name(trace))

    def _learn_transition(self, old: int, new: int, cost: int, index: int) -> None:
        if index in self._lru:
            self._lru.remove(index)
            self._lru.append(index)
        if cost * 4 > self.input_width:
            victim = self._lru.pop(0)
            self._book[victim] = (old ^ new) & self._mask
            self._lru.append(victim)

    def decode_state(self, state: int) -> int:
        data = state & self._mask
        index = state >> self.input_width
        value = data ^ self._book[index]
        cost = bin(self._dec_data ^ data).count("1")
        self._learn_transition(self._dec_data, data, cost, index)
        self._dec_data = data
        return value
