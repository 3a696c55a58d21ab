"""Hardware-instrumented transcoders (paper Figure 34's methodology).

These subclasses make the same coding decisions as their functional
parents — bit-for-bit, so all round-trip guarantees hold — while
counting the elementary hardware operations each cycle causes:
selective-precharge probes, shifts, Johnson-counter flips, pending-bit
sets, neighbour swaps, output-driver toggles and per-cycle clocking.
Feeding the counts to :class:`repro.hardware.circuits.TranscoderCircuit`
yields the encoder's energy for a given trace, exactly as the paper
multiplies operation counts by per-operation SPICE measurements.

The decoder of each design contains the same dictionary and match
logic, so its energy is modelled as equal to the encoder's (the paper
notes encoder and decoder share the design and nearly the area).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

import numpy as np

from ..traces.trace import BusTrace
from ..wires.technology import Technology
from ..coding.context import ContextTranscoder, VALUE_BASED
from ..coding.predictive import (
    _TO_INV,
    _TO_RAW,
    CTRL_CODE,
    CTRL_RAW,
    CTRL_RAW_INVERTED,
    _kernel_models,
)
from ..coding.window import WindowTranscoder
from .cam import LOW_BITS
from .circuits import InversionCircuit, TranscoderCircuit
from .johnson import JohnsonCounter
from .operations import Op, OperationCounts

__all__ = [
    "HardwareWindowTranscoder",
    "encode_window_trace",
    "HardwareContextTranscoder",
    "encoder_energy_per_cycle",
    "inversion_energy_per_cycle",
]

_LOW_MASK = (1 << LOW_BITS) - 1

#: The order in which :meth:`HardwareWindowTranscoder.encode_value`
#: charges operations within one cycle.
_CYCLE_ORDER = (
    Op.MATCH_LOW,
    Op.MATCH_FULL,
    Op.SHIFT,
    Op.LAST_TRACK,
    Op.OUTPUT_DRIVE,
    Op.CYCLE,
)


def _window_kernel(
    coder: WindowTranscoder, values: List[int], low_bits: int
) -> Tuple[List[int], OperationCounts]:
    """Encode ``values`` through a freshly reset window coder, auditing it.

    One pass does both the coding (:meth:`PredictiveTranscoder.encode_value`
    with :meth:`WindowPredictor.update`) and the operation counting of
    :meth:`HardwareWindowTranscoder.encode_value`, with all FSM state in
    locals.  Resident entries per ``low_bits`` pattern are kept in a
    table, so the selective-precharge full-compare count is one lookup
    instead of a scan of the window.  Returns the wire states and the
    counts; the predictor and wire state are written back to ``coder``
    exactly as the per-cycle loop leaves them.

    The counts are built in the order the per-cycle audit first charges
    each operation (cycle, then :data:`_CYCLE_ORDER`), because
    :meth:`TranscoderCircuit.energy` sums in that order and recorded
    energies depend on it to the last bit.
    """
    pred = coder.predictor
    size = pred.size
    slots = pred._slots
    index = pred._index
    width = coder.input_width
    mask = coder._mask
    codewords = coder._codewords
    low_mask = (1 << low_bits) - 1
    lows: Dict[int, int] = {}  # low-bit pattern -> resident entries with it
    filled = head = 0
    last = pred.last
    data, ctrl = coder._data_state, coder._ctrl_state
    state = coder._pack(data, ctrl)
    if values and values[0] == last:
        # Power-on quirk of the oracle: LAST holds 0 before any value
        # was seen, so a leading 0 is a LAST hit, yet the predictor
        # still inserts it into the window -- and the audit charges no
        # SHIFT for that write.
        slots[0], index[last], lows[last & low_mask] = last, 0, 1
        filled, head = 1, 1 % size

    n_low = n_full = n_shift = n_drive = 0
    first: Dict[Op, int] = {}  # cycle of each operation's first charge
    states: List[int] = []
    emit = states.append
    popcount = int.bit_count
    for cycle, value in enumerate(values):
        if value == last:
            # LAST hit: only the LAST detector evaluates; the bus is silent.
            emit(state)
            continue
        low = value & low_mask
        if filled:
            if not n_low:
                first[Op.MATCH_LOW] = cycle
            n_low += filled
            full = lows.get(low)
            if full:
                if not n_full:
                    first[Op.MATCH_FULL] = cycle
                n_full += full
        slot = index.get(value)
        if slot is None:
            if not n_shift:
                first[Op.SHIFT] = cycle
            n_shift += 1
            # Raw or inverted, whichever toggles fewer wires.  The
            # oracle's rewrite of a raw word that would leave the bus
            # unchanged never fires: under a raw control state the data
            # wires show LAST or its complement, and a miss is not LAST.
            toggles = popcount(data ^ value)
            if width - toggles + _TO_INV[ctrl] < toggles + _TO_RAW[ctrl]:
                data, ctrl = value ^ mask, CTRL_RAW_INVERTED
            else:
                data, ctrl = value, CTRL_RAW
            old = slots[head]
            if old is None:
                filled += 1
            else:
                del index[old]
                lows[old & low_mask] -= 1
            slots[head] = value
            index[value] = head
            lows[low] = lows.get(low, 0) + 1
            head += 1
            if head == size:
                head = 0
        else:
            data, ctrl = data ^ codewords[1 + slot], CTRL_CODE
        new_state = (ctrl << width) | data
        drive = popcount(new_state ^ state)
        if drive and not n_drive:
            first[Op.OUTPUT_DRIVE] = cycle
        n_drive += drive
        state = new_state
        last = value
        emit(state)

    pred.last, pred._head = last, head
    coder._data_state, coder._ctrl_state = data, ctrl
    totals = {
        Op.MATCH_LOW: n_low,
        Op.MATCH_FULL: n_full,
        Op.SHIFT: n_shift,
        Op.LAST_TRACK: len(values),
        Op.OUTPUT_DRIVE: n_drive,
        Op.CYCLE: len(values),
    }
    if values:
        first[Op.LAST_TRACK] = first[Op.CYCLE] = 0
    ops = OperationCounts()
    for op in sorted(first, key=lambda op: (first[op], _CYCLE_ORDER.index(op))):
        ops.add(op, totals[op])
    return states, ops


def encode_window_trace(
    coder: WindowTranscoder, trace: BusTrace, low_bits: int = LOW_BITS
) -> Tuple[BusTrace, OperationCounts]:
    """Reset ``coder`` and encode ``trace`` through the fused kernel.

    The one trace kernel of the window family: the plain
    :class:`WindowTranscoder` discards the counts, the audited
    :class:`HardwareWindowTranscoder` keeps them.
    """
    coder._check_encode_width(trace)
    coder.reset()
    states, ops = _window_kernel(coder, trace.values.tolist(), low_bits)
    out = np.array(states, dtype=np.uint64)
    return BusTrace(out, coder.output_width, coder._encoded_name(trace)), ops


class HardwareWindowTranscoder(WindowTranscoder):
    """Window transcoder that audits its hardware activity.

    After :meth:`encode_trace`, :attr:`ops` holds the operation counts
    and :meth:`trace_energy` converts them to joules for a technology.
    """

    def __init__(
        self,
        technology: Technology,
        size: int = 8,
        width: int = 32,
        low_bits: int = LOW_BITS,
    ):
        self.technology = technology
        self.low_bits = low_bits
        self._low_bits_mask = (1 << low_bits) - 1
        self.circuit = TranscoderCircuit(
            technology, num_entries=size, width=width, low_bits=low_bits
        )
        super().__init__(size, width)

    def reset(self) -> None:
        super().reset()
        self.ops = OperationCounts()

    def _encode_trace_fast(self, trace: BusTrace) -> BusTrace:
        """The fused encode-and-audit kernel; :meth:`encode_value` is its
        oracle, cost for cost and in the order costs are first charged."""
        if not _kernel_models(self, HardwareWindowTranscoder):
            return self.encode_trace_scalar(trace)
        coded, self.ops = encode_window_trace(self, trace, self.low_bits)
        return coded

    def encode_value(self, value: int) -> int:
        pred = self.predictor
        value_masked = value & self._mask
        prev_state = self._pack(self._data_state, self._ctrl_state)
        if value_masked == pred.last:
            # Input latch unchanged: only the LAST detector evaluates.
            self.ops.add(Op.LAST_TRACK)
        else:
            slots = [s for s in pred.contents if s is not None]
            self.ops.add(Op.MATCH_LOW, len(slots))
            low = value_masked & self._low_bits_mask
            self.ops.add(
                Op.MATCH_FULL,
                sum(1 for s in slots if (s & self._low_bits_mask) == low),
            )
            if pred.match(value_masked) is None:
                self.ops.add(Op.SHIFT)
            self.ops.add(Op.LAST_TRACK)
        state = super().encode_value(value)
        self.ops.add(Op.OUTPUT_DRIVE, bin(state ^ prev_state).count("1"))
        self.ops.add(Op.CYCLE)
        return state

    # -- energy -----------------------------------------------------------

    def dynamic_energy(self) -> float:
        """Dynamic energy (J) of the operations counted so far."""
        return self.circuit.energy(self.ops)

    def trace_energy_per_cycle(self, trace: BusTrace) -> float:
        """Average encoder energy per cycle (J) for ``trace``.

        Includes leakage.  Encodes the trace as a side effect.
        """
        if len(trace) == 0:
            return 0.0
        self.encode_trace(trace)
        dynamic = self.dynamic_energy() / len(trace)
        return dynamic + self.circuit.leakage_energy_per_cycle


class HardwareContextTranscoder(ContextTranscoder):
    """Context transcoder with hardware activity auditing.

    Counter flips come from mirrored Johnson counters; swap counts are
    the bubble distances the sorted table actually moves, which is what
    the pending-bit hardware performs over the following cycles.
    """

    def __init__(
        self,
        technology: Technology,
        table_size: int = 28,
        shift_size: int = 8,
        flavor: str = VALUE_BASED,
        divide_period: int = 4096,
        width: int = 32,
    ):
        self.technology = technology
        self.circuit = TranscoderCircuit(
            technology, num_entries=shift_size, width=width, table_size=table_size
        )
        super().__init__(table_size, shift_size, flavor, divide_period, width)

    def reset(self) -> None:
        super().reset()
        self.ops = OperationCounts()
        self._johnson: Dict[Hashable, JohnsonCounter] = {}

    def _tag_low(self, tag: Hashable) -> int:
        value = tag[1] if isinstance(tag, tuple) else tag
        return value & _LOW_MASK

    def encode_value(self, value: int) -> int:
        pred = self.predictor
        ops = self.ops
        value_masked = value & self._mask
        prev_state = self._pack(self._data_state, self._ctrl_state)
        divide_due = (pred._cycle + 1) % pred.divide_period == 0

        if value_masked == pred.last:
            ops.add(Op.LAST_TRACK)
        else:
            tags = [e.tag for e in pred._table if e is not None]
            tags += [e.tag for e in pred._sr if e is not None]
            ops.add(Op.MATCH_LOW, len(tags))
            low = self._tag_low(pred._tag_for(value_masked))
            ops.add(
                Op.MATCH_FULL, sum(1 for t in tags if self._tag_low(t) == low)
            )
            ops.add(Op.LAST_TRACK)

            tag = pred._tag_for(value_masked)
            pos_before = pred._table_index.get(tag)
            if pos_before is not None:
                ops.add(Op.PENDING)
            elif tag in pred._sr_index:
                pass  # shift-register counter increment, charged below
            else:
                ops.add(Op.SHIFT)

            counter = self._johnson.get(tag)
            if counter is None:
                counter = self._johnson[tag] = JohnsonCounter()
            ops.add(Op.COUNT, counter.increment())
            ops.add(Op.COUNTER_COMPARE)  # neighbours re-evaluate the change

            state = super().encode_value(value)

            pos_after = pred._table_index.get(tag)
            if pos_before is not None and pos_after is not None:
                bubble = pos_before - pos_after
                if bubble > 0:
                    ops.add(Op.SWAP, bubble)
                    ops.add(Op.COUNTER_COMPARE, bubble)
            elif pos_before is None and pos_after is not None:
                # Promotion from the shift register into the table.
                ops.add(Op.SWAP, 1 + (pred.table_size - 1 - pos_after))
            self._post_cycle(divide_due)
            ops.add(Op.OUTPUT_DRIVE, bin(state ^ prev_state).count("1"))
            ops.add(Op.CYCLE)
            return state

        state = super().encode_value(value)
        self._post_cycle(divide_due)
        ops.add(Op.OUTPUT_DRIVE, bin(state ^ prev_state).count("1"))
        ops.add(Op.CYCLE)
        return state

    def _post_cycle(self, divide_due: bool) -> None:
        if divide_due:
            flips = sum(c.halve() for c in self._johnson.values())
            self.ops.add(Op.COUNT, flips)
            self.ops.add(Op.DIVIDE)
            # Drop mirrors for tags no longer resident anywhere.
            live = set(self.predictor._table_index) | set(self.predictor._sr_index)
            self._johnson = {t: c for t, c in self._johnson.items() if t in live}

    # -- energy -----------------------------------------------------------

    def dynamic_energy(self) -> float:
        """Dynamic energy (J) of the operations counted so far."""
        return self.circuit.energy(self.ops)

    def trace_energy_per_cycle(self, trace: BusTrace) -> float:
        """Average encoder energy per cycle (J), including leakage."""
        if len(trace) == 0:
            return 0.0
        self.encode_trace(trace)
        dynamic = self.dynamic_energy() / len(trace)
        return dynamic + self.circuit.leakage_energy_per_cycle


def encoder_energy_per_cycle(
    technology: Technology,
    trace: BusTrace,
    size: int = 8,
    table_size: int = 0,
    width: int = 32,
) -> float:
    """Average per-cycle encoder energy (J) for a trace and design.

    ``table_size`` zero selects the window design, non-zero the
    context-based design.
    """
    if table_size:
        coder: HardwareContextTranscoder = HardwareContextTranscoder(
            technology, table_size=table_size, shift_size=size, width=width
        )
        return coder.trace_energy_per_cycle(trace)
    window = HardwareWindowTranscoder(technology, size=size, width=width)
    return window.trace_energy_per_cycle(trace)


def inversion_energy_per_cycle(technology: Technology, trace: BusTrace) -> float:
    """Average per-cycle energy (J) of the base-case inversion coder."""
    if len(trace) == 0:
        return 0.0
    circuit = InversionCircuit(technology, trace.width)
    toggles = trace.transition_vectors()
    total = sum(
        circuit.cycle_energy(bin(int(t)).count("1")) for t in toggles
    )
    return total / len(trace) + circuit.leakage_energy_per_cycle
