"""The prediction-based transcoding framework (paper Figure 2).

A :class:`Predictor` maintains a confidence-ordered set of candidate
values; identical predictor instances run at both ends of the bus, fed
by the same value stream, so they stay synchronised.  The
:class:`PredictiveTranscoder` wraps a predictor into a full transcoder:

* On a prediction hit, the codeword for the matching confidence slot is
  sent *in transition space* (the codeword's set bits are the wires
  that toggle).  Slot 0 — the LAST value — gets the all-zero codeword,
  so repeated values cost nothing, matching the un-encoded bus.
* On a miss, the raw value or its complement is driven onto the data
  wires, whichever causes fewer transitions (the Figure 2 mux).

Two control wires ride alongside the W_B data wires (W_C = W_B + 2)
and select between {prediction, raw, raw-inverted}; their transitions
are charged to the coded bus like any other wire.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional

import numpy as np

from ..traces.trace import BusTrace
from .base import Transcoder
from .codebook import codeword_table
from .errors import DesyncError

__all__ = ["Predictor", "PredictiveTranscoder", "CTRL_CODE", "CTRL_RAW", "CTRL_RAW_INVERTED"]

# Control encodings are Gray-coded (RAW <-> RAW_INVERTED differ in one
# bit).  Control wires sit together above the MSB data wire by default;
# the edge_control option moves them to opposite bus edges (an ablation
# knob — measured, the two placements are within a fraction of a point).
CTRL_CODE = 0b00
CTRL_RAW = 0b01
CTRL_RAW_INVERTED = 0b11

#: Control-wire toggles of switching from each control state (index) to
#: RAW and to RAW_INVERTED.
_TO_RAW = [(c ^ CTRL_RAW).bit_count() for c in range(4)]
_TO_INV = [(c ^ CTRL_RAW_INVERTED).bit_count() for c in range(4)]


class Predictor(ABC):
    """Confidence-ordered value predictor, shared by encoder and decoder.

    Slot 0 is always the LAST transmitted value (the paper folds
    LAST-value prediction into every scheme, coded as "0").  Slots
    1..num_codes-1 belong to the concrete scheme.
    """

    num_codes: int

    @abstractmethod
    def reset(self) -> None:
        """Return to the power-on state."""

    @abstractmethod
    def match(self, value: int) -> Optional[int]:
        """The smallest slot index predicting ``value``, or ``None``."""

    @abstractmethod
    def lookup(self, index: int) -> int:
        """The value predicted at slot ``index`` (inverse of match)."""

    @abstractmethod
    def update(self, value: int) -> None:
        """Observe the value actually transmitted this cycle."""

    def match_trace(self, values: List[int]) -> List[Optional[int]]:
        """:meth:`match` then :meth:`update` for each value in turn.

        Returns every value's slot and leaves the predictor as if it had
        observed them all.  The slots depend on the values alone, never
        on the wires, which is what lets one trace kernel serve every
        predictive family.  Overrides must return the same slots, keep
        their state in Python ``int``s and write the final state back.
        """
        match, update = self.match, self.update
        slots: List[Optional[int]] = []
        for value in values:
            slots.append(match(value))
            update(value)
        return slots


def _kernel_models(coder: "PredictiveTranscoder", cls: type) -> bool:
    """True when a trace kernel reproduces ``coder``'s per-cycle loop.

    The kernels model the default configuration of exactly ``cls``;
    ablation flags and subclasses (which may override the per-cycle
    methods, e.g. to audit operations) take the scalar loop.
    """
    return type(coder) is cls and coder.silent_last and not coder.edge_control


class PredictiveTranscoder(Transcoder):
    """Transcoder built around any :class:`Predictor` (Figure 2).

    Parameters
    ----------
    predictor:
        The prediction FSM.  A single instance serves both directions
        because :meth:`encode_trace`/:meth:`decode_trace` reset it and
        the decoder reconstructs the exact input stream.
    width:
        Data bus width W_B.  The physical bus is W_B + 2 wires.
    """

    def __init__(
        self,
        predictor: Predictor,
        width: int = 32,
        silent_last: bool = True,
        edge_control: bool = False,
    ):
        """``silent_last`` (on by default) keeps the control wires
        untouched on a LAST repeat — measurably the larger lever.
        ``edge_control`` (off by default) moves the control wires to
        opposite bus edges; measured on the workload suite it is a
        wash, because the LSB data wire it then neighbours is the most
        active wire on the bus (see
        benchmarks/test_ablation_control_wires.py)."""
        if predictor.num_codes < 1:
            raise ValueError("predictor must expose at least the LAST slot")
        self.input_width = width
        self.output_width = width + 2
        self.predictor = predictor
        self.silent_last = silent_last
        self.edge_control = edge_control
        self._mask = (1 << width) - 1
        self._codewords: List[int] = codeword_table(predictor.num_codes, width)
        self._code_to_index: Dict[int, int] = {
            cw: i for i, cw in enumerate(self._codewords)
        }
        self.reset()

    def reset(self) -> None:
        self.predictor.reset()
        self._data_state = 0
        self._ctrl_state = CTRL_CODE
        self._decode_cycle = 0  # decode calls since reset, for error reports

    # -- helpers ---------------------------------------------------------
    #
    # Default wire order (LSB..MSB): data wires 0..W-1, ctrl bits 0-1.
    # With edge_control: ctrl bit 0, data 0..W-1, ctrl bit 1.

    def _pack(self, data: int, ctrl: int) -> int:
        if not self.edge_control:
            return (ctrl << self.input_width) | data
        return ((ctrl >> 1) << (self.input_width + 1)) | (data << 1) | (ctrl & 1)

    def _unpack(self, state: int) -> "tuple[int, int]":
        if not self.edge_control:
            return state & self._mask, state >> self.input_width
        data = (state >> 1) & self._mask
        ctrl = ((state >> (self.input_width + 1)) << 1) | (state & 1)
        return data, ctrl

    def _ctrl_cost(self, ctrl: int) -> int:
        return bin(self._ctrl_state ^ ctrl).count("1")

    # -- trace kernel ------------------------------------------------------

    #: True in the body of a family class whose per-cycle loop the trace
    #: kernel below models.  It is read from the exact class only, so a
    #: subclass (which may override the per-cycle methods, e.g. to audit
    #: operations) takes the scalar loop unless it sets it again.
    _trace_kernel = False

    def _encode_trace_fast(self, trace: BusTrace) -> BusTrace:
        """The trace kernel shared by the predictive families.

        The predictor's slots depend only on the values, so
        :meth:`Predictor.match_trace` produces them all first; one loop
        then runs the Figure 2 wire FSM with its state in locals and
        writes the final state back.  It models the default
        configuration of a class that sets ``_trace_kernel``; anything
        else runs :meth:`encode_trace_scalar`, which is the oracle.
        """
        exact = vars(type(self)).get("_trace_kernel", False)
        if not (exact and self.silent_last and not self.edge_control):
            return self.encode_trace_scalar(trace)
        self._check_encode_width(trace)
        self.reset()
        values = trace.values.tolist()
        slots = self.predictor.match_trace(values)
        width, mask, codewords = self.input_width, self._mask, self._codewords
        data, ctrl = self._data_state, self._ctrl_state
        states: List[int] = []
        emit = states.append
        for value, index in zip(values, slots):
            if index is None:
                # Raw or inverted, whichever toggles fewer wires.  The
                # oracle's rewrite of a raw word that would leave the bus
                # unchanged never fires: under a raw control state the
                # data wires show LAST or its complement, and a miss is
                # not LAST.
                toggles = (data ^ value).bit_count()
                if width - toggles + _TO_INV[ctrl] < toggles + _TO_RAW[ctrl]:
                    data, ctrl = value ^ mask, CTRL_RAW_INVERTED
                else:
                    data, ctrl = value, CTRL_RAW
            elif index:
                data, ctrl = data ^ codewords[index], CTRL_CODE
            emit((ctrl << width) | data)
        self._data_state, self._ctrl_state = data, ctrl
        out = np.array(states, dtype=np.uint64)
        return BusTrace(out, self.output_width, self._encoded_name(trace))

    # -- per-cycle codec ---------------------------------------------------

    def encode_value(self, value: int) -> int:
        value &= self._mask
        index = self.predictor.match(value)
        if index == 0 and self.silent_last:
            # LAST value: leave the whole bus — data and control —
            # untouched.  A completely silent bus *is* the code for
            # "repeat", whatever mode the control wires happen to show.
            data, ctrl = self._data_state, self._ctrl_state
        elif index is not None:
            data = self._data_state ^ self._codewords[index]
            ctrl = CTRL_CODE
        else:
            inverted = ~value & self._mask
            cost_raw = bin(self._data_state ^ value).count("1") + self._ctrl_cost(CTRL_RAW)
            cost_inv = bin(self._data_state ^ inverted).count("1") + self._ctrl_cost(
                CTRL_RAW_INVERTED
            )
            if cost_inv < cost_raw:
                data, ctrl = inverted, CTRL_RAW_INVERTED
            else:
                data, ctrl = value, CTRL_RAW
            if (
                self.silent_last
                and data == self._data_state
                and ctrl == self._ctrl_state
            ):
                # A raw word that leaves the bus unchanged would be
                # indistinguishable from the silent LAST code; the other
                # raw polarity always changes something.
                if ctrl == CTRL_RAW:
                    data, ctrl = inverted, CTRL_RAW_INVERTED
                else:
                    data, ctrl = value, CTRL_RAW
        self.predictor.update(value)
        self._data_state = data
        self._ctrl_state = ctrl
        return self._pack(data, ctrl)

    def decode_state(self, state: int) -> int:
        data, ctrl = self._unpack(state)
        cycle = self._decode_cycle
        try:
            if self.silent_last and data == self._data_state and ctrl == self._ctrl_state:
                # Silent bus: the LAST value repeats.
                value = self.predictor.lookup(0)
            elif ctrl == CTRL_CODE:
                codeword = data ^ self._data_state
                try:
                    index = self._code_to_index[codeword]
                except KeyError:
                    raise DesyncError(
                        f"received unassigned codeword {codeword:#x}; "
                        f"encoder/decoder out of sync"
                    ) from None
                value = self.predictor.lookup(index)
            elif ctrl == CTRL_RAW:
                value = data
            elif ctrl == CTRL_RAW_INVERTED:
                value = ~data & self._mask
            else:
                raise DesyncError(f"invalid control state {ctrl:#b}")
        except DesyncError as exc:
            # Predictors know neither the coder nor the cycle; add both.
            raise exc.annotate(coder=type(self).__name__, cycle=cycle)
        self.predictor.update(value)
        self._data_state = data
        self._ctrl_state = ctrl
        self._decode_cycle = cycle + 1
        return value
