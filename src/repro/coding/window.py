"""Window-based transcoding (paper Figures 18-19 and the Section 5 layout).

The predictor is a dictionary of the last ``size`` *unique* bus values,
held in a pointer-based shift register: a miss overwrites the slot at
the head pointer (the oldest entry), so resident entries never move and
each keeps a stable codeword — exactly the energy-saving layout trick
of the paper's Figure 30.  A hit sends the slot's codeword; repeats of
the previous value ride the LAST slot (code 0).

This is the scheme the paper ultimately builds in silicon (the 8-entry
0.13 um layout of Figure 33): nearly all of the context-based design's
savings at a fraction of the complexity.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..traces.trace import BusTrace
from .errors import CodeIndexError, DesyncError
from .predictive import Predictor, PredictiveTranscoder, _kernel_models

__all__ = ["WindowPredictor", "WindowTranscoder"]


class WindowPredictor(Predictor):
    """Pointer-based shift register of the last ``size`` unique values."""

    def __init__(self, size: int, width: int = 32):
        if size < 1:
            raise ValueError(f"window size must be >= 1, got {size}")
        self.size = size
        self.width = width
        self.num_codes = 1 + size
        self.reset()

    def reset(self) -> None:
        self.last = 0
        # Slot contents; None marks a never-written slot (power-on).
        self._slots: List[Optional[int]] = [None] * self.size
        self._head = 0  # next slot to overwrite on a miss
        self._index: Dict[int, int] = {}  # value -> slot

    def match(self, value: int) -> Optional[int]:
        if value == self.last:
            return 0
        slot = self._index.get(value)
        return None if slot is None else 1 + slot

    def lookup(self, index: int) -> int:
        if index == 0:
            return self.last
        slot = index - 1
        if not 0 <= slot < self.size:
            raise CodeIndexError(f"window slot {slot} out of range 0..{self.size - 1}")
        value = self._slots[slot]
        if value is None:
            raise DesyncError(f"window slot {slot} is empty; streams out of sync")
        return value

    def update(self, value: int) -> None:
        self.last = value
        if value in self._index:
            return
        # Only at power-on can a LAST hit land here: LAST holds 0 before
        # any value was seen, so a leading 0 is inserted although it hit.
        # The hardware audit charges no SHIFT for that write -- a known
        # quirk, kept because recorded Table 3 values depend on it.
        old = self._slots[self._head]
        if old is not None:
            del self._index[old]
        self._slots[self._head] = value
        self._index[value] = self._head
        self._head = (self._head + 1) % self.size

    @property
    def contents(self) -> List[Optional[int]]:
        """Current slot contents (for inspection and tests)."""
        return list(self._slots)


class WindowTranscoder(PredictiveTranscoder):
    """The paper's Window-based transcoder over a ``width``-bit bus.

    Trace-level encodes run the fused per-cycle kernel shared with the
    hardware-audited subclass (its operation counts are discarded here);
    :meth:`encode_trace_scalar` is the kernel's oracle.
    """

    def __init__(self, size: int = 8, width: int = 32):
        super().__init__(WindowPredictor(size, width), width)

    def _encode_trace_fast(self, trace: BusTrace) -> BusTrace:
        # The kernel lives with the audit it fuses; imported here because
        # the hardware package builds on this module.
        from ..hardware.transcoder_hw import encode_window_trace

        if not _kernel_models(self, WindowTranscoder):
            return self.encode_trace_scalar(trace)
        return encode_window_trace(self, trace)[0]
