"""Strided prediction (paper Figure 11, Figures 16-17).

A shift register holds the previous bus values.  The stride-``s``
predictor extrapolates the arithmetic sequence formed by every ``s``-th
value: it predicts ``x[t] = x[t-s] + (x[t-s] - x[t-2s])`` (mod 2^W).
Lower strides are assumed more frequent, so they get lower-weight
codewords; the lowest-stride match wins.  LAST-value prediction rides
in slot 0, as everywhere in the paper.

A bank of ``num_strides`` predictors needs ``2 * num_strides`` history
entries; history initialises to zero, which is harmless — early
mispredictions simply fall through to raw transmission.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .errors import CodeIndexError
from .predictive import Predictor, PredictiveTranscoder

__all__ = ["StridePredictor", "StrideTranscoder"]


class StridePredictor(Predictor):
    """Multi-stride value predictor with ``num_strides`` stride slots."""

    def __init__(self, num_strides: int, width: int = 32):
        if num_strides < 1:
            raise ValueError(f"need at least one stride, got {num_strides}")
        self.num_strides = num_strides
        self.width = width
        self.num_codes = 1 + num_strides
        self._mask = (1 << width) - 1
        self.reset()

    def reset(self) -> None:
        self.last = 0
        # history[0] is the most recent value; length 2 * num_strides.
        self._history = [0] * (2 * self.num_strides)

    def _predict_stride(self, stride: int) -> int:
        """Extrapolation of the lane of every ``stride``-th value."""
        newer = self._history[stride - 1]
        older = self._history[2 * stride - 1]
        return (2 * newer - older) & self._mask

    def match(self, value: int) -> Optional[int]:
        if value == self.last:
            return 0
        for stride in range(1, self.num_strides + 1):
            if self._predict_stride(stride) == value:
                return stride
        return None

    def lookup(self, index: int) -> int:
        if index == 0:
            return self.last
        if not 1 <= index <= self.num_strides:
            raise CodeIndexError(
                f"stride slot {index} out of range 0..{self.num_strides}"
            )
        return self._predict_stride(index)

    def update(self, value: int) -> None:
        self.last = value
        self._history.insert(0, value)
        self._history.pop()

    def match_trace(self, values: List[int]) -> List[Optional[int]]:
        """Every value's slot at once: each stride's prediction is a
        lagged compare over the history followed by the values."""
        lag = 2 * self.num_strides
        seq = np.array(self._history[::-1] + list(values), dtype=np.uint64)
        cur = seq[lag:]
        mask = np.uint64(self._mask)
        slots = np.full(len(cur), -1, dtype=np.int64)
        # Highest stride first, so the lowest matching stride is written
        # last and wins; LAST (the previous value) overrides them all.
        for stride in range(self.num_strides, 0, -1):
            newer = seq[lag - stride : len(seq) - stride]
            older = seq[lag - 2 * stride : len(seq) - 2 * stride]
            slots[((newer + newer - older) & mask) == cur] = stride
        slots[seq[lag - 1 : -1] == cur] = 0
        self._history = seq[-lag:][::-1].tolist()
        self.last = self._history[0]
        return [None if slot < 0 else slot for slot in slots.tolist()]


class StrideTranscoder(PredictiveTranscoder):
    """Transcoder driven by a bank of stride predictors (Figure 11)."""

    _trace_kernel = True

    def __init__(self, num_strides: int, width: int = 32):
        super().__init__(StridePredictor(num_strides, width), width)
