"""Finite-context-method (FCM) value prediction transcoding.

The paper grounds its approach in the value-prediction literature
[Sazeides & Smith; Lipasti et al.]: "we can run the same predictor on
either end of the bus".  The strided and dictionary predictors of
Section 4.3 are special cases; this module adds the classic *two-level*
FCM predictor from that literature as a further transcoder:

* level 1 hashes the last ``order`` transmitted values into a context;
* level 2 maps each context to the value that followed it last time.

A hit means the bus value was an exact function of recent history —
the pattern-repetition locality that neither LAST, strides, nor a
recency dictionary capture (e.g. periodic sequences longer than the
window).  On a hit the context slot's codeword is sent; LAST rides in
slot 0 as always, and misses fall back to raw/raw-inverted.

The context table is indexed by hash, so a single codeword slot serves
each table row; encoder and decoder build identical tables from the
transmitted stream, keeping the pair synchronous.
"""

from __future__ import annotations

from typing import List, Optional

from .errors import CodeIndexError, DesyncError
from .predictive import Predictor, PredictiveTranscoder

__all__ = ["FCMPredictor", "FCMTranscoder"]

_HASH_MULTIPLIER = 2654435761  # Knuth's multiplicative hash constant


class FCMPredictor(Predictor):
    """Two-level finite-context-method predictor.

    Parameters
    ----------
    order:
        History length hashed into the context (2-4 typical).
    table_bits:
        log2 of the context-table rows; each row holds one predicted
        value and owns one codeword slot.
    width:
        Bus width in bits.
    """

    def __init__(self, order: int = 2, table_bits: int = 4, width: int = 32):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if not 1 <= table_bits <= 8:
            raise ValueError(f"table_bits must be 1..8, got {table_bits}")
        self.order = order
        self.table_bits = table_bits
        self.table_size = 1 << table_bits
        self.width = width
        self.num_codes = 1 + self.table_size
        self._mask = (1 << width) - 1
        self.reset()

    def reset(self) -> None:
        self.last = 0
        self._history: List[int] = [0] * self.order
        self._table: List[Optional[int]] = [None] * self.table_size

    def _context(self) -> int:
        mixed = 0
        for value in self._history:
            mixed = (mixed * 31 + value) & 0xFFFFFFFF
        return ((mixed * _HASH_MULTIPLIER) >> (32 - self.table_bits)) & (
            self.table_size - 1
        )

    def match(self, value: int) -> Optional[int]:
        if value == self.last:
            return 0
        row = self._context()
        if self._table[row] == value:
            return 1 + row
        return None

    def lookup(self, index: int) -> int:
        if index == 0:
            return self.last
        row = index - 1
        if not 0 <= row < self.table_size:
            raise CodeIndexError(f"context row {row} out of range 0..{self.table_size - 1}")
        value = self._table[row]
        if value is None:
            raise DesyncError(f"context row {row} is empty; streams out of sync")
        return value

    def update(self, value: int) -> None:
        self._table[self._context()] = value
        self._history.pop(0)
        self._history.append(value)
        self.last = value

    def match_trace(self, values: List[int]) -> List[Optional[int]]:
        """The match/update loop with its state in locals.

        The level-1 mix is a base-31 polynomial of the history mod
        2**32, so it slides by one value in O(1) instead of being
        rehashed from the whole history every cycle.
        """
        table, history, last = self._table, self._history, self.last
        shift, rows = 32 - self.table_bits, self.table_size - 1
        oldest_weight = pow(31, self.order - 1, 1 << 32)
        mixed = 0
        for value in history:
            mixed = (mixed * 31 + value) & 0xFFFFFFFF
        slots: List[Optional[int]] = []
        emit = slots.append
        for value in values:
            row = ((mixed * _HASH_MULTIPLIER) >> shift) & rows
            if value == last:
                emit(0)
            elif table[row] == value:
                emit(1 + row)
            else:
                emit(None)
            table[row] = value
            mixed = ((mixed - history.pop(0) * oldest_weight) * 31 + value) & 0xFFFFFFFF
            history.append(value)
            last = value
        self.last = last
        return slots


class FCMTranscoder(PredictiveTranscoder):
    """Transcoder driven by a two-level FCM value predictor."""

    _trace_kernel = True

    def __init__(self, order: int = 2, table_bits: int = 4, width: int = 32):
        super().__init__(FCMPredictor(order, table_bits, width), width)
