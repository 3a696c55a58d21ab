"""Deterministic, seeded fault models for the physical wire stream.

Each model perturbs the W_C-bit wire state the encoder drove in a given
cycle, producing the state the *decoder* actually samples.  Models are
pure FSMs of ``(seed, cycle)``: after :meth:`FaultModel.reset` the same
model produces the same perturbations for the same cycle sequence, so
every cell of a ``faults`` run (:mod:`repro.runs`) is exactly
reproducible.

The taxonomy follows the upsets long buses actually suffer:

* :class:`BitFlips` — independent single-bit upsets at a configurable
  bit-error rate (BER), the classic transient/timing-error model (cf.
  Kaul et al., DVS with timing-error correction on buses).
* :class:`StuckAt` — a wire shorted to 0/1 from some cycle on: a hard
  (permanent) fault, against which periodic recovery can never stick.
* :class:`Burst` — multi-cycle, multi-wire glitch clusters standing in
  for crosstalk events: a burst flips a span of adjacent wires for a
  few consecutive cycles.
* :class:`Droop` — periodic windows of elevated BER modelling supply
  droop, during which the whole bus is weakly driven.
* :class:`Scripted` — exact flips at exact cycles, for tests.
* :class:`Compose` — stacks any of the above.

A :class:`FaultyChannel` applies a model between any encoder/decoder
pair and accounts what it did (cycles touched, bits flipped), so
experiments can report injected-fault statistics next to the energy
numbers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..traces.trace import BusTrace

__all__ = [
    "FaultModel",
    "NoFaults",
    "BitFlips",
    "StuckAt",
    "Burst",
    "Droop",
    "Scripted",
    "Compose",
    "FaultyChannel",
]


class FaultModel(ABC):
    """A deterministic perturbation of the wire-state stream."""

    @abstractmethod
    def reset(self) -> None:
        """Return to the power-on state (reseeds any RNG)."""

    @abstractmethod
    def perturb(self, cycle: int, state: int, width: int) -> int:
        """The wire state the decoder samples in ``cycle``.

        ``cycle`` must advance monotonically between resets; ``width``
        is the number of physical wires exposed to faults.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class NoFaults(FaultModel):
    """The ideal channel: every state arrives untouched."""

    def reset(self) -> None:
        pass

    def perturb(self, cycle: int, state: int, width: int) -> int:
        return state


class BitFlips(FaultModel):
    """Independent bit flips at a fixed bit-error rate.

    Every (cycle, wire) sample flips independently with probability
    ``ber``.  Flip positions are drawn by geometric skip sampling over
    the flattened bit stream, so cost is proportional to the number of
    faults, not the number of cycles — a 1e-6 BER sweep over a 60k-cycle
    trace draws a handful of variates instead of two million.
    """

    def __init__(self, ber: float, seed: int = 0):
        if not 0.0 <= ber < 1.0:
            raise ValueError(f"ber must be in [0, 1), got {ber}")
        self.ber = float(ber)
        self.seed = int(seed)
        self.reset()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        # Global bit index (cycle * width + wire) of the next flip.
        self._next = self._draw() if self.ber > 0.0 else None

    def _draw(self) -> int:
        # Geometric "number of trials to first success", >= 1.
        return int(self._rng.geometric(self.ber))

    def perturb(self, cycle: int, state: int, width: int) -> int:
        if self._next is None:
            return state
        base = cycle * width
        # Positions are consumed strictly in order; catch up if the
        # caller skipped cycles (it should not, but stay safe).
        while self._next <= base:
            self._next += self._draw()
        end = base + width
        while self._next <= end:
            wire = self._next - base - 1
            state ^= 1 << wire
            self._next += self._draw()
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BitFlips(ber={self.ber:g}, seed={self.seed})"


class StuckAt(FaultModel):
    """One wire stuck at a constant level from ``start`` onwards."""

    def __init__(self, wire: int, value: int, start: int = 0):
        if wire < 0:
            raise ValueError(f"wire must be >= 0, got {wire}")
        if value not in (0, 1):
            raise ValueError(f"stuck-at value must be 0 or 1, got {value}")
        self.wire = wire
        self.value = value
        self.start = start

    def reset(self) -> None:
        pass

    def perturb(self, cycle: int, state: int, width: int) -> int:
        if cycle < self.start or self.wire >= width:
            return state
        if self.value:
            return state | (1 << self.wire)
        return state & ~(1 << self.wire)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StuckAt(wire={self.wire}, value={self.value}, start={self.start})"


class Burst(FaultModel):
    """Crosstalk-style glitch clusters.

    A burst starts in any cycle with probability ``rate``; it flips
    ``span`` adjacent wires (at a seeded random base position) for
    ``length`` consecutive cycles.  Bursts do not overlap — a new one
    cannot start while one is active.
    """

    def __init__(self, rate: float, span: int = 3, length: int = 2, seed: int = 0):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {rate}")
        if span < 1:
            raise ValueError(f"span must be >= 1, got {span}")
        if length < 1:
            raise ValueError(f"length must be >= 1, got {length}")
        self.rate = float(rate)
        self.span = span
        self.length = length
        self.seed = int(seed)
        self.reset()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed ^ 0xB5E57)
        self._remaining = 0  # cycles left in the active burst
        self._mask = 0

    def perturb(self, cycle: int, state: int, width: int) -> int:
        if self._remaining > 0:
            self._remaining -= 1
            return state ^ self._mask
        if self.rate > 0.0 and self._rng.random() < self.rate:
            span = min(self.span, width)
            base = int(self._rng.integers(0, max(width - span, 0) + 1))
            self._mask = ((1 << span) - 1) << base
            self._remaining = self.length - 1
            return state ^ self._mask
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Burst(rate={self.rate:g}, span={self.span}, "
            f"length={self.length}, seed={self.seed})"
        )


class Droop(FaultModel):
    """Periodic supply-droop windows of elevated bit-error rate.

    Outside the droop window the channel is clean; inside (every
    ``period`` cycles, for ``duration`` cycles) every bit flips with
    probability ``ber`` — the whole bus is weakly driven.
    """

    def __init__(self, period: int, duration: int, ber: float, seed: int = 0):
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        if not 1 <= duration <= period:
            raise ValueError(f"duration must be 1..period, got {duration}")
        if not 0.0 <= ber < 1.0:
            raise ValueError(f"ber must be in [0, 1), got {ber}")
        self.period = period
        self.duration = duration
        self.ber = float(ber)
        self.seed = int(seed)
        self.reset()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed ^ 0xD400)

    def perturb(self, cycle: int, state: int, width: int) -> int:
        if self.ber == 0.0 or (cycle % self.period) >= self.duration:
            return state
        flips = self._rng.random(width) < self.ber
        if flips.any():
            mask = 0
            for wire in np.flatnonzero(flips):
                mask |= 1 << int(wire)
            state ^= mask
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Droop(period={self.period}, duration={self.duration}, "
            f"ber={self.ber:g}, seed={self.seed})"
        )


class Scripted(FaultModel):
    """Exact XOR masks at exact cycles — the unit-test workhorse."""

    def __init__(self, flips: Dict[int, int]):
        self.flips = {int(c): int(m) for c, m in flips.items()}

    def reset(self) -> None:
        pass

    def perturb(self, cycle: int, state: int, width: int) -> int:
        mask = self.flips.get(cycle, 0)
        return state ^ (mask & ((1 << width) - 1))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Scripted({len(self.flips)} cycles)"


class Compose(FaultModel):
    """Apply several models in sequence (later models see earlier flips)."""

    def __init__(self, *models: FaultModel):
        if not models:
            raise ValueError("Compose needs at least one model")
        self.models = list(models)

    def reset(self) -> None:
        for model in self.models:
            model.reset()

    def perturb(self, cycle: int, state: int, width: int) -> int:
        for model in self.models:
            state = model.perturb(cycle, state, width)
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(m) for m in self.models)
        return f"Compose({inner})"


class FaultyChannel:
    """A fault model plus bookkeeping, sitting between the two FSMs.

    Wraps a :class:`FaultModel` and records what it actually did:
    ``injected_cycles`` (cycles whose state changed) and
    ``flipped_bits`` (total wire upsets).  ``None`` as the model means
    the ideal channel.
    """

    def __init__(self, model: Optional[FaultModel] = None):
        self.model = model if model is not None else NoFaults()
        self.reset()

    def reset(self) -> None:
        self.model.reset()
        self.injected_cycles = 0
        self.flipped_bits = 0

    def transmit(self, cycle: int, state: int, width: int) -> int:
        """One cycle across the channel; returns the received state."""
        received = self.model.perturb(cycle, state, width)
        if received != state:
            self.injected_cycles += 1
            self.flipped_bits += bin(received ^ state).count("1")
        return received

    def apply(self, phys: BusTrace) -> BusTrace:
        """Whole-trace convenience: perturb every state of ``phys``.

        Resets the channel first so the result is a pure function of
        the input trace (mirroring :meth:`Transcoder.encode_trace`).
        """
        self.reset()
        out = np.empty(len(phys), dtype=np.uint64)
        for cycle, state in enumerate(phys.values):
            out[cycle] = self.transmit(cycle, int(state), phys.width)
        name = f"{phys.name}|{self.model!r}" if phys.name else repr(self.model)
        return BusTrace(out, phys.width, name, phys.initial)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultyChannel({self.model!r})"
