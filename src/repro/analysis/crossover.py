"""Total-energy ratios and crossover lengths (paper Figs 35-38, Table 3).

The decisive question of the paper: at what wire length does the
transcoder *pay for itself*?  For a trace and technology,

    ratio(L) = (E_wire_coded(L) + E_encoder + E_decoder) / E_wire_raw(L)

where the wire energies scale linearly with L (their tau/kappa counts
are computed once) and the transcoder energy is per-cycle, independent
of L.  The **crossover length** is the L where the ratio reaches 1;
beyond it the transcoder saves net energy.  The decoder shares the
encoder's design and is charged the same energy, per Section 5.4.

Everything expensive (encoding the trace, counting activity, auditing
the hardware ops) happens once per :class:`CrossoverAnalysis`, so
sweeping lengths and bisecting for the crossover are cheap.  None of it
depends on the process node, so :meth:`CrossoverAnalysis.with_technology`
prices the same artifacts at another node without redoing any of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..energy.accounting import ActivityCounts, count_activity
from ..hardware.circuits import TranscoderCircuit
from ..hardware.operations import OperationCounts
from ..hardware.transcoder_hw import HardwareWindowTranscoder
from ..traces.trace import BusTrace
from ..wires.technology import Technology
from ..wires.wire_model import WireModel

__all__ = ["CrossoverAnalysis", "median_crossover", "window_artifacts"]


def window_artifacts(trace: BusTrace, size: int) -> "tuple[OperationCounts, BusTrace]":
    """Technology-independent window-encode artifacts for one trace.

    One hardware-audited encode yields both the coded wire-state trace
    and the elementary operation counts; neither depends on the process
    node (the technology only prices the operations), so Table 3 needs
    this exactly once per ``(trace, size)`` instead of once per
    ``(technology, size, trace)``.  The result is also what the
    persistent cache stores between runs.
    """
    from ..wires.technology import TECHNOLOGIES  # any node: counts are identical

    hw = HardwareWindowTranscoder(TECHNOLOGIES[0], size, trace.width)
    coded = hw.encode_trace(trace)
    return hw.ops, coded

#: The decoder holds the same dictionary but performs *indexed reads*
#: (the received codeword names the entry) instead of the encoder's
#: associative CAM search, and raw words insert unconditionally — a raw
#: word always means the encoder missed.  Its clocking, shifting and
#: output stages remain, so it is charged this fraction of the encoder.
DECODER_ENERGY_FACTOR = 0.4


@dataclass
class CrossoverAnalysis:
    """Total-energy analysis of the window transcoder on one trace.

    Parameters
    ----------
    trace:
        The bus value trace (un-encoded).
    technology:
        Process node.
    size:
        Window (shift register) entries.
    buffered:
        Whether the bus wires carry repeaters.
    """

    trace: BusTrace
    technology: Technology
    size: int = 8
    buffered: bool = True
    decoder_factor: float = DECODER_ENERGY_FACTOR
    #: Optional precomputed artifacts (see :func:`window_artifacts`):
    #: supplying them skips the expensive hardware-audited encode, which
    #: is how Table 3 shares one encode across technologies and how the
    #: persistent cache accelerates warm runs.  When omitted they are
    #: computed here, exactly as before.
    ops: Optional[OperationCounts] = None
    coded: Optional[BusTrace] = None
    #: Optional precomputed wire activity of ``trace`` and ``coded``,
    #: technology-independent like the artifacts above.
    base_counts: Optional[ActivityCounts] = field(default=None, repr=False)
    coded_counts: Optional[ActivityCounts] = field(default=None, repr=False)

    _transcoder_per_cycle: float = field(init=False, repr=False)
    #: ``(sum(tau), sum(kappa))`` of the raw and of the coded bus.
    _totals: Tuple[Tuple[int, int], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.ops is None or self.coded is None:
            self.ops, self.coded = window_artifacts(self.trace, self.size)
        circuit = TranscoderCircuit(
            self.technology, num_entries=self.size, width=self.trace.width
        )
        if len(self.trace) == 0:
            encoder_epc = 0.0
        else:
            encoder_epc = (
                circuit.energy(self.ops) / len(self.trace)
                + circuit.leakage_energy_per_cycle
            )
        if self.base_counts is None:
            self.base_counts = count_activity(self.trace)
        if self.coded_counts is None:
            self.coded_counts = count_activity(self.coded)
        self._transcoder_per_cycle = encoder_epc * (1.0 + self.decoder_factor)
        self._totals = tuple(
            (counts.total_transitions, counts.total_coupling)
            for counts in (self.base_counts, self.coded_counts)
        )

    def with_technology(self, technology: Technology) -> "CrossoverAnalysis":
        """The same trace, encode and wire activity priced at ``technology``."""
        return replace(self, technology=technology)

    # -- energies ---------------------------------------------------------

    @property
    def cycles(self) -> int:
        """Trace length in cycles."""
        return len(self.trace)

    @property
    def transcoder_energy(self) -> float:
        """Encoder + decoder energy (J) over the whole trace."""
        return self._transcoder_per_cycle * self.cycles

    def _wire_energies(self, length_mm: float) -> Tuple[float, float]:
        """Raw and coded wire energy (J) at ``length_mm``, as BusEnergyModel sums it."""
        wire = WireModel(self.technology, length_mm, self.buffered)
        e_self, e_coupling = wire.self_energy_per_transition, wire.coupling_energy_per_event
        (raw_t, raw_k), (coded_t, coded_k) = self._totals
        return e_self * raw_t + e_coupling * raw_k, e_self * coded_t + e_coupling * coded_k

    def wire_energy(self, length_mm: float, coded: bool) -> float:
        """Wire energy (J) at ``length_mm`` for the raw or coded bus."""
        return self._wire_energies(length_mm)[coded]

    def ratio(self, length_mm: float) -> float:
        """Total coded energy over un-encoded energy (Figures 35-36)."""
        base, coded = self._wire_energies(length_mm)
        if base == 0.0:
            return float("inf")
        return (coded + self.transcoder_energy) / base

    def curve(self, lengths_mm: Sequence[float]) -> np.ndarray:
        """Ratio evaluated over many lengths."""
        return np.array([self.ratio(length) for length in lengths_mm])

    def crossover_length(
        self, lo: float = 0.1, hi: float = 100.0, tolerance: float = 1e-3
    ) -> Optional[float]:
        """Wire length (mm) where the ratio crosses 1, or None.

        None means the transcoder never breaks even below ``hi`` —
        either the coding removes too little activity (the paper's
        memory-bus result for several benchmarks) or it *adds*
        activity, making the ratio > 1 at every length.
        """
        if self.ratio(hi) >= 1.0:
            return None
        if self.ratio(lo) < 1.0:
            return lo
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if self.ratio(mid) >= 1.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def median_crossover(
    analyses: Iterable[CrossoverAnalysis],
    never_value: float = 100.0,
) -> float:
    """Median crossover length over many benchmarks (Table 3 cells).

    Benchmarks that never break even contribute ``never_value`` so they
    drag the median toward long lengths instead of vanishing.
    """
    lengths: List[float] = []
    for analysis in analyses:
        crossover = analysis.crossover_length()
        lengths.append(never_value if crossover is None else crossover)
    if not lengths:
        raise ValueError("no analyses supplied")
    return float(np.median(lengths))
