"""Transition and coupling accounting (paper equations 1-3).

Given the time series of physical states of a bus, this module computes
the two activity quantities the wire energy model consumes:

* ``tau_n`` — the number of transitions of wire *n* (equation 2);
* ``kappa_n`` — the number of coupling events between wires *n* and
  *n+1* (equation 3): a wire pair couples when their *relative*
  switching differs.  With signed transition indicators
  ``delta in {-1, 0, +1}``, the event count for one cycle is
  ``|delta_n - delta_{n+1}|`` — 0 when both wires move together (the
  inter-wire capacitor sees no voltage change), 1 when exactly one
  moves, 2 when they move in opposite directions (the capacitor swings
  twice the supply).

The weighted sum ``tau + lambda * kappa`` (equation 1) is the
normalised energy measure used throughout the paper's Section 4, where
``lambda`` is the technology's coupling-to-substrate capacitance ratio.

All functions accept either a :class:`~repro.traces.BusTrace` or a raw
``uint64`` array plus width, and are vectorised with NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .._bitops import popcount
from ..traces.trace import BusTrace

__all__ = [
    "ActivityCounts",
    "count_activity",
    "popcount",
    "transition_counts",
    "coupling_counts",
    "weighted_activity",
    "energy_removed",
    "normalized_energy_removed",
]


@dataclass(frozen=True)
class ActivityCounts:
    """Per-wire activity of one bus over one trace.

    Attributes
    ----------
    tau:
        Array of length ``width``: transition count of each wire.
    kappa:
        Array of length ``width - 1``: coupling event count of each
        adjacent wire pair (pair ``n`` couples wires ``n`` and ``n+1``).
    cycles:
        Number of cycles accounted.
    """

    tau: np.ndarray
    kappa: np.ndarray
    cycles: int

    @property
    def total_transitions(self) -> int:
        """Sum of tau over all wires."""
        return int(self.tau.sum())

    @property
    def total_coupling(self) -> int:
        """Sum of kappa over all wire pairs."""
        return int(self.kappa.sum())

    def weighted(self, lam: float) -> float:
        """Normalised energy ``sum(tau) + lam * sum(kappa)`` (eq. 1)."""
        return float(self.total_transitions + lam * self.total_coupling)

    def __add__(self, other: "ActivityCounts") -> "ActivityCounts":
        if self.tau.shape != other.tau.shape:
            raise ValueError("cannot add activity for buses of different widths")
        return ActivityCounts(
            self.tau + other.tau, self.kappa + other.kappa, self.cycles + other.cycles
        )


#: ``_BYTE_BITS[v, b]`` is bit ``b`` of the byte value ``v``: a histogram
#: of one byte lane's values times this table gives that lane's eight
#: per-wire set-bit counts.
_BYTE_BITS = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.int64)


def _column_counts(words: np.ndarray, width: int) -> np.ndarray:
    """How many of the uint64 ``words`` have each of bits ``0..width-1`` set.

    One ``bincount`` per byte lane replaces unpacking the words into a
    ``(cycles, width)`` bit matrix.
    """
    lane_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8).reshape(-1, 8)
    histograms = np.stack(
        [np.bincount(lane_bytes[:, lane], minlength=256) for lane in range((width + 7) // 8)]
    )
    return (histograms @ _BYTE_BITS).ravel()[:width]


def count_activity(trace: BusTrace, quadratic_coupling: bool = False) -> ActivityCounts:
    """Compute tau and kappa for every wire of a trace (eqs. 2-3).

    ``quadratic_coupling`` selects the energy-accurate coupling model
    ``(delta_n - delta_{n+1})**2`` [Sotiriadis & Chandrakasan]: the
    inter-wire capacitor's energy goes with the *square* of its voltage
    swing, so opposite-direction toggles cost 4 instead of the default
    linear model's 2.  The paper's equation (3) is the linear form,
    which every figure here uses unless stated; the quadratic form
    matters when comparing against shield insertion (see
    ``repro.wires.alternatives``).

    Both counts come from three words per cycle on the packed layout:
    the toggled wires ``t``, the pairs where exactly one wire toggles
    (``t ^ t >> 1``), and the pairs that toggle in opposite directions.
    A pair's event count is 0, 1 or ``k`` for those cases, with ``k``
    2 (linear) or 4 (quadratic).
    """
    width = trace.width
    if len(trace) == 0:
        return ActivityCounts(
            np.zeros(width, dtype=np.int64),
            np.zeros(max(width - 1, 0), dtype=np.int64),
            0,
        )
    toggled = trace.transition_vectors()
    up = toggled & trace.values
    down = toggled ^ up
    one = np.uint64(1)
    single = _column_counts(toggled ^ (toggled >> one), width)
    opposite = _column_counts((up & (down >> one)) | (down & (up >> one)), width)
    pairs = max(width - 1, 0)
    kappa = single[:pairs] + (4 if quadratic_coupling else 2) * opposite[:pairs]
    return ActivityCounts(_column_counts(toggled, width), kappa, len(trace))


def transition_counts(trace: BusTrace) -> np.ndarray:
    """Per-wire transition counts tau_n (equation 2)."""
    return count_activity(trace).tau


def coupling_counts(trace: BusTrace) -> np.ndarray:
    """Per-pair coupling counts kappa_n (equation 3)."""
    return count_activity(trace).kappa


def weighted_activity(trace: BusTrace, lam: float = 1.0) -> float:
    """Normalised bus energy ``sum(tau) + lam * sum(kappa)`` (eq. 1).

    This is the paper's Section 4 metric, with the coupling ratio
    ``lam`` defaulting to 1 as the paper assumes unless noted.
    """
    return count_activity(trace).weighted(lam)


def energy_removed(base: ActivityCounts, coded: ActivityCounts, lam: float = 1.0) -> float:
    """Percent of normalised energy removed, from both buses' activity.

    ``100 * (1 - E_coded / E_baseline)`` where both energies use
    equation (1) with coupling ratio ``lam``; a silent baseline removes
    nothing.  The one savings formula: :func:`normalized_energy_removed`
    and the run matrix's cells (which count each stream's baseline
    once) both call it.
    """
    reference = base.weighted(lam)
    if reference == 0.0:
        return 0.0
    return 100.0 * (1.0 - coded.weighted(lam) / reference)


def normalized_energy_removed(
    baseline: BusTrace, coded: BusTrace, lam: float = 1.0
) -> float:
    """Percent of normalised energy removed by a coding scheme.

    ``100 * (1 - E_coded / E_baseline)`` where both energies use
    equation (1) with coupling ratio ``lam``.  The coded bus may be
    wider than the baseline (control wires are part of the cost).
    Positive values mean the code saves energy; negative values mean it
    spends more than it removes — both occur in the paper's figures.
    """
    return energy_removed(count_activity(baseline), count_activity(coded), lam)
