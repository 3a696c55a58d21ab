"""Energy accounting: transition/coupling counts and absolute bus energy."""

from .accounting import (
    ActivityCounts,
    count_activity,
    coupling_counts,
    energy_removed,
    normalized_energy_removed,
    popcount,
    transition_counts,
    weighted_activity,
)
from .bus_energy import BusEnergyModel

__all__ = [
    "ActivityCounts",
    "BusEnergyModel",
    "count_activity",
    "coupling_counts",
    "energy_removed",
    "normalized_energy_removed",
    "popcount",
    "transition_counts",
    "weighted_activity",
]
