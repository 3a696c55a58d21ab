"""Analytic circuit energy/area/delay model (paper Section 5.4, Table 2).

The paper extracts its layouts to SPICE netlists and measures the
energy of each elementary operation once, then multiplies by operation
counts (Figure 34; validated to within 6 % of full netlist simulation).
We reproduce the same methodology with the SPICE step replaced by an
analytic switched-capacitance model: every operation's energy is
``1/2 * Vdd^2 * C_switched``, with the switched capacitance built from
per-technology gate/junction capacitances and documented effective
transistor widths, times a single layout overhead factor covering
clocking, control and parasitic wiring.

Calibration targets (stated next to the constants that achieve them):

* Table 2, 0.13 um window encoder: ~1.39 pJ per cycle of average
  operation energy on register-bus traffic, 12400 um^2 area, 3.1 ns
  data-to-bus delay, 0.00088 pJ leakage per cycle;
* Table 2 scaling to 0.10/0.07 um (area scales with feature size
  squared — exactly the paper's first-order scaling).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..wires.technology import TECH_013, Technology
from .cam import LOW_BITS
from .operations import Op, OperationCounts

__all__ = ["TranscoderCircuit", "InversionCircuit"]

# Effective switching widths (um, at 0.13 um; scaled linearly with
# feature size) for the cells involved in each operation.  They are
# coarse but physically-shaped: a compare bit is two series transistors'
# junctions, a latch bit write moves ~6 small transistors, etc.
_W_COMPARE_BIT = 0.45  # um switched per compared bit (junctions + shared-line share)
_W_LATCH_BIT = 2.2  # um per latch/CAM bit written
_W_FF_BIT = 2.8  # um per flip-flop bit toggled (counter ring, pending)
_W_POINTER_BIT = 0.8  # um per pointer-vector bit
_W_DRIVER = 8.0  # um per output wire driven to a new value (drives the
#   output latch, transition-coder XOR and bus predriver)
_W_CLOCK_PER_BIT = 0.55  # um of clock load per clocked bit per cycle
#   (clock distribution dominates idle-cycle power in the real layout)

#: Measured-layout overhead (clock buffers, control, routing parasitics)
#: on top of the bare cell capacitances.  Single calibration knob for
#: the Table 2 op-energy row.
_LAYOUT_FACTOR = 6.9

#: BPTM-projection correction.  The paper's 0.10/0.07 um numbers come
#: from scaling the extracted 0.13 um netlist with BPTM parasitics,
#: which shrink much more slowly than constant-field scaling (Table 2:
#: 1.39 -> 1.07 -> 0.55 pJ).  These factors reproduce that flatter
#: trajectory on top of our linearly-scaled cell capacitances.
_PROJECTION_FACTOR = {"0.13um": 1.0, "0.10um": 1.37, "0.07um": 1.83}

#: Area per transistor at 0.13 um (um^2), calibrated so the 8-entry
#: window encoder (~4.5k transistors) occupies ~12400 um^2 (Table 2);
#: scales quadratically with feature size, like the paper's estimates.
_AREA_PER_TRANSISTOR_013 = 3.82

#: Match-path delay: two serial 16-bit NAND trees dominate, roughly
#: this many minimum-inverter time constants per matched bit.
_DELAY_TAU_PER_BIT = 3.4

#: Effective average transistor width, as a multiple of the minimum.
_AVG_WIDTH_FACTOR = 1.5

# Transistor budgets per cell (for area, leakage and sanity checks).
_T_CAM_BIT = 10  # 6T storage + 4T compare
_T_LATCH_BIT = 8
_T_COUNTER_BIT = 10
_T_COMPARE_BIT = 4
_T_SWAP_BIT = 2
_T_CONTROL = 400  # control FSM, pointers, output mux


def _cell_cap(tech: Technology, width_um_013: float) -> float:
    """Switched capacitance of a cell given its 0.13 um effective width."""
    scale = tech.feature_um / TECH_013.feature_um
    width = width_um_013 * scale
    cap = width * (tech.gate_cap_per_um + tech.junction_cap_per_um)
    return cap * _PROJECTION_FACTOR.get(tech.name, 1.0)


@dataclass(frozen=True)
class TranscoderCircuit:
    """Physical model of a window- or context-based transcoder encoder.

    Parameters
    ----------
    technology:
        Process node.
    num_entries:
        Shift-register entries (window) — dictionary size.
    width:
        Bus width in bits.
    table_size:
        Frequency-table entries; non-zero selects the context-based
        design with counters, comparators and swap circuitry.
    counter_bits:
        Bits per frequency counter (4 cascaded 4-bit Johnson rings).
    """

    technology: Technology
    num_entries: int = 8
    width: int = 32
    table_size: int = 0
    counter_bits: int = 16
    low_bits: int = LOW_BITS  # selective-precharge first-stage width

    # -- inventory -------------------------------------------------------

    @property
    def is_context(self) -> bool:
        """True for the context-based design (has a frequency table)."""
        return self.table_size > 0

    @property
    def transistor_count(self) -> int:
        """Approximate device count of the encoder."""
        count = self.num_entries * self.width * _T_CAM_BIT  # shift register tags
        count += self.num_entries * _T_COMPARE_BIT  # match/pointer logic per entry
        count += self.width * _T_LATCH_BIT  # output latch / transition coder
        count += _T_CONTROL
        if self.is_context:
            count += self.table_size * self.width * _T_CAM_BIT  # table tags
            count += (self.table_size + self.num_entries) * self.counter_bits * (
                _T_COUNTER_BIT + _T_COMPARE_BIT
            )
            count += self.table_size * (self.width + self.counter_bits) * _T_SWAP_BIT
        return count

    # -- per-operation energies ---------------------------------------------

    def op_energy(self, op: Op) -> float:
        """Energy (J) of one occurrence of ``op``."""
        tech = self.technology
        if op is Op.MATCH_LOW:
            cap = self.low_bits * _cell_cap(tech, _W_COMPARE_BIT)
        elif op is Op.MATCH_FULL:
            cap = (self.width - self.low_bits) * _cell_cap(tech, _W_COMPARE_BIT)
        elif op is Op.COUNT:
            cap = _cell_cap(tech, _W_FF_BIT)  # per ring-bit flip
        elif op is Op.COUNTER_COMPARE:
            cap = self.counter_bits * _cell_cap(tech, _W_COMPARE_BIT)
        elif op is Op.SWAP:
            cap = 2 * (self.width + self.counter_bits) * _cell_cap(tech, _W_LATCH_BIT)
        elif op is Op.SHIFT:
            # Pointer-based: only the overwritten entry's bits move, on
            # average half of them, plus the tail-pointer vector.
            cap = 0.5 * self.width * _cell_cap(tech, _W_LATCH_BIT)
            cap += self.num_entries * _cell_cap(tech, _W_POINTER_BIT)
        elif op is Op.LAST_TRACK:
            # One pointer-vector bit clears and one sets, regardless of
            # dictionary size.
            cap = 2 * _cell_cap(tech, _W_POINTER_BIT)
        elif op is Op.PENDING:
            cap = _cell_cap(tech, _W_FF_BIT)
        elif op is Op.DIVIDE:
            cap = (self.table_size + self.num_entries) * _cell_cap(tech, _W_FF_BIT)
        elif op is Op.OUTPUT_DRIVE:
            cap = _cell_cap(tech, _W_DRIVER)
        elif op is Op.CYCLE:
            # Storage cells are clock-gated (the pointer-based design
            # only writes one entry per shift), so the per-cycle clock
            # load is the I/O latches plus per-entry gating/control —
            # not the full storage array.
            clocked_bits = 3 * self.width + self.num_entries
            if self.is_context:
                clocked_bits += 2 * (self.table_size + self.num_entries)
            cap = clocked_bits * _cell_cap(tech, _W_CLOCK_PER_BIT)
        else:  # pragma: no cover - exhaustive over Op
            raise ValueError(f"unknown operation {op}")
        return 0.5 * tech.vdd**2 * cap * _LAYOUT_FACTOR

    def energy(self, ops: OperationCounts) -> float:
        """Total dynamic energy (J) of an operation multiset.

        Summed in the multiset's insertion order (see
        :class:`OperationCounts`); float addition is not associative, and
        recorded values such as Table 3's ``ratio_5mm`` depend on that
        order to the last bit.
        """
        return sum(self.op_energy(op) * count for op, count in ops)

    # -- static characteristics ----------------------------------------------

    @property
    def leakage_energy_per_cycle(self) -> float:
        """Leakage energy (J) per clock cycle — Table 2's leakage column."""
        tech = self.technology
        width = _AVG_WIDTH_FACTOR * tech.min_width_um
        current = self.transistor_count * width * tech.leakage_current_per_um
        return current * tech.vdd * tech.clock_period_s

    @property
    def area_um2(self) -> float:
        """Layout area (um^2), first-order scaled from 0.13 um."""
        scale = (self.technology.feature_um / TECH_013.feature_um) ** 2
        return self.transistor_count * _AREA_PER_TRANSISTOR_013 * scale

    @property
    def delay_seconds(self) -> float:
        """Data-ready-to-bus-out delay — dominated by the serial NAND
        match trees (two 16-bit trees for a 32-bit bus)."""
        tech = self.technology
        tau = tech.min_inverter_resistance * tech.min_inverter_cap
        return _DELAY_TAU_PER_BIT * self.width * tau

    @property
    def cycle_time_seconds(self) -> float:
        """Clock period the design is run at (from the technology)."""
        return self.technology.clock_period_s


@dataclass(frozen=True)
class InversionCircuit:
    """The base-case inversion coder (Section 5.4.1, Table 2 last row).

    A 32-bit XOR array feeding a carry-save-adder popcount tree and a
    majority decision; combinational, so its energy is charged per
    cycle as a function of how many input bits changed.
    """

    technology: Technology
    width: int = 32

    @property
    def transistor_count(self) -> int:
        """XOR array + CSA tree + driver/control devices."""
        xor_array = self.width * 8
        csa_tree = (self.width - 1) * 28  # full adders
        return xor_array + csa_tree + 200

    def cycle_energy(self, input_bits_changed: int) -> float:
        """Energy (J) of one evaluation given input toggle count.

        The CSA tree re-evaluates proportionally to input activity; the
        0.5 floor models the tree's internal glitching, which the paper
        found makes the inversion coder expensive (1.76 pJ/cycle).
        """
        tech = self.technology
        activity = 0.5 + 0.5 * (input_bits_changed / self.width)
        cap = self.transistor_count * 0.19 * _cell_cap(tech, 1.0)
        return 0.5 * tech.vdd**2 * cap * activity * _LAYOUT_FACTOR

    @property
    def leakage_energy_per_cycle(self) -> float:
        """Leakage energy (J) per cycle."""
        tech = self.technology
        width = _AVG_WIDTH_FACTOR * tech.min_width_um
        current = self.transistor_count * width * tech.leakage_current_per_um
        return current * tech.vdd * tech.clock_period_s

    @property
    def area_um2(self) -> float:
        """Layout area (um^2)."""
        scale = (self.technology.feature_um / TECH_013.feature_um) ** 2
        return self.transistor_count * _AREA_PER_TRANSISTOR_013 * scale

    @property
    def delay_seconds(self) -> float:
        """CSA-tree depth times a few inverter delays."""
        import math

        tech = self.technology
        tau = tech.min_inverter_resistance * tech.min_inverter_cap
        depth = 2 * math.ceil(math.log2(max(self.width, 2)))
        return 7.5 * depth * tau
