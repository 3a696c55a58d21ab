"""Unit tests for the analysis layer: budgets, crossovers, reporting."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import (
    CrossoverAnalysis,
    budget_curve,
    crossover_table,
    energy_budget,
    format_series,
    format_table,
    headline_transition_savings,
    median_crossover,
    savings_for,
    savings_sweep,
)
from repro.coding import WindowTranscoder
from repro.traces import BusTrace
from repro.wires import TECH_007, TECH_013
from repro.workloads import locality_trace

FAST = 4000


@pytest.fixture(scope="module")
def hot_trace():
    return locality_trace(
        3000, repeat_fraction=0.2, reuse_fraction=0.55, stride_fraction=0.1,
        working_set=8, seed=13,
    )


class TestEnergyBudget:
    def test_positive_for_compressible_traffic(self, hot_trace):
        budget = energy_budget(hot_trace, TECH_013, 10.0, entries=8)
        assert budget > 0

    def test_grows_with_wire_length(self, hot_trace):
        short = energy_budget(hot_trace, TECH_013, 5.0, entries=8)
        long = energy_budget(hot_trace, TECH_013, 15.0, entries=8)
        assert long > short

    def test_context_design_accepted(self, hot_trace):
        budget = energy_budget(hot_trace, TECH_013, 10.0, entries=24, design="context")
        assert np.isfinite(budget)

    def test_rejects_unknown_design(self, hot_trace):
        with pytest.raises(ValueError):
            energy_budget(hot_trace, TECH_013, 10.0, 8, design="magic")

    def test_empty_trace(self):
        assert energy_budget(BusTrace.from_values([], width=32), TECH_013, 10, 8) == 0.0

    def test_curve_matches_pointwise(self, hot_trace):
        curve = budget_curve(hot_trace, TECH_013, 10.0, [4, 8])
        assert curve[1] == pytest.approx(
            energy_budget(hot_trace, TECH_013, 10.0, 8)
        )


class TestCrossoverAnalysis:
    def test_ratio_decreases_with_length(self, hot_trace):
        analysis = CrossoverAnalysis(hot_trace, TECH_013, 8)
        lengths = [2.0, 10.0, 30.0]
        ratios = analysis.curve(lengths)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_crossover_has_ratio_one(self, hot_trace):
        analysis = CrossoverAnalysis(hot_trace, TECH_013, 8)
        crossover = analysis.crossover_length()
        assert crossover is not None
        assert analysis.ratio(crossover) == pytest.approx(1.0, abs=0.02)

    def test_incompressible_traffic_never_crosses(self):
        # A pure counting trace: LAST never hits, the window never hits.
        trace = BusTrace.from_values(
            np.random.default_rng(0).integers(0, 2**32, 2000), width=32
        )
        analysis = CrossoverAnalysis(trace, TECH_013, 8)
        crossover = analysis.crossover_length(hi=50.0)
        # Random data gives the window coder nothing; allow either no
        # crossover or a very long one.
        assert crossover is None or crossover > 20.0

    def test_median_crossover_uses_never_value(self, hot_trace):
        good = CrossoverAnalysis(hot_trace, TECH_013, 8)
        median = median_crossover([good], never_value=99.0)
        assert median == pytest.approx(good.crossover_length(), rel=0.01)

    def test_median_requires_input(self):
        with pytest.raises(ValueError):
            median_crossover([])

    def test_transcoder_energy_scales_with_cycles(self, hot_trace):
        analysis = CrossoverAnalysis(hot_trace, TECH_013, 8)
        assert analysis.transcoder_energy == pytest.approx(
            analysis._transcoder_per_cycle * len(hot_trace)
        )


def _repeater_step_edges(tech, hi=100.0):
    """Lengths just either side of every repeater-count step below ``hi``."""
    from repro.wires.repeaters import _optimal_count_per_mm

    per_mm = _optimal_count_per_mm(tech) * tech.repeater_count_derating
    edges = []
    step = 1
    while (step + 0.5) / per_mm < hi:
        edge = (step + 0.5) / per_mm
        edges += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, hi)]
        step += 1
    return edges


class TestRatioIdentity:
    """``ratio`` is the documented quotient of wire energies, bit for bit.

    Pinned on suite register traces at all three nodes, at lengths on
    both sides of every repeater-count step, against
    :class:`BusEnergyModel` pricing the same counts.  The crossover
    floats were recorded before the ratio was optimised.
    """

    PINNED_CROSSOVERS = {
        "ijpeg": ("0x1.2a02873333334p+3", "0x1.b7bb1b3333332p+2", "0x1.50900b3333334p+2"),
        "fpppp": ("0x1.0c38b6ccccccep+4", "0x1.d92d240000001p+3", "0x1.723a45999999ap+3"),
        "gcc": (None, None, "0x1.657812199999cp+6"),
    }

    @pytest.fixture(scope="class")
    def analyses(self):
        from repro.wires import TECHNOLOGIES
        from repro.workloads import register_trace

        found = {}
        for name in self.PINNED_CROSSOVERS:
            first = CrossoverAnalysis(register_trace(name, FAST), TECHNOLOGIES[0], 8)
            found[name] = [first.with_technology(tech) for tech in TECHNOLOGIES]
        return found

    def test_ratio_is_the_quotient_of_wire_energies(self, analyses):
        from repro.energy.bus_energy import BusEnergyModel

        for per_tech in analyses.values():
            for analysis in per_tech + [replace(per_tech[0], buffered=False)]:
                tech = analysis.technology
                lengths = [0.1, 1.0, 5.0, 11.5, 37.3, 100.0]
                lengths += _repeater_step_edges(tech)
                for length in lengths:
                    raw = analysis.wire_energy(length, coded=False)
                    coded = analysis.wire_energy(length, coded=True)
                    model = BusEnergyModel(tech, length, analysis.buffered)
                    assert raw == model.energy_from_counts(analysis.base_counts)
                    assert coded == model.energy_from_counts(analysis.coded_counts)
                    expected = (coded + analysis.transcoder_energy) / raw
                    assert analysis.ratio(length) == expected

    def test_crossover_floats_are_pinned(self, analyses):
        for name, per_tech in analyses.items():
            found = tuple(
                None if mm is None else mm.hex()
                for mm in (a.crossover_length() for a in per_tech)
            )
            assert found == self.PINNED_CROSSOVERS[name]


class TestSweeps:
    def test_savings_for(self, hot_trace):
        saved = savings_for(hot_trace, WindowTranscoder(8, 32))
        assert saved > 10.0

    def test_savings_sweep_shape(self):
        curves = savings_sweep(
            "register",
            lambda size: WindowTranscoder(size, 32),
            [2, 8],
            names=("gcc", "swim"),
            cycles=FAST,
        )
        assert set(curves) == {"gcc", "swim"}
        assert all(len(v) == 2 for v in curves.values())

    def test_headline_savings_positive(self):
        value = headline_transition_savings(
            lambda: WindowTranscoder(8, 32),
            names=("m88ksim", "ijpeg", "compress"),
            cycles=FAST,
        )
        assert value > 10.0

    def test_crossover_table_cells(self):
        cells = crossover_table([TECH_007], entry_sizes=(8,), cycles=FAST)
        suites = {c.suite for c in cells}
        assert suites == {"SPECint", "SPECfp", "ALL"}
        assert all(c.median_mm > 0 for c in cells)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "x"], [["a", 1.5], ["bb", 20]], precision=1)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith("x")
        assert "1.5" in lines[2]

    def test_format_table_title_and_none(self):
        text = format_table(["v"], [[None]], title="T")
        assert text.startswith("T\n")
        assert "-" in text.splitlines()[-1]

    def test_format_series(self):
        text = format_series("L", [1, 2], {"a": [0.5, 0.6], "b": [1, 2]})
        assert "L" in text.splitlines()[0]
        assert "0.60" in text
