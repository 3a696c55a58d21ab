"""Unit tests for the bus timing generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import BusTimingGenerator


def render_by_event(events, num_cycles, width):
    """The per-event render loop, kept as the oracle of the vectorised one."""
    values = np.zeros(num_cycles, dtype=np.uint64)
    if events and num_cycles > 0:
        events = sorted((e for e in events if e[0] < num_cycles), key=lambda e: e[0])
        for cycle, value in events:
            values[cycle] = np.uint64(value & ((1 << width) - 1))
        occupied = np.zeros(num_cycles, dtype=bool)
        for cycle, _ in events:
            occupied[cycle] = True
        idx = np.where(occupied, np.arange(num_cycles), 0)
        np.maximum.accumulate(idx, out=idx)
        values = values[idx]
        if events:
            values[: events[0][0]] = 0
    return values


class TestRendering:
    def test_hold_semantics(self):
        gen = BusTimingGenerator("b", 8)
        gen.record(1, 0xAA)
        gen.record(4, 0x55)
        trace = gen.render(6)
        assert list(trace) == [0, 0xAA, 0xAA, 0xAA, 0x55, 0x55]

    def test_empty_generator_renders_zeros(self):
        trace = BusTimingGenerator("b", 8).render(3)
        assert list(trace) == [0, 0, 0]

    def test_out_of_order_events(self):
        gen = BusTimingGenerator("b", 8)
        gen.record(5, 2)
        gen.record(2, 1)
        assert list(gen.render(7)) == [0, 0, 1, 1, 1, 2, 2]

    def test_same_cycle_last_recorded_wins(self):
        gen = BusTimingGenerator("b", 8)
        gen.record(3, 1)
        gen.record(3, 9)
        assert gen.render(5)[3] == 9

    def test_events_beyond_horizon_dropped(self):
        gen = BusTimingGenerator("b", 8)
        gen.record(100, 7)
        assert list(gen.render(3)) == [0, 0, 0]

    def test_values_masked_to_width(self):
        gen = BusTimingGenerator("b", 4)
        gen.record(0, 0xFF)
        assert gen.render(1)[0] == 0xF

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            BusTimingGenerator("b", 8).record(-1, 0)

    def test_num_events(self):
        gen = BusTimingGenerator("b", 8)
        gen.record(0, 1)
        gen.record(1, 2)
        assert gen.num_events == 2

    def test_render_zero_cycles(self):
        gen = BusTimingGenerator("b", 8)
        gen.record(0, 1)
        assert len(gen.render(0)) == 0

    def test_trace_carries_name(self):
        assert BusTimingGenerator("memory", 32).render(2).name == "memory"

    def test_events_read_back_in_record_order(self):
        gen = BusTimingGenerator("b", 8)
        gen.record(5, 2)
        gen.record(2, 1)
        assert gen.events == [(5, 2), (2, 1)]


class TestRenderMatchesPerEventLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        width=st.integers(1, 64),
        num_cycles=st.integers(0, 40),
        events=st.lists(
            st.tuples(
                # Cycles cluster so that same-cycle events are common,
                # and run past the horizon.
                st.integers(0, 48),
                st.one_of(
                    st.integers(0, 2**64 - 1),
                    st.integers(2**64, 2**70),
                    st.integers(-(2**40), -1),
                    st.sampled_from([0, 1, 2**32 - 1, 2**63, 2**64 - 1, 2**64]),
                ),
            ),
            max_size=60,
        ),
    )
    def test_render_equals_oracle(self, width, num_cycles, events):
        gen = BusTimingGenerator("b", width)
        for cycle, value in events:
            gen.record(cycle, value)
        trace = gen.render(num_cycles)
        expected = render_by_event(events, num_cycles, width)
        assert trace.width == width and trace.name == "b"
        np.testing.assert_array_equal(trace.values, expected)
