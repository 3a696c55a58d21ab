"""Differential tests: the fused window kernel vs its per-cycle oracle.

``HardwareWindowTranscoder.encode_trace`` runs one fused kernel that
encodes and audits in the same pass; ``encode_value`` (driven by
``encode_trace_scalar``) is its oracle.  They must agree on the coded
states, on every operation count, on the order the counts were first
charged (pricing sums in that order, so energies must match to the
last bit at every node) and on the FSM state left behind.  The plain
``WindowTranscoder`` runs the same kernel and discards the counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding import WindowTranscoder
from repro.hardware import LOW_BITS, HardwareWindowTranscoder, Op, transcoder_hw
from repro.hardware.circuits import TranscoderCircuit
from repro.traces import BusTrace
from repro.wires import TECH_013
from repro.wires.technology import TECHNOLOGIES
from repro.workloads import locality_trace, suite_traces


def fsm_state(coder):
    pred = coder.predictor
    return (
        pred.contents,
        pred._head,
        pred.last,
        dict(pred._index),
        coder._data_state,
        coder._ctrl_state,
    )


def assert_kernel_matches(values, size=8, width=32, low_bits=LOW_BITS):
    trace = BusTrace.from_values(values, width=width, name="k")
    fast = HardwareWindowTranscoder(TECH_013, size, width, low_bits)
    oracle = HardwareWindowTranscoder(TECH_013, size, width, low_bits)
    coded = fast.encode_trace(trace)
    expected = oracle.encode_trace_scalar(trace)

    assert np.array_equal(coded.values, expected.values)
    assert coded.width == expected.width and coded.name == expected.name
    assert {op: fast.ops[op] for op in Op} == {op: oracle.ops[op] for op in Op}
    assert list(fast.ops) == list(oracle.ops)
    for tech in TECHNOLOGIES:
        circuit = TranscoderCircuit(
            tech, num_entries=size, width=width, low_bits=low_bits
        )
        assert circuit.energy(fast.ops) == circuit.energy(oracle.ops)
    assert fsm_state(fast) == fsm_state(oracle)

    plain = WindowTranscoder(size, width)
    assert np.array_equal(plain.encode_trace(trace).values, expected.values)
    assert fsm_state(plain) == fsm_state(oracle)
    return fast, oracle


@st.composite
def window_cases(draw):
    width = draw(st.sampled_from([8, 32]))
    size = draw(st.sampled_from([1, 8, 16]))
    low_bits = draw(st.sampled_from([1, 4, LOW_BITS]))
    word = st.integers(0, (1 << width) - 1)
    # A small pool makes window hits, repeats and evictions common.
    pool = draw(st.lists(word, min_size=1, max_size=20)) + [0]
    values = draw(
        st.lists(st.one_of(st.sampled_from(pool), word), min_size=0, max_size=120)
    )
    return values, size, width, low_bits


@settings(deadline=None, max_examples=150)
@given(case=window_cases())
def test_kernel_matches_oracle(case):
    values, size, width, low_bits = case
    assert_kernel_matches(values, size, width, low_bits)


@pytest.mark.parametrize("size", [1, 8, 16])
@pytest.mark.parametrize("width", [8, 32])
@pytest.mark.parametrize(
    "values",
    [
        [],
        [0],
        [0, 0, 5, 0, 5, 7],  # power-on: a leading 0 is inserted unaudited
        [0, 1, 2, 3, 0],
        [3, 0, 0, 3],
        [9] * 50,  # all repeats
        list(range(1, 120)),  # all distinct
        [1, 2, 3, 4] * 30,
    ],
    ids=["empty", "zero", "leading-zero", "zero-then-run", "zero-later",
         "repeats", "distinct", "cycle4"],
)
def test_kernel_edge_cases(values, size, width):
    assert_kernel_matches(values, size, width)


@pytest.mark.parametrize("low_bits", [1, 3, 16, 32])
def test_kernel_non_default_low_bits(low_bits):
    values = locality_trace(1500, 32, seed=21).values.tolist()
    assert_kernel_matches(values, 8, 32, low_bits)


@pytest.mark.parametrize("size", [8, 16])
def test_kernel_on_register_suite(size):
    for trace in suite_traces("register", None, 2500).values():
        assert_kernel_matches(trace.values.tolist(), size, trace.width)


def test_per_cycle_calls_continue_after_kernel():
    """The kernel writes the FSM back, so per-cycle calls (and their
    audit) continue exactly as after the scalar loop."""
    values = locality_trace(600, 32, seed=4).values.tolist()
    fast, oracle = assert_kernel_matches(values)
    for value in [0, 7, 7, values[-1], 0xDEADBEEF, values[10], 1 << 31]:
        assert fast.encode_value(value) == oracle.encode_value(value)
    assert list(fast.ops) == list(oracle.ops)
    assert fsm_state(fast) == fsm_state(oracle)


class _Subclass(HardwareWindowTranscoder):
    pass


FACTORIES = {
    "audited": lambda: HardwareWindowTranscoder(TECH_013, 8, 32),
    "plain": lambda: WindowTranscoder(8, 32),
}


@pytest.mark.parametrize("flag", ["silent_last", "edge_control"])
@pytest.mark.parametrize("family", sorted(FACTORIES))
def test_ablation_flags_take_the_scalar_loop(flag, family, monkeypatch):
    trace = locality_trace(400, 32, seed=5)
    coder, oracle = FACTORIES[family](), FACTORIES[family]()
    for c in (coder, oracle):
        setattr(c, flag, not getattr(c, flag))
    expected = oracle.encode_trace_scalar(trace)
    monkeypatch.setattr(transcoder_hw, "_window_kernel", None)  # must not run
    assert np.array_equal(coder.encode_trace(trace).values, expected.values)
    assert list(getattr(coder, "ops", ())) == list(getattr(oracle, "ops", ()))


def test_subclass_takes_the_scalar_loop(monkeypatch):
    trace = locality_trace(300, 32, seed=6)
    oracle = HardwareWindowTranscoder(TECH_013)
    expected = oracle.encode_trace_scalar(trace)
    monkeypatch.setattr(transcoder_hw, "_window_kernel", None)
    coder = _Subclass(TECH_013)
    assert np.array_equal(coder.encode_trace(trace).values, expected.values)
    assert list(coder.ops) == list(oracle.ops)
