"""Differential tests: the savings families' trace kernels vs their oracles.

Stride, FCM and context share one predictive wire-FSM kernel fed by
``Predictor.match_trace``; codebook and bus-invert each run their own
locals loop.  ``encode_trace_scalar`` (the per-cycle ``encode_value``
loop) is the only oracle.  Kernel and oracle must agree on the coded
states, width and name, and must leave the same FSM state behind, so
per-cycle encoding can continue after a trace-level call.  Predictor
state must stay in Python ints.  Ablation flags and subclasses must
take the scalar loop -- in particular the hardware-audited context
coder, which counts its operations in ``encode_value``.

``count_activity`` is pinned the same way against a direct per-wire
transcription of the paper's equations 2-3.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding import (
    AdaptiveCodebookTranscoder,
    BusInvertTranscoder,
    ContextTranscoder,
    FCMTranscoder,
    StrideTranscoder,
)
from repro.coding.context import TRANSITION_BASED, VALUE_BASED
from repro.energy.accounting import count_activity
from repro.hardware import HardwareContextTranscoder
from repro.traces import BusTrace
from repro.wires import TECH_013

#: (family, sizes, factory(width, size)); ``None`` means the family has
#: no size parameter.
FAMILIES = [
    ("stride", (1, 4, 8), lambda width, size: StrideTranscoder(size, width)),
    ("fcm", (None,), lambda width, size: FCMTranscoder(2, 4, width)),
    (
        "context-value",
        (4, 8, 16),
        lambda width, size: ContextTranscoder(3 * size, size, VALUE_BASED, width=width),
    ),
    (
        "context-transition",
        (4, 8),
        lambda width, size: ContextTranscoder(
            3 * size, size, TRANSITION_BASED, divide_period=16, width=width
        ),
    ),
    ("codebook", (2, 8, 16), lambda width, size: AdaptiveCodebookTranscoder(width, size)),
    ("businvert", (1, 4), lambda width, size: BusInvertTranscoder(width, size)),
]

CASES = [(name, size, make) for name, sizes, make in FAMILIES for size in sizes]
CASE_IDS = [f"{name}-{size}" for name, size, _ in CASES]

WIDTHS = (1, 8, 32)


def plain(obj):
    """FSM state as nested builtins; rejects NumPy scalars anywhere."""
    if isinstance(obj, np.generic):
        raise TypeError(f"NumPy scalar {obj!r} in coder state")
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(value) for value in obj]
    if hasattr(obj, "__dict__"):
        return type(obj).__name__, plain(vars(obj))
    return obj


def build(make, width, size):
    """The coder, or ``None`` where the configuration does not exist."""
    try:
        return make(width, size)
    except ValueError:  # e.g. 4 bus-invert groups on a 1-bit bus
        return None


def assert_kernel_matches(make, values, width, size, tail=()):
    fast, oracle = build(make, width, size), build(make, width, size)
    if fast is None:
        return
    trace = BusTrace.from_values(values, width=width, name="k")
    coded = fast.encode_trace(trace)
    expected = oracle.encode_trace_scalar(trace)
    assert np.array_equal(coded.values, expected.values)
    assert (coded.width, coded.name) == (expected.width, expected.name)
    assert plain(fast.save_state()) == plain(oracle.save_state())
    # The final state is live: per-cycle encoding continues identically.
    for value in tail:
        assert fast.encode_value(value) == oracle.encode_value(value)
    assert plain(fast.save_state()) == plain(oracle.save_state())


@st.composite
def streams(draw):
    width = draw(st.sampled_from(WIDTHS))
    word = st.integers(0, (1 << width) - 1)
    # A small pool makes repeats, dictionary hits and evictions common;
    # strided runs exercise the stride lanes.
    pool = draw(st.lists(word, min_size=1, max_size=12)) + [0]
    start, step = draw(word), draw(st.integers(1, 9))
    run = [(start + i * step) & ((1 << width) - 1) for i in range(draw(st.integers(0, 24)))]
    values = draw(st.lists(st.one_of(st.sampled_from(pool), word), max_size=150))
    at = draw(st.integers(0, len(values)))
    tail = draw(st.lists(st.one_of(st.sampled_from(pool), word), max_size=12))
    return width, values[:at] + run + values[at:], tail


@pytest.mark.parametrize("name,size,make", CASES, ids=CASE_IDS)
@settings(deadline=None, max_examples=60)
@given(case=streams())
def test_kernel_matches_oracle(name, size, make, case):
    width, values, tail = case
    assert_kernel_matches(make, values, width, size, tail)


def edge_streams(width):
    mask = (1 << width) - 1
    distinct = [(i * 0x9E3779B1) & mask for i in range(min(64, mask + 1))]
    return {
        "empty": [],
        "leading-zero": [0, 0, 1 & mask, 0, mask, mask, 0],
        "all-repeats": [mask] * 40,
        "all-distinct": distinct,
        "stride": [(3 * i) & mask for i in range(50)],
    }


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name,size,make", CASES, ids=CASE_IDS)
def test_edge_cases(name, size, make, width):
    for values in edge_streams(width).values():
        assert_kernel_matches(make, values, width, size, tail=[0, 1, 0])


# -- fallbacks ----------------------------------------------------------


def never(*_args):
    raise AssertionError("the trace kernel ran where the scalar loop must")


PREDICTIVE = [(name, size, make) for name, size, make in CASES if name in ("stride", "fcm")]
PREDICTIVE += [CASES[CASE_IDS.index("context-value-8")]]
PREDICTIVE_IDS = [f"{name}-{size}" for name, size, _ in PREDICTIVE]


@pytest.mark.parametrize("name,size,make", PREDICTIVE, ids=PREDICTIVE_IDS)
@pytest.mark.parametrize("flag", ["silent_last", "edge_control"])
def test_ablation_flags_take_the_scalar_loop(name, size, make, flag):
    values = [5, 5, 6, 7, 8, 0, 6, 5, 5, 200]
    trace = BusTrace.from_values(values, width=8)
    fast, oracle = make(8, size), make(8, size)
    for coder in (fast, oracle):
        setattr(coder, flag, not getattr(coder, flag))
    fast.predictor.match_trace = never
    assert np.array_equal(
        fast.encode_trace(trace).values, oracle.encode_trace_scalar(trace).values
    )


@pytest.mark.parametrize("name,size,make", CASES, ids=CASE_IDS)
def test_subclasses_take_the_scalar_loop(name, size, make):
    family = type(make(8, size))

    class Counting(family):
        def encode_value(self, value):
            self.calls = getattr(self, "calls", 0) + 1
            return super().encode_value(value)

    coder = Counting.__new__(Counting)
    coder.__dict__.update(make(8, size).__dict__)
    values = [1, 2, 3, 3, 9, 1, 2]
    coded = coder.encode_trace(BusTrace.from_values(values, width=8))
    assert coder.calls == len(values)
    expected = make(8, size).encode_trace_scalar(BusTrace.from_values(values, width=8))
    assert np.array_equal(coded.values, expected.values)


def test_default_configurations_run_the_shared_kernel():
    trace = BusTrace.from_values([1, 2, 3], width=8)
    for name, size, make in PREDICTIVE:
        coder = make(8, size)
        coder.predictor.match_trace = never
        with pytest.raises(AssertionError, match="trace kernel ran"):
            coder.encode_trace(trace)


def test_hardware_context_coder_keeps_its_operation_counts():
    values = [(i * 7) % 23 for i in range(300)] + [5] * 10 + list(range(40))
    trace = BusTrace.from_values(values, width=32)
    fast = HardwareContextTranscoder(TECH_013, 12, 4)
    oracle = HardwareContextTranscoder(TECH_013, 12, 4)
    coded = fast.encode_trace(trace)
    expected = oracle.encode_trace_scalar(trace)
    assert np.array_equal(coded.values, expected.values)
    # Same counts, charged in the same order (pricing sums in that order).
    assert list(fast.ops) == list(oracle.ops)
    assert sum(count for _, count in fast.ops) > len(values)
    plain_coder = ContextTranscoder(12, 4)
    assert np.array_equal(plain_coder.encode_trace(trace).values, coded.values)


# -- count_activity ------------------------------------------------------


def activity_by_definition(values, width, initial, quadratic):
    """Equations 2-3 wire by wire: tau_n = sum |delta_n|, kappa_n = sum
    |delta_n - delta_{n+1}| (or its square under quadratic coupling)."""
    tau = [0] * width
    kappa = [0] * max(width - 1, 0)
    previous = initial
    for value in values:
        delta = [((value >> n) & 1) - ((previous >> n) & 1) for n in range(width)]
        for n in range(width):
            tau[n] += abs(delta[n])
        for n in range(width - 1):
            relative = delta[n] - delta[n + 1]
            kappa[n] += relative * relative if quadratic else abs(relative)
        previous = value
    return tau, kappa


@st.composite
def activity_cases(draw):
    width = draw(st.integers(1, 64))
    word = st.integers(0, (1 << width) - 1)
    pool = draw(st.lists(word, min_size=1, max_size=6))
    values = draw(st.lists(st.one_of(st.sampled_from(pool), word), max_size=80))
    return width, values, draw(word), draw(st.booleans())


@settings(deadline=None, max_examples=200)
@given(case=activity_cases())
def test_count_activity_matches_equations(case):
    width, values, initial, quadratic = case
    trace = BusTrace.from_values(values, width=width, initial=initial)
    counts = count_activity(trace, quadratic_coupling=quadratic)
    tau, kappa = activity_by_definition(values, width, initial, quadratic)
    assert counts.tau.dtype == counts.kappa.dtype == np.int64
    assert counts.tau.shape == (width,) and counts.kappa.shape == (max(width - 1, 0),)
    assert counts.tau.tolist() == tau and counts.kappa.tolist() == kappa
    assert counts.cycles == len(values)
