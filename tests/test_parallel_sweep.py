"""The parallel sweep engine: deterministic merge and --jobs equivalence.

The contract under test: for every sweep in the analysis layer, and
for the ``faults`` run matrix, ``jobs=N`` produces results *identical*
to ``jobs=1`` — same values, same order, same failure records — because
cells are pure and the merge is by input index, not completion order.
"""

import multiprocessing
import os

import pytest

from repro.analysis.experiments import (
    crossover_table,
    headline_transition_savings,
    isolated_suite_traces,
    robust_savings_sweep,
    savings_sweep,
)
from repro.analysis.parallel import (
    CellError,
    CellOutcome,
    parallel_map_cells,
    resolve_jobs,
)
from repro.coding import TransitionCoder
from repro.faults import DEFAULT_POLICIES
from repro.runs import ExecutorOptions, RunConfig, run_matrix
from repro.runs.matrix import _seed_for
from repro.wires import TECHNOLOGIES

NAMES = ("gcc", "swim")
CYCLES = 1500

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def _factory(_param):
    return TransitionCoder(32)


# -- parallel_map_cells unit behaviour ------------------------------------


def test_results_in_input_order_serial_and_parallel():
    cells = list(range(20))
    for jobs in (1, 3):
        outcomes = parallel_map_cells(lambda c: c * c, cells, jobs=jobs)
        assert [o.cell for o in outcomes] == cells
        assert [o.value for o in outcomes] == [c * c for c in cells]
        assert all(o.ok for o in outcomes)


def test_cell_errors_are_isolated_and_structured():
    def fn(c):
        if c == 2:
            raise ValueError("boom on 2")
        return c

    for jobs in (1, 3):
        outcomes = parallel_map_cells(fn, [0, 1, 2, 3], jobs=jobs)
        assert [o.ok for o in outcomes] == [True, True, False, True]
        error = outcomes[2].error
        assert isinstance(error, CellError)
        assert error.kind == "ValueError"
        assert error.message == "boom on 2"
        assert outcomes[2].value is None
        # Healthy neighbours are unaffected.
        assert [o.value for o in outcomes if o.ok] == [0, 1, 3]


def test_closures_need_not_pickle():
    """Cell functions may close over unpicklable state (fork inheritance)."""
    unpicklable = lambda x: x + 1  # noqa: E731 - the point of the test

    outcomes = parallel_map_cells(lambda c: unpicklable(c), [1, 2, 3], jobs=2)
    assert [o.value for o in outcomes] == [2, 3, 4]


def test_empty_cells():
    assert parallel_map_cells(lambda c: c, [], jobs=4) == []


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(5) == 5
    assert resolve_jobs(-3) == 1
    cpus = os.cpu_count() or 1
    assert resolve_jobs(None) == cpus
    assert resolve_jobs(0) == cpus


def test_outcome_ok_property():
    assert CellOutcome(cell=1, value=2).ok
    assert not CellOutcome(cell=1, error=CellError("E", "m")).ok


# -- per-cell watchdog ----------------------------------------------------


def _sleepy(cell):
    import time

    if cell == "slow":
        time.sleep(5.0)
    return cell


def test_watchdog_expiry_is_structured_timeout_error():
    outcomes = parallel_map_cells(_sleepy, ["a", "slow", "b"], jobs=1, timeout_s=0.15)
    assert [o.ok for o in outcomes] == [True, False, True]
    error = outcomes[1].error
    assert error.kind == "timeout"
    assert "watchdog" in error.message
    assert error.pid == os.getpid()  # serial path runs in-process
    assert error.elapsed_s >= 0.1
    # Healthy neighbours are unaffected by the expiry.
    assert [o.value for o in outcomes if o.ok] == ["a", "b"]


@pytest.mark.skipif(not HAVE_FORK, reason="parallel path needs fork")
def test_watchdog_works_inside_fork_workers():
    outcomes = parallel_map_cells(
        _sleepy, ["a", "slow", "b", "c"], jobs=2, timeout_s=0.15
    )
    assert [o.ok for o in outcomes] == [True, False, True, True]
    error = outcomes[1].error
    assert error.kind == "timeout"
    assert error.pid > 0
    assert error.elapsed_s >= 0.1


def test_no_timeout_means_unbounded():
    def quick_sleep(cell):
        import time

        time.sleep(0.05)
        return cell

    outcomes = parallel_map_cells(quick_sleep, [1], jobs=1, timeout_s=None)
    assert outcomes[0].ok


def test_watchdog_disarmed_after_cell():
    """The timer must not fire into the *next* cell (or the caller)."""
    import time

    outcomes = parallel_map_cells(
        _sleepy, ["slow", "a"], jobs=1, timeout_s=0.15
    )
    assert [o.ok for o in outcomes] == [False, True]
    time.sleep(0.25)  # if the alarm leaked, it would fire here and kill us


# -- sweep equivalence: jobs=N == jobs=1 ----------------------------------


@pytest.mark.skipif(not HAVE_FORK, reason="parallel path needs fork")
def test_savings_sweep_jobs_equivalence():
    serial = savings_sweep("register", _factory, (4, 8), names=NAMES, cycles=CYCLES, jobs=1)
    fanned = savings_sweep("register", _factory, (4, 8), names=NAMES, cycles=CYCLES, jobs=3)
    assert serial == fanned


@pytest.mark.skipif(not HAVE_FORK, reason="parallel path needs fork")
def test_robust_savings_sweep_jobs_equivalence():
    serial = robust_savings_sweep(
        "register", _factory, (8,), names=NAMES, cycles=CYCLES, jobs=1
    )
    fanned = robust_savings_sweep(
        "register", _factory, (8,), names=NAMES, cycles=CYCLES, jobs=3
    )
    assert serial.curves == fanned.curves
    assert serial.failures == fanned.failures


@pytest.mark.skipif(not HAVE_FORK, reason="parallel path needs fork")
def test_robust_savings_sweep_failures_identical_across_jobs():
    def exploding(param):
        raise RuntimeError(f"no coder for {param}")

    serial = robust_savings_sweep(
        "register", exploding, (8,), names=NAMES, cycles=CYCLES, jobs=1
    )
    fanned = robust_savings_sweep(
        "register", exploding, (8,), names=NAMES, cycles=CYCLES, jobs=3
    )
    assert serial.failures and not serial.curves
    assert [(f.workload, f.stage, f.kind, f.message) for f in serial.failures] == [
        (f.workload, f.stage, f.kind, f.message) for f in fanned.failures
    ]


@pytest.mark.skipif(not HAVE_FORK, reason="parallel path needs fork")
def test_headline_and_traces_jobs_equivalence():
    assert headline_transition_savings(
        lambda: TransitionCoder(32), names=NAMES, cycles=CYCLES, jobs=1
    ) == headline_transition_savings(
        lambda: TransitionCoder(32), names=NAMES, cycles=CYCLES, jobs=3
    )
    t1, f1 = isolated_suite_traces("register", NAMES, CYCLES, jobs=1)
    t2, f2 = isolated_suite_traces("register", NAMES, CYCLES, jobs=3)
    assert f1 == f2 == []
    assert list(t1) == list(t2)
    for name in t1:
        assert (t1[name].values == t2[name].values).all()


@pytest.mark.skipif(not HAVE_FORK, reason="parallel path needs fork")
def test_crossover_table_jobs_equivalence():
    serial = crossover_table(TECHNOLOGIES[:1], (8,), cycles=800, jobs=1)
    fanned = crossover_table(TECHNOLOGIES[:1], (8,), cycles=800, jobs=3)
    assert serial == fanned


@pytest.mark.skipif(not HAVE_FORK, reason="parallel path needs fork")
def test_faults_sweep_jobs_equivalence(tmp_path):
    config = RunConfig(
        matrix="faults",
        sources=tuple(f"suite:{name}/register@{CYCLES}" for name in NAMES),
        coders=("transition",),
        bers=(1e-4,),
        policies=DEFAULT_POLICIES,
    )
    serial, fanned = (
        run_matrix(
            config, str(tmp_path), run_id=f"jobs{jobs}", options=ExecutorOptions(jobs=jobs)
        )
        for jobs in (1, 3)
    )
    assert serial.ok and fanned.ok
    assert fanned.summary_json == serial.summary_json


def test_seed_for_is_interpreter_stable():
    """The per-cell seed must not depend on PYTHONHASHSEED (it is
    derived via hashlib), so parallel workers and reruns agree."""
    assert _seed_for("gcc", "reset-both", 1e-5, 0) == 1096223602
    assert _seed_for("gcc", "reset-both", 1e-5, 1) == 1096223602 ^ 1
    assert _seed_for("gcc", "reset-both", 1e-4, 0) != _seed_for(
        "gcc", "reset-both", 1e-5, 0
    )
