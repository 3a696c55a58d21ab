"""Tests for the faults sweep and the hardened experiment runner.

Covers the acceptance contract of the experiment layer:

* the ``faults`` run matrix runs end-to-end across >= 3 suite
  workloads and produces one cell per (workload, policy, BER); a
  failing cell becomes a ``FAILED:<class>`` hole in its table while the
  other cells complete;
* ``isolated_suite_traces`` and ``robust_savings_sweep`` turn a failing
  workload into a structured ``SweepFailure`` record under
  ``keep_going=True`` and propagate it under strict mode;
* the cycle-budget watchdog in ``Machine.run`` turns runaway kernels
  into a typed ``CycleBudgetExceeded`` instead of a silent truncation.
"""

import math

import pytest

from repro.analysis import isolated_suite_traces, robust_savings_sweep
from repro.coding import WindowTranscoder
from repro.cpu import CycleBudgetExceeded, Machine
from repro.cpu.pipeline import PipelineConfig
from repro.faults import DEFAULT_POLICIES
from repro.runs import ExecutorOptions, RunConfig, run_matrix
from repro.runs.matrix import build_cells, make_cell_fn

#: Two synthetic streams with locality, 1500 cycles each.
SYNTH = "gen:locality,seed=1,population=2,cycles=1500,width=32"


def faults_config(sources, bers, policies=DEFAULT_POLICIES, seed=0):
    return RunConfig(
        matrix="faults",
        sources=tuple(sources),
        coders=("window8",),
        bers=tuple(bers),
        policies=tuple(policies),
        seed=seed,
    )


def suite(*names, cycles=2000):
    return [f"suite:{name}/register@{cycles}" for name in names]


def run(config, tmp_path, **options):
    options.setdefault("sleep", lambda _s: None)
    return run_matrix(
        config, str(tmp_path), run_id="faults", options=ExecutorOptions(**options)
    )


class TestFaultsSweep:
    def test_end_to_end_three_workloads(self, tmp_path):
        """The acceptance sweep: window8 x 3 BERs x 3 suite workloads."""
        config = faults_config(suite("gcc", "ijpeg", "swim"), (1e-6, 1e-5, 1e-4))
        result = run(config, tmp_path)
        assert result.ok
        assert len(result.results) == 3 * len(DEFAULT_POLICIES) * 3
        assert {c.workload for c in result.cells} == {
            "gcc/register", "ijpeg/register", "swim/register"
        }
        for value in result.results.values():
            assert 0.0 <= value["correct_fraction"] <= 1.0
            assert math.isfinite(value["savings_pct"])
            assert value["recoveries"] <= value["detections"] + 1

    def test_savings_degrade_with_ber(self):
        cells = build_cells(faults_config([SYNTH], (0.0, 1e-3), ("resync-on-error",)))
        execute = make_cell_fn()
        by = {(c.workload, c.ber): execute(c) for c in cells}
        names = {c.workload for c in cells}
        assert len(names) == 2
        for name in names:
            clean = by[(name, 0.0)]
            noisy = by[(name, 1e-3)]
            assert clean["correct_fraction"] == 1.0
            assert clean["detections"] == 0
            assert noisy["detections"] > 0
            # Recovery traffic costs energy: savings cannot improve.
            assert noisy["savings_pct"] <= clean["savings_pct"]

    def test_cells_are_reproducible(self):
        cells = build_cells(faults_config([SYNTH], (1e-4,), ("reset-both",), seed=3))
        first, second = make_cell_fn(), make_cell_fn()
        assert [first(c) for c in cells] == [second(c) for c in cells]

    def test_failing_cell_isolated_with_stage_label(self, tmp_path):
        config = faults_config([SYNTH], (1e-5, 1e-4), ("reset-both",))
        result = run(config, tmp_path, chaos=("fail@1",))
        assert len(result.results) == 3
        assert list(result.failed.values()) == ["deterministic-failure"]
        assert result.status == "degraded"

    def test_report_renders_cells_and_failures(self, tmp_path):
        config = faults_config([SYNTH], (1e-4,), ("resync-on-error",))
        result = run(config, tmp_path, chaos=("fail@1",))
        report = result.summary_text
        assert "faults matrix | 2 cells | 1 FAILED" in report
        assert "detects" in report and "cycles to recover" in report
        for cell in result.cells:
            assert cell.workload in report
        assert "FAILED:deterministic-failure" in report

    def test_strict_mode_propagates(self, tmp_path):
        config = faults_config([SYNTH], (1e-4,), ("reset-both",))
        result = run(config, tmp_path, chaos=("fail@0",), strict=True)
        assert result.exit_code(strict=True) == 1
        assert result.exit_code(strict=False) == 0

    def test_empty_result_report(self, tmp_path):
        """A run whose every cell failed still renders its table."""
        config = faults_config([SYNTH], (1e-4,), ("reset-both",))
        result = run(config, tmp_path, chaos=("fail@0", "fail@1"))
        assert not result.results
        assert "faults matrix | 2 cells | 2 FAILED" in result.summary_text
        assert "net savings %" in result.summary_text


@pytest.mark.slow
class TestFaultsSweepFull:
    def test_default_cycle_budget_sweep(self, tmp_path):
        from repro.workloads import DEFAULT_CYCLES

        config = faults_config(
            suite("gcc", "ijpeg", "swim", cycles=DEFAULT_CYCLES), (1e-6, 1e-5, 1e-4)
        )
        result = run(config, tmp_path)
        assert result.ok
        assert len(result.results) == 27


class TestIsolatedSuiteTraces:
    def test_good_names_produce_traces_and_no_failures(self):
        traces, failures = isolated_suite_traces("register", ("gcc",), 1500)
        assert set(traces) == {"gcc"} and failures == []

    def test_bad_name_recorded_not_raised(self):
        traces, failures = isolated_suite_traces(
            "register", ("gcc", "bogus"), 1500
        )
        assert set(traces) == {"gcc"}
        assert [f.workload for f in failures] == ["bogus"]
        assert failures[0].stage == "trace"
        assert failures[0].kind
        assert failures[0].detail  # traceback excerpt for post-mortems

    def test_strict_raises(self):
        with pytest.raises(KeyError):
            isolated_suite_traces("register", ("bogus",), 1500, keep_going=False)


class TestRobustSavingsSweep:
    def test_matches_intent_on_clean_suite(self):
        outcome = robust_savings_sweep(
            "register", lambda size: WindowTranscoder(size, 32), (4, 8),
            names=("gcc",), cycles=1500,
        )
        assert outcome.ok
        assert set(outcome.curves) == {"gcc"}
        assert len(outcome.curves["gcc"]) == 2

    def test_coder_failure_isolated_per_workload(self):
        def factory(size):
            raise RuntimeError("coder exploded")

        outcome = robust_savings_sweep(
            "register", factory, (8,), names=("gcc",), cycles=1500,
        )
        assert outcome.curves == {}
        assert [f.stage for f in outcome.failures] == ["encode"]
        assert outcome.failures[0].kind == "RuntimeError"


class TestCycleWatchdog:
    INFINITE = "loop: addi r1, r1, 1\n j loop\n"

    def test_runaway_kernel_trips_watchdog(self):
        machine = Machine(source=self.INFINITE, name="runaway")
        with pytest.raises(CycleBudgetExceeded) as excinfo:
            machine.run(watchdog_cycles=500)
        err = excinfo.value
        assert err.budget == 500
        assert err.name == "runaway"
        assert err.stats.instructions > 0
        assert "500-cycle watchdog" in str(err)
        assert "runaway" in str(err)

    def test_halting_kernel_passes_under_budget(self):
        machine = Machine(source="addi r1, r0, 5\n halt\n")
        result = machine.run(watchdog_cycles=500)
        assert result.stats.halted

    def test_watchdog_does_not_fire_on_intentional_max_cycles(self):
        # Workloads legitimately run to max_cycles; a watchdog above
        # that ceiling must not misfire.
        machine = Machine(
            source=self.INFINITE, config=PipelineConfig(max_cycles=200)
        )
        result = machine.run(watchdog_cycles=1000)
        assert not result.stats.halted
        assert result.stats.cycles <= 200

    def test_watchdog_validation(self):
        machine = Machine(source="halt\n")
        with pytest.raises(ValueError):
            machine.run(watchdog_cycles=0)

    def test_no_watchdog_is_legacy_behaviour(self):
        machine = Machine(
            source=self.INFINITE, config=PipelineConfig(max_cycles=300)
        )
        result = machine.run()  # silently truncates, as before
        assert result.stats.cycles <= 300
