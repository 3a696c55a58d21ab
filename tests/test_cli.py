"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.traces import BusTrace, save_trace

FAST = ["--cycles", "4000"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def run_cli_error(capsys, *argv):
    """Run a command expected to fail: returns the stderr line."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    return captured.err


class TestCommands:
    def test_workloads_lists_suite(self, capsys):
        out = run_cli(capsys, "workloads")
        assert "gcc" in out and "swim" in out
        assert "fp" in out and "int" in out

    def test_run_prints_stats(self, capsys):
        out = run_cli(capsys, "run", "gcc", *FAST)
        assert "instructions" in out
        assert "IPC" in out

    def test_stats_prints_figure8_quantities(self, capsys):
        out = run_cli(capsys, "stats", "gcc", *FAST)
        assert "unique fraction, window 8" in out
        assert "toggle rate" in out

    def test_stats_accepts_bus_choice(self, capsys):
        out = run_cli(capsys, "stats", "swim", "--bus", "memory", *FAST)
        assert "swim/memory" in out

    def test_encode_reports_savings(self, capsys):
        out = run_cli(capsys, "encode", "m88ksim", "--coder", "window", *FAST)
        assert "energy removed" in out
        assert "32 -> 34" in out

    def test_encode_all_coder_names(self, capsys):
        for coder in ("last", "invert", "businvert", "stride", "codebook", "context"):
            out = run_cli(capsys, "encode", "gcc", "--coder", coder, *FAST)
            assert "energy removed" in out

    def test_encode_unknown_coder_fails(self, capsys):
        with pytest.raises(SystemExit):
            main(["encode", "gcc", "--coder", "magic", *FAST])

    def test_compare_lists_all_schemes(self, capsys):
        out = run_cli(capsys, "compare", "ijpeg", *FAST)
        for name in ("window-8", "context-28+8", "stride-8", "businvert x4"):
            assert name in out

    def test_crossover_reports_length_or_never(self, capsys):
        out = run_cli(capsys, "crossover", "ijpeg", "--technology", "0.07um", *FAST)
        assert "ratio at 15 mm" in out
        assert ("mm" in out) or ("never" in out)

    def test_table1(self, capsys):
        out = run_cli(capsys, "table1")
        assert "With repeaters" in out
        assert "0.07um" in out

    def test_table2(self, capsys):
        out = run_cli(capsys, "table2", "gcc", *FAST)
        assert "InvertCoder" in out
        assert "Op pJ" in out


class TestFaultsSweepCommand:
    """The faults sweep is the ``faults`` run matrix (``repro run faults``)."""

    @staticmethod
    def faults(tmp_path, *argv):
        return ("run", "faults", "--runs-dir", str(tmp_path / "runs"), *argv)

    def test_runs_end_to_end_on_three_workloads(self, capsys, tmp_path):
        """Acceptance: the documented invocation completes on >= 3
        workloads without crashing."""
        out = run_cli(
            capsys,
            *self.faults(
                tmp_path,
                "--coders", "window8",
                "--ber", "1e-6,1e-5,1e-4",
                "--cycles", "2000",
            ),
        )
        for name in ("gcc", "ijpeg", "swim"):
            assert name in out
        for policy in ("reset-both", "fallback-stateless", "resync-on-error"):
            assert policy in out
        assert "net savings %" in out
        assert "detects" in out and "cycles to recover" in out

    def test_custom_policies_and_workloads(self, capsys, tmp_path):
        out = run_cli(
            capsys,
            *self.faults(
                tmp_path,
                "--source", "suite:gcc/register@1500",
                "--policies", "resync-on-error",
                "--ber", "1e-4",
            ),
        )
        assert "resync-on-error" in out
        assert "reset-both" not in out

    def test_bad_ber_is_one_line_error(self, capsys, tmp_path):
        err = run_cli_error(capsys, *self.faults(tmp_path, "--ber", "2.0"))
        assert err.startswith("repro: error:")
        assert "[0, 1)" in err

    def test_unparsable_ber_list(self, capsys, tmp_path):
        err = run_cli_error(capsys, *self.faults(tmp_path, "--ber", "lots"))
        assert "comma-separated" in err

    def test_unknown_workload_is_one_line_error(self, capsys, tmp_path):
        err = run_cli_error(
            capsys, *self.faults(tmp_path, "--source", "suite:spice")
        )
        assert err.startswith("repro: error:")
        assert "spice" in err

    def test_bad_coder_spec_is_one_line_error(self, capsys, tmp_path):
        err = run_cli_error(capsys, *self.faults(tmp_path, "--coders", "w!ndow"))
        assert err.startswith("repro: error:")
        assert "coder spec" in err


class TestTraceOption:
    def _trace_file(self, tmp_path):
        rng = np.random.default_rng(0)
        trace = BusTrace.from_values(
            rng.integers(0, 1 << 20, size=500), width=32, name="canned"
        )
        path = str(tmp_path / "canned.npz")
        save_trace(trace, path)
        return path

    def test_stats_reads_saved_trace(self, capsys, tmp_path):
        path = self._trace_file(tmp_path)
        out = run_cli(capsys, "stats", "--trace", path)
        assert "canned" in out
        assert "toggle rate" in out

    def test_encode_reads_saved_trace(self, capsys, tmp_path):
        path = self._trace_file(tmp_path)
        out = run_cli(capsys, "encode", "--trace", path, "--coder", "window")
        assert "energy removed" in out

    def test_missing_trace_file_is_one_line_error(self, capsys, tmp_path):
        err = run_cli_error(
            capsys, "stats", "--trace", str(tmp_path / "nope.npz")
        )
        assert err.startswith("repro: error:")
        assert "nope.npz" in err

    def test_tampered_trace_file_is_one_line_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not an archive")
        err = run_cli_error(capsys, "stats", "--trace", str(bad))
        assert err.startswith("repro: error:")
        assert "not a valid trace file" in err
        assert "Traceback" not in err

    def test_neither_workload_nor_trace_is_one_line_error(self, capsys):
        err = run_cli_error(capsys, "stats")
        assert "workload name or --trace" in err


class TestParser:
    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "spice"])

    def test_unknown_bus_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "gcc", "--bus", "pci"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestJobsValidation:
    """``--jobs`` is a worker count everywhere: 0/negative must be a
    one-line ``repro: error:`` with exit code 1 — no traceback, and no
    silent fallback to a default."""

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_table3_rejects_nonpositive_jobs(self, capsys, jobs, tmp_path):
        err = run_cli_error(
            capsys, "run", "table3", "--runs-dir", str(tmp_path), "--jobs", jobs
        )
        assert err.startswith("repro: error:")
        assert "--jobs must be a positive worker count" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_faults_sweep_rejects_nonpositive_jobs(self, capsys, jobs, tmp_path):
        err = run_cli_error(
            capsys, "run", "faults", "--runs-dir", str(tmp_path), "--jobs", jobs
        )
        assert err.startswith("repro: error:")
        assert f"got {jobs}" in err

    def test_bench_rejects_nonpositive_jobs(self, capsys):
        err = run_cli_error(capsys, "bench", "--quick", "--jobs", "0")
        assert err.startswith("repro: error:")
        assert "--jobs must be a positive worker count" in err

    def test_validation_happens_before_any_work(self, capsys, tmp_path):
        # The error must fire fast, before simulation: the message names
        # the flag, not some downstream pool failure.
        err = run_cli_error(
            capsys, "run", "table3", "--runs-dir", str(tmp_path), "--jobs", "-7"
        )
        assert not any(tmp_path.iterdir())  # no run was opened
        assert "--jobs" in err and "-7" in err


class TestServeClientCommands:
    def test_client_connect_refused_is_one_line_error(self, capsys):
        # Port 1 is never listening; the OSError is funnelled into the
        # repro: error: contract instead of a traceback.
        err = run_cli_error(capsys, "client", "ping", "--port", "1")
        assert err.startswith("repro: error:")
        assert "cannot connect" in err
        assert "Traceback" not in err

    def test_client_requires_workload_for_encode(self, capsys):
        err = run_cli_error(capsys, "client", "encode", "--port", "1")
        assert err.startswith("repro: error:")

    def test_client_rejects_bad_chunk(self, capsys):
        err = run_cli_error(
            capsys, "client", "encode", "gcc", "--port", "1", "--chunk", "0"
        )
        assert err.startswith("repro: error:")

    def test_parser_knows_serve_and_client(self):
        args = build_parser().parse_args(["serve", "--port", "0", "--queue-limit", "9"])
        assert args.command == "serve" and args.queue_limit == 9
        args = build_parser().parse_args(["client", "ping"])
        assert args.command == "client" and args.op == "ping"

    def test_client_round_trip_against_live_server(self, capsys):
        """CLI client streaming against an in-process server: the
        printed table pins byte-equality with the one-shot encode."""
        import asyncio
        import threading

        from repro.serve import TraceServer

        started = threading.Event()
        box = {}

        def serve():
            async def run():
                async with TraceServer(port=0) as server:
                    box["port"] = server.port
                    started.set()
                    await box["stop"].wait()

            loop = asyncio.new_event_loop()
            box["loop"] = loop
            box["stop"] = asyncio.Event()
            loop.run_until_complete(run())
            loop.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(10)
        try:
            out = run_cli(
                capsys,
                "client",
                "encode",
                "gcc",
                "--port",
                str(box["port"]),
                "--coder",
                "window8",
                "--cycles",
                "3000",
                "--chunk",
                "512",
            )
            assert "matches one-shot encode" in out
            assert "yes" in out
        finally:
            box["loop"].call_soon_threadsafe(box["stop"].set)
            thread.join(10)
