"""End-to-end tests for the ``repro corpus`` CLI verbs.

Drives the real argument parser and command functions — build, import,
ls, verify, record, plus ``workloads --list`` and a savings run over a
recorded shard (``run savings --source corpus:DIR#STREAM``) — against
temporary corpora, and pins the ``repro: error:`` one-line contract for
every corpus failure mode a user can hit from the shell.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.corpus import CorpusReader, MANIFEST_NAME
from repro.traces import BusTrace, save_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def run_cli_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("repro: error:")
    assert captured.err.count("\n") == 1  # one line, per the contract
    return captured.err


@pytest.fixture()
def built(tmp_path, capsys):
    """A small generator-built corpus directory."""
    directory = str(tmp_path / "corpus")
    run_cli(
        capsys, "corpus", "build", directory,
        "--profile", "mixed", "--seed", "7", "--streams", "3",
        "--cycles", "600", "--width", "16",
    )
    return directory


class TestBuildLsVerify:
    def test_build_creates_manifest_and_streams(self, built):
        reader = CorpusReader(built)
        assert len(reader.names()) == 3
        for name in reader.names():
            assert name.startswith("gen7/")
            assert reader.meta(name).cycles == 600
            assert reader.meta(name).width == 16

    def test_build_is_deterministic(self, tmp_path, capsys, built):
        other = str(tmp_path / "again")
        run_cli(
            capsys, "corpus", "build", other,
            "--profile", "mixed", "--seed", "7", "--streams", "3",
            "--cycles", "600", "--width", "16",
        )
        first = {m.name: m.sha256 for m in CorpusReader(built).shards}
        second = {m.name: m.sha256 for m in CorpusReader(other).shards}
        assert first == second

    def test_ls_shows_streams_digests_and_sources(self, built, capsys):
        out = run_cli(capsys, "corpus", "ls", built)
        reader = CorpusReader(built)
        for name in reader.names():
            assert name in out
            assert reader.meta(name).sha256[:16] in out
        assert "gen(profile=mix" in out

    def test_verify_reports_stream_count(self, built, capsys):
        out = run_cli(capsys, "corpus", "verify", built)
        assert "3 stream(s)" in out and "ok" in out

    def test_verify_catches_corruption(self, built, capsys):
        meta = CorpusReader(built).meta(CorpusReader(built).names()[0])
        shard = f"{built}/{meta.file}"
        with open(shard, "r+b") as handle:
            handle.seek(64)
            byte = handle.read(1)
            handle.seek(64)
            handle.write(bytes([byte[0] ^ 1]))
        err = run_cli_error(capsys, "corpus", "verify", built)
        assert "digest mismatch" in err


class TestImport:
    def test_import_raw_binary(self, tmp_path, capsys):
        raw = tmp_path / "bus.u64"
        raw.write_bytes(np.arange(700, dtype="<u8").tobytes())
        directory = str(tmp_path / "c")
        run_cli(
            capsys, "corpus", "import", directory, str(raw), "--width", "16"
        )
        reader = CorpusReader(directory)
        assert reader.meta("bus").cycles == 700

    def test_import_npz(self, tmp_path, capsys):
        trace = BusTrace.from_values([1, 2, 3, 2, 1], width=8, name="t")
        archive = tmp_path / "t.npz"
        save_trace(trace, str(archive))
        directory = str(tmp_path / "c")
        run_cli(capsys, "corpus", "import", directory, str(archive))
        assert CorpusReader(directory).meta("t").kind == "raw"

    def test_import_binary_without_width_is_one_line_error(
        self, tmp_path, capsys
    ):
        raw = tmp_path / "bus.u64"
        raw.write_bytes(b"\x00" * 16)
        err = run_cli_error(
            capsys, "corpus", "import", str(tmp_path / "c"), str(raw)
        )
        assert "--width" in err


def run_savings(capsys, tmp_path, source, *extra):
    return run_cli(
        capsys, "run", "savings", "--source", source, "--coders", "window8",
        "--runs-dir", str(tmp_path / "runs"), *extra,
    )


class TestRecordReplay:
    def test_record_then_replay_prints_savings(self, tmp_path, capsys):
        from repro.coding import parse_coder_spec
        from repro.energy import normalized_energy_removed

        directory = str(tmp_path / "rec")
        run_cli(
            capsys, "corpus", "record", directory, "gzip",
            "--cycles", "2000", "--bus", "register",
        )
        reader = CorpusReader(directory)
        assert reader.names() == ["gzip/register"]
        trace = reader.trace("gzip/register")
        coded = parse_coder_spec("window8", trace.width).encode_trace(trace)
        for lam in ("1", "2.5"):
            out = run_savings(
                capsys, tmp_path, f"corpus:{directory}#gzip/register",
                "--lam", lam, "--run-id", f"lam{lam}",
            )
            assert "gzip/register" in out and "savings %" in out
            with open(tmp_path / "runs" / f"lam{lam}" / "summary.json") as handle:
                (cell,) = json.load(handle)["cells"]
            assert cell["value"]["savings_pct"] == pytest.approx(
                normalized_energy_removed(trace, coded, float(lam))
            )

    def test_record_unknown_workload_is_one_line_error(self, tmp_path, capsys):
        err = run_cli_error(
            capsys, "corpus", "record", str(tmp_path / "rec"), "no-such",
            "--cycles", "100",
        )
        assert "no-such" in err

    def test_replay_unknown_stream_lists_available(self, built, capsys, tmp_path):
        err = run_cli_error(
            capsys, "run", "savings", "--source", f"corpus:{built}#nope",
            "--runs-dir", str(tmp_path / "runs"),
        )
        assert "gen7/" in err  # the error names what IS there


class TestWorkloadsList:
    def test_list_enumerates_suite_and_corpus(self, built, capsys):
        out = run_cli(capsys, "workloads", "--list", "--corpus", built)
        assert "gcc" in out and "suite" in out
        assert "gen7/" in out and "corpus/raw" in out
        digest = CorpusReader(built).meta(CorpusReader(built).names()[0]).sha256
        assert digest[:16] in out

    def test_list_without_corpus_still_lists_suite(self, capsys):
        out = run_cli(capsys, "workloads", "--list")
        assert "gcc" in out and "swim" in out


class TestErrorContract:
    def test_ls_on_missing_directory(self, tmp_path, capsys):
        err = run_cli_error(capsys, "corpus", "ls", str(tmp_path / "nope"))
        assert "corpus" in err.lower() or "manifest" in err

    def test_ls_on_directory_without_manifest(self, tmp_path, capsys):
        err = run_cli_error(capsys, "corpus", "ls", str(tmp_path))
        assert MANIFEST_NAME in err

    def test_build_rejects_unknown_profile(self, tmp_path, capsys):
        err = run_cli_error(
            capsys, "corpus", "build", str(tmp_path / "c"),
            "--profile", "nosuch",
        )
        assert "profile" in err
