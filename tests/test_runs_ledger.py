"""The run ledger: append-only journal, torn-tail reads, replay folding.

Contracts under test:

* every ``append`` is flushed as one line immediately (the SIGKILL
  guarantee: the page cache survives the process);
* ``read_jsonl(path, torn_tail=True)`` tolerates exactly one torn
  *tail* line and refuses interior corruption with a ``path:lineno``
  error — for both journal writers, the run ledger and the flight
  recorder;
* ``replay_ledger`` folds events into latest-state: ``done`` supersedes
  an earlier final ``failed`` and vice versa, non-final failures only
  bump attempt bookkeeping;
* the canonical-JSON content digests are byte-stable (cell identity and
  artifact digests both hang off them).
"""

import json
import os

import pytest

from repro.obs.export import read_jsonl
from repro.obs.flight import FLIGHT_FILENAME, FlightRecorder
from repro.runs import (
    LEDGER_FILENAME,
    RunLedger,
    canonical_json,
    content_digest,
    file_digest,
    replay_ledger,
)


@pytest.fixture
def ledger_path(tmp_path):
    return str(tmp_path / "run" / LEDGER_FILENAME)


@pytest.fixture(params=["ledger", "flight"])
def journal(request, tmp_path):
    """``(path, append, close, prelude)`` for each journal writer;
    ``prelude`` lists the events the writer journals on its own."""
    if request.param == "ledger":
        path = str(tmp_path / "run" / LEDGER_FILENAME)
        writer = RunLedger(path)
        return path, writer.append, writer.close, []
    path = str(tmp_path / FLIGHT_FILENAME)
    writer = FlightRecorder(capacity=4, path=path)
    return path, writer.record, writer.close, ["flight.start"]


class TestWriter:
    def test_append_is_visible_before_close(self, ledger_path):
        with RunLedger(ledger_path) as ledger:
            ledger.append("run_open", run_id="r1")
            ledger.append("started", key="k", index=0, attempt=1)
            # Line-buffered: both events readable while the handle is open.
            events = read_jsonl(ledger_path, torn_tail=True)
        assert [e["event"] for e in events] == ["run_open", "started"]
        assert events[1]["key"] == "k"
        assert all("ts" in e for e in events)

    def test_append_only_across_reopen(self, ledger_path):
        with RunLedger(ledger_path) as ledger:
            ledger.append("run_open", run_id="r1")
        with RunLedger(ledger_path) as ledger:
            ledger.append("resumed", skipped=3)
        events = read_jsonl(ledger_path, torn_tail=True)
        assert [e["event"] for e in events] == ["run_open", "resumed"]


class TestReader:
    def test_torn_tail_is_dropped(self, journal):
        path, append, close, prelude = journal
        append("run_open", run_id="r1")
        append("done", key="k")
        close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "done", "key": "trunc')  # kill mid-write
        events = read_jsonl(path, torn_tail=True)
        assert [e["event"] for e in events] == prelude + ["run_open", "done"]

    def test_interior_corruption_names_the_line(self, journal):
        path, append, close, prelude = journal
        append("run_open", run_id="r1")
        close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("!!! not json !!!\n")
            handle.write(json.dumps({"event": "done", "key": "k"}) + "\n")
        bad_line = len(prelude) + 2
        with pytest.raises(ValueError, match=rf"{os.path.basename(path)}:{bad_line}"):
            read_jsonl(path, torn_tail=True)

    def test_blank_lines_are_skipped(self, journal):
        path, append, close, prelude = journal
        append("run_open", run_id="r1")
        close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n")
        events = read_jsonl(path, torn_tail=True)
        assert [e["event"] for e in events] == prelude + ["run_open"]


class TestReplay:
    def test_done_supersedes_final_failure(self):
        state = replay_ledger(
            [
                {"event": "run_open", "run_id": "r"},
                {"event": "failed", "key": "k", "final": True, "klass": "x"},
                {"event": "done", "key": "k", "sha256": "abc"},
            ]
        )
        assert "k" in state.done and "k" not in state.failed
        assert state.done["k"]["sha256"] == "abc"

    def test_final_failure_supersedes_done(self):
        state = replay_ledger(
            [
                {"event": "done", "key": "k", "sha256": "abc"},
                {"event": "failed", "key": "k", "final": True, "klass": "x"},
            ]
        )
        assert "k" in state.failed and "k" not in state.done

    def test_non_final_failure_only_counts_attempts(self):
        state = replay_ledger(
            [
                {"event": "started", "key": "k", "attempt": 1},
                {"event": "failed", "key": "k", "final": False, "klass": "transient"},
                {"event": "started", "key": "k", "attempt": 2},
            ]
        )
        assert not state.failed and not state.done
        assert state.attempts["k"] == 2

    def test_header_first_wins_and_close_recorded(self):
        state = replay_ledger(
            [
                {"event": "run_open", "run_id": "first"},
                {"event": "run_open", "run_id": "dupe"},
                {"event": "resumed", "skipped": 2},
                {"event": "quarantined", "key": "k", "reason": "artifact-missing"},
                {"event": "run_close", "status": "complete"},
            ]
        )
        assert state.header["run_id"] == "first"
        assert state.resumes == 1
        assert state.quarantines[0]["reason"] == "artifact-missing"
        assert state.closed["status"] == "complete"


class TestDigests:
    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json(
            {"a": [2, 3], "b": 1}
        )
        assert content_digest({"b": 1, "a": 2}) == content_digest({"a": 2, "b": 1})

    def test_content_digest_is_pinned(self):
        # Byte-stability across sessions is the whole point: a resumed
        # run must compute the same cell keys as the killed one.
        assert (
            content_digest({"x": 1})
            == "5041bf1f713df204784353e82f6a4a535931cb64f1f4b4a5aeaffcb720918b22"
        )

    def test_file_digest_matches_content(self, tmp_path):
        path = tmp_path / "artifact.json"
        payload = canonical_json({"v": 1.5}) + "\n"
        path.write_text(payload, encoding="utf-8")
        import hashlib

        assert file_digest(str(path)) == hashlib.sha256(
            payload.encode("utf-8")
        ).hexdigest()
