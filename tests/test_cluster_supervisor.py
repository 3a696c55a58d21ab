"""Process-level supervisor tests (``chaos`` lane: real subprocesses).

These spawn actual ``repro serve`` workers and exercise the three
supervision outcomes the cluster's availability story rests on: a
SIGKILLed worker is respawned as a new generation, a wedged worker
(SIGSTOP — alive but deaf) is detected by missed heartbeats and
killed-then-respawned, and a graceful stop SIGTERMs every worker into
a clean exit-0 drain.  A stop is bounded by its drain timeout plus
``STOP_GRACE_S``, and no worker outlives it.
"""

import asyncio
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.serve import TraceClient, ports
from repro.retry import RestartBackoff
from repro.serve.supervisor import STOP_GRACE_S, WorkerSpec, WorkerSupervisor

pytestmark = pytest.mark.chaos


def run(coro):
    return asyncio.run(coro)


def fast_backoff(index: int) -> RestartBackoff:
    return RestartBackoff(base_s=0.05, max_s=0.2, seed=index, flap_threshold=50)


async def wait_for_generation(supervisor, worker_id, generation, timeout_s=20.0):
    """Until the worker's replacement (``generation``) is up.

    ``wait_all_up`` alone races the monitor: right after a kill the
    handle still says "up" for its dead process.  The generation bump
    is the unambiguous signal that a *new* spawn announced its port.
    """
    deadline = asyncio.get_running_loop().time() + timeout_s
    handle = supervisor.handle(worker_id)
    while asyncio.get_running_loop().time() < deadline:
        if handle.generation >= generation and handle.state == "up":
            return
        await asyncio.sleep(0.02)
    raise TimeoutError(
        f"{worker_id} never reached generation {generation} "
        f"(state={handle.state}, generation={handle.generation})"
    )


def make_supervisor(count=2, **overrides) -> WorkerSupervisor:
    overrides.setdefault("heartbeat_interval_s", 0.1)
    overrides.setdefault("liveness_deadline_s", 0.5)
    overrides.setdefault("miss_limit", 2)
    overrides.setdefault("backoff_factory", fast_backoff)
    return WorkerSupervisor(
        count,
        spec=WorkerSpec(drain_timeout_s=2.0, session_idle_timeout_s=30.0),
        **overrides,
    )


class TestSupervision:
    def test_spawns_announce_and_serve(self):
        async def scenario():
            supervisor = make_supervisor(count=2)
            await supervisor.start()
            try:
                assert supervisor.live_workers() == ["w0", "w1"]
                ports = {h.port for h in supervisor.handles.values()}
                assert len(ports) == 2 and 0 not in ports
                handle = supervisor.handle("w0")
                async with await TraceClient.connect(*handle.endpoint) as client:
                    hello = await client.hello()
                return hello["server"], supervisor.restarts()
            finally:
                await supervisor.stop()

        server, restarts = run(scenario())
        assert server == "repro.serve"
        assert restarts == 0

    def test_sigkill_respawns_a_new_generation(self):
        async def scenario():
            ups = []
            downs = []
            supervisor = make_supervisor(
                count=2,
                on_worker_up=lambda h: ups.append((h.worker_id, h.generation)),
                on_worker_down=lambda h: downs.append(h.worker_id),
            )
            await supervisor.start()
            try:
                first_port = supervisor.handle("w0").port
                supervisor.kill("w0", signal.SIGKILL)
                await wait_for_generation(supervisor, "w0", 2)
                handle = supervisor.handle("w0")
                # The replacement is a genuinely new process: fresh
                # generation, (almost surely) fresh ephemeral port, and
                # it answers hello.
                async with await TraceClient.connect(*handle.endpoint) as client:
                    await client.hello()
                return handle.generation, supervisor.restarts(), ups, downs, first_port, handle.port
            finally:
                await supervisor.stop()

        generation, restarts, ups, downs, _old_port, _new_port = run(scenario())
        assert generation == 2
        assert restarts == 1
        assert ("w0", 2) in ups
        assert "w0" in downs

    def test_wedged_worker_is_killed_and_respawned(self):
        async def scenario():
            supervisor = make_supervisor(count=1)
            await supervisor.start()
            try:
                handle = supervisor.handle("w0")
                pid = handle.pid
                # SIGSTOP: the process exists but never answers health.
                supervisor.kill("w0", signal.SIGSTOP)
                await wait_for_generation(supervisor, "w0", 2, timeout_s=30.0)
                return pid, handle.pid, handle.generation
            finally:
                await supervisor.stop()

        old_pid, new_pid, generation = run(scenario())
        assert new_pid != old_pid  # the wedge was killed, not resumed
        assert generation == 2

    def test_graceful_stop_drains_every_worker(self):
        async def scenario():
            supervisor = make_supervisor(count=2)
            await supervisor.start()
            return await supervisor.stop()

        report = run(scenario())
        assert report["clean"] is True
        for entry in report["workers"].values():
            assert entry["graceful"] and entry["exit"] == 0


#: Drain timeout of the bounded-stop tests.
DRAIN_S = 2.0


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def children(pid: int) -> list:
    """Pids whose parent is ``pid`` (Linux ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == pid:
                found.append(int(entry))
    return found


class TestBoundedStop:
    def test_stop_landing_on_a_heartbeat_answer_ends(self):
        """Before Python 3.12, ``asyncio.wait_for`` drops a cancel that
        lands as its awaitable completes.  A stop that began as a
        heartbeat probe answered used to leave the monitor looping and
        the stop waiting on it for ever, with the worker still running."""

        async def scenario():
            supervisor = make_supervisor(count=1, heartbeat_interval_s=0.05)
            await supervisor.start()
            pid = supervisor.handle("w0").pid
            probe = supervisor._probe
            stopping = []

            async def probe_then_stop(handle):
                response = await probe(handle)
                if not stopping:
                    # The stop's first step runs before the monitor wakes.
                    loop = asyncio.get_running_loop()
                    stopping.append(loop.create_task(supervisor.stop(DRAIN_S)))
                return response

            supervisor._probe = probe_then_stop
            while not stopping:
                await asyncio.sleep(0.01)
            started = time.monotonic()
            done, _ = await asyncio.wait(stopping, timeout=DRAIN_S + STOP_GRACE_S)
            elapsed = time.monotonic() - started
            if not done:
                os.kill(pid, signal.SIGKILL)
                return None, elapsed, pid
            return stopping[0].result(), elapsed, pid

        report, elapsed, pid = run(scenario())
        assert report is not None, f"stop still running after {elapsed:.1f} s"
        assert report["clean"] is True
        assert not alive(pid)

    def test_workers_drain_under_one_deadline(self):
        async def scenario():
            supervisor = make_supervisor(count=2)
            await supervisor.start()
            pids = [handle.pid for handle in supervisor.handles.values()]
            for worker_id in supervisor.handles:
                # Stopped: deaf to SIGTERM until the SIGKILL.
                supervisor.kill(worker_id, signal.SIGSTOP)
            started = time.monotonic()
            report = await supervisor.stop(DRAIN_S)
            return report, time.monotonic() - started, pids

        report, elapsed, pids = run(scenario())
        assert report["clean"] is False
        assert all(not entry["graceful"] for entry in report["workers"].values())
        # One deadline for both workers, not one each.
        assert DRAIN_S <= elapsed < 2 * DRAIN_S
        assert not any(alive(pid) for pid in pids)

    def test_cluster_sigterm_exits_zero_within_the_bound(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "-q", "cluster", "--workers", "2",
                "--port", "0", "--drain-timeout", str(DRAIN_S),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            announced = 0
            while announced < 3:  # the router and two workers
                line = proc.stdout.readline()
                assert line, "cluster exited before announcing its ports"
                announced += ports.parse_listening(line.decode()) is not None
            workers = children(proc.pid)
            assert len(workers) == 2
            proc.send_signal(signal.SIGTERM)
            # The router's own teardown waits at most 1 s on connections.
            code = proc.wait(timeout=DRAIN_S + STOP_GRACE_S + 1.0)
        finally:
            if proc.poll() is None:
                for pid in children(proc.pid):
                    os.kill(pid, signal.SIGKILL)
                proc.kill()
                proc.wait()
        assert code == 0
        assert not any(alive(pid) for pid in workers)
