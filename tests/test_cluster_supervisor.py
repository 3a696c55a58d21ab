"""Process-level supervisor tests (``chaos`` lane: real subprocesses).

These spawn actual ``repro serve`` workers and exercise the three
supervision outcomes the cluster's availability story rests on: a
SIGKILLed worker is respawned as a new generation, a wedged worker
(SIGSTOP — alive but deaf) is detected by missed heartbeats and
killed-then-respawned, and a graceful stop SIGTERMs every worker into
a clean exit-0 drain.
"""

import asyncio
import signal

import pytest

from repro.serve import TraceClient
from repro.retry import RestartBackoff
from repro.serve.supervisor import WorkerSpec, WorkerSupervisor

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
