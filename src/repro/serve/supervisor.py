"""Supervised engine worker processes: spawn, health-check, restart.

One :class:`WorkerSupervisor` owns N ``repro serve`` subprocesses (the
engine workers of a :class:`~repro.serve.cluster.ClusterRouter`).  Per
worker it runs a monitor task that watches two failure modes:

* **crash** — the process exits (or is SIGKILLed); ``process.wait()``
  returns and the monitor enters the restart path immediately;
* **wedge** — the process is alive but stops answering: the monitor
  heartbeats it (the protocol's idempotent ``health`` op) under a
  liveness deadline; ``miss_limit`` consecutive misses get the process
  SIGKILLed, which turns the wedge into a crash and reuses the same
  restart path.  A ``busy`` rejection counts as *alive* — an engine
  under backpressure is overloaded, not dead, and restarting it would
  only convert load into an outage.

Restarts are paced by :class:`~repro.retry.RestartBackoff`
(seeded jittered exponential backoff with a flap detector: a
crash-looping worker is held down for ``hold_down_s`` per attempt but
never abandoned).  Every (re)spawn binds ``--port 0`` and the
supervisor learns the actual port from the child's stdout announcement
(:mod:`repro.serve.ports`) — nothing in the cluster ever races on a
fixed port.  State transitions are pushed to the router through the
``on_worker_up`` / ``on_worker_down`` callbacks; the *generation*
counter increments per spawn so consumers can tell a restarted worker
from a reconnect to the same one.

Worker supervision states (see DESIGN.md for the error-code mapping):

    starting -> up -> down -> backoff -> starting -> ...
                        \\-> (flapping: backoff at hold_down_s)

Shutdown is graceful by default: SIGTERM, which ``repro serve``
handles by draining its engine (abandoned requests are answered
``shutdown``) and exporting telemetry; every worker drains at once, and
stragglers past the timeout are SIGKILLed and reported unclean.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import obs
from . import ports, protocol
from .client import TraceClient
from ..retry import RestartBackoff

__all__ = ["WorkerSpec", "WorkerHandle", "WorkerSupervisor"]

log = obs.get_logger("serve.supervisor")

#: How long a spawn may take to announce its port before it is treated
#: as a failed start (cold CPython + numpy import is ~1s; CI can be 10x).
SPAWN_DEADLINE_S = 30.0

#: What a stop may take beyond its drain timeout (monitors ending).
STOP_GRACE_S = 5.0


@dataclass(frozen=True)
class WorkerSpec:
    """Engine configuration shared by every worker of a cluster."""

    queue_limit: int = 64
    batch_limit: int = 16
    request_timeout_s: float = 30.0
    session_idle_timeout_s: float = 300.0
    drain_timeout_s: float = 5.0
    #: Base directory for per-worker telemetry exports; each spawn gets
    #: ``<obs_dir>/worker-<id>-gen<generation>`` (a SIGKILLed process
    #: exports nothing — its replacement's directory tells you so).
    obs_dir: Optional[str] = None
    #: Silence worker info-logging on stderr (the port announcement is
    #: stdout and unaffected).
    quiet: bool = True

    def argv(self, host: str) -> List[str]:
        """The worker command line (before per-spawn additions)."""
        argv = [
            sys.executable,
            "-u",
            "-m",
            "repro",
            "serve",
            "--host",
            host,
            "--port",
            "0",
            "--queue-limit",
            str(self.queue_limit),
            "--batch-limit",
            str(self.batch_limit),
            "--timeout",
            str(self.request_timeout_s),
            "--session-idle-timeout",
            str(self.session_idle_timeout_s),
            "--drain-timeout",
            str(self.drain_timeout_s),
        ]
        if self.quiet:
            argv.append("-q")
        return argv


@dataclass
class WorkerHandle:
    """Everything the supervisor (and router) knows about one worker."""

    worker_id: str
    host: str = "127.0.0.1"
    port: int = 0
    state: str = "starting"  #: starting | up | down | backoff
    generation: int = 0  #: increments per spawn; restarts are visible
    process: Optional[Any] = None  # asyncio.subprocess.Process
    backoff: RestartBackoff = field(default_factory=RestartBackoff)
    up_since: float = 0.0
    heartbeat_misses: int = 0
    #: This generation's telemetry directory (when the spec sets one).
    obs_dir: Optional[str] = None
    #: The flight-recorder journal harvested from the last death — the
    #: post-mortem artifact a SIGKILLed generation leaves behind.
    flight_dump: Optional[str] = None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    @property
    def endpoint(self) -> Tuple[str, int]:
        return self.host, self.port


def _worker_env() -> Dict[str, str]:
    """The child environment: inherited, plus this repro on PYTHONPATH
    (the supervisor may itself be running from an uninstalled src tree)."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    existing = env.get("PYTHONPATH")
    if existing:
        if src not in existing.split(os.pathsep):
            env["PYTHONPATH"] = os.pathsep.join([src, existing])
    else:
        env["PYTHONPATH"] = src
    return env


class WorkerSupervisor:
    """Spawn and babysit N engine workers (see the module docstring).

    Parameters
    ----------
    count:
        Number of workers.
    spec:
        Shared :class:`WorkerSpec` engine configuration.
    host:
        Bind address workers listen on.
    heartbeat_interval_s, liveness_deadline_s, miss_limit:
        Health-check cadence: every ``heartbeat_interval_s`` the
        monitor sends ``health`` and waits ``liveness_deadline_s``;
        ``miss_limit`` consecutive misses SIGKILL the worker (a wedge
        becomes a crash, and the restart path takes over).
    backoff_factory:
        Builds each worker's :class:`RestartBackoff`; receives the
        worker index (so jitter decorrelates across workers).
    on_worker_up, on_worker_down:
        Synchronous callbacks into the router: ``up(handle)`` after a
        spawn announced its port, ``down(handle)`` the moment the
        worker is declared dead.
    """

    def __init__(
        self,
        count: int,
        spec: Optional[WorkerSpec] = None,
        host: str = "127.0.0.1",
        heartbeat_interval_s: float = 0.5,
        liveness_deadline_s: float = 2.0,
        miss_limit: int = 3,
        backoff_factory: Optional[Callable[[int], RestartBackoff]] = None,
        on_worker_up: Optional[Callable[[WorkerHandle], None]] = None,
        on_worker_down: Optional[Callable[[WorkerHandle], None]] = None,
        seed: int = 0,
    ):
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if miss_limit < 1:
            raise ValueError(f"miss_limit must be >= 1, got {miss_limit}")
        self.spec = spec if spec is not None else WorkerSpec()
        self.host = host
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.liveness_deadline_s = float(liveness_deadline_s)
        self.miss_limit = int(miss_limit)
        self.on_worker_up = on_worker_up
        self.on_worker_down = on_worker_down
        if backoff_factory is None:
            backoff_factory = lambda index: RestartBackoff(  # noqa: E731
                base_s=0.05, max_s=2.0, seed=seed * 8191 + index
            )
        self.handles: Dict[str, WorkerHandle] = {
            f"w{i}": WorkerHandle(
                worker_id=f"w{i}", host=host, backoff=backoff_factory(i)
            )
            for i in range(count)
        }
        self._monitors: List["asyncio.Task[None]"] = []
        self._stdout_drains: "set[asyncio.Task[None]]" = set()
        self._stopping = False

    # -- queries -------------------------------------------------------

    def live_workers(self) -> List[str]:
        """Worker ids currently up (the ring's membership view)."""
        return sorted(
            worker_id
            for worker_id, handle in self.handles.items()
            if handle.state == "up"
        )

    def handle(self, worker_id: str) -> WorkerHandle:
        return self.handles[worker_id]

    def restarts(self) -> int:
        """Total restarts across all workers (spawns beyond the first)."""
        return sum(max(0, h.generation - 1) for h in self.handles.values())

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Spawn every worker and start its monitor; returns when all
        workers are up (a worker that fails its *first* spawn raises —
        a cluster that cannot start should say so loudly)."""
        await asyncio.gather(*(self._spawn(h) for h in self.handles.values()))
        loop = asyncio.get_running_loop()
        for handle in self.handles.values():
            self._monitors.append(
                loop.create_task(
                    self._monitor(handle), name=f"repro-supervise-{handle.worker_id}"
                )
            )

    async def stop(self, timeout_s: float = 10.0) -> Dict[str, Any]:
        """Gracefully stop every worker; returns the drain report.

        SIGTERM every worker at once (``repro serve`` drains and exits
        0), SIGKILL whatever still runs ``timeout_s`` later, so the stop
        takes about ``timeout_s + STOP_GRACE_S`` at most.  ``clean`` is
        True only when every worker exited gracefully with code 0.
        """
        self._stopping = True
        for task in self._monitors:
            task.cancel()
        if self._monitors:
            # A monitor that lost its cancel must not hold the stop up.
            await asyncio.wait(self._monitors, timeout=STOP_GRACE_S)
        self._monitors.clear()
        report: Dict[str, Any] = {"clean": True, "workers": {}}
        draining = {}
        for worker_id, handle in sorted(self.handles.items()):
            entry: Dict[str, Any] = {
                "restarts": max(0, handle.generation - 1),
                "flapping": handle.backoff.flapping,
            }
            process = handle.process
            if process is None or process.returncode is not None:
                # Already dead (mid-backoff at stop time).
                entry["exit"] = None if process is None else process.returncode
                entry["graceful"] = False
            else:
                try:
                    process.send_signal(signal.SIGTERM)
                except ProcessLookupError:
                    pass
                draining[worker_id] = (process, asyncio.ensure_future(process.wait()))
            handle.state = "down"
            report["workers"][worker_id] = entry
        if draining:
            await asyncio.wait([w for _, w in draining.values()], timeout=timeout_s)
        for worker_id, (process, exited) in draining.items():
            graceful = exited.done() and exited.result() == 0
            if not exited.done():
                process.kill()
            report["workers"][worker_id].update(exit=await exited, graceful=graceful)
        report["clean"] = all(e["graceful"] for e in report["workers"].values())
        for task in list(self._stdout_drains):
            task.cancel()
        if self._stdout_drains:
            await asyncio.gather(*self._stdout_drains, return_exceptions=True)
        self._stdout_drains.clear()
        self._gauge()
        return report

    # -- chaos hooks (the soak's kill switch) ---------------------------

    def kill(self, worker_id: str, sig: int = signal.SIGKILL) -> int:
        """Send ``sig`` to a worker process (the soak's SIGKILL path).

        Returns the signalled pid.  The monitor notices the death via
        ``process.wait()`` and runs the normal restart path — exactly
        what a real crash would do.
        """
        handle = self.handles[worker_id]
        if handle.process is None or handle.process.returncode is not None:
            raise ValueError(f"worker {worker_id} has no live process to signal")
        pid = handle.process.pid
        handle.process.send_signal(sig)
        obs.inc("cluster.workers_killed", worker=worker_id)
        log.info(
            "worker signalled",
            extra=obs.fields(worker=worker_id, pid=pid, sig=int(sig)),
        )
        return pid

    def flight_dump(self, worker_id: str) -> Optional[str]:
        """Path of a worker's flight-recorder journal, if one exists.

        Resolves against the *current* generation's obs dir, so the
        router can reference the artifact the moment it notices a
        transport failure — before the monitor has even processed the
        death.  Caches the last harvest on the handle.
        """
        handle = self.handles.get(worker_id)
        if handle is None:
            return None
        if handle.obs_dir:
            path = os.path.join(handle.obs_dir, obs.FLIGHT_FILENAME)
            if os.path.isfile(path):
                handle.flight_dump = path
        return handle.flight_dump

    async def wait_all_up(self, timeout_s: float = 30.0) -> None:
        """Block until every worker is up (soaks use this after kills)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if all(h.state == "up" for h in self.handles.values()):
                return
            await asyncio.sleep(0.02)
        down = [w for w, h in sorted(self.handles.items()) if h.state != "up"]
        raise TimeoutError(f"workers still down after {timeout_s}s: {down}")

    # -- spawning -------------------------------------------------------

    async def _spawn(self, handle: WorkerHandle) -> None:
        """Start one worker process and wait for its port announcement."""
        argv = list(self.spec.argv(self.host))
        generation = handle.generation + 1
        worker_obs_dir = None
        if self.spec.obs_dir:
            worker_obs_dir = os.path.join(
                self.spec.obs_dir,
                f"worker-{handle.worker_id}-gen{generation}",
            )
            argv += ["--obs-dir", worker_obs_dir]
        process = await asyncio.create_subprocess_exec(
            *argv,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL if self.spec.quiet else None,
            env=_worker_env(),
        )
        try:
            assert process.stdout is not None
            _, host, port = await ports.read_listening(
                process.stdout, SPAWN_DEADLINE_S
            )
        except (TimeoutError, ConnectionError) as exc:
            # Failed spawn: reap it and re-raise for the caller (first
            # start) or the monitor's restart loop (respawns).
            if process.returncode is None:
                process.kill()
            await process.wait()
            raise ConnectionError(
                f"worker {handle.worker_id} failed to start: {exc}"
            ) from exc
        except asyncio.CancelledError:
            # Supervisor stopping mid-spawn: the half-started child
            # must not be orphaned.
            if process.returncode is None:
                process.kill()
            await process.wait()
            raise
        # Keep draining the child's stdout so it can never block on a
        # full pipe (it should print nothing further, but "should" is
        # not a memory guarantee).
        drain = asyncio.get_running_loop().create_task(
            self._drain_stdout(process.stdout),
            name=f"repro-worker-stdout-{handle.worker_id}",
        )
        self._stdout_drains.add(drain)
        drain.add_done_callback(self._stdout_drains.discard)
        handle.process = process
        handle.host, handle.port = host, port
        handle.generation = generation
        handle.state = "up"
        handle.up_since = time.monotonic()
        handle.heartbeat_misses = 0
        handle.obs_dir = worker_obs_dir
        obs.inc("cluster.worker_spawns", worker=handle.worker_id)
        self._gauge()
        log.info(
            "worker up",
            extra=obs.fields(
                worker=handle.worker_id,
                pid=process.pid,
                port=port,
                generation=generation,
            ),
        )
        if self.on_worker_up is not None:
            self.on_worker_up(handle)

    @staticmethod
    async def _drain_stdout(reader: asyncio.StreamReader) -> None:
        while await reader.read(4096):
            pass

    # -- monitoring -----------------------------------------------------

    async def _monitor(self, handle: WorkerHandle) -> None:
        """One worker's watch-restart loop (runs until supervisor stop)."""
        # Also ends on ``_stopping``: before Python 3.12, ``asyncio.wait_for``
        # drops a cancel that lands as its awaitable (a heartbeat probe) ends.
        while not self._stopping:
            process = handle.process
            assert process is not None
            try:
                await asyncio.wait_for(process.wait(), self.heartbeat_interval_s)
            except asyncio.TimeoutError:
                # Still running: health-check it, then loop.
                await self._heartbeat(handle)
                continue
            # The process exited (crash, SIGKILL, or OOM — all the same
            # from here): declare it down and restart with backoff.
            await self._restart(handle, f"exited with {process.returncode}")

    async def _heartbeat(self, handle: WorkerHandle) -> None:
        """One ``health`` probe under the liveness deadline."""
        try:
            response = await asyncio.wait_for(
                self._probe(handle), self.liveness_deadline_s
            )
        except (asyncio.TimeoutError, ConnectionError, OSError):
            handle.heartbeat_misses += 1
            obs.inc("cluster.heartbeat_misses", worker=handle.worker_id)
            log.warning(
                "heartbeat missed",
                extra=obs.fields(
                    worker=handle.worker_id, misses=handle.heartbeat_misses
                ),
            )
            if handle.heartbeat_misses >= self.miss_limit:
                # Wedged: alive but unresponsive.  SIGKILL turns it
                # into a crash; the monitor loop's process.wait() picks
                # it up on the next iteration.
                obs.inc("cluster.workers_wedged", worker=handle.worker_id)
                log.error(
                    "worker wedged; killing",
                    extra=obs.fields(worker=handle.worker_id, pid=handle.pid),
                )
                try:
                    handle.process.kill()
                except ProcessLookupError:
                    pass
            return
        handle.heartbeat_misses = 0
        handle.backoff.note_stable(time.monotonic() - handle.up_since)
        obs.set_gauge(
            "cluster.worker_outstanding",
            float(response.get("outstanding", 0)),
            worker=handle.worker_id,
        )

    async def _probe(self, handle: WorkerHandle) -> Dict[str, Any]:
        """Connect, send ``health``, close.  A ``busy`` answer counts as
        alive (an overloaded engine must not be restarted into an
        outage), so this uses the raw request path, not ``call``."""
        client = await TraceClient.connect(handle.host, handle.port)
        try:
            response = await client.request("health")
        finally:
            await client.close()
        if response.get("ok"):
            return response
        error = (response.get("error") or {}).get("code")
        if error == protocol.ERR_BUSY:
            return {"busy": True}
        raise ConnectionError(f"health answered error {error!r}")

    async def _restart(self, handle: WorkerHandle, reason: str) -> None:
        """The death → backoff → respawn path (with flap hold-down)."""
        if handle.state == "up":
            handle.state = "down"
            obs.inc("cluster.worker_deaths", worker=handle.worker_id)
            self._gauge()
            # Harvest the black box BEFORE announcing the death, so the
            # router's failover log can reference the post-mortem.  The
            # journal was written eagerly by the worker itself; even a
            # SIGKILLed generation left it behind.
            dump = self.flight_dump(handle.worker_id)
            if dump is not None:
                obs.inc("cluster.flight_harvests", worker=handle.worker_id)
            log.warning(
                "worker down",
                extra=obs.fields(
                    worker=handle.worker_id, reason=reason, flight_dump=dump
                ),
            )
            if self.on_worker_down is not None:
                self.on_worker_down(handle)
        while not self._stopping:  # respawn until it sticks (flap hold-down paces us)
            delay = handle.backoff.next_delay()
            handle.state = "backoff"
            obs.inc("cluster.worker_restarts", worker=handle.worker_id)
            log.info(
                "restarting worker",
                extra=obs.fields(
                    worker=handle.worker_id,
                    delay_s=round(delay, 3),
                    flapping=handle.backoff.flapping,
                ),
            )
            await asyncio.sleep(delay)
            try:
                await self._spawn(handle)
                return
            except (ConnectionError, OSError) as exc:
                handle.state = "down"
                log.error(
                    "respawn failed",
                    extra=obs.fields(worker=handle.worker_id, error=str(exc)),
                )

    def _gauge(self) -> None:
        obs.set_gauge(
            "cluster.workers_up",
            sum(1 for h in self.handles.values() if h.state == "up"),
        )
