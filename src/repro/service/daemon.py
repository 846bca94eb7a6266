"""The job daemon: a worker fleet behind an async job API.

One :class:`Daemon` owns

* a **worker fleet** -- long-lived processes, one pipe each, executing
  :func:`repro.harness.experiment.run_experiment_safe` (so a sick
  configuration degrades to a failure result instead of killing the
  worker) with the per-run ``SIGALRM`` timeout of
  :func:`repro.harness.parallel._invoke`;
* a **supervisor thread** -- multiplexes worker pipes and process
  sentinels through :func:`multiprocessing.connection.wait`; a worker
  death requeues its job (bounded by
  :data:`~repro.service.jobs.DEFAULT_JOB_RETRIES` attempts) and respawns
  the worker, following the self-healing discipline of
  :mod:`repro.sim.shard`;
* a **socket server** -- one thread per client connection speaking the
  newline-JSON protocol of :mod:`repro.service.protocol`;
* a :class:`~repro.service.jobs.JobTable` with the dedup rules
  documented there, backed by the shared result store
  (:func:`repro.harness.cache.open_cache`) for submit-time cache hits.

Telemetry-observed jobs stream: the worker attaches a forwarding
``on_sample`` callback (:attr:`repro.telemetry.TelemetryConfig.on_sample`)
so every metric sample travels supervisor-ward while the run is in
flight; the daemon fans samples out to any number of ``stream``
subscribers, keeping a bounded replay buffer for late joiners.

Determinism: workers compute results with the exact same code path as a
direct ``run_experiment`` call -- the daemon only schedules, so results
are bit-identical to serial execution (enforced by tests and the chaos
campaign).
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import os
import queue
import socket
import threading
import time
from collections import deque
from dataclasses import replace
from typing import Dict, List, Optional

from repro import config as repro_config
from repro.harness.cache import open_cache
from repro.harness.parallel import _invoke
from repro.service import jobs as jobstates
from repro.service.jobs import DEFAULT_JOB_RETRIES, Job, JobTable
from repro.service.protocol import (
    PROTOCOL_VERSION,
    bind_address,
    recv_json,
    send_json,
    spec_from_json,
    spec_to_json,
)

logger = logging.getLogger("repro.service.daemon")

#: Metric samples replayed to subscribers that join mid-run.
METRIC_BUFFER = 1024

#: Environment variables propagated into worker processes: everything
#: the experiment layer resolves through :mod:`repro.config`.
_PROPAGATED = tuple(entry.env for entry in repro_config.SETTINGS.values())


def worker_env(base: Optional[dict] = None) -> Dict[str, str]:
    """The ``REPRO_*`` subset of the environment workers inherit."""
    source = os.environ if base is None else base
    return {
        name: source[name] for name in _PROPAGATED if name in source
    }


def _worker_main(conn, env: Dict[str, str], parent_pid: int,
                 run_timeout: Optional[float]) -> None:
    """Worker loop: receive ("run", ...), reply ("done"/"failed", ...).

    Runs in the child process.  The environment is patched *here* so the
    daemon's host process is never mutated.  An orphan guard exits when
    the daemon disappears, mirroring ``repro.sim.shard``'s workers.
    """
    from repro.harness.experiment import run_experiment_safe

    for name in _PROPAGATED:
        os.environ.pop(name, None)
    os.environ.update(env)
    while True:
        try:
            if not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    os._exit(2)  # orphaned: daemon died without cleanup
                continue
            message = conn.recv()
        except (EOFError, OSError):
            os._exit(2)
        if message[0] == "exit":
            return
        _, job_id, spec_json = message
        spec = spec_from_json(spec_json)
        if spec.observed:
            def _forward(cycle, values, _job=job_id):
                try:
                    conn.send(("metric", _job, cycle, dict(values)))
                except (BrokenPipeError, OSError):
                    pass  # daemon gone; the orphan guard will fire
            spec = replace(
                spec, telemetry=replace(spec.telemetry, on_sample=_forward)
            )
        try:
            result = _invoke(run_experiment_safe, spec, run_timeout)
            conn.send(("done", job_id, result.to_json()))
        except BaseException as exc:  # noqa: BLE001 - forwarded, not hidden
            try:
                conn.send(("failed", job_id, type(exc).__name__, str(exc)))
            except (BrokenPipeError, OSError):
                os._exit(2)


class _Worker:
    """Supervisor-side handle of one fleet member."""

    def __init__(self, ctx, env, run_timeout) -> None:
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, env, os.getpid(), run_timeout),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.current: Optional[str] = None  # job_id in flight
        self.executed = 0

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    def stop(self, grace: float = 2.0) -> None:
        try:
            self.conn.send(("exit",))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(grace)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(grace)
            if self.proc.is_alive():  # pragma: no cover - stuck in C code
                self.proc.kill()
                self.proc.join()
        self.conn.close()


class Daemon:
    """See module docstring.  ``serve_forever`` = ``start`` + block."""

    def __init__(self, address: str, workers: Optional[int] = None,
                 env: Optional[Dict[str, str]] = None,
                 retries: int = DEFAULT_JOB_RETRIES,
                 run_timeout: Optional[float] = None) -> None:
        self.address = address
        self.retries = retries
        self.run_timeout = run_timeout
        self.env = worker_env(env)
        # Specs are scaled once at submit time (so job keys, dedup and
        # store routing agree); workers must not scale them again.
        self.env.pop("REPRO_SCALE", None)
        configured = repro_config.resolve("service_workers", override=workers)
        self.n_workers = configured if configured else (os.cpu_count() or 1)
        self.jobs = JobTable()
        self.started_at: Optional[float] = None
        self._queue: deque = deque()
        self._lock = threading.RLock()
        self._workers: List[_Worker] = []
        self._subscribers: Dict[str, List[queue.Queue]] = {}
        self._metric_buffers: Dict[str, List[list]] = {}
        self._stop = threading.Event()
        #: Held for the whole of ``shutdown`` so a second caller waits
        #: for the first to finish stopping the fleet.
        self._shutdown_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._server: Optional[socket.socket] = None
        self._respawns = 0
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = multiprocessing.get_context()
        self._ctx = ctx
        cache_path = self.env.get("REPRO_CACHE", "")
        self._store = open_cache(cache_path) if cache_path else None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "Daemon":
        self._server = bind_address(self.address)
        self._server.settimeout(0.2)
        self.started_at = time.time()
        with self._lock:
            for _ in range(self.n_workers):
                self._workers.append(
                    _Worker(self._ctx, self.env, self.run_timeout))
        for target, name in ((self._supervise, "supervisor"),
                             (self._accept, "acceptor")):
            thread = threading.Thread(
                target=target, name=f"repro-service-{name}", daemon=True)
            thread.start()
            self._threads.append(thread)
        logger.info("daemon listening on %s with %d workers (pid %d)",
                    self.address, self.n_workers, os.getpid())
        return self

    def serve_forever(self) -> None:
        self.start()
        try:
            while not self._stop.wait(0.5):
                pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop the fleet and close the socket.

        Every caller returns only once the workers have exited: a
        ``shutdown`` request runs this on a helper thread, and
        ``serve_forever`` must not return (letting the process exit and
        multiprocessing terminate the workers) before that thread is done.
        """
        with self._shutdown_lock:
            if self._stop.is_set():
                return
            self._stop.set()
            for thread in self._threads:
                thread.join(timeout=5.0)
            with self._lock:
                workers, self._workers = self._workers, []
            for worker in workers:
                worker.stop()
            if self._server is not None:
                self._server.close()
                from repro.service.protocol import parse_address

                parsed = parse_address(self.address)
                if not isinstance(parsed, tuple):
                    try:
                        os.unlink(parsed)
                    except OSError:
                        pass
            logger.info("daemon on %s shut down (%d respawns)",
                        self.address, self._respawns)

    # -- job intake ------------------------------------------------------

    def submit_specs(self, spec_dicts: List[dict]) -> List[dict]:
        out = []
        for spec_dict in spec_dicts:
            spec = spec_from_json(spec_dict).scaled()
            key = spec.key()
            with self._lock:
                job = None
                if not spec.observed:
                    existing = self.jobs.joinable_by_key(key)
                    if existing is not None:
                        out.append(existing.to_status())
                        continue
                    entry = self._store.load(key) if self._store else None
                    if entry is not None:
                        job = self.jobs.new_job(
                            spec, key, state=jobstates.DONE, source="cache",
                            result=entry)
                if job is None:
                    job = self.jobs.new_job(spec, key)
                    self._queue.append(job.job_id)
                out.append(job.to_status())
        self._dispatch()
        return out

    def _dispatch(self) -> None:
        """Hand queued jobs to idle workers (any thread may call this)."""
        with self._lock:
            if self._stop.is_set():
                return
            idle = [w for w in self._workers
                    if w.current is None and w.proc.is_alive()]
            while self._queue and idle:
                job = self.jobs.get(self._queue.popleft())
                if job is None or job.state != jobstates.QUEUED:
                    continue
                worker = idle.pop()
                job.state = jobstates.RUNNING
                job.worker_pid = worker.pid
                worker.current = job.job_id
                try:
                    worker.conn.send(
                        ("run", job.job_id, spec_to_json(job.spec)))
                except (BrokenPipeError, OSError):
                    # Death will also surface via the sentinel; requeue
                    # here so the job never sits RUNNING on a corpse.
                    job.state = jobstates.QUEUED
                    job.worker_pid = None
                    worker.current = None
                    self._queue.appendleft(job.job_id)
                    break

    # -- supervision -----------------------------------------------------

    def _supervise(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                conns = {w.conn: w for w in self._workers}
                sentinels = {w.proc.sentinel: w for w in self._workers}
            if not conns:
                time.sleep(0.1)
                continue
            try:
                ready = multiprocessing.connection.wait(
                    list(conns) + list(sentinels), timeout=0.2)
            except OSError:
                continue
            for item in ready:
                worker = conns.get(item)
                if worker is not None:
                    try:
                        while worker.conn.poll(0):
                            self._handle_event(worker, worker.conn.recv())
                    except (EOFError, OSError):
                        pass  # sentinel handling below picks it up
                    continue
                worker = sentinels.get(item)
                if worker is not None and not worker.proc.is_alive():
                    self._reap(worker)
            self._dispatch()

    def _handle_event(self, worker: _Worker, event: tuple) -> None:
        kind = event[0]
        if kind == "metric":
            _, job_id, cycle, values = event
            self._publish(job_id, ["metric", cycle, values])
            return
        _, job_id = event[0], event[1]
        job = self.jobs.get(job_id)
        if job is None:  # pragma: no cover - cancelled/unknown
            worker.current = None
            return
        if kind == "done":
            self.jobs.finish(job, state=jobstates.DONE, result=event[2])
            self._publish(job_id, ["end", jobstates.DONE], close=True)
        else:  # "failed": infrastructure error inside the worker
            _, _, error_kind, message = event
            self._fail_or_requeue(job, error_kind, message)
        worker.current = None
        worker.executed += 1

    def _fail_or_requeue(self, job: Job, error_kind: str,
                         message: str) -> None:
        job.attempts += 1
        if job.attempts > self.retries:
            logger.error("job %s (%s) failed permanently after %d "
                         "attempts: %s", job.job_id, job.key, job.attempts,
                         message)
            self.jobs.finish(job, state=jobstates.FAILED, error=message,
                             error_kind=error_kind)
            self._publish(job.job_id, ["end", jobstates.FAILED], close=True)
        else:
            logger.warning("job %s (%s) attempt %d failed (%s: %s); "
                           "requeueing", job.job_id, job.key, job.attempts,
                           error_kind, message)
            with self._lock:
                job.state = jobstates.QUEUED
                job.worker_pid = None
                self._queue.appendleft(job.job_id)

    def _reap(self, dead: _Worker) -> None:
        """A worker died (SIGKILL, segfault, OOM): requeue + respawn."""
        with self._lock:
            if dead not in self._workers:
                return
            self._workers.remove(dead)
            job_id = dead.current
        exitcode = dead.proc.exitcode
        try:
            dead.conn.close()
        except OSError:
            pass
        if job_id is not None:
            job = self.jobs.get(job_id)
            if job is not None:
                self._fail_or_requeue(
                    job, "WorkerDied",
                    f"worker pid {dead.pid} died (exit {exitcode}) mid-job")
        if not self._stop.is_set():
            replacement = _Worker(self._ctx, self.env, self.run_timeout)
            with self._lock:
                self._workers.append(replacement)
                self._respawns += 1
            logger.warning("respawned worker (pid %s -> %s) after exit %s",
                           dead.pid, replacement.pid, exitcode)

    # -- metric fan-out --------------------------------------------------

    def _publish(self, job_id: str, event: list, close: bool = False) -> None:
        with self._lock:
            if event[0] == "metric":
                buffer = self._metric_buffers.setdefault(job_id, [])
                if len(buffer) < METRIC_BUFFER:
                    buffer.append(event)
            subscribers = list(self._subscribers.get(job_id, ()))
            if close:
                self._subscribers.pop(job_id, None)
        for q in subscribers:
            q.put(event)

    def _subscribe(self, job_id: str) -> "queue.Queue":
        q: "queue.Queue" = queue.Queue()
        with self._lock:
            for event in self._metric_buffers.get(job_id, ()):
                q.put(event)
            job = self.jobs.get(job_id)
            if job is not None and job.state in jobstates.TERMINAL:
                q.put(["end", job.state])
            else:
                self._subscribers.setdefault(job_id, []).append(q)
        return q

    def _unsubscribe(self, job_id: str, q: "queue.Queue") -> None:
        with self._lock:
            subscribers = self._subscribers.get(job_id)
            if subscribers and q in subscribers:
                subscribers.remove(q)

    # -- socket server ---------------------------------------------------

    def _accept(self) -> None:
        while not self._stop.is_set():
            try:
                client, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_client, args=(client,),
                name="repro-service-client", daemon=True)
            thread.start()

    def _serve_client(self, client: socket.socket) -> None:
        client.settimeout(None)
        handle = client.makefile("rwb")
        try:
            request = recv_json(handle)
            if request is None:
                return
            op = request.get("op")
            if op == "submit":
                send_json(handle, {
                    "ok": True,
                    "jobs": self.submit_specs(request.get("specs", [])),
                })
            elif op == "status":
                send_json(handle, {"ok": True,
                                   "jobs": self._statuses(request)})
            elif op == "results":
                send_json(handle, self._results(request))
            elif op == "stream":
                self._stream(handle, request.get("job"))
            elif op == "info":
                send_json(handle, self._info())
            elif op == "shutdown":
                send_json(handle, {"ok": True})
                threading.Thread(target=self.shutdown, daemon=True).start()
            else:
                send_json(handle, {"ok": False,
                                   "error": f"unknown op {op!r}"})
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        except Exception as exc:  # noqa: BLE001 - report instead of dying
            logger.exception("error serving client request")
            try:
                send_json(handle, {"ok": False, "error": str(exc)})
            except OSError:
                pass
        finally:
            try:
                handle.close()
            except OSError:
                pass
            client.close()

    def _statuses(self, request: dict) -> List[dict]:
        out = []
        for job_id in request.get("jobs", []):
            job = self.jobs.get(job_id)
            out.append(job.to_status() if job is not None
                       else {"job_id": job_id, "state": "unknown"})
        return out

    def _results(self, request: dict) -> dict:
        job_ids = request.get("jobs", [])
        deadline = None
        if request.get("timeout") is not None:
            deadline = time.monotonic() + float(request["timeout"])
        if request.get("wait", True):
            with self.jobs.changed:
                while True:
                    jobs = [self.jobs.get(j) for j in job_ids]
                    pending = [j for j in jobs if j is not None
                               and j.state not in jobstates.TERMINAL]
                    if not pending:
                        break
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return {"ok": False,
                                    "error": "timed out waiting for jobs"}
                    self.jobs.changed.wait(
                        min(remaining, 1.0) if remaining else 1.0)
                    if self._stop.is_set():
                        return {"ok": False, "error": "daemon shutting down"}
        out = []
        for job_id in job_ids:
            job = self.jobs.get(job_id)
            if job is None:
                out.append({"job_id": job_id, "state": "unknown"})
                continue
            status = job.to_status()
            status["result"] = job.result
            out.append(status)
        return {"ok": True, "jobs": out}

    def _stream(self, handle, job_id: Optional[str]) -> None:
        job = self.jobs.get(job_id) if job_id else None
        if job is None:
            send_json(handle, {"ok": False,
                               "error": f"unknown job {job_id!r}"})
            return
        send_json(handle, {"ok": True, "streaming": job_id})
        q = self._subscribe(job_id)
        try:
            while not self._stop.is_set():
                try:
                    event = q.get(timeout=0.5)
                except queue.Empty:
                    continue
                if event[0] == "end":
                    send_json(handle, {"event": "end", "state": event[1]})
                    return
                send_json(handle, {"event": "metric", "cycle": event[1],
                                   "values": event[2]})
        finally:
            self._unsubscribe(job_id, q)

    def _info(self) -> dict:
        with self._lock:
            workers = [
                {"pid": w.pid, "alive": w.proc.is_alive(),
                 "current": w.current, "executed": w.executed}
                for w in self._workers
            ]
        states: Dict[str, int] = {}
        for job in self.jobs.snapshot():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "address": self.address,
            "workers": workers,
            "jobs": states,
            "queued": len(self._queue),
            "respawns": self._respawns,
            "store": self.env.get("REPRO_CACHE", ""),
        }
