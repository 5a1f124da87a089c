"""The fabric worker (``repro work``): lease in, metrics out.

A worker is deliberately dumb: it holds no cache, no manifest, and no
study logic.  It connects to a coordinator, registers with a
``(worker_id, incarnation)`` pair, heartbeats from a side thread, and
then loops — receive a lease, run
:func:`repro.experiments.runner.run_simulation` on the decoded config,
send the metrics back.  All policy (dedup, caching, retry, ordering)
stays coordinator-side, which is what keeps a fabric study
byte-identical to a local run.  Like the engine's pool workers, it keeps
the platform of its last run (:data:`repro.experiments.platform.MEMO`),
so consecutive leases on one platform build it once.

On a lost connection the worker reconnects with a **bumped
incarnation**: the coordinator treats the old life as forfeit (its
leases requeue), and any of this worker's in-flight results from the
old life are rejected as stale — the exactly-once story does not
depend on the worker being careful.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from typing import Callable, Optional, Tuple

from ..experiments.config import config_from_jsonable
from .protocol import PROTOCOL_VERSION, ProtocolError, recv_frame, send_frame

__all__ = ["Worker"]

log = logging.getLogger(__name__)


class Worker:
    """One lease-executing process (or thread, in tests).

    Parameters
    ----------
    address:
        The coordinator's ``(host, port)``.
    worker_id:
        Stable identity across reconnects (default: ``host-pid``).
    heartbeat_interval:
        Seconds between heartbeats; keep well under the coordinator's
        ``heartbeat_timeout``.
    reconnect_attempts:
        Times a lost connection is retried (with a bumped incarnation)
        before :meth:`run` gives up.
    on_lease:
        Test hook called after each completed lease with the worker;
        raising from it simulates a mid-study crash.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        worker_id: Optional[str] = None,
        heartbeat_interval: float = 1.0,
        reconnect_attempts: int = 3,
        on_lease: Optional[Callable[["Worker"], None]] = None,
    ) -> None:
        self.address = (address[0], int(address[1]))
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.heartbeat_interval = heartbeat_interval
        self.reconnect_attempts = reconnect_attempts
        self.on_lease = on_lease
        self.incarnation = 0
        #: leases completed across all lives, for tests/UX
        self.leases_executed = 0
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask :meth:`run` to wind down after the current lease."""
        self._stop.set()

    def run(self) -> int:
        """Serve until shut down; returns completed-lease count.

        Each (re)connection is a new incarnation.  A clean ``shutdown``
        frame or :meth:`stop` ends the loop; a lost connection retries
        up to ``reconnect_attempts`` times.
        """
        attempts_left = self.reconnect_attempts
        while not self._stop.is_set():
            self.incarnation += 1
            try:
                clean = self._serve_once()
            except (OSError, ProtocolError) as exc:
                clean = False
                log.warning("worker %s lost coordinator: %s", self.worker_id, exc)
            if clean or self._stop.is_set():
                break
            attempts_left -= 1
            if attempts_left < 0:
                log.error("worker %s giving up after %d reconnects",
                          self.worker_id, self.reconnect_attempts)
                break
            time.sleep(min(1.0, self.heartbeat_interval))
        return self.leases_executed

    # ------------------------------------------------------------------
    def _serve_once(self) -> bool:
        """One connected life; ``True`` on clean shutdown."""
        sock = socket.create_connection(self.address, timeout=10.0)
        sock.settimeout(None)
        send_lock = threading.Lock()
        try:
            with send_lock:
                send_frame(sock, {
                    "type": "register",
                    "worker_id": self.worker_id,
                    "incarnation": self.incarnation,
                    "v": PROTOCOL_VERSION,
                })
            hello = recv_frame(sock)
            if hello is None or hello.get("type") != "registered":
                message = None if hello is None else hello.get("message")
                raise ProtocolError(f"registration rejected: {message}")
            log.info("worker %s (incarnation %d) registered with %s:%d",
                     self.worker_id, self.incarnation, *self.address)
            beat_stop = threading.Event()
            beater = threading.Thread(
                target=self._heartbeat_loop,
                args=(sock, send_lock, beat_stop),
                name=f"heartbeat-{self.worker_id}",
                daemon=True,
            )
            beater.start()
            try:
                return self._lease_loop(sock, send_lock)
            finally:
                beat_stop.set()
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _heartbeat_loop(
        self, sock: socket.socket, send_lock: threading.Lock, stop: threading.Event
    ) -> None:
        beat = {
            "type": "heartbeat",
            "worker_id": self.worker_id,
            "incarnation": self.incarnation,
        }
        while not stop.wait(self.heartbeat_interval):
            try:
                with send_lock:
                    send_frame(sock, beat)
            except (OSError, ProtocolError):
                return  # the lease loop notices the dead socket itself

    def _lease_loop(self, sock: socket.socket, send_lock: threading.Lock) -> bool:
        while True:
            msg = recv_frame(sock)
            if msg is None:
                return self._stop.is_set()
            kind = msg.get("type")
            if kind == "shutdown":
                log.info("worker %s dismissed", self.worker_id)
                return True
            if kind != "lease":
                log.warning("worker %s ignoring unexpected %r", self.worker_id, kind)
                continue
            reply = self._execute_lease(msg)
            with send_lock:
                send_frame(sock, reply)
            if reply["type"] == "lease_result":
                self.leases_executed += 1
                if self.on_lease is not None:
                    self.on_lease(self)
            if self._stop.is_set():
                return True

    def _execute_lease(self, msg) -> dict:
        """Run one leased config; a ``lease_result`` or ``lease_error``."""
        from ..experiments.parallel.cache import metrics_to_jsonable
        from ..experiments.platform import MEMO
        from ..experiments.runner import run_simulation

        base = {
            "lease_id": msg["lease_id"],
            "worker_id": self.worker_id,
            "incarnation": self.incarnation,
            "key": msg["key"],
        }
        try:
            config = config_from_jsonable(msg["config"])
            metrics = run_simulation(config, platform=MEMO.get(config))
        except Exception as exc:  # noqa: BLE001 - reported to the coordinator
            log.exception("worker %s failed lease %s", self.worker_id, msg["lease_id"])
            return {"type": "lease_error",
                    "message": f"{type(exc).__name__}: {exc}", **base}
        return {"type": "lease_result",
                "metrics": metrics_to_jsonable(metrics), **base}
