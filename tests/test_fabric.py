"""Distributed-fabric tests: protocol, leases, failure, byte-identity.

Three layers, cheapest first:

* pure-unit — frame codec over a socketpair, the lease board's
  exactly-once rules, and the failure detector's incarnation algebra,
  all with fake clocks (no sleeping, no sockets beyond a pair);
* coordinator-unit — lease recovery through
  :meth:`Coordinator.check_silent` with an injected clock;
* localhost integration — a real coordinator with in-thread workers
  runs real studies, including one where a worker crashes mid-study,
  and the results are asserted **byte-identical** (cache entries,
  manifest fingerprint, rendered report) to the same StudySpec run
  locally with ``jobs=2``.
"""

import socket
import threading

import pytest

from repro import api
from repro.experiments.parallel.cache import RunCache
from repro.experiments.parallel.manifest import StudyManifest
from repro.experiments.spec import StudySpec
from repro.fabric import (
    Coordinator,
    FailureDetector,
    LeaseBoard,
    ProtocolError,
    Worker,
    recv_frame,
    send_frame,
)
from repro.fabric.client import status as fabric_status
from repro.fabric.client import submit as fabric_submit


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ---------------------------------------------------------------------------
# protocol framing
# ---------------------------------------------------------------------------

class TestProtocol:
    def roundtrip(self, message):
        a, b = socket.socketpair()
        try:
            send_frame(a, message)
            return recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_roundtrip(self):
        msg = {"type": "lease", "lease_id": 7, "config": {"rms": "LOWEST"}}
        assert self.roundtrip(msg) == msg

    def test_unicode_safe(self):
        assert self.roundtrip({"type": "x", "s": "µ-héllo"})["s"] == "µ-héllo"

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x10{\"type\"")  # promises 16, sends 8
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_length_raises(self, monkeypatch):
        from repro.fabric import protocol

        monkeypatch.setattr(protocol, "MAX_FRAME", 16)
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x01\x00")
            with pytest.raises(ProtocolError, match="MAX_FRAME"):
                protocol.recv_frame(b)
            with pytest.raises(ProtocolError, match="MAX_FRAME"):
                protocol.send_frame(a, {"type": "x", "pad": "y" * 64})
        finally:
            a.close()
            b.close()

    def test_non_object_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            body = b"[1,2,3]"
            a.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(ProtocolError, match="'type'"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


# ---------------------------------------------------------------------------
# lease board: exactly-once
# ---------------------------------------------------------------------------

class TestLeaseBoard:
    def test_submit_dedups(self):
        board = LeaseBoard()
        assert board.submit("k1", {"c": 1})
        assert not board.submit("k1", {"c": 1})
        assert board.pending_count == 1

    def test_fifo_grant_order(self):
        board = LeaseBoard()
        for key in ("k1", "k2", "k3"):
            board.submit(key, {})
        granted = [board.next_for("w", 1).key for _ in range(3)]
        assert granted == ["k1", "k2", "k3"]
        assert board.next_for("w", 1) is None

    def test_complete_is_exactly_once(self):
        board = LeaseBoard()
        board.submit("k1", {})
        lease = board.next_for("w", 1)
        assert board.complete(lease.lease_id, "w", 1, {"m": 1})
        assert not board.complete(lease.lease_id, "w", 1, {"m": 1})
        assert board.completed == 1
        assert board.duplicates == 1
        assert board.take_result("k1") == {"m": 1}

    def test_stale_incarnation_rejected(self):
        board = LeaseBoard()
        board.submit("k1", {})
        lease = board.next_for("w", 1)
        assert not board.complete(lease.lease_id, "w", 2, {"m": 1})
        assert not board.complete(lease.lease_id, "other", 1, {"m": 1})
        assert board.duplicates == 2
        assert not board.is_done("k1")

    def test_requeued_lease_drops_the_ghost_result(self):
        """The canonical crash interleaving: grant, declare the worker
        dead (requeue), re-grant elsewhere — the dead worker's late
        result must not land."""
        board = LeaseBoard()
        board.submit("k1", {"c": 1})
        old = board.next_for("w1", 1)
        assert board.fail_worker("w1") == ["k1"]
        fresh = board.next_for("w2", 1)
        assert fresh.key == "k1" and fresh.lease_id != old.lease_id
        assert not board.complete(old.lease_id, "w1", 1, {"m": "ghost"})
        assert board.complete(fresh.lease_id, "w2", 1, {"m": "real"})
        assert board.take_result("k1") == {"m": "real"}
        assert board.requeues == 1

    def test_fail_worker_requeues_to_the_front(self):
        board = LeaseBoard()
        board.submit("k1", {})
        board.next_for("w1", 1)
        board.submit("k2", {})
        board.fail_worker("w1")
        assert board.next_for("w2", 1).key == "k1"  # recovery first

    def test_abort_is_terminal(self):
        board = LeaseBoard()
        board.submit("k1", {})
        lease = board.next_for("w1", 1)
        assert board.abort(lease.lease_id, {"error": "gave up"}) == "k1"
        assert board.is_done("k1")
        assert board.pending_count == 0
        assert board.abort(lease.lease_id, {}) is None


# ---------------------------------------------------------------------------
# failure detector: incarnations and silence
# ---------------------------------------------------------------------------

class TestFailureDetector:
    def test_register_and_silence(self):
        clock = FakeClock()
        det = FailureDetector(timeout=5.0, clock=clock)
        assert det.register("w1", 1)
        assert det.is_alive("w1")
        clock.advance(4.9)
        assert det.silent() == []
        clock.advance(0.2)
        assert det.silent() == ["w1"]
        assert not det.is_alive("w1")

    def test_heartbeat_resets_the_timer(self):
        clock = FakeClock()
        det = FailureDetector(timeout=5.0, clock=clock)
        det.register("w1", 1)
        clock.advance(4.0)
        assert det.beat("w1", 1)
        clock.advance(4.0)
        assert det.silent() == []

    def test_stale_incarnation_cannot_register_or_beat(self):
        det = FailureDetector(timeout=5.0, clock=FakeClock())
        assert det.register("w1", 2)
        assert not det.register("w1", 2)  # duplicate life
        assert not det.register("w1", 1)  # older life
        assert det.register("w1", 3)      # a restart supersedes
        assert not det.beat("w1", 2)      # ghost heartbeat from life 2
        assert det.beat("w1", 3)
        assert det.incarnation("w1") == 3

    def test_unknown_worker_heartbeat_ignored(self):
        det = FailureDetector(timeout=5.0, clock=FakeClock())
        assert not det.beat("nobody", 1)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            FailureDetector(timeout=0.0)


# ---------------------------------------------------------------------------
# coordinator lease recovery (fake clock, no sockets)
# ---------------------------------------------------------------------------

class TestCoordinatorRecovery:
    def test_check_silent_requeues_the_dead_workers_leases(self):
        clock = FakeClock()
        coord = Coordinator(heartbeat_timeout=5.0, clock=clock)
        with coord._cond:
            coord.detector.register("w1", 1)
            coord.detector.register("w2", 1)
            coord.board.submit("k1", {"c": 1})
            coord.board.submit("k2", {"c": 2})
            coord.board.next_for("w1", 1)
            coord.board.next_for("w2", 1)
        clock.advance(3.0)
        with coord._cond:
            coord.detector.beat("w2", 1)  # only w2 stays chatty
        clock.advance(3.0)
        assert coord.check_silent() == ["w1"]
        assert coord.board.pending_count == 1  # k1 requeued
        assert coord.board.active_count == 1   # k2 untouched
        assert coord.detector.incarnation("w1") is None
        assert coord.check_silent() == []      # idempotent

    def test_execute_raises_when_stopped_mid_batch(self):
        coord = Coordinator(heartbeat_timeout=5.0, clock=FakeClock())
        coord._stopped.set()
        with pytest.raises(RuntimeError, match="stopped"):
            coord.execute(["k1"], [{"c": 1}])

    def test_stop_ends_every_thread(self):
        coord = Coordinator(port=0, heartbeat_timeout=10.0).start()
        coord.stop()
        alive = [t.name for t in coord._threads if t.is_alive()]
        assert alive == []


# ---------------------------------------------------------------------------
# localhost integration: byte identity, with and without a crash
# ---------------------------------------------------------------------------

RMS_SUBSET = ("LOWEST", "CENTRAL", "S-I", "R-I")


def _spawn_worker(address, **kwargs):
    """A worker on a thread; crashes inside it must not kill the test."""
    worker = Worker(address, heartbeat_interval=0.1, **kwargs)

    def run():
        try:
            worker.run()
        except Exception:  # noqa: BLE001 - simulated crashes end up here
            pass

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return worker, thread


@pytest.mark.slow
class TestFabricIntegration:
    def local_reference(self, spec, tmp_path):
        """The same spec run locally with jobs=2, in its own cache."""
        local_dir = tmp_path / "local-cache"
        return api.run_study(spec.replace(cache_dir=str(local_dir))), local_dir

    def assert_cache_bytes_equal(self, dir_a, dir_b):
        entries_a = RunCache(str(dir_a)).entry_bytes()
        entries_b = RunCache(str(dir_b)).entry_bytes()
        assert entries_a, "reference cache is empty — the study cached nothing"
        assert entries_a == entries_b

    def test_submitted_study_is_byte_identical_to_local(self, tmp_path):
        spec = StudySpec(
            kind="compare", profile="ci", rms=RMS_SUBSET,
            cache_dir=str(tmp_path / "fabric-cache"), jobs=2,
        )
        local_result, local_dir = self.local_reference(spec, tmp_path)
        with Coordinator(port=0, heartbeat_timeout=10.0) as coord:
            workers = [_spawn_worker(coord.address, worker_id=f"w{i}")
                       for i in range(2)]
            result = fabric_submit(spec, coord.address, timeout=120.0)
            snapshot = fabric_status(coord.address)
            for worker, _ in workers:
                worker.stop()
        assert result.report == local_result.report
        self.assert_cache_bytes_equal(local_dir, tmp_path / "fabric-cache")
        assert snapshot["jobs_done"] == 1
        assert snapshot["completed"] == len(RMS_SUBSET)
        assert snapshot["duplicates"] == 0
        # both workers pulled leases — the batch really fanned out
        executed = [w.leases_executed for w, _ in workers]
        assert sum(executed) == len(RMS_SUBSET)
        assert all(n >= 1 for n in executed)

    def test_worker_killed_mid_study_still_completes_identically(self, tmp_path):
        """Satellite-4 contract: SIGKILL-equivalent loss of a worker
        mid-study must not change a byte of the cache or the manifest."""
        spec = StudySpec(
            kind="faults", profile="ci", rms=RMS_SUBSET,
            cache_dir=str(tmp_path / "fabric-cache"), jobs=2,
        )
        local_result, local_dir = self.local_reference(spec, tmp_path)

        def crash_after_first_lease(worker):
            raise RuntimeError("simulated crash (socket drops mid-study)")

        with Coordinator(port=0, heartbeat_timeout=10.0) as coord:
            doomed, _ = _spawn_worker(
                coord.address, worker_id="doomed",
                on_lease=crash_after_first_lease, reconnect_attempts=0,
            )
            survivor, _ = _spawn_worker(coord.address, worker_id="survivor")
            result = fabric_submit(spec, coord.address, timeout=300.0)
            snapshot = fabric_status(coord.address)
            survivor.stop()
        assert result.report == local_result.report
        assert result.manifest_path is not None
        self.assert_cache_bytes_equal(local_dir, tmp_path / "fabric-cache")
        fabric_manifest = StudyManifest(result.manifest_path)
        fabric_manifest.load()
        local_manifest = StudyManifest(local_result.manifest_path)
        local_manifest.load()
        assert len(fabric_manifest) > 0
        assert fabric_manifest.fingerprint() == local_manifest.fingerprint()
        # the doomed worker really died after one lease, and its loss
        # rescheduled work (the lease granted while it was crashing)
        assert doomed.leases_executed == 1
        assert snapshot["requeues"] >= 1
        assert snapshot["duplicates"] == 0
        assert snapshot["completed"] == len(RMS_SUBSET) * 3  # 3 ci scales

    def test_submit_error_reaches_the_client(self):
        with Coordinator(port=0, heartbeat_timeout=10.0) as coord:
            # version-valid frame but an invalid spec payload
            sock = socket.create_connection(coord.address, timeout=10.0)
            try:
                from repro.fabric.protocol import PROTOCOL_VERSION

                send_frame(sock, {"type": "submit", "v": PROTOCOL_VERSION,
                                  "spec": {"kind": "nonsense"}})
                assert recv_frame(sock)["type"] == "accepted"
                reply = recv_frame(sock)
            finally:
                sock.close()
        assert reply["type"] == "error"
        assert "nonsense" in reply["message"]

    def test_stale_worker_registration_rejected(self):
        with Coordinator(port=0, heartbeat_timeout=10.0) as coord:
            from repro.fabric.protocol import PROTOCOL_VERSION

            def register(incarnation):
                sock = socket.create_connection(coord.address, timeout=10.0)
                send_frame(sock, {"type": "register", "worker_id": "w",
                                  "incarnation": incarnation,
                                  "v": PROTOCOL_VERSION})
                return sock, recv_frame(sock)

            s1, hello1 = register(2)
            try:
                s2, hello2 = register(1)
                s2.close()
            finally:
                s1.close()
        assert hello1["type"] == "registered"
        assert hello2["type"] == "rejected"
        assert "stale" in hello2["message"]
