"""Simulated-time failure detection for migration peers.

For the duration of one migration the source daemon holds a lease on the
destination daemon and on every partner daemon.  The lease is renewed by
lightweight liveness probes piggybacked on the control plane (modelled as
zero-cost: the probes ride existing daemon state, so they schedule pure
callbacks and put **no traffic on the wire and no delay on any process**
— installing a detector leaves every simulated timestamp of a fault-free
run bit-identical).

``miss_threshold`` consecutive failed probes turn the peer *suspected*;
one successful probe clears the suspicion (daemon restarts are a thing).
The detector never acts on its own: the orchestrator polls it — either
:meth:`check` (raise :class:`~repro.resilience.errors.PeerCrashed` on any
current suspicion, the pre-commit behaviour) or through
:meth:`poll_interval`, the deadline-and-detector-aware replacement for
the orchestrator's bare ``STATUS_POLL_S`` busy-wait.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.resilience.errors import MigrationError, PeerCrashed

__all__ = ["FailureDetector"]


class FailureDetector:
    """Lease-based liveness tracking of a migration's peer daemons."""

    def __init__(self, control, source: str, peers: Iterable[str],
                 interval_s: float = 1e-3, miss_threshold: int = 3,
                 poll_s: float = 50e-6):
        self.control = control
        self.sim = control.sim
        self.source = source
        self.peers = [p for p in dict.fromkeys(peers) if p != source]
        self.interval_s = interval_s
        self.miss_threshold = miss_threshold
        #: the orchestrator's status-poll cadence (kept identical to the
        #: legacy busy-wait so fault-free timestamps do not move)
        self.poll_s = poll_s
        self.misses: Dict[str, int] = {p: 0 for p in self.peers}
        self.suspected: Set[str] = set()
        #: suspicion transitions observed over the detector's lifetime
        #: (monotonic; a cleared suspicion does not decrement it)
        self.total_suspicions = 0
        #: monotonic per-peer counters (unlike ``misses``, never reset by
        #: a healthy probe) — folded into the control plane's
        #: ``detector_stats`` on :meth:`stop` so the metrics scrape sees
        #: detector behaviour after the per-migration detector is gone
        self.misses_total: Dict[str, int] = {p: 0 for p in self.peers}
        self.suspicions: Dict[str, int] = {p: 0 for p in self.peers}
        #: suspected → healthy transitions (a flapping daemon)
        self.flaps: Dict[str, int] = {p: 0 for p in self.peers}
        self.running = False
        self._entry = None
        self._folded = False

    # -- lease machinery ---------------------------------------------------

    def start(self) -> "FailureDetector":
        if self.running:
            return self
        self.running = True
        self._entry = self.sim.schedule(self.interval_s, self._tick)
        return self

    def stop(self) -> None:
        if self.running:
            self.running = False
            if self._entry is not None:
                self.sim.cancel(self._entry)
                self._entry = None
        if not self._folded:
            self._folded = True
            note = getattr(self.control, "note_detector", None)
            if note is not None:
                for peer in self.peers:
                    note(peer, self.misses_total[peer],
                         self.suspicions[peer], self.flaps[peer])

    def _tick(self) -> None:
        if not self.running:
            return
        for peer in self.peers:
            if self.control.daemon_down(peer):
                self.misses[peer] += 1
                self.misses_total[peer] += 1
                self.control.stats.heartbeats_missed += 1
                if (self.misses[peer] >= self.miss_threshold
                        and peer not in self.suspected):
                    self.suspected.add(peer)
                    self.suspicions[peer] += 1
                    self.total_suspicions += 1
            else:
                self.misses[peer] = 0
                if peer in self.suspected:
                    self.suspected.discard(peer)
                    self.flaps[peer] += 1
        self._entry = self.sim.schedule(self.interval_s, self._tick)

    # -- queries -----------------------------------------------------------

    def suspects(self, peer: str) -> bool:
        return peer in self.suspected

    def check(self, peer: Optional[str] = None) -> None:
        """Raise :class:`PeerCrashed`, with the consecutive-miss count
        that tripped it (at least ``miss_threshold``), if ``peer`` (or,
        with no argument, any tracked peer) is currently suspected.
        Synchronous: costs no simulated time."""
        for p in self.peers if peer is None else (peer,):
            if p in self.suspected:
                raise PeerCrashed(p, self.misses[p])

    def poll_interval(self, deadline_s: float,
                      failure: Optional[MigrationError] = None,
                      patient: bool = False):
        """Generator: one guarded status-poll tick.

        The wait-with-deadline replacement for the orchestrator's bare
        ``yield sim.timeout(STATUS_POLL_S)``: first check the leases
        (pre-commit callers get :class:`PeerCrashed` the instant a peer is
        suspected; ``patient=True`` post-commit callers wait restarts
        out), then enforce the caller's deadline, then sleep exactly one
        legacy poll interval — the identical timeout keeps fault-free
        event timing bit-identical to the busy-wait it deprecates.
        """
        if not patient:
            self.check()
        if self.sim.now >= deadline_s:
            raise failure if failure is not None else PeerCrashed(
                "?", self.miss_threshold,
                reason="status-poll deadline expired with no more "
                       "specific failure")
        yield self.sim.timeout(self.poll_s)
