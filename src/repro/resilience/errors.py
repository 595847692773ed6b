"""Typed failure taxonomy for the migration control plane.

The paper's workflow (§3, Fig. 2b) assumes the out-of-band daemons stay
healthy for the whole migration.  When they do not, every failure the
orchestrator can observe is raised as one of these types, so the
transactional :class:`~repro.core.orchestrator.LiveMigration` can decide
*mechanically* whether to roll back (before the commit point) or roll
forward (after it) instead of dying mid-flight with a bare RuntimeError.

The hierarchy is deliberately flat: everything is a
:class:`MigrationError`, and each subclass names one observable condition.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["MigrationError", "RpcTimeout", "PeerCrashed", "PresetupFailed",
           "WbsStuck", "PrecopyDiverged"]


class MigrationError(Exception):
    """Base class for every recoverable migration-control-plane failure."""


class RpcTimeout(MigrationError):
    """A control RPC missed its deadline (retransmissions included).

    Raised by :meth:`repro.fabric.tcp.TcpChannel.rpc` when a per-call
    deadline expires, and by
    :meth:`repro.core.control.ControlPlane.call_reliable` when the whole
    retry budget is exhausted.
    """

    def __init__(self, message: str, op: str = "", dst: str = "",
                 attempts: int = 1):
        super().__init__(message)
        self.op = op
        self.dst = dst
        self.attempts = attempts


class PeerCrashed(MigrationError):
    """The failure detector's lease on a peer daemon expired.

    Carries either the real consecutive-miss count that tripped the
    detector or, for a failure that did not come from heartbeat ticks (an
    expired wait deadline), an explicit ``reason``.
    """

    def __init__(self, peer: str, misses: int = 0,
                 reason: Optional[str] = None):
        if reason is not None:
            message = f"daemon on {peer!r} is suspected crashed: {reason}"
        else:
            message = (f"daemon on {peer!r} missed {misses} heartbeats "
                       f"and is suspected crashed")
        super().__init__(message)
        self.peer = peer
        self.misses = misses
        self.reason = reason


class PresetupFailed(MigrationError):
    """Pre-setup did not converge within its deadline (a partner or the
    destination never finished establishing the replacement QPs)."""


class WbsStuck(MigrationError):
    """Wait-before-stop exceeded even the spotty-network upper bound —
    something beyond a slow wire is wrong (a peer died mid-drain)."""


class PrecopyDiverged(MigrationError):
    """The pre-copy convergence watchdog gave up: dirty pages are being
    produced faster than the link ships them, and the projected
    stop-and-copy blackout exceeds the configured budget.  Raised before
    the commit point, so the transaction rolls back cleanly; the fleet
    scheduler treats it as a *postpone* signal and requeues the job with
    backoff instead of burning retries against the same hot writer.
    """

    def __init__(self, message: str, dirty_pages: int = 0,
                 est_blackout_s: float = 0.0, rounds: int = 0):
        super().__init__(message)
        self.dirty_pages = dirty_pages
        self.est_blackout_s = est_blackout_s
        self.rounds = rounds
