"""The MigrRDMA out-of-band control plane.

RDMA applications exchange QPNs and rkeys over out-of-band channels the
RDMA library never sees (§3.3).  MigrRDMA adds its own out-of-band plane
between the *indirection layers* of the servers, carrying:

- **resolution** requests: virtual QPN / virtual rkey → current physical
  value, answered by the server currently hosting the service (the
  fetch-and-cache path of Table 1's fourth row),
- **migration notifications** from the source to each partner (destination
  address + the list of the partner's physical QPNs that talk to the
  migrated service, §3.2),
- **cache invalidations** for the migrated service's rkeys/QPNs,
- **n_sent exchange** during wait-before-stop (§3.4),
- **pre-setup exchange**: a partner's new QP handshaking with the
  migration destination to swap new physical QPNs.

Transport is the testbed's TCP channels, so control traffic pays real
wire/contention time.

Reliability (DESIGN.md §11): :meth:`ControlPlane.call` is best-effort —
the channel retransmits, but there is no deadline and no replay safety.
:meth:`ControlPlane.call_reliable` layers per-attempt deadlines, seeded
exponential backoff and **idempotency tokens** on top: every logical
invocation carries one token, and the dispatcher caches the first
response per token, so an op whose response was lost is *replayed* (same
response, handler not re-run) instead of re-executed.  A daemon marked
down (:meth:`mark_daemon_down`, the chaos daemon-crash fault) silently
swallows requests until marked up again.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional, Set, Tuple

from repro.cluster import Testbed
from repro.resilience.errors import RpcTimeout
from repro.resilience.rpc import (
    DEFAULT_RETRY_POLICY,
    ResilienceStats,
    RetryPolicy,
)

RESOLVE_REQ_BYTES = 64
RESOLVE_RESP_BYTES = 64
NOTIFY_BASE_BYTES = 128
NOTIFY_PER_QP_BYTES = 8


class ControlPlane:
    """Routes control RPCs between servers' MigrRDMA daemons."""

    def __init__(self, tb: Testbed):
        self.tb = tb
        self.sim = tb.sim
        #: server name -> op name -> handler(request dict) -> result
        self._services: Dict[str, Dict[str, Callable[[dict], object]]] = {}
        #: (a, b) server-name pairs whose channel has our RPC handler.
        #: Keyed on the *names*, not id(channel): a garbage-collected
        #: channel's id() can be recycled by a brand-new channel object,
        #: which would then silently never get the handler installed.
        self._installed_channels: Set[Tuple[str, str]] = set()
        #: daemons currently crashed (chaos daemon-crash fault window)
        self._down: Set[str] = set()
        #: idempotency-token -> cached (response, size) for replay
        self._idem_cache: Dict[str, Tuple[dict, int]] = {}
        self._idem_seq = itertools.count(1)
        self.stats = ResilienceStats()
        #: per-peer heartbeat-detector counters (misses/suspicions/flaps),
        #: folded in by each FailureDetector when it stops so the metrics
        #: scrape covers detector behaviour across all migrations of a run
        self.detector_stats: Dict[str, Dict[str, int]] = {}

    # -- registration -----------------------------------------------------

    def register(self, server_name: str, op: str, handler: Callable[[dict], object]) -> None:
        self._services.setdefault(server_name, {})[op] = handler

    # -- daemon liveness ----------------------------------------------------

    def mark_daemon_down(self, server_name: str) -> None:
        """The daemon on ``server_name`` crashed: until it restarts, every
        request addressed to it vanishes without a response."""
        self._down.add(server_name)

    def mark_daemon_up(self, server_name: str) -> None:
        self._down.discard(server_name)

    def daemon_down(self, server_name: str) -> bool:
        return server_name in self._down

    def note_detector(self, peer: str, misses: int, suspicions: int,
                      flaps: int) -> None:
        """Accumulate one stopped :class:`FailureDetector`'s per-peer
        counters (all simulated-time quantities, safe to digest)."""
        entry = self.detector_stats.setdefault(
            peer, {"misses": 0, "suspicions": 0, "flaps": 0})
        entry["misses"] += misses
        entry["suspicions"] += suspicions
        entry["flaps"] += flaps

    # -- transport ----------------------------------------------------------

    def _channel_for(self, a: str, b: str):
        channel = self.tb.channel(a, b)
        if (a, b) not in self._installed_channels:
            channel.set_rpc_handler(self._dispatch)
            self._installed_channels.add((a, b))
            self._installed_channels.add((b, a))
        return channel

    def _dispatch(self, request: dict):
        dst = request["dst"]
        if dst in self._down:
            return None  # dead daemon: the channel drops the request
        op = request["op"]
        token = request.get("idem")
        if token is not None:
            cached = self._idem_cache.get(token)
            if cached is not None:
                return cached  # replayed op: same response, handler not re-run
        handlers = self._services.get(dst)
        if handlers is None or op not in handlers:
            return ({"status": "unsupported"}, RESOLVE_RESP_BYTES)
        result = handlers[op](request)
        size = request.get("resp_size", RESOLVE_RESP_BYTES)
        response = ({"status": "ok", "result": result}, size)
        if token is not None:
            self._idem_cache[token] = response
        return response

    def call(self, src: str, dst: str, op: str, request: Optional[dict] = None,
             req_size: int = RESOLVE_REQ_BYTES,
             deadline_s: Optional[float] = None):
        """Generator: RPC from ``src``'s daemon to ``dst``'s daemon.

        Returns the handler result; raises LookupError for unsupported ops
        (the negotiation signal for non-MigrRDMA peers), and
        :class:`RpcTimeout` when ``deadline_s`` (absolute simulated time)
        passes without a response.
        """
        payload = dict(request or {})
        payload["dst"] = dst
        payload["op"] = op
        channel = self._channel_for(src, dst)
        response = yield from channel.rpc(payload, req_size=req_size, src=src,
                                          deadline_s=deadline_s)
        if response["status"] == "unsupported":
            raise LookupError(f"{dst} does not support MigrRDMA op {op!r}")
        return response["result"]

    def call_local_or_remote(self, src: str, dst: str, op: str,
                             request: Optional[dict] = None, req_size: int = RESOLVE_REQ_BYTES,
                             deadline_s: Optional[float] = None):
        """Generator: like :meth:`call` but short-circuits same-server calls
        (a shared-memory read, not a network round trip)."""
        if src == dst:
            handlers = self._services.get(dst, {})
            if op not in handlers:
                raise LookupError(f"{dst} does not support MigrRDMA op {op!r}")
            yield self.sim.timeout(0)  # still asynchronous, but free
            return handlers[op](dict(request or {}, dst=dst, op=op))
        result = yield from self.call(src, dst, op, request, req_size,
                                      deadline_s=deadline_s)
        return result

    def call_reliable(self, src: str, dst: str, op: str,
                      request: Optional[dict] = None,
                      req_size: int = RESOLVE_REQ_BYTES,
                      policy: Optional[RetryPolicy] = None,
                      rng=None):
        """Generator: reliable RPC — deadlines, retries, replay safety.

        One logical invocation: the request carries a fresh idempotency
        token, each attempt is bounded by ``policy.attempt_timeout_s``,
        timed-out attempts back off exponentially (jitter drawn from
        ``rng``, the seeded campaign RNG on chaos runs) and the final
        failure surfaces as :class:`RpcTimeout`.  Same-server calls short
        circuit like :meth:`call_local_or_remote`.  On a fault-free run
        the first attempt succeeds immediately: no RNG draw, no extra
        yield, bit-identical timing to plain :meth:`call`.
        """
        if src == dst:
            result = yield from self.call_local_or_remote(src, dst, op,
                                                          request, req_size)
            return result
        policy = policy or DEFAULT_RETRY_POLICY
        payload = dict(request or {})
        payload["idem"] = f"{src}>{dst}:{op}#{next(self._idem_seq)}"
        last_error: Optional[RpcTimeout] = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                result = yield from self.call(
                    src, dst, op, payload, req_size,
                    deadline_s=self.sim.now + policy.attempt_timeout_s)
                return result
            except RpcTimeout as err:
                self.stats.rpc_timeouts += 1
                last_error = err
                if attempt < policy.max_attempts:
                    self.stats.rpc_retries += 1
                    yield self.sim.timeout(policy.backoff_s(attempt, rng))
        raise RpcTimeout(
            f"op {op!r} to {dst} failed after {policy.max_attempts} attempts",
            op=op, dst=dst, attempts=policy.max_attempts) from last_error
