"""A reliable byte-stream + RPC channel over the fabric.

MigrRDMA transfers checkpoint state over TCP (§7: "uses TCP to transfer the
states") and uses out-of-band messaging for partner notification and
rkey/remote-QPN fetches.  This module models both:

- :meth:`TcpChannel.transfer` — a paced, windowed, loss-recovering bulk
  transfer whose goodput is capped at the configured TCP rate,
- :meth:`TcpChannel.rpc` — a request/response exchange with at-least-once
  retransmission, used for the control plane.

The implementation is deliberately not a full TCP: it keeps exactly the
behaviours the experiments depend on (transfer time = bytes/goodput + RTT,
inflation under loss, wire contention through the shared egress port).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.fabric.message import Message
from repro.fabric.network import Network
from repro.resilience.errors import RpcTimeout
from repro.sim import Event

_channel_ids = itertools.count(1)

SEGMENT_BYTES = 64 * 1024
ACK_BYTES = 64
RPC_HEADER_BYTES = 96


class TcpChannel:
    """One bidirectional reliable channel between two named nodes."""

    def __init__(self, network: Network, local: str, remote: str, rate_bps: Optional[float] = None):
        self.network = network
        self.sim = network.sim
        self.local = local
        self.remote = remote
        self.channel_id = next(_channel_ids)
        mig = network.config.migration
        self.rate_bps = rate_bps or mig.transfer_rate_bps
        self.rtt_s = mig.transfer_rtt_s
        self.per_message_overhead_s = mig.per_message_overhead_s
        self.protocol = f"tcp:{self.channel_id}"

        self._acks: Dict[int, Set[int]] = {}  # transfer_id -> acked segment seqs
        self._ack_waiters: Dict[int, Event] = {}
        self._transfer_ids = itertools.count(1)
        self._rpc_ids = itertools.count(1)
        self._rpc_waiters: Dict[int, Event] = {}
        self._rpc_handler: Optional[Callable[[Any], Tuple[Any, int]]] = None
        self._seen_rpcs: Dict[int, Tuple[Any, int]] = {}
        self.bytes_delivered = 0

        network.node(local).register_handler(self.protocol, self._on_message)
        network.node(remote).register_handler(self.protocol, self._on_message)

    def close(self) -> None:
        # Idempotent teardown: closing twice is harmless.
        self.network.node(self.local).unregister_handler(self.protocol, missing_ok=True)
        self.network.node(self.remote).unregister_handler(self.protocol, missing_ok=True)

    # -- low-level send ------------------------------------------------------

    def _send(self, src: str, dst: str, size: int, payload: dict) -> None:
        self.network.node(src).send(
            Message(src=src, dst=dst, protocol=self.protocol, size_bytes=size, payload=payload)
        )

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        kind = payload["kind"]
        if kind == "segment":
            self.bytes_delivered += payload["size"]
            self._send(
                message.dst,
                message.src,
                ACK_BYTES,
                {"kind": "ack", "transfer_id": payload["transfer_id"], "seq": payload["seq"]},
            )
        elif kind == "ack":
            acked = self._acks.setdefault(payload["transfer_id"], set())
            acked.add(payload["seq"])
            waiter = self._ack_waiters.get(payload["transfer_id"])
            if waiter is not None and not waiter.triggered:
                waiter.succeed()
        elif kind == "rpc_req":
            self._handle_rpc_request(message)
        elif kind == "rpc_resp":
            waiter = self._rpc_waiters.pop(payload["rpc_id"], None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(payload["result"])
        else:
            raise ValueError(f"unknown tcp payload kind {kind!r}")

    # -- bulk transfer ---------------------------------------------------------

    def transfer(self, nbytes: int, src: Optional[str] = None):
        """Generator process: reliably move ``nbytes`` from ``src`` to peer.

        Yields until the transfer is fully acknowledged; returns the elapsed
        simulated time.
        """
        src = src or self.local
        dst = self.remote if src == self.local else self.local
        started = self.sim.now
        if nbytes <= 0:
            yield self.sim.timeout(self.per_message_overhead_s)
            return self.sim.now - started

        transfer_id = next(self._transfer_ids)
        nsegments = (nbytes + SEGMENT_BYTES - 1) // SEGMENT_BYTES
        sizes = [SEGMENT_BYTES] * (nsegments - 1) + [nbytes - SEGMENT_BYTES * (nsegments - 1)]
        self._acks[transfer_id] = set()

        yield self.sim.timeout(self.per_message_overhead_s)
        outstanding = set(range(nsegments))
        port_rate = self.network.node(src).port.rate_bps
        attempts = 0
        while outstanding:
            attempts += 1
            if attempts > 64:
                raise RuntimeError(f"tcp transfer {transfer_id} failed to complete (loss too high?)")
            for seq in sorted(outstanding):
                size = sizes[seq]
                # Pace to the configured goodput.  transmit() is
                # non-blocking (the port serializes in parallel), so the
                # inter-segment gap is the full segment time at the target
                # rate; port serialization overlaps with the next gap unless
                # cross-traffic slows the port below the paced rate.
                if self.rate_bps < port_rate:
                    yield self.sim.timeout(size * 8.0 / self.rate_bps)
                self._send(
                    src, dst, size,
                    {"kind": "segment", "transfer_id": transfer_id, "seq": seq, "size": size},
                )
            # Wait an RTO for acknowledgements of this round, then retransmit
            # whatever is still missing.
            deadline = self.sim.now + max(4 * self.rtt_s, 2 * SEGMENT_BYTES * 8.0 / self.rate_bps)
            while outstanding and self.sim.now < deadline:
                waiter = self.sim.event()
                self._ack_waiters[transfer_id] = waiter
                yield self.sim.any_of([waiter, self.sim.timeout(deadline - self.sim.now)])
                outstanding -= self._acks[transfer_id]
            outstanding -= self._acks[transfer_id]
        self._ack_waiters.pop(transfer_id, None)
        del self._acks[transfer_id]
        yield self.sim.timeout(self.rtt_s / 2)  # final ack propagation
        return self.sim.now - started

    # -- RPC -------------------------------------------------------------------

    def set_rpc_handler(self, handler: Callable[[Any], Tuple[Any, int]]) -> None:
        """Install the server-side handler: ``payload -> (result, resp_size)``."""
        self._rpc_handler = handler

    def _handle_rpc_request(self, message: Message) -> None:
        payload = message.payload
        rpc_id = payload["rpc_id"]
        if rpc_id in self._seen_rpcs:
            result, size = self._seen_rpcs[rpc_id]  # duplicate: replay response
        else:
            if self._rpc_handler is None:
                raise LookupError(f"tcp channel {self.channel_id}: no RPC handler installed")
            out = self._rpc_handler(payload["request"])
            if out is None:
                # The serving daemon is down: the request vanishes — no
                # response, and no dedup-cache entry, so a retransmission
                # after the daemon restarts is handled fresh.
                return
            result, size = out
            self._seen_rpcs[rpc_id] = (result, size)
        processing = self.network.config.migration.notify_processing_s
        self.sim.schedule(
            processing,
            lambda: self._send(
                message.dst, message.src, size,
                {"kind": "rpc_resp", "rpc_id": rpc_id, "result": result},
            ),
        )

    def rpc(self, request: Any, req_size: int = RPC_HEADER_BYTES, src: Optional[str] = None,
            deadline_s: Optional[float] = None):
        """Generator process: send a request, yield until the response.

        Retransmits on timeout (at-least-once; the server dedupes), returns
        the response payload.  With ``deadline_s`` (absolute simulated
        time) the call raises :class:`RpcTimeout` instead of retransmitting
        past the deadline — the hook ``ControlPlane.call_reliable`` bounds
        each attempt with.  A call whose response arrives before the
        deadline behaves bit-identically to an unbounded one.
        """
        src = src or self.local
        dst = self.remote if src == self.local else self.local
        rpc_id = next(self._rpc_ids)
        waiter = self.sim.event()
        self._rpc_waiters[rpc_id] = waiter
        attempts = 0
        while not waiter.triggered:
            if deadline_s is not None and self.sim.now >= deadline_s:
                self._rpc_waiters.pop(rpc_id, None)
                raise RpcTimeout(
                    f"rpc {rpc_id} on channel {self.channel_id} to {dst} "
                    f"missed its deadline after {attempts} transmissions",
                    dst=dst, attempts=attempts)
            attempts += 1
            if attempts > 64:
                raise RuntimeError(f"rpc {rpc_id} on channel {self.channel_id} timed out repeatedly")
            self._send(src, dst, req_size, {"kind": "rpc_req", "rpc_id": rpc_id, "request": request})
            interval = max(8 * self.rtt_s, 1e-3)
            if deadline_s is not None:
                interval = min(interval, max(deadline_s - self.sim.now, 1e-9))
            timeout = self.sim.timeout(interval)
            yield self.sim.any_of([waiter, timeout])
        return waiter.value
