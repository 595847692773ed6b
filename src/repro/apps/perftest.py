"""perftest: the microbenchmark workload (§5.1).

A faithful analogue of linux-rdma/perftest's bandwidth/latency tests with
the paper's three extensions:

1. **correctness checking** — the WR ID of every request carries a per-QP
   sequence number; completions are checked for order, duplication and
   loss, and (optionally) payload contents are verified end to end (§5.3),
2. **one-to-many** — one endpoint with *n* QPs, each connected to a
   different partner endpoint (§5.4, Figure 4c),
3. **cycle sampling** — per-invocation CPU cycles of send/recv/write/read
   (§5.5.1, Table 4).

Endpoints are *migration transparent*: they only touch the
:class:`~repro.verbs.api.VerbsAPI` surface, so the same code runs over
the plain library or the MigrRDMA guest lib, before and after migration —
mirroring how the paper runs the unmodified perftest binary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.pollloop import IDLE_POLL_S, POLL_BATCH, BusyPoller
from repro.cluster import Container, Server
from repro.rnic import SGE, AccessFlags, Opcode, QPType, RecvWR, SendWR
from repro.verbs.api import make_sge

_endpoint_ids = itertools.count(1)

_MODE_OPCODE = {
    "write": Opcode.RDMA_WRITE,
    "send": Opcode.SEND,
    "read": Opcode.RDMA_READ,
    "fadd": Opcode.ATOMIC_FETCH_AND_ADD,
}


@dataclass
class Connection:
    """One QP (plus the peer's buffer coordinates) of an endpoint."""

    qp: object
    peer_name: str
    index: int = 0
    remote_addr: int = 0
    remote_rkey: int = 0
    #: optional round-robin one-sided targets: [(addr, rkey), ...] — used to
    #: exercise workloads that spread operations over many MRs
    remote_targets: list = field(default_factory=list)
    outstanding: int = 0
    next_seq: int = 0
    expect_send_seq: int = 0
    expect_recv_seq: int = 0
    completed: int = 0
    #: error-status CQEs (flushes included); a drained sender has
    #: ``next_seq == completed + errors``
    errors: int = 0
    recv_completed: int = 0
    #: an error CQE arrived: the QP is in ERR and takes no more WRs
    errored: bool = False
    #: RECV-ring cursor of servers that keep ``next_seq`` for send-queue
    #: accounting (the KV server's message ring)
    _recv_ring_seq: int = field(default=0, repr=False, compare=False)
    #: address of this QP's slot ring in a perftest buffer, set on first use
    ring_base: Optional[int] = field(default=None, repr=False, compare=False)


@dataclass
class PerftestStats:
    """Counters plus the §5.3 correctness violations (must stay empty)."""

    completed: int = 0
    bytes_completed: int = 0
    recv_completed: int = 0
    order_errors: List[str] = field(default_factory=list)
    content_errors: List[str] = field(default_factory=list)
    status_errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.order_errors or self.content_errors or self.status_errors)


class PerftestEndpoint(BusyPoller):
    """One perftest process inside a container."""

    def __init__(self, server: Server, name: Optional[str] = None,
                 world=None, container: Optional[Container] = None,
                 msg_size: int = 65536, depth: int = 64,
                 mode: str = "write", verify_content: bool = False,
                 sample_cycles: bool = False, pace_s: float = 0.0,
                 tenant: Optional[str] = None):
        if mode not in _MODE_OPCODE:
            raise ValueError(f"unknown perftest mode {mode!r}")
        if pace_s < 0:
            raise ValueError(f"pace_s must be >= 0, got {pace_s}")
        self.name = name or f"perftest{next(_endpoint_ids)}"
        self.msg_size = msg_size
        self.depth = depth
        self.mode = mode
        self.opcode = _MODE_OPCODE[mode]
        self.verify_content = verify_content
        #: posting-tick interval for rate-limited senders.  0.0 (default)
        #: keeps perftest's native behaviour — depth WRs outstanding,
        #: refilled per completion at line rate.  A fleet of hundreds of
        #: endpoints cannot all run at line rate (nor would real tenants);
        #: a paced sender posts at most one WR per QP per tick, capping
        #: event rate at ~1/pace_s per connection.
        self.pace_s = pace_s
        #: per-tenant QoS identity carried on every QP this endpoint creates
        self.tenant = tenant

        self._attach(server, world, container, record_samples=sample_cycles)

        self.pd = None
        self.cq = None
        self.mr = None
        self.buf_addr = 0
        self.connections: List[Connection] = []
        self._by_qpn: Dict[int, Connection] = {}
        self.stats = PerftestStats()
        self.running = False
        self._sender_active = False
        self._receiver_active = False

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def buffer_bytes_per_qp(self) -> int:
        """Slot-ring bytes each QP needs (depth slots of msg_size)."""
        return self.depth * self.msg_size

    def setup(self, qp_budget: int = 1):
        """Generator: PD, one shared CQ, one buffer+MR sized for
        ``qp_budget`` QPs (slot ring of ``depth`` messages per QP)."""
        sim = self.server.sim
        self.pd = yield from self.lib.alloc_pd()
        cq_depth = max(4096, 2 * self.depth * qp_budget + 64)
        self.cq = yield from self.lib.create_cq(cq_depth)
        buf_len = max(4096, self.buffer_bytes_per_qp() * qp_budget)
        vma = self.process.space.mmap(buf_len, tag="data", name=f"{self.name}-buf")
        self.buf_addr = vma.start
        self.mr = yield from self.lib.reg_mr(
            self.pd, self.buf_addr, buf_len, AccessFlags.all_remote())
        return self

    def add_qp(self):
        """Generator: create one more QP on the shared CQ."""
        qp = yield from self.lib.create_qp(
            self.pd, QPType.RC, self.cq, self.cq, self.depth + 1, self.depth + 1,
            tenant=self.tenant)
        index = len(self.connections)
        conn = Connection(qp=qp, peer_name="", index=index)
        self.connections.append(conn)
        self._by_qpn[qp.qpn] = conn
        return conn

    def register_extra_mrs(self, count: int, size: int = 4096):
        """Generator: register ``count`` additional MRs (own VMAs); returns
        them.  Models applications that expose many small regions."""
        out = []
        for i in range(count):
            vma = self.process.space.mmap(max(size, 4096), tag="data",
                                          name=f"{self.name}-xmr{i}")
            mr = yield from self.lib.reg_mr(self.pd, vma.start, max(size, 4096),
                                            AccessFlags.all_remote())
            out.append(mr)
        return out

    def slot_addr(self, conn_index: int, seq: int) -> int:
        """Buffer slot for message ``seq`` of connection ``conn_index``."""
        return (self.buf_addr + conn_index * self.buffer_bytes_per_qp()
                + (seq % self.depth) * self.msg_size)

    def _ring_base(self, conn: Connection) -> int:
        """Address of ``conn``'s slot ring, bounds-checked against the MR
        once and kept on the connection: a WR then only adds its slot's
        offset.  The MR starts at ``buf_addr``, so an address is its own
        SGE address."""
        ring = self.buffer_bytes_per_qp()
        make_sge(self.mr, conn.index * ring, ring)  # raises if the ring leaves the MR
        conn.ring_base = self.buf_addr + conn.index * ring
        return conn.ring_base

    # ------------------------------------------------------------------
    # traffic loops
    # ------------------------------------------------------------------

    def start_as_sender(self, iters: Optional[int] = None) -> None:
        """Spawn the posting loop (bw test, best-effort posting like
        perftest: keep ``depth`` WRs outstanding per QP)."""
        self.running = True
        self._iters_left = iters
        self._sender_active = True
        self.process.attach(self.server.sim.spawn(
            self._sender_loop(), name=f"{self.name}:tx"))

    def start_as_receiver(self) -> None:
        """Prepost RECVs and spawn the draining loop ('send' mode peer;
        one-sided modes need no receiver loop)."""
        self.running = True
        self._iters_left = None
        self._receiver_active = True
        self._prepost_recvs()
        self.process.attach(self.server.sim.spawn(
            self._receiver_loop(), name=f"{self.name}:rx"))

    # -- sender -------------------------------------------------------------

    def _build_wr(self, conn: Connection) -> SendWR:
        seq = conn.next_seq
        base = conn.ring_base
        if base is None:
            base = self._ring_base(conn)
        addr = base + (seq % self.depth) * self.msg_size
        if self.verify_content:
            self.process.space.write(addr, seq.to_bytes(8, "little")
                                     + conn.index.to_bytes(4, "little") + b"PERF")
        if self.opcode.is_atomic:
            return SendWR(
                wr_id=seq, opcode=self.opcode,
                sges=[SGE(addr=addr, length=8, lkey=self.mr.lkey)],
                remote_addr=conn.remote_addr, rkey=conn.remote_rkey,
                compare_add=1)
        wr = SendWR(wr_id=seq, opcode=self.opcode,
                    sges=[SGE(addr=addr, length=self.msg_size, lkey=self.mr.lkey)])
        if self.opcode.is_one_sided:
            if conn.remote_targets:
                target_addr, target_rkey = conn.remote_targets[
                    seq % len(conn.remote_targets)]
                wr.remote_addr = target_addr
                wr.rkey = target_rkey
            else:
                wr.remote_addr = conn.remote_addr + (seq % self.depth) * self.msg_size
                wr.rkey = conn.remote_rkey
        return wr

    def _refill_conn(self, conn: Connection) -> int:
        if conn.errored:
            return 0
        posted = 0
        while conn.outstanding < self.depth:
            if self._iters_left is not None:
                if self._iters_left <= 0:
                    return posted
                self._iters_left -= 1
            self._post_one(conn)
            posted += 1
        return posted

    def _refill(self) -> int:
        posted = 0
        for conn in self.connections:
            posted += self._refill_conn(conn)
        return posted

    def _poll_sleep_s(self) -> float:
        """Adaptive busy-poll granularity: roughly half a completion batch.

        Purely a simulation-efficiency knob — the queue depth hides the
        sleep, so throughput is unaffected while the event count drops by
        an order of magnitude for large messages.
        """
        rate = self.server.node.port.rate_bps
        batch = min(self.depth, POLL_BATCH) / 2
        return min(max(batch * self.msg_size * 8 / rate, 0.5e-6), 50e-6)

    def _post_one(self, conn: Connection) -> None:
        if self.process.cpu.record_samples:
            self.process.cpu.begin_op_sample(self.mode)
        self.lib.post_send(conn.qp, self._build_wr(conn))
        if self.process.cpu.record_samples:
            self.process.cpu.end_op_sample()
        conn.next_seq += 1
        conn.outstanding += 1

    def _finished(self) -> bool:
        """Stop the (running) loops once every requested iteration has been
        posted and completed; tells whether they are stopped."""
        if self._iters_left == 0 and not any(c.outstanding for c in self.connections):
            self.running = False
        return not self.running

    def _sender_loop(self):
        if self.pace_s:
            return self._poll_loop(self._paced_sender_tick)
        poll_sleep = self._poll_sleep_s()
        idle_s = max(poll_sleep, IDLE_POLL_S)

        def tick():
            if not self.running:
                return None
            if self._drain_completions():
                return poll_sleep, None
            if self._finished():
                self.process.cpu.drain_seconds()  # this tick's poll is spent
                return None
            return idle_s, idle_s
        # _refill: the initial window, then per completion and on an idle tick
        # (e.g. after resuming from suspension)
        return self._poll_loop(tick, refill=self._refill)

    def _paced_sender_tick(self):
        """Rate-limited posting: at most one WR per QP per ``pace_s`` tick,
        still bounded by ``depth`` outstanding.  Suspension/migration work
        unchanged — posts during suspension are buffered by the guest lib
        and replayed, and ``on_migrated``/``on_rollback`` respawn the loop."""
        if not self.running:
            return None
        self._drain_completions()
        for conn in self.connections:
            if conn.outstanding >= self.depth or conn.errored:
                continue
            if self._iters_left is not None:
                if self._iters_left <= 0:
                    continue
                self._iters_left -= 1
            self._post_one(conn)
        if self._finished():
            return None
        return self.pace_s, None

    def _handle_wc(self, wc) -> None:
        conn = self._by_qpn.get(wc.qp_num)
        if conn is None:
            self.stats.status_errors.append(f"completion for unknown QPN {wc.qp_num:#x}")
            return
        if not wc.ok:
            # The WR is retired all the same, and its QP is now in ERR.
            self.stats.status_errors.append(
                f"wr {wc.wr_id} on {wc.qp_num:#x}: {wc.status.value}")
            conn.outstanding -= 1
            conn.errors += 1
            conn.errored = True
            return
        if wc.opcode is Opcode.RECV:
            self._handle_recv_wc(conn, wc)
            return
        # §5.3: WR IDs must come back in order, without duplication or loss.
        if wc.wr_id != conn.expect_send_seq:
            self.stats.order_errors.append(
                f"{self.name} qp {wc.qp_num:#x}: expected send seq "
                f"{conn.expect_send_seq}, got {wc.wr_id}")
            conn.expect_send_seq = wc.wr_id + 1
        else:
            conn.expect_send_seq += 1
        conn.completed += 1
        conn.outstanding -= 1
        self.stats.completed += 1
        self.stats.bytes_completed += wc.byte_len or self.msg_size
        if self.running and self._sender_active and not self.pace_s:
            self._refill_conn(conn)

    # -- receiver --------------------------------------------------------------

    def _prepost_recvs(self) -> None:
        for conn in self.connections:
            self._repost_recv(conn)

    def _repost_recv(self, conn: Connection) -> None:
        base = conn.ring_base
        if base is None:
            base = self._ring_base(conn)
        while conn.outstanding < self.depth:
            seq = conn.next_seq
            addr = base + (seq % self.depth) * self.msg_size
            wr = RecvWR(wr_id=seq,
                        sges=[SGE(addr=addr, length=self.msg_size, lkey=self.mr.lkey)])
            self.lib.post_recv(conn.qp, wr)
            conn.next_seq += 1
            conn.outstanding += 1

    def sample_recv_posts(self, count: int) -> None:
        """Post ``count`` RECVs on the first QP one at a time, each inside
        its own ``recv`` cycle sample (Table 4 measures RECV on the posting
        side); the receive queue must have room for all of them."""
        conn = self.connections[0]
        cpu = self.process.cpu
        for _ in range(count):
            conn.outstanding = self.depth - 1  # room for exactly one post
            cpu.begin_op_sample("recv")
            self._repost_recv(conn)
            cpu.end_op_sample()

    def _receiver_loop(self):
        poll_sleep = self._poll_sleep_s()

        def tick():
            if self.running:
                # drained to empty, and reposted RECVs raise no CQE until a push
                drained = self._drain_completions()
                return (poll_sleep if drained else IDLE_POLL_S), IDLE_POLL_S
        return self._poll_loop(tick)

    def _handle_recv_wc(self, conn, wc) -> None:
        index = conn.index
        if wc.wr_id != conn.expect_recv_seq:
            self.stats.order_errors.append(
                f"{self.name} qp {wc.qp_num:#x}: expected recv seq "
                f"{conn.expect_recv_seq}, got {wc.wr_id}")
            conn.expect_recv_seq = wc.wr_id + 1
        else:
            conn.expect_recv_seq += 1
        if self.verify_content:
            addr = self.slot_addr(index, wc.wr_id)
            blob = self.process.space.read(addr, 16)
            seq = int.from_bytes(blob[:8], "little")
            tag = blob[12:16]
            if seq != wc.wr_id or tag != b"PERF":
                self.stats.content_errors.append(
                    f"{self.name} recv seq {wc.wr_id}: payload carries seq {seq} tag {tag!r}")
        conn.recv_completed += 1
        conn.outstanding -= 1
        self.stats.recv_completed += 1
        self.stats.bytes_completed += wc.byte_len
        if self.running and self._receiver_active:
            self._repost_recv(conn)

    # ------------------------------------------------------------------
    # migration transparency hook (BusyPoller.on_migrated / on_rollback)
    # ------------------------------------------------------------------

    def _spawn_loops(self) -> None:
        if self._sender_active:
            self.process.attach(self.server.sim.spawn(
                self._sender_loop(), name=f"{self.name}:tx"))
        if self._receiver_active:
            self.process.attach(self.server.sim.spawn(
                self._receiver_loop(), name=f"{self.name}:rx"))


def run_pingpong(tb, a: "PerftestEndpoint", b: "PerftestEndpoint",
                 iters: int = 1000, msg_size: int = 8, gap_s: float = 0.0):
    """Generator: perftest's latency test — SEND ping-pong on one QP pair.

    Returns the list of per-iteration round-trip times (simulated seconds).
    ``a`` and ``b`` must be set up and connected with one QP each; traffic
    loops must NOT be running (the latency test drives the QPs itself).
    """
    sim = tb.sim
    conn_a, conn_b = a.connections[0], b.connections[0]
    rtts = []

    def responder():
        pong = 0
        while pong < iters:
            wcs = b.lib.poll_cq(b.cq, 4)
            progressed = False
            for wc in wcs:
                if wc.opcode is Opcode.RECV and wc.ok:
                    b.lib.post_recv(conn_b.qp, RecvWR(
                        wr_id=wc.wr_id + 1, sges=[make_sge(b.mr, 0, msg_size)]))
                    b.lib.post_send(conn_b.qp, SendWR(
                        wr_id=pong, opcode=Opcode.SEND, signaled=False,
                        sges=[make_sge(b.mr, 0, msg_size)]))
                    pong += 1
                    progressed = True
            yield sim.timeout(b.process.cpu.drain_seconds()
                              if progressed else IDLE_POLL_S / 4)

    b.lib.post_recv(conn_b.qp, RecvWR(wr_id=0, sges=[make_sge(b.mr, 0, msg_size)]))
    responder_proc = sim.spawn(responder(), name="lat-responder")

    for i in range(iters):
        a.lib.post_recv(conn_a.qp, RecvWR(
            wr_id=i, sges=[make_sge(a.mr, 0, msg_size)]))
        started = sim.now
        a.lib.post_send(conn_a.qp, SendWR(
            wr_id=i, opcode=Opcode.SEND, signaled=False,
            sges=[make_sge(a.mr, msg_size, msg_size)]))
        got_pong = False
        while not got_pong:
            for wc in a.lib.poll_cq(a.cq, 4):
                if wc.opcode is Opcode.RECV and wc.ok:
                    got_pong = True
            yield sim.timeout(a.process.cpu.drain_seconds() or IDLE_POLL_S / 4)
        rtts.append(sim.now - started)
        if gap_s:
            yield sim.timeout(gap_s)  # application think time between pings
    yield responder_proc
    return rtts


def latency_percentiles(rtts, percentiles=(50, 99)):
    """Median/tail picks from a ping-pong run (seconds)."""
    ordered = sorted(rtts)
    out = {}
    for p in percentiles:
        index = min(len(ordered) - 1, int(round(p / 100 * len(ordered))) )
        out[p] = ordered[index]
    return out


def connect_endpoints(a: PerftestEndpoint, b: PerftestEndpoint, qp_count: int = 1):
    """Generator: create and connect ``qp_count`` QP pairs between two
    endpoints, exchanging QPNs/rkeys out of band (as applications do)."""
    sim = a.server.sim
    for i in range(qp_count):
        ca = yield from a.add_qp()
        cb = yield from b.add_qp()
        # Out-of-band exchange (sockets in real deployments): QPNs, buffer
        # addresses and rkeys — all *virtual* values under MigrRDMA.
        yield sim.timeout(50e-6)
        ca.peer_name = b.name
        cb.peer_name = a.name
        ca.remote_addr = b.buf_addr + len(b.connections[:-1]) * b.buffer_bytes_per_qp()
        ca.remote_rkey = b.mr.rkey
        cb.remote_addr = a.buf_addr + len(a.connections[:-1]) * a.buffer_bytes_per_qp()
        cb.remote_rkey = a.mr.rkey
        yield from a.lib.connect(ca.qp, b.server.name, cb.qp.qpn)
        yield from b.lib.connect(cb.qp, a.server.name, ca.qp.qpn)
