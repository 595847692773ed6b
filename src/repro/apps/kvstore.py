"""kvstore: a migratable RDMA key-value store (HERD/RDMAbox lineage).

Three verb shapes, chosen to exercise every data path the migration
machinery must preserve:

* **PUT** — two-sided: the client SENDs ``{op, key, value}``; the server
  applies it to a hash table living in a registered MR and SENDs back an
  ack carrying the assigned per-key version.  Real-time linearizability
  of PUTs anchors on this app-level ack.
* **GET** — one-sided: the client RDMA_READs slots of the server's table
  MR directly, walking the same linear-probe sequence the server would,
  with *zero* server CPU involvement.  The client computes remote offsets
  itself from the shared :class:`KvTableLayout` — which is exactly what a
  migration must not break (virtual addresses and rkeys must keep
  resolving to the moved table).
* **LOCK** — CAS atomics on per-bucket lock words (lock striping: the
  lock for key *k* is the lock word of *k*'s home bucket, so a lock op
  never needs probe resolution).

Clients and the server are migration transparent: they only touch the
:class:`~repro.verbs.api.VerbsAPI` surface, carry their logical state in
the Python object, and respawn their loops from ``on_migrated`` /
``on_rollback`` — same contract as :mod:`repro.apps.perftest`.

Every completed operation and lock attempt is recorded in the client's
columnar history, which :func:`~repro.apps.kvhistory.check_kv_history`
replays against the server's apply log (``kv_applies``) to report
real-time linearizability violations (:mod:`repro.apps.kvhistory`).
The ``kv-linearizable`` invariant checker wires this into the default
registry.
"""

from __future__ import annotations

import itertools
import random
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.apps.kvhistory import (  # noqa: F401  (re-exported for kvstore's users)
    KvCasLog,
    KvCasRecord,
    KvOpLog,
    KvOpRecord,
    check_kv_history,
)
from repro.apps.perftest import Connection, PerftestStats
from repro.apps.pollloop import IDLE_POLL_S, BusyPoller
from repro.cluster import Container, Server
from repro.rnic import AccessFlags, Opcode, QPType, RecvWR, SendWR
from repro.verbs.api import make_sge

_kv_ids = itertools.count(1)

#: slot header: lock u64 | fingerprint u64 | vlen u32 | version u32 | pad u64
SLOT_HEADER_BYTES = 32
_HEADER = struct.Struct("<QQII8x")

#: fingerprint of a never-written slot
FP_EMPTY = 0

_REQ = struct.Struct("<4sBHHI")  # magic, op, key_len, val_len, op_id
_REP = struct.Struct("<4sIBII")  # magic, op_id, status, version, index
REQ_MAGIC = b"KVQ1"
REP_MAGIC = b"KVR1"
OP_PUT = 1


class KvFullError(Exception):
    """Linear probing exhausted every bucket."""


# ---------------------------------------------------------------------------
# Table layout: pure arithmetic shared by server and clients
# ---------------------------------------------------------------------------


class KvTableLayout:
    """Geometry of the exported hash-table MR.

    Both sides construct this from the same ``(n_buckets, value_cap)``
    pair exchanged out of band; the client's remote-READ offsets are pure
    functions of it, and the property suite pins them against server-side
    truth for arbitrary key sets."""

    def __init__(self, n_buckets: int, value_cap: int):
        if n_buckets <= 0:
            raise ValueError("n_buckets must be positive")
        if value_cap <= 0:
            raise ValueError("value_cap must be positive")
        self.n_buckets = n_buckets
        self.value_cap = value_cap
        # 8-byte-aligned slots keep every lock word CAS-able.
        self.slot_bytes = SLOT_HEADER_BYTES + ((value_cap + 7) // 8) * 8

    @property
    def table_bytes(self) -> int:
        return self.n_buckets * self.slot_bytes

    @staticmethod
    def fingerprint(key: str) -> int:
        """64-bit key fingerprint; crc32-based so it is stable across
        interpreter runs (``hash()`` is randomized) and never
        :data:`FP_EMPTY`.  All-ones maps to 1 as well: every key's bucket,
        and so every pinned digest, rests on this exact mapping."""
        raw = key.encode()
        fp = (zlib.crc32(b"kv-hi:" + raw) << 32) | zlib.crc32(b"kv-lo:" + raw)
        if fp in (FP_EMPTY, (1 << 64) - 1):
            fp = 1
        return fp

    def home(self, key: str) -> int:
        return self.fingerprint(key) % self.n_buckets

    def probe_sequence(self, key: str) -> Iterator[int]:
        """Linear-probe bucket order for ``key`` (full table sweep)."""
        start = self.home(key)
        for i in range(self.n_buckets):
            yield (start + i) % self.n_buckets

    def slot_offset(self, index: int) -> int:
        if not 0 <= index < self.n_buckets:
            raise IndexError(f"bucket {index} out of range")
        return index * self.slot_bytes

    def lock_offset(self, key: str) -> int:
        """Offset of the lock word guarding ``key`` (lock striping over
        home buckets: independent of where the value actually landed)."""
        return self.slot_offset(self.home(key))

    def probe(self, fp: int, pos: int) -> Tuple[int, int, int]:
        """``(bucket, offset, length)`` of a GET's ``pos``-th READ, O(1)."""
        bucket = (fp + pos) % self.n_buckets
        return bucket, bucket * self.slot_bytes, self.slot_bytes

    def read_plan(self, key: str) -> List[Tuple[int, int, int]]:
        """The client's remote-READ schedule for a GET: ``(bucket, offset,
        length)`` per probe, in order.  The client stops at the first
        fingerprint hit or FP_EMPTY slot."""
        fp = self.fingerprint(key)
        return [self.probe(fp, pos) for pos in range(self.n_buckets)]

    def pack_slot(self, lock: int, fp: int, vlen: int, version: int) -> bytes:
        return _HEADER.pack(lock, fp, vlen, version)

    def parse_slot(self, raw: bytes) -> Tuple[int, int, int, int, bytes]:
        """-> (lock, fingerprint, vlen, version, value_bytes)"""
        lock, fp, vlen, version = _HEADER.unpack_from(raw)
        value = raw[SLOT_HEADER_BYTES:SLOT_HEADER_BYTES + vlen]
        return lock, fp, vlen, version, value


class KvTable:
    """Server-side table operations over a flat memory backend.

    The backend is anything with ``read(offset, n) -> bytes`` and
    ``write(offset, data)`` — a plain ``bytearray`` adapter for the
    property tests, the process address space for the live server."""

    def __init__(self, layout: KvTableLayout, mem=None):
        self.layout = layout
        self.mem = mem if mem is not None else BytesBacking(layout.table_bytes)

    # -- probing --------------------------------------------------------------

    def _read_header(self, index: int) -> Tuple[int, int, int, int]:
        raw = self.mem.read(self.layout.slot_offset(index), SLOT_HEADER_BYTES)
        return _HEADER.unpack_from(raw)

    def find(self, key: str) -> Tuple[Optional[int], Optional[int]]:
        """-> (index_holding_key, first_free_index); at most one is set.
        Mirrors the client's probe walk exactly — the property suite pins
        this equivalence."""
        fp = self.layout.fingerprint(key)
        for index in self.layout.probe_sequence(key):
            _lock, slot_fp, _vlen, _version = self._read_header(index)
            if slot_fp == FP_EMPTY:
                return None, index
            if slot_fp == fp:
                return index, None
        return None, None

    # -- mutation -------------------------------------------------------------

    def put(self, key: str, value: bytes, version: int) -> int:
        """Insert or overwrite; returns the bucket used."""
        layout = self.layout
        if len(value) > layout.value_cap:
            raise ValueError(f"value length {len(value)} exceeds cap {layout.value_cap}")
        index, first_free = self.find(key)
        if index is None:
            if first_free is None:
                raise KvFullError(f"no bucket for key {key!r}")
            index = first_free
        off = layout.slot_offset(index)
        lock, _fp, _vlen, _version = self._read_header(index)
        self.mem.write(off, layout.pack_slot(lock, layout.fingerprint(key),
                                             len(value), version))
        self.mem.write(off + SLOT_HEADER_BYTES, value)
        return index

    def get(self, key: str) -> Optional[Tuple[bytes, int]]:
        index, _ = self.find(key)
        if index is None:
            return None
        raw = self.mem.read(self.layout.slot_offset(index), self.layout.slot_bytes)
        _lock, _fp, _vlen, version, value = self.layout.parse_slot(raw)
        return value, version


class BytesBacking:
    """bytearray memory backend (property tests, no simulator needed)."""

    def __init__(self, length: int):
        self.data = bytearray(length)

    def read(self, offset: int, n: int) -> bytes:
        return bytes(self.data[offset:offset + n])

    def write(self, offset: int, data: bytes) -> None:
        self.data[offset:offset + len(data)] = data


class SpaceBacking:
    """Process-address-space backend rooted at the table's base VA."""

    def __init__(self, space, base: int):
        self.space = space
        self.base = base

    def read(self, offset: int, n: int) -> bytes:
        return self.space.read(self.base + offset, n)

    def write(self, offset: int, data: bytes) -> None:
        self.space.write(self.base + offset, data)


def make_value(key: str, version: int, length: int) -> bytes:
    """Deterministic value payload: GETs verify content against the
    version they observed, end to end, without shipping values around."""
    seed = zlib.crc32(f"{key}:{version}".encode())
    pattern = seed.to_bytes(4, "little")
    return (pattern * ((length + 3) // 4))[:length]


@dataclass
class KvStats(PerftestStats):
    """Perftest-shaped counters (the shared invariant checkers read the
    base fields) plus KV op counts."""

    puts: int = 0
    gets: int = 0
    get_misses: int = 0
    cas_attempts: int = 0
    cas_acquired: int = 0
    #: client ops: every issued op ends completed or failed (its QP went
    #: to ERR under it); ``ops_issued == ops_completed + ops_failed`` once
    #: none is pending
    ops_issued: int = 0
    ops_completed: int = 0
    ops_failed: int = 0


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


def _retire_error(conn: Connection, wc) -> None:
    """An error or flush CQE completes its send-queue WR too, and tells
    that the QP is in ERR: nothing more is posted to it."""
    if wc.opcode is not Opcode.RECV:
        conn.outstanding -= 1
        conn.errors += 1
    conn.errored = True


class KvServer(BusyPoller):
    """The KV server process: owns the table MR, applies PUTs, acks."""

    def __init__(self, server: Server, name: Optional[str] = None,
                 world=None, container: Optional[Container] = None,
                 n_buckets: int = 128, value_cap: int = 64,
                 msg_size: int = 256, depth: int = 32,
                 tenant: Optional[str] = None):
        self.name = name or f"kvserver{next(_kv_ids)}"
        self.layout = KvTableLayout(n_buckets, value_cap)
        self.msg_size = msg_size
        self.depth = depth
        self.tenant = tenant

        self._attach(server, world, container)

        self.pd = None
        self.cq = None
        self.table_mr = None
        self.msg_mr = None
        self.table_addr = 0
        self.msg_addr = 0
        self.table: Optional[KvTable] = None
        self.connections: List[Connection] = []
        self._by_qpn: Dict[int, Connection] = {}
        self.stats = KvStats()
        self.running = False
        self._sender_active = False

        #: per-key apply log [(version, sim_time)] — linearizability truth
        self.kv_applies: Dict[str, List[Tuple[int, float]]] = {}
        self._versions: Dict[str, int] = {}
        self._keys_by_fp: Dict[int, str] = {}

    # -- setup ----------------------------------------------------------------

    def _ring_bytes(self) -> int:
        # per connection: depth recv slots + depth send (reply) slots
        return 2 * self.depth * self.msg_size

    def setup(self, client_budget: int = 1):
        """Generator: PD, CQ, the exported table MR, and the message-ring
        MR sized for ``client_budget`` client QPs."""
        self.pd = yield from self.lib.alloc_pd()
        cq_depth = max(4096, 4 * self.depth * client_budget + 64)
        self.cq = yield from self.lib.create_cq(cq_depth)

        table_vma = self.process.space.mmap(
            max(self.layout.table_bytes, 4096), tag="data", name=f"{self.name}-kvtable")
        self.table_addr = table_vma.start
        self.table = KvTable(self.layout,
                             SpaceBacking(self.process.space, self.table_addr))
        self.table_mr = yield from self.lib.reg_mr(
            self.pd, self.table_addr, max(self.layout.table_bytes, 4096),
            AccessFlags.all_remote())

        ring_len = max(4096, self._ring_bytes() * client_budget)
        ring_vma = self.process.space.mmap(ring_len, tag="data",
                                           name=f"{self.name}-kvring")
        self.msg_addr = ring_vma.start
        self.msg_mr = yield from self.lib.reg_mr(
            self.pd, self.msg_addr, ring_len, AccessFlags.all_remote())
        return self

    def preload(self, keys, value_len: int) -> None:
        """Populate the table before traffic (deterministic warm start)."""
        now = self.server.sim.now
        for key in sorted(keys):
            self._apply_put(key, value_len, now)

    def add_client_qp(self, tenant: Optional[str] = None):
        """Generator: one QP for a new client, RECV ring preposted."""
        qp = yield from self.lib.create_qp(
            self.pd, QPType.RC, self.cq, self.cq, 2 * self.depth + 1,
            2 * self.depth + 1, tenant=tenant if tenant is not None else self.tenant)
        index = len(self.connections)
        conn = Connection(qp=qp, peer_name="", index=index)
        self.connections.append(conn)
        self._by_qpn[qp.qpn] = conn
        return conn

    def prime_recv_ring(self, conn: Connection) -> None:
        """Prepost the RECV ring (QP must be past RESET)."""
        for _ in range(self.depth):
            self._post_ring_recv(conn)

    def _recv_slot_addr(self, conn_index: int, seq: int) -> int:
        return (self.msg_addr + conn_index * self._ring_bytes()
                + (seq % self.depth) * self.msg_size)

    def _reply_slot_addr(self, conn_index: int, seq: int) -> int:
        return (self.msg_addr + conn_index * self._ring_bytes()
                + (self.depth + seq % self.depth) * self.msg_size)

    def _post_ring_recv(self, conn: Connection) -> None:
        # conn.next_seq is reserved for send-queue accounting (the
        # cqe-conservation checker reads it); the RECV ring keeps its own
        # cursor.
        seq = conn._recv_ring_seq
        conn._recv_ring_seq = seq + 1
        addr = self._recv_slot_addr(conn.index, seq)
        self.lib.post_recv(conn.qp, RecvWR(
            wr_id=seq, sges=[make_sge(self.msg_mr, addr - self.msg_addr,
                                      self.msg_size)]))

    # -- run ------------------------------------------------------------------

    def start(self) -> None:
        self.running = True
        self._sender_active = True
        self._spawn_loops()

    def _server_loop(self):
        def tick():
            if self.running:
                # drained to empty; the replies just posted complete by a push
                drained = self._drain_completions()
                return (IDLE_POLL_S / 2 if drained else IDLE_POLL_S), IDLE_POLL_S
        return self._poll_loop(tick)

    def _handle_wc(self, wc) -> None:
        conn = self._by_qpn.get(wc.qp_num)
        if conn is None:
            self.stats.status_errors.append(
                f"{self.name}: completion for unknown QPN {wc.qp_num:#x}")
            return
        if not wc.ok:
            self.stats.status_errors.append(
                f"{self.name} wr {wc.wr_id} on {wc.qp_num:#x}: {wc.status.value}")
            _retire_error(conn, wc)
            return
        if wc.opcode is Opcode.RECV:
            self._handle_request(conn, wc)
            return
        # reply SEND completion: strict order per QP
        if wc.wr_id != conn.expect_send_seq:
            self.stats.order_errors.append(
                f"{self.name} qp {wc.qp_num:#x}: expected reply seq "
                f"{conn.expect_send_seq}, got {wc.wr_id}")
            conn.expect_send_seq = wc.wr_id + 1
        else:
            conn.expect_send_seq += 1
        conn.completed += 1
        conn.outstanding -= 1
        self.stats.completed += 1
        self.stats.bytes_completed += wc.byte_len or self.msg_size

    def _apply_put(self, key: str, val_len: int, now: float) -> Tuple[int, int, bool]:
        """-> (version, bucket, ok).  Versions are per-key monotonic even
        across delete/reinsert, so the apply log never repeats.

        The stored bytes are ``make_value(key, version, val_len)`` — the
        version is assigned here, so the value convention must also be
        applied here; clients verify GET payloads against the version
        they observe, end to end."""
        version = self._versions.get(key, 0) + 1
        value = make_value(key, version, val_len)
        try:
            bucket = self.table.put(key, value, version)
        except KvFullError:
            return 0, 0, False
        self._versions[key] = version
        self._keys_by_fp[self.layout.fingerprint(key)] = key
        self.kv_applies.setdefault(key, []).append((version, now))
        return version, bucket, True

    def _handle_request(self, conn: Connection, wc) -> None:
        if conn.errored:
            return  # the QP is in ERR: no reply, no RECV repost
        conn.recv_completed += 1
        self.stats.recv_completed += 1
        if wc.wr_id != conn.expect_recv_seq:
            self.stats.order_errors.append(
                f"{self.name} qp {wc.qp_num:#x}: expected request seq "
                f"{conn.expect_recv_seq}, got {wc.wr_id}")
            conn.expect_recv_seq = wc.wr_id + 1
        else:
            conn.expect_recv_seq += 1
        addr = self._recv_slot_addr(conn.index, wc.wr_id)
        raw = self.process.space.read(addr, min(wc.byte_len or self.msg_size,
                                                self.msg_size))
        try:
            magic, op, key_len, val_len, op_id = _REQ.unpack_from(raw)
            key = raw[_REQ.size:_REQ.size + key_len].decode()
            value = raw[_REQ.size + key_len:_REQ.size + key_len + val_len]
        except (struct.error, UnicodeDecodeError):
            self.stats.content_errors.append(
                f"{self.name}: malformed request on qp {wc.qp_num:#x}")
            self._post_ring_recv(conn)
            return
        if magic != REQ_MAGIC or op != OP_PUT:
            self.stats.content_errors.append(
                f"{self.name}: bad magic/op {magic!r}/{op} on qp {wc.qp_num:#x}")
            self._post_ring_recv(conn)
            return
        del value  # the request's value bytes model wire cost only
        version, bucket, ok = self._apply_put(key, val_len, self.server.sim.now)
        self.stats.puts += 1
        reply_addr = self._reply_slot_addr(conn.index, wc.wr_id)
        self.process.space.write(
            reply_addr, _REP.pack(REP_MAGIC, op_id, 1 if ok else 0, version, bucket))
        self.lib.post_send(conn.qp, SendWR(
            wr_id=conn.next_seq, opcode=Opcode.SEND,
            sges=[make_sge(self.msg_mr, reply_addr - self.msg_addr, _REP.size)]))
        conn.next_seq += 1
        conn.outstanding += 1
        # keep the RECV ring primed
        self._post_ring_recv(conn)

    # -- migration transparency ----------------------------------------------

    def _spawn_loops(self) -> None:
        self.process.attach(self.server.sim.spawn(
            self._server_loop(), name=f"{self.name}:srv"))

    def on_migrated(self, session, restored_container: Container) -> None:
        super().on_migrated(session, restored_container)
        # The table VMA was restored at its original VA: re-root the
        # backend on the restored address space.
        self.table.mem = SpaceBacking(self.process.space, self.table_addr)


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


@dataclass
class _KvOp:
    op_id: int
    kind: str  # "put" | "get" | "cas"
    key: str
    slot: int
    t_invoke: float
    fp: int = 0  # KvTableLayout.fingerprint(key), computed once per op
    # get state
    plan_pos: int = 0
    # cas state
    phase: str = ""  # "acquire" | "release"
    acquired: bool = False
    t_acquire: float = 0.0
    put_value: bytes = b""


class KvClient(BusyPoller):
    """Closed-loop KV client: ``depth`` operations in flight, op mix and
    key choice drawn from a seeded RNG (deterministic across runs)."""

    def __init__(self, server: Server, kv: KvServer, name: Optional[str] = None,
                 world=None, container: Optional[Container] = None,
                 keyspace: Optional[List[str]] = None, value_len: int = 32,
                 depth: int = 4, msg_size: int = 256,
                 mix: Tuple[float, float, float] = (0.25, 0.65, 0.10),
                 seed: int = 0, tenant: Optional[str] = None,
                 pace_s: float = 0.0):
        self.name = name or f"kvclient{next(_kv_ids)}"
        self.kv = kv
        self.layout = kv.layout
        self.keyspace = keyspace or [f"key{i:04d}" for i in range(32)]
        #: key -> fingerprint and key -> lock-word offset, derived once per
        #: key instead of once per op
        self._fps = {key: self.layout.fingerprint(key) for key in self.keyspace}
        self._lock_offsets = {key: self.layout.lock_offset(key)
                              for key in self.keyspace}
        self.value_len = min(value_len, kv.layout.value_cap)
        self.depth = depth
        self.msg_size = msg_size
        self.mix = mix
        self.tenant = tenant
        self.pace_s = pace_s
        self.client_id = next(_kv_ids) << 8  # nonzero CAS holder token
        self.rng = random.Random(f"kvclient:{seed}:{self.name}")

        self._attach(server, world, container)

        self.pd = None
        self.cq = None
        self.mr = None
        self.buf_addr = 0
        self.conn: Optional[Connection] = None
        self.connections: List[Connection] = []
        self.stats = KvStats()
        self.running = False
        self._sender_active = False
        self._iters_left: Optional[int] = None

        self.remote_table_addr = 0
        self.remote_table_rkey = 0
        self.remote_msg_rkey = 0

        self._ops: Dict[int, _KvOp] = {}
        self._wr_ops: Dict[int, int] = {}  # send-queue wr_id -> op_id
        self._op_ids = itertools.count(1)
        self._free_slots: List[int] = []
        self._recv_seq = 0

        self.kv_history = KvOpLog()
        self.kv_cas = KvCasLog()

    @property
    def get_latencies(self) -> List[float]:
        """Every GET's response time, in completion order."""
        return self.kv_history.get_latencies()

    # -- buffer geometry ------------------------------------------------------
    # [depth send slots][depth recv slots][depth read slots][depth atomic slots]

    def _send_off(self, slot: int) -> int:
        return slot * self.msg_size

    def _recv_off(self, slot: int) -> int:
        return (self.depth + slot) * self.msg_size

    def _read_off(self, slot: int) -> int:
        return 2 * self.depth * self.msg_size + slot * self.layout.slot_bytes

    def _atomic_off(self, slot: int) -> int:
        return (2 * self.depth * self.msg_size
                + self.depth * self.layout.slot_bytes + slot * 8)

    def _buf_bytes(self) -> int:
        return (2 * self.depth * self.msg_size
                + self.depth * self.layout.slot_bytes + self.depth * 8)

    def setup(self):
        """Generator: PD, CQ, one MR covering all rings, one QP."""
        self.pd = yield from self.lib.alloc_pd()
        self.cq = yield from self.lib.create_cq(max(4096, 8 * self.depth + 64))
        buf_len = max(4096, self._buf_bytes())
        vma = self.process.space.mmap(buf_len, tag="data", name=f"{self.name}-buf")
        self.buf_addr = vma.start
        self.mr = yield from self.lib.reg_mr(
            self.pd, self.buf_addr, buf_len, AccessFlags.all_remote())
        qp = yield from self.lib.create_qp(
            self.pd, QPType.RC, self.cq, self.cq, 4 * self.depth + 1,
            self.depth + 1, tenant=self.tenant)
        self.conn = Connection(qp=qp, peer_name=self.kv.name)
        self.connections = [self.conn]
        self._free_slots = list(range(self.depth))
        return self

    # -- traffic --------------------------------------------------------------

    def start(self, iters: Optional[int] = None) -> None:
        self.running = True
        self._iters_left = iters
        self._sender_active = True
        self._spawn_loops()

    def _client_loop(self):
        return self._poll_loop(self._client_tick)

    def _client_tick(self):
        if not self.running:
            return None
        drained = self._drain_completions()
        self._issue_ops()
        if self._iters_left == 0 and not self._ops:
            self.running = False
            return None
        if self.pace_s:
            return self.pace_s, None  # a paced tick may issue: never idle
        # drained to empty; with the window full the next ticks cannot issue either
        return ((IDLE_POLL_S / 2 if drained else IDLE_POLL_S),
                IDLE_POLL_S if len(self._ops) >= self.depth else None)

    def _issue_ops(self) -> None:
        if self.conn.errored:
            return
        while len(self._ops) < self.depth and self._free_slots:
            if self._iters_left is not None:
                if self._iters_left <= 0:
                    return
                self._iters_left -= 1
            self._issue_one()
            if self.pace_s:
                return  # paced: at most one new op per tick

    def _issue_one(self) -> None:
        r = self.rng.random()
        put_w, get_w, _cas_w = self.mix
        key = self.rng.choice(self.keyspace)
        slot = self._free_slots.pop()
        op = _KvOp(op_id=next(self._op_ids), kind="", key=key, slot=slot,
                   t_invoke=self.server.sim.now, fp=self._fps[key])
        self._ops[op.op_id] = op
        self.stats.ops_issued += 1
        if r < put_w:
            op.kind = "put"
            self._issue_put(op)
        elif r < put_w + get_w:
            op.kind = "get"
            self._issue_get_probe(op)
        else:
            op.kind = "cas"
            op.phase = "acquire"
            self._issue_cas(op, expect=0, swap=self.client_id)
            self.stats.cas_attempts += 1

    def _post(self, wr: SendWR, op: Optional[_KvOp] = None) -> None:
        conn = self.conn
        wr.wr_id = conn.next_seq
        if op is not None:
            self._wr_ops[wr.wr_id] = op.op_id
        self.lib.post_send(conn.qp, wr)
        conn.next_seq += 1
        conn.outstanding += 1

    def _issue_put(self, op: _KvOp) -> None:
        # The client cannot know which version the server will assign, so
        # the wire carries a zero-filled value of the requested length;
        # the server stores make_value(key, assigned_version, len) — the
        # convention GET payload verification checks against.
        key_raw = op.key.encode()
        payload = _REQ.pack(REQ_MAGIC, OP_PUT, len(key_raw), self.value_len,
                            op.op_id) + key_raw + bytes(self.value_len)
        addr = self.buf_addr + self._send_off(op.slot)
        self.process.space.write(addr, payload)
        self._post(SendWR(
            wr_id=0, opcode=Opcode.SEND,
            sges=[make_sge(self.mr, addr - self.buf_addr, len(payload))]))

    def _issue_get_probe(self, op: _KvOp) -> None:
        _bucket, offset, length = self.layout.probe(op.fp, op.plan_pos)
        self._post(SendWR(
            wr_id=0, opcode=Opcode.RDMA_READ,
            sges=[make_sge(self.mr, self._read_off(op.slot), length)],
            remote_addr=self.remote_table_addr + offset,
            rkey=self.remote_table_rkey), op)

    def _issue_cas(self, op: _KvOp, expect: int, swap: int) -> None:
        self._post(SendWR(
            wr_id=0, opcode=Opcode.ATOMIC_CMP_AND_SWP,
            sges=[make_sge(self.mr, self._atomic_off(op.slot), 8)],
            remote_addr=self.remote_table_addr + self._lock_offsets[op.key],
            rkey=self.remote_table_rkey,
            compare_add=expect, swap=swap), op)

    def _post_reply_recv(self) -> None:
        seq = self._recv_seq
        self._recv_seq += 1
        off = self._recv_off(seq % self.depth)
        self.lib.post_recv(self.conn.qp, RecvWR(
            wr_id=seq, sges=[make_sge(self.mr, off, self.msg_size)]))

    def prime_recv_ring(self) -> None:
        for _ in range(self.depth):
            self._post_reply_recv()

    # -- completion handling --------------------------------------------------

    def _handle_wc(self, wc) -> None:
        conn = self.conn
        if conn is None or wc.qp_num != conn.qp.qpn:
            self.stats.status_errors.append(
                f"{self.name}: completion for unknown QPN {wc.qp_num:#x}")
            return
        if not wc.ok:
            self.stats.status_errors.append(
                f"{self.name} wr {wc.wr_id} on {wc.qp_num:#x}: {wc.status.value}")
            _retire_error(conn, wc)
            self._wr_ops.pop(wc.wr_id, None)
            # The client's one QP is in ERR: no pending op can complete.
            for op in list(self._ops.values()):
                self._fail(op)
            return
        if wc.opcode is Opcode.RECV:
            self._handle_reply(wc)
            return
        # send-queue completion: order check, then op continuation
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
        self.stats.bytes_completed += wc.byte_len or 0
        op_id = self._wr_ops.pop(wc.wr_id, None)
        if op_id is None:
            return  # PUT request SEND: op completes on the reply RECV
        op = self._ops.get(op_id)
        if op is None:
            return
        if op.kind == "get":
            self._continue_get(op)
        elif op.kind == "cas":
            self._continue_cas(op)

    def _continue_get(self, op: _KvOp) -> None:
        raw = self.process.space.read(self.buf_addr + self._read_off(op.slot),
                                      self.layout.slot_bytes)
        _lock, fp, _vlen, version, value = self.layout.parse_slot(raw)
        now = self.server.sim.now
        if fp == op.fp:
            expected = make_value(op.key, version, len(value))
            if value != expected:
                self.stats.content_errors.append(
                    f"{self.name}: get({op.key!r}) v{version} payload mismatch")
            self._finish_get(op, version, now)
        elif fp == FP_EMPTY:
            self.stats.get_misses += 1
            self._finish_get(op, 0, now)
        else:
            op.plan_pos += 1
            if op.plan_pos >= self.layout.n_buckets:
                self.stats.get_misses += 1
                self._finish_get(op, 0, now)
            else:
                self._issue_get_probe(op)

    def _finish_get(self, op: _KvOp, version: int, now: float) -> None:
        self.stats.gets += 1
        self.kv_history.record("get", op.key, op.t_invoke, now, version)
        self._retire(op)

    def _continue_cas(self, op: _KvOp) -> None:
        raw = self.process.space.read(self.buf_addr + self._atomic_off(op.slot), 8)
        observed = int.from_bytes(raw, "little")
        now = self.server.sim.now
        if op.phase == "acquire":
            if observed == 0:
                op.acquired = True
                op.t_acquire = now
                self.stats.cas_acquired += 1
                # hold was granted: release immediately (the window between
                # the two CAS executions is the critical section)
                op.phase = "release"
                self._issue_cas(op, expect=self.client_id, swap=0)
                return
            # lost the race: record the failed attempt and retire
            self.kv_cas.record(op.key, self.client_id, False, t_acquire=now)
            self._retire(op)
            return
        # release phase
        released = observed == self.client_id
        self.kv_cas.record(op.key, self.client_id, True, released=released,
                           release_failed=not released,
                           t_acquire=op.t_acquire, t_release=now)
        self._retire(op)

    def _handle_reply(self, wc) -> None:
        conn = self.conn
        if conn.errored:
            return  # its op already failed; the ERR QP takes no RECV
        conn.recv_completed += 1
        self.stats.recv_completed += 1
        if wc.wr_id != conn.expect_recv_seq:
            self.stats.order_errors.append(
                f"{self.name} qp {wc.qp_num:#x}: expected recv seq "
                f"{conn.expect_recv_seq}, got {wc.wr_id}")
            conn.expect_recv_seq = wc.wr_id + 1
        else:
            conn.expect_recv_seq += 1
        off = self._recv_off(wc.wr_id % self.depth)
        raw = self.process.space.read(self.buf_addr + off, _REP.size)
        self._post_reply_recv()
        try:
            magic, op_id, status, version, _bucket = _REP.unpack_from(raw)
        except struct.error:
            self.stats.content_errors.append(f"{self.name}: malformed reply")
            return
        if magic != REP_MAGIC:
            self.stats.content_errors.append(
                f"{self.name}: bad reply magic {magic!r}")
            return
        op = self._ops.get(op_id)
        if op is None or op.kind != "put":
            self.stats.order_errors.append(
                f"{self.name}: reply for unknown op {op_id}")
            return
        now = self.server.sim.now
        self.stats.puts += 1
        self.kv_history.record("put", op.key, op.t_invoke, now, version,
                               bool(status))
        self._retire(op)

    def _retire(self, op: _KvOp) -> None:
        self._ops.pop(op.op_id, None)
        self._free_slots.append(op.slot)
        self.stats.ops_completed += 1

    def _fail(self, op: _KvOp) -> None:
        """An op whose QP went to ERR: it ends, unanswered and unrecorded
        (a PUT may or may not have been applied)."""
        self._ops.pop(op.op_id, None)
        self._free_slots.append(op.slot)
        self.stats.ops_failed += 1

    # -- synchronous sweeps ---------------------------------------------------

    def readback(self, key: str):
        """Generator: one synchronous GET (drives its own polling).  Used
        by the freshness-after-migration contract check; traffic loops
        must be stopped."""
        key_fp = self.layout.fingerprint(key)
        for pos in range(self.layout.n_buckets):
            _bucket, offset, length = self.layout.probe(key_fp, pos)
            wr_id = self.conn.next_seq
            self._post(SendWR(
                wr_id=0, opcode=Opcode.RDMA_READ,
                sges=[make_sge(self.mr, self._read_off(0), length)],
                remote_addr=self.remote_table_addr + offset,
                rkey=self.remote_table_rkey))

            def tick(wr_id=wr_id):
                if self.conn.expect_send_seq <= wr_id:
                    self._drain_completions()
                    return 0.0, None  # sleep exactly the poll's CPU time
            yield from self._poll_loop(tick, quiet=False)
            raw = self.process.space.read(
                self.buf_addr + self._read_off(0), self.layout.slot_bytes)
            _lock, fp, _vlen, version, value = self.layout.parse_slot(raw)
            if fp == key_fp:
                return value, version
            if fp == FP_EMPTY:
                return None
        return None

    # -- migration transparency ----------------------------------------------

    def _spawn_loops(self) -> None:
        self.process.attach(self.server.sim.spawn(
            self._client_loop(), name=f"{self.name}:ops"))


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------


def connect_kv(kv: KvServer, client: KvClient):
    """Generator: out-of-band exchange + QP connection for one client.

    The client learns the table's (virtual) base address, rkey and
    layout; both sides bring their QPs to RTS."""
    sim = kv.server.sim
    server_conn = yield from kv.add_client_qp(tenant=client.tenant)
    yield sim.timeout(50e-6)  # OOB exchange (sockets in real deployments)
    server_conn.peer_name = client.name
    client.remote_table_addr = kv.table_addr
    client.remote_table_rkey = kv.table_mr.rkey
    yield from kv.lib.connect(server_conn.qp, client.server.name, client.conn.qp.qpn)
    yield from client.lib.connect(client.conn.qp, kv.server.name, server_conn.qp.qpn)
    kv.prime_recv_ring(server_conn)
    client.prime_recv_ring()
    return server_conn
