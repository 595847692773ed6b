"""RDMA-Hadoop workload (Figure 6, §5.6).

A model of the HiBD RDMA-Hadoop deployment the paper migrates: a master
and two slave containers; the master assigns a task to slave1 and the
operator needs to take slave1's server down for maintenance.  Two ways out:

- **MigrRDMA**: live-migrate the slave container (the application binary is
  untouched — the task object only uses the verbs surface plus its own
  Python state, the analogue of restored process memory),
- **failover** (the baseline Hadoop relies on without RDMA live
  migration): the master detects the lost heartbeat, starts a backup
  container on another server, replays the task log and re-runs the
  unfinished work.

Two task types, as in the paper:

- ``TestDFSIO`` — HDFS write throughput: the slave streams file blocks to
  the replication datanode over RDMA WRITE, paced at the HDFS-level
  goodput, reporting per-interval throughput,
- ``EstimatePI`` — compute-bound Monte-Carlo sampling with periodic
  progress heartbeats (no throughput result, matching the paper).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster import Container, Server, Testbed
from repro.config import MiB
from repro.rnic import AccessFlags, Opcode, QPType, RecvWR, SendWR
from repro.sim import Interrupt
from repro.verbs.api import make_sge

_node_ids = itertools.count(1)

BLOCK_BYTES = 4 * MiB
DATA_DEPTH = 8
CTRL_MSG_BYTES = 256
CTRL_DEPTH = 256


class HadoopNode:
    """One Hadoop daemon (master / datanode) in its own container."""

    def __init__(self, server: Server, world, name: str):
        self.server = server
        self.world = world
        self.name = name
        self.container = server.create_container(f"{name}-ct")
        self.process = self.container.add_process(name)
        self.lib = world.make_lib(self.process, self.container)
        self.pd = None
        self.cq = None
        self.mr = None
        self.buf_addr = 0
        self.buf_len = 0

    def setup(self, buf_len: int):
        """Generator: PD, CQ and one registered buffer of ``buf_len``."""
        self.pd = yield from self.lib.alloc_pd()
        self.cq = yield from self.lib.create_cq(8192)
        vma = self.process.space.mmap(buf_len, tag="data", name=f"{self.name}-buf")
        self.buf_addr = vma.start
        self.buf_len = vma.length
        self.mr = yield from self.lib.reg_mr(
            self.pd, self.buf_addr, buf_len, AccessFlags.all_remote())

    def create_connected_qp(self, peer: "HadoopNode", depth: int):
        """Generator: one RC QP pair between self and peer; returns both."""
        mine = yield from self.lib.create_qp(
            self.pd, QPType.RC, self.cq, self.cq, depth, depth)
        theirs = yield from peer.lib.create_qp(
            peer.pd, QPType.RC, peer.cq, peer.cq, depth, depth)
        yield self.server.sim.timeout(50e-6)  # out-of-band exchange
        yield from self.lib.connect(mine, peer.server.name, theirs.qpn)
        yield from peer.lib.connect(theirs, self.server.name, mine.qpn)
        return mine, theirs


@dataclass
class Heartbeat:
    """One progress report from a slave, as recorded by the master."""

    node: str
    time_s: float
    completed_files: int
    bytes_done: int
    samples_done: int
    finished: bool


@dataclass
class TaskResult:
    """Outcome of one Hadoop task: completion time and progress marks."""

    jct_s: float = 0.0
    #: (time, cumulative payload bytes) marks for throughput timelines
    progress: List[Tuple[float, int]] = field(default_factory=list)
    total_bytes: int = 0
    finished: bool = False
    redone_bytes: int = 0

    def aggregate_tput_gbps(self) -> float:
        """DFSIO's reported metric: payload bytes over job completion time."""
        if self.jct_s <= 0:
            raise ValueError("task did not run")
        return self.total_bytes * 8 / self.jct_s / 1e9


class DfsioTask:
    """TestDFSIO write test running inside slave1's container."""

    def __init__(self, cluster: "HadoopCluster", nfiles: int, file_bytes: int,
                 start_file: int = 0):
        self.cluster = cluster
        self.nfiles = nfiles
        self.file_bytes = file_bytes
        self.completed_files = start_file
        self.bytes_done = start_file * file_bytes
        self.result = TaskResult()
        self.running = False
        self._outstanding = 0
        self._seq = 0
        # Posting progress within the current file: part of the task state
        # so a restored loop resumes mid-file instead of starting it over.
        self._blocks_posted_in_file = 0

    @property
    def finished(self) -> bool:
        return self.completed_files >= self.nfiles

    def start(self) -> None:
        """Launch (or resume) the block-writing loop in the slave process."""
        self.running = True
        node = self.cluster.slave
        node.process.attach(node.server.sim.spawn(self._run(), name="dfsio"))

    def _run(self):
        cluster = self.cluster
        node = cluster.slave
        sim = node.server.sim
        cfg = cluster.tb.config.hadoop
        block_gap = BLOCK_BYTES * 8 / cfg.dfsio_app_goodput_bps
        started = sim.now
        try:
            while self.running and not self.finished:
                blocks = self.file_bytes // BLOCK_BYTES
                while self._blocks_posted_in_file < blocks:
                    yield from node.container.wait_if_paused(sim)
                    while self._outstanding >= DATA_DEPTH:
                        yield from self._drain(node, sim)
                    self._post_block(node)
                    self._blocks_posted_in_file += 1
                    yield sim.timeout(block_gap)  # HDFS-level processing
                while self._outstanding > 0:
                    yield from self._drain(node, sim)
                self.completed_files += 1
                self._blocks_posted_in_file = 0
                self.result.progress.append((sim.now, self.bytes_done))
            self.result.finished = self.finished
            self.result.jct_s = sim.now - cluster.task_started_at
            self.result.total_bytes = self.bytes_done
            self.running = False
        except Interrupt:
            return

    def _post_block(self, node: HadoopNode) -> None:
        conn_qp = self.cluster.data_qp
        slot = self._seq % DATA_DEPTH
        wr = SendWR(
            wr_id=self._seq, opcode=Opcode.RDMA_WRITE,
            sges=[make_sge(node.mr, slot * BLOCK_BYTES, BLOCK_BYTES)],
            remote_addr=self.cluster.remote_data_addr + slot * BLOCK_BYTES,
            rkey=self.cluster.remote_data_rkey)
        node.lib.post_send(conn_qp, wr)
        self._seq += 1
        self._outstanding += 1

    def _drain(self, node: HadoopNode, sim):
        wcs = node.lib.poll_cq(node.cq, 16)
        if not wcs:
            yield sim.timeout(5e-6)
            return
        for wc in wcs:
            if wc.opcode is not Opcode.RDMA_WRITE:
                continue  # heartbeat SENDs share the CQ
            if not wc.ok:
                raise RuntimeError(f"DFSIO block failed: {wc.status}")
            self._outstanding -= 1
            self.bytes_done += BLOCK_BYTES
            self.result.progress.append((sim.now, self.bytes_done))

    # migration transparency --------------------------------------------------

    def on_migrated(self, session, restored: Container) -> None:
        """Migration hook: re-home the node and resume mid-file."""
        node = self.cluster.slave
        node.container = restored
        node.process = session.processes[node.process.pid]
        node.server = restored.server
        if self.running:
            node.process.attach(node.server.sim.spawn(self._run(), name="dfsio"))


class EstimatePiTask:
    """Compute-bound Monte-Carlo pi estimation."""

    def __init__(self, cluster: "HadoopCluster", samples: int, start_done: int = 0):
        self.cluster = cluster
        self.samples = samples
        self.samples_done = start_done
        self.result = TaskResult()
        self.running = False

    @property
    def finished(self) -> bool:
        return self.samples_done >= self.samples

    @property
    def bytes_done(self) -> int:
        return 0

    @property
    def completed_files(self) -> int:
        return 0

    def start(self) -> None:
        """Launch (or resume) the sampling loop in the slave process."""
        self.running = True
        node = self.cluster.slave
        node.process.attach(node.server.sim.spawn(self._run(), name="estimate-pi"))

    def _run(self):
        cluster = self.cluster
        node = cluster.slave
        sim = node.server.sim
        cfg = cluster.tb.config.hadoop
        tick = cfg.progress_report_interval_s
        try:
            while self.running and not self.finished:
                yield from node.container.wait_if_paused(sim)
                yield sim.timeout(tick)
                self.samples_done += int(tick * cfg.estimatepi_compute_rate)
                self.result.progress.append((sim.now, self.samples_done))
            self.result.finished = self.finished
            self.result.jct_s = sim.now - cluster.task_started_at
            self.result.total_bytes = 0
            self.running = False
        except Interrupt:
            return

    def on_migrated(self, session, restored: Container) -> None:
        node = self.cluster.slave
        node.container = restored
        node.process = session.processes[node.process.pid]
        node.server = restored.server
        if self.running:
            node.process.attach(node.server.sim.spawn(self._run(), name="estimate-pi"))


class HadoopCluster:
    """Master + two slaves; slave1 runs the task and is the maintenance
    target.  Needs a testbed with >= 2 partner servers (master and the
    replication datanode live on partners; slave1 on the source)."""

    def __init__(self, tb: Testbed, world):
        if len(tb.partners) < 2:
            raise ValueError("HadoopCluster needs a testbed with >= 2 partners")
        self.tb = tb
        self.world = world
        self.sim = tb.sim
        self.master = HadoopNode(tb.partners[0], world, f"hdp-master{next(_node_ids)}")
        self.slave = HadoopNode(tb.source, world, f"hdp-slave1-{next(_node_ids)}")
        self.datanode = HadoopNode(tb.partners[1], world, f"hdp-slave2-{next(_node_ids)}")

        self.data_qp = None  # slave -> datanode
        self.ctrl_qp = None  # slave -> master
        self.remote_data_addr = 0
        self.remote_data_rkey = 0
        self.task = None
        self.task_started_at = 0.0
        self.heartbeats: List[Heartbeat] = []
        self._hb_process = None
        self._master_recv_conns: List = []
        self._master_qp_by_vqpn: Dict[int, object] = {}

    # -- setup ------------------------------------------------------------

    def setup(self, slave_heap_bytes: Optional[int] = None,
              slave_heap_dirty_bps: Optional[float] = None):
        """Generator: bring up all three daemons, the data/control QPs and
        the slave's JVM-heap model (defaults from HadoopConfig)."""
        cfg = self.tb.config.hadoop
        yield from self.master.setup(CTRL_DEPTH * CTRL_MSG_BYTES * 2)
        yield from self.slave.setup(DATA_DEPTH * BLOCK_BYTES + CTRL_MSG_BYTES * CTRL_DEPTH)
        yield from self.datanode.setup(DATA_DEPTH * BLOCK_BYTES)
        self.slave.process.set_synthetic_heap(
            cfg.slave_heap_bytes if slave_heap_bytes is None else slave_heap_bytes,
            cfg.slave_heap_dirty_bps if slave_heap_dirty_bps is None
            else slave_heap_dirty_bps)

        self.data_qp, _dn_qp = yield from self.slave.create_connected_qp(
            self.datanode, DATA_DEPTH * 2)
        self.remote_data_addr = self.datanode.buf_addr
        self.remote_data_rkey = self.datanode.mr.rkey

        self.ctrl_qp, master_qp = yield from self.slave.create_connected_qp(
            self.master, CTRL_DEPTH)
        self._add_master_conn(master_qp)
        self.sim.spawn(self._master_loop(), name="hdp-master-loop")

    def _add_master_conn(self, qp) -> None:
        self._master_recv_conns.append(qp)
        self._master_qp_by_vqpn[qp.qpn] = qp
        self._prepost_master_recvs(qp)

    def _prepost_master_recvs(self, qp) -> None:
        for i in range(CTRL_DEPTH // 2):
            self.master.lib.post_recv(qp, RecvWR(
                wr_id=i, sges=[make_sge(self.master.mr,
                                        (i % CTRL_DEPTH) * CTRL_MSG_BYTES,
                                        CTRL_MSG_BYTES)]))

    # -- task + heartbeats ---------------------------------------------------

    def submit(self, task) -> None:
        """Master assigns the task to slave1 and starts heartbeats."""
        self.task = task
        self.task_started_at = self.sim.now
        task.start()
        self._hb_process = self.slave.process.attach(
            self.sim.spawn(self._heartbeat_loop(), name="hdp-heartbeat"))
        self.slave.container.apps.append(task)
        self.slave.container.apps.append(self)

    def _heartbeat_loop(self):
        cfg = self.tb.config.hadoop
        seq = itertools.count()
        try:
            while self.task is not None and self.task.running:
                yield self.sim.timeout(cfg.heartbeat_interval_s)
                self._send_heartbeat(next(seq))
            if self.task is not None:
                self._send_heartbeat(next(seq), finished=True)
        except Interrupt:
            return

    def _send_heartbeat(self, seq: int, finished: bool = False) -> None:
        payload_addr = self.slave.buf_addr + DATA_DEPTH * BLOCK_BYTES
        blob = (f"{self.slave.name},{self.task.completed_files},"
                f"{self.task.bytes_done},{getattr(self.task, 'samples_done', 0)},"
                f"{int(finished or self.task.finished)}").encode()
        self.slave.process.space.write(payload_addr, blob[:CTRL_MSG_BYTES])
        self.slave.lib.post_send(self.ctrl_qp, SendWR(
            wr_id=1_000_000 + seq, opcode=Opcode.SEND,
            sges=[make_sge(self.slave.mr, DATA_DEPTH * BLOCK_BYTES,
                           min(len(blob), CTRL_MSG_BYTES))]))

    def _master_loop(self):
        while True:
            wcs = self.master.lib.poll_cq(self.master.cq, 32)
            for wc in wcs:
                if wc.opcode is Opcode.RECV and wc.ok:
                    self._record_heartbeat(wc)
                    qp = self._master_qp_by_vqpn.get(wc.qp_num)
                    if qp is not None:
                        self.master.lib.post_recv(qp, RecvWR(
                            wr_id=wc.wr_id,
                            sges=[make_sge(self.master.mr,
                                           (wc.wr_id % CTRL_DEPTH) * CTRL_MSG_BYTES,
                                           CTRL_MSG_BYTES)]))
            yield self.sim.timeout(20e-3)

    def _record_heartbeat(self, wc) -> None:
        addr = self.master.buf_addr + (wc.wr_id % CTRL_DEPTH) * CTRL_MSG_BYTES
        blob = self.master.process.space.read(addr, wc.byte_len)
        try:
            node, files, nbytes, samples, finished = blob.decode().split(",")
        except ValueError:
            return
        self.heartbeats.append(Heartbeat(
            node=node, time_s=self.sim.now, completed_files=int(files),
            bytes_done=int(nbytes), samples_done=int(samples),
            finished=bool(int(finished))))

    def last_heartbeat(self) -> Optional[Heartbeat]:
        """The master's most recent view of the slave's progress."""
        return self.heartbeats[-1] if self.heartbeats else None

    # -- the MigrRDMA path hooks everything through the container; the
    # -- failover path is modelled by FailoverManager below -------------------

    def on_migrated(self, session, restored: Container) -> None:
        """Keep the heartbeat loop alive across migration."""
        if self._hb_process is not None and self.task is not None and self.task.running:
            self._hb_process = self.slave.process.attach(
                self.sim.spawn(self._heartbeat_loop(), name="hdp-heartbeat"))

    def wait_task(self, limit_s: float = 600.0):
        """Generator: wait until the submitted task finishes."""
        while self.task.running:
            yield self.sim.timeout(50e-3)
        return self.task.result


class FailoverManager:
    """Hadoop's native reliability path: heartbeat-timeout detection, a
    backup container, and log-replay recovery (§5.6)."""

    def __init__(self, cluster: HadoopCluster, backup_server: Server):
        self.cluster = cluster
        self.backup_server = backup_server
        self.sim = cluster.sim
        self.failed_over = False
        self.detected_at: Optional[float] = None
        self.recovered_at: Optional[float] = None

    def kill_slave(self) -> None:
        """Simulate taking the slave's server down without live migration."""
        task = self.cluster.task
        if task.result.finished:
            return  # the job beat the maintenance window; nothing to kill
        task.running = True  # the task is not done; its host just died
        self.cluster.slave.container.freeze()

    def monitor_and_recover(self):
        """Generator: master-side failure detection + recovery."""
        cfg = self.cluster.tb.config.hadoop
        cluster = self.cluster
        while True:
            yield self.sim.timeout(cfg.heartbeat_interval_s / 2)
            last = cluster.last_heartbeat()
            last_t = last.time_s if last else cluster.task_started_at
            if cluster.task.result.finished:
                return
            if self.sim.now - last_t >= cfg.failover_detect_timeout_s:
                break
        self.detected_at = self.sim.now
        # Start the backup container and replay the task log.
        yield self.sim.timeout(cfg.backup_container_start_s)
        backup = HadoopNode(self.backup_server, cluster.world,
                            f"hdp-backup{next(_node_ids)}")
        yield from backup.setup(DATA_DEPTH * BLOCK_BYTES + CTRL_MSG_BYTES * CTRL_DEPTH)
        data_qp, _ = yield from backup.create_connected_qp(cluster.datanode, DATA_DEPTH * 2)
        ctrl_qp, master_qp = yield from backup.create_connected_qp(
            cluster.master, CTRL_DEPTH)
        cluster._add_master_conn(master_qp)
        yield self.sim.timeout(cfg.task_log_replay_s)

        # Resume the task from the last logged progress (completed files /
        # last reported samples); the partially-done unit is redone.
        last = cluster.last_heartbeat()
        old_task = cluster.task
        cluster.slave = backup
        cluster.data_qp = data_qp
        cluster.ctrl_qp = ctrl_qp
        if isinstance(old_task, DfsioTask):
            start_file = last.completed_files if last else 0
            new_task = DfsioTask(cluster, old_task.nfiles, old_task.file_bytes,
                                 start_file=start_file)
            new_task.result = old_task.result
            new_task.result.redone_bytes = max(
                0, old_task.bytes_done - start_file * old_task.file_bytes)
        else:
            done = last.samples_done if last else 0
            new_task = EstimatePiTask(cluster, old_task.samples, start_done=done)
            new_task.result = old_task.result
        cluster.task = new_task
        new_task.start()
        cluster._hb_process = backup.process.attach(
            self.sim.spawn(cluster._heartbeat_loop(), name="hdp-heartbeat"))
        self.failed_over = True
        self.recovered_at = self.sim.now
