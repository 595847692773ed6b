"""Unit tests for the MigrRDMA guest library: interception, translation,
fake-CQ behaviour, backlog — tested in isolation of full migrations."""

import pytest

from repro import cluster
from repro.core import MigrRdmaWorld
from repro.rnic import AccessFlags, Opcode, QPType, RecvWR, SendWR, WCStatus
from repro.rnic.cq import WorkCompletion
from repro.verbs.api import make_sge


@pytest.fixture
def env():
    tb = cluster.build()
    world = MigrRdmaWorld(tb)
    ct = tb.source.create_container("app")
    process = ct.add_process("worker")
    lib = world.make_lib(process, ct)
    peer_ct = tb.partners[0].create_container("peer")
    peer_process = peer_ct.add_process("peer")
    peer_lib = world.make_lib(peer_process, peer_ct)

    def setup():
        pd = yield from lib.alloc_pd()
        cq = yield from lib.create_cq(256)
        vma = process.space.mmap(65536, tag="data")
        mr = yield from lib.reg_mr(pd, vma.start, 65536, AccessFlags.all_remote())
        qp = yield from lib.create_qp(pd, QPType.RC, cq, cq, 32, 32)

        ppd = yield from peer_lib.alloc_pd()
        pcq = yield from peer_lib.create_cq(256)
        pvma = peer_process.space.mmap(65536, tag="data")
        pmr = yield from peer_lib.reg_mr(ppd, pvma.start, 65536, AccessFlags.all_remote())
        pqp = yield from peer_lib.create_qp(ppd, QPType.RC, pcq, pcq, 32, 32)
        yield from lib.connect(qp, tb.partners[0].name, pqp.qpn)
        yield from peer_lib.connect(pqp, tb.source.name, qp.qpn)
        return pd, cq, mr, qp, pmr, pqp, pcq

    pd, cq, mr, qp, pmr, pqp, pcq = tb.run(setup())
    return tb, world, lib, peer_lib, process, dict(
        pd=pd, cq=cq, mr=mr, qp=qp, pmr=pmr, pqp=pqp, pcq=pcq)


def drain(tb, lib, cq, n, timeout=2.0):
    def flow():
        out = []
        deadline = tb.sim.now + timeout
        while len(out) < n and tb.sim.now < deadline:
            out.extend(lib.poll_cq(cq, n - len(out)))
            yield tb.sim.timeout(1e-6)
        return out

    return tb.run(flow())


class TestInterception:
    def test_suspended_sends_are_buffered(self, env):
        tb, world, lib, peer_lib, process, h = env
        layer = world.layer(tb.source.name)
        layer.raise_suspension(process.pid)
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE,
                    sges=[make_sge(h["mr"], 0, 64)],
                    remote_addr=h["pmr"].addr, rkey=h["pmr"].rkey)
        lib.post_send(h["qp"], wr)
        assert len(h["qp"].intercepted_sends) == 1
        assert h["qp"]._phys.send_inflight == 0  # nothing hit the NIC

    def test_suspended_recvs_pass_through(self, env):
        tb, world, lib, peer_lib, process, h = env
        layer = world.layer(tb.source.name)
        layer.raise_suspension(process.pid)
        lib.post_recv(h["qp"], RecvWR(wr_id=1, sges=[make_sge(h["mr"], 0, 256)]))
        assert len(h["qp"]._phys.rq) == 1  # §3.4: RECVs not intercepted
        assert len(h["qp"].posted_recvs) == 1

    def test_replay_after_clear(self, env):
        tb, world, lib, peer_lib, process, h = env
        layer = world.layer(tb.source.name)
        layer.raise_suspension(process.pid)
        for i in range(3):
            lib.post_send(h["qp"], SendWR(
                wr_id=i, opcode=Opcode.RDMA_WRITE,
                sges=[make_sge(h["mr"], 0, 64)],
                remote_addr=h["pmr"].addr, rkey=h["pmr"].rkey))
        layer.clear_suspension(process.pid)
        lib.replay_after_restore(h["qp"])
        assert not h["qp"].intercepted_sends
        wcs = drain(tb, lib, h["cq"], 3)
        assert [wc.wr_id for wc in wcs] == [0, 1, 2]


class TestTranslation:
    def test_lkey_translated_on_post(self, env):
        tb, world, lib, peer_lib, process, h = env
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE,
                    sges=[make_sge(h["mr"], 0, 64)],
                    remote_addr=h["pmr"].addr, rkey=h["pmr"].rkey)
        assert wr.sges[0].lkey == h["mr"].lkey == 0  # virtual, dense
        lib.post_send(h["qp"], wr)
        wcs = drain(tb, lib, h["cq"], 1)
        assert wcs[0].status is WCStatus.SUCCESS
        # The application's WR object was not mutated (cloned internally).
        assert wr.sges[0].lkey == 0

    def test_cqe_qpn_translated_to_virtual(self, env):
        tb, world, lib, peer_lib, process, h = env
        lib.post_send(h["qp"], SendWR(
            wr_id=9, opcode=Opcode.RDMA_WRITE, sges=[make_sge(h["mr"], 0, 8)],
            remote_addr=h["pmr"].addr, rkey=h["pmr"].rkey))
        wcs = drain(tb, lib, h["cq"], 1)
        assert wcs[0].qp_num == h["qp"].qpn  # the virtual QPN

    def test_unknown_vlkey_raises(self, env):
        tb, world, lib, peer_lib, process, h = env
        from repro.rnic import SGE

        with pytest.raises(LookupError):
            lib.post_send(h["qp"], SendWR(
                wr_id=1, opcode=Opcode.RDMA_WRITE,
                sges=[SGE(h["mr"].addr, 8, 4242)],
                remote_addr=h["pmr"].addr, rkey=h["pmr"].rkey))


class TestFakeCq:
    def test_fake_entries_polled_first_and_translated(self, env):
        tb, world, lib, peer_lib, process, h = env
        old_pqpn = 0x00AB12
        lib.temp_qpn_map[old_pqpn] = h["qp"].qpn
        h["cq"].fake.append(WorkCompletion(
            wr_id=5, status=WCStatus.SUCCESS, opcode=Opcode.RDMA_WRITE,
            qp_num=old_pqpn, byte_len=64))
        wcs = lib.poll_cq(h["cq"], 4)
        assert len(wcs) == 1
        assert wcs[0].wr_id == 5
        assert wcs[0].qp_num == h["qp"].qpn  # via the temporary table

    def test_real_cqe_retires_temp_entry(self, env):
        tb, world, lib, peer_lib, process, h = env
        phys_qpn = h["qp"]._phys.qpn
        lib.temp_qpn_map[phys_qpn] = h["qp"].qpn
        lib.post_send(h["qp"], SendWR(
            wr_id=1, opcode=Opcode.RDMA_WRITE, sges=[make_sge(h["mr"], 0, 8)],
            remote_addr=h["pmr"].addr, rkey=h["pmr"].rkey))
        drain(tb, lib, h["cq"], 1)
        # §3.4: a real-CQ completion deletes the temporary translation entry.
        assert phys_qpn not in lib.temp_qpn_map


class TestBacklog:
    def test_burst_beyond_queue_depth_is_absorbed(self, env):
        tb, world, lib, peer_lib, process, h = env
        # Warm the rkey cache so the burst takes the translated fast path.
        lib.post_send(h["qp"], SendWR(
            wr_id=10_000, opcode=Opcode.RDMA_WRITE, sges=[make_sge(h["mr"], 0, 8)],
            remote_addr=h["pmr"].addr, rkey=h["pmr"].rkey))
        drain(tb, lib, h["cq"], 1)
        count = 3 * h["qp"]._phys.max_send_wr
        for i in range(count):
            lib.post_send(h["qp"], SendWR(
                wr_id=i, opcode=Opcode.RDMA_WRITE, sges=[make_sge(h["mr"], 0, 64)],
                remote_addr=h["pmr"].addr, rkey=h["pmr"].rkey))
        assert len(h["qp"].backlog) > 0
        wcs = drain(tb, lib, h["cq"], count)
        assert [wc.wr_id for wc in wcs] == list(range(count))
        assert not h["qp"].backlog


class TestRecvTracking:
    def test_consumed_recvs_leave_the_replay_set(self, env):
        tb, world, lib, peer_lib, process, h = env
        for i in range(4):
            lib.post_recv(h["qp"], RecvWR(wr_id=i, sges=[make_sge(h["mr"], i * 512, 512)]))
        assert len(h["qp"].posted_recvs) == 4
        peer_lib.post_send(h["pqp"], SendWR(
            wr_id=100, opcode=Opcode.SEND, sges=[make_sge(h["pmr"], 0, 128)]))
        wcs = drain(tb, lib, h["cq"], 1)
        assert wcs[0].opcode is Opcode.RECV
        assert len(h["qp"].posted_recvs) == 3  # one matched, three replayable


class TestBatchedPosting:
    """Back-to-back posts of the same WR shape through translation and the
    NIC.  (The class name is historical: it once covered a WR-chain post.)"""

    def _post_writes(self, lib, qp, h, n):
        for i in range(n):
            lib.post_send(qp, SendWR(wr_id=i, opcode=Opcode.RDMA_WRITE,
                                     sges=[make_sge(h["mr"], 0, 64)],
                                     remote_addr=h["pmr"].addr, rkey=h["pmr"].rkey))

    def test_chain_completes_in_order(self, env):
        tb, world, lib, peer_lib, process, h = env
        self._post_writes(lib, h["qp"], h, 5)
        wcs = drain(tb, lib, h["cq"], 5)
        assert [wc.wr_id for wc in wcs] == [0, 1, 2, 3, 4]
        assert all(wc.status is WCStatus.SUCCESS for wc in wcs)

    def test_chain_intercepted_while_suspended(self, env):
        tb, world, lib, peer_lib, process, h = env
        layer = world.layer(tb.source.name)
        layer.raise_suspension(process.pid)
        self._post_writes(lib, h["qp"], h, 3)
        assert len(h["qp"].intercepted_sends) == 3
        assert h["qp"]._phys.send_inflight == 0

    def test_lkey_translation_memoized_per_qp(self, env):
        tb, world, lib, peer_lib, process, h = env
        qp = h["qp"]
        assert qp.xlate_cache is None
        self._post_writes(lib, qp, h, 2)
        cached = qp.xlate_cache
        assert cached is not None
        self._post_writes(lib, qp, h, 1)
        assert qp.xlate_cache is cached  # same tuple: cache hit, no rebuild
        drain(tb, lib, h["cq"], 3)

    def test_dereg_mr_invalidates_translation_cache(self, env):
        tb, world, lib, peer_lib, process, h = env
        qp = h["qp"]
        self._post_writes(lib, qp, h, 1)
        drain(tb, lib, h["cq"], 1)
        epoch = qp.xlate_cache[0]

        def flow():
            vma = process.space.mmap(4096, tag="data")
            mr = yield from lib.reg_mr(h["pd"], vma.start, 4096,
                                       AccessFlags.all_remote())
            yield from lib.dereg_mr(mr)

        tb.run(flow())
        assert lib._xlate_epoch > epoch  # stale vlkey->plkey mappings dropped

    def test_identity_translation_posts_original_wr(self, env):
        tb, world, lib, peer_lib, process, h = env
        peer_lib.post_recv(h["pqp"], RecvWR(wr_id=1, sges=[make_sge(h["pmr"], 0, 64)]))
        # A zero-length SEND needs no lkey or rkey translation at all: the
        # fast path must hand the NIC the original WR, not a clone.
        wr = SendWR(wr_id=9, opcode=Opcode.SEND, sges=[])

        def driver():
            lib.post_send(h["qp"], wr)
            assert h["qp"]._phys.sq_pending[0] is wr
            yield tb.sim.timeout(1e-3)

        tb.run(driver())
        assert drain(tb, peer_lib, h["pcq"], 1)[0].wr_id == 1
