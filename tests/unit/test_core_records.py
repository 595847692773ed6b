"""Unit tests for the resource creation log (§3.2 bookkeeping)."""

import pytest

from repro.core.records import (
    QpConnectionMeta,
    ResourceLog,
    ResourceRecord,
    new_rid,
)


def record(kind="pd", deps=None, rid=None, pid=1):
    return ResourceRecord(rid=rid if rid is not None else new_rid(),
                          kind=kind, pid=pid, deps=deps or [])


class TestResourceLog:
    def test_add_and_iterate_in_creation_order(self):
        log = ResourceLog()
        records = [record("pd"), record("cq"), record("qp")]
        for r in records:
            log.add(r)
        assert [r.rid for r in log.in_creation_order()] == [r.rid for r in records]

    def test_dependencies_must_exist(self):
        log = ResourceLog()
        pd = log.add(record("pd"))
        log.add(record("mr", deps=[pd.rid]))
        with pytest.raises(ValueError):
            log.add(record("mr", deps=[999999]))

    def test_destroy_deletes_record(self):
        """§3.2: 'MigrRDMA deletes the corresponding resource creation log
        when the resource is destroyed' — restore never creates junk."""
        log = ResourceLog()
        pd = log.add(record("pd"))
        qp = log.add(record("qp", deps=[pd.rid]))
        log.remove(qp.rid)
        assert qp.rid not in log
        assert [r.rid for r in log.in_creation_order()] == [pd.rid]

    def test_duplicate_rid_rejected(self):
        log = ResourceLog()
        r = record("pd")
        log.add(r)
        with pytest.raises(ValueError):
            log.add(ResourceRecord(rid=r.rid, kind="pd", pid=1))

    def test_of_kind_filters(self):
        log = ResourceLog()
        log.add(record("pd"))
        log.add(record("mr"))
        log.add(record("mr"))
        assert len(log.of_kind("mr")) == 2
        assert len(log.of_kind("qp")) == 0

    def test_snapshot_is_deep_enough(self):
        log = ResourceLog()
        r = log.add(record("qp"))
        r.args["vqpn"] = 7
        snapshot = log.snapshot()
        snapshot[0].args["vqpn"] = 99
        assert log.get(r.rid).args["vqpn"] == 7

    def test_dump_bytes_scales_with_records(self):
        """DumpRDMA moves ``RECORD_BYTES`` per live record
        (``MigrRdmaPlugin.pre_dump_rdma``): the count it scales with
        follows both adds and removes."""
        log = ResourceLog()
        rids = [log.add(record("mr")).rid for _ in range(10)]
        assert len(log) == len(log.in_creation_order()) == 10
        log.remove(rids[3])
        assert len(log) == len(log.in_creation_order()) == 9

    def test_qp_rid_is_the_first_live_record_of_a_vqpn(self):
        """The vqpn index answers what a creation-order scan of the QP
        records answers, a vqpn logged twice included (a process that
        migrated can create a QP whose physical QPN equals an old vqpn)."""
        log = ResourceLog()

        def qp(vqpn):
            return log.add(ResourceRecord(rid=new_rid(), kind="qp", pid=1,
                                          args={"vqpn": vqpn}))

        def scan(vqpn):
            return next((r.rid for r in log.of_kind("qp")
                         if r.args["vqpn"] == vqpn), None)

        first, other, second, third = qp(0x100), qp(0x101), qp(0x100), qp(0x100)
        log.add(record("mr"))
        for vqpn in (0x100, 0x101, 0x102):
            assert log.qp_rid(vqpn) == scan(vqpn)
        assert log.qp_rid(0x100) == first.rid
        log.remove(second.rid)  # a shadowed record goes first
        assert log.qp_rid(0x100) == first.rid == scan(0x100)
        log.remove(first.rid)
        assert log.qp_rid(0x100) == third.rid == scan(0x100)
        log.remove(third.rid)
        log.remove(other.rid)
        assert log.qp_rid(0x100) is None and log.qp_rid(0x101) is None

    def test_rids_monotonic(self):
        a, b = new_rid(), new_rid()
        assert b > a


class TestQpConnectionMeta:
    def test_defaults_unconnected(self):
        meta = QpConnectionMeta()
        assert meta.remote_node is None
        assert meta.remote_pqpn is None
        assert meta.remote_vqpn is None

    def test_fields(self):
        meta = QpConnectionMeta(remote_node="partner0", remote_pqpn=0x111,
                                remote_vqpn=0x222)
        assert meta.remote_node == "partner0"
        assert meta.remote_pqpn == 0x111
        assert meta.remote_vqpn == 0x222
