"""Unit tests for translation tables and the rkey cache (§3.3)."""

import pytest

from repro.config import QPN_SPACE
from repro.core.translation import (
    DenseArrayTable,
    LinkedListTable,
    LkeyTable,
    QpnTable,
    RkeyCache,
)


class TestQpnTable:
    def test_set_lookup(self):
        table = QpnTable()
        table.set(0x100, 0x100)
        assert table.lookup(0x100) == 0x100

    def test_remap_after_migration(self):
        table = QpnTable()
        table.set(0x100, 0x100)  # creation: virtual == physical
        table.set(0x7F2, 0x100)  # restored QP: new physical, old virtual
        assert table.lookup(0x7F2) == 0x100
        table.delete(0x100)
        with pytest.raises(LookupError):
            table.lookup(0x100)

    def test_24_bit_bound(self):
        table = QpnTable()
        table.set(QPN_SPACE - 1, 7)
        with pytest.raises(ValueError):
            table.set(QPN_SPACE, 7)
        with pytest.raises(ValueError):
            table.set(-1, 7)

    def test_lookup_or_identity(self):
        table = QpnTable()
        assert table.lookup_or_identity(0x42) == 0x42
        table.set(0x42, 0x99)
        assert table.lookup_or_identity(0x42) == 0x99

    def test_reverse_lookup(self):
        table = QpnTable()
        table.set(0x500, 0x123)
        assert table.entries() == [(0x500, 0x123)]
        assert table.lookup(0x500) == 0x123
        with pytest.raises(LookupError):
            table.lookup(0x123)


class TestLkeyTable:
    def test_dense_assignment(self):
        table = LkeyTable()
        assert table.allocate(0xAA00) == 0
        assert table.allocate(0xBB00) == 1
        assert table.allocate(0xCC00) == 2

    def test_lookup(self):
        table = LkeyTable()
        v = table.allocate(0xAA00)
        assert table.lookup(v) == 0xAA00

    def test_update_points_at_new_physical(self):
        table = LkeyTable()
        v = table.allocate(0xAA00)
        table.update(v, 0xDD00)
        assert table.lookup(v) == 0xDD00

    def test_release_invalidates(self):
        table = LkeyTable()
        v = table.allocate(0xAA00)
        table.release(v)
        with pytest.raises(LookupError):
            table.lookup(v)
        assert len(table) == 0

    def test_released_slot_not_reused(self):
        """Virtual keys are never recycled — a stale key must not silently
        alias a new MR (the security property of per-process tables)."""
        table = LkeyTable()
        v0 = table.allocate(0xAA00)
        table.release(v0)
        v1 = table.allocate(0xBB00)
        assert v1 != v0

    def test_unknown_key_rejected(self):
        table = LkeyTable()
        with pytest.raises(LookupError):
            table.lookup(5)
        with pytest.raises(LookupError):
            table.update(5, 0x1)


class TestDenseArrayTable:
    def test_roundtrip(self):
        table = DenseArrayTable()
        keys = [table.insert(i * 7 + 1) for i in range(100)]
        assert [table.lookup(k) for k in keys] == [i * 7 + 1 for i in range(100)]


class TestLinkedListTable:
    def test_lookup_and_move_to_front(self):
        table = LinkedListTable()
        for v in range(10):
            table.insert(v, v + 1000)
        assert table.lookup(0) == 1000
        before = table.nodes_visited
        assert table.lookup(0) == 1000  # now at the head
        assert table.nodes_visited - before == 1

    def test_cost_grows_with_working_set(self):
        table = LinkedListTable()
        for v in range(64):
            table.insert(v, v)
        table.nodes_visited = 0
        for v in range(64):
            table.lookup(v)
        round_robin_cost = table.nodes_visited
        table.nodes_visited = 0
        for _ in range(64):
            table.lookup(63)
        hot_cost = table.nodes_visited
        assert round_robin_cost > hot_cost

    def test_missing_key_raises(self):
        table = LinkedListTable()
        table.insert(1, 10)
        with pytest.raises(LookupError):
            table.lookup(99)


class TestRkeyCache:
    def test_miss_then_hit(self):
        cache = RkeyCache()
        assert cache.get("svc", "rkey", 3) is None
        cache.put("svc", "rkey", 3, 0xF00)
        assert cache.get("svc", "rkey", 3) == 0xF00
        assert cache.misses == 1
        assert cache.hits == 1

    def test_invalidate_service_scoped(self):
        cache = RkeyCache()
        cache.put("a", "rkey", 1, 10)
        cache.put("a", "qpn", 2, 20)
        cache.put("b", "rkey", 1, 30)
        removed = cache.invalidate_service("a")
        assert removed == 2
        assert cache.get("a", "rkey", 1) is None
        assert cache.get("b", "rkey", 1) == 30

    def test_kinds_do_not_collide(self):
        cache = RkeyCache()
        cache.put("svc", "rkey", 1, 111)
        cache.put("svc", "qpn", 1, 222)
        assert cache.get("svc", "rkey", 1) == 111
        assert cache.get("svc", "qpn", 1) == 222
