"""Unit: KV hash-table layout, pure table ops, and the history checker."""

import pytest

from repro.apps.kvstore import (
    FP_EMPTY,
    SLOT_HEADER_BYTES,
    KvCasRecord,
    KvFullError,
    KvOpRecord,
    KvTable,
    KvTableLayout,
    check_kv_history,
    make_value,
)


class TestLayout:
    def test_slot_geometry(self):
        layout = KvTableLayout(n_buckets=8, value_cap=60)
        assert layout.slot_bytes == SLOT_HEADER_BYTES + 64  # value rounded to 8
        assert layout.table_bytes == 8 * layout.slot_bytes
        assert layout.slot_offset(3) == 3 * layout.slot_bytes

    def test_lock_offset_is_home_bucket_and_aligned(self):
        layout = KvTableLayout(n_buckets=16, value_cap=32)
        for key in ("a", "b", "key0042"):
            assert layout.lock_offset(key) == layout.slot_offset(
                layout.home(key))
            assert layout.lock_offset(key) % 8 == 0

    def test_fingerprint_never_sentinel(self):
        layout = KvTableLayout(n_buckets=4, value_cap=16)
        for i in range(200):
            fp = layout.fingerprint(f"key{i}")
            assert FP_EMPTY < fp < (1 << 64) - 1

    def test_pack_parse_round_trip(self):
        layout = KvTableLayout(n_buckets=4, value_cap=16)
        raw = layout.pack_slot(lock=7, fp=1234, vlen=5, version=42)
        raw += b"\x00" * (layout.slot_bytes - len(raw))
        lock, fp, vlen, version, _value = layout.parse_slot(raw)
        assert (lock, fp, vlen, version) == (7, 1234, 5, 42)

    def test_read_plan_walks_probe_sequence(self):
        layout = KvTableLayout(n_buckets=8, value_cap=16)
        plan = layout.read_plan("k")
        assert len(plan) == 8
        assert [bucket for bucket, _off, _len in plan] == list(
            layout.probe_sequence("k"))
        for bucket, offset, length in plan:
            assert offset == layout.slot_offset(bucket)
            assert length == layout.slot_bytes

    def test_probe_is_one_entry_of_the_read_plan(self):
        """The client asks for one probe at a time (O(1), no 128-tuple plan
        per READ); every position must be the plan's entry, wrap included."""
        layout = KvTableLayout(n_buckets=8, value_cap=16)
        for key in ("k", "key0007", "another"):
            fp = layout.fingerprint(key)
            assert [layout.probe(fp, pos) for pos in range(8)] == layout.read_plan(key)


class TestTable:
    def test_put_get_delete(self):
        # The protocol's one write is a PUT (insert or overwrite); a key
        # never put reads back as a miss.
        table = KvTable(KvTableLayout(8, 32))
        assert table.get("a") is None
        first = table.put("a", b"hello", 1)
        assert table.get("a") == (b"hello", 1)
        assert table.put("a", b"world", 2) == first  # overwrite in place
        assert table.get("a") == (b"world", 2)
        assert table.get("b") is None

    def test_tombstone_reuse_and_probe_past(self):
        """Colliding keys take successive buckets: probing walks past the
        occupied ones, and an overwrite reuses the key's own slot."""
        layout = KvTableLayout(4, 16)
        table = KvTable(layout)
        keys = [f"k{i}" for i in range(20)]
        home = layout.home(keys[0])
        colliding = [k for k in keys if layout.home(k) == home][:3]
        if len(colliding) < 2:
            pytest.skip("no collision in sample")
        slots = [table.put(key, b"v", i + 1) for i, key in enumerate(colliding)]
        assert slots == [(home + i) % 4 for i in range(len(colliding))]
        # Later colliders are reachable past the occupied home bucket.
        for i, key in enumerate(colliding):
            assert table.find(key) == (slots[i], None)
            assert table.get(key) == (b"v", i + 1)
        assert table.put(colliding[0], b"back", 9) == slots[0]
        assert table.get(colliding[0]) == (b"back", 9)

    def test_full_table_raises(self):
        table = KvTable(KvTableLayout(2, 16))
        table.put("a", b"x", 1)
        table.put("b", b"x", 1)
        with pytest.raises(KvFullError):
            table.put("c", b"x", 1)

    def test_value_too_long_raises(self):
        table = KvTable(KvTableLayout(4, 8))
        with pytest.raises(ValueError):
            table.put("a", b"x" * 9, 1)

    def test_resize_preserves_entries(self):
        # Rehashing is re-putting every key into a table of another size:
        # each value and version carries over, whatever bucket it lands in.
        small = KvTable(KvTableLayout(8, 16))
        bigger = KvTable(KvTableLayout(32, 16))
        for i in range(6):
            key = f"k{i}"
            small.put(key, f"v{i}".encode(), i + 1)
            bigger.put(key, f"v{i}".encode(), i + 1)
        for i in range(6):
            key = f"k{i}"
            assert small.get(key) == bigger.get(key) == (f"v{i}".encode(), i + 1)


class TestHistoryChecker:
    """check_kv_history against hand-built histories: the checker must
    accept the truthful run and flag each anomaly class."""

    class Server:
        def __init__(self, applies):
            self.kv_applies = applies

    class Client:
        def __init__(self, history=(), cas=()):
            self.name = "c"
            self.kv_history = list(history)
            self.kv_cas = list(cas)

    def test_clean_history_passes(self):
        server = self.Server({"k": [(1, 0.1), (2, 0.2)]})
        client = self.Client([
            KvOpRecord("put", "k", 0.05, 0.15, 1, True),
            KvOpRecord("get", "k", 0.25, 0.30, 2, True),
        ])
        assert check_kv_history([client], server) == []

    def test_version_gap_flagged(self):
        server = self.Server({"k": [(1, 0.1), (3, 0.2)]})
        assert any("version" in v
                   for v in check_kv_history([self.Client()], server))

    def test_stale_read_flagged(self):
        """A GET that started after v2 was applied must not return v1."""
        server = self.Server({"k": [(1, 0.1), (2, 0.2)]})
        client = self.Client([KvOpRecord("get", "k", 0.5, 0.6, 1, True)])
        assert any("stale" in v.lower() or "floor" in v.lower()
                   for v in check_kv_history([client], server))

    def test_future_read_flagged(self):
        """A GET cannot observe a version applied after it responded."""
        server = self.Server({"k": [(1, 0.1), (2, 0.9)]})
        client = self.Client([KvOpRecord("get", "k", 0.2, 0.3, 2, True)])
        assert check_kv_history([client], server) != []

    def test_phantom_version_flagged(self):
        server = self.Server({"k": [(1, 0.1)]})
        client = self.Client([KvOpRecord("get", "k", 0.2, 0.3, 7, True)])
        assert check_kv_history([client], server) != []

    def test_put_outside_window_flagged(self):
        server = self.Server({"k": [(1, 0.5)]})
        client = self.Client([KvOpRecord("put", "k", 0.6, 0.7, 1, True)])
        assert check_kv_history([client], server) != []

    def test_foreign_release_flagged(self):
        cas = KvCasRecord(key="k", client=256, acquired=True, released=True,
                          release_failed=True, t_acquire=0.1, t_release=0.2)
        server = self.Server({})
        assert any("cas" in v.lower() or "lock" in v.lower() or "k" in v
                   for v in check_kv_history([self.Client(cas=[cas])], server))


def test_make_value_deterministic_and_version_sensitive():
    a = make_value("k", 1, 32)
    assert a == make_value("k", 1, 32)
    assert len(a) == 32
    assert a != make_value("k", 2, 32)
    assert a != make_value("j", 1, 32)
