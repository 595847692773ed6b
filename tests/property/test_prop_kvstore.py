"""Property-based tests: KV hash-table layout against a dict model.

Two claims matter for correctness of the live system:

1. The table is a faithful map under arbitrary insert/overwrite
   interleavings (probe wrap-around, version overwrites), at any size.
2. A *client* executing the pure ``read_plan`` offsets against the raw
   table bytes reaches exactly the slot the *server*'s ``find`` picks —
   this equivalence is what makes one-sided RDMA_READ GETs sound, so it
   is pinned here for arbitrary key sets, not just the happy path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.kvstore import (
    FP_EMPTY,
    KvFullError,
    KvTable,
    KvTableLayout,
    make_value,
)

keys = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
small_layouts = st.tuples(st.integers(min_value=2, max_value=32),
                          st.sampled_from([8, 16, 60]))


@settings(max_examples=80, deadline=None)
@given(small_layouts, st.data())
def test_table_matches_dict_model(shape, data):
    """insert/overwrite/get interleavings against a plain dict."""
    n_buckets, value_cap = shape
    table = KvTable(KvTableLayout(n_buckets, value_cap))
    model = {}
    version = 0
    ops = data.draw(st.lists(st.tuples(
        st.sampled_from(["put", "get"]), keys), max_size=60))
    for op, key in ops:
        if op == "put":
            version += 1
            value = make_value(key, version, value_cap)
            try:
                table.put(key, value, version)
            except KvFullError:
                assert len(model) == n_buckets  # only ever raises when full
                continue
            model[key] = (value, version)
        else:
            assert table.get(key) == model.get(key)
    for key, expected in model.items():
        assert table.get(key) == expected


@settings(max_examples=60, deadline=None)
@given(small_layouts, st.lists(keys, unique=True, max_size=20),
       st.integers(min_value=2, max_value=64))
def test_resize_round_trip(shape, key_list, new_buckets):
    """Rehash by re-putting: every key stored in one table reads back the
    same value and version from a table of any size that holds them."""
    n_buckets, value_cap = shape
    table = KvTable(KvTableLayout(n_buckets, value_cap))
    inserted = {}
    for i, key in enumerate(key_list):
        value = make_value(key, i + 1, min(value_cap, 8))
        try:
            table.put(key, value, i + 1)
        except KvFullError:
            continue
        inserted[key] = (value, i + 1)
    if new_buckets < len(inserted):
        return  # smaller than the live set: cannot hold it
    resized = KvTable(KvTableLayout(new_buckets, value_cap))
    for key in inserted:
        value, version = table.get(key)
        resized.put(key, value, version)
    for key, expected in inserted.items():
        assert resized.get(key) == expected


@settings(max_examples=80, deadline=None)
@given(small_layouts, st.lists(keys, unique=True, max_size=20), keys)
def test_read_plan_matches_server_find(shape, key_list, probe_key):
    """Remote-READ offset truth: a client walking ``read_plan`` offsets
    over the raw table bytes terminates at the same slot ``find`` does —
    including walks past colliding keys and wrapped probes."""
    n_buckets, value_cap = shape
    layout = KvTableLayout(n_buckets, value_cap)
    table = KvTable(layout)
    for i, key in enumerate(key_list):
        try:
            table.put(key, make_value(key, i + 1, min(value_cap, 8)), i + 1)
        except KvFullError:
            break

    # Client-side walk: raw bytes + pure offsets, no table internals.
    raw = table.mem.read(0, layout.table_bytes)
    fp_want = layout.fingerprint(probe_key)
    client_hit = None
    for _bucket, offset, length in layout.read_plan(probe_key):
        slot = raw[offset:offset + length]
        _lock, fp, _vlen, version, value = layout.parse_slot(slot)
        if fp == fp_want:
            client_hit = (value, version)
            break
        if fp == FP_EMPTY:
            break

    assert client_hit == table.get(probe_key)
    index, _free = table.find(probe_key)
    if index is not None:
        assert client_hit is not None


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=1 << 63),
       st.integers(min_value=0, max_value=(1 << 32) - 1),
       st.integers(min_value=0, max_value=60))
def test_pack_parse_round_trip(lock, version, vlen):
    layout = KvTableLayout(4, 60)
    raw = layout.pack_slot(lock, layout.fingerprint("k"), vlen, version)
    raw += b"\xab" * (layout.slot_bytes - len(raw))
    got_lock, got_fp, got_vlen, got_version, value = layout.parse_slot(raw)
    assert (got_lock, got_fp, got_vlen, got_version) == (
        lock, layout.fingerprint("k"), vlen, version)
    assert len(value) == vlen
