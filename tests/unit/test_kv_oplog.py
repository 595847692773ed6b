"""Unit: the KV client's columnar op and CAS logs.

The client records each completed operation into :class:`KvOpLog` and
each lock attempt into :class:`KvCasLog`; readers see records, as from a
list.  Pinned here: records round-trip exactly, ``get_latencies`` is the
list the client used to append, a recorded op stays small, and a live
client records through the logs alone.
"""

import gc
import tracemalloc

from repro.apps.kvhistory import KvCasLog, KvCasRecord, KvOpLog, KvOpRecord

KEYS = [f"key{i:04d}" for i in range(32)]

#: Measured 34-37 bytes per op (1 kind byte, an 8-byte key reference,
#: two doubles, a 64-bit version and 1 ok byte, plus the columns' growth
#: slack); a KvOpRecord object with its floats cost ~216.
PER_OP_BOUND_BYTES = 40


def test_op_records_round_trip():
    records = [
        KvOpRecord("put", "a", 0.1, 0.2, 1, True),
        KvOpRecord("get", "a", 0.15, 0.3, 1, True),
        KvOpRecord("get", "b", 0.2, 0.4, 0, True),  # a miss
        KvOpRecord("put", "b", 0.25, 0.5, 0, False),  # a failed PUT ack
        KvOpRecord("get", "key0007", 1.0, 1.5, 2 ** 40, True),
    ]
    log = KvOpLog()
    for rec in records:
        log.record(rec.op, rec.key, rec.t_invoke, rec.t_respond, rec.version,
                   rec.ok)
    assert len(log) == len(records)
    assert list(log) == records
    assert list(log) == records  # iterating does not consume the log
    assert all(type(rec.ok) is bool for rec in log)


def test_cas_records_round_trip():
    records = [
        KvCasRecord("a", 256, acquired=False, t_acquire=0.1),
        KvCasRecord("a", 256, acquired=True, released=True,
                    t_acquire=0.2, t_release=0.3),
        KvCasRecord("b", 512, acquired=True, release_failed=True,
                    t_acquire=0.4, t_release=0.5),
        KvCasRecord("b", 512, acquired=True, t_acquire=0.6),  # still held
    ]
    log = KvCasLog()
    for rec in records:
        log.record(rec.key, rec.client, rec.acquired, rec.released,
                   rec.release_failed, rec.t_acquire, rec.t_release)
    assert len(log) == len(records)
    assert list(log) == records


def test_get_latencies_equal_the_appended_list():
    """``t_respond - t_invoke`` of each GET, in order: the same float
    subtraction the client did when it kept a second list."""
    log = KvOpLog()
    appended = []
    for i in range(200):
        t_invoke = i * 1.37e-6
        now = t_invoke + (i % 7) * 0.91e-6 + 2.3e-6
        if i % 4 == 0:
            log.record("put", KEYS[i % 32], t_invoke, now, i)
        else:
            appended.append(now - t_invoke)
            log.record("get", KEYS[i % 32], t_invoke, now, i % 3)
    assert log.get_latencies() == appended


def _op_bytes(n: int) -> int:
    KvOpLog()  # the first log imports ``array``: keep that out of the count
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        log = KvOpLog()
        for i in range(n):
            log.record("get" if i % 3 else "put", KEYS[i % 32], i * 1e-6,
                       i * 1e-6 + 3e-6, i, True)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_per_op_footprint():
    per_op = (_op_bytes(20_000) - _op_bytes(10_000)) / 10_000
    assert per_op < PER_OP_BOUND_BYTES, f"{per_op:.1f} bytes per op"


def test_live_client_records_through_the_logs():
    """A KV run fills the columnar logs, and the GET latencies a reader
    gets are the logged GETs' response times."""
    from repro.beds import KvBed

    bed = KvBed(seed=3, n_clients=1, keyspace=8, value_len=32, depth=4)
    bed.run(bed.setup())
    bed.start_traffic()
    bed.sim.run(until=bed.sim.now + 2e-3)
    client = bed.clients[0]
    assert isinstance(client.kv_history, KvOpLog)
    assert isinstance(client.kv_cas, KvCasLog)
    gets = [rec for rec in client.kv_history if rec.op == "get"]
    assert len(gets) == client.stats.gets > 0
    assert 0 < len(client.kv_cas) <= client.stats.cas_attempts
    assert client.get_latencies == [rec.t_respond - rec.t_invoke for rec in gets]
