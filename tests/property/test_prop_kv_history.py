"""Property-based tests: the bisecting KV history checker against the
scanning one it replaced.

``check_kv_history`` finds a GET's stale-read floor by bisecting the key's
apply log sorted by time.  The reference below is the checker as it stood
before, kept verbatim: it scans every applied version for every GET.  On
arbitrary histories, well-formed or not, both must return the same
violation strings in the same order, whether the history is a plain list
of records or a client's columnar :class:`KvOpLog` / :class:`KvCasLog`.
"""

from typing import Dict, List

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.kvhistory import (
    KvCasLog,
    KvCasRecord,
    KvOpLog,
    KvOpRecord,
    check_kv_history,
)


def reference_check_kv_history(clients, server) -> List[str]:
    violations: List[str] = []
    applies: Dict[str, Dict[int, float]] = {}
    for key, log in server.kv_applies.items():
        prev = 0
        applies[key] = {}
        for version, t_apply in log:
            if version != prev + 1:
                violations.append(
                    f"server apply log for {key!r}: version {version} follows {prev}")
            prev = version
            applies[key][version] = t_apply

    for client in clients:
        for rec in client.kv_history:
            if not rec.ok:
                continue
            key_applies = applies.get(rec.key, {})
            if rec.op == "put":
                t_apply = key_applies.get(rec.version)
                if t_apply is None:
                    violations.append(
                        f"{client.name}: put({rec.key!r}) acked version "
                        f"{rec.version} never applied by the server")
                elif not (rec.t_invoke <= t_apply <= rec.t_respond):
                    violations.append(
                        f"{client.name}: put({rec.key!r}) v{rec.version} applied at "
                        f"{t_apply:.9f} outside [{rec.t_invoke:.9f}, {rec.t_respond:.9f}]")
                continue
            # GET
            if rec.version != 0:
                t_apply = key_applies.get(rec.version)
                if t_apply is None:
                    violations.append(
                        f"{client.name}: get({rec.key!r}) observed version "
                        f"{rec.version} never applied by the server")
                    continue
                if t_apply > rec.t_respond:
                    violations.append(
                        f"{client.name}: get({rec.key!r}) returned v{rec.version} "
                        f"before it was applied ({t_apply:.9f} > {rec.t_respond:.9f})")
            floor = 0
            for version, t_apply in key_applies.items():
                if t_apply <= rec.t_invoke and version > floor:
                    floor = version
            if rec.version < floor:
                violations.append(
                    f"{client.name}: stale get({rec.key!r}): returned v{rec.version} "
                    f"but v{floor} was applied before the READ was posted "
                    f"(invoke {rec.t_invoke:.9f})")

    holders: Dict[str, List[KvCasRecord]] = {}
    for client in clients:
        for cas in client.kv_cas:
            if cas.release_failed:
                violations.append(
                    f"client {cas.client}: release CAS on {cas.key!r} found a "
                    f"foreign holder — mutual exclusion broken")
            if cas.acquired and not cas.released:
                holders.setdefault(cas.key, []).append(cas)
    for key, open_holds in holders.items():
        if len(open_holds) > 1:
            violations.append(
                f"lock {key!r}: {len(open_holds)} concurrent unreleased holders "
                f"(clients {sorted(c.client for c in open_holds)})")
    return violations


class Server:
    def __init__(self, kv_applies):
        self.kv_applies = kv_applies


class Client:
    def __init__(self, name, history, cas):
        self.name = name
        self.kv_history = history
        self.kv_cas = cas


keys = st.sampled_from(["a", "b", "k", "key0007"])
#: a few shared instants make ties and exact brackets common; NaN (never
#: <= anything) and the infinities are drawn as often as any of them
times = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0,
                     float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True))
#: versions 0-2 are drawn often so GETs hit applied versions and misses
versions = st.one_of(st.sampled_from([0, 1, 2]),
                     st.integers(min_value=-2, max_value=9))

op_records = st.builds(
    KvOpRecord, op=st.sampled_from(["put", "get"]), key=keys,
    t_invoke=times, t_respond=times, version=versions, ok=st.booleans())
cas_records = st.builds(
    KvCasRecord, key=keys, client=st.sampled_from([256, 512, 768]),
    acquired=st.booleans(), released=st.booleans(),
    release_failed=st.booleans(), t_acquire=times, t_release=times)
#: per-key apply logs: gaps, duplicate versions and out-of-order instants
apply_logs = st.dictionaries(
    keys, st.lists(st.tuples(versions, times), max_size=12), max_size=4)
clients = st.lists(st.tuples(st.lists(op_records, max_size=25),
                             st.lists(cas_records, max_size=6)),
                   min_size=1, max_size=3)


def columnar(history, cas):
    op_log, cas_log = KvOpLog(), KvCasLog()
    for rec in history:
        op_log.record(rec.op, rec.key, rec.t_invoke, rec.t_respond,
                      rec.version, rec.ok)
    for rec in cas:
        cas_log.record(rec.key, rec.client, rec.acquired, rec.released,
                       rec.release_failed, rec.t_acquire, rec.t_release)
    return op_log, cas_log


NAN = float("nan")


@settings(max_examples=300, deadline=None)
@given(apply_logs, clients)
# NaN instants: a GET invoked at NaN follows no apply, a NaN apply
# precedes no GET
@example({"a": [(1, 0.1), (2, 0.2)]},
         [([KvOpRecord("get", "a", NAN, 1.0, 0)], [])])
@example({"a": [(1, 0.1), (2, NAN)]},
         [([KvOpRecord("get", "a", 0.5, 1.0, 1)], [])])
def test_bisecting_checker_matches_the_scan(kv_applies, drawn):
    server = Server(kv_applies)
    as_lists = [Client(f"c{i}", history, cas)
                for i, (history, cas) in enumerate(drawn)]
    as_columns = [Client(f"c{i}", *columnar(history, cas))
                  for i, (history, cas) in enumerate(drawn)]
    expected = reference_check_kv_history(as_lists, server)
    assert check_kv_history(as_lists, server) == expected
    assert check_kv_history(as_columns, server) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(keys, st.floats(min_value=0.0, max_value=1.0)),
                max_size=30),
       st.floats(min_value=0.0, max_value=1.0))
def test_well_formed_stale_get_found_by_both(puts, t_get):
    """A linear apply log per key and a GET that returns version 0 after
    some apply: both checkers flag the same stale read."""
    kv_applies: Dict[str, list] = {}
    for key, t_apply in sorted(puts, key=lambda p: p[1]):
        log = kv_applies.setdefault(key, [])
        log.append((len(log) + 1, t_apply))
    history = [KvOpRecord("get", key, t_get, t_get + 1e-6, 0)
               for key in sorted(kv_applies)]
    server = Server(kv_applies)
    client = Client("c", history, [])
    expected = reference_check_kv_history([client], server)
    assert check_kv_history([client], server) == expected
    assert len(expected) == sum(
        1 for log in kv_applies.values() if log[0][1] <= t_get)
