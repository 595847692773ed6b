"""kvhistory: the KV store's linearizability oracle.

A :class:`~repro.apps.kvstore.KvClient` records every completed operation
(invoke/response sim-times plus the assigned or observed per-key version)
in a :class:`KvOpLog` and every lock attempt in a :class:`KvCasLog`:
append-only columns that read back as :class:`KvOpRecord` /
:class:`KvCasRecord` objects, so the history costs ~35 bytes an op rather
than an object.  :func:`check_kv_history` replays the histories against
the server's apply log (``kv_applies``, ``key -> [(version, t_apply)]``)
and reports real-time linearizability violations; a GET's freshness floor
is one bisection of the key's time-sorted log.  The ``kv-linearizable``
invariant and the workload contract's ``history`` check both run it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterator, List, Tuple


@dataclass
class KvOpRecord:
    """One completed client operation, with real-time bounds."""

    op: str  # "put" | "get"
    key: str
    t_invoke: float
    t_respond: float
    version: int  # assigned (put) or observed (get); 0 = miss
    ok: bool = True


@dataclass
class KvCasRecord:
    """One lock acquire attempt (and its paired release)."""

    key: str
    client: int
    acquired: bool
    released: bool = False
    release_failed: bool = False
    t_acquire: float = 0.0
    t_release: float = 0.0


_OP_KINDS = ("put", "get")
_OP_CODES = {kind: code for code, kind in enumerate(_OP_KINDS)}
_GET = _OP_CODES["get"]


class KvOpLog:
    """A client's completed operations, append-only, one column per field.

    ``len()`` and iteration see :class:`KvOpRecord` objects in completion order,
    the same view a plain ``list`` of records gives, so the checker reads a
    live client and a hand-built history alike.  A record costs ~35 bytes
    here (the key is the client's own ``str``) against ~216 as an object."""

    __slots__ = ("_kind", "_key", "_t_invoke", "_t_respond", "_version", "_ok")

    def __init__(self):
        # Imported here, not at module level: mapping the ``array``
        # extension costs ~0.4 MiB of RSS, which runs without a KV client
        # should not pay.
        from array import array

        self._kind = bytearray()
        self._key: List[str] = []
        self._t_invoke = array("d")
        self._t_respond = array("d")
        self._version = array("q")
        self._ok = bytearray()

    def record(self, op: str, key: str, t_invoke: float, t_respond: float,
               version: int, ok: bool = True) -> None:
        self._kind.append(_OP_CODES[op])
        self._key.append(key)
        self._t_invoke.append(t_invoke)
        self._t_respond.append(t_respond)
        self._version.append(version)
        self._ok.append(ok)

    def __len__(self) -> int:
        return len(self._kind)

    def __iter__(self) -> Iterator[KvOpRecord]:
        for kind, key, t_invoke, t_respond, version, ok in zip(
                self._kind, self._key, self._t_invoke, self._t_respond,
                self._version, self._ok):
            yield KvOpRecord(_OP_KINDS[kind], key, t_invoke, t_respond,
                             version, bool(ok))

    def get_latencies(self) -> List[float]:
        """``t_respond - t_invoke`` of every GET, in completion order."""
        return [t_respond - t_invoke for kind, t_invoke, t_respond in zip(
                    self._kind, self._t_invoke, self._t_respond)
                if kind == _GET]


_ACQUIRED, _RELEASED, _RELEASE_FAILED = 1, 2, 4


class KvCasLog:
    """A client's lock attempts in columns; iterates as
    :class:`KvCasRecord` objects, like :class:`KvOpLog`."""

    __slots__ = ("_key", "_client", "_flags", "_t_acquire", "_t_release")

    def __init__(self):
        from array import array  # on first use, as in KvOpLog

        self._key: List[str] = []
        self._client = array("q")
        self._flags = bytearray()
        self._t_acquire = array("d")
        self._t_release = array("d")

    def record(self, key: str, client: int, acquired: bool,
               released: bool = False, release_failed: bool = False,
               t_acquire: float = 0.0, t_release: float = 0.0) -> None:
        self._key.append(key)
        self._client.append(client)
        self._flags.append((_ACQUIRED if acquired else 0)
                           | (_RELEASED if released else 0)
                           | (_RELEASE_FAILED if release_failed else 0))
        self._t_acquire.append(t_acquire)
        self._t_release.append(t_release)

    def __len__(self) -> int:
        return len(self._flags)

    def __iter__(self) -> Iterator[KvCasRecord]:
        for key, client, flags, t_acquire, t_release in zip(
                self._key, self._client, self._flags, self._t_acquire,
                self._t_release):
            yield KvCasRecord(key, client, bool(flags & _ACQUIRED),
                              bool(flags & _RELEASED),
                              bool(flags & _RELEASE_FAILED), t_acquire, t_release)


def check_kv_history(clients, server) -> List[str]:
    """Real-time linearizability of the KV history (atomic register with
    per-key versions).

    Server truth: ``server.kv_applies[key]`` is the apply log
    ``[(version, t_apply), ...]``.  For every client GET, the observed
    version must (a) exist in the log with ``t_apply <= t_respond``, and
    (b) be at least the newest version applied before ``t_invoke`` —
    one-sided READs execute after they are posted, so anything applied
    before the post must be visible.  PUT acks must bracket their apply
    instant.  Violations are returned as strings (empty = linearizable).
    """
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
    # Per key, the apply instants in time order beside the running maximum
    # of their versions: a GET's floor is the newest version applied by its
    # invoke instant, one bisection away.  NaN instants are never <= any
    # instant, so they never raise a floor.
    floors: Dict[str, Tuple[List[float], List[int]]] = {}
    for key, key_applies in applies.items():
        times: List[float] = []
        maxes: List[int] = []
        newest = 0
        for version, t_apply in sorted(
                (item for item in key_applies.items() if item[1] == item[1]),
                key=itemgetter(1)):
            times.append(t_apply)
            if version > newest:
                newest = version
            maxes.append(newest)
        floors[key] = (times, maxes)
    no_floor: Tuple[List[float], List[int]] = ([], [])

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
            times, maxes = floors.get(rec.key, no_floor)
            # a NaN invoke instant follows no apply
            applied = (bisect_right(times, rec.t_invoke)
                       if rec.t_invoke == rec.t_invoke else 0)
            floor = maxes[applied - 1] if applied else 0
            if rec.version < floor:
                violations.append(
                    f"{client.name}: stale get({rec.key!r}): returned v{rec.version} "
                    f"but v{floor} was applied before the READ was posted "
                    f"(invoke {rec.t_invoke:.9f})")

    # CAS mutual exclusion: a successful acquire whose release CAS found a
    # foreign value means two holders existed; >1 unreleased holder per
    # lock means a double grant.
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
