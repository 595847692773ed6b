"""WorkloadContract: the app-conformance harness every workload rides.

Each application (perftest, Hadoop, kvstore, and whatever comes next)
packages one finished run into a :class:`WorkloadHarness` naming the
capabilities it supports; :func:`run_contract` then applies every check
the harness is capable of and returns the violations.  The pytest layer
(``tests/integration/test_workload_contract.py``) parametrizes one test
over all apps, replacing the per-app copies of "stats are clean /
everything posted completed / the receiver saw every send".

Checks, by capability:

- ``completion`` — the workload finished the work it was asked to do:
  each ``(label, done, expected)`` probe must agree exactly (perftest
  iterations, DFSIO payload bytes, …),
- ``accounting`` — WR-level conservation on every endpoint connection:
  nothing posted is still outstanding, completions match posts, and the
  completion sequence ended exactly at the post count,
- ``delivery`` — pairwise message conservation: each receiver consumed
  exactly as many messages as its sender completed,
- ``history`` — real-time linearizability of the KV history against the
  server's apply log (:func:`repro.apps.kvhistory.check_kv_history`),
- ``cas`` — lock-site mutual exclusion (subsumed by ``history`` for the
  CAS records, plus grant/release accounting),
- ``freshness`` — one-sided READs issued *after* a migration observe at
  least the version applied before it (the moved table is live),
- ``qos`` — each shaped tenant's reserved egress bytes stay within its
  token bucket's admission bound over the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["WorkloadHarness", "run_contract", "CONTRACT_CHECKS",
           "perftest_harness", "hadoop_harness"]

#: capability names, in check order
CONTRACT_CHECKS = ("completion", "accounting", "delivery", "history",
                   "cas", "freshness", "qos")


@dataclass
class WorkloadHarness:
    """One finished workload run, packaged for conformance checking."""

    name: str
    capabilities: frozenset
    #: objects with ``stats`` (clean/order/content/status) and
    #: ``connections`` (outstanding/next_seq/completed/expect_send_seq)
    endpoints: tuple = ()
    #: (sender, receiver) pairs for delivery conservation
    pairs: tuple = ()
    #: KV pieces (``history``/``cas``/``freshness`` capabilities)
    kv_clients: tuple = ()
    kv_server: object = None
    #: ``freshness``: [(key, version_read, version_floor)] gathered by a
    #: post-migration readback sweep — version_floor is the server-side
    #: version applied before the migration finished
    freshness_probes: tuple = ()
    #: ``qos``: [(nic, tenant, elapsed_s, slack_bytes)]
    qos_probes: tuple = ()
    #: ``completion``: [(label, done_units, expected_units)]
    completion_probes: tuple = ()

    def __post_init__(self):
        unknown = set(self.capabilities) - set(CONTRACT_CHECKS)
        if unknown:
            raise ValueError(f"unknown capabilities: {sorted(unknown)}")


def _check_completion(h: WorkloadHarness) -> List[str]:
    out = []
    if not h.completion_probes:
        out.append("completion capability claimed but no probes provided")
    for label, done, expected in h.completion_probes:
        if done != expected:
            out.append(f"{label}: finished {done} of {expected} units")
    return out


def _check_accounting(h: WorkloadHarness) -> List[str]:
    out = []
    for ep in h.endpoints:
        stats = getattr(ep, "stats", None)
        if stats is not None and not stats.clean:
            for err in (stats.order_errors[:3] + stats.content_errors[:3]
                        + stats.status_errors[:3]):
                out.append(f"{ep.name}: {err}")
        if not getattr(ep, "_sender_active", True):
            # Pure receiver: its ring legitimately ends primed with
            # unmatched RECVs; conservation is the ``delivery`` check's
            # job (same convention as the cqe-conservation invariant).
            continue
        for conn in getattr(ep, "connections", ()):
            if conn.outstanding != 0:
                out.append(f"{ep.name} qp#{conn.index}: {conn.outstanding} "
                           f"WRs still outstanding")
            if conn.completed != conn.next_seq:
                out.append(f"{ep.name} qp#{conn.index}: posted {conn.next_seq} "
                           f"but completed {conn.completed}")
            if conn.expect_send_seq != conn.next_seq:
                out.append(f"{ep.name} qp#{conn.index}: completion sequence "
                           f"ended at {conn.expect_send_seq}, expected "
                           f"{conn.next_seq}")
    return out


def _check_delivery(h: WorkloadHarness) -> List[str]:
    out = []
    for sender, receiver in h.pairs:
        if receiver.stats.recv_completed != sender.stats.completed:
            out.append(f"{receiver.name} consumed "
                       f"{receiver.stats.recv_completed} messages but "
                       f"{sender.name} completed {sender.stats.completed}")
    return out


def _check_history(h: WorkloadHarness) -> List[str]:
    from repro.apps.kvhistory import check_kv_history

    if h.kv_server is None:
        return ["history capability claimed but no kv_server provided"]
    return check_kv_history(h.kv_clients, h.kv_server)


def _check_cas(h: WorkloadHarness) -> List[str]:
    out = []
    total = 0
    for client in h.kv_clients:
        for cas in client.kv_cas:
            total += 1
            if cas.release_failed:
                out.append(f"client {cas.client}: release CAS on "
                           f"{cas.key!r} found a foreign holder")
    if total == 0:
        out.append("cas capability claimed but no CAS operation was recorded")
    return out


def _check_freshness(h: WorkloadHarness) -> List[str]:
    out = []
    if not h.freshness_probes:
        out.append("freshness capability claimed but no readback probes ran")
    for key, version_read, version_floor in h.freshness_probes:
        if version_read < version_floor:
            out.append(f"stale read after migration: {key!r} returned "
                       f"v{version_read}, floor v{version_floor}")
    return out


def _check_qos(h: WorkloadHarness) -> List[str]:
    out = []
    if not h.qos_probes:
        out.append("qos capability claimed but no tenant probes provided")
    for nic, tenant, elapsed_s, slack_bytes in h.qos_probes:
        qos = getattr(nic, "qos", None)
        if qos is None:
            out.append(f"{nic.name}: qos capability claimed but no QoS installed")
            continue
        state = qos.state(tenant)
        if state is None:
            out.append(f"{nic.name}: tenant {tenant!r} unknown to QoS")
            continue
        allowed = qos.allowed_bytes(tenant, elapsed_s, slack_bytes)
        if allowed is not None and state.tx_bytes > allowed:
            out.append(f"{nic.name}: tenant {tenant!r} reserved "
                       f"{state.tx_bytes} bytes, token bucket admits at most "
                       f"{allowed:.0f} over {elapsed_s:.6f}s")
    return out


_CHECKERS = {
    "completion": _check_completion,
    "accounting": _check_accounting,
    "delivery": _check_delivery,
    "history": _check_history,
    "cas": _check_cas,
    "freshness": _check_freshness,
    "qos": _check_qos,
}


def run_contract(harness: WorkloadHarness) -> List[Tuple[str, str]]:
    """Run every check the harness is capable of; -> [(check, violation)].
    Empty list == the workload conforms."""
    violations: List[Tuple[str, str]] = []
    for check in CONTRACT_CHECKS:
        if check not in harness.capabilities:
            continue
        for message in _CHECKERS[check](harness):
            violations.append((check, message))
    return violations


def perftest_harness(sender, receiver, iters: Optional[int] = None,
                     name: str = "perftest") -> WorkloadHarness:
    """Package one finished perftest run.

    Claims ``accounting`` always, ``completion`` when the intended
    iteration count is known, and ``delivery`` for two-sided (SEND)
    runs, where every sender completion must land in a receiver RECV.
    """
    capabilities = {"accounting"}
    pairs: tuple = ()
    probes: tuple = ()
    if sender.mode == "send":
        capabilities.add("delivery")
        pairs = ((sender, receiver),)
    if iters is not None:
        capabilities.add("completion")
        probes = ((f"{sender.name}: {sender.mode} iterations",
                   sender.stats.completed, iters),)
    return WorkloadHarness(name=name, capabilities=frozenset(capabilities),
                           endpoints=(sender, receiver), pairs=pairs,
                           completion_probes=probes)


def hadoop_harness(outcome, expected_bytes: Optional[int] = None,
                   name: Optional[str] = None) -> WorkloadHarness:
    """Package one Hadoop :class:`ScenarioOutcome`.

    Hadoop tasks report progress through heartbeats rather than a
    per-WR stats surface, so the contract can only hold them to
    ``completion``: the task finished, and (when the workload's payload
    is known, e.g. DFSIO) every payload byte was written.
    """
    probes = [(f"{outcome.task_type}/{outcome.scenario}: finished",
               int(outcome.result.finished), 1)]
    if expected_bytes is not None:
        probes.append((f"{outcome.task_type}/{outcome.scenario}: payload bytes",
                       outcome.result.total_bytes, expected_bytes))
    return WorkloadHarness(
        name=name or f"hadoop-{outcome.task_type}-{outcome.scenario}",
        capabilities=frozenset({"completion"}),
        completion_probes=tuple(probes))
