"""Error completions on a KV connection: the ``qp_error`` fault on the
client's host, no migration, checked at both ends.

The fault forces the client's one RC QP to ERR 1 ms into traffic and
flushes its send queue.  The client retires every flushed WR, fails the
ops that can no longer complete and posts nothing more into the QP.  The
server's reply SEND in flight to the dead QP exhausts its retries, so the
server's QP goes to ERR too and that reply completes with
``RETRY_EXC_ERR``.  Both ends must account every WR they posted.
"""

from repro.beds import KvBed
from repro.chaos.invariants import DEFAULT_REGISTRY
from repro.chaos.plan import FaultPlan
from repro.rnic import QPState


def _error_ids(stats):
    return [int(message.split()[2]) for message in stats.status_errors]


def test_qp_error_on_client_host_is_accounted_at_both_ends(monkeypatch):
    bed = KvBed(3, n_clients=1, keyspace=16, value_len=32, depth=4)
    bed.run(bed.setup())
    [client] = bed.clients
    kv = bed.kv
    posts_while_errored = []
    for verb in ("post_send", "post_recv"):
        post = getattr(client.lib, verb)

        def spy(qp, wr, post=post, verb=verb):
            if client.conn.errored:
                posts_while_errored.append((verb, wr.wr_id))
            return post(qp, wr)

        monkeypatch.setattr(client.lib, verb, spy)
    plan = FaultPlan(seed=1).qp_error("src", bed.sim.now + 1e-3)
    plan.install(bed)
    bed.drive(2e-3, plan=plan, migrate=False)
    assert plan.stats.qp_errors_fired == 1
    assert not bed.sim.failed_processes

    # Client: QP in ERR, every WR retired, every op ended, nothing posted
    # after the first error CQE.
    conn = client.conn
    assert conn.qp._phys.state is QPState.ERR
    assert conn.errored and conn.errors >= 1
    assert conn.outstanding == 0
    assert conn.next_seq == conn.completed + conn.errors
    assert conn.expect_send_seq == conn.next_seq - conn.errors
    flushed = _error_ids(client.stats)
    assert all(message.endswith("WR_FLUSH_ERR") for message in client.stats.status_errors)
    assert flushed == list(range(conn.completed, conn.next_seq))
    stats = client.stats
    assert stats.ops_failed >= 1
    assert stats.ops_issued == stats.ops_completed + stats.ops_failed
    assert not client._ops
    assert posts_while_errored == []

    # Server: its reply to the dead QP ran out of retries; its QP is in
    # ERR and its CQE stream is the ok prefix, then that one error.
    [server_conn] = kv.connections
    assert server_conn.qp._phys.state is QPState.ERR
    assert server_conn.errored
    assert server_conn.outstanding == 0
    assert server_conn.next_seq == server_conn.completed + server_conn.errors
    assert server_conn.expect_send_seq == server_conn.completed
    assert [message.split(": ")[1] for message in kv.stats.status_errors] == \
        ["RETRY_EXC_ERR"] + ["WR_FLUSH_ERR"] * (server_conn.errors - 1)
    assert _error_ids(kv.stats) == list(range(server_conn.completed,
                                              server_conn.next_seq))

    # cqe-conservation holds; the error CQEs are named unless expected.
    report = DEFAULT_REGISTRY.run(bed.context(plan=plan))
    assert report.ok, report.violations
    unexpected = DEFAULT_REGISTRY.run(bed.context())
    assert {name for name, _ in unexpected.violations} == {"completion-status"}
