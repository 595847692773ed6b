"""Unit: per-tenant QoS — QP quotas and token-bucket rate shaping."""

import pytest

from repro import cluster
from repro.rnic import NicQoS, TenantSpec, install_qos
from repro.rnic.errors import ResourceError


def make_qos(**kwargs):
    return NicQoS([TenantSpec("t", **kwargs)])


class TestQpQuota:
    def test_quota_enforced(self):
        qos = make_qos(max_qps=2)
        qos.acquire_qp("t")
        qos.acquire_qp("t")
        with pytest.raises(ResourceError, match="QP quota"):
            qos.acquire_qp("t")

    def test_release_frees_a_slot(self):
        qos = make_qos(max_qps=1)
        qos.acquire_qp("t")
        qos.release_qp("t")
        qos.acquire_qp("t")  # no raise

    def test_unknown_and_none_tenants_unmetered(self):
        qos = make_qos(max_qps=1)
        for _ in range(5):
            qos.acquire_qp(None)
            qos.acquire_qp("other")
        assert qos.state("t").qps == 0

    def test_denial_counted(self):
        qos = make_qos(max_qps=0)
        with pytest.raises(ResourceError):
            qos.acquire_qp("t")
        assert qos.state("t").qp_denials == 1


class TestTokenBucket:
    def test_unshaped_tenant_never_waits(self):
        qos = make_qos(rate_bps=None)
        for now in (0.0, 1.0, 2.0):
            assert qos.reserve("t", 1 << 30, now) == 0.0

    def test_burst_spends_free_then_throttles(self):
        qos = make_qos(rate_bps=8e9, burst_bytes=4096)  # 1 GB/s
        assert qos.reserve("t", 4096, 0.0) == 0.0  # the whole burst
        wait = qos.reserve("t", 1000, 0.0)
        assert wait == pytest.approx(1000 / 1e9)

    def test_refill_at_rate(self):
        qos = make_qos(rate_bps=8e9, burst_bytes=4096)
        qos.reserve("t", 4096, 0.0)
        # 2 us at 1 GB/s refills 2000 bytes; spending 2000 is free again.
        assert qos.reserve("t", 2000, 2e-6) == 0.0

    def test_debt_model_allows_oversized_messages(self):
        """A message larger than the bucket still goes out — it just digs
        the bucket into debt, charging the wait to the sender."""
        qos = make_qos(rate_bps=8e9, burst_bytes=1024)
        wait = qos.reserve("t", 10240, 0.0)
        assert wait == pytest.approx((10240 - 1024) / 1e9)
        assert qos.state("t").tokens < 0

    def test_tokens_cap_at_burst(self):
        qos = make_qos(rate_bps=8e9, burst_bytes=4096)
        qos.reserve("t", 1, 0.0)
        qos.reserve("t", 1, 10.0)  # 10 s of refill >> burst
        assert qos.state("t").tokens <= 4096

    def test_allowed_bytes_bound(self):
        qos = make_qos(rate_bps=8e9, burst_bytes=4096)
        assert qos.allowed_bytes("t", 1e-3) == pytest.approx(
            4096 + 1e9 * 1e-3)
        assert qos.allowed_bytes("t", 1.0, slack_bytes=100) == pytest.approx(
            4096 + 1e9 + 100)

    def test_unshaped_allowed_bytes_is_none(self):
        assert make_qos().allowed_bytes("t", 1.0) is None


class TestAccounting:
    def test_snapshot_is_sorted_and_plain(self):
        qos = NicQoS([TenantSpec("b"), TenantSpec("a", rate_bps=1e9)])
        qos.reserve("a", 100, 0.0)
        qos.acquire_qp("b")
        snap = qos.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["a"]["tx_bytes"] == 100
        assert snap["a"]["reserved_msgs"] == 1
        assert snap["b"]["qps"] == 1

    def test_install_qos_covers_every_server(self):
        tb = cluster.build(num_partners=2)
        install_qos(tb.servers, [TenantSpec("t", max_qps=1)])
        for server in tb.servers:
            assert server.rnic.qos is not None
            assert server.rnic.qos.state("t") is not None
        # Independent per-NIC state: filling one quota leaves the rest.
        tb.source.rnic.qos.acquire_qp("t")
        tb.destination.rnic.qos.acquire_qp("t")  # no raise


class TestNicIntegration:
    def test_create_qp_checks_quota_and_destroy_releases(self):
        tb = cluster.build(num_partners=1)
        install_qos(tb.servers, [TenantSpec("t", max_qps=1)])
        from repro.verbs.api import DirectVerbs

        server = tb.source
        container = server.create_container("qos-ct")
        process = container.add_process("qos-proc")
        lib = DirectVerbs(process, server.rnic)
        made = {}

        def flow():
            from repro.rnic.qp import QPType
            pd = yield from lib.alloc_pd()
            cq = yield from lib.create_cq(16)
            qp = yield from lib.create_qp(pd, QPType.RC, cq, cq, 4, 4,
                                          tenant="t")
            made["qp"] = qp
            try:
                yield from lib.create_qp(pd, QPType.RC, cq, cq, 4, 4,
                                         tenant="t")
            except ResourceError:
                made["denied"] = True
            yield from lib.destroy_qp(qp)
            qp2 = yield from lib.create_qp(pd, QPType.RC, cq, cq, 4, 4,
                                           tenant="t")
            made["qp2"] = qp2

        tb.run(flow())
        assert made["denied"]
        assert made["qp2"].tenant == "t"
        assert server.rnic.qos.state("t").qps == 1
