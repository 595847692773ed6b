"""WorkloadContract conformance: one parametrized suite over every app.

Each application — perftest, Hadoop, and the KV store — packages a
finished run into a :class:`WorkloadHarness` claiming the capabilities
its surface supports, and one parametrized test holds all of them to
:func:`run_contract`.  A second block proves the checks have teeth:
every checker must flag a deliberately-corrupted harness, and claiming
a capability without evidence is itself a violation.
"""

import pytest

from repro.apps import (
    WorkloadHarness,
    hadoop_harness,
    perftest_harness,
    run_contract,
)
from repro.apps.hadoop_scenarios import fast_test_config, run_scenario
from repro.beds import KvBed, PerftestBed, checked
from repro.fleet import build_fleet
from repro.rnic import NicQoS, TenantSpec

ITERS = 2048


def _round(bed, **traffic):
    """One conformance round over the surface every bed shares:
    setup -> start_traffic -> migrate -> quiesce."""
    bed.run(bed.setup())
    bed.start_traffic(**traffic)

    def flow():
        yield bed.sim.timeout(200e-6)
        yield from bed.migrate()
        yield bed.sim.timeout(1e-3)
        yield from bed.quiesce()

    bed.run(flow(), limit=60.0)
    return bed


@pytest.fixture(scope="module")
def perftest_bed():
    return _round(PerftestBed(1, msg_size=4096, depth=8, mode="send",
                              verify_content=True), iters=ITERS)


@pytest.fixture(scope="module")
def kvstore_bed():
    """A migrated KV run: the victim client moves hosts mid-traffic."""
    bed = _round(KvBed(seed=7, n_clients=1, keyspace=16, value_len=32, depth=2,
                       tenants=[TenantSpec("victim", max_qps=3)]))
    assert bed.mover.stats.gets + bed.mover.stats.puts > 0
    return bed


@pytest.fixture(scope="module")
def fleet_bed():
    """The fleet's round: its migrate step is a whole policy run (which
    settles and quiesces itself)."""
    fleet = build_fleet(racks=2, hosts_per_rack=2, containers=4, seed=7)
    fleet.run(fleet.setup())
    fleet.start_traffic()
    report, jobs = fleet.run_policy("drain", "rack0", concurrency=2)
    assert report.completed == len(jobs) == 2
    return fleet


@pytest.fixture(scope="module")
def perftest_contract(perftest_bed):
    return perftest_harness(perftest_bed.sender, perftest_bed.receiver,
                            iters=ITERS)


@pytest.fixture(scope="module")
def hadoop_contract():
    config = fast_test_config()
    outcome = run_scenario("dfsio", "migrrdma", config=config,
                           event_after_s=0.1)
    cfg = config.hadoop
    return hadoop_harness(
        outcome, expected_bytes=cfg.dfsio_nfiles * cfg.dfsio_file_size_bytes)


@pytest.fixture(scope="module")
def kvstore_contract(kvstore_bed):
    """The table is frozen after the quiesce, so a readback sweep from the
    migrated client must see the last applied version of every probed key:
    the table it READs is still the live one."""
    bed = kvstore_bed
    freshness = []

    def sweep():
        for key in bed.keys[:4]:
            floor = (bed.kv.kv_applies.get(key) or [(0, 0.0)])[-1][0]
            got = yield from bed.mover.readback(key)
            freshness.append((key, got[1] if got else -1, floor))

    bed.run(sweep(), limit=60.0)
    return WorkloadHarness(
        name="kvstore",
        capabilities=frozenset({"accounting", "history", "cas", "freshness"}),
        endpoints=tuple(bed.endpoints), kv_clients=tuple(bed.clients),
        kv_server=bed.kv, freshness_probes=tuple(freshness))


class TestConformance:
    @pytest.mark.parametrize("app", ["perftest", "hadoop", "kvstore"])
    def test_app_conforms(self, app, request):
        harness = request.getfixturevalue(f"{app}_contract")
        assert harness.capabilities, "harness must claim something"
        violations = run_contract(harness)
        assert not violations, violations

    @pytest.mark.parametrize("name", ["perftest", "kvstore", "fleet"])
    def test_bed_round_is_clean(self, name, request):
        """Every bed — ``Fleet`` included — hands the checkers the same
        context, and a migrated round passes every registered invariant."""
        bed = request.getfixturevalue(f"{name}_bed")
        ctx = bed.context()
        assert ctx.tb is bed and ctx.world is bed.world
        assert ctx.endpoints == list(bed.endpoints)
        assert ctx.pairs == list(bed.pairs)
        assert ctx.reports and not any(r.aborted for r in ctx.reports)
        tail = checked(ctx)
        assert tail["invariants_ok"], tail["violations"]
        assert len(tail["invariants_checked"]) >= 12
        assert len(tail["digest"]) == 64

    def test_perftest_claims_delivery(self, perftest_contract):
        assert {"completion", "accounting",
                "delivery"} <= perftest_contract.capabilities

    def test_kvstore_claims_history(self, kvstore_contract):
        assert {"history", "cas", "freshness"} <= kvstore_contract.capabilities


# ---------------------------------------------------------------- teeth


class _Stats:
    def __init__(self, clean=True, completed=0, recv_completed=0):
        self.clean = clean
        self.completed = completed
        self.recv_completed = recv_completed
        self.order_errors = [] if clean else ["order broke"]
        self.content_errors = []
        self.status_errors = []


class _Conn:
    def __init__(self, index=0, outstanding=0, posted=10, completed=None):
        self.index = index
        self.outstanding = outstanding
        self.next_seq = posted
        self.completed = posted if completed is None else completed
        self.expect_send_seq = self.completed


class _Endpoint:
    def __init__(self, name="ep", stats=None, connections=()):
        self.name = name
        self.stats = stats or _Stats()
        self.connections = list(connections)


def _checks(violations):
    return {check for check, _ in violations}


class TestChecksHaveTeeth:
    def test_unknown_capability_rejected(self):
        with pytest.raises(ValueError):
            WorkloadHarness(name="x", capabilities=frozenset({"vibes"}))

    @pytest.mark.parametrize("capability", ["completion", "cas",
                                            "freshness", "qos", "history"])
    def test_claim_without_evidence_is_violation(self, capability):
        harness = WorkloadHarness(name="hollow",
                                  capabilities=frozenset({capability}))
        assert _checks(run_contract(harness)) == {capability}

    def test_outstanding_wr_flagged(self):
        ep = _Endpoint(connections=[_Conn(outstanding=2)])
        harness = WorkloadHarness(name="x",
                                  capabilities=frozenset({"accounting"}),
                                  endpoints=(ep,))
        assert "accounting" in _checks(run_contract(harness))

    def test_completion_gap_flagged(self):
        ep = _Endpoint(stats=_Stats(completed=100, recv_completed=99))
        harness = WorkloadHarness(
            name="x", capabilities=frozenset({"completion"}),
            completion_probes=(("iters", ep.stats.completed, 128),))
        violations = run_contract(harness)
        assert _checks(violations) == {"completion"}
        assert "100 of 128" in violations[0][1]

    def test_delivery_mismatch_flagged(self):
        sender = _Endpoint("tx", stats=_Stats(completed=10))
        receiver = _Endpoint("rx", stats=_Stats(recv_completed=9))
        harness = WorkloadHarness(name="x",
                                  capabilities=frozenset({"delivery"}),
                                  pairs=((sender, receiver),))
        assert "delivery" in _checks(run_contract(harness))

    def test_stale_freshness_flagged(self):
        harness = WorkloadHarness(name="x",
                                  capabilities=frozenset({"freshness"}),
                                  freshness_probes=(("k", 3, 5),))
        violations = run_contract(harness)
        assert "freshness" in _checks(violations)
        assert "stale" in violations[0][1]

    def test_qos_overrun_flagged(self):
        class _Nic:
            name = "nic0"
            qos = NicQoS([TenantSpec("t", rate_bps=1e9)])

        nic = _Nic()
        nic.qos.state("t").tx_bytes = 10 ** 9  # way past burst + rate·t
        harness = WorkloadHarness(name="x",
                                  capabilities=frozenset({"qos"}),
                                  qos_probes=((nic, "t", 1e-3, 0),))
        assert "qos" in _checks(run_contract(harness))

    def test_history_stale_read_flagged(self):
        from repro.apps.kvstore import KvOpRecord

        class Server:
            kv_applies = {"k": [(1, 0.1), (2, 0.2)]}

        class Client:
            name = "c"
            kv_history = [KvOpRecord("get", "k", 0.5, 0.6, 1, True)]
            kv_cas = []

        harness = WorkloadHarness(name="x",
                                  capabilities=frozenset({"history"}),
                                  kv_clients=(Client(),), kv_server=Server())
        assert "history" in _checks(run_contract(harness))
