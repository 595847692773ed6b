"""Integration: ``resolve_qpn`` answers from the creation log's vqpn index.

A partner resolves every remote virtual QPN it connects to.  The service
used to scan all QP records of the owning process per request, which made
connect-time setup quadratic in QPs; it now reads
:meth:`ResourceLog.qp_rid`.  Pinned here: a 64-QP connect makes no record
scan, and the index gives the scan's answer at every sampled instant of a
migration away and back.
"""

from repro.beds import PerftestBed
from repro.core import IndirectionLayer, LiveMigration
from repro.core.records import ResourceLog


def scan_resolve(layer, vqpn):
    """The service's answer by scanning the owner's QP records."""
    owner = layer.vqpn_index.get(vqpn)
    if owner is None:
        moved = layer.moved_vqpns.get(vqpn)
        if moved is not None:
            return {"found": False, "moved": moved}
        return {"found": False}
    pid, service_id = owner
    state = layer.processes[pid]
    for record in state.log.of_kind("qp"):
        if record.args["vqpn"] == vqpn:
            qp = state.resources[record.rid]
            return {"found": True, "pqpn": qp.qpn, "service_id": service_id}
    return {"found": False}


def test_connect_makes_no_per_resolve_record_scan(monkeypatch):
    resolves, scans = [], []
    resolve = IndirectionLayer._srv_resolve_qpn
    of_kind = ResourceLog.of_kind

    def counting_resolve(self, request):
        resolves.append(request["vqpn"])
        return resolve(self, request)

    def spying_of_kind(self, kind):
        if kind == "qp":
            scans.append(kind)
        return of_kind(self, kind)

    # patched before the bed exists: each layer registers the bound method
    monkeypatch.setattr(IndirectionLayer, "_srv_resolve_qpn", counting_resolve)
    monkeypatch.setattr(ResourceLog, "of_kind", spying_of_kind)
    bed = PerftestBed(64)
    bed.run(bed.setup())
    assert len(resolves) >= 64
    assert scans == []


def test_index_answers_as_the_scan_across_a_migration_away_and_back():
    bed = PerftestBed(4, verify_content=True)
    bed.run(bed.setup())
    layers = list(bed.world.layers.values())
    samples, mismatches = [], []
    sampling = [True]

    def vqpns():
        seen = {0xABCDEF}
        for layer in layers:
            seen |= set(layer.vqpn_index) | set(layer.moved_vqpns)
        for server in bed.servers:
            seen |= set(server.rnic.qps)
        return sorted(seen)

    def sampler():
        while sampling[0]:
            for layer in layers:
                for vqpn in vqpns():
                    got = layer._srv_resolve_qpn({"vqpn": vqpn})
                    if got != scan_resolve(layer, vqpn):
                        mismatches.append((bed.sim.now, layer.server.name, vqpn, got))
                    samples.append(got["found"])
            yield bed.sim.timeout(250e-6)

    bed.sim.spawn(sampler())
    bed.start_traffic()

    def flow():
        yield bed.sim.timeout(2e-3)
        yield from bed.migrate()
        yield bed.sim.timeout(2e-3)
        yield from LiveMigration(bed.world, bed.mover.container, bed.source).run()
        yield bed.sim.timeout(2e-3)
        sampling[0] = False
        yield from bed.quiesce()

    bed.run(flow(), limit=60.0)
    assert bed.mover.container.server is bed.source
    assert mismatches == []
    assert samples.count(True) > 100 and samples.count(False) > 100
