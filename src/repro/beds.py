"""Workload beds: each reference scenario built once (DESIGN.md §10).

Every experiment of the paper is one scenario — a container with N RC QPs
to a partner migrates mid-traffic — varied only by data, and the KV
noisy-neighbour run is a second.  A bed is a :class:`~repro.cluster.Testbed`
that owns that scenario's endpoints and exposes the surface
:class:`repro.fleet.Fleet` has (``world``, ``endpoints``, ``pairs``,
``setup()``, ``start_traffic()``, ``quiesce()``) plus the driver steps the
runners, the torture harness, the CLI and the benchmarks all repeat:
``migrate()``, ``context()`` and the :func:`checked` tail.  Constructors
restart the PID and QPN streams (``ClusterBed``), so a bed's results depend
only on its arguments.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.apps.kvstore import KvClient, KvServer, connect_kv
from repro.apps.perftest import PerftestEndpoint, connect_endpoints
from repro.apps.pollloop import quiesce
from repro.chaos.invariants import DEFAULT_REGISTRY, InvariantContext, run_digest
from repro.cluster import Testbed
from repro.config import Config
from repro.core import LiveMigration, MigrRdmaWorld
from repro.rnic import TenantSpec, install_qos

__all__ = ["KvBed", "PerftestBed", "checked"]


def checked(ctx: InvariantContext) -> Dict[str, object]:
    """Run every registered invariant over a finished run and digest it:
    the tail every checked runner reports."""
    inv = DEFAULT_REGISTRY.run(ctx)
    return {
        "invariants_checked": list(inv.checked),
        "invariants_ok": inv.ok,
        "violations": [f"{name}: {message}" for name, message in inv.violations],
        "digest": run_digest(ctx, inv),
    }


class _WorkloadBed(Testbed):
    """The driver steps shared by the beds.  A subclass builds ``world``,
    ``endpoints``, ``pairs`` and ``mover`` (the endpoint whose container
    migrates) and defines ``setup()`` and ``start_traffic()``."""

    def __init__(self, num_partners: int, config: Optional[Config] = None):
        super().__init__(config=config, num_partners=num_partners)
        self.reports: list = []

    def migrate(self, presetup: bool = True, plan=None):
        """Generator: live-migrate the mover's container to the destination
        host (``plan`` arms its boundary faults on the migration)."""
        migration = LiveMigration(self.world, self.mover.container,
                                  self.destination, presetup=presetup)
        if plan is not None:
            plan.arm(migration)
        report = yield from migration.run()
        self.reports.append(report)
        return report

    def quiesce(self):
        """Generator: stop senders, drain in-flight completions."""
        return (yield from quiesce(self, self.endpoints))

    def drive(self, trigger_s: float, settle_s: float = 3e-3,
              presetup: bool = True, plan=None, migrate: bool = True) -> None:
        """The checked flow: start traffic, migrate the mover ``trigger_s``
        in, let the stream settle, quiesce."""
        self.start_traffic()

        def flow():
            yield self.sim.timeout(trigger_s)
            if migrate:
                yield from self.migrate(presetup, plan)
            yield self.sim.timeout(settle_s)
            yield from self.quiesce()

        self.run(flow(), limit=1200.0)

    def context(self, plan=None, **extra) -> InvariantContext:
        """Everything the invariant checkers may inspect about this run."""
        return InvariantContext(self, world=self.world,
                                endpoints=self.endpoints, pairs=self.pairs,
                                reports=self.reports, plan=plan, **extra)


class PerftestBed(_WorkloadBed):
    """A perftest sender ``tx`` streaming to ``rx`` over ``num_qps`` RC QPs;
    ``migrate`` names the side that lives on the source host and moves.
    With ``partners`` > 1 (Fig. 4(c)) the migrating sender streams to one
    receiver per partner host, ``num_qps`` QPs each; ``receiver`` is the
    first of ``receivers``.  ``sample_cycles`` records every endpoint's
    per-operation cycle samples (Table 4)."""

    def __init__(self, num_qps: int, msg_size: int = 65536, depth: int = 8,
                 mode: str = "write", migrate: str = "sender",
                 verify_content: bool = False, config: Optional[Config] = None,
                 virtualized: bool = True, sample_cycles: bool = False,
                 partners: int = 1):
        moves_tx = migrate == "sender"
        if partners > 1 and not moves_tx:
            raise ValueError("a one-to-many bed migrates its sender")
        super().__init__(num_partners=partners, config=config)
        self.num_qps = num_qps
        self.world = MigrRdmaWorld(self) if virtualized else None
        kwargs = dict(world=self.world, mode=mode, msg_size=msg_size,
                      depth=depth, verify_content=verify_content,
                      sample_cycles=sample_cycles)
        self.sender = PerftestEndpoint(
            self.source if moves_tx else self.partners[0], name="tx", **kwargs)
        self.receivers = [
            PerftestEndpoint(self.partners[i] if moves_tx else self.source,
                             name=f"rx{i or ''}", **kwargs)
            for i in range(partners)]
        self.receiver = self.receivers[0]
        self.mover = self.sender if moves_tx else self.receiver
        self.endpoints = [self.sender, *self.receivers]
        self.pairs = [(self.sender, receiver) for receiver in self.receivers]

    def setup(self):
        """Generator: verbs resources + the QP connections."""
        yield from self.sender.setup(
            qp_budget=self.num_qps * len(self.receivers))
        for receiver in self.receivers:
            yield from receiver.setup(qp_budget=self.num_qps)
            yield from connect_endpoints(self.sender, receiver,
                                         qp_count=self.num_qps)

    def start_traffic(self, iters: Optional[int] = None) -> None:
        """One-sided modes run only the sender loop; SEND needs the
        receivers reposting RECVs first."""
        if self.sender.mode == "send":
            for receiver in self.receivers:
                receiver.start_as_receiver()
        self.sender.start_as_sender(iters=iters)

    def run_migration(self, presetup: bool = True, warmup_s: float = 2e-3,
                      settle_s: float = 2e-3):
        """The unchecked flow of Figs. 3-5: start traffic, migrate the
        mover mid-stream, settle, stop (no drain); returns the report."""
        self.start_traffic()

        def flow():
            yield self.sim.timeout(warmup_s)
            yield from self.migrate(presetup)
            yield self.sim.timeout(settle_s)
            for endpoint in self.endpoints:
                endpoint.stop()
            yield self.sim.timeout(2e-3)

        self.run(flow(), limit=1200.0)
        self.check_clean()
        return self.reports[-1]

    def check_clean(self) -> None:
        """Raise unless every completion came back in order with a good
        status (§5.3) and no background process died."""
        stats = self.sender.stats
        if not stats.clean:
            raise AssertionError(
                f"correctness violated: {stats.order_errors[:2]} "
                f"{stats.status_errors[:2]} {stats.content_errors[:2]}")
        if self.sim.failed_processes:
            raise AssertionError(
                f"background failures: {self.sim.failed_processes[:2]}")


class KvBed(_WorkloadBed):
    """The noisy-neighbour bed: a KV server on partner0 serving
    ``n_clients`` clients on the source host, optionally beside a perftest
    WRITE stream (source -> partner1) sharing the clients' egress NIC; the
    first client migrates.

    ``tenants`` is installed as given: an installed tenant is on the digest
    surface even when idle, so the caller decides which exist.  With any
    installed, the clients run as ``"victim"`` and the stream as
    ``"noisy"``.  ``noise`` is the stream's ``(msg_size, depth)``.
    """

    def __init__(self, seed: int, n_clients: int, keyspace: int,
                 value_len: int, depth: int, n_buckets: int = 128,
                 tenants: Sequence[TenantSpec] = (),
                 noise: Optional[Tuple[int, int]] = None):
        super().__init__(num_partners=2)
        self.world = MigrRdmaWorld(self)
        if tenants:
            install_qos(self.servers, list(tenants))
        self.keys = [f"key{i:04d}" for i in range(keyspace)]
        self.value_len = value_len
        self.kv = KvServer(self.partners[0], name="kv", world=self.world,
                           n_buckets=n_buckets, value_cap=max(64, value_len),
                           depth=32)
        self.clients = [KvClient(self.source, self.kv, name=f"kv-c{i}",
                                 world=self.world, keyspace=self.keys,
                                 value_len=value_len, depth=depth, seed=seed,
                                 tenant="victim" if tenants else None)
                        for i in range(n_clients)]
        self.mover = self.clients[0]
        #: the neighbour's (sender, receiver), or () on a quiet bed
        self.noise: tuple = ()
        if noise is not None:
            nkwargs = dict(world=self.world, mode="write", msg_size=noise[0],
                           depth=noise[1], verify_content=True)
            self.noise = (
                PerftestEndpoint(self.source, name="noise-tx",
                                 tenant="noisy" if tenants else None, **nkwargs),
                PerftestEndpoint(self.partners[1], name="noise-rx", **nkwargs))
        self.endpoints = [*self.clients, self.kv, *self.noise]
        self.pairs = [self.noise] if self.noise else []

    def setup(self):
        """Generator: table + preload, one QP per client, the noise pair."""
        yield from self.kv.setup(client_budget=len(self.clients))
        self.kv.preload(self.keys, self.value_len)
        for client in self.clients:
            yield from client.setup()
            yield from connect_kv(self.kv, client)
        if self.noise:
            ntx, nrx = self.noise
            yield from ntx.setup(qp_budget=1)
            yield from nrx.setup(qp_budget=1)
            yield from connect_endpoints(ntx, nrx, qp_count=1)

    def start_traffic(self) -> None:
        self.kv.start()
        for client in self.clients:
            client.start()
        if self.noise:
            self.noise[0].start_as_sender()
