"""Unit tests for the partition-tolerant fleet control plane: the lease
table's fencing-epoch discipline, the crash-recoverable scheduler
journal, and the scheduler's refusal to place work on suspected, killed,
or lease-fenced hosts."""

import math

import pytest

from repro.chaos import FaultPlan
from repro.fleet import (
    AdmissionLimits,
    LeaseError,
    LeaseGuard,
    LeaseTable,
    MigrationScheduler,
    SchedulerJournal,
    build_fleet,
    drain_with_recovery,
)
from repro.fleet.journal import LAUNCHED, PLANNED, SETTLED
from repro.resilience import FailureDetector


class TestLeaseTable:
    def test_grant_starts_the_epoch_chain(self):
        table = LeaseTable()
        lease = table.grant("ct0", "hostA", now=0.0)
        assert lease.epoch == 1
        assert table.holder("ct0") == "hostA"
        assert table.valid("ct0", now=5.0)

    def test_grant_refused_while_another_holder_is_valid(self):
        table = LeaseTable()
        table.grant("ct0", "hostA", now=0.0)
        with pytest.raises(LeaseError):
            table.grant("ct0", "hostB", now=1.0)

    def test_transfer_bumps_epoch_and_fences_old_holder(self):
        table = LeaseTable()
        table.grant("ct0", "hostA", now=0.0)
        table.reserve("ct0", "hostB", now=1.0)
        fresh = table.transfer("ct0", "hostB", now=2.0)
        assert fresh.epoch == 2
        assert table.holder("ct0") == "hostB"
        assert table.fenced("ct0", "hostA", now=2.0)
        assert not table.fenced("ct0", "hostB", now=2.0)

    def test_transfer_refused_when_reserved_for_someone_else(self):
        table = LeaseTable()
        table.grant("ct0", "hostA", now=0.0)
        table.reserve("ct0", "hostB", now=1.0)
        with pytest.raises(LeaseError):
            table.transfer("ct0", "hostC", now=2.0)

    def test_lease_chain_has_increasing_epochs_and_no_overlap(self):
        table = LeaseTable()
        table.grant("ct0", "hostA", now=0.0)
        table.reserve("ct0", "hostB", now=1.0)
        table.transfer("ct0", "hostB", now=2.0)
        table.reserve("ct0", "hostC", now=3.0)
        table.transfer("ct0", "hostC", now=4.0)
        chain = table.leases("ct0")
        assert [l.epoch for l in chain] == [1, 2, 3]
        for prev, lease in zip(chain, chain[1:]):
            assert lease.granted_s >= min(prev.closed_s, prev.expires_s)

    def test_expired_unrenewed_holder_is_fenced(self):
        # A source cut off by a partition: its TTL lapses, it must stop.
        table = LeaseTable()
        table.grant("ct0", "hostA", now=0.0, ttl_s=5.0)
        assert not table.fenced("ct0", "hostA", now=4.0)
        assert table.fenced("ct0", "hostA", now=6.0)

    def test_renew_refused_for_non_holder(self):
        # Only the holder may act on its lease: another host can neither
        # release it nor be granted it while it is valid.
        table = LeaseTable()
        table.grant("ct0", "hostA", now=0.0)
        with pytest.raises(LeaseError):
            table.release("ct0", "hostB", now=1.0)
        with pytest.raises(LeaseError):
            table.grant("ct0", "hostB", now=1.0)
        assert table.holder("ct0") == "hostA"

    def test_reserve_replacement_releases_without_fencing(self):
        # A rerouted job drops its old reservation; the abandoned
        # destination never went live, so it stays eligible (the
        # supervisor may rotate back to it).
        table = LeaseTable()
        table.grant("ct0", "hostA", now=0.0)
        table.reserve("ct0", "hostB", now=1.0)
        table.reserve("ct0", "hostC", now=2.0)
        assert table.reservation("ct0") == "hostC"
        assert not table.fenced("ct0", "hostB", now=2.0)

    def test_reserve_unfences_its_target(self):
        table = LeaseTable()
        table.grant("ct0", "hostA", now=0.0)
        table.fence("ct0", "hostB")
        assert table.fenced("ct0", "hostB", now=1.0)
        table.reserve("ct0", "hostB", now=2.0)
        assert not table.fenced("ct0", "hostB", now=2.0)

    def test_explicit_fence_and_unfence(self):
        # A fence bars one host for one container; a reservation is what
        # re-admits it (test_reserve_unfences_its_target).
        table = LeaseTable()
        table.grant("ct0", "hostA", now=0.0)
        table.grant("ct1", "hostA", now=0.0)
        table.fence("ct0", "hostB")
        assert table.fenced("ct0", "hostB", now=0.0)
        assert not table.fenced("ct1", "hostB", now=0.0)
        assert not table.fenced("ct0", "hostA", now=0.0)


class TestLeaseGuard:
    def test_prepare_acquire_hands_over(self):
        table = LeaseTable()
        table.grant("ct0", "src", now=0.0)
        guard = LeaseGuard(table, "ct0", "src")
        guard.prepare("dst", now=1.0)
        lease = guard.acquire("dst", now=2.0)
        assert lease.epoch == 2
        assert table.holder("ct0") == "dst"
        assert table.fenced("ct0", "src", now=2.0)

    def test_abandon_releases_reservation_without_fencing(self):
        table = LeaseTable()
        table.grant("ct0", "src", now=0.0)
        guard = LeaseGuard(table, "ct0", "src")
        guard.prepare("dst", now=1.0)
        guard.abandon(now=2.0)
        assert table.reservation("ct0") is None
        assert not table.fenced("ct0", "dst", now=2.0)
        assert table.holder("ct0") == "src"  # the rollback contract


class TestSchedulerJournal:
    def job(self, name="ct0"):
        from repro.fleet import MigrationJob
        return MigrationJob(container=name, source="r0h0")

    def test_transitions_planned_launched_settled(self):
        journal = SchedulerJournal()
        job = self.job()
        entry = journal.record_planned(job, now=0.0)
        assert entry.status == PLANNED
        journal.record_launched("ct0", "r1h0", proc=object(), guard=None,
                                now=1.0)
        assert journal.entries["ct0"].status == LAUNCHED
        journal.record_settled("ct0", completed=True, now=2.0)
        assert journal.entries["ct0"].status == SETTLED
        assert [kind for kind, _, _ in journal.log] == [
            PLANNED, LAUNCHED, SETTLED]

    def test_replanning_is_idempotent(self):
        journal = SchedulerJournal()
        job = self.job()
        first = journal.record_planned(job, now=0.0)
        second = journal.record_planned(job, now=5.0)
        assert first is second
        assert len(journal) == 1

    def test_relaunch_after_settle_is_refused(self):
        # The no-double-migration rule, mechanically enforced.
        journal = SchedulerJournal()
        journal.record_planned(self.job(), now=0.0)
        journal.record_launched("ct0", "r1h0", proc=object(), guard=None,
                                now=1.0)
        journal.record_settled("ct0", completed=True, now=2.0)
        with pytest.raises(RuntimeError, match="double-migrate"):
            journal.record_launched("ct0", "r1h1", proc=object(), guard=None,
                                    now=3.0)

    def test_requeue_returns_to_planned(self):
        journal = SchedulerJournal()
        journal.record_planned(self.job(), now=0.0)
        journal.record_launched("ct0", "r1h0", proc=object(), guard=None,
                                now=1.0)
        journal.record_requeued("ct0", now=2.0)
        assert journal.entries["ct0"].status == PLANNED
        assert journal.entries["ct0"].proc is None
        journal.record_launched("ct0", "r1h1", proc=object(), guard=None,
                                now=3.0)  # relaunch after requeue is fine

    def test_recovery_queries_partition_the_entries(self):
        journal = SchedulerJournal()
        for i in range(3):
            journal.record_planned(self.job(f"ct{i}"), now=0.0)
        journal.record_launched("ct1", "r1h0", proc=object(), guard=None,
                                now=2.0)
        journal.record_launched("ct0", "r1h1", proc=object(), guard=None,
                                now=1.0)
        journal.record_settled("ct0", completed=True, now=3.0)
        assert [e.container for e in journal.unlaunched()] == ["ct2"]
        assert [e.container for e in journal.inflight()] == ["ct1"]
        assert [e.container for e in journal.settled()] == ["ct0"]


class TestDestAdmissibility:
    """The scheduler must never choose a suspected, killed, or
    lease-fenced host as a migration destination."""

    def build(self):
        fleet = build_fleet(racks=2, hosts_per_rack=2, containers=4, seed=7)
        scheduler = MigrationScheduler(fleet,
                                       limits=AdmissionLimits(fleet=2))
        return fleet, scheduler

    def job_for(self, scheduler, container="ct000"):
        jobs = scheduler.plan("drain", "rack0")
        return next(j for j in jobs if j.container == container)

    def test_suspected_host_is_never_chosen(self):
        # A host whose daemon the failure detector suspects (missed
        # heartbeats) is never a destination.
        fleet, scheduler = self.build()
        job = self.job_for(scheduler)
        dest, _ = scheduler._pick_dest({}, job)
        assert dest is not None
        detector = FailureDetector(fleet.world.control, job.source, [dest])
        detector.start()
        fleet.world.control.mark_daemon_down(dest)
        fleet.sim.run(until=fleet.sim.now + 3.5e-3)
        assert detector.suspects(dest)
        redest, _ = scheduler._pick_dest({}, job)
        assert redest != dest
        assert not scheduler._dest_admissible({}, dest, job.source,
                                              container=job.container)
        detector.stop()

    def test_killed_host_is_never_chosen(self):
        fleet, scheduler = self.build()
        job = self.job_for(scheduler)
        dest, _ = scheduler._pick_dest({}, job)
        fleet.world.control.mark_daemon_down(dest)
        redest, _ = scheduler._pick_dest({}, job)
        assert redest != dest
        fleet.world.control.mark_daemon_up(dest)
        redest, _ = scheduler._pick_dest({}, job)
        assert redest == dest  # restart re-admits it

    def test_lease_fenced_host_is_never_chosen_for_that_container(self):
        fleet, scheduler = self.build()
        job = self.job_for(scheduler)
        dest, _ = scheduler._pick_dest({}, job)
        fleet.state.leases.fence(job.container, dest)
        redest, _ = scheduler._pick_dest({}, job)
        assert redest != dest
        # The fence is per-container: another container may still land there.
        other = self.job_for(scheduler, "ct002")
        assert scheduler._dest_admissible({}, dest, other.source,
                                          container=other.container)

    def test_rerouted_job_releases_its_old_lease_reservation(self):
        fleet, scheduler = self.build()
        leases = fleet.state.leases
        guard = LeaseGuard(leases, "ct000", "r0h0")
        guard.prepare("r1h0", now=1e-3)
        assert leases.reservation("ct000") == "r1h0"
        guard.prepare("r1h1", now=2e-3)  # the supervisor rotates dests
        assert leases.reservation("ct000") == "r1h1"
        assert not leases.fenced("ct000", "r1h0", now=2e-3)
        lease = guard.acquire("r1h1", now=3e-3)
        assert lease.holder == "r1h1"
        assert leases.reservation("ct000") is None


class TestDrainJournalRecovery:
    def test_scheduler_crash_resumes_without_double_migrating(self):
        fleet = build_fleet(racks=2, hosts_per_rack=2, containers=6, seed=11)
        fleet.run(fleet.setup())
        plan = FaultPlan(seed=11, name="crash")
        plan.scheduler_crash(fleet.sim.now + 2e-3, down_s=10e-3)
        plan.install(fleet)
        fleet.start_traffic()
        scheduler = MigrationScheduler(fleet, limits=AdmissionLimits(fleet=1),
                                       chaos=plan)
        jobs = scheduler.plan("drain", "rack0")
        journal = SchedulerJournal()

        def flow():
            report = yield from drain_with_recovery(scheduler, jobs,
                                                    journal=journal)
            return report

        report = fleet.run(flow(), limit=600.0)
        assert scheduler.crashed  # the first incarnation really died
        assert journal.crashes == 1
        assert report.failed == 0
        assert report.completed == len(jobs)
        # One launch per container per attempt cycle, every job settled
        # exactly once: no double-migration, no orphan.
        settles = [c for kind, c, _ in journal.log if kind == "settled"]
        assert sorted(settles) == sorted(j.container for j in jobs)
        for job in jobs:
            assert fleet.state.host_of(job.container) != "r0h0"
            assert fleet.state.host_of(job.container) != "r0h1"

    def test_no_crash_faults_means_single_incarnation(self):
        fleet = build_fleet(racks=2, hosts_per_rack=2, containers=4, seed=5)
        fleet.run(fleet.setup())
        fleet.start_traffic()
        scheduler = MigrationScheduler(fleet, limits=AdmissionLimits(fleet=2))
        jobs = scheduler.plan("drain", "rack0")

        def flow():
            report = yield from drain_with_recovery(scheduler, jobs)
            return report

        report = fleet.run(flow(), limit=600.0)
        assert not scheduler.crashed
        assert scheduler.journal.crashes == 0
        assert report.failed == 0


class TestPrecopyLadderMath:
    def test_blackout_budget_defaults_to_observer_mode(self):
        from repro.config import default_config

        mig = default_config().migration
        assert math.isinf(mig.precopy_blackout_budget_s)
