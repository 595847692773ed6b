"""Unit tests for the resilience primitives: retry policy, phase journal,
failure detector, and the error taxonomy."""

import random

import pytest

from repro import cluster
from repro.core import MigrRdmaWorld
from repro.core.orchestrator import COMMIT_POINT, PHASE_BOUNDARIES
from repro.resilience import (
    DEFAULT_RETRY_POLICY,
    PATIENT_RETRY_POLICY,
    FailureDetector,
    MigrationError,
    PeerCrashed,
    PhaseJournal,
    PresetupFailed,
    RetryPolicy,
    RpcTimeout,
    WbsStuck,
)


class TestRetryPolicy:
    def test_backoff_grows_exponentially_without_rng(self):
        policy = RetryPolicy(backoff_base_s=1e-4, backoff_factor=2.0,
                             backoff_max_s=1.0)
        assert policy.backoff_s(1, None) == pytest.approx(1e-4)
        assert policy.backoff_s(2, None) == pytest.approx(2e-4)
        assert policy.backoff_s(3, None) == pytest.approx(4e-4)

    def test_backoff_capped(self):
        policy = RetryPolicy(backoff_base_s=1e-3, backoff_max_s=2e-3)
        assert policy.backoff_s(10, None) == pytest.approx(2e-3)

    def test_jitter_is_seeded_and_downward(self):
        policy = RetryPolicy(backoff_base_s=1e-3, jitter=0.5)
        a = [policy.backoff_s(1, random.Random(42)) for _ in range(3)]
        b = [policy.backoff_s(1, random.Random(42)) for _ in range(3)]
        assert a == b  # same seed, same delays
        for delay in a:
            assert 0.5e-3 <= delay <= 1e-3  # full jitter shrinks, never grows

    def test_zero_jitter_draws_nothing(self):
        policy = RetryPolicy(jitter=0.0)
        rng = random.Random(7)
        state = rng.getstate()
        policy.backoff_s(1, rng)
        assert rng.getstate() == state

    def test_defaults_fail_fast_vs_patient(self):
        # Pre-commit must give up before post-commit would.
        fast = (DEFAULT_RETRY_POLICY.max_attempts
                * DEFAULT_RETRY_POLICY.attempt_timeout_s)
        patient = (PATIENT_RETRY_POLICY.max_attempts
                   * PATIENT_RETRY_POLICY.attempt_timeout_s)
        assert fast < patient


class TestPhaseJournal:
    def journal(self):
        return PhaseJournal(PHASE_BOUNDARIES, COMMIT_POINT)

    def test_unknown_commit_point_rejected(self):
        with pytest.raises(ValueError):
            PhaseJournal(PHASE_BOUNDARIES, "nonsense")

    def test_committed_flips_at_commit_point(self):
        journal = self.journal()
        for boundary in PHASE_BOUNDARIES:
            journal.record(boundary, 0.0)
            assert journal.committed == (
                PHASE_BOUNDARIES.index(boundary)
                >= PHASE_BOUNDARIES.index(COMMIT_POINT))

    def test_reached_is_a_high_water_mark(self):
        journal = self.journal()
        journal.record("wbs-entered", 1.0)
        assert journal.reached("precopy-dumped")  # earlier boundary implied
        assert journal.reached("wbs-entered")
        assert not journal.reached("frozen")

    def test_phases_reached_preserves_order(self):
        journal = self.journal()
        journal.record("precopy-dumped", 0.1)
        journal.record("partial-restored", 0.2)
        assert journal.phases_reached() == ["precopy-dumped", "partial-restored"]
        assert journal.last == "partial-restored"


class TestErrorTaxonomy:
    def test_all_are_migration_errors(self):
        for err in (RpcTimeout("x"), PeerCrashed("dst"), PresetupFailed("x"),
                    WbsStuck("x")):
            assert isinstance(err, MigrationError)

    def test_rpc_timeout_carries_context(self):
        err = RpcTimeout("gone", op="notify", dst="dst", attempts=5)
        assert err.op == "notify"
        assert err.dst == "dst"
        assert err.attempts == 5


class TestFailureDetector:
    def build(self):
        tb = cluster.build(num_partners=1)
        world = MigrRdmaWorld(tb)
        detector = FailureDetector(world.control, "src", ["dst", "partner0"],
                                   interval_s=1e-3, miss_threshold=3)
        return tb, world, detector

    def test_suspects_after_threshold_misses(self):
        tb, world, detector = self.build()
        detector.start()
        world.control.mark_daemon_down("dst")
        tb.sim.run(until=2.5e-3)
        assert not detector.suspects("dst")  # only 2 misses so far
        tb.sim.run(until=3.5e-3)
        assert detector.suspects("dst")
        with pytest.raises(PeerCrashed):
            detector.check()
        detector.stop()

    def test_recovery_clears_suspicion(self):
        tb, world, detector = self.build()
        detector.start()
        world.control.mark_daemon_down("dst")
        tb.sim.run(until=4e-3)
        assert detector.suspects("dst")
        world.control.mark_daemon_up("dst")
        tb.sim.run(until=5.5e-3)
        assert not detector.suspects("dst")
        detector.check()  # no raise
        assert detector.total_suspicions == 1  # monotonic history survives
        detector.stop()

    def test_healthy_peers_cost_no_heartbeat_misses(self):
        tb, world, detector = self.build()
        detector.start()
        tb.sim.run(until=10e-3)
        detector.stop()
        assert world.control.stats.heartbeats_missed == 0
        assert detector.total_suspicions == 0

    def test_stop_cancels_the_recurring_tick(self):
        tb, world, detector = self.build()
        detector.start()
        detector.stop()
        # With the tick cancelled the heap drains: run() must terminate.
        tb.sim.run()
        assert tb.sim.now < 1.0

    def test_check_scoped_to_one_peer(self):
        tb, world, detector = self.build()
        detector.start()
        world.control.mark_daemon_down("partner0")
        tb.sim.run(until=4e-3)
        detector.check("dst")  # the healthy peer passes
        with pytest.raises(PeerCrashed):
            detector.check("partner0")
        detector.stop()

    def test_peer_crashed_carries_real_miss_count(self):
        tb, world, detector = self.build()
        detector.start()
        world.control.mark_daemon_down("dst")
        tb.sim.run(until=4.5e-3)  # 4 ticks, all missed
        with pytest.raises(PeerCrashed) as excinfo:
            detector.check("dst")
        assert excinfo.value.misses == 4
        assert "missed 4 heartbeats" in str(excinfo.value)
        assert "missed 0" not in str(excinfo.value)
        detector.stop()

    def test_force_suspect_reports_reason_not_zero_misses(self):
        # The regression: a suspicion used to be able to raise "missed 0
        # heartbeats".  Every suspicion now comes from heartbeat ticks, so
        # even the earliest one reports the threshold's misses.
        tb, world, detector = self.build()
        detector.start()
        world.control.mark_daemon_down("dst")
        tb.sim.run(until=3.5e-3)  # exactly miss_threshold ticks
        assert detector.suspects("dst")
        with pytest.raises(PeerCrashed) as excinfo:
            detector.check("dst")
        assert excinfo.value.misses == detector.miss_threshold == 3
        assert excinfo.value.reason is None
        assert "missed 3 heartbeats" in str(excinfo.value)
        detector.stop()

    def test_zero_miss_suspicion_gets_fallback_reason(self):
        # The one PeerCrashed that no heartbeat tick raises — a status
        # poll past its deadline with no more specific failure — explains
        # itself instead of reporting a miss count.
        tb, world, detector = self.build()
        tb.sim.run(until=1e-3)

        def poll():
            yield from detector.poll_interval(deadline_s=0.5e-3)

        with pytest.raises(PeerCrashed) as excinfo:
            tb.sim.run_until_complete(tb.sim.spawn(poll()))
        assert excinfo.value.reason is not None
        assert "deadline" in str(excinfo.value)
        assert "missed" not in str(excinfo.value)

    def test_force_suspect_clears_on_healthy_probe_and_counts_flap(self):
        tb, world, detector = self.build()
        detector.start()
        world.control.mark_daemon_down("dst")
        tb.sim.run(until=3.5e-3)
        assert detector.suspects("dst")
        world.control.mark_daemon_up("dst")
        tb.sim.run(until=4.5e-3)  # one tick with the daemon healthy
        assert not detector.suspects("dst")
        assert detector.misses["dst"] == 0
        assert detector.flaps["dst"] == 1
        detector.check("dst")  # no raise
        detector.stop()

    def test_force_suspect_tracks_untracked_peer(self):
        # Only the peers named at construction are tracked: a down daemon
        # elsewhere is never suspected, and checking it never raises.
        tb, world, detector = self.build()
        detector.start()
        world.control.mark_daemon_down("partner7")
        tb.sim.run(until=4.5e-3)
        assert "partner7" not in detector.peers
        assert not detector.suspects("partner7")
        detector.check("partner7")  # no raise
        detector.check()
        detector.stop()

    def test_stop_folds_counters_into_control_once(self):
        tb, world, detector = self.build()
        detector.start()
        world.control.mark_daemon_down("dst")
        tb.sim.run(until=4.5e-3)
        detector.stop()
        detector.stop()  # idempotent: counters fold exactly once
        stats = world.control.detector_stats
        assert stats["dst"]["misses"] == 4
        assert stats["dst"]["suspicions"] == 1
        assert stats["dst"]["flaps"] == 0
        assert stats["partner0"] == {"misses": 0, "suspicions": 0, "flaps": 0}

    def test_detector_state_reaches_metrics_scrape(self):
        from repro.obs import MetricsRegistry

        tb, world, detector = self.build()
        detector.start()
        world.control.mark_daemon_down("dst")
        tb.sim.run(until=4.5e-3)
        world.control.mark_daemon_up("dst")
        tb.sim.run(until=5.5e-3)  # healthy probe: one flap
        detector.stop()
        registry = MetricsRegistry()
        registry.scrape_testbed(tb, world)
        snap = registry.snapshot()
        assert snap["resilience.detector.dst.misses"] == 4
        assert snap["resilience.detector.dst.suspicions"] == 1
        assert snap["resilience.detector.dst.flaps"] == 1
        # All-zero peers stay out of the digest surface entirely, so
        # fault-free runs scrape byte-identically to the pre-detector era.
        assert not any("partner0" in key for key in snap
                       if key.startswith("resilience.detector."))
