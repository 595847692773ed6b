"""Hadoop maintenance scenarios (Figure 6).

Runs TestDFSIO or EstimatePI under three operator strategies when the
slave's server must be taken down mid-job:

- ``baseline`` — nothing happens; the job runs to completion,
- ``migrrdma`` — the slave container is live-migrated with MigrRDMA,
- ``failover`` — the slave dies; Hadoop's heartbeat-timeout failover
  starts a backup container and replays the task log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import cluster
from repro.apps.hadoop import (
    DfsioTask,
    EstimatePiTask,
    FailoverManager,
    HadoopCluster,
    TaskResult,
)
from repro.config import Config, GiB, MiB, default_config
from repro.core import LiveMigration, MigrRdmaWorld

SCENARIOS = ("baseline", "migrrdma", "failover")


@dataclass
class ScenarioOutcome:
    """One (task, strategy) cell of Figure 6."""

    scenario: str
    task_type: str
    result: TaskResult
    migration_report: Optional[object] = None
    failover_detected_at: Optional[float] = None

    @property
    def jct_s(self) -> float:
        return self.result.jct_s

    def tput_gbps(self) -> float:
        return self.result.aggregate_tput_gbps()


def run_scenario(task_type: str, scenario: str, config: Optional[Config] = None,
                 event_after_s: float = 3.0, limit_s: float = 1200.0,
                 chaos_plan=None) -> ScenarioOutcome:
    """Build a fresh Hadoop cluster and run one (task, scenario) cell.

    ``chaos_plan`` (a :class:`repro.chaos.FaultPlan`) installs fault
    injection on the freshly-built testbed and is armed on the migration;
    with a plan present, background process failures are left for the
    chaos invariant checkers instead of raising here.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if task_type not in ("dfsio", "estimatepi"):
        raise ValueError(f"unknown task type {task_type!r}")

    tb = cluster.build(config=config, num_partners=2)
    world = MigrRdmaWorld(tb)
    if chaos_plan is not None:
        chaos_plan.install(tb)
    hadoop = HadoopCluster(tb, world)
    cfg = tb.config.hadoop
    outcome = ScenarioOutcome(scenario=scenario, task_type=task_type,
                              result=TaskResult())

    def flow():
        yield from hadoop.setup()
        if task_type == "dfsio":
            task = DfsioTask(hadoop, cfg.dfsio_nfiles, cfg.dfsio_file_size_bytes)
        else:
            task = EstimatePiTask(hadoop, cfg.estimatepi_samples)
        hadoop.submit(task)

        if scenario == "migrrdma":
            yield tb.sim.timeout(event_after_s)
            migration = LiveMigration(world, hadoop.slave.container, tb.destination)
            if chaos_plan is not None:
                chaos_plan.arm(migration)
            outcome.migration_report = yield from migration.run()
        elif scenario == "failover":
            monitor = FailoverManager(hadoop, tb.destination)
            tb.sim.spawn(monitor.monitor_and_recover(), name="hdp-failover-monitor")
            yield tb.sim.timeout(event_after_s)
            monitor.kill_slave()
            while not monitor.failed_over and not hadoop.task.result.finished:
                yield tb.sim.timeout(0.1)
            outcome.failover_detected_at = monitor.detected_at

        result = yield from hadoop.wait_task()
        outcome.result = hadoop.task.result
        return result

    tb.run(flow(), limit=limit_s)
    if tb.sim.failed_processes and chaos_plan is None:
        raise RuntimeError(f"background failures: {tb.sim.failed_processes[:3]}")
    return outcome


def scaled_config() -> Config:
    """Fig. 6's job scaled down ~4x (same shape, same mechanisms): what
    ``experiments fig6 --fast`` and the default-size benchmark run."""
    config = default_config()
    hadoop = config.hadoop
    hadoop.dfsio_file_size_bytes = 1 * GiB
    hadoop.estimatepi_samples = 100_000_000
    hadoop.slave_heap_bytes = 2 * GiB
    hadoop.slave_heap_dirty_bps = 128 * MiB
    hadoop.failover_detect_timeout_s = 6.0
    hadoop.task_log_replay_s = 3.0
    hadoop.backup_container_start_s = 1.5
    return config


def fast_test_config() -> Config:
    """A scaled-down Hadoop configuration for the test suite."""
    config = Config()
    hadoop = config.hadoop
    hadoop.dfsio_file_size_bytes = 128 * 1024 * 1024
    hadoop.dfsio_nfiles = 2
    hadoop.estimatepi_samples = 20_000_000
    hadoop.heartbeat_interval_s = 0.2
    hadoop.failover_detect_timeout_s = 1.0
    hadoop.task_log_replay_s = 0.5
    hadoop.backup_container_start_s = 0.3
    hadoop.progress_report_interval_s = 0.1
    hadoop.slave_heap_bytes = 192 * 1024 * 1024
    hadoop.slave_heap_dirty_bps = 32 * 1024 * 1024
    return config
