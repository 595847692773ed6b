"""Unit tests for the Hadoop workload model (pieces below scenario level)."""

import pytest

from repro import cluster
from repro.apps.hadoop import (
    BLOCK_BYTES,
    DfsioTask,
    EstimatePiTask,
    HadoopCluster,
    TaskResult,
)
from repro.apps.hadoop_scenarios import fast_test_config
from repro.core import MigrRdmaWorld


@pytest.fixture
def hadoop():
    tb = cluster.build(config=fast_test_config(), num_partners=2)
    world = MigrRdmaWorld(tb)
    hc = HadoopCluster(tb, world)
    tb.run(hc.setup())
    return tb, hc


class TestTaskResult:
    def test_aggregate_tput(self):
        result = TaskResult(jct_s=2.0, total_bytes=10_000_000_000 // 8)
        assert result.aggregate_tput_gbps() == pytest.approx(5.0)

    def test_aggregate_requires_run(self):
        with pytest.raises(ValueError):
            TaskResult().aggregate_tput_gbps()


class TestDfsio:
    def test_completes_and_moves_bytes(self, hadoop):
        tb, hc = hadoop
        cfg = tb.config.hadoop
        task = DfsioTask(hc, nfiles=1, file_bytes=16 * BLOCK_BYTES)
        hc.submit(task)
        result = tb.run(hc.wait_task(), limit=120.0)
        assert result.finished
        assert result.total_bytes == 16 * BLOCK_BYTES
        assert result.jct_s > 0

    def test_pacing_close_to_goodput(self, hadoop):
        tb, hc = hadoop
        cfg = tb.config.hadoop
        nbytes = 32 * BLOCK_BYTES
        task = DfsioTask(hc, nfiles=1, file_bytes=nbytes)
        hc.submit(task)
        result = tb.run(hc.wait_task(), limit=120.0)
        expected = nbytes * 8 / cfg.dfsio_app_goodput_bps
        assert result.jct_s == pytest.approx(expected, rel=0.25)

    def test_heartbeats_reach_master(self, hadoop):
        tb, hc = hadoop
        task = DfsioTask(hc, nfiles=1, file_bytes=32 * BLOCK_BYTES)
        hc.submit(task)
        tb.run(hc.wait_task(), limit=120.0)

        def settle():
            yield tb.sim.timeout(0.5)

        tb.run(settle())
        assert hc.heartbeats
        last = hc.last_heartbeat()
        assert last.completed_files == 1

    def test_resume_mid_file(self, hadoop):
        """Freezing and restarting the loop resumes, not restarts, the file."""
        tb, hc = hadoop
        task = DfsioTask(hc, nfiles=1, file_bytes=64 * BLOCK_BYTES)
        hc.submit(task)

        def flow():
            yield tb.sim.timeout(0.05)  # mid-file
            posted_before = task._seq
            hc.slave.container.freeze()
            yield tb.sim.timeout(0.01)
            # Restart the loop in place (what on_migrated does).
            hc.slave.container.paused_until = 0.0
            for process in hc.slave.container.processes:
                process.frozen = False
            task.start()
            result = yield from hc.wait_task()
            return posted_before, result

        posted_before, result = tb.run(flow(), limit=120.0)
        assert 0 < posted_before < 64
        assert result.finished
        # No block was posted twice.
        assert task._seq == 64


class TestEstimatePi:
    def test_jct_matches_compute_rate(self, hadoop):
        tb, hc = hadoop
        cfg = tb.config.hadoop
        task = EstimatePiTask(hc, samples=cfg.estimatepi_samples)
        hc.submit(task)
        result = tb.run(hc.wait_task(), limit=300.0)
        expected = cfg.estimatepi_samples / cfg.estimatepi_compute_rate
        assert result.finished
        assert result.jct_s == pytest.approx(expected, rel=0.15)
        assert result.total_bytes == 0

    def test_dump_pause_extends_jct(self, hadoop):
        tb, hc = hadoop
        cfg = tb.config.hadoop
        task = EstimatePiTask(hc, samples=cfg.estimatepi_samples)
        hc.submit(task)

        def flow():
            yield tb.sim.timeout(0.2)
            hc.slave.container.pause_for(tb.sim, 1.0)  # a CRIU dump seizure
            result = yield from hc.wait_task()
            return result

        result = tb.run(flow(), limit=300.0)
        baseline = cfg.estimatepi_samples / cfg.estimatepi_compute_rate
        assert result.jct_s > baseline + 0.9
