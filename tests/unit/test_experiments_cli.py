"""Unit tests for the command-line experiment runner."""

import pytest

from repro import experiments
from repro.experiments import main, sparkline
from repro.parallel.runners import migration_run


class TestSparkline:
    def test_renders_scaled_blocks(self):
        line = sparkline([0, 50, 100], width=3)
        assert len(line) == 3
        assert line[0] == " " and line[-1] == "█"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_downsamples_to_width(self):
        line = sparkline([1.0] * 1000, width=50)
        assert len(line) <= 51


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "fig4", "fig5", "table4", "fig6", "migros", "trace"):
            assert name in out

    def test_fig3_small(self, capsys):
        assert main(["fig3", "--qps", "4", "--migrate", "sender"]) == 0
        out = capsys.readouterr().out
        assert "sender/pre" in out
        assert "sender/nopre" in out
        assert "RestoreRDMA" in out

    def test_migros_small(self, capsys):
        assert main(["migros", "--qps", "4"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out
        assert "x" in out

    def test_profile_dumps_hot_functions(self, capsys):
        assert main(["--profile", "fig3", "--qps", "2"]) == 0
        captured = capsys.readouterr()
        assert "sender/pre" in captured.out  # command output intact
        assert "cumulative" in captured.err
        assert "tottime" in captured.err
        assert "cmd_fig3" in captured.err

    def test_trace_small(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "trace.json"
        assert main(["trace", "--qps", "2", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "lanes:" in out
        assert "perfetto" in out
        doc = json.loads(out_file.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert doc["otherData"]["metrics"]["sim.events_processed"] > 0

    def test_trace_summary_is_a_function_of_the_seed(self, capsys, tmp_path):
        """Only simulated spans are ranked and summed; the kernel's
        wall-clock batches are counted in their own section."""
        out_file = tmp_path / "trace.json"
        outputs = []
        for _ in range(2):
            assert main(["trace", "--qps", "2", "--out", str(out_file)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        lanes, _, rest = outputs[0].partition("longest 20 spans:")
        assert "sim-kernel" not in lanes
        ranked, _, host = rest.partition("host-timed lanes")
        assert "dispatch-batch" not in ranked
        assert "sim-kernel/dispatch" in host

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])


class TestOneProducer:
    """The CLI prints exactly the lines the benchmarks write to
    ``benchmarks/results/``: one producer and one formatter per table."""

    @pytest.mark.parametrize("argv, fig, fmt", [
        (["fig3", "--qps", "2"], lambda: experiments.fig3([2]),
         experiments.format_fig3),
        (["migros", "--qps", "2"], lambda: experiments.migros([2]),
         experiments.format_migros),
        (["table4"], experiments.table4, experiments.format_table4),
    ], ids=["fig3", "migros", "table4"])
    def test_cli_prints_the_producers_lines(self, capsys, argv, fig, fmt):
        assert main(argv) == 0
        assert capsys.readouterr().out == "\n".join(fmt(fig())) + "\n"


class TestSenderStagingVmas:
    STAGING = 16

    def _pair(self, migrate):
        return (migration_run(2, migrate, presetup=True),
                migration_run(2, migrate, presetup=True,
                              sender_staging_vmas=self.STAGING))

    def test_only_the_senders_memory_table_phases_grow(self):
        """Staging VMAs cost per-VMA CRIU work — mostly DumpOthers, a
        little FullRestore and image Transfer — never RDMA work, and the
        blackout grows by exactly what the phases grew."""
        plain, staged = self._pair("sender")
        grown = {phase: staged["phases"][phase] - seconds
                 for phase, seconds in plain["phases"].items()}
        assert grown["DumpRDMA"] == 0.0
        assert grown["DumpOthers"] > 0
        assert grown["DumpOthers"] == max(grown.values())
        assert staged["blackout_s"] - plain["blackout_s"] == pytest.approx(
            sum(grown.values()), abs=1e-12)

    def test_receiver_rows_unchanged(self):
        plain, staged = self._pair("receiver")
        for key in ("phases", "blackout_s", "sim_now", "events_processed"):
            assert staged[key] == plain[key]


def test_one_to_many_bed_drains_clean():
    """A Fig. 4(c) point: the sender streams to one receiver per partner
    host, migrates, and every pair drains with all invariants holding."""
    from repro.beds import PerftestBed, checked

    bed = PerftestBed(1, msg_size=4096, depth=64, partners=2)
    bed.run(bed.setup())
    assert [r.server for r in bed.receivers] == bed.partners
    bed.drive(2e-3, presetup=False)
    tail = checked(bed.context())
    assert tail["invariants_ok"], tail["violations"]
    assert bed.sender.stats.clean
    assert all(conn.outstanding == 0 for conn in bed.sender.connections)
    assert len(bed.sender.connections) == 2
