"""MigrOS comparison model (§6).

MigrOS extends the RNIC (à la TCP_REPAIR) to extract and inject QP state.
No hardware exists; the paper itself resorts to a theoretical comparison,
which this module reproduces quantitatively.  §6 decomposes stop-and-copy
into three steps and argues:

1. *waiting* — MigrOS stops communication and lets packets drain naturally;
   MigrRDMA waits for inflight WRs.  Both are bottlenecked by the wire, so
   they cost the same (we reuse the same inflight-drain estimate).
2. *state transfer + restore* — MigrOS must additionally (a) move every QP
   to the STOP state, (b) extract per-QP context from the NIC, and (c)
   inject it into the destination NIC; MigrRDMA keeps its metadata in
   host memory and rides the ordinary memory-migration path.
3. *replay* — identical bottleneck (retransmitting non-acknowledged data).

So the MigrOS blackout = MigrRDMA blackout + per-QP extract/inject/STOP
costs.  Defaults for those costs follow the firmware-command latency class
of operations (same magnitude as modify_qp, which is what QP state
manipulation costs on real NICs).
"""

from __future__ import annotations

from repro.core.orchestrator import MigrationReport

#: Per-QP hardware state-manipulation costs MigrOS adds.
QP_STOP_S = 350e-6  # modify-to-STOP, one firmware command
EXTRACT_QP_STATE_S = 120e-6  # query full QP context + ring state
INJECT_QP_STATE_S = 180e-6  # write context into the new NIC


class MigrOsModel:
    """Analytic MigrOS blackout built on top of a measured MigrRDMA run."""

    def extra_stop_and_copy_s(self, num_qps: int) -> float:
        """The state get/set work MigrRDMA does not have to do."""
        return num_qps * (QP_STOP_S + EXTRACT_QP_STATE_S + INJECT_QP_STATE_S)

    def blackout_from_migrrdma(self, report: MigrationReport, num_qps: int) -> float:
        """Predicted MigrOS service blackout for the same migration.

        Waiting and replay match MigrRDMA (same wire bottleneck, §6), so
        only the state extract/inject/STOP delta is added to the measured
        blackout.
        """
        return report.blackout_s + self.extra_stop_and_copy_s(num_qps)

    def compare(self, report: MigrationReport, num_qps: int) -> dict:
        """The §6 table: MigrRDMA measured vs MigrOS predicted."""
        migros_blackout = self.blackout_from_migrrdma(report, num_qps)
        return {
            "num_qps": num_qps,
            "migrrdma_blackout_s": report.blackout_s,
            "migros_blackout_s": migros_blackout,
            "migros_extra_s": migros_blackout - report.blackout_s,
            "migros_slowdown": migros_blackout / report.blackout_s,
        }
