"""Calibration constants for the MigrRDMA reproduction.

Every timing or cost constant the simulation uses lives here so that the
relationship between experiments and model parameters is auditable in one
place.  Values are calibrated so the *shapes* of the paper's results hold
(see DESIGN.md §5); they are not claimed to be silicon-exact.

Units: seconds for times, bytes for sizes, Hz for rates unless noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

#: Gigabits per second expressed in bytes per second.
GBPS = 1e9 / 8

PAGE_SIZE = 4096

#: QPNs are 24-bit per the InfiniBand specification (§3.3 of the paper).
QPN_BITS = 24
QPN_SPACE = 1 << QPN_BITS


@dataclass
class LinkConfig:
    """Physical fabric parameters (ConnectX-5 + Arista 7260CX3 testbed)."""

    rate_bps: float = 100e9  # 100 Gbps line rate
    propagation_delay_s: float = 1e-6  # one switch hop, ~1 us
    mtu: int = 4096


@dataclass
class RnicConfig:
    """RNIC control/data-path latency model.

    Control-path costs are dominated by firmware command latency; the
    several-milliseconds connection setup figure follows KRCORE's
    measurements cited by the paper (§2.2 challenge 1).
    """

    # Control path (per verbs call, in seconds).
    alloc_pd_s: float = 5e-6
    create_cq_s: float = 25e-6
    create_srq_s: float = 30e-6
    create_qp_s: float = 80e-6
    # Per modify_qp transition; three transitions (INIT, RTR, RTS) plus the
    # out-of-band exchange bring one connection to ~1.5 ms, matching the
    # "setting up an RDMA connection takes several milliseconds" premise.
    modify_qp_s: float = 350e-6
    destroy_qp_s: float = 60e-6
    reg_mr_per_page_s: float = 0.30e-6  # page pinning + MTT update
    reg_mr_base_s: float = 20e-6
    dereg_mr_s: float = 15e-6
    alloc_mw_s: float = 10e-6
    alloc_dm_s: float = 12e-6  # on-chip (device) memory
    create_comp_channel_s: float = 8e-6

    # Data path.
    doorbell_s: float = 0.15e-6  # post_send -> NIC begins processing
    per_wqe_processing_s: float = 0.10e-6  # WQE fetch/parse inside the NIC
    completion_delivery_s: float = 0.05e-6
    max_qps: int = 16384  # "modern RNICs support more than 10K QPs"

    # On-chip memory capacity (ConnectX-5 has 256 KiB usable device memory).
    device_memory_bytes: int = 256 * KiB

    # Microarchitectural contention: while the NIC executes control-path
    # commands (QP creation during RDMA pre-setup), data-path processing
    # slows down — the effect Kong et al. measured and Figure 5 shows as
    # brownout dips.  Expressed as extra processing time per message as a
    # fraction of the message's serialization time.  The tx fraction is
    # larger: a *transmitting* partner pays NIC contention plus the CPU
    # cache/memory contention of posting while pre-establishing (the reason
    # Figure 5(b) dips more than 5(a)).
    control_contention_rx_frac: float = 0.06
    control_contention_tx_frac: float = 0.30


@dataclass
class CpuConfig:
    """CPU model for data-path cycle accounting (Table 4).

    Base per-operation cycle costs are in line with measured verbs post/poll
    costs on Xeon-class hardware; virtualization increments reproduce the
    paper's 4.6 - 8.3 extra cycles => 3 % - 9 % band.
    """

    clock_hz: float = 2.3e9  # E5-2698 v3 base clock

    # Base data-path cost in cycles, without MigrRDMA's virtualization.
    base_cycles: dict = field(
        default_factory=lambda: {
            "send": 92.0,
            "recv": 95.0,
            "write": 88.0,
            "read": 153.0,
            "poll": 60.0,
        }
    )

    # MigrRDMA's marginal costs per data-path action, in cycles.
    virt_dispatch_cycles: float = 1.2
    lkey_array_lookup_cycles: float = 2.4
    qpn_array_lookup_cycles: float = 2.2
    rkey_cache_hit_cycles: float = 2.6
    suspension_flag_check_cycles: float = 1.6
    wr_intercept_buffer_cycles: float = 35.0

    # LubeRDMA-style linked-list translation (per node visited).
    linked_list_node_cycles: float = 3.0

    # FreeFlow-style full queue virtualization (per WR copied between the
    # application queue and the shadow queue).
    queue_copy_cycles_per_wr: float = 240.0

    measurement_noise_frac: float = 0.02  # sampling jitter


@dataclass
class MigrationConfig:
    """CRIU/runc-like live migration engine parameters.

    Per-page costs reflect CRIU's memory pre-copy throughput; the
    "inefficient CRIU implementation for large and complicated memory
    structures" observation (paper §5.2, citing MigrOS) is modelled by the
    superlinear per-VMA dump cost.
    """

    # Dump (checkpoint) costs on the source.
    dump_base_s: float = 12e-3
    dump_per_page_s: float = 0.35e-6
    dump_per_vma_s: float = 18e-6
    # CRIU's parasite/ptrace handling degrades with many memory structures.
    dump_vma_superlinear_s: float = 0.030e-6  # * n_vmas * log2(n_vmas)

    # Restore costs on the destination.
    restore_base_s: float = 15e-3
    restore_per_page_s: float = 0.40e-6
    restore_per_vma_s: float = 22e-6

    # Full-restore tail: final forking/attach of the restored process tree.
    full_restore_base_s: float = 28e-3
    full_restore_per_vma_s: float = 6e-6

    # RDMA-specific dump cost (indirection-layer log serialization).
    dump_rdma_base_s: float = 2.5e-3
    dump_rdma_per_resource_s: float = 2.2e-6

    # Pre-copy loop control.
    precopy_max_iterations: int = 8
    precopy_stop_threshold_pages: int = 64

    # Pre-copy convergence watchdog / degradation ladder (DESIGN.md §15).
    # The watchdog always *observes* per-round dirty-vs-shipped bytes, but
    # the ladder only *acts* when `precopy_blackout_budget_s` is finite:
    # the inf default keeps every pre-existing run's event timing and
    # digests bit-identical.  When armed, rounds that stop converging
    # (dirty grew by >= `precopy_divergence_ratio` for
    # `precopy_divergence_rounds` consecutive rounds) are capped early:
    # stop-and-copy is forced if the projected blackout fits the budget,
    # otherwise the migration postpones (PrecopyDiverged -> rollback ->
    # scheduler requeue with backoff).
    precopy_blackout_budget_s: float = math.inf
    precopy_divergence_rounds: int = 2
    precopy_divergence_ratio: float = 1.05

    # State transfer uses a TCP stream over the same fabric.
    transfer_rate_bps: float = 40e9  # effective TCP goodput
    transfer_rtt_s: float = 80e-6
    per_message_overhead_s: float = 25e-6

    # Wait-before-stop upper bound for spotty networks (§3.4).
    wbs_timeout_s: float = 2.0

    # Future-work optimization (§3.3): after migration, partners re-fetch
    # the migrated service's rkeys in one batch instead of one demand miss
    # at a time.
    rkey_prefetch: bool = False

    # Partner notification control-plane message service time.
    notify_processing_s: float = 60e-6

    # Fault tolerance (repro.resilience, DESIGN.md §11).  The failure
    # detector leases every peer daemon for the migration's duration;
    # liveness probes are zero-cost callbacks, so these knobs never move a
    # fault-free timestamp.
    heartbeat_interval_s: float = 1e-3
    heartbeat_miss_threshold: int = 3
    # Pre-commit waits give up (and roll back) after these deadlines.
    presetup_deadline_s: float = 2.0
    wbs_stuck_timeout_s: float = 5.0


@dataclass
class HadoopConfig:
    """RDMA-Hadoop workload model (Figure 6)."""

    heartbeat_interval_s: float = 3.0
    failover_detect_timeout_s: float = 10.0
    task_log_replay_s: float = 6.5
    backup_container_start_s: float = 2.8
    dfsio_file_size_bytes: int = 4 * GiB
    dfsio_nfiles: int = 4
    dfsio_app_goodput_bps: float = 10e9  # HDFS-level goodput over 100G RDMA
    estimatepi_samples: int = 400_000_000
    estimatepi_compute_rate: float = 10_000_000.0  # samples/s per slave
    progress_report_interval_s: float = 0.5
    #: slave JVM heap model for pre-copy volume
    slave_heap_bytes: int = 6 * GiB
    slave_heap_dirty_bps: float = 256 * MiB


@dataclass
class Config:
    """Bundle of all model parameters, passed through the system."""

    link: LinkConfig = field(default_factory=LinkConfig)
    rnic: RnicConfig = field(default_factory=RnicConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    migration: MigrationConfig = field(default_factory=MigrationConfig)
    hadoop: HadoopConfig = field(default_factory=HadoopConfig)
    seed: int = 20250908  # SIGCOMM '25 opening day

    def replace(self, **kwargs) -> "Config":
        return replace(self, **kwargs)


DEFAULT_CONFIG = Config()


def default_config() -> Config:
    """A fresh default configuration (safe to mutate per-experiment)."""
    return Config()
