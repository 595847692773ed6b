"""The migration torture harness.

Fuzzes (workload, fault plan, migration trigger time) tuples over the
perftest, Hadoop and KV-store reference scenarios, runs every invariant
checker after each one, and shrinks a failing case to the smallest fault
set that still fails — printed as a ready-to-paste pytest reproducer.

Everything is derived from ``(seed, index)`` through dedicated
``random.Random`` instances, so a failing run number reproduces exactly
(`python -m repro.experiments torture --seed N --runs K`), and the same
seed yields a bit-identical metrics digest on every machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.apps.pollloop import quiesce  # noqa: F401  (its historical home)
from repro.chaos.invariants import (
    DEFAULT_REGISTRY,
    InvariantContext,
    InvariantReport,
    run_digest,
)
from repro.chaos.plan import FaultPlan

__all__ = ["TortureCase", "TortureOutcome", "sample_case", "build_plan",
           "run_case", "run_case_tolerant", "shrink", "reproducer_source",
           "torture", "torture_sweep"]

#: how often a torture sweep visits the Hadoop scenario instead of perftest
HADOOP_EVERY = 6
#: which slot of each HADOOP_EVERY-long stripe the KV scenario takes
KV_SLOT = HADOOP_EVERY - 2
#: which slot takes the fleet drain scenario (only when a scheduler-crash
#: campaign is requested; base campaigns never visit it)
FLEET_SLOT = HADOOP_EVERY - 3


@dataclass
class TortureCase:
    """One reproducible fuzz case — plain data, printable as a test."""

    seed: int
    index: int
    scenario: str = "perftest"
    workload: Dict[str, object] = field(default_factory=dict)
    #: fault specs, each a dict with a ``kind`` key (see ``_apply_fault``)
    faults: List[Dict[str, object]] = field(default_factory=list)
    trigger_s: float = 2e-3

    @property
    def plan_seed(self) -> int:
        return self.seed * 1_000_003 + self.index


@dataclass
class TortureOutcome:
    case: TortureCase
    report: InvariantReport
    digest: str
    sim_now: float
    events_processed: int
    fault_stats: Dict[str, int]

    @property
    def ok(self) -> bool:
        return self.report.ok


# ---------------------------------------------------------------------------
# case sampling
# ---------------------------------------------------------------------------

def _case_rng(seed: int, index: int) -> random.Random:
    # str seeding hashes through sha512: stable across processes/platforms.
    return random.Random(f"torture:{seed}:{index}")


def sample_case(seed: int, index: int, scenarios: str = "all",
                rpc_loss: Optional[float] = None,
                kill_dest_at: Optional[str] = None,
                partition: Optional[float] = None,
                kill_scheduler_at: Optional[str] = None) -> TortureCase:
    """Draw one (workload, fault plan, trigger time) tuple.

    ``rpc_loss`` adds a control-RPC drop rule (scoped to rpc payloads, so
    bulk transfer segments are untouched) to every case; ``kill_dest_at``
    adds a destination daemon crash at the named phase boundary (or a
    per-case random one with ``"random"``) to perftest cases.
    ``partition`` adds, with that probability per case, a *bidirectional*
    src↔dst network partition (both TCP control and RDMA severed — the
    real split-brain drill, unlike one-sided drops).  ``kill_scheduler_at``
    (a sim-time float, or ``"random"``) enables the fleet-drain scenario
    slot: a rack drain whose scheduler is killed mid-flight and must
    resume from its journal.  All extras draw from the case RNG *after*
    the base faults, so the base campaign is unchanged when they are off.
    """
    rng = _case_rng(seed, index)
    fleet = (kill_scheduler_at is not None
             and scenarios in ("all", "fleet")
             and (scenarios == "fleet" or index % HADOOP_EVERY == FLEET_SLOT))
    hadoop = (not fleet and scenarios in ("all", "hadoop")
              and (scenarios == "hadoop" or index % HADOOP_EVERY == HADOOP_EVERY - 1))
    kv = (not fleet and scenarios in ("all", "kv")
          and (scenarios == "kv" or index % HADOOP_EVERY == KV_SLOT))
    if fleet:
        workload = {
            "racks": 2,
            "hosts_per_rack": 2,
            "containers": 6,
            "target": "rack0",
            "concurrency": rng.choice([1, 2]),
        }
        if kill_scheduler_at == "random":
            at_s = round(rng.uniform(0.5e-3, 8e-3), 6)
        else:
            at_s = float(kill_scheduler_at)
        faults: List[Dict[str, object]] = [
            {"kind": "scheduler_crash", "at_s": at_s,
             "down_s": round(rng.uniform(5e-3, 2e-2), 6)}]
        # Host-pair partitions in the fleet stay inside the RC transport's
        # go-back-N give-up budget (~4.5ms): live WRITE streams cross the
        # severed trunk, and a longer sever makes RETRY_EXC_ERR expected
        # behaviour rather than an invariant violation.
        faults += _partition_fault(
            rng, partition, a=rng.choice(["r0h0", "r0h1"]),
            b=rng.choice(["r1h0", "r1h1"]), window_hi=8e-3,
            dur_lo=1e-3, dur_hi=2.5e-3)
        return TortureCase(seed, index, "fleet", workload, faults, 0.0)
    if kv:
        workload = {
            "n_clients": rng.choice([1, 2]),
            "depth": rng.choice([2, 4]),
            "keyspace": rng.choice([16, 32]),
            "value_len": rng.choice([16, 32, 64]),
            "noise": rng.random() < 0.5,
        }
        trigger_s = rng.uniform(0.5e-3, 3e-3)
        faults = _sample_faults(rng, nodes=["src", "dst", "partner0",
                                            "partner1"], window_hi=0.15)
        faults += _resilience_faults(rng, rpc_loss, kill_dest_at)
        faults += _partition_fault(rng, partition, a="src", b="dst",
                                   window_hi=0.08, dur_lo=4e-3, dur_hi=12e-3)
        return TortureCase(seed, index, "kv", workload, faults, trigger_s)
    if hadoop:
        workload = {"task": rng.choice(["dfsio", "estimatepi"])}
        trigger_s = rng.uniform(0.02, 0.2)
        faults = _sample_faults(rng, nodes=["src", "dst", "partner0", "partner1"],
                                window_hi=1.5, fabric_only=True)
        faults += _resilience_faults(rng, rpc_loss, None)
        return TortureCase(seed, index, "hadoop", workload, faults, trigger_s)
    workload = {
        "qps": rng.choice([1, 2, 4]),
        "msg_size": rng.choice([16384, 65536, 65536, 262144]),
        "depth": rng.choice([4, 8]),
        "mode": rng.choice(["write", "write", "send", "read"]),
        "migrate": rng.choice(["sender", "receiver"]),
        "presetup": rng.choice([True, True, False]),
    }
    trigger_s = rng.uniform(0.5e-3, 3e-3)
    faults = _sample_faults(rng, nodes=["src", "dst", "partner0"], window_hi=0.12)
    faults += _resilience_faults(rng, rpc_loss, kill_dest_at)
    faults += _partition_fault(rng, partition, a="src", b="dst",
                               window_hi=0.08, dur_lo=4e-3, dur_hi=12e-3)
    return TortureCase(seed, index, "perftest", workload, faults, trigger_s)


def _partition_fault(rng: random.Random, partition: Optional[float],
                     a: str, b: str, window_hi: float,
                     dur_lo: float, dur_hi: float) -> List[Dict[str, object]]:
    """A probabilistic bidirectional partition overlay (``--partition P``).

    The live RDMA streams run src↔partner*, so a src↔dst sever hits the
    migration's control and transfer path — the interesting case — while
    staying off the hot data path; its 4–12ms durations would exceed the
    RC give-up budget on a live QP, which is exactly why the pair and
    duration envelopes differ per scenario.  Draws nothing when the flag
    is off (base campaigns bit-unchanged), and Hadoop cases skip it: their
    fault windows live on a 100×-coarser timescale.
    """
    if not partition:
        return []
    if rng.random() >= partition:
        return []
    start = round(rng.uniform(0.0, window_hi), 6)
    return [{"kind": "partition", "a": a, "b": b, "start_s": start,
             "end_s": round(start + rng.uniform(dur_lo, dur_hi), 6)}]


def _resilience_faults(rng: random.Random, rpc_loss: Optional[float],
                       kill_dest_at: Optional[str]) -> List[Dict[str, object]]:
    """Extra faults for recovery campaigns (``--rpc-loss``/``--kill-dest-at``)."""
    faults: List[Dict[str, object]] = []
    if rpc_loss:
        faults.append({"kind": "drop", "p": rpc_loss, "protocol": "tcp",
                       "payload_kind": "rpc", "start_s": 0.0, "end_s": 30.0})
    if kill_dest_at:
        if kill_dest_at == "random":
            from repro.core.orchestrator import PHASE_BOUNDARIES

            boundary = rng.choice(PHASE_BOUNDARIES)
        else:
            boundary = kill_dest_at
        faults.append({"kind": "daemon_crash", "node": "dest",
                       "boundary": boundary,
                       "down_s": round(rng.uniform(5e-3, 2e-2), 6)})
    return faults


def _sample_faults(rng: random.Random, nodes: List[str], window_hi: float,
                   fabric_only: bool = False) -> List[Dict[str, object]]:
    def window():
        start = rng.uniform(0.0, window_hi * 0.7)
        return start, start + rng.uniform(window_hi * 0.05, window_hi)

    palette = ["drop_rdma", "drop_tcp", "duplicate", "reorder", "delay", "abort"]
    if not fabric_only:
        palette += ["rnr_storm", "cq_pressure"]
    faults: List[Dict[str, object]] = []
    for kind in rng.sample(palette, k=rng.randint(1, 3)):
        start, end = window()
        if kind == "drop_rdma":
            # Capped inside the RC transport's recoverable envelope: the
            # requester gives up (RETRY_EXC_ERR, QP to error) after 8
            # retries, and a read needs request AND response delivered, so
            # p=0.05 leaves ~(2p)^9 ~ 1e-9 odds per WR of legitimate
            # exhaustion.  Higher sustained rates make give-up expected
            # behaviour, not an invariant violation.
            faults.append({"kind": "drop", "p": round(rng.uniform(0.01, 0.05), 4),
                           "protocol": "rdma", "start_s": start, "end_s": end})
        elif kind == "drop_tcp":
            faults.append({"kind": "drop", "p": round(rng.uniform(0.05, 0.3), 4),
                           "protocol": "tcp", "start_s": start, "end_s": end})
        elif kind == "duplicate":
            faults.append({"kind": "duplicate", "p": round(rng.uniform(0.01, 0.1), 4),
                           "protocol": "rdma", "start_s": start, "end_s": end})
        elif kind == "reorder":
            faults.append({"kind": "reorder", "p": round(rng.uniform(0.01, 0.15), 4),
                           "max_delay_s": round(rng.uniform(5e-6, 100e-6), 9),
                           "protocol": "rdma", "start_s": start, "end_s": end})
        elif kind == "delay":
            faults.append({"kind": "delay", "delay_s": round(rng.uniform(1e-6, 2e-5), 9),
                           "protocol": "rdma", "start_s": start, "end_s": end})
        elif kind == "rnr_storm":
            faults.append({"kind": "rnr_storm", "node": rng.choice(nodes),
                           "start_s": start,
                           "duration_s": round(rng.uniform(1e-3, 2e-2), 6)})
        elif kind == "cq_pressure":
            faults.append({"kind": "cq_pressure", "node": rng.choice(nodes),
                           "start_s": start, "duration_s": end - start,
                           "extra_delay_s": round(rng.uniform(1e-5, 2e-4), 9)})
        elif kind == "abort" and rng.random() < 0.4:
            from repro.core.orchestrator import PHASE_BOUNDARIES

            faults.append({"kind": "abort",
                           "boundary": rng.choice(PHASE_BOUNDARIES)})
    return faults


def build_plan(case: TortureCase, offset_s: float = 0.0) -> FaultPlan:
    """Materialize a case's fault specs (windows shifted by ``offset_s``,
    the sim time at which the workload finished setting up)."""
    plan = FaultPlan(seed=case.plan_seed,
                     name=f"torture-{case.seed}-{case.index}")
    for spec in case.faults:
        _apply_fault(plan, dict(spec), offset_s)
    return plan


def _apply_fault(plan: FaultPlan, spec: Dict[str, object], offset_s: float) -> None:
    kind = spec.pop("kind")
    for key in ("start_s", "end_s", "at_s"):
        if key in spec:
            spec[key] = spec[key] + offset_s
    if kind == "drop":
        plan.drop(spec.pop("p"), **spec)
    elif kind == "duplicate":
        plan.duplicate(spec.pop("p"), **spec)
    elif kind == "reorder":
        plan.reorder(spec.pop("p"), **spec)
    elif kind == "delay":
        plan.delay(spec.pop("delay_s"), **spec)
    elif kind == "rnr_storm":
        plan.rnr_storm(spec["node"], spec["start_s"], spec["duration_s"])
    elif kind == "cq_pressure":
        plan.cq_pressure(spec["node"], spec["start_s"], spec["duration_s"],
                         spec["extra_delay_s"])
    elif kind == "qp_error":
        plan.qp_error(spec["node"], spec["at_s"])
    elif kind == "daemon_crash":
        # Boundary-keyed, not time-keyed: no window shift.
        plan.daemon_crash(spec["node"], spec["boundary"], spec["down_s"])
    elif kind == "partition":
        plan.partition(spec["a"], spec["b"], spec["start_s"], spec["end_s"])
    elif kind == "scheduler_crash":
        plan.scheduler_crash(spec["at_s"], spec["down_s"])
    elif kind == "abort":
        plan.abort_at(spec["boundary"])
    else:
        raise ValueError(f"unknown fault kind {kind!r}")


# ---------------------------------------------------------------------------
# running a case
# ---------------------------------------------------------------------------

def run_case(case: TortureCase) -> TortureOutcome:
    if case.scenario == "hadoop":
        ctx = _run_hadoop_case(case)
    elif case.scenario == "kv":
        ctx = _run_kv_case(case)
    elif case.scenario == "fleet":
        ctx = _run_fleet_case(case)
    else:
        ctx = _run_perftest_case(case)
    report = DEFAULT_REGISTRY.run(ctx)
    return TortureOutcome(
        case=case, report=report, digest=run_digest(ctx, report),
        sim_now=ctx.tb.sim.now, events_processed=ctx.tb.sim.events_processed,
        fault_stats=ctx.plan.stats.as_dict() if ctx.plan else {})


def crash_outcome(case: TortureCase, error: str) -> TortureOutcome:
    """A synthetic failing outcome for a case whose *harness* crashed.

    The crash is reported through the same channel as an invariant
    violation (a ``worker-crash`` entry) so campaign aggregation, exit
    codes and reproducer printing treat it like any other failure instead
    of dying with it.
    """
    report = InvariantReport(checked=["worker-crash"],
                             violations=[("worker-crash", error)])
    return TortureOutcome(case=case, report=report, digest="",
                          sim_now=0.0, events_processed=0, fault_stats={})


def run_case_tolerant(case: TortureCase) -> TortureOutcome:
    """Like :func:`run_case`, but a raised exception becomes a failing
    outcome — used during shrinking so a crashing fault set minimizes the
    same way an invariant-violating one does."""
    try:
        return run_case(case)
    except Exception as exc:
        return crash_outcome(case, f"{type(exc).__name__}: {exc}")


def _run_perftest_case(case: TortureCase) -> InvariantContext:
    from repro.beds import PerftestBed

    w = case.workload
    bed = PerftestBed(w["qps"], msg_size=w["msg_size"], depth=w["depth"],
                      mode=w["mode"], migrate=w["migrate"],
                      verify_content=w["mode"] in ("write", "send"))
    return _drive_bed(case, bed, presetup=w["presetup"])


def _run_kv_case(case: TortureCase) -> InvariantContext:
    """KV-store torture: shaped tenants, victim client migrated mid-ops.

    Same drill as the perftest case, but the workload is the KV store —
    SEND PUTs, one-sided READ GETs and CAS locks — with per-tenant QoS
    installed so the fault campaign also runs through the shaping path
    (the ``"noisy"`` tenant exists even when the case draws no noise),
    and the ``kv-linearizable`` checker judging the surviving history.
    """
    from repro.beds import KvBed
    from repro.rnic import TenantSpec

    w = case.workload
    bed = KvBed(case.plan_seed, w["n_clients"], w["keyspace"], w["value_len"],
                w["depth"],
                tenants=[TenantSpec("victim", max_qps=w["n_clients"] + 2),
                         TenantSpec("noisy", rate_bps=40e9)],
                noise=(262144, 4) if w["noise"] else None)
    return _drive_bed(case, bed)


def _drive_bed(case: TortureCase, bed, presetup: bool = True) -> InvariantContext:
    """Set the bed up, install the case's faults (windows offset to the end
    of setup), and run the checked flow with them armed."""
    bed.run(bed.setup())
    plan = build_plan(case, offset_s=bed.sim.now)
    plan.install(bed)
    bed.drive(case.trigger_s, presetup=presetup, plan=plan)
    return bed.context(plan=plan)


def _run_fleet_case(case: TortureCase) -> InvariantContext:
    """Fleet-drain torture: a rack drain whose scheduler dies mid-flight.

    The drain runs through :func:`~repro.fleet.drain_with_recovery`, so
    the scheduler-crash fault kills one incarnation and a replacement
    resumes from the journal.  Afterwards the full registry runs —
    including ``fleet-placement`` (no container lost, duplicated, or
    frozen) and ``lease-fencing`` (no split-brain reachable) — over every
    per-migration report from every incarnation.
    """
    from repro.fleet import build_fleet

    w = case.workload
    fleet = build_fleet(racks=w["racks"], hosts_per_rack=w["hosts_per_rack"],
                        containers=w["containers"],
                        seed=case.plan_seed % (2 ** 31))
    fleet.run(fleet.setup())
    plan = build_plan(case, offset_s=fleet.sim.now)
    plan.install(fleet)
    fleet.start_traffic()
    report, _jobs = fleet.run_policy("drain", w["target"],
                                     w.get("concurrency", 2), chaos=plan)
    errors = []
    if report.failed:
        failed = [o.container for o in report.outcomes if not o.completed]
        errors.append(f"fleet drain left {report.failed} jobs unfinished: "
                      f"{', '.join(failed)}")
    return fleet.context(plan=plan, workload_errors=errors)


def _run_hadoop_case(case: TortureCase) -> InvariantContext:
    from repro.apps.hadoop_scenarios import fast_test_config, run_scenario

    plan = build_plan(case)
    outcome = run_scenario(case.workload["task"], "migrrdma",
                           config=fast_test_config(),
                           event_after_s=case.trigger_s, chaos_plan=plan)
    tb = plan.testbed
    reports = ([outcome.migration_report]
               if outcome.migration_report is not None else [])
    errors = [] if outcome.result.finished else ["hadoop task never finished"]
    return InvariantContext(tb, world=None, endpoints=[], reports=reports,
                            plan=plan, workload_errors=errors)


# ---------------------------------------------------------------------------
# shrinking + reproducer
# ---------------------------------------------------------------------------

def shrink(case: TortureCase,
           run: Callable[[TortureCase], TortureOutcome] = run_case,
           log: Optional[Callable[[str], None]] = None) -> TortureCase:
    """Greedy fault-set minimization: repeatedly drop any fault whose
    removal keeps the case failing.  The workload and trigger are part of
    the case identity and are kept."""
    best = case
    changed = True
    while changed and best.faults:
        changed = False
        for i in range(len(best.faults)):
            candidate = replace(
                best, faults=best.faults[:i] + best.faults[i + 1:])
            if not run(candidate).ok:
                if log:
                    log(f"shrink: removed {best.faults[i].get('kind')} "
                        f"({len(candidate.faults)} faults left)")
                best = candidate
                changed = True
                break
    return best


def reproducer_source(case: TortureCase) -> str:
    """A ready-to-paste pytest case reproducing this failure."""
    return f'''\
def test_torture_seed{case.seed}_run{case.index}():
    """Shrunk reproducer from `repro.experiments torture --seed {case.seed}`."""
    from repro.chaos.torture import TortureCase, run_case

    case = TortureCase(
        seed={case.seed}, index={case.index}, scenario={case.scenario!r},
        workload={case.workload!r},
        faults={case.faults!r},
        trigger_s={case.trigger_s!r})
    outcome = run_case(case)
    assert outcome.report.ok, "\\n" + outcome.report.render()
'''


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

def torture_sweep(seed: int, runs: int, scenarios: str = "all",
                  jobs: int = 1,
                  log: Optional[Callable[[str], None]] = None,
                  rpc_loss: Optional[float] = None,
                  kill_dest_at: Optional[str] = None,
                  partition: Optional[float] = None,
                  kill_scheduler_at: Optional[str] = None
                  ) -> List[TortureOutcome]:
    """Run the campaign through the parallel engine; returns one outcome
    per run, in run order.

    A worker whose harness crashes comes back as a ``worker-crash``
    outcome (case reconstructed from ``(seed, index)``) instead of
    killing the campaign.  Each case builds a fresh testbed and seeds
    everything from ``(seed, index)``, so the outcomes — including the
    sha256 digests — are identical for any ``jobs``.
    """
    from repro.parallel.engine import TaskSpec, run_tasks

    specs = [TaskSpec("repro.parallel.runners.torture_run",
                      dict(seed=seed, index=index, scenarios=scenarios,
                           rpc_loss=rpc_loss, kill_dest_at=kill_dest_at,
                           partition=partition,
                           kill_scheduler_at=kill_scheduler_at),
                      label=f"torture:{seed}:{index}")
             for index in range(runs)]

    def progress(result):
        if log is None:
            return
        if result.ok:
            outcome = result.value
            case = outcome.case
            log(f"run {result.index:>3}/{runs}: {case.scenario:<8} "
                f"faults={','.join(f['kind'] for f in case.faults) or 'none'} "
                f"events={outcome.events_processed} "
                f"{'ok' if outcome.ok else 'FAIL'}")
        else:
            log(f"run {result.index:>3}/{runs}: CRASH ({result.error_type})")

    results = run_tasks(specs, jobs=jobs, on_result=progress)
    outcomes: List[TortureOutcome] = []
    for result in results:
        if result.ok:
            outcomes.append(result.value)
        else:
            case = sample_case(seed, result.index, scenarios,
                               rpc_loss=rpc_loss, kill_dest_at=kill_dest_at,
                               partition=partition,
                               kill_scheduler_at=kill_scheduler_at)
            if log is not None:
                log(f"run {result.index} harness crash:\n{result.error}")
            outcomes.append(crash_outcome(case, result.error_type or "crash"))
    return outcomes


def torture(seed: int, runs: int, scenarios: str = "all",
            shrink_failures: bool = True,
            log: Callable[[str], None] = print,
            jobs: int = 1,
            rpc_loss: Optional[float] = None,
            kill_dest_at: Optional[str] = None,
            partition: Optional[float] = None,
            kill_scheduler_at: Optional[str] = None) -> List[TortureOutcome]:
    """Run the sweep; returns the failing outcomes (empty = all clean)."""
    outcomes = torture_sweep(seed, runs, scenarios, jobs=jobs, log=log,
                             rpc_loss=rpc_loss, kill_dest_at=kill_dest_at,
                             partition=partition,
                             kill_scheduler_at=kill_scheduler_at)
    failures: List[TortureOutcome] = []
    for outcome in outcomes:
        if outcome.ok:
            continue
        failures.append(outcome)
        log(outcome.report.render())
        if shrink_failures:
            # Crash-tolerant shrinking: a fault set that still crashes the
            # harness keeps failing, so it minimizes like any violation.
            shrunk = shrink(outcome.case, run=run_case_tolerant, log=log)
            log("minimal reproducer:\n" + reproducer_source(shrunk))
    return failures
