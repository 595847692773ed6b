"""Property: a parked busy-poll loop is the spinning loop, bit for bit.

The shared poll loop (``repro.apps.pollloop``, DESIGN.md §12.5) parks when
its next tick is provably inert and replays the skipped polls on wake.
Here it runs against a test-local loop that really ticks every period —
the code the endpoints carried before — over drawn CQE arrival instants,
including arrivals exactly on a tick instant, and both must agree on when
every completion was handled, on the whole cycle ledger down to the next
jitter draw, and on the kernel's event counts.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.pollloop import IDLE_POLL_S, POLL_BATCH, BusyPoller
from repro.cluster import CpuContext
from repro.config import CpuConfig
from repro.rnic.constants import Opcode, WCStatus
from repro.rnic.cq import CQ, WorkCompletion
from repro.sim import Interrupt, Simulator

#: what the RNIC puts between raising a CQE and pushing it
DELIVERY_S = 50e-9
START_S = 3e-6
HORIZON_S = 400e-6


class _Lib:
    """The poll path of DirectVerbs / the guest lib: one base charge."""

    def __init__(self, cpu):
        self.cpu = cpu

    def poll_cq(self, cq, max_entries):
        self.cpu.charge_base("poll")
        return cq.poll(max_entries)


class _Endpoint(BusyPoller):
    """A server-shaped endpoint (KvServer's floors) on a bare CQ."""

    def __init__(self, sim: Simulator, parks: bool):
        cpu = CpuContext(CpuConfig(), seed=11)
        self.server = SimpleNamespace(sim=sim, name="n0")
        self.process = SimpleNamespace(cpu=cpu)
        self.lib = _Lib(cpu)
        self.cq = CQ(sim, 64)
        self.parks = parks
        self.running = True
        self.ticks = []     # instants the spinning reference polled at
        self.handled = []   # (instant, wr_id) per completion

    def _handle_wc(self, wc):
        self.handled.append((self.server.sim.now, wc.wr_id))
        self.process.cpu.charge("virt", 40.0 * (1 + wc.wr_id % 3))

    def loop(self):
        if self.parks:
            def tick():
                if self.running:
                    drained = self._drain_completions()
                    return (IDLE_POLL_S / 2 if drained else IDLE_POLL_S), IDLE_POLL_S
            return self._poll_loop(tick)
        return self._spin()

    def _spin(self):
        """The reference: KvServer._server_loop as it was, one timeout and
        one poll per tick."""
        sim = self.server.sim
        try:
            while self.running:
                self.ticks.append(sim.now)
                drained = 0
                while True:
                    wcs = self.lib.poll_cq(self.cq, POLL_BATCH)
                    if not wcs:
                        break
                    drained += len(wcs)
                    for wc in wcs:
                        self._handle_wc(wc)
                cpu_s = self.process.cpu.drain_seconds()
                yield sim.timeout(max(cpu_s, IDLE_POLL_S if not drained
                                      else IDLE_POLL_S / 2))
        except Interrupt:
            return


def _wc(wr_id):
    return WorkCompletion(wr_id=wr_id, status=WCStatus.SUCCESS,
                          opcode=Opcode.RECV, qp_num=1)


def _run(parks, arrivals, end):
    """One simulation.  ``arrivals`` are absolute push instants; each push
    is scheduled ``DELIVERY_S`` ahead, as ``RNIC._deliver_wc`` does.
    ``end`` is ``(kind, instant)``: a ``stop()`` scheduled from time zero
    (a long-scheduled flow), or a freeze interrupt."""
    sim = Simulator()
    ep = _Endpoint(sim, parks)
    proc_box = []
    sim.schedule_at(START_S, lambda: proc_box.append(sim.spawn(ep.loop())))
    for wr_id, t_push in enumerate(arrivals):
        sim.schedule_at(t_push - DELIVERY_S, sim.schedule_at, t_push,
                        ep.cq.push, _wc(wr_id))
    kind, t_end = end
    if kind == "stop":
        sim.schedule_at(t_end, ep.stop)
    else:
        sim.schedule_at(t_end, lambda: proc_box[0].interrupt("frozen"))
    sim.run(until=HORIZON_S)
    cpu = ep.process.cpu
    return ep, {
        "handled": ep.handled,
        "total_cycles": cpu.total_cycles,
        "cycles_by_op": dict(cpu.cycles_by_op),
        "count_by_op": dict(cpu.count_by_op),
        "accrued": cpu._accrued_cycles,
        "next_draw": cpu._rng.random(),
        "events_processed": sim.events_processed,
        "events_cancelled": sim.events_cancelled,
        "loop_done": not proc_box[0].is_alive,
    }


def _resolve(specs, end_spec):
    """Turn drawn (ticks ahead, offset) pairs into absolute instants by
    running the spinning reference on the arrivals fixed so far: an
    arrival only moves ticks after itself, so the ticks before it are
    final.  Offset 0 puts the arrival exactly on a tick instant."""
    arrivals = []
    cursor = START_S
    for ahead, offset_ns in (*specs, end_spec[1:]):
        ref, _ = _run(False, arrivals, ("stop", HORIZON_S))
        later = [t for t in ref.ticks if t > cursor]
        cursor = later[min(ahead, len(later) - 1)] + offset_ns * 1e-9
        arrivals.append(cursor)
    return arrivals[:-1], (end_spec[0], arrivals[-1])


_step = st.tuples(st.integers(min_value=0, max_value=12),
                  st.sampled_from([0, 0, 1, 49, 50, 51, 137, 499, 500, 733]))


@settings(max_examples=60, deadline=None)
@given(st.lists(_step, min_size=0, max_size=6),
       st.tuples(st.sampled_from(["stop", "freeze"]),
                 st.integers(min_value=0, max_value=12),
                 st.sampled_from([0, 0, 1, 50, 499, 733])))
def test_parked_loop_equals_spinning_loop(specs, end_spec):
    arrivals, end = _resolve(specs, end_spec)
    spin_ep, spin = _run(False, arrivals, end)
    park_ep, park = _run(True, arrivals, end)
    assert park == spin
    assert spin["loop_done"]
    assert len(spin["handled"]) <= len(arrivals)
    # the comparison is not vacuous: the parked side really skipped ticks
    if not arrivals and end[1] - START_S > 3 * IDLE_POLL_S:
        assert park_ep.server.sim.events_credited > 0


def test_tie_rule_both_directions():
    """A CQE pushed exactly on a tick instant was scheduled 50 ns earlier,
    after the tick: the tick runs first, finds nothing, and the CQE is
    handled one period later.  A stop() scheduled long before wins the
    tie: the tick due at that instant exits without polling."""
    ref, _ = _run(False, [], ("stop", HORIZON_S))
    for parks in (False, True):
        _, out = _run(parks, [ref.ticks[7]], ("stop", HORIZON_S))
        assert out["handled"] == [(ref.ticks[8], 0)]
        _, out = _run(parks, [], ("stop", ref.ticks[20]))
        assert out["count_by_op"]["poll"] == 20  # ticks 0..19; tick 20 lost the tie
        assert out["loop_done"]
