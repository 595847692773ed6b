"""Per-tenant QoS on a shared RNIC (RDMAvisor-style RDMA-as-a-service).

Two mechanisms, both keyed off an opaque tenant id carried on QP
creation:

* **QP quotas** — a hard cap on the number of live QPs a tenant may hold
  on one NIC.  Enforced synchronously in ``RNIC.create_qp`` next to the
  device-wide ``max_qps`` check, so a denial raises ``ResourceError``
  before any firmware time is spent.

* **Token-bucket rate shaping** — egress bytes of a shaped tenant are
  metered against a bucket refilled at ``rate_bps``.  ``reserve`` uses a
  debt model: the bucket may go negative (so a message larger than the
  burst still goes out) and the caller sleeps until the debt would have
  refilled.  One-sided READs are metered by their *response* size — the
  request is header-only but the data still occupies the victim's line.

Determinism contract (mirrors ``chaos``): a NIC
with ``qos is None`` — or a tenant with no ``rate_bps`` — takes zero new
simulation events, so fault-free timestamps are bit-identical to a build
without this module.  All arithmetic is plain float on simulated time;
there is no wall-clock or RNG input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.rnic.errors import ResourceError

__all__ = ["TenantSpec", "NicQoS", "install_qos"]


@dataclass(frozen=True)
class TenantSpec:
    """Static per-tenant policy, identical on every NIC in the cluster
    (so a migrated container lands under the same contract)."""

    name: str
    #: Maximum live QPs this tenant may hold on one NIC (None = unlimited).
    max_qps: Optional[int] = None
    #: Egress rate limit in bits/s, matching LinkConfig units (None = unshaped).
    rate_bps: Optional[float] = None
    #: Bucket depth in bytes: how far the tenant may burst above rate.
    burst_bytes: int = 1 << 20


@dataclass
class _TenantState:
    spec: TenantSpec
    qps: int = 0
    tokens: float = 0.0
    t_last: float = 0.0
    #: Wire bytes reserved (pre-shaping) — the isolation-bound check reads this.
    tx_bytes: int = 0
    reserved_msgs: int = 0
    throttle_s: float = 0.0
    throttle_events: int = 0
    qp_denials: int = 0

    def __post_init__(self) -> None:
        self.tokens = float(self.spec.burst_bytes)


class NicQoS:
    """Per-NIC QoS state: one token bucket and one QP count per tenant.

    Unknown tenants pass through unrestricted — policy only binds tenants
    that were explicitly registered, so infrastructure QPs (migration
    transport, control plane) stay out of scope by default.
    """

    def __init__(self, specs: Iterable[TenantSpec] = ()):
        self.tenants: Dict[str, _TenantState] = {}
        for spec in specs:
            self.register(spec)

    def register(self, spec: TenantSpec) -> None:
        if spec.name in self.tenants:
            raise ValueError(f"tenant {spec.name!r} already registered")
        self.tenants[spec.name] = _TenantState(spec)

    def state(self, tenant: str) -> Optional[_TenantState]:
        return self.tenants.get(tenant)

    # -- QP quotas -----------------------------------------------------------

    def acquire_qp(self, tenant: Optional[str]) -> None:
        st = self.tenants.get(tenant) if tenant is not None else None
        if st is None:
            return
        quota = st.spec.max_qps
        if quota is not None and st.qps >= quota:
            st.qp_denials += 1
            raise ResourceError(
                f"tenant {tenant!r}: QP quota {quota} reached")
        st.qps += 1

    def release_qp(self, tenant: Optional[str]) -> None:
        st = self.tenants.get(tenant) if tenant is not None else None
        if st is not None and st.qps > 0:
            st.qps -= 1

    # -- rate shaping ---------------------------------------------------------

    def reserve(self, tenant: str, nbytes: int, now: float) -> float:
        """Charge ``nbytes`` to the tenant's bucket; return the shaping
        delay in seconds (0.0 for unshaped/unknown tenants)."""
        st = self.tenants.get(tenant)
        if st is None:
            return 0.0
        st.tx_bytes += nbytes
        st.reserved_msgs += 1
        rate_bps = st.spec.rate_bps
        if rate_bps is None:
            return 0.0
        rate = rate_bps / 8.0  # bytes/s
        st.tokens = min(float(st.spec.burst_bytes),
                        st.tokens + (now - st.t_last) * rate)
        st.t_last = now
        st.tokens -= nbytes
        if st.tokens >= 0.0:
            return 0.0
        wait = -st.tokens / rate
        st.throttle_s += wait
        st.throttle_events += 1
        return wait

    def allowed_bytes(self, tenant: str, elapsed_s: float, slack_bytes: int = 0) -> Optional[float]:
        """Upper bound on bytes the token bucket admits over ``elapsed_s``.

        ``slack_bytes`` covers the debt model's single-message overdraw
        (pass the largest wire message size).  Returns None for unshaped
        tenants (no bound)."""
        st = self.tenants.get(tenant)
        if st is None or st.spec.rate_bps is None:
            return None
        return st.spec.burst_bytes + (st.spec.rate_bps / 8.0) * elapsed_s + slack_bytes

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Deterministic per-tenant counters for obs scraping."""
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self.tenants):
            st = self.tenants[name]
            out[name] = {
                "qps": st.qps,
                "tx_bytes": st.tx_bytes,
                "reserved_msgs": st.reserved_msgs,
                "throttle_s": st.throttle_s,
                "throttle_events": st.throttle_events,
                "qp_denials": st.qp_denials,
            }
        return out


def install_qos(servers, specs: Iterable[TenantSpec]) -> None:
    """Install an identical QoS policy on every server's NIC.

    Cluster-wide installation is what makes the policy survive
    migration: the destination NIC re-admits the tenant's restored QPs
    under the same quota and keeps shaping its traffic."""
    specs = tuple(specs)
    for server in servers:
        server.rnic.qos = NicQoS(specs)
