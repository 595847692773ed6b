"""Protection domains, memory regions, memory windows, on-chip memory.

Physical lkeys/rkeys are allocated by the NIC with a scrambled (sparse,
unpredictable) pattern like real hardware — which is precisely why
MigrRDMA must virtualize them: a restored MR on the destination NIC gets
*different* physical keys, and the application still holds the old values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.mem import AddressSpace
from repro.rnic.constants import AccessFlags

# MRs and windows keep their access mask as a plain int beside the flag, so
# the per-WR checks are one ``&``: remote operation -> the bit it needs.
_LOCAL_WRITE_BIT = AccessFlags.LOCAL_WRITE.value
_REMOTE_BIT = {
    "read": AccessFlags.REMOTE_READ.value,
    "write": AccessFlags.REMOTE_WRITE.value,
    "atomic": AccessFlags.REMOTE_ATOMIC.value,
}
from repro.rnic.errors import AccessError, ResourceError

_pd_handles = itertools.count(1)


@dataclass
class PD:
    """A protection domain: MRs and QPs must share one to interoperate."""

    nic_name: str
    handle: int = field(default_factory=lambda: next(_pd_handles))

    def __repr__(self) -> str:
        return f"<PD {self.handle} on {self.nic_name}>"


class KeyAllocator:
    """Allocates physical memory keys the way firmware does: sparse.

    Key = (index * Knuth multiplicative constant) masked to 24 bits of
    entropy, shifted to leave an 8-bit key-variant field, like mlx5.
    Uniqueness is guaranteed per allocator.
    """

    _GOLDEN = 2654435761

    def __init__(self, salt: int = 0):
        self._index = itertools.count(1)
        self._salt = salt & 0xFFFF
        self._issued = set()

    def allocate(self) -> int:
        while True:
            index = next(self._index)
            key = (((index + self._salt) * self._GOLDEN) & 0x00FF_FFFF) << 8
            if key not in self._issued and key != 0:
                self._issued.add(key)
                return key


class MR:
    """A registered memory region."""

    def __init__(
        self,
        pd: PD,
        space: AddressSpace,
        addr: int,
        length: int,
        access: AccessFlags,
        lkey: int,
        rkey: int,
        on_chip: bool = False,
    ):
        if length <= 0:
            raise AccessError(f"MR length must be positive, got {length}")
        self.pd = pd
        self.space = space
        self.addr = addr
        self.length = length
        self.access = access
        #: addr + length and the access mask as an int, fixed at
        #: registration: the per-WR checks below read them as attributes.
        self.end = addr + length
        self._access_bits = access.value
        self.lkey = lkey
        self.rkey = rkey
        self.on_chip = on_chip
        self.invalidated = False

    def covers(self, addr: int, length: int) -> bool:
        return self.addr <= addr and addr + length <= self.end

    def check_local(self, addr: int, length: int, write: bool) -> None:
        """Validate a local (lkey) access."""
        if self.invalidated:
            raise AccessError("access through a deregistered MR")
        if addr < self.addr or addr + length > self.end:
            raise AccessError(
                f"local access [{addr:#x}, {addr + length:#x}) outside MR "
                f"[{self.addr:#x}, {self.end:#x})"
            )
        if write and not self._access_bits & _LOCAL_WRITE_BIT:
            raise AccessError("local write without LOCAL_WRITE permission")

    def check_remote(self, addr: int, length: int, op: str) -> None:
        """Validate a remote (rkey) access; ``op`` in {read, write, atomic}."""
        if self.invalidated:
            raise AccessError("remote access through a deregistered MR")
        if addr < self.addr or addr + length > self.end:
            raise AccessError(
                f"remote access [{addr:#x}, {addr + length:#x}) outside MR "
                f"[{self.addr:#x}, {self.end:#x})"
            )
        needed = _REMOTE_BIT[op]
        if not self._access_bits & needed:
            raise AccessError(f"remote {op} without {AccessFlags(needed)} permission")

    def __repr__(self) -> str:
        return (
            f"<MR [{self.addr:#x}+{self.length}] lkey={self.lkey:#x} "
            f"rkey={self.rkey:#x}{' on-chip' if self.on_chip else ''}>"
        )


class MemoryWindow:
    """A type-2-like memory window: a narrower grant over an MR (§3.2).

    Binding assigns a fresh rkey; the window delegates data access to the
    underlying MR's pages but enforces its own range and access flags.
    """

    def __init__(self, pd: PD, handle: int):
        self.pd = pd
        self.handle = handle
        self.mr: Optional[MR] = None
        self.addr = 0
        self.length = 0
        self.access = AccessFlags.NONE
        self._access_bits = 0
        self.rkey: Optional[int] = None
        self.invalidated = False

    @property
    def bound(self) -> bool:
        return self.mr is not None and not self.invalidated

    def bind(self, mr: MR, addr: int, length: int, access: AccessFlags, rkey: int) -> None:
        if not mr.access & AccessFlags.MW_BIND:
            raise AccessError("underlying MR lacks MW_BIND permission")
        if not mr.covers(addr, length):
            raise AccessError("window range outside the underlying MR")
        if mr.pd.handle != self.pd.handle:
            raise AccessError("window and MR belong to different PDs")
        self.mr = mr
        self.addr = addr
        self.length = length
        self.access = access
        self._access_bits = access.value
        self.rkey = rkey
        self.invalidated = False

    def covers(self, addr: int, length: int) -> bool:
        return self.addr <= addr and addr + length <= self.addr + self.length

    def check_remote(self, addr: int, length: int, op: str) -> None:
        if not self.bound:
            raise AccessError("access through an unbound memory window")
        if not self.covers(addr, length):
            raise AccessError("remote access outside the memory window")
        needed = _REMOTE_BIT[op]
        if not self._access_bits & needed:
            raise AccessError(
                f"remote {op} without {AccessFlags(needed)} window permission")


class DeviceMemory:
    """On-chip (device) memory: NIC SRAM mapped into the process (§3.3).

    The allocation lives on the NIC; the driver maps it into the
    application's virtual address space.  On migration the new NIC allocates
    a same-sized region and the mapping is ``mremap``-ed to the original
    virtual address.
    """

    def __init__(self, handle: int, length: int):
        if length <= 0:
            raise ResourceError(f"device memory length must be positive, got {length}")
        self.handle = handle
        self.length = length
        self.mapped_addr: Optional[int] = None
        self.freed = False

    def __repr__(self) -> str:
        return f"<DeviceMemory {self.handle} len={self.length} mapped={self.mapped_addr}>"
