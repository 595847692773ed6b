"""Error types raised by the RNIC model.

Synchronous misuse (bad arguments, illegal state transitions, exhausted
resources) raises; data-path failures that a real NIC reports through
completion statuses are delivered as error CQEs instead, matching verbs
semantics.
"""

from __future__ import annotations


class RnicError(Exception):
    """Base class for RNIC model errors."""


class ResourceError(RnicError):
    """Exhausted or unknown resource (QPs, keys, device memory)."""


class QPStateError(RnicError):
    """Illegal QP state transition or operation in the wrong state."""


class AccessError(RnicError):
    """Memory authorization failure detected synchronously (bad lkey)."""


class CQError(RnicError):
    """Completion-queue misuse (overflow, polling a destroyed CQ)."""
