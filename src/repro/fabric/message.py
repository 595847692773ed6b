"""Wire messages.

A :class:`Message` is what crosses the fabric: it carries an explicit wire
size (which determines serialization time) and an arbitrary payload object
interpreted by the receiving protocol handler (RDMA engine, TCP endpoint,
or the migration control plane).
"""

from __future__ import annotations

from typing import Any


class Message:
    """A unit of transmission on the fabric."""

    __slots__ = ("src", "dst", "protocol", "size_bytes", "payload")

    def __init__(self, src: str, dst: str, protocol: str, size_bytes: int,
                 payload: Any = None):
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.size_bytes = size_bytes
        self.payload = payload

    def __repr__(self) -> str:
        return f"<Message {self.src}->{self.dst} proto={self.protocol} {self.size_bytes}B>"
