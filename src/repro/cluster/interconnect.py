"""Modeled interconnect: serialized sends, deterministic delivery.

Cross-node extend-add contributions travel as :class:`Message`\\ s.  A
message occupies the *sender's* NIC for ``nbytes / bandwidth`` seconds —
messages from one node serialize behind each other, exactly like the
per-engine timelines of :mod:`repro.gpu.clock` — and lands at the
receiver ``latency`` seconds after it leaves the wire.  Every message
carries a monotonically increasing ``seq`` assigned in send order, the
tiebreak that keeps delivery (and therefore the whole cluster run)
bit-for-bit deterministic under simultaneous arrivals.

:func:`update_message_bytes` prices the serialized form of a child's
update block: the dense ``m x m`` fp64 lower triangle is shipped whole
(fan-both sends the full block; the receiver consumes it in one
extend-add), plus the ``m`` global row indices that map it into the
parent front, plus a fixed header.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import InterconnectParams

__all__ = ["Message", "Interconnect", "update_message_bytes"]

#: per-message envelope: sender, receiver, supernode id, sizes, crc
_HEADER_BYTES = 64


def update_message_bytes(m: int) -> int:
    """Serialized bytes of an ``m x m`` update block contribution."""
    if m <= 0:
        return 0
    return m * m * 8 + m * 8 + _HEADER_BYTES


@dataclass(frozen=True)
class Message:
    """One in-flight update contribution (all times in simulated seconds)."""

    seq: int
    src: int
    dst: int
    sid: int                 # child supernode whose update this carries
    nbytes: int
    send_start: float        # enters the sender's NIC
    send_end: float          # leaves the wire (NIC free again)
    arrival: float           # delivered at the receiver

    @property
    def wire_seconds(self) -> float:
        return self.send_end - self.send_start


class Interconnect:
    """Per-node NIC serialization plus fleet-wide byte accounting."""

    def __init__(self, n_nodes: int, params: InterconnectParams):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.params = params
        self.n_nodes = n_nodes
        self._nic_free = [0.0] * n_nodes
        self._seq = 0
        self.messages: list[Message] = []
        self.comm_bytes = 0.0
        self.comm_seconds = 0.0

    @property
    def comm_messages(self) -> int:
        return len(self.messages)

    def nic_busy(self) -> list[float]:
        """Wire-occupancy seconds per sending node."""
        busy = [0.0] * self.n_nodes
        for msg in self.messages:
            busy[msg.src] += msg.wire_seconds
        return busy

    def send_update(
        self, src: int, dst: int, sid: int, m: int, ready: float
    ) -> Message:
        """Enqueue supernode ``sid``'s ``m x m`` update block from ``src``
        to ``dst``, available at ``ready``; returns the scheduled
        :class:`Message`."""
        if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
            raise ValueError("message endpoints outside the cluster")
        nbytes = update_message_bytes(m)
        start = max(float(ready), self._nic_free[src])
        send_end = start + nbytes / self.params.bandwidth
        arrival = send_end + self.params.latency
        self._nic_free[src] = send_end
        msg = Message(self._seq, src, dst, sid, nbytes, start, send_end, arrival)
        self._seq += 1
        self.messages.append(msg)
        self.comm_bytes += nbytes
        self.comm_seconds += self.params.time(nbytes)
        return msg
