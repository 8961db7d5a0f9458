"""Bottleneck link with a drop-tail FIFO queue.

The link serializes packets at a fixed rate, applies constant one-way
propagation delay, drops on queue overflow (drop-tail) and models random
wire loss with a Bernoulli draw per packet.  Per-packet enqueue/dequeue
timestamps feed the latency statistics the Scream-vs-rest labels are built
from.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from ..exceptions import EmulationError
from ..rng import check_random_state
from .events import Simulator
from .packet import Packet

__all__ = ["BottleneckLink", "LinkStats"]


class LinkStats:
    """Counters the link maintains for diagnostics and tests."""

    def __init__(self):
        self.enqueued = 0
        self.delivered = 0
        self.dropped_overflow = 0
        self.dropped_random = 0
        self.busy_time = 0.0

    @property
    def dropped(self) -> int:
        return self.dropped_overflow + self.dropped_random

    def utilization(self, duration: float) -> float:
        return self.busy_time / duration if duration > 0 else 0.0


class BottleneckLink:
    """A FIFO bottleneck: serialization + propagation + drop-tail + loss."""

    def __init__(
        self,
        sim: Simulator,
        *,
        rate_pps: float,
        one_way_delay: float,
        queue_capacity: int,
        loss_rate: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        if rate_pps <= 0:
            raise EmulationError(f"link rate must be positive, got {rate_pps}")
        if one_way_delay < 0:
            raise EmulationError(f"propagation delay must be >= 0, got {one_way_delay}")
        if queue_capacity < 1:
            raise EmulationError(f"queue capacity must be >= 1, got {queue_capacity}")
        if not 0.0 <= loss_rate < 1.0:
            raise EmulationError(f"loss rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.rate_pps = rate_pps
        self.one_way_delay = one_way_delay
        self.queue_capacity = queue_capacity
        self.loss_rate = loss_rate
        self.rng = check_random_state(rng)
        self._queue: deque[tuple[Packet, Callable[[Packet], None]]] = deque()
        self._busy = False
        self.stats = LinkStats()
        self.drop_listeners: list[Callable[[Packet], None]] = []

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def queueing_delay_estimate(self) -> float:
        """Delay a packet arriving now would see before serialization."""
        return len(self._queue) / self.rate_pps

    def send(self, packet: Packet, deliver: Callable[[Packet], None]) -> bool:
        """Offer a packet to the link; returns ``False`` if dropped."""
        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self.stats.dropped_random += 1
            self._notify_drop(packet)
            return False
        if len(self._queue) >= self.queue_capacity:
            self.stats.dropped_overflow += 1
            self._notify_drop(packet)
            return False
        packet.enqueue_time = self.sim.now
        self._queue.append((packet, deliver))
        self.stats.enqueued += 1
        if not self._busy:
            self._busy = True
            self._transmit_next()
        return True

    def _notify_drop(self, packet: Packet) -> None:
        for listener in self.drop_listeners:
            listener(packet)

    def _transmit_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        packet, deliver = self._queue.popleft()
        serialization = 1.0 / self.rate_pps
        self.stats.busy_time += serialization
        packet.dequeue_time = self.sim.now

        def delivered(packet=packet, deliver=deliver):
            self.stats.delivered += 1
            deliver(packet)

        self.sim.schedule(serialization + self.one_way_delay, delivered)
        self.sim.schedule(serialization, self._transmit_next)
