"""Packet-level emulation harness (the Pantheon-equivalent testbed).

:func:`run_packet_scenario` builds a dumbbell topology — ``n_flows``
senders sharing one bottleneck link — runs it for a fixed duration and
reduces the outcome to :class:`FlowMetrics`: the latency/throughput/loss
summary the Scream-vs-rest labeling uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import EmulationError
from ..rng import RandomState, check_random_state, spawn
from .cc import make_protocol
from .events import Simulator
from .flow import Sender
from .link import BottleneckLink
from .packet import NetworkScenario

__all__ = ["FlowMetrics", "run_packet_scenario"]


@dataclass
class FlowMetrics:
    """Aggregate outcome of one (scenario, protocol) emulation."""

    protocol: str
    scenario: NetworkScenario
    duration: float
    avg_delay_ms: float
    p95_delay_ms: float
    throughput_mbps: float
    loss_fraction: float
    utilization: float

    def latency_score(self, *, min_share: float = 0.08) -> float:
        """Lower-is-better score used for the Scream-vs-rest label.

        A latency-sensitive application needs its media to actually flow: a
        protocol delivering less than ``min_share`` of the per-flow fair
        share is disqualified (``inf``) — otherwise a starving loss-based
        protocol would trivially "win" on latency with an empty queue.
        Among qualified protocols, lower p95 one-way delay wins.
        """
        fair_share = self.scenario.bandwidth_mbps / self.scenario.n_flows
        per_flow_throughput = self.throughput_mbps / self.scenario.n_flows
        if per_flow_throughput < min_share * fair_share:
            return float("inf")
        return self.p95_delay_ms


def _weighted_percentile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    order = np.argsort(values)
    values, weights = values[order], weights[order]
    cumulative = np.cumsum(weights)
    cutoff = q * cumulative[-1]
    return float(values[np.searchsorted(cumulative, cutoff)])


def run_packet_scenario(
    scenario: NetworkScenario,
    protocol: str,
    *,
    duration: float = 8.0,
    warmup: float = 1.0,
    random_state: RandomState = None,
    max_events: int = 2_000_000,
) -> FlowMetrics:
    """Emulate ``n_flows`` senders of ``protocol`` through the bottleneck.

    ``warmup`` seconds of initial transients (slow start, rate ramp) are
    excluded from the latency statistics.
    """
    if duration <= warmup:
        raise EmulationError(f"duration {duration} must exceed warmup {warmup}")
    rng = check_random_state(random_state)
    link_rng, *flow_rngs = spawn(rng, scenario.n_flows + 1)

    sim = Simulator()
    link = BottleneckLink(
        sim,
        rate_pps=scenario.bandwidth_pps,
        one_way_delay=scenario.base_rtt_s / 2.0,
        queue_capacity=scenario.queue_capacity_packets,
        loss_rate=scenario.loss_rate,
        rng=link_rng,
    )
    senders = []
    for flow_id, flow_rng in enumerate(flow_rngs):
        # Stagger flow starts within the first 10% of an RTT-scaled window
        # so synchronized slow starts don't produce artificial phase effects.
        start = float(flow_rng.uniform(0.0, min(0.2, scenario.base_rtt_s * 2)))
        senders.append(
            Sender(
                sim,
                link,
                make_protocol(protocol),
                flow_id=flow_id,
                reverse_delay=scenario.base_rtt_s / 2.0,
                start_time=start,
            )
        )
    sim.run(duration, max_events=max_events)
    for sender in senders:
        sender.stop()

    delays, sent, delivered, lost = [], 0, 0, 0
    for sender in senders:
        # Keep only post-warmup samples for delay statistics.
        n_all = len(sender.stats.delays)
        keep_from = int(n_all * min(1.0, warmup / duration))
        delays.extend(sender.stats.delays[keep_from:])
        sent += sender.stats.sent
        delivered += sender.stats.delivered
        lost += sender.stats.lost
    if not delays:
        raise EmulationError(
            f"no packets delivered for protocol {protocol!r} under {scenario}; scenario is degenerate"
        )
    delays_ms = np.asarray(delays) * 1000.0
    measured = duration - warmup
    throughput_mbps = delivered * 8 * 1500 / duration / 1e6
    return FlowMetrics(
        protocol=protocol,
        scenario=scenario,
        duration=duration,
        avg_delay_ms=float(delays_ms.mean()),
        p95_delay_ms=_weighted_percentile(delays_ms, np.ones_like(delays_ms), 0.95),
        throughput_mbps=float(throughput_mbps),
        loss_fraction=lost / sent if sent else 0.0,
        utilization=link.stats.utilization(duration),
    )
