"""Fluid-model network simulation — the fast engine.

Solves the standard fluid approximation of a shared bottleneck: each flow
contributes its instantaneous sending rate, the queue integrates
``arrival − capacity``, RTT is ``base + queue/capacity``, and the
protocol's fluid law (:class:`~repro.netsim.cc.base.FluidFlows`) advances
every flow's control state by one step.  Overflow and random loss are
converted into expected-loss mass and fed back to the law.

The fluid engine reproduces the steady-state and slow-timescale behaviour
of the packet engine at a tiny fraction of the cost, which is what makes
generating thousands of labeled Scream-vs-rest scenarios tractable
(``tests/test_netsim_engines.py::TestEngineAgreement`` checks the two
engines agree on the qualitative orderings the dataset depends on).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import EmulationError
from ..rng import RandomState, check_random_state
from .cc import make_protocol
from .emulator import FlowMetrics, _weighted_percentile
from .packet import NetworkScenario

__all__ = ["run_fluid_scenario", "FluidTrace"]


class FluidTrace:
    """Optional per-step trace (queue, rates) for inspection and tests."""

    def __init__(self):
        self.times: list[float] = []
        self.queue: list[float] = []
        self.total_rate: list[float] = []

    def record(self, t: float, queue: float, rate: float) -> None:
        self.times.append(t)
        self.queue.append(queue)
        self.total_rate.append(rate)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.asarray(self.times), np.asarray(self.queue), np.asarray(self.total_rate)


def run_fluid_scenario(
    scenario: NetworkScenario,
    protocol: str,
    *,
    duration: float | None = None,
    warmup_fraction: float = 0.25,
    random_state: RandomState = None,
    trace: FluidTrace | None = None,
) -> FlowMetrics:
    """Run the fluid model for one (scenario, protocol) pair.

    ``duration`` defaults to enough RTTs for the control loops to settle
    (at least 60 RTTs, at least 4 seconds).  The first ``warmup_fraction``
    of the run is excluded from latency statistics.
    """
    rng = check_random_state(random_state)
    base_rtt = scenario.base_rtt_s
    capacity = scenario.bandwidth_pps
    queue_cap = float(scenario.queue_capacity_packets)
    if duration is None:
        duration = min(20.0, max(3.0, 50.0 * base_rtt))
    # The control loops operate on RTT timescales, so ~5 steps per RTT
    # resolves the dynamics; the step cap bounds cost on very short-RTT
    # scenarios where the absolute duration floor dominates.
    dt = max(1e-3, base_rtt / 5.0)
    steps = int(np.ceil(duration / dt))
    if steps > 4000:
        steps = 4000
        dt = duration / steps
    if steps < 10:
        raise EmulationError(f"duration {duration}s too short for dt {dt}s")

    flows = make_protocol(protocol).fluid_flows(scenario.n_flows)
    for i in range(scenario.n_flows):
        # Desynchronize control loops slightly, as staggered starts do in
        # the packet engine.
        flows.rate[i] *= float(rng.uniform(0.9, 1.1))
        flows.cwnd[i] *= float(rng.uniform(0.9, 1.1))

    queue = 0.0
    sent_total = 0.0
    delivered_total = 0.0
    delay_samples: list[float] = []
    delay_weights: list[float] = []
    warmup_time = warmup_fraction * duration
    loss_rate = scenario.loss_rate

    # Hot loop: plain floats/lists beat numpy at n_flows <= 8.
    flow_rates, flow_step = flows.rates, flows.step
    for step in range(steps):
        now = step * dt
        rtt_now = base_rtt + queue / capacity
        rates = flow_rates(rtt_now)
        arrival = sum(rates)
        sent_total += arrival * dt

        # Queue integration with drop-tail overflow.
        next_queue = queue + (arrival - capacity) * dt
        overflow = next_queue - queue_cap
        if overflow > 0.0:
            queue = queue_cap
        else:
            overflow = 0.0
            queue = next_queue if next_queue > 0.0 else 0.0

        served = capacity if queue > 0 else min(arrival, capacity)
        delivered_total += served * dt
        inv_arrival = 1.0 / arrival if arrival > 0 else 0.0
        flow_step(now, dt, rtt_now, rates, inv_arrival, overflow, served, loss_rate)

        if trace is not None:
            trace.record(now, queue, arrival)
        if now >= warmup_time:
            delay_samples.append((base_rtt / 2.0 + queue / capacity) * 1000.0)
            delay_weights.append(served * dt)

    delays = np.asarray(delay_samples)
    weights = np.asarray(delay_weights)
    if weights.sum() <= 0:
        raise EmulationError(f"fluid run delivered nothing for {protocol!r} under {scenario}")
    throughput_mbps = delivered_total / duration * 8 * 1500 / 1e6
    return FlowMetrics(
        protocol=protocol,
        scenario=scenario,
        duration=duration,
        avg_delay_ms=float(np.average(delays, weights=weights)),
        p95_delay_ms=_weighted_percentile(delays, weights, 0.95),
        throughput_mbps=float(throughput_mbps),
        # Clamp: per-step float rounding can put lost/sent a few ulps
        # above 1.0 when nearly every packet of a step is dropped.
        loss_fraction=float(min(1.0, flows.lost_total / sent_total)) if sent_total else 0.0,
        utilization=float(min(1.0, delivered_total / (capacity * duration))),
    )
