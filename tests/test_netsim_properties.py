"""Property-based invariants of the network emulators.

Whatever the scenario, certain physics must hold: delays are bounded below
by propagation, utilization cannot exceed 1, counters conserve packets.
Hypothesis drives both engines across the scenario space.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim import (
    NetworkScenario,
    Sender,
    Simulator,
    BottleneckLink,
    FluidTrace,
    run_fluid_scenario,
    run_packet_scenario,
)
from repro.netsim.cc import make_protocol

_scenarios = st.builds(
    NetworkScenario,
    bandwidth_mbps=st.floats(1.0, 80.0),
    rtt_ms=st.floats(5.0, 150.0),
    loss_rate=st.floats(0.0, 0.02),
    n_flows=st.integers(1, 4),
    queue_bdp=st.floats(0.5, 3.0),
)

_protocols = st.sampled_from(["reno", "cubic", "vegas", "scream", "bbr"])


@settings(max_examples=20, deadline=None)
@given(scenario=_scenarios, protocol=_protocols, seed=st.integers(0, 2**31 - 1))
# Weighted mean 35.381 ms above a 35.0 ms p95: a heavy tail, not an error.
@example(scenario=NetworkScenario(24.0, 70.0, 0.005148712384964759, 4, 1.0), protocol="reno", seed=1)
def test_fluid_engine_invariants_property(scenario, protocol, seed):
    trace = FluidTrace()
    metrics = run_fluid_scenario(scenario, protocol, random_state=seed, trace=trace)
    # Physics: one-way delay is at least half the base RTT.
    assert metrics.avg_delay_ms >= scenario.rtt_ms / 2.0 - 1e-6
    # The weighted p95 leaves at most 5% of the weight above it, so the
    # weighted mean is at most 0.95·p95 + 0.05·(largest sampled delay).
    # The mean may exceed p95 when that 5% tail is long.
    times, queue, _ = trace.as_arrays()
    # Delay samples start after run_fluid_scenario's default 25% warm-up.
    delays = (scenario.base_rtt_s / 2.0 + queue / scenario.bandwidth_pps) * 1000.0
    max_delay_ms = delays[times >= 0.25 * metrics.duration].max()
    bound = 0.95 * metrics.p95_delay_ms + 0.05 * max_delay_ms
    assert metrics.avg_delay_ms <= bound * (1.0 + 1e-9)
    # Delay is bounded by propagation + a full queue.
    max_queue_delay_ms = scenario.queue_capacity_packets / scenario.bandwidth_pps * 1000.0
    assert metrics.p95_delay_ms <= scenario.rtt_ms / 2.0 + max_queue_delay_ms + 1e-6
    # Capacity and probability bounds.
    assert 0.0 <= metrics.utilization <= 1.0
    assert metrics.throughput_mbps <= scenario.bandwidth_mbps * 1.01
    assert 0.0 <= metrics.loss_fraction <= 1.0


@settings(max_examples=8, deadline=None)
@given(
    scenario=st.builds(
        NetworkScenario,
        bandwidth_mbps=st.floats(2.0, 20.0),
        rtt_ms=st.floats(10.0, 80.0),
        loss_rate=st.floats(0.0, 0.01),
        n_flows=st.integers(1, 2),
    ),
    protocol=_protocols,
)
def test_packet_engine_invariants_property(scenario, protocol):
    metrics = run_packet_scenario(scenario, protocol, duration=3.0, random_state=0)
    assert metrics.avg_delay_ms >= scenario.rtt_ms / 2.0 - 1e-6
    assert metrics.throughput_mbps <= scenario.bandwidth_mbps * 1.05
    assert 0.0 <= metrics.loss_fraction <= 1.0
    assert 0.0 <= metrics.utilization <= 1.0


@settings(max_examples=10, deadline=None)
@given(protocol=_protocols, seed=st.integers(0, 2**31 - 1))
def test_sender_packet_conservation_property(protocol, seed):
    """sent = inflight + delivered + detected-lost (+ yet-undetected)."""
    sim = Simulator()
    link = BottleneckLink(
        sim, rate_pps=300.0, one_way_delay=0.02, queue_capacity=30,
        loss_rate=0.005, rng=np.random.default_rng(seed),
    )
    sender = Sender(sim, link, make_protocol(protocol), flow_id=0, reverse_delay=0.02)
    sim.run(3.0)
    sender.stop()
    stats = sender.stats
    # Each counter is bounded by sent, but the categories overlap at a
    # snapshot: a delivered packet may be awaiting its ACK (still inflight
    # at the sender) and a "lost" one may arrive after the spurious
    # RTO/gap verdict, so no disjoint-sum invariant exists mid-flight.
    assert stats.delivered <= stats.sent
    assert stats.lost <= stats.sent
    assert sender.inflight <= stats.sent
    assert all(delay >= 0.02 - 1e-9 for delay in stats.delays)
    assert len(stats.delays) == stats.delivered
