"""Tests for the congestion-control algorithms (protocol semantics)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.netsim.cc import BBR, PROTOCOLS, Cubic, Reno, Scream, Vegas, make_protocol


def fluid_step(law, *, now, dt, rtt, delivered_rate, expected_losses=0.0):
    """Advance a one-flow fluid law by one step.

    The lone flow holds the whole bottleneck (share 1.0), so it is
    delivered ``delivered_rate`` and takes all of ``expected_losses``.
    """
    law.step(now, dt, rtt, [1.0], 1.0, expected_losses, delivered_rate, 0.0)


class TestRegistry:
    def test_all_protocols_constructible(self):
        for name in PROTOCOLS:
            controller = make_protocol(name)
            assert controller.name == name

    def test_unknown_protocol(self):
        with pytest.raises(ValidationError):
            make_protocol("warp_drive")

    def test_expected_membership(self):
        assert set(PROTOCOLS) == {"reno", "cubic", "vegas", "scream", "bbr"}


class TestReno:
    def test_slow_start_doubles_per_rtt_of_acks(self):
        reno = Reno()
        reno.reset(now=0.0)
        start = reno.cwnd
        for i in range(int(start)):
            reno.on_ack(now=0.01 * i, rtt=0.05)
        assert reno.cwnd == pytest.approx(2 * start)

    def test_congestion_avoidance_adds_one_per_window(self):
        reno = Reno()
        reno.reset(now=0.0)
        reno.ssthresh = 1.0  # force congestion avoidance
        reno.cwnd = 10.0
        for i in range(10):
            reno.on_ack(now=0.01 * i, rtt=0.05)
        assert reno.cwnd == pytest.approx(11.0, abs=0.1)

    def test_loss_halves_window(self):
        reno = Reno()
        reno.reset(now=0.0)
        reno.cwnd = 20.0
        reno.on_loss(now=1.0)
        assert reno.cwnd == pytest.approx(10.0)
        assert reno.ssthresh == pytest.approx(10.0)

    def test_window_floor(self):
        reno = Reno()
        reno.reset(now=0.0)
        reno.cwnd = 1.0
        for _ in range(5):
            reno.on_loss(now=0.0)
        assert reno.congestion_window() >= 1.0

    def test_fluid_growth_matches_event_growth(self):
        event = Reno()
        event.reset(now=0.0)
        event.ssthresh = 1.0
        event.cwnd = 10.0
        fluid = Reno().fluid_flows(1)
        fluid.ssthresh[0] = 1.0
        fluid.cwnd[0] = 10.0
        # One RTT of acks: 10 acks event-wise == one fluid step of rtt with
        # delivered_rate = cwnd/rtt.
        for i in range(10):
            event.on_ack(now=0.0, rtt=0.1)
        fluid_step(fluid, now=0.0, dt=0.1, rtt=0.1, delivered_rate=100.0)
        assert fluid.cwnd[0] == pytest.approx(event.cwnd, rel=0.05)


class TestCubic:
    def test_loss_reduces_by_beta(self):
        cubic = Cubic()
        cubic.reset(now=0.0)
        cubic.cwnd = 100.0
        cubic.on_loss(now=1.0)
        assert cubic.cwnd == pytest.approx(70.0)
        assert cubic.w_max == 100.0

    def test_recovers_toward_w_max(self):
        cubic = Cubic()
        cubic.reset(now=0.0)
        cubic.cwnd = 100.0
        cubic.on_loss(now=0.0)
        fluid = cubic.fluid_flows(1)
        for step in range(400):
            fluid_step(fluid, now=0.01 * step, dt=0.01, rtt=0.05, delivered_rate=1000.0)
        assert fluid.cwnd[0] == pytest.approx(100.0, rel=0.2)

    def test_concave_then_convex_growth(self):
        cubic = Cubic()
        cubic.reset(now=0.0)
        cubic.cwnd = 100.0
        cubic.on_loss(now=0.0)
        fluid = cubic.fluid_flows(1)
        windows = []
        for step in range(1000):
            fluid_step(fluid, now=0.01 * step, dt=0.01, rtt=0.05, delivered_rate=1000.0)
            windows.append(fluid.cwnd[0])
        growth = np.diff(windows)
        k_index = int(fluid.k[0] / 0.01)
        if 10 < k_index < 900:
            early = growth[:k_index].mean()
            late = growth[k_index + 50 :].mean()
            assert late > 0  # convex region grows again

    def test_invalid_vegas_params(self):
        with pytest.raises(ValueError):
            Vegas(alpha=5.0, beta=2.0)


class TestVegas:
    def test_grows_when_queue_empty(self):
        vegas = Vegas()
        vegas.reset(now=0.0)
        vegas.cwnd = 10.0
        vegas.observe_rtt(0.05)
        before = vegas.cwnd
        for i in range(10):
            vegas.on_ack(now=0.01 * i, rtt=0.05)  # rtt == base: no queue
        assert vegas.cwnd > before

    def test_shrinks_when_queue_deep(self):
        vegas = Vegas()
        vegas.reset(now=0.0)
        vegas.cwnd = 50.0
        vegas.observe_rtt(0.05)
        before = vegas.cwnd
        for i in range(10):
            vegas.on_ack(now=0.01 * i, rtt=0.2)  # heavy queueing
        assert vegas.cwnd < before

    def test_equilibrium_between_alpha_and_beta(self):
        vegas = Vegas(alpha=2.0, beta=4.0)
        vegas.reset(now=0.0)
        vegas.observe_rtt(0.1)
        fluid = vegas.fluid_flows(1)
        capacity = 500.0  # pkts/s
        queue = 0.0
        for step in range(4000):
            rtt = 0.1 + queue / capacity
            rate = fluid.rates(rtt)[0]
            queue = max(0.0, queue + (rate - capacity) * 0.01)
            fluid_step(fluid, now=step * 0.01, dt=0.01, rtt=rtt, delivered_rate=min(rate, capacity))
        assert 1.0 <= queue <= 6.0  # settles between alpha and beta packets


class TestScream:
    def test_grows_below_target_delay(self):
        scream = Scream(target_delay=0.05)
        scream.reset(now=0.0)
        scream.observe_rtt(0.05)
        before = scream.cwnd
        for i in range(20):
            scream.on_ack(now=0.01 * i, rtt=0.06)  # 10ms queue < 50ms target
        assert scream.cwnd > before

    def test_shrinks_above_target_delay(self):
        scream = Scream(target_delay=0.02)
        scream.reset(now=0.0)
        scream.observe_rtt(0.05)
        scream.cwnd = 50.0
        for i in range(20):
            scream.on_ack(now=0.01 * i, rtt=0.15)  # 100ms queue >> target
        assert scream.cwnd < 50.0

    def test_loss_backoff(self):
        scream = Scream(loss_beta=0.8)
        scream.reset(now=0.0)
        scream.cwnd = 10.0
        scream.on_loss(now=0.0)
        assert scream.cwnd == pytest.approx(8.0)

    def test_shrink_bounded_per_step(self):
        scream = Scream(target_delay=0.01, max_shrink_per_rtt=0.5)
        scream.reset(now=0.0)
        scream.observe_rtt(0.01)
        scream.cwnd = 100.0
        fluid = scream.fluid_flows(1)
        fluid_step(fluid, now=0.0, dt=0.01, rtt=1.0, delivered_rate=10.0)
        # One step of dt/rtt = 0.01 of an RTT: shrink <= 0.5% of the window.
        assert fluid.cwnd[0] >= 99.0

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            Scream(target_delay=0.0)

    def test_steady_state_queue_near_target(self):
        scream = Scream(target_delay=0.02)
        scream.reset(now=0.0)
        capacity = 800.0
        base_rtt = 0.04
        queue = 0.0
        scream.observe_rtt(base_rtt)
        fluid = scream.fluid_flows(1)
        for step in range(6000):
            rtt = base_rtt + queue / capacity
            rate = fluid.rates(rtt)[0]
            queue = max(0.0, queue + (rate - capacity) * 0.005)
            fluid_step(fluid, now=step * 0.005, dt=0.005, rtt=rtt, delivered_rate=min(rate, capacity))
        final_queue_delay = queue / capacity
        assert final_queue_delay == pytest.approx(0.02, abs=0.015)


class TestBBR:
    def test_bandwidth_filter_takes_windowed_max(self):
        bbr = BBR(bw_window_s=1.0)
        bbr.reset(now=0.0)
        bbr._update_bw(0.0, 100.0)
        bbr._update_bw(0.5, 80.0)
        assert bbr.btl_bw == 100.0
        bbr._update_bw(1.6, 90.0)  # the 100 sample has expired
        assert bbr.btl_bw == 90.0

    def test_startup_exits_after_plateau(self):
        bbr = BBR()
        bbr.reset(now=0.0)
        for round_index in range(10):
            bbr.on_ack(now=0.1 * (round_index + 1), rtt=0.1, delivered_rate=100.0)
        assert not bbr._in_startup

    def test_paces_above_estimate_when_probing(self):
        bbr = BBR()
        bbr.reset(now=0.0)
        bbr._in_startup = False
        bbr.btl_bw = 100.0
        fluid = bbr.fluid_flows(1)
        gains = set()
        for step in range(40):
            fluid_step(fluid, now=0.05 * step, dt=0.05, rtt=0.05, delivered_rate=100.0)
            gains.add(round(fluid.rate[0] / 100.0, 2))
        assert 1.25 in gains and 0.75 in gains

    def test_inflight_cap_has_floor(self):
        bbr = BBR()
        bbr.reset(now=0.0)
        bbr.btl_bw = 1.0
        bbr.min_rtt = 0.01
        assert bbr.inflight_cap() >= 4.0

    def test_loss_barely_reacts(self):
        bbr = BBR()
        bbr.reset(now=0.0)
        bbr.rate_pps = 100.0
        bbr.on_loss(now=0.0)
        assert bbr.rate_pps == pytest.approx(95.0)


class TestSharedMachinery:
    def test_queue_delay_estimate(self):
        reno = Reno()
        reno.reset(now=0.0)
        reno.observe_rtt(0.05)
        assert reno.queue_delay(0.08) == pytest.approx(0.03)
        assert reno.queue_delay(0.04) == 0.0  # below min: clamped

    def test_loss_credit_fires_once_per_window(self):
        reno = Reno()
        reno.reset(now=0.0)
        reno.cwnd = 64.0
        fluid = reno.fluid_flows(1)
        fluid_step(fluid, now=1.0, dt=0.01, rtt=0.1, delivered_rate=0.0, expected_losses=1.5)
        fired = fluid.last_loss[0] == 1.0
        assert fired and fluid.cwnd[0] == pytest.approx(32.0)
        # Immediately after, another loss must NOT fire (same window).
        fluid_step(fluid, now=1.01, dt=0.01, rtt=0.1, delivered_rate=0.0, expected_losses=1.5)
        fired_again = fluid.last_loss[0] == 1.01
        assert not fired_again

    def test_sending_rate_window_vs_rate(self):
        reno = Reno()
        reno.reset(now=0.0)
        reno.cwnd = 10.0
        assert reno.fluid_flows(1).rates(0.1)[0] == pytest.approx(100.0)
        bbr = BBR()
        bbr.reset(now=0.0)
        bbr.rate_pps = 123.0
        assert bbr.fluid_flows(1).rates(0.1)[0] == pytest.approx(123.0)

    def test_negative_rtt_rejected(self):
        reno = Reno()
        with pytest.raises(Exception):
            reno.observe_rtt(-0.1)
