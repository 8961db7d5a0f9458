"""SCReAM — Self-Clocked Rate Adaptation for Multimedia (RFC 8298 style).

SCReAM is the latency-sensitive controller of the paper's running example.
True to the RFC, it is *self-clocked*: a congestion window is adjusted from
the estimated bottleneck queueing delay (RTT above the observed minimum)
relative to a small target, LEDBAT-style:

- per ACK the window moves by ``gain · (1 − qdelay/target) / cwnd`` —
  growth below the target, proportional shrink above it;
- packet loss applies a multiplicative decrease.

The result is the qualitative SCReAM behaviour the dataset needs: it keeps
the bottleneck queue near its small delay target (low end-to-end latency on
clean networks) but cedes throughput under random loss or against many
queue-filling competitors — the conditions where other protocols win.
"""

from __future__ import annotations

from .base import MIN_CWND, CongestionControl, FluidFlows

__all__ = ["Scream"]


class Scream(CongestionControl):
    name = "scream"
    kind = "window"

    def __init__(
        self,
        *,
        target_delay: float = 0.02,
        gain: float = 0.4,
        loss_beta: float = 0.8,
        max_shrink_per_rtt: float = 0.5,
    ):
        if target_delay <= 0:
            raise ValueError(f"target_delay must be positive, got {target_delay}")
        self.target_delay = target_delay
        self.gain = gain
        self.loss_beta = loss_beta
        self.max_shrink_per_rtt = max_shrink_per_rtt
        super().__init__()

    def reset(self, *, now: float, base_rtt_hint: float | None = None) -> None:
        super().reset(now=now, base_rtt_hint=base_rtt_hint)
        self.cwnd = 4.0

    def _window_step(self, rtt: float, fraction_of_rtt: float) -> None:
        """Move the window by the LEDBAT-style delta for a slice of an RTT.

        ``fraction_of_rtt`` is 1/cwnd for a single ACK (one window's worth
        of ACKs arrives per RTT) or ``dt/rtt`` in the fluid view.
        """
        qdelay = self.queue_delay(rtt)
        pressure = 1.0 - qdelay / self.target_delay  # >0 below target, <0 above
        delta = self.gain * pressure * self.cwnd * fraction_of_rtt
        # Bound the per-RTT shrink so a transient RTT spike cannot collapse
        # the window to nothing in one step.
        max_shrink = self.max_shrink_per_rtt * self.cwnd * fraction_of_rtt
        if delta < -max_shrink:
            delta = -max_shrink
        self.cwnd = max(MIN_CWND, self.cwnd + delta)

    def on_ack(self, *, now: float, rtt: float, delivered_rate: float | None = None) -> None:
        self.observe_rtt(rtt)
        self._window_step(rtt, fraction_of_rtt=1.0 / max(self.cwnd, 1.0))

    def on_loss(self, *, now: float) -> None:
        self.cwnd = max(MIN_CWND, self.cwnd * self.loss_beta)
        self.last_loss_reaction = now

    def fluid_flows(self, n_flows: int) -> ScreamFluid:
        return ScreamFluid(self, n_flows)


class ScreamFluid(FluidFlows):
    """SCReAM's fluid law: the LEDBAT-style step over ``dt/rtt`` of an RTT."""

    def __init__(self, scream: Scream, n_flows: int):
        super().__init__(scream, n_flows)
        self.target_delay = scream.target_delay
        self.gain = scream.gain
        self.loss_beta = scream.loss_beta
        self.max_shrink_per_rtt = scream.max_shrink_per_rtt
        # One estimate for the run: every flow observes the same RTT.
        self.min_rtt = scream.min_rtt

    def step(self, now, dt, rtt, rates, inv_arrival, overflow, served, loss_rate):
        cwnd, credit, last_loss = self.cwnd, self.credit, self.last_loss
        loss_beta, max_shrink_per_rtt = self.loss_beta, self.max_shrink_per_rtt
        lost_total = self.lost_total
        if rtt < self.min_rtt:
            self.min_rtt = rtt
        qdelay = rtt - self.min_rtt
        if qdelay < 0.0:
            qdelay = 0.0
        pressure = 1.0 - qdelay / self.target_delay  # >0 below target, <0 above
        gain_pressure = self.gain * pressure
        fraction_of_rtt = dt / (rtt if rtt > 1e-6 else 1e-6)
        for i, rate in enumerate(rates):
            share = rate * inv_arrival
            losses = rate * dt * loss_rate + overflow * share
            lost_total += losses
            window = cwnd[i]
            delta = gain_pressure * window * fraction_of_rtt
            max_shrink = max_shrink_per_rtt * window * fraction_of_rtt
            if delta < -max_shrink:
                delta = -max_shrink
            window += delta
            if window < MIN_CWND:
                window = MIN_CWND
            loss_credit = credit[i] + losses
            if loss_credit >= 1.0 and now - last_loss[i] >= rtt:
                loss_credit = 0.0
                last_loss[i] = now
                window *= loss_beta
                if window < MIN_CWND:
                    window = MIN_CWND
            credit[i] = loss_credit
            cwnd[i] = window
        self.lost_total = lost_total
