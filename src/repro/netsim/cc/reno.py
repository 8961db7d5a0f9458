"""TCP Reno (NewReno-style AIMD) congestion control.

Slow start doubles the window every RTT until ``ssthresh``; congestion
avoidance adds one packet per RTT; a loss event halves the window.  Reno is
the canonical loss-based baseline: it fills the bottleneck queue, so its
end-to-end latency degrades with buffer depth — exactly the behaviour that
makes SCReAM attractive for latency-sensitive flows.
"""

from __future__ import annotations

from .base import MIN_CWND, CongestionControl, FluidFlows

__all__ = ["Reno"]


class Reno(CongestionControl):
    name = "reno"
    kind = "window"

    def __init__(self, *, initial_ssthresh: float = 64.0):
        self.initial_ssthresh = initial_ssthresh
        super().__init__()

    def reset(self, *, now: float, base_rtt_hint: float | None = None) -> None:
        super().reset(now=now, base_rtt_hint=base_rtt_hint)
        self.ssthresh = self.initial_ssthresh

    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def on_ack(self, *, now: float, rtt: float, delivered_rate: float | None = None) -> None:
        self.observe_rtt(rtt)
        if self.in_slow_start():
            self.cwnd += 1.0
        else:
            self.cwnd += 1.0 / self.cwnd

    def on_loss(self, *, now: float) -> None:
        self.ssthresh = max(MIN_CWND, self.cwnd / 2.0)
        self.cwnd = self.ssthresh
        self.last_loss_reaction = now

    def fluid_flows(self, n_flows: int) -> RenoFluid:
        return RenoFluid(self, n_flows)


class RenoFluid(FluidFlows):
    """Reno's fluid law: ACK-clocked slow start and +1 packet per RTT,
    halving on a loss event."""

    def __init__(self, reno: Reno, n_flows: int):
        super().__init__(reno, n_flows)
        self.ssthresh = [reno.ssthresh] * n_flows

    def step(self, now, dt, rtt, rates, inv_arrival, overflow, served, loss_rate):
        cwnd, ssthresh, credit, last_loss = self.cwnd, self.ssthresh, self.credit, self.last_loss
        lost_total = self.lost_total
        for i, rate in enumerate(rates):
            share = rate * inv_arrival
            losses = rate * dt * loss_rate + overflow * share
            lost_total += losses
            acks = served * share * dt
            window = cwnd[i]
            if window < ssthresh[i]:
                window += acks  # one extra packet per ACK doubles per RTT
                cap = ssthresh[i] * 2
                if cap < window:
                    window = cap
            else:
                window += acks / window  # +1 packet per RTT
            loss_credit = credit[i] + losses
            if loss_credit >= 1.0 and now - last_loss[i] >= rtt:
                loss_credit = 0.0
                last_loss[i] = now
                window /= 2.0
                if window < MIN_CWND:
                    window = MIN_CWND
                ssthresh[i] = window
            credit[i] = loss_credit
            cwnd[i] = window
        self.lost_total = lost_total
