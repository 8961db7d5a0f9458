"""TCP Vegas delay-based congestion control.

Vegas compares the expected throughput (``cwnd / base_rtt``) against the
actual throughput (``cwnd / rtt``); the difference, expressed in packets
queued at the bottleneck, is kept between ``alpha`` and ``beta`` by ±1
packet-per-RTT adjustments.  Vegas keeps queues short, which makes it the
closest in spirit to SCReAM among the classic algorithms — and the main
source of "SCReAM is not best" labels in the dataset.
"""

from __future__ import annotations

from .base import MIN_CWND, CongestionControl, FluidFlows

__all__ = ["Vegas"]

_LOSS_BETA = 0.75  # multiplicative decrease on a loss event


class Vegas(CongestionControl):
    name = "vegas"
    kind = "window"

    def __init__(self, *, alpha: float = 2.0, beta: float = 4.0):
        if alpha > beta:
            raise ValueError(f"vegas alpha {alpha} must be <= beta {beta}")
        self.alpha = alpha
        self.beta = beta
        super().__init__()

    def reset(self, *, now: float, base_rtt_hint: float | None = None) -> None:
        super().reset(now=now, base_rtt_hint=base_rtt_hint)
        self.ssthresh = 32.0
        self._acks_this_rtt = 0.0
        self._rtt_epoch = now

    def _queued_packets(self, rtt: float) -> float:
        """Vegas' diff: estimated packets this flow keeps in the queue."""
        if self.min_rtt == float("inf") or self.min_rtt <= 0:
            return 0.0
        expected = self.cwnd / self.min_rtt
        actual = self.cwnd / rtt
        return (expected - actual) * self.min_rtt

    def _adjust(self, rtt: float, scale: float) -> None:
        diff = self._queued_packets(rtt)
        if self.cwnd < self.ssthresh and diff < self.alpha:
            self.cwnd += scale  # slow-start-like growth while under target
        elif diff < self.alpha:
            self.cwnd += scale
        elif diff > self.beta:
            self.cwnd = max(MIN_CWND, self.cwnd - scale)

    def on_ack(self, *, now: float, rtt: float, delivered_rate: float | None = None) -> None:
        self.observe_rtt(rtt)
        # Apply the per-RTT ±1 adjustment smoothly, one ACK at a time.
        self._adjust(rtt, scale=1.0 / max(self.cwnd, 1.0))

    def on_loss(self, *, now: float) -> None:
        self.cwnd = max(MIN_CWND, self.cwnd * _LOSS_BETA)
        self.last_loss_reaction = now

    def fluid_flows(self, n_flows: int) -> VegasFluid:
        return VegasFluid(self, n_flows)


class VegasFluid(FluidFlows):
    """Vegas' fluid law: the per-RTT ±1 adjustment, spread over the step."""

    def __init__(self, vegas: Vegas, n_flows: int):
        super().__init__(vegas, n_flows)
        self.alpha = vegas.alpha
        self.beta = vegas.beta
        # One estimate for the run: every flow observes the same RTT.
        self.min_rtt = vegas.min_rtt

    def step(self, now, dt, rtt, rates, inv_arrival, overflow, served, loss_rate):
        cwnd, credit, last_loss = self.cwnd, self.credit, self.last_loss
        alpha, beta = self.alpha, self.beta
        lost_total = self.lost_total
        if rtt < self.min_rtt:
            self.min_rtt = rtt
        min_rtt = self.min_rtt
        scale = dt / (rtt if rtt > 1e-6 else 1e-6)
        for i, rate in enumerate(rates):
            share = rate * inv_arrival
            losses = rate * dt * loss_rate + overflow * share
            lost_total += losses
            window = cwnd[i]
            queued = (window / min_rtt - window / rtt) * min_rtt
            # Below ssthresh Vegas grows by the same step, so only the
            # queue estimate decides.
            if queued < alpha:
                window += scale
            elif queued > beta:
                window -= scale
                if window < MIN_CWND:
                    window = MIN_CWND
            loss_credit = credit[i] + losses
            if loss_credit >= 1.0 and now - last_loss[i] >= rtt:
                loss_credit = 0.0
                last_loss[i] = now
                window *= _LOSS_BETA
                if window < MIN_CWND:
                    window = MIN_CWND
            credit[i] = loss_credit
            cwnd[i] = window
        self.lost_total = lost_total
