"""CUBIC congestion control (RFC 8312-style window growth).

The window follows ``W(t) = C·(t − K)³ + W_max`` where ``t`` is the time
since the last congestion event, ``W_max`` the window at that event and
``K = ∛(W_max·β/C)`` the time at which the curve returns to ``W_max``.
CUBIC grows aggressively far from ``W_max`` and plateaus near it; like
Reno it is loss-based and therefore queue-filling.
"""

from __future__ import annotations

from .base import MIN_CWND, CongestionControl, FluidFlows

__all__ = ["Cubic"]


class Cubic(CongestionControl):
    name = "cubic"
    kind = "window"

    def __init__(self, *, c: float = 0.4, beta: float = 0.7):
        self.c = c
        self.beta = beta
        super().__init__()

    def reset(self, *, now: float, base_rtt_hint: float | None = None) -> None:
        super().reset(now=now, base_rtt_hint=base_rtt_hint)
        self.w_max = 0.0
        self.epoch_start: float | None = None
        self.k = 0.0
        self.ssthresh = 64.0

    def in_slow_start(self) -> bool:
        return self.w_max == 0.0 and self.cwnd < self.ssthresh

    def _cubic_window(self, now: float) -> float:
        if self.epoch_start is None:
            self.epoch_start = now
            self.k = (self.w_max * (1.0 - self.beta) / self.c) ** (1.0 / 3.0)
        t = now - self.epoch_start
        return self.c * (t - self.k) ** 3 + self.w_max

    def on_ack(self, *, now: float, rtt: float, delivered_rate: float | None = None) -> None:
        self.observe_rtt(rtt)
        if self.in_slow_start():
            self.cwnd += 1.0
            return
        target = self._cubic_window(now + rtt)
        if target > self.cwnd:
            # Spread the gap over roughly one window of ACKs.
            self.cwnd += (target - self.cwnd) / self.cwnd
        else:
            self.cwnd += 0.01 / self.cwnd  # minimal growth in the plateau

    def on_loss(self, *, now: float) -> None:
        self.w_max = self.cwnd
        self.cwnd = max(MIN_CWND, self.cwnd * self.beta)
        self.ssthresh = self.cwnd
        self.epoch_start = None
        self.last_loss_reaction = now

    def fluid_flows(self, n_flows: int) -> CubicFluid:
        return CubicFluid(self, n_flows)


class CubicFluid(FluidFlows):
    """CUBIC's fluid law: ACK-clocked catch-up toward the cubic curve."""

    def __init__(self, cubic: Cubic, n_flows: int):
        super().__init__(cubic, n_flows)
        self.c = cubic.c
        self.beta = cubic.beta
        self.w_max = [cubic.w_max] * n_flows
        self.epoch_start = [cubic.epoch_start] * n_flows
        self.k = [cubic.k] * n_flows
        self.ssthresh = [cubic.ssthresh] * n_flows

    def step(self, now, dt, rtt, rates, inv_arrival, overflow, served, loss_rate):
        cwnd, credit, last_loss = self.cwnd, self.credit, self.last_loss
        w_max, epoch_start, k, ssthresh = self.w_max, self.epoch_start, self.k, self.ssthresh
        c, beta = self.c, self.beta
        lost_total = self.lost_total
        horizon = now + rtt  # the curve is evaluated one RTT ahead
        rtt_floor = rtt if rtt > 1e-6 else 1e-6
        catch_up = dt / rtt_floor  # close the gap to the curve over ~1 RTT
        if catch_up > 1.0:
            catch_up = 1.0
        plateau = 0.01 * dt / rtt_floor
        for i, rate in enumerate(rates):
            share = rate * inv_arrival
            losses = rate * dt * loss_rate + overflow * share
            lost_total += losses
            window = cwnd[i]
            if w_max[i] == 0.0 and window < ssthresh[i]:
                window += served * share * dt
                cap = ssthresh[i] * 2
                if cap < window:
                    window = cap
            else:
                epoch = epoch_start[i]
                if epoch is None:
                    epoch_start[i] = epoch = horizon
                    k[i] = (w_max[i] * (1.0 - beta) / c) ** (1.0 / 3.0)
                target = c * (horizon - epoch - k[i]) ** 3 + w_max[i]
                if target > window:
                    window += (target - window) * catch_up
                else:
                    window += plateau
            loss_credit = credit[i] + losses
            if loss_credit >= 1.0 and now - last_loss[i] >= rtt:
                loss_credit = 0.0
                last_loss[i] = now
                w_max[i] = window
                window *= beta
                if window < MIN_CWND:
                    window = MIN_CWND
                ssthresh[i] = window
                epoch_start[i] = None
            credit[i] = loss_credit
            cwnd[i] = window
        self.lost_total = lost_total
