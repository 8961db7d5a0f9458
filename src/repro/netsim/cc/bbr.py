"""A BBR-like model-based congestion controller.

Maintains the two BBR state variables — a windowed-max estimate of the
bottleneck bandwidth and a windowed-min RTT — and paces at
``pacing_gain · btl_bw`` while cycling the gain through the standard
eight-phase schedule (one probing phase at 1.25, one draining phase at
0.75, six cruising phases at 1.0).  Loss is largely ignored, as in BBRv1;
an inflight cap of ``2·BDP`` bounds the queue it can build.
"""

from __future__ import annotations

from collections import deque

from .base import MIN_RATE_PPS, CongestionControl, FluidFlows

__all__ = ["BBR"]

_GAIN_CYCLE = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
_STARTUP_GROWTH = 1.25  # startup ends after _STARTUP_ROUNDS rounds below this growth
_STARTUP_ROUNDS = 3
_RAMP = 1.05  # per-update rate growth before any bandwidth sample
_LOSS_BETA = 0.95  # BBRv1's mild reaction to a loss event


class BBR(CongestionControl):
    name = "bbr"
    kind = "rate"

    def __init__(self, *, bw_window_s: float = 2.0, startup_gain: float = 2.0):
        self.bw_window_s = bw_window_s
        self.startup_gain = startup_gain
        super().__init__()

    def reset(self, *, now: float, base_rtt_hint: float | None = None) -> None:
        super().reset(now=now, base_rtt_hint=base_rtt_hint)
        self.rate_pps = 20.0
        self.btl_bw = 0.0
        self._bw_samples: deque[tuple[float, float]] = deque()
        self._cycle_index = 0
        self._cycle_start = now
        self._in_startup = True
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._round_start = now

    def _update_bw(self, now: float, delivered_rate: float) -> None:
        """Windowed-max filter via a monotonic deque (O(1) amortized)."""
        if delivered_rate <= 0:
            return
        while self._bw_samples and self._bw_samples[-1][1] <= delivered_rate:
            self._bw_samples.pop()
        self._bw_samples.append((now, delivered_rate))
        cutoff = now - self.bw_window_s
        while self._bw_samples and self._bw_samples[0][0] < cutoff:
            self._bw_samples.popleft()
        self.btl_bw = self._bw_samples[0][1] if self._bw_samples else delivered_rate

    def _check_startup_exit(self) -> None:
        """Leave startup once the bandwidth estimate plateaus (<25% growth)."""
        if self.btl_bw > self._full_bw * _STARTUP_GROWTH:
            self._full_bw = self.btl_bw
            self._full_bw_rounds = 0
        else:
            self._full_bw_rounds += 1
            if self._full_bw_rounds >= _STARTUP_ROUNDS:
                self._in_startup = False

    def _advance_cycle(self, now: float, rtt: float) -> float:
        if self._in_startup:
            return self.startup_gain
        if now - self._cycle_start >= rtt:
            self._cycle_start = now
            self._cycle_index = (self._cycle_index + 1) % len(_GAIN_CYCLE)
        return _GAIN_CYCLE[self._cycle_index]

    def _repace(self, now: float, rtt: float) -> None:
        gain = self._advance_cycle(now, rtt)
        if self.btl_bw > 0:
            self.rate_pps = max(MIN_RATE_PPS, gain * self.btl_bw)
        else:
            self.rate_pps = max(MIN_RATE_PPS, self.rate_pps * _RAMP)

    def inflight_cap(self) -> float:
        """BBR bounds inflight to 2·BDP to limit standing queues.

        A small absolute floor keeps the ACK clock alive on low-BDP paths,
        where a literal 2·BDP cap could starve the bandwidth estimator.
        """
        if self.btl_bw <= 0 or self.min_rtt == float("inf"):
            return float("inf")
        gain = self.startup_gain if self._in_startup else 1.0
        return max(4.0, 2.0 * gain * self.btl_bw * self.min_rtt)

    def on_ack(self, *, now: float, rtt: float, delivered_rate: float | None = None) -> None:
        self.observe_rtt(rtt)
        if delivered_rate is not None:
            self._update_bw(now, delivered_rate)
        # Startup-exit is a per-round-trip decision, not per ACK.
        if self._in_startup and now - self._round_start >= rtt:
            self._round_start = now
            self._check_startup_exit()
        self._repace(now, rtt)

    def on_loss(self, *, now: float) -> None:
        # BBRv1 reacts to loss only via a mild rate floor adjustment.
        self.rate_pps = max(MIN_RATE_PPS, self.rate_pps * _LOSS_BETA)
        self.last_loss_reaction = now

    def fluid_flows(self, n_flows: int) -> BBRFluid:
        return BBRFluid(self, n_flows)


class BBRFluid(FluidFlows):
    """BBR's fluid law: per-flow bandwidth filter, startup and gain cycle."""

    def __init__(self, bbr: BBR, n_flows: int):
        super().__init__(bbr, n_flows)
        self.bw_window_s = bbr.bw_window_s
        self.startup_gain = bbr.startup_gain
        self.btl_bw = [bbr.btl_bw] * n_flows
        self.bw_samples = [deque(bbr._bw_samples) for _ in range(n_flows)]
        self.cycle_index = [bbr._cycle_index] * n_flows
        self.cycle_start = [bbr._cycle_start] * n_flows
        self.in_startup = [bbr._in_startup] * n_flows
        self.full_bw = [bbr._full_bw] * n_flows
        self.full_bw_rounds = [bbr._full_bw_rounds] * n_flows

    def rates(self, rtt: float) -> list[float]:
        """Each flow's pacing rate (packets/s)."""
        return [rate if rate > MIN_RATE_PPS else MIN_RATE_PPS for rate in self.rate]

    def step(self, now, dt, rtt, rates, inv_arrival, overflow, served, loss_rate):
        pacing, credit, last_loss = self.rate, self.credit, self.last_loss
        btl_bw, bw_samples = self.btl_bw, self.bw_samples
        cycle_index, cycle_start, in_startup = self.cycle_index, self.cycle_start, self.in_startup
        bw_window_s, startup_gain = self.bw_window_s, self.startup_gain
        lost_total = self.lost_total
        for i, rate in enumerate(rates):
            share = rate * inv_arrival
            losses = rate * dt * loss_rate + overflow * share
            lost_total += losses
            delivered_rate = served * share
            if delivered_rate > 0:
                # The windowed-max filter of BBR._update_bw, inlined.
                samples = bw_samples[i]
                while samples and samples[-1][1] <= delivered_rate:
                    samples.pop()
                samples.append((now, delivered_rate))
                cutoff = now - bw_window_s
                while samples and samples[0][0] < cutoff:
                    samples.popleft()
                btl_bw[i] = samples[0][1] if samples else delivered_rate
            bw = btl_bw[i]
            if in_startup[i]:
                # The startup-exit check runs once per round trip.
                if now - cycle_start[i] >= rtt:
                    cycle_start[i] = now
                    if bw > self.full_bw[i] * _STARTUP_GROWTH:
                        self.full_bw[i] = bw
                        self.full_bw_rounds[i] = 0
                    else:
                        self.full_bw_rounds[i] += 1
                        if self.full_bw_rounds[i] >= _STARTUP_ROUNDS:
                            in_startup[i] = False
            if in_startup[i]:
                gain = startup_gain
            else:
                if now - cycle_start[i] >= rtt:
                    cycle_start[i] = now
                    cycle_index[i] = (cycle_index[i] + 1) % len(_GAIN_CYCLE)
                gain = _GAIN_CYCLE[cycle_index[i]]
            if bw > 0:
                pace = gain * bw
            else:
                pace = pacing[i] * _RAMP
            if pace < MIN_RATE_PPS:
                pace = MIN_RATE_PPS
            loss_credit = credit[i] + losses
            if loss_credit >= 1.0 and now - last_loss[i] >= rtt:
                loss_credit = 0.0
                last_loss[i] = now
                pace *= _LOSS_BETA
                if pace < MIN_RATE_PPS:
                    pace = MIN_RATE_PPS
            credit[i] = loss_credit
            pacing[i] = pace
        self.lost_total = lost_total

