"""Congestion-control algorithm interface.

Each algorithm implements two views of the same control law so that both
simulation engines can drive it:

- **event-driven** (packet engine): one :class:`CongestionControl` per
  sender; :meth:`~CongestionControl.on_ack` / :meth:`~CongestionControl.on_loss`
  are called per packet event;
- **fluid** (fluid engine): one :class:`FluidFlows` law per run, built by
  :meth:`CongestionControl.fluid_flows`, whose :meth:`FluidFlows.step`
  advances every flow of the run over a small time step given the shared
  RTT, the step's loss mass and the delivered rate.  Flow state lives in
  parallel lists (index ``i`` is flow ``i``), so a step is one loop over
  the flows with no per-flow method calls.

A law takes its parameters and initial state from the controller that
builds it, so both views share one set of parameters.

Window-based algorithms (Reno, Cubic, Vegas, SCReAM) expose
``congestion_window``; the rate-based BBR exposes ``pacing_rate_pps``.  The
packet engine translates either into sends; :meth:`FluidFlows.rates` turns
them into instantaneous sending rates.

All quantities are in packets and seconds.  The fluid laws apply the
standard once-per-window congestion reaction through a loss credit:
expected losses accumulate until one "loss event" fires, at most once per
RTT.
"""

from __future__ import annotations

from ...exceptions import EmulationError

__all__ = ["CongestionControl", "FluidFlows", "MIN_CWND", "MIN_RATE_PPS"]

MIN_CWND = 1.0
MIN_RATE_PPS = 1.0


class CongestionControl:
    """Base class; subclasses set ``name`` and ``kind``."""

    name: str = "base"
    kind: str = "window"  # or "rate"

    def __init__(self):
        self.reset(now=0.0)

    # -- lifecycle ---------------------------------------------------------
    def reset(self, *, now: float, base_rtt_hint: float | None = None) -> None:
        """Reinitialize all control state for a fresh connection."""
        self.cwnd = 2.0
        self.rate_pps = MIN_RATE_PPS
        self.min_rtt = base_rtt_hint if base_rtt_hint else float("inf")
        self.last_loss_reaction = -float("inf")
        self._start_time = now

    # -- shared helpers ------------------------------------------------------
    def observe_rtt(self, rtt: float) -> None:
        if rtt <= 0:
            raise EmulationError(f"observed non-positive RTT: {rtt}")
        self.min_rtt = min(self.min_rtt, rtt)

    def queue_delay(self, rtt: float) -> float:
        """Estimated queueing delay: RTT above the observed minimum."""
        if self.min_rtt == float("inf"):
            return 0.0
        return max(0.0, rtt - self.min_rtt)

    def can_react_to_loss(self, now: float, rtt: float) -> bool:
        """Standard once-per-window rule: at most one reaction per RTT."""
        return now - self.last_loss_reaction >= rtt

    # -- event-driven interface (packet engine) -----------------------------
    def on_ack(self, *, now: float, rtt: float, delivered_rate: float | None = None) -> None:
        raise NotImplementedError

    def on_loss(self, *, now: float) -> None:
        raise NotImplementedError

    # -- fluid interface -----------------------------------------------------
    def fluid_flows(self, n_flows: int) -> FluidFlows:
        """This protocol's fluid law over ``n_flows`` flows, each starting
        from this controller's parameters and state."""
        raise NotImplementedError

    # -- engine-facing output ------------------------------------------------
    def congestion_window(self) -> float:
        return max(MIN_CWND, self.cwnd)

    def pacing_rate_pps(self) -> float:
        return max(MIN_RATE_PPS, self.rate_pps)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(cwnd={self.cwnd:.1f}, rate={self.rate_pps:.1f}pps)"


class FluidFlows:
    """Fluid-engine state of every flow of one run, as parallel lists.

    Index ``i`` of each list is flow ``i``.  The lists here are the state
    every protocol's law keeps; a subclass per protocol adds its own and
    implements :meth:`step`.  ``lost_total`` sums the expected losses of
    every flow and step, in that order, for the engine's loss fraction.
    """

    def __init__(self, controller: CongestionControl, n_flows: int):
        self.cwnd = [controller.cwnd] * n_flows
        self.rate = [controller.rate_pps] * n_flows
        self.last_loss = [controller.last_loss_reaction] * n_flows
        self.credit = [0.0] * n_flows
        self.lost_total = 0.0

    def rates(self, rtt: float) -> list[float]:
        """Each flow's instantaneous send rate (packets/s): one window per RTT."""
        if rtt < 1e-6:
            rtt = 1e-6
        return [(w if w > MIN_CWND else MIN_CWND) / rtt for w in self.cwnd]

    def step(
        self,
        now: float,
        dt: float,
        rtt: float,
        rates: list[float],
        inv_arrival: float,
        overflow: float,
        served: float,
        loss_rate: float,
    ) -> None:
        """Advance every flow by ``dt`` seconds of fluid dynamics.

        Flow ``i`` sent at ``rates[i]`` and holds the share
        ``rates[i] * inv_arrival`` of the bottleneck's arrivals.  It loses
        ``rates[i] * dt * loss_rate`` packets at random plus its share of
        the ``overflow`` drops, and is delivered its share of ``served``
        (packets/s), which ACK-clocks its growth.
        """
        raise NotImplementedError
