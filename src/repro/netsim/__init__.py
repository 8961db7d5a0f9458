"""Network emulation substrate (the Pantheon-equivalent testbed).

Two engines over the same scenario/protocol abstractions:

- :func:`run_packet_scenario` — packet-level discrete-event emulation
  (reference fidelity);
- :func:`run_fluid_scenario` — fluid-model approximation (orders of
  magnitude faster; used for dataset generation).

Protocols: SCReAM, Cubic, Reno, Vegas, and a BBR-like controller, all
implemented from scratch in :mod:`repro.netsim.cc`.  Each protocol module
holds both views of its control law: the per-sender controller the packet
engine drives per ACK and loss, and the fluid law that advances all flows
of a fluid run by one time step.
"""

from .cc import BBR, PROTOCOLS, CongestionControl, Cubic, Reno, Scream, Vegas, make_protocol
from .emulator import FlowMetrics, run_packet_scenario
from .events import Simulator
from .fluid import FluidTrace, run_fluid_scenario
from .link import BottleneckLink, LinkStats
from .flow import FlowStats, Sender
from .packet import DEFAULT_PACKET_BYTES, NetworkScenario, Packet
from .scenarios import DEFAULT_SPACE, ScenarioSpace

__all__ = [
    "Simulator",
    "Packet",
    "NetworkScenario",
    "DEFAULT_PACKET_BYTES",
    "BottleneckLink",
    "LinkStats",
    "Sender",
    "FlowStats",
    "FlowMetrics",
    "run_packet_scenario",
    "run_fluid_scenario",
    "FluidTrace",
    "ScenarioSpace",
    "DEFAULT_SPACE",
    "CongestionControl",
    "Reno",
    "Cubic",
    "Vegas",
    "Scream",
    "BBR",
    "PROTOCOLS",
    "make_protocol",
]
