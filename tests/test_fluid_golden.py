"""Golden master for the fluid emulator: every ``FlowMetrics`` float, bitwise.

The Scream-vs-rest labels, and the grid scores built on them, are pure
functions of ``run_fluid_scenario``'s output, so any change to the fluid
laws that moves a single bit shows up here before it moves a published
number.  The cases cover every protocol on one and eight flows, both
extremes of RTT (the 1 ms step floor and a coarse 40 ms step), an explicit
duration clipped by the 4,000-step cap, random loss (Cubic re-epochs, Reno
halves), a half-BDP buffer (overflow and the ``loss_fraction`` clamp) and a
BBR bandwidth filter holding more than ten samples.

Floats are stored as ``repr`` strings and compared with ``==``.  Regenerate
only after an *intentional* change to the fluid dynamics with::

    PYTHONPATH=src python tests/test_fluid_golden.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.netsim import NetworkScenario, run_fluid_scenario
from repro.netsim.cc import PROTOCOLS

FIXTURE = Path(__file__).resolve().parent / "golden" / "fluid_golden.json"

METRIC_FIELDS = ("duration", "avg_delay_ms", "p95_delay_ms", "throughput_mbps", "loss_fraction", "utilization")

# name -> (scenario, explicit duration or None, seed)
CASES: dict[str, tuple[NetworkScenario, float | None, int]] = {
    # RTT 5 ms: dt hits the 1 ms floor, 3,000 steps.
    "rtt5_one_flow": (NetworkScenario(20.0, 5.0, 0.0, 1), None, 0),
    # 8 flows, loss and a half-BDP buffer; BBR's filter deque exceeds 10.
    "rtt5_eight_flows_lossy_shallow": (NetworkScenario(20.0, 5.0, 0.02, 8, 0.5), None, 3),
    # RTT 200 ms: 40 ms steps over a 10 s run.
    "rtt200_eight_flows": (NetworkScenario(10.0, 200.0, 0.0, 8), None, 1),
    "rtt200_one_flow_lossy": (NetworkScenario(10.0, 200.0, 0.02, 1), None, 2),
    # 6,000 nominal steps, clipped to 4,000 with dt stretched to fit.
    "step_cap": (NetworkScenario(25.0, 5.0, 0.01, 2), 6.0, 4),
    # Shallow buffer that drops nearly everything: the loss_fraction clamp.
    "overflow_clamp": (NetworkScenario(9.0, 6.0, 0.0, 1, 0.5), None, 0),
    "mid_four_flows_lossy": (NetworkScenario(30.0, 50.0, 0.02, 4, 0.5), None, 5),
}


def _run(name: str, protocol: str) -> dict[str, str]:
    scenario, duration, seed = CASES[name]
    metrics = run_fluid_scenario(scenario, protocol, duration=duration, random_state=seed)
    return {field: repr(getattr(metrics, field)) for field in METRIC_FIELDS}


def _load() -> dict[str, dict[str, dict[str, str]]]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))["runs"]


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_fluid_metrics_match_golden(case, protocol):
    assert _run(case, protocol) == _load()[case][protocol]


def _regenerate() -> None:
    runs = {name: {protocol: _run(name, protocol) for protocol in sorted(PROTOCOLS)} for name in sorted(CASES)}
    FIXTURE.write_text(json.dumps({"fields": list(METRIC_FIELDS), "runs": runs}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE} ({sum(len(v) for v in runs.values())} runs)")


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        raise SystemExit("usage: python tests/test_fluid_golden.py --regenerate")
    _regenerate()
