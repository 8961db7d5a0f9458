"""The Poisson schedule perfbench's ``serve_http`` workload replays.

perfbench draws a run's arrival times and then its query rows from one
generator, so both draws are pinned: SHA-256 digests of the arrays'
bytes, recorded before ``repro.loadgen`` was cut down to this schedule.
Equal digests mean the served workload offers the same traffic.
"""

import dataclasses
import hashlib

import pytest

from repro.exceptions import ValidationError
from repro.loadgen.workloads import arrival_times, open_loop
from repro.rng import check_random_state

#: seed -> (digest of the arrival times, digest of the row draw after them)
_DIGESTS = {
    1: (
        "3b0429f499748c33abd4549a95425ea618cc3249e6ab7264930e864da98d1709",
        "251d9175ff23ea827ed77a83b961a573282b7e423556e5e62864086d5acb6a51",
    ),
    2: (
        "c0f2f0c0cda1211654d4a3b309d9bc19a9fbc40a48adbe176e473bb32850db0c",
        "82878dde5db61ff4c56a85f2bc1cb5fbe9421289ebb24e1553e0afa8cb3a13d1",
    ),
    3: (
        "6f8a123e69cbf832f8046a5ef1033966985f9b2fc7d69e43f0e9ba68fa501419",
        "02a258ef5825b79eef6561318fac27b5465b442e5f498170da8b2631f4efcb8f",
    ),
}


@pytest.mark.parametrize("seed", sorted(_DIGESTS))
def test_schedule_and_row_draw_match_recorded_digests(seed):
    rng = check_random_state(seed)
    times = arrival_times(open_loop(240, 12.0), rng)
    rows = rng.integers(0, 500, size=240)
    assert times.shape == (240,) and (times > 0).all()
    assert (times[1:] >= times[:-1]).all()
    digests = tuple(hashlib.sha256(array.tobytes()).hexdigest() for array in (times, rows))
    assert digests == _DIGESTS[seed]


def test_open_loop_validates_and_is_frozen():
    shape = open_loop(10, 50.0)
    assert (shape.n_requests, shape.rate) == (10, 50.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        shape.rate = 1.0
    with pytest.raises(ValidationError, match="n_requests"):
        open_loop(0, 50.0)
    with pytest.raises(ValidationError, match="rate"):
        open_loop(10, 0.0)
