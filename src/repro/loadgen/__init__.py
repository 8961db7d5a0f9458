"""The seeded Poisson arrival schedule that perfbench's ``serve_http`` replays.

:mod:`~repro.loadgen.workloads` holds :func:`~repro.loadgen.workloads.open_loop`
and :func:`~repro.loadgen.workloads.arrival_times`; the serving layer's
overload behaviour is tested over raw sockets in
``tests/test_http_contract.py``.
"""
