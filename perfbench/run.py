"""One benchmark for the repo's two end-to-end paths.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grid_scream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, each in its own process

Workloads (their rationale is in ``BENCHMARK.json``):

- ``grid_scream`` / ``grid_firewall`` — cold experiment grids
  (:mod:`grids`); the operation is one cold grid;
- ``serve_http`` — open-loop served requests (:mod:`serving`); the
  operation is one request.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:

- ``setup_s`` — from the benchmark's first clock read (once the
  interpreter, NumPy and ``repro.runtime.clock`` have loaded, about
  0.15 s) to the first timed operation:
  imports, then the workload's set-up, which includes one untimed
  warm-up repetition.  Set-up runs three times; the median counts.
  Reported at reference host speed (:mod:`hostspeed`).
- ``latency_p50_ms`` / ``latency_p95_ms`` — median and tail latency of
  the operation.  A served request is timed from when it was due to its
  full reply.  A cold grid is timed at reference host speed and scaled
  to the average grid (see :mod:`grids`); with fewer than 200 grids the
  tail is the slowest one.
- ``slo_share`` — operations answered correctly within a fixed limit
  (100 ms per request, 60 s per grid), over those offered.
- ``ok_share`` — operations completed correctly over those attempted; a
  grid task or a request.  Shed, timed-out and failed requests count as
  misses.
- ``peak_rss_mb`` — peak memory of the workload's process.

``--trace 1`` wraps each layer's public functions (:mod:`layers`),
alternates untraced and traced operations, and prints the per-layer
metrics instead.

Every output is checked: grid scores bitwise against the digests in
``reference.json``, grid metadata for dropped or failed work, and every
served label against offline ``AutoMLClassifier.predict``.  A failed
check makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
SOURCE = ROOT / "src"


@dataclass
class Context:
    """What every workload gets from ``run.py``."""

    sampler: object
    import_s: float
    tmp_dir: Path
    per_layer_units: dict


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text(encoding="utf-8").splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def run_one(args, spec: dict) -> int:
    from repro.runtime.clock import monotonic

    first_clock = monotonic()
    import hostspeed

    sampler = hostspeed.SpeedSampler()
    sampler.start()
    import numpy as np

    import grids
    import serving

    workloads = {"grid_scream": grids.run, "grid_firewall": grids.run, "serve_http": serving.run}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    ctx = Context(
        sampler=sampler,
        import_s=sampler.reference_seconds(first_clock, monotonic()),
        tmp_dir=ROOT / ".perfbench_tmp" / str(os.getpid()),
        per_layer_units={m["name"]: m["unit"] for m in spec["per_layer"]},
    )
    try:
        outcome = workloads[args.workload](args.workload, args.seed, args.seconds, bool(args.trace), ctx)
    finally:
        sampler.stop()
        shutil.rmtree(ctx.tmp_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            ctx.tmp_dir.parent.rmdir()  # fails while another run still uses it

    print(f"workload {args.workload}: {why[args.workload]}")
    print("provenance " + json.dumps({
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }))
    print("detail " + json.dumps(outcome.detail))
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    units = (
        {m["name"]: m["unit"] for m in spec["per_layer"]}
        if args.trace
        else {m["name"]: m["unit"] for m in spec["end_to_end"]}
    )
    result = outcome.result(bool(args.trace), units)
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, so each reports its own memory."""
    status = 0
    for workload in spec["workloads"]:
        command = [
            sys.executable, __file__, "--workload", workload["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        print(f"== {workload['name']}", flush=True)
        status = max(status, subprocess.run(command, cwd=ROOT, check=False).returncode)
    return status


def main(argv=None) -> int:
    if not SPEC_FILE.is_file() or not (SOURCE / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: run from the root of a repro checkout ({SPEC_FILE.name} and src/repro are needed)",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Benchmark the cold experiment grid and the served request.")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], help="default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    sys.path.insert(0, str(SOURCE))
    return run_one(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
