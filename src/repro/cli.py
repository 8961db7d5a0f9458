"""Command-line interface: ``python -m repro <command>``.

One subcommand per reproducible artifact, so a user can regenerate any
table or figure without touching Python:

- ``table1``   — Table 1 (Scream-vs-rest, nine algorithms, Wilcoxon);
- ``ucl``      — the §4.2 firewall results;
- ``figure1``  — the link-rate ALE plot;
- ``figure2``  — the firewall port ALE plots;
- ``sweep``    — the §4 threshold sensitivity analysis;
- ``emulate``  — run one network scenario through every protocol;
- ``lint``     — run reprolint (RL001-RL007) over the source tree;
- ``cache``    — inspect/clear/prune the artifact cache;
- ``registry`` — inspect/promote/rollback/gc served model versions;
- ``serve``    — serve a registered model over the JSON HTTP API;
- ``loadtest`` — replay a seeded workload shape (open/closed loop,
  retry storm, flash crowd, slow client, connection churn) against the
  in-process service or a real HTTP transport and print the LoadReport;
- ``loop``     — run the online retraining-loop demo, or report loop
  status (promotion decisions, labeling journals) from a registry;
- ``store``    — serve a cache directory as a content-addressed artifact
  server (``store serve``), or report store totals (``store stat``,
  local ``--dir`` or remote ``--url``).

``table1``, ``ucl`` and ``sweep`` accept ``--store URL``: the runtime's
cache gains a remote read-through/write-through tier against that
artifact server, so a grid with an empty local cache warms itself from a
peer's artifacts (bitwise-identical results, zero task executions when
fully warm) and pushes fresh artifacts back.  A dead store degrades the
run to local-only instead of failing it.

``table1`` and ``ucl`` accept ``--workers N`` and ``--cache
{on,off,refresh}``.  The whole experiment grid is sharded through the
runtime — dataset generation, per-repeat initial fits, and every
(repeat, strategy) cell are independent tasks — so ``--workers`` runs
grid cells in parallel end-to-end and ``--cache`` (content-addressed,
under ``~/.cache/repro-ale``; override with ``--cache-dir`` or
``$REPRO_CACHE_DIR``) answers a warm rerun per cell without touching the
network emulator or AutoML at all.  Results are bitwise-identical
whatever the worker count or cache state; a failed cell is dropped and
reported instead of crashing the run.  Because failed cells are never
cached, ``--resume`` (which forces ``--cache on``) re-executes exactly
the failed/missing cells of a previous degraded run and replays the rest
from disk, reporting the resumed counts in the record's grid metadata.

Results print to stdout; ``--output DIR`` additionally writes the JSON/CSV
record bundle.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override the experiment seed")
    parser.add_argument("--output", type=Path, default=None, help="directory for the JSON/CSV record")
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's dataset/budget sizes (hours, not minutes)",
    )


def _add_runtime_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="run grid cells / AutoML fits on N worker processes (0 = in-process serial)",
    )
    parser.add_argument(
        "--cache",
        choices=("on", "off", "refresh"),
        default="off",
        help="artifact cache mode: reuse (on), ignore (off), or overwrite (refresh)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-ale)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume a degraded run from its partial cache: forces --cache on, so only "
            "failed/missing cells re-execute (counts land in the record's grid metadata)"
        ),
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="URL",
        help=(
            "artifact-store server to warm from / push to (forces --cache on; "
            "a dead or unreachable store degrades to local-only, never fails the run)"
        ),
    )


def _runtime_from_args(args: argparse.Namespace):
    """Build the TaskRuntime the flags describe, or ``None`` for the implicit path."""
    if args.workers < 0:
        raise SystemExit(f"--workers must be >= 0, got {args.workers}")
    if getattr(args, "resume", False):
        if args.cache == "refresh":
            raise SystemExit("--resume re-uses cached cells; it cannot be combined with --cache refresh")
        args.cache = "on"  # a resume is exactly a warm rerun against the partial cache
    store = getattr(args, "store", None)
    if store is not None and args.cache == "off":
        args.cache = "on"  # the remote tier layers onto a local cache
    if args.workers == 0 and args.cache == "off":
        return None
    from .runtime import ArtifactCache, ProcessExecutor, SerialExecutor, TaskRuntime

    executor = ProcessExecutor(max_workers=args.workers) if args.workers > 1 else SerialExecutor()
    cache = ArtifactCache(args.cache_dir) if args.cache != "off" else None
    if store is not None:
        from .store import RemoteCacheTier

        cache = RemoteCacheTier(cache, store)
    return TaskRuntime(executor, cache=cache, cache_mode=args.cache)


def _report_runtime(runtime) -> None:
    if runtime is None:
        return
    stats = runtime.stats
    failed = f", {stats['failed']} failed" if stats.get("failed") else ""
    print(
        f"runtime: {stats['executed']} task(s) executed, "
        f"{stats['cache_hits']} cache hit(s), {stats['cache_stores']} stored{failed}",
        file=sys.stderr,
    )
    if runtime.cache is not None and hasattr(type(runtime.cache), "remote_stats"):
        runtime.cache.flush(timeout=10.0)
        remote = runtime.cache.remote_stats()
        degraded = "; DEGRADED to local-only" if remote["degraded"] else ""
        print(
            f"store: {remote['url']} — {remote['remote_hits']} remote hit(s), "
            f"{remote['pushes']} push(es), {remote['push_failures']} push failure(s){degraded}",
            file=sys.stderr,
        )


def _maybe_save(record, output: Path | None) -> None:
    if output is None:
        return
    from .experiments import save_record

    path = save_record(record, output)
    print(f"\nrecord written to {path}")


def _cmd_table1(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .experiments import PAPER_SCALE, Table1Config, run_table1

    config = PAPER_SCALE if args.paper_scale else Table1Config()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    runtime = _runtime_from_args(args)
    table, record = run_table1(
        config, progress=lambda message: print(message, file=sys.stderr), runtime=runtime
    )
    _report_runtime(runtime)
    print(record.tables["table1"])
    _maybe_save(record, args.output)
    return 0


def _cmd_ucl(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .experiments import PAPER_SCALE_UCL, UCLConfig, run_ucl

    config = PAPER_SCALE_UCL if args.paper_scale else UCLConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    runtime = _runtime_from_args(args)
    table, record = run_ucl(
        config, progress=lambda message: print(message, file=sys.stderr), runtime=runtime
    )
    _report_runtime(runtime)
    print(record.tables["ucl"])
    for name in ("within_ale_pool", "cross_ale_pool"):
        print(f"P(no_feedback, {name}) = {table.p_value('no_feedback', name):.3g}")
    _maybe_save(record, args.output)
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .experiments import FigureConfig, run_figure1

    config = FigureConfig()
    if args.paper_scale:
        config = replace(config, n_train=1161, automl_iterations=120, ensemble_size=16)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    artifact = run_figure1(config)
    print(artifact.ascii_plot)
    print(f"\nthreshold T = {artifact.threshold:.4g}")
    print(f"feedback:    {artifact.flagged_intervals}")
    _maybe_save(artifact.to_record(), args.output)
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .experiments import FigureConfig, run_figure2

    config = FigureConfig(grid_strategy="quantile", grid_size=48, n_train=2500)
    if args.paper_scale:
        config = replace(config, n_train=65532, automl_iterations=120, ensemble_size=16)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    fig2a, fig2b = run_figure2(config)
    for artifact in (fig2a, fig2b):
        print(artifact.ascii_plot)
        print(f"feedback: {artifact.flagged_intervals}\n")
        _maybe_save(artifact.to_record(), args.output)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .automl import AutoMLClassifier
    from .experiments import sweep_thresholds, sweep_to_csv
    from .experiments.grid import fetch_datasets
    from .experiments.tasks import scream_dataset_task
    from .runtime import default_runtime

    seed = args.seed if args.seed is not None else 2021
    n = 1161 if args.paper_scale else 300
    # The canonical dataset task: a sweep asking for the same (n, seed)
    # as a table1/ucl run shares their cached artifact — locally or
    # through --store — instead of regenerating it.
    runtime = _runtime_from_args(args)
    rt = runtime if runtime is not None else default_runtime()
    [dataset] = fetch_datasets(rt, [scream_dataset_task(n, seed)])
    automl = AutoMLClassifier(
        n_iterations=120 if args.paper_scale else 14,
        ensemble_size=8,
        min_distinct_members=5,
        random_state=seed,
    ).fit(dataset.X, dataset.y)
    rows = sweep_thresholds(
        automl.ensemble_members_, dataset.X, dataset.domains, grid_size=24
    )
    _report_runtime(runtime)
    print(sweep_to_csv(rows))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    if args.action == "stat":
        if args.url is not None:
            from .store import StoreClient

            print(json.dumps(StoreClient(args.url).stat(), indent=2, sort_keys=True))
            return 0
        from .store import StoreService

        print(json.dumps(StoreService(args.dir).stat(), indent=2, sort_keys=True))
        return 0

    from .store import StoreService, serve_store_http

    service = StoreService(args.dir, max_blob_bytes=int(args.max_blob_mb * 1024 * 1024))
    server = serve_store_http(service, host=args.host, port=args.port)
    print(
        f"artifact store serving {service.cache.directory} on {server.url} (Ctrl-C to stop)",
        file=sys.stderr,
    )
    import threading

    try:
        threading.Event().wait()  # foreground until Ctrl-C
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .runtime import ArtifactCache

    cache = ArtifactCache(args.dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entrie(s) from {cache.directory}")
        return 0
    if args.action == "prune":
        if args.max_mb is None:
            print("cache prune requires --max-mb", file=sys.stderr)
            return 2
        evicted = cache.prune(int(args.max_mb * 1024 * 1024))
        print(f"evicted {evicted} entrie(s) from {cache.directory}")
        return 0
    info = cache.info()
    print(f"directory:   {info['directory']}")
    print(f"entries:     {info['entries']}")
    print(f"total bytes: {info['total_bytes']} ({info['total_bytes'] / 1024 / 1024:.1f} MiB)")
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    from .serve import ModelRegistry

    registry = ModelRegistry(args.dir)
    if args.action == "gc":
        result = registry.gc(dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        print(
            f"{verb} {result['unreferenced'] if args.dry_run else result['removed']} "
            f"unreferenced artifact(s) ({result['bytes_freed']} bytes); "
            f"{result['referenced']} referenced key(s) kept"
        )
        return 0
    if args.action == "promote":
        if args.name is None or args.version is None:
            print("registry promote requires NAME and --version N", file=sys.stderr)
            return 2
        registry.promote(args.name, args.version)
        print(f"promoted {args.name} v{args.version}")
        return 0
    if args.action == "rollback":
        if args.name is None:
            print("registry rollback requires NAME", file=sys.stderr)
            return 2
        version = registry.rollback(args.name)
        print(f"rolled {args.name} back to v{version}")
        return 0
    print(registry.describe())
    return 0


def _cmd_loop(args: argparse.Namespace) -> int:
    import json

    if args.action == "status":
        from .serve import ModelRegistry, default_registry_dir

        registry = ModelRegistry(args.dir)
        directory = args.dir if args.dir is not None else default_registry_dir()
        print(registry.describe())
        for name in registry.names():
            for version, info in registry.versions(name).items():
                loop_meta = info.get("metadata", {}).get("loop")
                if loop_meta:
                    verdict = "promoted" if loop_meta["promoted"] else "rejected"
                    reasons = "; ".join(loop_meta["reasons"]) or "all gates passed"
                    print(f"  {name} v{version}: loop {verdict} ({reasons})")
            journal = Path(directory) / "labeling" / f"{name}.jsonl"
            if journal.exists():
                print(f"  {name}: labeling journal {journal} ({journal.stat().st_size} bytes)")
        return 0

    from .loop import run_demo

    summary = run_demo(args.dir if args.dir is not None else Path(".") / "loop-demo", seed=args.seed)
    for index, event in enumerate(summary["ticks"]):
        print(f"tick {index:2d}: {json.dumps(event, sort_keys=True)}")
    print(summary["registry"])
    if args.json:
        print(json.dumps(summary["status"], indent=2, sort_keys=True))
    else:
        counters = summary["status"]["counters"]
        print(
            f"loop: {counters['loop_triggers']} trigger(s), {counters['loop_retrains']} retrain(s), "
            f"{counters['loop_promotions']} promotion(s), {counters['loop_rejections']} rejection(s); "
            f"serving v{summary['status']['serving_version']}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeConfig, ServeService, serve_http

    config = ServeConfig(
        max_batch=args.max_batch,
        queue_bound=args.queue_bound,
        request_timeout=args.request_timeout,
    )
    service = ServeService.from_registry(
        args.name, directory=args.dir, version=args.version, config=config
    )
    server = serve_http(service, host=args.host, port=args.port)
    health = service.healthz()
    print(
        f"serving {health['model']} v{health['version']} on {server.url} "
        f"(features: {', '.join(health['feature_names'])}; Ctrl-C to stop)",
        file=sys.stderr,
    )
    import threading

    try:
        threading.Event().wait()  # foreground until Ctrl-C
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from .loadgen import (
        HttpTarget,
        InProcessTarget,
        check_accounting,
        closed_loop,
        connection_churn,
        flash_crowd,
        open_loop,
        retry_storm,
        run_workload,
        slow_client,
    )
    from .serve import ServeConfig, ServeService, serve_async_http, serve_http

    config = ServeConfig(
        max_batch=args.max_batch,
        queue_bound=args.queue_bound,
        request_timeout=args.request_timeout,
    )
    shape_kwargs = {"rows_per_request": args.rows, "clients": args.clients}
    if args.shape == "open":
        shape = open_loop(args.requests, args.rate, **shape_kwargs)
    elif args.shape == "closed":
        shape = closed_loop(args.requests, args.clients, rows_per_request=args.rows)
    elif args.shape == "retry-storm":
        shape = retry_storm(args.requests, args.rate, **shape_kwargs)
    elif args.shape == "flash-crowd":
        shape = flash_crowd(args.requests, args.rate, args.rate * 10, **shape_kwargs)
    elif args.shape == "slow-client":
        shape = slow_client(args.requests, args.rate, **shape_kwargs)
    else:
        shape = connection_churn(args.requests, args.rate, **shape_kwargs)

    if args.name is not None:
        service = ServeService.from_registry(args.name, directory=args.dir, config=config)
        X = _loadtest_rows(service, args.seed)
    else:
        # Demo mode: fit a small model on generated Scream traffic.
        from .automl import AutoMLClassifier
        from .datasets import generate_scream_dataset
        from .serve import ModelRegistry

        print("no model name given: fitting a demo model on Scream data", file=sys.stderr)
        data = generate_scream_dataset(160, random_state=args.seed)
        automl = AutoMLClassifier(n_iterations=6, ensemble_size=3, random_state=7).fit(data.X, data.y)
        tmpdir = tempfile.mkdtemp(prefix="repro-loadtest-")
        registry = ModelRegistry(tmpdir)
        registry.register("demo", automl, data.X, data.domains)
        service = ServeService.from_registry("demo", directory=tmpdir, config=config)
        X = data.X

    server = None
    try:
        if args.transport == "inproc":
            target = InProcessTarget(service)
        elif args.transport == "threaded":
            server = serve_http(service, host="127.0.0.1", port=0)
            target = HttpTarget(server.url)
        else:
            server = serve_async_http(service, host="127.0.0.1", port=0)
            target = HttpTarget(server.url)
        report = run_workload(target, X, shape, seed=args.seed)
    finally:
        if server is not None:
            server.close()  # also closes the service
        else:
            service.close()

    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    check_accounting(report, allow_failed=shape.abort_fraction > 0)
    print(
        f"accounting identity holds: offered={report.offered} == completed={report.completed} "
        f"+ shed={report.shed} + timed_out={report.timed_out} + failed={report.failed}",
        file=sys.stderr,
    )
    return 0


def _loadtest_rows(service, seed: int):
    """Sample request rows uniformly from the served model's feature domains."""
    import numpy as np

    from .rng import check_random_state

    rng = check_random_state(seed)
    columns = [rng.uniform(domain.low, domain.high, size=256) for domain in service.bundle.domains]
    return np.column_stack(columns)


def _cmd_lint(args: argparse.Namespace) -> int:
    from .devtools.cli import run_lint

    return run_lint(args)


def _cmd_emulate(args: argparse.Namespace) -> int:
    from .netsim import PROTOCOLS, NetworkScenario, run_fluid_scenario, run_packet_scenario

    scenario = NetworkScenario(
        bandwidth_mbps=args.bandwidth,
        rtt_ms=args.rtt,
        loss_rate=args.loss,
        n_flows=args.flows,
    )
    run = run_packet_scenario if args.engine == "packet" else run_fluid_scenario
    kwargs = {"duration": 5.0} if args.engine == "packet" else {}
    seed = args.seed if args.seed is not None else 0
    print(f"scenario: {scenario}")
    print(f"{'protocol':10s} {'p95 delay':>10s} {'avg delay':>10s} {'throughput':>11s} {'loss':>7s}")
    for protocol in sorted(PROTOCOLS):
        metrics = run(scenario, protocol, random_state=seed, **kwargs)
        print(
            f"{protocol:10s} {metrics.p95_delay_ms:8.1f}ms {metrics.avg_delay_ms:8.1f}ms "
            f"{metrics.throughput_mbps:8.2f}Mbps {metrics.loss_fraction:7.3f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of 'Interpretable Feedback for AutoML' (HotNets'21).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, handler, help_text in (
        ("table1", _cmd_table1, "reproduce Table 1 (Scream-vs-rest)"),
        ("ucl", _cmd_ucl, "reproduce the §4.2 firewall results"),
        ("figure1", _cmd_figure1, "reproduce Figure 1 (link-rate ALE)"),
        ("figure2", _cmd_figure2, "reproduce Figures 2a/2b (port ALE)"),
        ("sweep", _cmd_sweep, "threshold sensitivity (§4)"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        _add_common(sub)
        if name in ("table1", "ucl", "sweep"):
            _add_runtime_options(sub)
        sub.set_defaults(handler=handler)

    store = subparsers.add_parser("store", help="serve or inspect a content-addressed artifact store")
    store.add_argument("action", choices=("serve", "stat"), nargs="?", default="serve")
    store.add_argument("--dir", type=Path, default=None, help="cache directory to serve (default: the artifact cache dir)")
    store.add_argument("--url", default=None, help="stat: query a running store server instead of a local directory")
    store.add_argument("--host", default="127.0.0.1")
    store.add_argument("--port", type=int, default=8751)
    store.add_argument("--max-blob-mb", type=float, default=64.0, help="largest accepted blob (MiB)")
    store.set_defaults(handler=_cmd_store)

    cache = subparsers.add_parser("cache", help="inspect/clear/prune the artifact cache")
    cache.add_argument(
        "action", choices=("info", "clear", "prune"), nargs="?", default="info"
    )
    cache.add_argument("--dir", type=Path, default=None, help="cache directory override")
    cache.add_argument("--max-mb", type=float, default=None, help="prune target size in MiB")
    cache.set_defaults(handler=_cmd_cache)

    registry = subparsers.add_parser("registry", help="inspect/promote/rollback/gc served models")
    registry.add_argument("action", choices=("list", "promote", "rollback", "gc"), nargs="?", default="list")
    registry.add_argument("name", nargs="?", default=None, help="model name (promote/rollback)")
    registry.add_argument("--version", type=int, default=None, help="version to promote")
    registry.add_argument("--dir", type=Path, default=None, help="registry directory override")
    registry.add_argument("--dry-run", action="store_true", help="gc: report what would be removed, delete nothing")
    registry.set_defaults(handler=_cmd_registry)

    loop = subparsers.add_parser("loop", help="run the retraining-loop demo / show loop status")
    loop.add_argument("action", choices=("demo", "status"), nargs="?", default="demo")
    loop.add_argument("--dir", type=Path, default=None, help="working/registry directory override")
    loop.add_argument("--seed", type=int, default=0, help="demo seed")
    loop.add_argument("--json", action="store_true", help="demo: print the final status as JSON")
    loop.set_defaults(handler=_cmd_loop)

    serve = subparsers.add_parser("serve", help="serve a registered model over HTTP")
    serve.add_argument("name", help="registered model name")
    serve.add_argument("--dir", type=Path, default=None, help="registry directory override")
    serve.add_argument("--version", type=int, default=None, help="serve a specific version (default: promoted)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8750)
    serve.add_argument("--max-batch", type=int, default=32, help="largest micro-batch (rows)")
    serve.add_argument("--queue-bound", type=int, default=256, help="pending requests before shedding")
    serve.add_argument("--request-timeout", type=float, default=10.0, help="per-request reply timeout (seconds)")
    serve.set_defaults(handler=_cmd_serve)

    loadtest = subparsers.add_parser(
        "loadtest", help="replay a seeded workload shape against a serving transport"
    )
    loadtest.add_argument("name", nargs="?", default=None, help="registered model name (default: fit a demo model)")
    loadtest.add_argument("--dir", type=Path, default=None, help="registry directory override")
    loadtest.add_argument(
        "--transport",
        choices=("inproc", "threaded", "async"),
        default="inproc",
        help="drive the service directly, or over real sockets via a transport",
    )
    loadtest.add_argument(
        "--shape",
        choices=("open", "closed", "retry-storm", "flash-crowd", "slow-client", "churn"),
        default="open",
        help="workload shape (see repro.loadgen.workloads)",
    )
    loadtest.add_argument("--requests", type=int, default=200, help="total (open) or per-client (closed) requests")
    loadtest.add_argument("--rate", type=float, default=200.0, help="open-loop arrival rate (req/s)")
    loadtest.add_argument("--clients", type=int, default=4, help="driver worker threads / closed-loop population")
    loadtest.add_argument("--rows", type=int, default=1, help="rows per request")
    loadtest.add_argument("--seed", type=int, default=0, help="workload seed (schedule, rows, aborts)")
    loadtest.add_argument("--max-batch", type=int, default=32, help="largest micro-batch (rows)")
    loadtest.add_argument("--queue-bound", type=int, default=256, help="pending requests before shedding")
    loadtest.add_argument("--request-timeout", type=float, default=5.0, help="per-request reply timeout (seconds)")
    loadtest.set_defaults(handler=_cmd_loadtest)

    emulate = subparsers.add_parser("emulate", help="run one scenario through every protocol")
    emulate.add_argument("--bandwidth", type=float, default=20.0, help="bottleneck Mbps")
    emulate.add_argument("--rtt", type=float, default=40.0, help="base RTT in ms")
    emulate.add_argument("--loss", type=float, default=0.0, help="random loss rate")
    emulate.add_argument("--flows", type=int, default=1, help="concurrent flows")
    emulate.add_argument("--engine", choices=("packet", "fluid"), default="packet")
    emulate.add_argument("--seed", type=int, default=None)
    emulate.set_defaults(handler=_cmd_emulate)

    from .devtools.cli import add_lint_arguments

    lint = subparsers.add_parser("lint", help="check code invariants (rules RL001-RL007)")
    add_lint_arguments(lint)
    lint.set_defaults(handler=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
