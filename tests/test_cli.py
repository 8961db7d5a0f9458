"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("table1", "ucl", "figure1", "figure2", "sweep", "emulate", "store"):
            assert command in text

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_emulate_args(self):
        args = build_parser().parse_args(
            ["emulate", "--bandwidth", "5", "--rtt", "10", "--loss", "0.01", "--flows", "2",
             "--engine", "fluid", "--seed", "3"]
        )
        assert args.bandwidth == 5.0
        assert args.engine == "fluid"
        assert args.seed == 3

    def test_common_flags(self):
        args = build_parser().parse_args(["table1", "--seed", "9", "--paper-scale"])
        assert args.seed == 9 and args.paper_scale

    def test_resume_forces_cache_on(self, tmp_path):
        from repro.cli import _runtime_from_args

        args = build_parser().parse_args(
            ["table1", "--resume", "--cache-dir", str(tmp_path / "cache")]
        )
        assert args.resume and args.cache == "off"  # flag default untouched by argparse
        runtime = _runtime_from_args(args)
        assert runtime is not None
        assert runtime.cache is not None and runtime.cache_mode == "on"

    def test_resume_rejects_refresh(self, tmp_path):
        from repro.cli import _runtime_from_args

        args = build_parser().parse_args(
            ["table1", "--resume", "--cache", "refresh", "--cache-dir", str(tmp_path / "cache")]
        )
        with pytest.raises(SystemExit, match="refresh"):
            _runtime_from_args(args)


    @pytest.mark.parametrize("command", ["serve"])
    def test_batcher_has_no_flush_delay_flag(self, command, capsys):
        build_parser().parse_args([command, "scream"])
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "scream", "--max-delay", "0.01"])
        assert "--max-delay" in capsys.readouterr().err


class TestExecution:
    def test_emulate_runs(self, capsys):
        code = main(
            ["emulate", "--bandwidth", "10", "--rtt", "30", "--engine", "fluid", "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scream" in out and "p95 delay" in out

    def test_emulate_packet_engine(self, capsys):
        code = main(
            ["emulate", "--bandwidth", "10", "--rtt", "30", "--engine", "packet", "--seed", "0"]
        )
        assert code == 0
        assert "vegas" in capsys.readouterr().out

    def test_invalid_engine_rejected(self):
        with pytest.raises(SystemExit):
            main(["emulate", "--engine", "carrier-pigeon"])


class TestStoreCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["store"])
        assert args.action == "serve"
        assert args.port == 8751
        assert not hasattr(args, "transport")
        args = build_parser().parse_args(["store", "stat", "--url", "http://x:1"])
        assert args.action == "stat" and args.url == "http://x:1"

    def test_stat_reports_a_local_directory(self, tmp_path, capsys):
        import hashlib
        import json

        from repro.runtime import ArtifactCache

        ArtifactCache(tmp_path).store(hashlib.sha256(b"k").hexdigest(), {"v": 1})
        assert main(["store", "stat", "--dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1 and payload["directory"] == str(tmp_path)

    def test_stat_queries_a_running_server(self, tmp_path, capsys):
        import json

        from repro.store import StoreService, serve_store_http

        server = serve_store_http(StoreService(tmp_path))
        try:
            assert main(["store", "stat", "--url", server.url]) == 0
        finally:
            server.close()
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 0 and "metrics" in payload

    def test_store_flag_forces_cache_on_and_wires_the_tier(self, tmp_path):
        from repro.cli import _runtime_from_args
        from repro.store import RemoteCacheTier

        args = build_parser().parse_args(
            ["table1", "--store", "http://127.0.0.1:1", "--cache-dir", str(tmp_path / "cache")]
        )
        assert args.cache == "off"  # flag default untouched by argparse
        runtime = _runtime_from_args(args)
        assert isinstance(runtime.cache, RemoteCacheTier)
        assert runtime.cache_mode == "on"
