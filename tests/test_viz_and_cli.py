"""The standalone bench CLI and the demo CLI."""

import pytest

from repro.bench.run import main as bench_main, parse_args, run_grid


# -- CLI --------------------------------------------------------------------------


def test_cli_parse_defaults():
    args = parse_args([])
    assert args.td == "TD1"
    assert args.sf == 0.005
    assert not args.hetero


def test_cli_grid_runs_subset(capsys):
    exit_code = bench_main(
        ["--sf", "0.001", "--queries", "Q3", "--systems", "xdb,garlic"]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Q3" in out
    assert "XDB" in out and "Garlic" in out
    assert "vs XDB" in out


def test_cli_rejects_unknown_system():
    args = parse_args(["--systems", "oracle"])
    with pytest.raises(SystemExit):
        run_grid(args)


# -- demo CLI trace export --------------------------------------------------------


def test_demo_cli_writes_valid_chrome_trace(tmp_path, capsys):
    import json

    from repro.__main__ import main as demo_main
    from repro.obs.context import validate_chrome_trace

    out_path = tmp_path / "trace.json"
    assert demo_main(["--trace", str(out_path)]) == 0
    printed = capsys.readouterr().out
    assert "wrote Chrome trace" in printed
    assert "explain analyze" in printed

    payload = json.loads(out_path.read_text(encoding="utf-8"))
    count = validate_chrome_trace(payload)
    assert count > 0
    names = {event["name"] for event in payload["traceEvents"]}
    assert {"prep", "lopt", "ann", "exec", "ddl", "transfer"} <= names
    assert payload["otherData"]["metrics"]


def test_demo_cli_trace_flag_is_optional(capsys):
    from repro.__main__ import main as demo_main

    assert demo_main([]) == 0
    out = capsys.readouterr().out
    assert "wrote Chrome trace" not in out
    assert "moved_MB" in out
