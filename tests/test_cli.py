"""The command-line front end: running a scenario into --out, re-running
the config.json it wrote, overriding fields with --set (the one way to
set seed and duration), running a named check, and exit status 2 for bad
input."""
import json

import pytest

from cmsim.harness.cli import main

OUTPUTS = ("trace.csv", "summary.json", "config.json")


def run_short(out, *extra):
    return main(["--scenario", "udpcc_basic", "--set", "seed=2",
                 "--set", "duration=1", "--out", str(out), *extra])


def test_scenario_writes_outputs_with_set_overrides(tmp_path):
    assert run_short(tmp_path) == 0
    for name in OUTPUTS:
        assert (tmp_path / name).is_file()
    cfg = json.loads((tmp_path / "config.json").read_text())
    assert (cfg["scenario"], cfg["seed"], cfg["duration"]) == \
        ("udpcc_basic", 2, 1.0)


def test_written_config_reruns_to_the_same_trace(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert run_short(first) == 0
    assert main(["--config", str(first / "config.json"),
                 "--out", str(second)]) == 0
    assert (second / "trace.csv").read_bytes() == \
        (first / "trace.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["--scenario", "udpcc_basic", "--set", "no_such_field=1"],
    ["--scenario", "udpcc_basic", "--set", "loss_prob=1.5"],
    ["--check", "no_such_check"],
], ids=["unknown-field", "loss-prob-out-of-range", "unknown-check"])
def test_bad_input_exits_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_named_check_passes():
    assert main(["--check", "ack_division"]) == 0
