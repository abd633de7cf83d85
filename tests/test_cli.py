"""The command-line front end: running a scenario into --out, re-running
the config.json it wrote, overriding fields with --set (the one way to
set seed and duration), running a named check, and exit status 2 for bad
input, including a config file value of the wrong type, and for outputs
it cannot write, found before the run. A config file and --set fields,
--set scenario= among them, lie over the scenario's defaults.
make_config's keyword overrides get the same type check as a config
file, an integral float is an int field's value by either route, and a
float field holds a float."""
import json

import pytest

from cmsim.errors import ConfigError
from cmsim.harness import make_config, scenarios
from cmsim.harness import cli
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
    ["--scenario", "layered_rate", "--set", "layer_rates=0,16384",
     "--set", "duration=1"],
    ["--scenario", "layered_rate", "--set", "layer_rates=-5,16384",
     "--set", "duration=1"],
    ["--scenario", "delayed_feedback", "--set", "max_delay=0"],
    ["--scenario", "delayed_feedback", "--set", "max_delay=inf"],
    # --check runs the checks' own configs; --set and --out, which it
    # would ignore, are refused before any check runs
    ["--check", "ack_division", "--set", "seed=3"],
    ["--check", "ack_division", "--out", "never-written"],
], ids=["unknown-field", "loss-prob-out-of-range", "unknown-check",
        "zero-layer-rate", "negative-layer-rate", "batch-without-timer",
        "batch-with-endless-timer", "check-with-set", "check-with-out"])
def test_bad_input_exits_2(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["set", "config"])
def test_endless_duration_exits_2_before_any_run(tmp_path, monkeypatch,
                                                 capsys, source):
    """duration=inf, from --set or a config file's Infinity, once ran
    until it was killed; it is refused before the scenario is built."""
    def build(*args):
        raise AssertionError("a run started")

    monkeypatch.setitem(scenarios.BUILDERS, "udpcc_basic", build)
    if source == "set":
        argv = ["--scenario", "udpcc_basic", "--set", "duration=inf"]
    else:
        path = tmp_path / "config.json"
        path.write_text('{"scenario": "udpcc_basic", "duration": Infinity}')
        argv = ["--config", str(path)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert "field 'duration'" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="field 'duration'"):
        make_config("udpcc_basic", duration=float("inf"))


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_out_naming_a_file_exits_2_as_a_write_failure(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert run_short(taken) == 2
    assert "cannot write outputs" in capsys.readouterr().err
    assert taken.read_text() == "kept"


def test_out_naming_a_file_exits_2_before_the_run(tmp_path, capsys,
                                                  monkeypatch):
    def run_experiment(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert run_short(taken) == 2
    assert "cannot write outputs" in capsys.readouterr().err
    assert taken.read_text() == "kept"


def outputs(out, *argv):
    assert main([*argv, "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in OUTPUTS}


def test_partial_config_file_takes_the_scenarios_defaults(tmp_path):
    """A file naming only some fields runs the experiment --scenario runs
    with the same fields set: the file's int duration is stored as 1.0."""
    path = tmp_path / "partial.json"
    path.write_text('{"scenario": "audio_cbr", "duration": 1}')
    got = outputs(tmp_path / "file", "--config", str(path))
    want = outputs(tmp_path / "set", "--scenario", "audio_cbr",
                   "--set", "duration=1")
    assert got["config.json"] == want["config.json"]
    assert got["trace.csv"] == want["trace.csv"]


def test_set_scenario_takes_that_scenarios_defaults(tmp_path):
    got = outputs(tmp_path / "a", "--scenario", "audio_cbr",
                  "--set", "scenario=udpcc_basic", "--set", "duration=1")
    want = outputs(tmp_path / "b", "--scenario", "udpcc_basic",
                   "--set", "duration=1")
    assert got["config.json"] == want["config.json"]


def test_a_float_field_holds_a_float():
    cfg = make_config("udpcc_basic", duration=2, delay=0)
    assert (type(cfg.duration), type(cfg.delay)) == (float, float)
    with pytest.raises(ConfigError, match="field 'duration'"):
        make_config("udpcc_basic", duration=10 ** 400)


WRONG_TYPES = [
    ("loss_prob", "0.1"), ("num_flows", 2.5), ("delay", [1]),
    ("ecn", "no"), ("duration", True), ("layer_rates", [1, 2.5]),
]


@pytest.mark.parametrize("field,value", WRONG_TYPES)
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, field,
                                                value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "udpcc_basic", "duration": 1,
                                field: value}))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_integral_float_for_an_int_field_is_one_rule(tmp_path, capsys):
    """A config file's 2.0 for an int field is that int; so is --set's, and
    2.5 is refused by both."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "udpcc_basic", "duration": 1,
                                "num_flows": 2.0,
                                "layer_rates": [100000.0, 200000]}))
    got = outputs(tmp_path / "file", "--config", str(path))
    want = outputs(tmp_path / "set", "--scenario", "udpcc_basic",
                   "--set", "duration=1", "--set", "num_flows=2.0",
                   "--set", "layer_rates=100000.0,200000")
    assert got["config.json"] == want["config.json"]
    assert json.loads(got["config.json"])["num_flows"] == 2
    for value in ("num_flows=2.5", "layer_rates=1,2.5"):
        assert main(["--scenario", "udpcc_basic", "--set", value]) == 2
        assert f"field '{value.split('=')[0]}'" in capsys.readouterr().err


def test_config_file_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("3")
    assert main(["--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_accepts_an_int_for_a_float_field(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "udpcc_basic", "duration": 1,
                                "delay": 0, "layer_rates": [1.0, 2]}))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    cfg = json.loads((tmp_path / "out" / "config.json").read_text())
    assert (cfg["duration"], cfg["delay"], cfg["layer_rates"]) == \
        (1, 0, [1, 2])


@pytest.mark.parametrize("field,value", WRONG_TYPES)
def test_make_config_keyword_of_the_wrong_type_raises(field, value):
    with pytest.raises(ConfigError, match=f"field '{field}'"):
        make_config("udpcc_basic", **{field: value})


def test_make_config_keywords_pass_as_a_config_file_would():
    cfg = make_config("udpcc_basic", duration=1, delay=0,
                      layer_rates=[1.0, 2], ecn=True, loss_prob=0.001)
    assert (cfg.duration, cfg.delay, cfg.layer_rates, cfg.ecn,
            cfg.loss_prob) == (1, 0, [1, 2], True, 0.001)


@pytest.mark.parametrize("argv", [
    ["--scenario", "udpcc_basic", "--set", "mtu=100",
     "--set", "packet_size=100"],
    ["--scenario", "tcp_compare", "--set", "mtu=1000"],
    ["--scenario", "sharing", "--set", "mtu=1000"],
], ids=["frame-size-unread", "packet-size-unread-tcp",
        "packet-size-unread-sharing"])
def test_a_size_field_the_scenario_never_sends_may_exceed_mtu(tmp_path,
                                                              argv):
    assert main([*argv, "--set", "duration=1",
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("scenario,field", [("udpcc_basic", "packet_size"),
                                            ("audio_cbr", "frame_size")])
def test_a_size_field_the_scenario_sends_must_fit_in_mtu(tmp_path, capsys,
                                                         scenario, field):
    assert main(["--scenario", scenario, "--set", "mtu=100",
                 "--set", "duration=1", "--out", str(tmp_path)]) == 2
    assert f"field '{field}'" in capsys.readouterr().err


def test_named_check_passes():
    assert main(["--check", "ack_division"]) == 0
