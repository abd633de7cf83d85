"""The command-line front end: running a scenario into --out, re-running
the config.json it wrote, overriding fields with --set (the one way to
set seed and duration), running a named check, and exit status 2 for bad
input, including a config file value of the wrong type, and for outputs
it cannot write, found before the run. A config file and --set fields,
--set scenario= among them, lie over the scenario's defaults. A --set
value is JSON, read and typed as a config file's is, so every value of a
written config.json passes back through --set. make_config's keyword
overrides get the same type check as a config file, and a float field
holds a float."""
import json

import pytest

from cmsim.errors import ConfigError
from cmsim.harness import SCENARIO_NAMES, make_config, scenarios
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


@pytest.mark.parametrize("argv,error", [
    (["--scenario", "udpcc_basic", "--set", "no_such_field=1"],
     "unknown config field"),
    (["--scenario", "udpcc_basic", "--set", "loss_prob=1.5"],
     "must be in [0, 1)"),
    (["--check", "no_such_check"], "unknown check"),
    # the layer ladder and its safety factor are constants of the
    # layered sources, not config fields
    (["--scenario", "layered_rate", "--set", "layer_rates=0,16384",
      "--set", "duration=1"], "unknown config field"),
    (["--scenario", "layered_rate", "--set", "safety=0.8",
      "--set", "duration=1"], "unknown config field"),
    (["--scenario", "delayed_feedback", "--set", "max_delay=0"],
     "must be positive and finite"),
    (["--scenario", "delayed_feedback", "--set", "max_delay=Infinity"],
     "must be positive and finite"),
    # a bool field takes JSON's true or false, as in a config file
    (["--scenario", "udpcc_basic", "--set", "ecn=yes",
      "--set", "duration=1"], "field 'ecn': expected bool"),
    # --check runs the checks' own configs; --set and --out, which it
    # would ignore, are refused before any check runs
    (["--check", "ack_division", "--set", "seed=3"],
     "need --scenario or --config"),
    (["--check", "ack_division", "--out", "never-written"],
     "need --scenario or --config"),
], ids=["unknown-field", "loss-prob-out-of-range", "unknown-check",
        "zero-layer-rate", "safety-is-no-field", "batch-without-timer",
        "batch-with-endless-timer", "bool-word", "check-with-set",
        "check-with-out"])
def test_bad_input_exits_2(argv, error, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert error in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["set", "config"])
def test_endless_duration_exits_2_before_any_run(tmp_path, monkeypatch,
                                                 capsys, source):
    """An endless duration, JSON's Infinity from --set or a config file,
    once ran until it was killed; it is refused before the scenario is
    built."""
    def build(*args):
        raise AssertionError("a run started")

    monkeypatch.setitem(scenarios.BUILDERS, "udpcc_basic", build)
    if source == "set":
        argv = ["--scenario", "udpcc_basic", "--set", "duration=Infinity"]
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
    ("ecn", "no"), ("duration", True),
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


def outcome(out, argv, capsys):
    """(0, the config.json written) of a run, or (its exit status, its
    error output)."""
    status = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    return (0, (out / "config.json").read_bytes()) if status == 0 \
        else (status, err)


@pytest.mark.parametrize("field,text,stored", [
    ("num_flows", "2.0", 2), ("num_flows", "2.5", None),
    ("ecn", "1", None), ("bulk", "0", None), ("duration", "Infinity", None),
], ids=["num_flows-2.0", "num_flows-2.5", "ecn-1", "bulk-0",
        "duration-Infinity"])
def test_a_value_is_one_rule_from_set_or_a_config_file(tmp_path, capsys,
                                                        field, text, stored):
    """A value's JSON text means the same from --set as from a config
    file: both write the same config.json, where an int field's 2.0 is 2,
    or both exit 2 with the same error naming the field."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "udpcc_basic", "duration": 1,
                                field: json.loads(text)}))
    got = outcome(tmp_path / "file", ["--config", str(path)], capsys)
    want = outcome(tmp_path / "set", ["--scenario", "udpcc_basic",
                                      "--set", "duration=1",
                                      "--set", f"{field}={text}"], capsys)
    assert got == want
    if stored is None:
        assert got[0] == 2 and f"field '{field}'" in got[1]
    else:
        assert json.loads(got[1])[field] == stored


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_every_written_value_passes_back_through_set(tmp_path, scenario):
    """--set key=<its value as config.json holds it>, for every key of a
    written config.json, reruns that run from another scenario's
    defaults: the same config.json and trace.csv."""
    first = outputs(tmp_path / "a", "--scenario", scenario,
                    "--set", "duration=1")
    sets = [arg for key, value in json.loads(first["config.json"]).items()
            for arg in ("--set", f"{key}={json.dumps(value)}")]
    again = outputs(tmp_path / "b", "--scenario", "udpcc_basic", *sets)
    assert again["config.json"] == first["config.json"]
    assert again["trace.csv"] == first["trace.csv"]


def test_config_file_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("3")
    assert main(["--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_accepts_an_int_for_a_float_field(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "udpcc_basic", "duration": 1,
                                "delay": 0}))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    cfg = json.loads((tmp_path / "out" / "config.json").read_text())
    assert (cfg["duration"], cfg["delay"]) == (1, 0)


@pytest.mark.parametrize("field,value", WRONG_TYPES)
def test_make_config_keyword_of_the_wrong_type_raises(field, value):
    with pytest.raises(ConfigError, match=f"field '{field}'"):
        make_config("udpcc_basic", **{field: value})


def test_make_config_keywords_pass_as_a_config_file_would():
    cfg = make_config("udpcc_basic", duration=1, delay=0, ecn=True,
                      loss_prob=0.001)
    assert (cfg.duration, cfg.delay, cfg.ecn, cfg.loss_prob) == \
        (1, 0, True, 0.001)


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
