"""Golden outputs: each of the 8 scenarios at its default config with
seed 1 must write trace.csv, summary.json and config.json byte for byte
as recorded below. A refactor keeps these digests; a change that alters
outputs on purpose updates them and says so in CHANGES.md."""
import hashlib

import pytest

from cmsim.harness import (SCENARIO_NAMES, make_config, run_experiment,
                           write_outputs)

FILES = ("trace.csv", "summary.json", "config.json")

GOLDEN = {
    ("tcp_compare", "trace.csv"):
        "33aa47c8e60193dff957239d0ad06bdf7cbc9db697fe83643cf443874b8a860d",
    ("tcp_compare", "summary.json"):
        "37371385c8def98ff566c710a5a1757c7e275a249aca687c33d4470ebe2f0fb3",
    ("tcp_compare", "config.json"):
        "4decf9818116f771b8fd7719b8e63a4e418eaafa250fc421b85737213f8b7007",
    ("sharing", "trace.csv"):
        "7ff95b3cd1ee8f5e34a83d5e010ab213f3f515854d411f90957b681d3c4b7525",
    ("sharing", "summary.json"):
        "569e6a3caf91aea1bc5c3d1d9a78bcb18256245e28860e110d2569c5630f2fd5",
    ("sharing", "config.json"):
        "9e63fc741f5d23fc7ed21a1246c702ab48da25020f9ec388cb92a94ed83f3598",
    ("layered_alf", "trace.csv"):
        "df4d95bf8984e854aa8d1317282700017ec6bf66c6a29bb9d9403bf933ba5217",
    ("layered_alf", "summary.json"):
        "7f1d2989c4bf88cd8ad026f8a9110a67bbbee44ac5aec32fe1dd413fdd7c9356",
    ("layered_alf", "config.json"):
        "97e2d27922a08b34df6962aa542b6b0ab4fc140cb602af7f9a406e4c7ba886ee",
    ("layered_rate", "trace.csv"):
        "7378ca0705e64c8b48de9a39b603f7f29586cb72e520d3322c94e2a0c118fec3",
    ("layered_rate", "summary.json"):
        "8f0e96bbbcfb8d7514131b3f6ea2151c470d727f5729c9805ef909896b352ef4",
    ("layered_rate", "config.json"):
        "ff1a7eb395c2fb37a34b8ffb8742d3b854ce70ad2ffa0592e2bea263a15be0ea",
    ("delayed_feedback", "trace.csv"):
        "68d428551227e2b47022974df8980dd765f575699b30ff17c808246c35051667",
    ("delayed_feedback", "summary.json"):
        "2067ad5d90be1d5dc4e05f4de9f2aeb56aff572c3af8244a4cb5a97404e98217",
    ("delayed_feedback", "config.json"):
        "1a6b93e4c173cc747007fb27cea6f7bd9d8df05c109000c143ee4d76086fe96a",
    ("fairness_ensemble", "trace.csv"):
        "abbc369ee4f99820cfe9f109ff66b134d3e1e28bd2b505762c4b616a47cfc394",
    ("fairness_ensemble", "summary.json"):
        "96bbd5eb55ac508f7707ecfc53a9f5fa499f7a881b8b24e843d2b0f279ca4b0e",
    ("fairness_ensemble", "config.json"):
        "b789a4f924fb276d4fbfb32d83c91c1a89aa28d7040ea6424d2a232c3ee22cc0",
    ("udpcc_basic", "trace.csv"):
        "a6c9307d740116f93bef8540384ffc6513d0a4234887f17ece888bb1ac87bf1b",
    ("udpcc_basic", "summary.json"):
        "0899f0a2cd353e8c83aef7e724f2c20afdda1d68c1843440875f8aea1f32019a",
    ("udpcc_basic", "config.json"):
        "e841f7debe70caeaf351a0ad21b75716ebb3ae7fdd3ec32f8acf4212ec01edd0",
    ("audio_cbr", "trace.csv"):
        "e285447aad63a86249c1ba859a1a9cac8cc2f7358b3430285a558afdb644e240",
    ("audio_cbr", "summary.json"):
        "493fd5add3d9f84bc9a8511421575db62e0aa42b2d8895cfa9766cccba03dec8",
    ("audio_cbr", "config.json"):
        "52cf73df23708c375cdcb632c478d3fc37b9963c54a7ce0f22589013b26202d8",
}


def test_every_scenario_has_golden_digests():
    assert sorted({name for name, _ in GOLDEN}) == sorted(SCENARIO_NAMES)


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_outputs_match_golden_digests(scenario, tmp_path):
    cfg = make_config(scenario)
    cfg.seed = 1
    write_outputs(run_experiment(cfg), str(tmp_path))
    for name in FILES:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == GOLDEN[(scenario, name)], f"{scenario} {name}"
