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
        "b5b92b0a09a093b1a60267bfdb598f95e7743530c65c3ae1422a38b06f3c05ea",
    ("sharing", "trace.csv"):
        "7ff95b3cd1ee8f5e34a83d5e010ab213f3f515854d411f90957b681d3c4b7525",
    ("sharing", "summary.json"):
        "569e6a3caf91aea1bc5c3d1d9a78bcb18256245e28860e110d2569c5630f2fd5",
    ("sharing", "config.json"):
        "61a801bb0576eb8dc97daf0d5d3e4ca91a0bc1eb4cc095dfda0dd79a8dbee3b0",
    ("layered_alf", "trace.csv"):
        "df4d95bf8984e854aa8d1317282700017ec6bf66c6a29bb9d9403bf933ba5217",
    ("layered_alf", "summary.json"):
        "7f1d2989c4bf88cd8ad026f8a9110a67bbbee44ac5aec32fe1dd413fdd7c9356",
    ("layered_alf", "config.json"):
        "b75c7571a3dd4bbd242cec7dafd866621f24acaf86d1f573b5ae74f9f46fe22f",
    ("layered_rate", "trace.csv"):
        "7378ca0705e64c8b48de9a39b603f7f29586cb72e520d3322c94e2a0c118fec3",
    ("layered_rate", "summary.json"):
        "8f0e96bbbcfb8d7514131b3f6ea2151c470d727f5729c9805ef909896b352ef4",
    ("layered_rate", "config.json"):
        "8ca595ac1997edb4c7857a0a83e97167956e7c95d855b05bbe990f48550a2be5",
    ("delayed_feedback", "trace.csv"):
        "68d428551227e2b47022974df8980dd765f575699b30ff17c808246c35051667",
    ("delayed_feedback", "summary.json"):
        "2067ad5d90be1d5dc4e05f4de9f2aeb56aff572c3af8244a4cb5a97404e98217",
    ("delayed_feedback", "config.json"):
        "71d4d710847df9a56de64b7f8bec9cada49614d1c4d00d7956b7b9134cc76093",
    ("fairness_ensemble", "trace.csv"):
        "abbc369ee4f99820cfe9f109ff66b134d3e1e28bd2b505762c4b616a47cfc394",
    ("fairness_ensemble", "summary.json"):
        "96bbd5eb55ac508f7707ecfc53a9f5fa499f7a881b8b24e843d2b0f279ca4b0e",
    ("fairness_ensemble", "config.json"):
        "c6a12ee0535be9bb86cad1c92d5fd6f64625a1e6bf1d388807a05699dab724b0",
    ("udpcc_basic", "trace.csv"):
        "a6c9307d740116f93bef8540384ffc6513d0a4234887f17ece888bb1ac87bf1b",
    ("udpcc_basic", "summary.json"):
        "0899f0a2cd353e8c83aef7e724f2c20afdda1d68c1843440875f8aea1f32019a",
    ("udpcc_basic", "config.json"):
        "95e568c7fc81f97a71f636d281d6b25671bf338537eb8fda78a38ef06f5fb3e2",
    ("audio_cbr", "trace.csv"):
        "e285447aad63a86249c1ba859a1a9cac8cc2f7358b3430285a558afdb644e240",
    ("audio_cbr", "summary.json"):
        "493fd5add3d9f84bc9a8511421575db62e0aa42b2d8895cfa9766cccba03dec8",
    ("audio_cbr", "config.json"):
        "c190054e3b11442a0b1c2a0487a6d3b427942d1046de2a17536fef9cdad7ffe5",
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
