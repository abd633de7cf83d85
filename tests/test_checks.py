"""The acceptance checks in cmsim.harness.checks, run in the gated suite.

Every check in CHECKS runs here except aimd_oracle (about 8 s), which
runs behind `cmsim --check`. Today that is ack_division,
tcp_compatibility, shared_state_reuse, round_robin_fairness,
ensemble_friendliness, layered_adaptation, delayed_feedback,
audio_pipeline, determinism and bulk_accounting.
"""
import pytest

from cmsim.harness.checks import CHECKS, run_all

SLOW = ("aimd_oracle",)


@pytest.mark.parametrize("name", [n for n in CHECKS if n not in SLOW])
def test_check_passes(name):
    (result,) = run_all([name])
    assert result.passed, result.details
