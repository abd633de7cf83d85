"""The acceptance checks in cmsim.harness.checks, run in the gated suite.

Every check in CHECKS runs here in full except aimd_oracle, whose
10^4-sequence sweep (about 5 s) runs behind `cmsim --check`; here it runs
its first 500 sequences. The others today are ack_division,
tcp_compatibility, shared_state_reuse, round_robin_fairness,
ensemble_friendliness, layered_adaptation, delayed_feedback,
audio_pipeline, determinism and bulk_accounting.
"""
import pytest

from cmsim.harness.checks import CHECKS, check_aimd_oracle, run_all

SLOW = ("aimd_oracle",)


@pytest.mark.parametrize("name", [n for n in CHECKS if n not in SLOW])
def test_check_passes(name):
    (result,) = run_all([name])
    assert result.passed, result.details


def test_aimd_oracle_first_500_sequences_match():
    """The full sweep's seed, so these are its first 500 sequences; they
    take well under a second."""
    result = check_aimd_oracle(sequences=500)
    assert result.passed, result.details
