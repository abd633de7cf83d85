from .checks import CHECKS, CheckResult, run_all
from .config import (ExperimentConfig, SCENARIO_NAMES, SCENARIOS,
                     load_json, make_config, save_json, validate)
from .oracles import RenoSender, aimd_reference
from .scenarios import (BUILDERS, RunOutput, run_experiment, run_stats,
                        summarize_trace, write_outputs)

__all__ = [
    "BUILDERS",
    "CHECKS",
    "CheckResult",
    "ExperimentConfig",
    "RenoSender",
    "RunOutput",
    "SCENARIOS",
    "SCENARIO_NAMES",
    "aimd_reference",
    "load_json",
    "make_config",
    "run_all",
    "run_experiment",
    "run_stats",
    "save_json",
    "summarize_trace",
    "validate",
    "write_outputs",
]
