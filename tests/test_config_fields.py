"""Every ExperimentConfig field is a value some caller varies: a SCENARIOS
entry gives it a value other than the dataclass default, or src/ or
perfbench/ names it as a make_config keyword. A field that every caller
leaves at one value is a constant beside the code that reads it (see
harness/config.py). The listed exceptions say why each stays."""
import ast
from dataclasses import fields
from pathlib import Path

from cmsim.harness import SCENARIOS, ExperimentConfig, make_config

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "perfbench")
EXCEPTIONS = {
    "seed": "perfbench sets it per input set, in the fields "
            "inputs.generate returns for bulk_tcp",
    "frame_size": "validate bounds it by mtu, which the scenarios vary, "
                  "so a sweep over valid configs draws the two together",
}


def make_config_keywords(source: str):
    """The keyword names of each make_config call in ``source``, called
    by name or as an attribute; ``**fields`` names none."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if name == "make_config":
                out |= {kw.arg for kw in node.keywords if kw.arg is not None}
    return out


def test_finder_sees_keywords_of_named_and_attribute_calls():
    source = ("make_config('a', loss_prob=0.1)\n"
              "harness.make_config(num_flows=2, **rest)\n"
              "other(seed=3)\n")
    assert make_config_keywords(source) == {"loss_prob", "num_flows"}


def test_every_config_field_is_varied_by_some_caller():
    default = ExperimentConfig()
    varied = {f.name for name in SCENARIOS
              for f in fields(ExperimentConfig)
              if getattr(make_config(name), f.name) != getattr(default, f.name)}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            varied |= make_config_keywords(path.read_text())
    fixed = {f.name for f in fields(ExperimentConfig)} - varied
    assert sorted(fixed - EXCEPTIONS.keys()) == []
    # an exception that is gone, or has gained a caller, leaves the list
    assert fixed == EXCEPTIONS.keys()
