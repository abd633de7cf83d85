"""tools/count_calls.py: its counting functions give the same counts on
two runs of one scenario, so two commits can be compared by count; the
call counter adds up the calls of distinct functions that share a name,
and a tree compared with itself reads a ratio of one."""
import importlib.util
from functools import partial
from pathlib import Path

from cmsim.harness import make_config, run_experiment

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_calls.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("count_calls", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_two_runs_give_identical_counts():
    count_calls = load_tool().count_calls
    cfg = make_config("tcp_compare", duration=1.0)
    # the first run in a process also fills the ABC subclass caches
    # (16 more __subclasscheck__ calls), so the two counted runs follow it
    run_experiment(cfg)
    first = count_calls(partial(run_experiment, cfg))
    second = count_calls(partial(run_experiment, cfg))
    assert first[:2] == second[:2]
    python, c_level, out = first
    assert out.summary == second[2].summary
    assert any(name.endswith(" EventLoop.schedule") for name in python)
    assert not any(name.endswith(" ScheduledEvent.__init__") for name in python)
    assert c_level["_heapq.heappush"] > 0


def test_functions_that_share_a_name_add_up():
    # two different functions, both "<string>:1 f", as the generated
    # __init__ of every dataclass is "<string>:2 __create_fn__...__init__"
    count_calls = load_tool().count_calls
    fns = []
    for body in ("return 0", "return 1"):
        ns = {}
        exec(compile(f"def f():\n    {body}\n", "<string>", "exec"), ns)
        fns.append(ns["f"])
    python, _, _ = count_calls(lambda: [fn() for fn in fns])
    assert python["<string>:1 f"] == 2


def test_opcode_count_repeats_exactly():
    count_opcodes = load_tool().count_opcodes
    cfg = make_config("tcp_compare", duration=1.0)
    run_experiment(cfg)
    first = count_opcodes(partial(run_experiment, cfg))
    second = count_opcodes(partial(run_experiment, cfg))
    assert first[0] == second[0] > 0
    assert first[1].summary == second[1].summary


def test_a_tree_compared_with_itself_reads_one(capsys):
    """--compare counts each tree in a fresh interpreter; a 1 s bulk_tcp
    input set (tcp_compare) against the same tree reads 1.000 for the
    calls and the instructions alike, and one trace digest twice."""
    tool = load_tool()
    assert tool.main(["--compare", str(TOOL.parents[1]), "--workload",
                      "bulk_tcp", "--duration", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count(", ratio 1.000\n") == 3
    old, new = [line.split()[-1] for line in out.splitlines()
                if "trace sha256" in line]
    assert old == new
