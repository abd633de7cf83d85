"""tools/bench_compare.py on two synthetic BENCH records."""
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"

BENCH = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "speed", "better": "higher", "bound": 0.2},
        {"name": "rss", "better": "lower", "bound": 0.08},
    ],
    "per_layer": [{"name": "sim.self_frac", "better": "lower"}],
}


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def record(speed, rss, trace_digest, runs=5, failed=0, per_set="1/0, 1/0"):
    notes = [f"runs: {runs} in 20.0s; set-up samples: 15",
             f"ops attempted {runs}, failed {failed}; per input set "
             f"(ops/failed): {per_set}",
             f"trace sha256: {trace_digest}",
             "sim sha256:   s1"]
    return {"commit": "0123456789abcdef",
            "workloads": {"w": {
                "median_over_seeds": {"speed": speed, "rss": rss},
                "seeds": {"1": {"notes": notes}},
                "traced": {"metrics": {"sim.self_frac": 0.5}}}}}


def run(tmp_path, old, new, capsys):
    paths = []
    for name, rec in (("old", old), ("new", new), ("bench", BENCH)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(rec))
        paths.append(str(p))
    code = load_tool().main([paths[0], paths[1], "--benchmark", paths[2]])
    return code, capsys.readouterr().out


def test_within_bounds_and_same_outputs(tmp_path, capsys):
    code, out = run(tmp_path, record(100.0, 50.0, "t1"),
                    record(110.0, 51.0, "t1", runs=6), capsys)
    assert code == 0
    assert "+10.0%" in out and "+2.0%" in out
    assert "seed 1: trace same, sim same, ops/failed same" in out
    assert "old runs 5, failed 0/5 (0.00%), new runs 6, failed 0/6" in out
    assert "share moved" not in out
    assert not any(ln.startswith("!") for ln in out.splitlines())
    assert "sim.self_frac" in out


def test_metric_worse_than_bound_fails_and_digests_differ(tmp_path, capsys):
    code, out = run(tmp_path, record(100.0, 50.0, "t1"),
                    record(100.0, 55.0, "t2"), capsys)
    assert code == 1
    flagged = [ln for ln in out.splitlines() if ln.startswith("!")]
    assert len(flagged) == 1 and "rss" in flagged[0]
    assert "seed 1: trace DIFFERENT, sim same, ops/failed same" in out


def test_failed_share_that_moved_with_run_count_only_is_flagged(tmp_path,
                                                               capsys):
    """The same input set fails in both, but the new side fit more runs
    into the time, so its failed share differs."""
    code, out = run(tmp_path,
                    record(100.0, 50.0, "t1", runs=5, failed=1,
                           per_set="1/0, 1/1"),
                    record(100.0, 50.0, "t1", runs=6, failed=2,
                           per_set="1/0, 1/1"), capsys)
    assert code == 0
    assert ("seed 1: trace same, sim same, ops/failed same; "
            "old runs 5, failed 1/5 (20.00%), "
            "new runs 6, failed 2/6 (33.33%); "
            "share moved with run count only") in out


def test_failed_share_with_different_ops_failed_is_not_flagged(tmp_path,
                                                               capsys):
    code, out = run(tmp_path,
                    record(100.0, 50.0, "t1", runs=5, failed=1,
                           per_set="1/0, 1/1"),
                    record(100.0, 50.0, "t1", runs=5, failed=0), capsys)
    assert "ops/failed DIFFERENT" in out
    assert "share moved" not in out
