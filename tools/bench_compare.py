"""Compare two BENCH_<n>.json records made by tools/bench_record.py.

    python3 tools/bench_compare.py OLD.json NEW.json [--benchmark BENCHMARK.json]

Per workload it prints:
  * each end-to-end metric's median over the seeds, old and new, the
    change in percent and the metric's bound from BENCHMARK.json; a
    metric worse than its bound is flagged;
  * per seed, whether the trace digest, the sim digest and the
    per-input-set ops/failed are the same, and each side's run count and
    failed share; when the per-input-set ops/failed match but the shares
    differ, the share moved only with how many runs fit in the time;
  * the traced run's per-layer metrics side by side.
Exits 1 if any end-to-end metric is worse than its bound, else 0.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# note prefixes of run.py whose rest must match for outputs to be the same
IDENTITY = (("trace", "trace sha256:"), ("sim", "sim sha256:"),
            ("ops/failed", "ops attempted"))


def change(old: float, new: float) -> Optional[float]:
    """Relative change new vs old, or None when old is 0."""
    return None if old == 0 else (new - old) / abs(old)


def worse_than_bound(metric: Dict[str, Any], old: float, new: float) -> bool:
    rel = change(old, new)
    if rel is None:
        return False
    worse = -rel if metric["better"] == "higher" else rel
    return worse > metric["bound"]


def identity(notes: List[str]) -> Dict[str, Optional[str]]:
    """The digest and per-input-set ops/failed notes of one run."""
    out: Dict[str, Optional[str]] = {}
    for name, prefix in IDENTITY:
        line = next((n for n in notes if n.startswith(prefix)), None)
        if line is not None and name == "ops/failed":
            # the totals depend on how many runs fit in --seconds
            line = line.partition("per input set")[2] or line
        out[name] = line
    return out


def runs_and_failed(notes: List[str]) -> Tuple[Optional[int], int, int]:
    """(runs, ops attempted, ops failed) of one seed's notes; runs is None
    when no note gives it."""
    runs, attempted, failed = None, 0, 0
    for n in notes:
        m = re.match(r"runs: (\d+) ", n)
        if m:
            runs = int(m.group(1))
        m = re.match(r"ops attempted (\d+), failed (\d+)", n)
        if m:
            attempted, failed = int(m.group(1)), int(m.group(2))
    return runs, attempted, failed


def share(runs: Optional[int], attempted: int, failed: int) -> str:
    pct = f" ({failed / attempted:.2%})" if attempted else ""
    return f"runs {'?' if runs is None else runs}, failed {failed}/{attempted}{pct}"


def fmt(v: float) -> str:
    return f"{v:.4g}"


def compare(old: Dict[str, Any], new: Dict[str, Any],
            bench: Dict[str, Any]) -> List[str]:
    """Lines of the report; a line starting with "!" flags a metric
    worse than its bound."""
    lines = [f"old {old.get('commit', '?')[:12]}  new {new.get('commit', '?')[:12]}"]
    for w in bench["workloads"]:
        name = w["name"]
        wo, wn = old["workloads"].get(name), new["workloads"].get(name)
        if wo is None or wn is None:
            lines.append(f"{name}: missing from {'old' if wo is None else 'new'}")
            continue
        lines.append(f"{name}")
        lines.append(f"  {'metric':<16}{'old':>12}{'new':>12}{'change':>9}"
                     f"{'bound':>8}")
        mo, mn = wo["median_over_seeds"], wn["median_over_seeds"]
        for m in bench["end_to_end"]:
            k = m["name"]
            if k not in mo or k not in mn:
                continue
            rel = change(mo[k], mn[k])
            pct = "n/a" if rel is None else f"{rel:+.1%}"
            sign = "-" if m["better"] == "higher" else "+"
            flag = "!" if worse_than_bound(m, mo[k], mn[k]) else " "
            lines.append(f"{flag} {k:<16}{fmt(mo[k]):>12}{fmt(mn[k]):>12}"
                         f"{pct:>9}{sign + format(m['bound'], '.0%'):>8}")
        for seed in sorted(set(wo["seeds"]) & set(wn["seeds"]), key=int):
            no, nn = wo["seeds"][seed]["notes"], wn["seeds"][seed]["notes"]
            io, inew = identity(no), identity(nn)
            same = {k: io[k] is not None and io[k] == inew[k]
                    for k, _ in IDENTITY}
            so, sn = runs_and_failed(no), runs_and_failed(nn)
            moved = ""
            if same["ops/failed"] and so[1] and sn[1] and \
                    so[2] * sn[1] != sn[2] * so[1]:
                moved = "; share moved with run count only"
            lines.append(
                f"  seed {seed}: "
                + ", ".join(f"{k} {'same' if same[k] else 'DIFFERENT'}"
                            for k, _ in IDENTITY)
                + f"; old {share(*so)}, new {share(*sn)}{moved}")
        to, tn = wo["traced"]["metrics"], wn["traced"]["metrics"]
        lines.append("  per layer (traced run):")
        for m in bench["per_layer"]:
            k = m["name"]
            if k in to and k in tn:
                lines.append(f"    {k:<28}{fmt(to[k]):>12}{fmt(tn[k]):>12}")
    return lines


def main(argv: List[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = p.parse_args(argv)
    records = []
    for path in (args.old, args.new, args.benchmark):
        with open(path) as f:
            records.append(json.load(f))
    lines = compare(*records)
    print("\n".join(lines))
    return 1 if any(ln.startswith("!") for ln in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
