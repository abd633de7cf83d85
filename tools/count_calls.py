"""Count the calls one perfbench input set makes per delivered packet.

    python3 tools/count_calls.py --workload adaptive_mix [--input-set 1000]
                                 [--top 15] [--root CHECKOUT]

Builds the input set with perfbench's own ``inputs.generate`` and
``workloads.setup``, which it imports and never changes, then counts
every call that ``sys.setprofile`` reports while ``prep.run()`` runs: a
``call`` event for each Python-level frame and a ``c_call`` event for
each builtin function or method called from Python. It prints both
totals per delivered packet, and the top N functions of each kind. The
counts repeat exactly from run to run, so two commits compare by count
where their timings would differ by host noise; they say nothing of the
time a call takes. ``--root`` names the checkout to count (default: the
one holding this script), so the same script counts a parent commit from
a clone of it.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import Counter
from typing import Any, Callable, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


def count_calls(run: Callable[[], Any]) -> Tuple[Counter, Counter, Any]:
    """(Python-level calls by function, C-level calls by function, what
    ``run()`` returned), counted while ``run()`` runs. A Python function
    is keyed by ``file:line qualname``, a builtin by its module and
    qualified name. The count starts from a collected heap, so the
    collector, and any callback hooked to it, runs at the same points in
    two runs of the same work."""
    codes: Counter = Counter()
    builtins: Counter = Counter()

    def profile(frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            codes[frame.f_code] += 1
        elif event == "c_call":
            builtins[(arg.__module__, arg.__qualname__)] += 1

    gc.collect()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    # distinct functions can share a name (every dataclass __init__ is
    # "<string>:2 __create_fn__.<locals>.__init__"), so names sum
    python: Counter = Counter()
    for code, n in codes.items():
        python[f"{os.path.relpath(code.co_filename)}:{code.co_firstlineno} "
               f"{code.co_qualname}"] += n
    c_level: Counter = Counter()
    for key, n in builtins.items():
        c_level[".".join(filter(None, key))] += n
    return python, c_level, result


def main(argv: List[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("bulk_tcp", "web_churn", "adaptive_mix"))
    p.add_argument("--input-set", type=int, default=1000)
    p.add_argument("--top", type=int, default=15)
    p.add_argument("--root", default=os.path.dirname(HERE))
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import checks
    import inputs
    import workloads

    prep = workloads.setup(args.workload,
                           inputs.generate(args.workload, args.input_set),
                           args.input_set)
    python, c_level, (records, _summary) = count_calls(prep.run)
    pkts = checks.scan(records, prep.mtu, prep.duration,
                       prep.ref_flows)["sim"]["delivered_pkts"]
    print(f"{args.workload}, input set {args.input_set}: "
          f"{pkts} delivered packets")
    for label, counts in (("Python-level", python), ("C-level", c_level)):
        total = sum(counts.values())
        print(f"{label} calls: {total} ({total / pkts:.1f} per packet)")
        for name, n in counts.most_common(args.top):
            print(f"  {n / pkts:8.3f}  {n:9d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
