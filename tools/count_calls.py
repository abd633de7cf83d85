"""Count the calls and bytecode instructions one perfbench input set runs
per delivered packet, in one checkout or in two side by side.

    python3 tools/count_calls.py --workload adaptive_mix [--input-set 1000]
                                 [--top 15] [--root CHECKOUT]
    python3 tools/count_calls.py --compare OLD_CHECKOUT [--workload W]
                                 [--input-set 1000] [--root CHECKOUT]

Builds the input set with perfbench's own ``inputs.generate`` and
``workloads.setup``, which it imports and never changes, and runs it
twice. The first run counts every call that ``sys.setprofile`` reports:
a ``call`` event for each Python-level frame and a ``c_call`` event for
each builtin function or method called from Python. The second counts
the bytecode instructions that Python frames execute, through
``sys.settrace`` with each frame's ``f_trace_opcodes`` set. On
``bulk_tcp`` the call count takes about 7 times a plain run's time, and
the instruction count about 11 times. It prints the three totals per
delivered packet, and the top N functions of each call kind. The counts
repeat exactly from run to run, so two commits compare by count where
their timings would differ by host noise; they say nothing of the time a
call or an instruction takes. A call count tends to overstate a
speed-up, and an instruction count to understate it, so the two bracket
a timed claim; they do not replace the timed pairs. ``--root`` names the
checkout to count (default: the one holding this script), so the same
script counts a parent commit from a clone of it.

``--compare OLD`` counts each workload (all three, or the one named) in
both checkouts, each in a fresh interpreter with ``PYTHONHASHSEED=0``,
and prints the ``--root`` checkout's counts per packet over OLD's, with
the sha256 of the trace.csv each tree writes for the input set (the
digest perfbench reports). Run both from paths of equal length.
``--duration D`` cuts a ``bulk_tcp`` input set to D simulated seconds,
for a short check.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bulk_tcp", "web_churn", "adaptive_mix")
# (label, key of measure()'s totals)
KINDS = (("Python-level calls", "python"), ("C-level calls", "c_level"),
         ("bytecode instructions", "opcodes"))


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


def count_opcodes(run: Callable[[], Any]) -> Tuple[int, Any]:
    """(bytecode instructions executed by Python frames, what ``run()``
    returned), counted while ``run()`` runs from a collected heap, as in
    count_calls. Builtins run no bytecode, so they count nothing."""
    executed = 0

    def per_frame(frame: Any, event: str, arg: Any) -> Any:
        nonlocal executed
        if event == "opcode":
            executed += 1
        return per_frame

    def trace(frame: Any, event: str, arg: Any) -> Any:
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return per_frame

    gc.collect()
    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return executed, result


def measure(workload: str, input_set: int,
            duration: Optional[float]) -> Dict[str, Any]:
    """The counts of one input set in the checkout on ``sys.path``:
    delivered packets, Python-level and C-level calls by function,
    instructions executed, and the sha256 of the trace.csv it writes."""
    import checks
    import inputs
    import workloads
    from cmsim.trace import write_csv

    data = inputs.generate(workload, input_set)
    if duration is not None:
        data = dict(data, duration=duration)

    def prepared() -> Any:
        return workloads.setup(workload, data, input_set)

    prep = prepared()
    python, c_level, (records, _summary) = count_calls(prep.run)
    opcodes, _ = count_opcodes(prepared().run)
    pkts = checks.scan(records, prep.mtu, prep.duration,
                       prep.ref_flows)["sim"]["delivered_pkts"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_csv(path, records)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return {"pkts": pkts, "python": python, "c_level": c_level,
            "opcodes": opcodes, "trace_sha256": digest}


def measure_in(root: str, workload: str, input_set: int,
               duration: Optional[float]) -> Dict[str, Any]:
    """measure() of the checkout at ``root``, in a fresh interpreter
    running this script, with string hashing fixed. Counts are totals."""
    argv = [sys.executable, os.path.abspath(__file__), "--json",
            "--root", root, "--workload", workload,
            "--input-set", str(input_set)]
    if duration is not None:
        argv += ["--duration", repr(duration)]
    out = subprocess.run(argv, check=True, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONHASHSEED="0")).stdout
    return json.loads(out.splitlines()[-1])


def totals(counts: Dict[str, Any]) -> Dict[str, Any]:
    """measure()'s counts with each call counter summed."""
    return {**counts, "python": sum(counts["python"].values()),
            "c_level": sum(counts["c_level"].values())}


def compare(new_root: str, old_root: str, workload: str, input_set: int,
            duration: Optional[float]) -> List[str]:
    """Lines giving the counts per delivered packet of ``new_root`` over
    those of ``old_root`` for one input set, and both trace digests."""
    old = measure_in(old_root, workload, input_set, duration)
    new = measure_in(new_root, workload, input_set, duration)
    lines = [f"{workload}, input set {input_set}: {old['pkts']} -> "
             f"{new['pkts']} delivered packets"]
    for label, key in KINDS:
        was, now = old[key] / old["pkts"], new[key] / new["pkts"]
        lines.append(f"  {label} per packet: {was:.1f} -> {now:.1f}, "
                     f"ratio {now / was:.3f}")
    lines.append(f"  trace sha256 old: {old['trace_sha256']}")
    lines.append(f"  trace sha256 new: {new['trace_sha256']}")
    return lines


def main(argv: List[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--input-set", type=int, default=1000)
    p.add_argument("--top", type=int, default=15)
    p.add_argument("--root", default=os.path.dirname(HERE))
    p.add_argument("--compare", metavar="OLD_ROOT")
    p.add_argument("--duration", type=float,
                   help="simulated seconds of a bulk_tcp input set")
    p.add_argument("--json", action="store_true",
                   help="print the totals as one JSON object")
    args = p.parse_args(argv)
    if args.duration is not None and args.workload != "bulk_tcp":
        p.error("--duration applies to --workload bulk_tcp only")
    root = os.path.abspath(args.root)
    if args.compare is not None:
        for workload in [args.workload] if args.workload else WORKLOADS:
            print("\n".join(compare(root, os.path.abspath(args.compare),
                                    workload, args.input_set,
                                    args.duration)))
        return 0
    if args.workload is None:
        p.error("--workload is required without --compare")
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    counts = measure(args.workload, args.input_set, args.duration)
    summed = totals(counts)
    if args.json:
        print(json.dumps(summed))
        return 0
    pkts = counts["pkts"]
    print(f"{args.workload}, input set {args.input_set}: "
          f"{pkts} delivered packets")
    for label, key in KINDS:
        total = summed[key]
        print(f"{label}: {total} ({total / pkts:.1f} per packet)")
        if key != "opcodes":
            for name, n in counts[key].most_common(args.top):
                print(f"  {n / pkts:8.3f}  {n:9d}  {name}")
    print(f"trace sha256: {counts['trace_sha256']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
