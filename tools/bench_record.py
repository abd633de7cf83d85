"""Record one BENCH_<n>.json: perfbench under the fixed protocol.

    python3 tools/bench_record.py --out BENCH_6.json [--root CHECKOUT]

The protocol (ROADMAP item 2): every workload at seeds 1-3 with
``--seconds 20 --trace 0``, plus ``--trace 1`` at seed 1; then the wall
time of ``cmsim --check`` and of the Tier-1 suite. ``--root`` names the
checkout to measure (default: the one holding this script), so the same
script records a parent commit from a clone of it. Runs go one at a
time; nothing else should load the host meanwhile.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bulk_tcp", "web_churn", "adaptive_mix")
SEEDS = (1, 2, 3)
SECONDS = 20
TRACED_SEED = 1
PYTEST = [sys.executable, "-m", "pytest", "-q",
          "--continue-on-collection-errors"]
# note lines of run.py copied into the record, by prefix; the indented
# lines under a copied note (the traced run's largest self times) go too
NOTES = ("runs:", "trace sha256", "sim sha256", "ops attempted",
         "share of the traced run by layer", "largest self times")


def _run(cmd: List[str], root: str) -> Dict[str, Any]:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True)
    return {"wall_s": perf_counter() - t0, "returncode": proc.returncode,
            "stdout": proc.stdout, "stderr": proc.stderr}


def perfbench(root: str, workload: str, seed: int,
              trace: int) -> Dict[str, Any]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    res = _run(cmd, root)
    lines = res["stdout"].strip().splitlines()
    if res["returncode"] != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{res['stderr'][-2000:]}")
    out = json.loads(lines[-1])
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    out["notes"] = []
    keep = False
    for ln in lines[:-1]:
        keep = ln.startswith(NOTES) or (keep and ln.startswith("  "))
        if keep:
            out["notes"].append(ln)
    out["wall_s"] = res["wall_s"]
    return out


def main(argv: List[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--root", default=os.path.dirname(HERE))
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    def git(*cmd: str) -> str:
        return subprocess.run(["git", *cmd], cwd=root, capture_output=True,
                              text=True).stdout.rstrip("\n")

    record: Dict[str, Any] = {
        "commit": git("rev-parse", "HEAD"),
        # measured on top of that commit with these paths changed
        "uncommitted": git("status", "--porcelain", "--untracked-files=all",
                           "src", "tests").splitlines(),
        "protocol": {"seeds": list(SEEDS), "seconds": SECONDS, "trace": 0,
                     "traced_seed": TRACED_SEED,
                     "command": "python3 perfbench/run.py --workload W "
                                "--seed S --seconds 20 --trace 0|1"},
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "workloads": {},
    }
    for w in WORKLOADS:
        runs = {s: perfbench(root, w, s, 0) for s in SEEDS}
        names = runs[SEEDS[0]]["metrics"]
        record["workloads"][w] = {
            "median_over_seeds": {
                k: statistics.median(r["metrics"][k] for r in runs.values())
                for k in names},
            "seeds": {str(s): r for s, r in runs.items()},
            "traced": perfbench(root, w, TRACED_SEED, 1),
        }
        print(f"{w}: done", file=sys.stderr)
    check = _run([sys.executable, "-m", "cmsim.harness.cli", "--check"], root)
    tier1 = _run(PYTEST, root)
    summary = (tier1["stdout"].strip().splitlines() or [""])[-1]
    record["cmsim_check"] = {"wall_s": check["wall_s"],
                             "returncode": check["returncode"]}
    record["tier1"] = {"wall_s": tier1["wall_s"],
                       "summary": re.sub(r" in [\d.]+s.*", "", summary)}
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
