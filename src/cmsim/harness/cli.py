"""Command-line front end.

Two jobs: run one scenario (writing trace.csv, summary.json and
config.json to --out), or execute the acceptance checks with --check.
Exit status is 0 on success, 1 on a failed check, 2 on bad input.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ..errors import ConfigError
from .checks import CHECKS, run_all
from .config import SCENARIO_NAMES, load_json, make_config, parse_overrides
from .scenarios import run_experiment, write_outputs


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cmsim",
        description="Shared congestion-control simulator: run experiment "
                    "scenarios and acceptance checks.")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--scenario", choices=SCENARIO_NAMES,
                     help="scenario to run with its default parameters")
    src.add_argument("--config", metavar="FILE",
                     help="JSON config file to run, in the format written "
                          "to <out>/config.json; omitted fields take the "
                          "scenario's defaults")
    p.add_argument("--out", metavar="DIR",
                   help="directory for trace.csv, summary.json, config.json")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="override any config field, such as seed or "
                        "duration (repeatable); VALUE is JSON, as "
                        "config.json holds it, and a bare word is a string")
    p.add_argument("--check", nargs="*", metavar="NAME", default=None,
                   help="run acceptance checks (all by default, or just "
                        f"the named ones); known: {', '.join(CHECKS)}")
    return p


def _run_scenario(args: argparse.Namespace) -> int:
    try:
        fields = (load_json(args.config) if args.config
                  else {"scenario": args.scenario})
        fields.update(parse_overrides(args.overrides))
        cfg = make_config(**fields)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bad config file: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            # made before the run, so an --out that cannot be made costs no run
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"cannot write outputs: {exc}", file=sys.stderr)
            return 2
    out = run_experiment(cfg)
    if args.out:
        try:
            write_outputs(out, args.out)
        except OSError as exc:
            print(f"cannot write outputs: {exc}", file=sys.stderr)
            return 2
        print(f"{cfg.scenario}: wrote trace.csv, summary.json, "
              f"config.json to {args.out}")
        return 0
    # Without --out, print the headline numbers and discard the trace.
    for fid, e in out.summary["trace_stats"]["per_flow"].items():
        print(f"flow {fid}: {int(e['delivered_bytes'])} B delivered "
              f"({e['throughput_bps'] / 1e6:.3f} Mbit/s)")
    rs = out.summary["run_stats"]
    print(f"boundary crossings: {rs['boundary_crossings']} "
          f"({rs['crossings_per_mb']:.1f} per MB)")
    return 0


def _run_checks(names: List[str]) -> int:
    try:
        results = run_all(names or None)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    for r in results:
        print(r.line())
    failed = sum(1 for r in results if not r.passed)
    if failed:
        print(f"{failed}/{len(results)} checks failed", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    no_run = args.scenario is None and args.config is None
    if no_run and args.check is None:
        parser.error("nothing to do: pass --scenario, --config, or --check")
    if no_run and (args.overrides or args.out is not None):
        # the checks run configs of their own and write no files
        print("--set and --out need --scenario or --config", file=sys.stderr)
        return 2
    if not no_run and _run_scenario(args):
        return 2
    if args.check is not None:
        return _run_checks(args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
