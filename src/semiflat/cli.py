"""Command-line entry point.

    semiflat run <scenario.json> [--out DIR] [--seed N] [--tolerance-scale F]
    semiflat --list

Exit codes: 0 all checks passed, 1 a check failed, 2 malformed scenario.
For a fixed seed the report and CSV files are byte-identical across runs.
No environment variable is read.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .errors import ScenarioError


def bundled_scenarios() -> list[str]:
    root = resources.files("semiflat") / "scenarios"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def bundled_path(name: str) -> Path:
    return Path(str(resources.files("semiflat") / "scenarios" / name))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="semiflat",
        description="Run verification scenarios for semi-flat torus-fibration ansatze.")
    parser.add_argument("--list", action="store_true", dest="list_scenarios",
                        help="list the bundled scenario files and exit")
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run a scenario file")
    runp.add_argument("scenario", help="path to a scenario JSON "
                                       "(or the name of a bundled one)")
    runp.add_argument("--out", default="out", help="output directory")
    runp.add_argument("--seed", type=int, default=None, help="seed override (u64)")
    runp.add_argument("--tolerance-scale", type=float, default=1.0,
                      help="uniform tolerance relaxation factor, finite and positive "
                           "(reported in output)")
    args = parser.parse_args(argv)

    if args.list_scenarios:
        for name in bundled_scenarios():
            print(name)
        return 0
    if args.command != "run":
        parser.print_help()
        return 2

    # imported here so that --list loads neither numpy nor the checks
    from .scenario import run_scenario

    path = Path(args.scenario)
    if not path.exists():
        candidate = bundled_path(path.name)
        if candidate.exists():
            path = candidate
    try:
        report = run_scenario(path, out_dir=args.out, seed=args.seed,
                              tolerance_scale=args.tolerance_scale)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
