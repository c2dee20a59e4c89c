"""Write reference.json: status and fitted scalars of every workload input.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs every input of each workload's pool (workloads.pool) once, in this
process, through `run_scenario`, and records what gate.summarize keeps.
Regenerate only when the program's measurements are meant to change, and
say so in the change that does it.  Takes about seven minutes on a 2-core
Xeon.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gate
import workloads

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def main() -> int:
    from semiflat.scenario import run_scenario

    ref = {}
    for wl in workloads.WORKLOADS:
        for item in workloads.pool(wl):
            report = run_scenario(item["cfg"], out_dir=None, seed=item["seed"])
            ref[item["key"]] = gate.summarize(json.loads(report.to_json()))
    REFERENCE.write_text(json.dumps(ref, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
