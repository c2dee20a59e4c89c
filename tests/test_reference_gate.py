"""Every benchmark pool passes the benchmark's correctness gate in process.

perfbench/gate.py compares each report with the committed reference
(perfbench/reference.json); the benchmark applies it only after a full
run.  This test runs every input of each workload's pool (chart_metric,
star_radial, catalog_cli) through `run_scenario` and applies the same
gate, so no status moves and every gated scalar stays within the gate's
bound.  The perfbench modules are executed from their source with
`runpy`, so the test writes nothing under perfbench/.
"""

import io
import json
import runpy
from pathlib import Path

import pytest

from semiflat.scenario import run_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

POOL_SIZES = {"chart_metric": 6 * 16, "star_radial": 4 * 5 * 6, "catalog_cli": 21 * 8}


@pytest.mark.parametrize("workload", list(POOL_SIZES))
def test_pool_passes_the_reference_gate(workload):
    gate = runpy.run_path(str(PERFBENCH / "gate.py"))
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    pool = workloads["pool"](workload)
    assert len(pool) == POOL_SIZES[workload]
    problems = {}
    for item in pool:
        report = run_scenario(item["cfg"], out_dir=None, seed=item["seed"], log=io.StringIO())
        found = gate["check_report"](json.loads(report.to_json()), reference[item["key"]])
        problems.update({f"{item['key']}/{name}": p for name, p in found.items() if p})
    assert problems == {}
