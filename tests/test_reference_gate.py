"""The bundled catalog passes the benchmark's correctness gate in process.

perfbench/gate.py compares each report with the committed reference
(perfbench/reference.json); the benchmark applies it only after a full
run.  This test runs every catalog_cli pool input (each bundled scenario
at each catalog seed) through `run_scenario` and applies the same gate.
The perfbench modules are executed from their source with `runpy`, so the
test writes nothing under perfbench/.
"""

import io
import json
import runpy
from pathlib import Path

from semiflat.scenario import run_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_catalog_pool_passes_the_reference_gate():
    gate = runpy.run_path(str(PERFBENCH / "gate.py"))
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    pool = workloads["pool"]("catalog_cli")
    assert len(pool) == 21 * 8
    problems = {}
    for item in pool:
        report = run_scenario(item["cfg"], out_dir=None, seed=item["seed"], log=io.StringIO())
        found = gate["check_report"](json.loads(report.to_json()), reference[item["key"]])
        problems.update({f"{item['key']}/{name}": p for name, p in found.items() if p})
    assert problems == {}
