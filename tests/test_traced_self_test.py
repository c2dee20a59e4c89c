"""The benchmark's traced self-test holds on this code.

`perfbench/run.py --trace 1` compares the call counts its tracer records
with the counts `Runner.self_test` derives from the scenario files: one
`ma_residual` call per sample, two `closedness_residual` calls per check,
two Chern norms per curvature radius and one per flatness check, one
`invert_dist` call per radius of a radial check.  The benchmark itself runs
with `--trace 0`, so a change that breaks one of these counts would pass
everything else that runs locally.

This test installs `perfbench/tracer.py` in a fresh interpreter (its
wrappers patch the package in place, so they stay out of the test
process), runs the seed-1 draws of chart_metric and star_radial there
through `run_scenario`, as the benchmark's worker does, and applies
`Runner.self_test` to the traced counts.  It writes nothing under
perfbench/: no work directory, no report and no bytecode.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# the counts the self-test derives that this test requires to be exercised
COUNTS = ("metric.ma_residual_calls", "diffgeo.closedness_calls",
          "diffgeo.chern_norm_calls", "asymptotics.invert_dist_calls")

TRACED_PASS = """
import io, json, sys, types
import run, tracer, workloads
t = tracer.Tracer()
tracer.install(t)
import semiflat.scenario
items = workloads.draw(sys.argv[1], 1)
for item in items:
    semiflat.scenario.run_scenario(item["cfg"], None, seed=item["seed"], log=io.StringIO())
spans = {"names": t.names, "spans": t.spans, "import_s": 0.0,
         "counters": {k: v[0] for k, v in t.counters.items()}}
layer = tracer.layer_metrics([spans], [])
print(json.dumps({"problems": run.Runner.self_test(types.SimpleNamespace(items=items), layer),
                  "counts": {k: layer[k] for k in sys.argv[2:]}}))
"""


def _traced_pass(workload: str) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    done = subprocess.run([sys.executable, "-c", TRACED_PASS, workload, *COUNTS],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


def test_traced_counts_match_the_counts_the_self_test_derives():
    totals = dict.fromkeys(COUNTS, 0)
    for workload in ("chart_metric", "star_radial"):
        result = _traced_pass(workload)
        assert result["problems"] == [], workload
        for key, count in result["counts"].items():
            totals[key] += count
    # every named count was exercised, so a zero on both sides cannot pass
    assert all(totals.values()), totals
