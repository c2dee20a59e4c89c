"""Child processes of the semiflat benchmark; run.py starts them.

    worker.py setup <scenario.json>...
        Import semiflat, build the context of every scenario, print "ready".
    worker.py passes <job.json>
        Time whole passes of run_scenario over the job's scenario files.
    worker.py cli <spans.json> <semiflat CLI arguments>...
        Run the semiflat CLI with tracing installed; write the spans.

Each mode starts from a fresh interpreter and imports semiflat itself, so
the import is part of what is measured.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from time import perf_counter

import probe


def _import_semiflat() -> float:
    t0 = perf_counter()
    import semiflat  # noqa: F401
    import semiflat.cli  # noqa: F401
    return perf_counter() - t0


def setup(paths: list[str]) -> int:
    _import_semiflat()
    from semiflat.scenario import build_context, load_scenario
    for path in paths:
        build_context(load_scenario(path))
    print("ready", flush=True)
    return 0


def more_passes(walls: list[float], elapsed: float, seconds: float, min_passes: int) -> bool:
    """Whether to time another pass: until `min_passes` are done, then while
    one more median pass still fits in `seconds`."""
    return len(walls) < min_passes or elapsed + statistics.median(walls) <= seconds


def _one_pass(items: list[dict], out_dir: str, run_scenario, probed: bool) -> dict:
    """Run every item once.  With `probed`, the host-speed probe runs before
    the first item and after each one, so that the probes spread over the
    run like the executions they rescale."""
    runs = []
    probes = [probe.probe()] if probed else []
    t0 = perf_counter()
    for item in items:
        t = perf_counter()
        run_scenario(item["file"], out_dir, seed=item["seed"])
        runs.append(perf_counter() - t)
        if probed:
            probes.append(probe.probe())
    return {"wall_s": perf_counter() - t0, "runs": runs, "probes": probes}


def passes(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import_s = _import_semiflat()
    from semiflat.scenario import run_scenario

    items, out = job["items"], job["out"]
    done = []
    start = perf_counter()
    while more_passes([p["wall_s"] for p in done], perf_counter() - start,
                      job["seconds"], job["min_passes"]):
        done.append(_one_pass(items, f"{out}/pass{len(done)}", run_scenario, probed=True))
    result = {"import_s": import_s, "passes": done}
    if job["trace"]:
        import tracer as tr
        t = tr.Tracer()
        tr.install(t)
        # the wrappers rebound run_scenario inside the package; use theirs
        import semiflat.scenario
        result["traced"] = _one_pass(items, f"{out}/traced",
                                     semiflat.scenario.run_scenario, probed=False)
        t.write(job["spans"], import_s=import_s)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def cli(spans_path: str, argv: list[str]) -> int:
    import_s = _import_semiflat()
    import tracer as tr
    t = tr.Tracer()
    tr.install(t)
    import semiflat.cli
    try:
        return semiflat.cli.main(argv)
    finally:
        t.write(spans_path, import_s=import_s)


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(args))
    if mode == "passes":
        sys.exit(passes(args[0]))
    if mode == "cli":
        sys.exit(cli(args[0], args[1:]))
    sys.exit(f"unknown mode {mode!r}")
