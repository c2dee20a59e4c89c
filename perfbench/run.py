"""semiflat benchmark: one command for every end-to-end and per-layer metric.

    python3 perfbench/run.py --workload chart_metric --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

The program is imported from the src/ directory next to perfbench/; no
install step is needed.
Workloads (see WORKLOADS.md for why each exists):

  chart_metric  six ALG/ALH and isotrivial scenarios, samples 1000, with
                curvature_decay; one worker process runs whole passes.
  star_radial   the four star pairs with seeded epsilon and k0_re; one
                worker process runs whole passes.
  catalog_cli   all 21 bundled scenarios, each as its own
                `python -m semiflat.cli run <name> --out DIR --seed N`
                process, one after another.

All workloads are closed loop with one caller: the next scenario starts
when the previous one has finished.  A run times at least two whole
passes, so each report can be compared byte for byte across passes, and
more while one more still fits in --seconds.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it runs one untraced and one traced pass and prints
the per-layer metrics of the traced pass, after checking the span counts
against counts derived from the scenario files.

The timed figures are rescaled to a fixed host speed (probe.py): a timed
execution's time is multiplied by REF_PROBE_S / (the run's median probe
time); in each fresh process (a set-up, a CLI run), the part that the
interpreter-start probe measures is replaced by that probe's reference
time first.  The figures as measured are printed next to them.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  An operation is one scenario execution;
it fails when any of its checks misses the correctness gate (gate.py),
when the CLI exit code disagrees with the reference statuses, or when its
output files differ from the first pass.  The exit code is 0 only when
every operation passed the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import gate
import probe
import tracer
import worker
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SPEC = HERE.parent / "BENCHMARK.json"
WORKER = HERE / "worker.py"
SETUP_REPEATS = 8
MIN_PASSES = 2
RUN_DEADLINE_S = 170.0
CHECK_METRIC = "scenario.check_s."


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def machine_info() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy_version}")


class Runner:
    """One benchmark run of one workload, inside its own work directory."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, work: Path):
        self.root, self.seconds, self.work = root, seconds, work
        self.deadline = perf_counter() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.items = workloads.draw(workload, seed)
        self.in_process = workload != "catalog_cli"
        if self.in_process:
            (work / "inputs").mkdir()
            for item in self.items:
                item["file"] = str(work / "inputs" / f"{item['cfg']['name']}.json")
                with open(item["file"], "w", encoding="utf-8") as fh:
                    json.dump(item["cfg"], fh)
        else:
            for item in self.items:
                item["file"] = str(workloads.SCENARIO_DIR / f"{item['name']}.json")

    # -- child processes ----------------------------------------------------

    def _spawn(self, argv: list[str], **kw) -> subprocess.Popen:
        return subprocess.Popen([sys.executable] + argv, env=self.env, cwd=self.root, **kw)

    def _wait(self, proc: subprocess.Popen):
        """Wait for `proc`; returns (exit code, resource usage).  Kills it at
        the run's deadline."""
        timer = threading.Timer(max(1.0, self.deadline - perf_counter()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if perf_counter() > self.deadline:
            raise BenchError("a child process ran past the run's deadline")
        return proc.returncode, usage

    def setup_times(self, repeats: int) -> tuple[list[float], list[float]]:
        """Fresh interpreter to 'import semiflat + build_context for every
        scenario of the workload', `repeats` times; returns the times and
        the interpreter-start probes taken after each one."""
        times, starts = [], []
        for _ in range(repeats):
            t0 = perf_counter()
            proc = self._spawn([str(WORKER), "setup"] + [i["file"] for i in self.items],
                               stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.close()
            code, _ = self._wait(proc)
            if line.strip() != "ready" or code != 0:
                raise BenchError(f"set-up process failed with exit code {code}")
            times.append(elapsed)
            starts.append(probe.start(sys.executable, self.env))
        return times, starts

    def worker_passes(self, seconds: float, min_passes: int, trace: bool) -> dict:
        job = {"items": [{"file": i["file"], "seed": i["seed"]} for i in self.items],
               "out": str(self.work / "out"), "seconds": seconds, "min_passes": min_passes,
               "trace": trace, "spans": str(self.work / "spans.json"),
               "result": str(self.work / "result.json")}
        job_path = self.work / "job.json"
        job_path.write_text(json.dumps(job))
        with open(self.work / "worker.log", "w") as log:
            code, _ = self._wait(self._spawn([str(WORKER), "passes", str(job_path)],
                                             stdout=subprocess.DEVNULL, stderr=log))
        if code != 0:
            tail = (self.work / "worker.log").read_text()[-2000:]
            raise BenchError(f"worker exited with code {code}:\n{tail}")
        result = json.loads(Path(job["result"]).read_text())
        if trace:
            result["spans"] = [json.loads(Path(job["spans"]).read_text())]
        return result

    def cli_pass(self, out: str, traced: bool) -> dict:
        """One CLI process per item; untraced passes run the host-speed probe
        before the first and after each one, as worker._one_pass does."""
        runs, codes, rss = [], [], []
        spans = []
        probes = [] if traced else [probe.probe()]
        t0 = perf_counter()
        with open(self.work / "cli.log", "a") as log:
            for k, item in enumerate(self.items):
                args = ["run", f"{item['name']}.json", "--out", out, "--seed", str(item["seed"])]
                if traced:
                    span_path = self.work / f"spans{k}.json"
                    argv = [str(WORKER), "cli", str(span_path)] + args
                else:
                    argv = ["-m", "semiflat.cli"] + args
                t = perf_counter()
                code, usage = self._wait(self._spawn(argv, stdout=subprocess.DEVNULL,
                                                     stderr=log))
                runs.append(perf_counter() - t)
                codes.append(code)
                rss.append(usage.ru_maxrss)
                if traced:
                    spans.append(json.loads(span_path.read_text()))
                else:
                    probes.append(probe.probe())
        return {"wall_s": perf_counter() - t0, "runs": runs, "probes": probes, "codes": codes,
                "maxrss_kb": max(rss), "spans": spans}

    def cli_passes(self) -> list[dict]:
        done = []
        start = perf_counter()
        while worker.more_passes([p["wall_s"] for p in done], perf_counter() - start,
                                 self.seconds, MIN_PASSES):
            done.append(self.cli_pass(str(self.work / "out" / f"pass{len(done)}"), False))
        return done

    # -- correctness ----------------------------------------------------------

    def _outputs(self, out: Path, item: dict) -> dict[str, bytes]:
        name = item["cfg"]["name"]
        files = {}
        for fname in [f"{name}_report.json"] + [f"{name}_{c}.csv" for c in item["cfg"]["checks"]]:
            path = out / fname
            if path.exists():
                files[fname] = path.read_bytes()
        return files

    def check_outputs(self, pass_dirs: list[Path], codes: list[list[int]] | None) -> dict:
        """Gate every scenario execution of the given passes."""
        reference = json.loads(REFERENCE.read_text())
        n = len(pass_dirs)
        tally = {"runs": 0, "failed_runs": 0, "checks": [0] * n, "verdict_failed": [0] * n,
                 "gate_missed": [0] * n, "problems": []}
        first: dict[str, dict] = {}
        for p, out in enumerate(pass_dirs):
            for k, item in enumerate(self.items):
                tally["runs"] += 1
                bad = []
                files = self._outputs(out, item)
                report_bytes = files.get(f"{item['cfg']['name']}_report.json")
                expected = reference.get(item["key"])
                if expected is None:
                    raise BenchError(f"{item['key']} has no reference entry")
                if report_bytes is None:
                    bad.append("no report written")
                    tally["checks"][p] += len(expected)
                    tally["gate_missed"][p] += len(expected)
                else:
                    report = json.loads(report_bytes)
                    problems = gate.check_report(report, expected)
                    tally["checks"][p] += len(report["checks"])
                    tally["verdict_failed"][p] += gate.verdict_failed(report)
                    missed = {c: v for c, v in problems.items() if v}
                    tally["gate_missed"][p] += sum(
                        1 for c in report["checks"] if c["name"] in missed
                        and c["status"] == "pass")
                    bad += [f"{c}: {'; '.join(v)}" for c, v in missed.items()]
                    if codes is not None:
                        want = 0 if all(e["status"] == "pass" for e in expected.values()) else 1
                        if codes[p][k] != want:
                            bad.append(f"CLI exit code {codes[p][k]}, reference implies {want}")
                if p == 0:
                    first[item["key"]] = files
                elif files != first[item["key"]]:
                    bad.append(f"outputs differ from pass 0 in pass {p}")
                if bad:
                    tally["failed_runs"] += 1
                    tally["problems"] += [f"{item['key']} (pass {p}): {b}" for b in bad]
        return tally

    def self_test(self, layer: dict) -> list[str]:
        """Traced counts must equal counts derived from the scenario files."""
        cfgs = [i["cfg"] for i in self.items]

        def has(cfg, check):
            return check in cfg["checks"]

        expect = {
            "diffgeo.chern_norm_calls":
                sum(2 * c["n_radii"] for c in cfgs if has(c, "curvature_decay"))
                + sum(1 for c in cfgs if has(c, "flatness")),
            "diffgeo.closedness_calls": sum(2 for c in cfgs if has(c, "closedness")),
            "metric.ma_residual_calls": sum(c["samples"] for c in cfgs if has(c, "ma")),
            "asymptotics.invert_dist_calls":
                sum(c["n_radii"] for c in cfgs for chk in ("volume_growth", "sob")
                    if has(c, chk)),
            "kodaira.fiber_product_calls": sum(1 for c in cfgs if c["model_kind"] == "pair"),
            "scenario.checks_run": sum(len(c["checks"]) for c in cfgs),
        }
        return [f"self-test: {k} traced {layer[k]} != derived {v}"
                for k, v in expect.items() if layer[k] != v]

    # -- the two kinds of run ------------------------------------------------

    def timed(self) -> tuple[dict, dict, list[str]]:
        # half the set-ups before the passes and half after, so that their
        # median sees the same machine state as the passes
        setup, starts = self.setup_times(SETUP_REPEATS // 2)
        if self.in_process:
            res = self.worker_passes(self.seconds, MIN_PASSES, trace=False)
            passes, codes = res["passes"], None
            rss_kb = res["maxrss_kb"]
        else:
            passes = self.cli_passes()
            codes = [p["codes"] for p in passes]
            rss_kb = max(p["maxrss_kb"] for p in passes)
        more, more_starts = self.setup_times(SETUP_REPEATS - len(setup))
        setup += more
        starts += more_starts
        tally = self.check_outputs(
            [self.work / "out" / f"pass{k}" for k in range(len(passes))], codes)
        # every time at reference host speed (probe.py), by the run's median
        # probes: single probes are noisier than the drift within a run
        probe_s = statistics.median(x for p in passes for x in p["probes"])
        start_s = statistics.median(starts)

        def process(t):
            return probe.process_at_reference(t, start_s, probe_s)

        def execution(t):
            return probe.at_reference(t, probe_s) if self.in_process else process(t)

        ref_passes = [[execution(t) for t in p["runs"]] for p in passes]
        runs = [t for p in ref_passes for t in p]
        metrics = {
            "setup_s": statistics.median(process(t) for t in setup),
            "wall_ref_s": statistics.median(sum(p) for p in ref_passes),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        # the median execution is printed, not gated: which scenario it falls
        # on depends on the seeded draw (see WORKLOADS.md)
        notes = [f"samples: setup_s {len(setup)} set-ups, wall_ref_s {len(passes)} passes, "
                 f"run_p50 {len(runs)} scenario executions",
                 f"as measured (not gated): setup_s {statistics.median(setup):.4f} s, "
                 f"wall_s {statistics.median(sum(p['runs']) for p in passes):.4f} s, "
                 f"run_p50_s {statistics.median(t for p in passes for t in p['runs']):.4f} s",
                 f"at reference speed (not gated): run_p50_ref_s "
                 f"{statistics.median(runs):.4f} s",
                 f"host-speed probe: median {probe_s:.4f} s "
                 f"(reference {probe.REF_PROBE_S} s); "
                 f"start probe: median {start_s:.4f} s "
                 f"(reference {probe.REF_START_S} s)"]
        return metrics, tally, notes

    def traced(self, checks: list[str]) -> tuple[dict, dict, list[str]]:
        dirs = [self.work / "out" / "pass0", self.work / "out" / "traced"]
        if self.in_process:
            res = self.worker_passes(0, 1, trace=True)
            plain, traced = res["passes"][0], res["traced"]
            spans, codes = res["spans"], None
        else:
            plain = self.cli_pass(str(dirs[0]), False)
            traced = self.cli_pass(str(dirs[1]), True)
            spans, codes = traced["spans"], [plain["codes"], traced["codes"]]
        tally = self.check_outputs(dirs, codes)
        layer = tracer.layer_metrics(spans, checks)
        tally["problems"] += self.self_test(layer)
        layer["scenario.checks_failed"] = tally["verdict_failed"][-1]
        layer["scenario.check_fail_ratio"] = _fail_ratio(tally, -1)
        layer["trace.overhead_ratio"] = sum(traced["runs"]) / sum(plain["runs"])
        metrics = layer
        notes = [f"traced pass: {len(self.items)} scenario runs, "
                 f"{sum(len(s['spans']) for s in spans)} spans in {len(spans)} process(es); "
                 f"untraced pass {sum(plain['runs']):.3f} s, "
                 f"traced pass {sum(traced['runs']):.3f} s"]
        return metrics, tally, notes


def _fail_ratio(tally: dict, p: int | None = None) -> float:
    """(checks failed or raised + checks that passed but missed the gate) / checks,
    over pass p or over all passes."""
    def pick(key):
        return tally[key][p] if p is not None else sum(tally[key])
    return (pick("verdict_failed") + pick("gate_missed")) / pick("checks")


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns the result object and the lines to print.
    The metrics and their units are those BENCHMARK.json lists."""
    spec = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    work = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(root, workload, seed, seconds, work)
        if trace:
            checks = [n[len(CHECK_METRIC):] for n in units if n.startswith(CHECK_METRIC)]
            measured, tally, notes = runner.traced(checks)
        else:
            measured, tally, notes = runner.timed()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if measured.keys() != units.keys():
        raise BenchError(f"measured metrics differ from BENCHMARK.json: "
                         f"{sorted(measured.keys() ^ units.keys())}")
    metrics = {name: (measured[name], unit) for name, unit in units.items()}
    ratio = _fail_ratio(tally)
    lines = [f"== {workload} seed={seed} trace={int(trace)} {machine_info()}"]
    lines += [f"  {n}" for n in notes]
    lines += [f"  {k:42s} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"  {'check_fail_ratio':42s} {ratio:.6g} ratio "
                 f"({sum(tally['verdict_failed'])} failed or raised, "
                 f"{sum(tally['gate_missed'])} passed but missed the gate, "
                 f"of {sum(tally['checks'])} checks)")
    lines += [f"  GATE: {p}" for p in tally["problems"]]
    result = {"correct": not tally["problems"], "attempted": tally["runs"],
              "failed": tally["failed_runs"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = workloads.ROOT
    if not (root / "src" / "semiflat" / "__init__.py").is_file() or not REFERENCE.is_file() \
            or not SPEC.is_file():
        print(f"no semiflat checkout at {root} (src/semiflat, BENCHMARK.json and "
              "perfbench/reference.json are needed)", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            result, lines = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, OSError, KeyError, ValueError) as exc:
            print(f"benchmark failed on {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines), flush=True)
        ok = ok and result["correct"]
    if args.workload != "all":
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
