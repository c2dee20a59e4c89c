"""Workload inputs of the semiflat benchmark, drawn from a workload seed.

Every input is drawn from a finite pool (scenario seeds, epsilon and k0
grids), so that each one has an entry in the committed reference
(`reference.json`, written by `make_reference.py`).  The draw depends only
on the workload seed; the program sees only the scenario files and the
`--seed` values generated here.

This module reads the bundled scenario JSON files of the checkout but never
imports semiflat, so the benchmark's parent process stays free of numpy.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "src" / "semiflat" / "scenarios"

# The five ALG/ALH bundled pairs and the flat isotrivial quotient.
CHART_SCENARIOS = ("pair_i0star_x_iistar", "pair_ii_x_iistar", "pair_iii_x_iiistar",
                   "pair_iistar_x_iiistar", "pair_iv_x_ivstar", "isotrivial_case13")
CHART_SAMPLES = 1000
CHART_SEEDS = tuple(range(1, 17))

# The four star pairs; epsilon and k0_re span the ranges on which the
# fixed-window volume_growth fit is known to miss (see WORKLOADS.md).
STAR_SCENARIOS = ("pair_istar_x_istar", "pair_istar_x_iistar", "pair_istar_x_iiistar",
                  "pair_istar_x_ivstar")
STAR_EPSILONS = (0.5, 0.75, 1.0, 1.5, 2.0)
STAR_K0 = (-1.5, -1.0, -0.7, 0.7, 1.0, 1.5)

CATALOG_SEEDS = tuple(range(1, 9))

WORKLOADS = ("chart_metric", "star_radial", "catalog_cli")


def bundled(name: str) -> dict:
    with open(SCENARIO_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def catalog_names() -> list[str]:
    """Bundled scenario names, in the order `semiflat --list` prints them."""
    return sorted(p.stem for p in SCENARIO_DIR.glob("*.json"))


def chart_input(name: str, seed: int) -> dict:
    cfg = bundled(name)
    cfg["samples"] = CHART_SAMPLES
    cfg["seed"] = seed
    if cfg["model_kind"] == "pair" and "curvature_decay" not in cfg["checks"]:
        cfg["checks"] = cfg["checks"] + ["curvature_decay"]
    return {"key": f"chart_metric/{name}/{seed}", "cfg": cfg, "seed": seed}


def star_input(name: str, eps: float, k0: float) -> dict:
    cfg = bundled(name)
    cfg["name"] = f"{name}_eps{eps:g}_k0{k0:g}"
    cfg["epsilon"] = eps
    cfg["k0_re"] = k0
    return {"key": f"star_radial/{name}/{eps:g}/{k0:g}", "cfg": cfg, "seed": cfg["seed"]}


def catalog_input(name: str, seed: int) -> dict:
    return {"key": f"catalog_cli/{name}/{seed}", "name": name, "seed": seed,
            "cfg": bundled(name)}


def draw(workload: str, seed: int) -> list[dict]:
    """One pass of the workload: its inputs, in execution order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "chart_metric":
        return [chart_input(n, rng.choice(CHART_SEEDS)) for n in CHART_SCENARIOS]
    if workload == "star_radial":
        return [star_input(n, rng.choice(STAR_EPSILONS), rng.choice(STAR_K0))
                for n in STAR_SCENARIOS]
    if workload == "catalog_cli":
        return [catalog_input(n, rng.choice(CATALOG_SEEDS)) for n in catalog_names()]
    raise ValueError(f"unknown workload {workload!r}")


def pool(workload: str) -> list[dict]:
    """Every input `draw` can return for the workload."""
    if workload == "chart_metric":
        return [chart_input(n, s) for n in CHART_SCENARIOS for s in CHART_SEEDS]
    if workload == "star_radial":
        return [star_input(n, e, k) for n in STAR_SCENARIOS
                for e in STAR_EPSILONS for k in STAR_K0]
    if workload == "catalog_cli":
        return [catalog_input(n, s) for n in catalog_names() for s in CATALOG_SEEDS]
    raise ValueError(f"unknown workload {workload!r}")
