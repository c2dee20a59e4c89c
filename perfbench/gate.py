"""Correctness gate: compare a scenario report with the committed reference.

Only fields named here are read, by check name and key; other report keys
are ignored, so reports may grow.  The gate never reads `r2` or
`wall_time`.

A check misses the gate when
- its status differs from the reference status;
- one of its fitted scalars differs from the reference by more than
  SCALAR_TOL (absolute for exponents and rates, relative otherwise);
- it is `curvature_decay` and reports `kind: "flat"` while `error_decay`
  of the same scenario does not (the model is not flat, so a flat
  curvature verdict is a default pass, not a measurement).
"""

from __future__ import annotations

import math

SCALARS = {
    "error_decay": ("exponent", "rate"),
    "curvature_decay": ("exponent", "rate"),
    "volume_growth": ("exponent",),
    "tangent_cone": ("limit_coefficient", "base_coefficient"),
    "sob": ("clause1_sup", "clause1_inf", "clause2_sup", "clause2_inf",
            "clause1_stable", "clause2_stable"),
}
ABSOLUTE = ("exponent", "rate")
SCALAR_TOL = 1e-5


def summarize(report: dict) -> dict:
    """Reference entry of a report: per check, its status and fitted scalars."""
    out = {}
    for chk in report["checks"]:
        measured = chk.get("measured", {})
        scalars = {k: measured[k] for k in SCALARS.get(chk["name"], ())
                   if isinstance(measured.get(k), (int, float))}
        out[chk["name"]] = {"status": chk["status"], "scalars": scalars}
    return out


def _kind(report_checks: dict, name: str):
    return report_checks.get(name, {}).get("measured", {}).get("kind")


def check_report(report: dict, expected: dict) -> dict[str, list[str]]:
    """Problems per check name; a check with an empty list passed the gate."""
    checks = {c["name"]: c for c in report["checks"]}
    problems: dict[str, list[str]] = {name: [] for name in checks}
    for name in expected.keys() - checks.keys():
        problems[name] = ["missing from the report"]
    for name, chk in checks.items():
        ref = expected.get(name)
        if ref is None:
            problems[name].append("not in the reference")
            continue
        if chk["status"] != ref["status"]:
            problems[name].append(f"status {chk['status']} != reference {ref['status']}")
        measured = chk.get("measured", {})
        for key, want in ref["scalars"].items():
            got = measured.get(key)
            if not isinstance(got, (int, float)) or not math.isfinite(got):
                problems[name].append(f"{key} missing or not finite: {got!r}")
                continue
            tol = SCALAR_TOL if key in ABSOLUTE else SCALAR_TOL * abs(want)
            if abs(got - want) > tol:
                problems[name].append(f"{key} {got!r} differs from reference {want!r} "
                                      f"by more than {tol:.3g}")
    if _kind(checks, "curvature_decay") == "flat" and _kind(checks, "error_decay") != "flat":
        problems["curvature_decay"].append("kind flat on a model whose error_decay is not flat")
    return problems


def verdict_failed(report: dict) -> int:
    """Checks whose own verdict is not a pass (a failed tolerance or an error)."""
    return sum(1 for c in report["checks"] if c["status"] != "pass")
