"""CLI surface: exit codes, determinism, CSV format, scenario validation."""

import itertools
import json

import numpy as np
import pytest

from semiflat.cli import bundled_path, bundled_scenarios, main
from semiflat.errors import ScenarioError
from semiflat.scenario import run_scenario, validate_scenario


def test_list_scenarios():
    names = bundled_scenarios()
    assert "pair_iistar_x_iiistar.json" in names
    assert "isotrivial_case13.json" in names
    assert len(names) >= 20
    assert main(["--list"]) == 0


def test_run_exit_zero_and_report(tmp_path):
    rc = main(["run", str(bundled_path("elliptic_iv.json")), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "elliptic_iv_report.json").read_text())
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    for c in report["checks"]:
        assert c["provenance"]                      # every check carries tags


def test_exit_code_two_on_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    empty = tmp_path / "empty_checks.json"
    empty.write_text(json.dumps({"name": "x", "model_kind": "elliptic",
                                 "fiber": "IV", "checks": []}), encoding="utf-8")
    assert main(["run", str(empty), "--out", str(tmp_path)]) == 2
    unknown = tmp_path / "unknown_key.json"
    unknown.write_text(json.dumps({"name": "x", "model_kind": "elliptic",
                                   "fiber": "IV", "checks": ["ma"],
                                   "bogus": 1}), encoding="utf-8")
    assert main(["run", str(unknown), "--out", str(tmp_path)]) == 2


def test_validate_scenario_rules():
    with pytest.raises(ScenarioError):
        validate_scenario({"name": "x", "model_kind": "pair", "checks": ["ma"]})
    with pytest.raises(ScenarioError):
        validate_scenario({"name": "x", "model_kind": "elliptic", "fiber": "IV",
                           "checks": ["volume_growth"]})
    cfg = validate_scenario({"name": "x", "model_kind": "pair", "left": "IIstar",
                             "right": "IIIstar", "checks": ["closed", "cone"]})
    assert cfg["checks"] == ["closedness", "tangent_cone"]


def test_star_check_validation():
    cfg = {"name": "x", "model_kind": "pair", "left": "IIstar", "right": "IIIstar",
           "checks": ["volume_growth"], "samples": 4}
    with pytest.raises(ScenarioError):
        run_scenario(cfg)
    cfg2 = {"name": "x", "model_kind": "pair", "left": "Istar", "right": "Istar",
            "b_left": 1, "b_right": 1, "checks": ["error_decay"], "samples": 4}
    with pytest.raises(ScenarioError):
        run_scenario(cfg2)


def test_deterministic_reports_and_csv(tmp_path):
    cfg = json.loads(bundled_path("pair_iistar_x_iiistar.json").read_text())
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_scenario(dict(cfg), out_dir=a)
    run_scenario(dict(cfg), out_dir=b)
    name = cfg["name"]
    for suffix in ("_report.json", "_error_decay.csv", "_curvature_decay.csv"):
        fa = (a / f"{name}{suffix}").read_bytes()
        fb = (b / f"{name}{suffix}").read_bytes()
        assert fa == fb, f"{suffix} differs across runs"


@pytest.mark.parametrize("norms,note", [
    ((1.0, 1.5), "FitRejected: 13 of 13 radii rejected, none kept at or over 1e-08"),
    ((5e-9,), ""),                      # reads flat, but over the 1e-10 tolerance
], ids=["steps_disagree", "flat_over_tolerance"])
def test_curvature_decay_has_no_default_pass(monkeypatch, norms, note):
    # a broken curvature norm must fail the check, not fall back to a flat pass
    values = itertools.cycle(norms)
    monkeypatch.setattr("semiflat.asymptotics.chern_curvature_norm",
                        lambda *args: next(values))
    cfg = json.loads(bundled_path("pair_iistar_x_iiistar.json").read_text())
    cfg["checks"] = ["curvature_decay"]
    (result,) = run_scenario(cfg).results
    assert not result.passed
    assert result.note == note


def test_seed_changes_samples(tmp_path):
    cfg = json.loads(bundled_path("elliptic_iv.json").read_text())
    r1 = run_scenario(dict(cfg), seed=1)
    r2 = run_scenario(dict(cfg), seed=2)
    m1 = next(r.measured for r in r1.results if r.name == "ma")
    m2 = next(r.measured for r in r2.results if r.name == "ma")
    assert m1["max_residual"] != m2["max_residual"]


def test_csv_format_and_external_regression(tmp_path):
    cfg = json.loads(bundled_path("pair_istar_x_istar.json").read_text())
    report = run_scenario(dict(cfg), out_dir=tmp_path)
    path = tmp_path / f"{cfg['name']}_volume_growth.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "radius,observable,value"
    rows = [ln.split(",") for ln in lines[1:] if ln]
    assert len(rows) == cfg.get("n_radii", 13)
    assert all(r[1] == "volume" for r in rows)
    radii = np.array([float(r[0]) for r in rows])
    vols = np.array([float(r[2]) for r in rows])
    slope = np.polyfit(np.log(radii), np.log(vols), 1)[0]
    reported = next(r.measured["exponent"] for r in report.results
                    if r.name == "volume_growth")
    assert abs(slope - reported) < 1e-9            # external OLS oracle
    # full double precision round-trips exactly
    assert float(f"{vols[0]:.17g}") == vols[0]


def test_partial_report_on_failure(tmp_path):
    # an impossible tolerance makes 'ma' fail but the report is still written
    cfg = {"name": "failing", "model_kind": "elliptic", "fiber": "IV",
           "checks": ["ma"], "samples": 5}
    report = run_scenario(cfg, out_dir=tmp_path, tolerance_scale=1e-12)
    assert not report.passed
    assert (tmp_path / "failing_report.json").exists()


def test_bundled_models_have_scenarios():
    # every catalogued local model and supported product family appears
    names = " ".join(bundled_scenarios())
    for frag in ("i0star", "elliptic_ii", "iistar", "elliptic_iii", "iiistar",
                 "elliptic_iv", "ivstar", "elliptic_i2", "istar1",
                 "istar_x_istar", "istar_x_iistar", "istar_x_iiistar",
                 "istar_x_ivstar", "iistar_x_iiistar", "ii_x_iistar",
                 "iii_x_iiistar", "iv_x_ivstar", "case13", "eh_gluing",
                 "weierstrass"):
        assert frag in names, frag
