"""CLI surface: exit codes, determinism, CSV format, scenario validation."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semiflat
from semiflat.cli import bundled_path, bundled_scenarios, main
from semiflat.errors import ScenarioError
from semiflat.scenario import CheckResult, run_scenario, validate_scenario


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


# The pass rule of each relation, read from the report alone: measured m,
# expected e, tolerance t.  Exact rationals are "n/d" strings in lowest terms.
_RELATION = {
    "within": lambda m, e, t: abs(m - e) < t,
    "at_least": lambda m, e, t: m >= t,
    "above": lambda m, e, t: m > t,
    "below": lambda m, e, t: m < t,
    "equal": lambda m, e, t: m == e,
}


def _measured(check: dict, key: str):
    """The measured value of a condition.  Strict JSON has no infinity: a
    non-finite value is null, and the check's note must say how it was
    taken."""
    m = check["measured"][key]
    if m is None:
        assert f"{key} not measured, taken as infinite" in check["note"], check["name"]
        return math.inf
    return m


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", bundled_scenarios())
def test_report_explains_each_verdict(tmp_path, name, seed):
    # every check states its conditions, each with an expected value, a
    # tolerance, a provenance and a relation, and its status follows from them
    cfg = json.loads(bundled_path(name).read_text())
    run_scenario(cfg, out_dir=tmp_path, seed=seed, log=io.StringIO())
    report = json.loads((tmp_path / f"{cfg['name']}_report.json").read_text())
    for c in report["checks"]:
        keys = c["relation"].keys()
        assert keys, c["name"]
        assert c["expected"].keys() == c["tolerance"].keys() == c["provenance"].keys() == keys
        assert keys <= c["measured"].keys(), c["name"]
        holds = [_RELATION[c["relation"][k]](_measured(c, k), c["expected"][k],
                                             c["tolerance"][k]) for k in keys]
        assert c["status"] == ("pass" if all(holds) else "fail"), c["name"]
        if c["name"] == "tangent_cone":
            # a published constant is named only for the pair it was displayed for
            shown = cfg["name"] in ("pair_istar_x_istar", "pair_istar_x_ivstar")
            assert ("published display constant" in c["note"]) == shown, c["note"]
            (prov,) = c["provenance"].values()
            assert ("differing published display constant" in prov) == shown, prov
    assert report["passed"] == all(c["status"] == "pass" for c in report["checks"])


@pytest.mark.parametrize("name, seed", [("pair_iistar_x_iiistar", 1), ("elliptic_i2", 7),
                                        ("elliptic_iistar", 7), ("elliptic_iiistar", 7)])
def test_report_is_strict_json(tmp_path, name, seed):
    # at both closedness samples of these runs the residual at step h is
    # already below the 1e-10 floor, so the order is not finite: the report
    # writes null (RFC 8259 has no Infinity) and says why in the note
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    run_scenario(json.loads(bundled_path(f"{name}.json").read_text()), out_dir=tmp_path,
                 seed=seed, log=io.StringIO())
    report = json.loads((tmp_path / f"{name}_report.json").read_text(), parse_constant=refuse)
    (closed,) = [c for c in report["checks"] if c["name"] == "closedness"]
    assert closed["measured"]["min_order"] is None
    assert closed["status"] == "pass"
    assert "below the 1e-10 floor" in closed["note"]


def test_a_check_without_conditions_fails():
    assert not CheckResult(name="ma", conditions={}, info={"samples": 3}).passed


def test_check_lines_follow_redirected_stderr(tmp_path):
    # the per-check lines go to sys.stderr as it is at the call, not at import
    captured = io.StringIO()
    with contextlib.redirect_stderr(captured):
        rc = main(["run", str(bundled_path("elliptic_iv.json")), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "elliptic_iv_report.json").read_text())
    for c in report["checks"]:
        assert f"[elliptic_iv] {c['name']}: pass" in captured.getvalue()


def _python(*args, cwd=None):
    """A fresh interpreter on this checkout's package, as a CLI user starts one."""
    env = dict(os.environ, PYTHONPATH=str(Path(semiflat.__file__).parent.parent))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True)


def test_import_footprint():
    # scipy and numpy.polynomial would add start-up time and memory to every run,
    # and the fit, gluing, Weierstrass and lattice modules load only where called
    absent = ("scipy", "numpy.polynomial", "semiflat.asymptotics", "semiflat.lattice",
              "semiflat.eguchi_hanson", "semiflat.weierstrass")
    code = ("import sys, semiflat, semiflat.cli; "
            f"print([m for m in {absent!r} if m in sys.modules])")
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_run_loads_only_the_modules_its_checks_call(tmp_path):
    code = ("import json, sys, semiflat.cli; "
            f"rc = semiflat.cli.main(['run', 'elliptic_iv.json', '--out', {str(tmp_path)!r}]); "
            "loaded = sorted(m for m in sys.modules if m.startswith('semiflat.')); "
            "print(json.dumps([rc, loaded]))")
    out = _python("-c", code, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    rc, loaded = json.loads(out.stdout)
    assert rc == 0
    assert loaded == [f"semiflat.{m}" for m in ("cli", "diffgeo", "errors", "kodaira",
                                                 "metric", "rng", "scenario")]


def test_module_invocation(tmp_path):
    # the invocation the README documents, as its own process
    listed = _python("-m", "semiflat.cli", "--list", cwd=tmp_path)
    assert listed.returncode == 0, listed.stderr
    assert "pair_iistar_x_iiistar.json" in listed.stdout.split()
    run = _python("-m", "semiflat.cli", "run", "elliptic_iv.json", "--out", str(tmp_path),
                  cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert json.loads((tmp_path / "elliptic_iv_report.json").read_text())["passed"] is True


def test_list_loads_neither_numpy_nor_scenario(tmp_path):
    # --list prints file names; numpy and the checks load only for `run`
    out = _python("-X", "importtime", "-m", "semiflat.cli", "--list", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
              if line.startswith("import time:")}
    assert "semiflat.errors" in loaded
    assert "numpy" not in loaded and "semiflat.scenario" not in loaded


def test_tracer_installs_on_this_package():
    # perfbench/tracer.py wraps functions by their module bindings and raises
    # when one is gone, which the benchmark would only show after a full run
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    code = (f"import sys; sys.path.insert(0, {str(perfbench)!r}); import tracer; "
            "tracer.install(tracer.Tracer())")
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr


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


@pytest.mark.parametrize("key,value", [("fd_richardson", False), ("fd_order", 4),
                                       ("fd_step", 1e-3)])
def test_fd_scheme_keys_are_unknown(tmp_path, key, value):
    # closedness always differences at second order without Richardson steps,
    # at the fixed step 1e-4, so these keys could only be ignored or misreported
    path = tmp_path / "fd.json"
    path.write_text(json.dumps({"name": "x", "model_kind": "elliptic", "fiber": "IV",
                                "checks": ["closedness"], key: value}), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert f"unknown scenario key: {key!r}" in err.getvalue()


@pytest.mark.parametrize("name, key, value", [
    ("elliptic_iv.json", "samples", 0),
    ("elliptic_iv.json", "samples", True),
    ("elliptic_iv.json", "epsilon", -1.0),
    ("pair_iistar_x_iiistar.json", "k0_re", 0.0),
    ("pair_iistar_x_iiistar.json", "r_min", 0.0),
    ("eh_gluing.json", "eh_a", -0.1),
    ("eh_gluing.json", "eh_delta", 2.0),
    ("weierstrass_i1.json", "grid_z", 0),
    ("weierstrass_i1.json", "b", 0),
    ("elliptic_iv.json", "name", None),        # a 0xff byte: not UTF-8
    # json reads NaN and Infinity
    ("pair_iistar_x_iiistar.json", "k0_re", math.nan),
    ("pair_iistar_x_iiistar.json", "k0_re", math.inf),
    ("eh_gluing.json", "eh_a", math.nan),
    # each entry of checks a string naming a check once, also through an
    # alias: a check named twice would report two entries under one name
    ("elliptic_iv.json", "checks", ["ma", "ma"]),
    ("elliptic_iv.json", "checks", [["ma"]]),
    ("elliptic_iv.json", "checks", ["closed", "closedness"]),
    # the name is the stem of the report and CSV files
    ("elliptic_iv.json", "name", "sub/x"),
    ("elliptic_iv.json", "name", ""),
])
def test_malformed_values_exit_two(tmp_path, name, key, value):
    # a value out of range is malformed configuration: exit code 2 and a
    # one-line message, not a traceback, and never a check run over nothing
    # nor a file written
    raw = bundled_path(name).read_bytes()
    if value is None:
        data = raw.replace(b'"elliptic_iv"', b'"elliptic_\xffiv"', 1)
        assert data != raw
    else:
        cfg = json.loads(raw)
        cfg[key] = value
        data = json.dumps(cfg).encode("utf-8")
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert err.getvalue().startswith("scenario error:")
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_tolerance_scale_must_be_finite_and_positive(tmp_path, scale):
    # a scale of 0 or below makes every tolerance unreachable, nan makes
    # every comparison false and inf every one true: none is a verdict
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["run", "elliptic_iv.json", "--out", str(tmp_path),
                     f"--tolerance-scale={scale}"]) == 2
    assert err.getvalue().startswith("scenario error:")
    assert not list(tmp_path.iterdir())


def test_tolerance_scale_relaxes_only_upper_error_bounds():
    # run_scenario multiplies each within and below tolerance by the scale;
    # at_least, above and equal bounds, and every measured value, stay
    def checks(name, scale):
        cfg = json.loads(bundled_path(name).read_text(encoding="utf-8"))
        report = run_scenario(cfg, seed=1, tolerance_scale=scale, log=io.StringIO())
        return json.loads(report.to_json())["checks"]

    relations = set()
    for name in bundled_scenarios():
        for one, three in zip(checks(name, 1.0), checks(name, 3.0), strict=True):
            assert (one["name"], one["measured"], one["expected"], one["relation"]) == \
                (three["name"], three["measured"], three["expected"], three["relation"])
            for key, relation in one["relation"].items():
                relations.add(relation)
                t1, t3 = one["tolerance"][key], three["tolerance"][key]
                scaled = relation in ("within", "below")
                assert t3 == (t1 * 3 if scaled else t1), (name, one["name"], key)
    assert relations == {"within", "below", "at_least", "above", "equal"}


@pytest.mark.parametrize("window", [{"r_min": 1e5, "r_max": 1e2}, {"r_min": 2e5}],
                         ids=["reversed", "r_min_over_default_r_max"])
def test_empty_radius_window_exits_two(tmp_path, window):
    # the window is checked where each check resolves its defaults
    # (pair_iistar_x_iiistar's decay checks default to 1e2 .. 1e5)
    cfg = json.loads(bundled_path("pair_iistar_x_iiistar.json").read_text(encoding="utf-8"))
    cfg.pop("r_max")
    cfg.update(window)
    path = tmp_path / "window.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "scenario error: r_min" in err.getvalue()
    assert not (tmp_path / "out").exists()


def test_validate_scenario_rules():
    with pytest.raises(ScenarioError):
        validate_scenario({"name": "x", "model_kind": "pair", "checks": ["ma"]})
    with pytest.raises(ScenarioError):
        validate_scenario({"name": "x", "model_kind": "elliptic", "fiber": "IV",
                           "checks": ["volume_growth"]})
    cfg = validate_scenario({"name": "x", "model_kind": "pair", "left": "IIstar",
                             "right": "IIIstar", "checks": ["closed", "cone"]})
    assert cfg["checks"] == ["closedness", "tangent_cone"]
    for twice in (["ma", "ma"], ["closed", "closedness"]):
        with pytest.raises(ScenarioError, match="named more than once"):
            validate_scenario({"name": "x", "model_kind": "elliptic", "fiber": "IV",
                               "checks": twice})


def test_star_check_validation():
    # the pair's asymptotic class decides which family of checks it runs; a
    # check of the other family is a scenario error before any check runs
    cfg = {"name": "x", "model_kind": "pair", "left": "IIstar", "right": "IIIstar",
           "checks": ["canonical", "volume_growth"], "samples": 4}
    validate_scenario(dict(cfg))
    with pytest.raises(ScenarioError, match=r"\['volume_growth'\] do not apply to "
                                            r"IIstar\[m=2\] x IIIstar\[m=1\], an ALG model"):
        run_scenario(cfg, log=io.StringIO())
    cfg2 = {"name": "x", "model_kind": "pair", "left": "Istar", "right": "Istar",
            "b_left": 1, "b_right": 1, "checks": ["error_decay", "sob"], "samples": 4}
    with pytest.raises(ScenarioError, match=r"\['error_decay'\] do not apply to .*"
                                            "an ALH_star model"):
        run_scenario(cfg2, log=io.StringIO())


def test_pair_without_complete_model_exits_two(tmp_path, capsys):
    # II x III has alpha + beta < k: fiber_product builds it, but it has no
    # complete model, so no check runs and no file is written
    path = tmp_path / "ii_x_iii.json"
    path.write_text(json.dumps({"name": "ii_x_iii", "model_kind": "pair", "left": "II",
                                "right": "III", "checks": ["ma", "canonical"]}),
                    encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("scenario error: II[m=1] x III[m=1] has no "
                                              "complete model")
    assert not (tmp_path / "out").exists()


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


def test_seed_changes_samples(tmp_path):
    cfg = json.loads(bundled_path("elliptic_iv.json").read_text())
    r1 = run_scenario(dict(cfg), seed=1)
    r2 = run_scenario(dict(cfg), seed=2)
    m1 = next(r.measured for r in r1.results if r.name == "ma")
    m2 = next(r.measured for r in r2.results if r.name == "ma")
    assert m1["max_residual"] != m2["max_residual"]


@pytest.mark.parametrize("name", bundled_scenarios())
def test_seed_defaults_to_zero_for_every_check(name):
    # a scenario without a seed draws every check's samples from seed 0;
    # no check falls back to a seed of its own
    cfg = json.loads(bundled_path(name).read_text())
    cfg.pop("seed", None)
    unseeded = run_scenario(dict(cfg), log=io.StringIO())
    seeded = run_scenario(dict(cfg), seed=0, log=io.StringIO())
    assert (json.loads(unseeded.to_json())["checks"]
            == json.loads(seeded.to_json())["checks"])


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", [n for n in bundled_scenarios() if n.startswith("pair_")])
def test_shared_geometry_does_not_couple_checks(name, seed):
    # a scenario's checks share its chart or profile; each check that draws
    # no random numbers reports alone what it reports beside the others
    cfg = json.loads(bundled_path(name).read_text())
    together = {c["name"]: c for c in json.loads(
        run_scenario(dict(cfg), seed=seed, log=io.StringIO()).to_json())["checks"]}
    ran = 0
    for check in ("canonical", "volume_growth", "sob", "tangent_cone"):
        if check in cfg["checks"]:
            alone = run_scenario({**cfg, "checks": [check]}, seed=seed, log=io.StringIO())
            assert json.loads(alone.to_json())["checks"] == [together[check]], check
            ran += 1
    assert ran >= 2


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
