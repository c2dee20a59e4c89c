"""tools/dump_reports.py writes each pool input's report and CSVs under its key.

The tool is executed from its source with `runpy`; `dump` runs the
`semiflat` this test imports.
"""

import io
import runpy
from pathlib import Path

from semiflat.scenario import run_scenario

ROOT = Path(__file__).resolve().parents[1]


def test_dump_writes_each_report_and_csv_under_its_key(tmp_path):
    tool = runpy.run_path(str(ROOT / "tools" / "dump_reports.py"))
    items = tool["pool_items"](ROOT)
    assert len(items) == 384
    # one chart input, whose decay checks write CSVs, and one star input
    pair = [next(i for i in items if i["key"].startswith(w))
            for w in ("chart_metric/", "star_radial/")]
    tool["dump"](pair, tmp_path)
    for item in pair:
        name = item["cfg"]["name"]
        report = run_scenario(item["cfg"], seed=item["seed"], log=io.StringIO())
        written = tmp_path / item["key"]
        assert (written / f"{name}_report.json").read_text() == report.to_json() + "\n"
        csvs = {f"{name}_{r.name}.csv" for r in report.results if r.csv_rows}
        assert csvs and {p.name for p in written.glob("*.csv")} == csvs
