"""Write the report and CSVs of every benchmark pool input, to compare checkouts.

    python3 tools/dump_reports.py ROOT OUT

imports `semiflat` from ROOT/src and the pool of each benchmark workload
from ROOT/perfbench/workloads.py, runs every input in one process through
`run_scenario`, and writes its report and CSVs under OUT/<key>/, <key>
being the input's key in perfbench/reference.json.  The pools hold 384
inputs; the catalog_cli pool alone holds every bundled scenario at seeds
1-8.  Dump two checkouts to two directories, and `diff -r` of the two
lists every report and CSV that differs.  Takes about 3 s on 2 cores.

The workloads module is executed from its source with `runpy`, so nothing
is written under ROOT/perfbench.
"""

from __future__ import annotations

import io
import runpy
import sys
from pathlib import Path


def pool_items(root: Path) -> list[dict]:
    """Every input of every workload pool of the checkout at `root`."""
    workloads = runpy.run_path(str(root / "perfbench" / "workloads.py"))
    return [item for w in workloads["WORKLOADS"] for item in workloads["pool"](w)]


def dump(items: list[dict], out: Path) -> None:
    """Run each item through the imported `semiflat` and write its files
    under out/<key>/."""
    from semiflat.scenario import run_scenario
    for item in items:
        run_scenario(item["cfg"], out_dir=out / item["key"], seed=item["seed"],
                     log=io.StringIO())


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: dump_reports.py ROOT OUT", file=sys.stderr)
        return 2
    root, out = (Path(a).resolve() for a in argv)
    sys.path.insert(0, str(root / "src"))
    dump(pool_items(root), out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
