"""Host-speed probes, timed next to the program: a fixed pure-Python kernel
for scenario executions and a fresh interpreter start for set-ups.

The benchmark runs on virtual machines whose speed drifts: on a 2-vCPU
VM the same pure-Python loop took 0.011 s in one 10-second stretch and
0.020 s in the next, and a whole star_radial pass moved between 7.3 s and
10.5 s within minutes.  Such drift cannot be averaged away inside a run of
tens of seconds.  So the probe runs between the timed executions, and their
times are rescaled to the speed at which the probe takes REF_PROBE_S:

    time at reference speed = measured time * REF_PROBE_S / (the run's median probe time)

The run's median is steadier than the probes next to each execution: on
ten runs of each workload the spread (Q3 - Q1) / median of a pass fell
from 0.082 to 0.052 on star_radial and from 0.067 to 0.029 on catalog_cli.

A change to semiflat moves the rescaled time exactly as it moves the
measured time; a change of host speed moves the probe with it.  The kernel
has the shape of semiflat's radial quadrature (Python-level float
arithmetic in a list, summed by the trapezoid rule) but calls no libm
function: after some scenario runs, `math.exp` runs up to 3.7x slower in
the same process, and the probe must see the host, not the state semiflat
leaves in its process.  It uses only the standard library, so the benchmark's parent
process can run it without numpy, and no change to semiflat can change it.

A fresh process is different: about 0.23 s of a set-up or of a CLI run is
the interpreter starting and importing numpy, which is process start,
file reads and dynamic loading more than Python execution, and its speed
drifts apart from the kernel's (in one set of ten runs a set-up read
0.22-0.27 s where the set before read 0.30-0.33 s, with the kernel
unchanged).  `start` times that part on its own: a fresh interpreter that
imports numpy, semiflat's one dependency, and nothing of semiflat.  A
process keeps the rest of its time, rescaled by the kernel, and has the
start replaced by the start's reference time (both probes are the run's
medians):

    process time at reference speed = REF_START_S + (measured time - start) * REF_PROBE_S / probe
"""

from __future__ import annotations

import subprocess
from time import perf_counter

# The probe's time on the fast stretches of the machine described in
# WORKLOADS.md; it only sets the scale of the rescaled figures.
REF_PROBE_S = 0.03
_ROUNDS = 16
# The same for `start`.
REF_START_S = 0.22


def _kernel() -> float:
    total = 0.0
    for j in range(4):
        n, a = 2000, 0.69
        step = (4.0 + j - a) / (n - 1)
        ys = [(L * (1.0 + L * (0.5 + L * (0.1666 + L * 0.0416)))) / (1.0 + 0.25 * L * L)
              for L in [a + i * step for i in range(n)]]
        total += step * (sum(ys) - 0.5 * (ys[0] + ys[-1]))
    return total


def probe() -> float:
    """Seconds the kernel takes now."""
    t0 = perf_counter()
    for _ in range(_ROUNDS):
        _kernel()
    return perf_counter() - t0


def at_reference(seconds: float, probe_s: float) -> float:
    """`seconds`, measured while the probe took `probe_s`, at reference speed."""
    return seconds * REF_PROBE_S / probe_s


def start(python: str, env: dict) -> float:
    """Seconds a fresh `python` takes to start, import numpy and exit."""
    t0 = perf_counter()
    subprocess.run([python, "-c", "import numpy"], env=env, check=True, timeout=60)
    return perf_counter() - t0


def process_at_reference(seconds: float, start_s: float, probe_s: float) -> float:
    """`seconds` of a fresh process, measured while `start` took `start_s`
    and the kernel `probe_s`, at reference speed."""
    return REF_START_S + (seconds - start_s) * REF_PROBE_S / probe_s
