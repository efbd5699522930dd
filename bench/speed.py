"""Speed probes: fixed work, none of it the program's, timed between requests
so that measured times can be scaled to a steady machine speed.

The machine's speed drifts by tens of percent over seconds, and a whole run
can land in a slow or a fast spell. So a probe runs between requests (at most
every EVERY_S), and every time measured is scaled by
``reference_s / (median of the WINDOW probes nearest to it)``. The metrics
thus read as on a machine whose probe always takes its reference time, which
is about its median between requests on the 2-core machine the benchmark was
defined on. Each workload names the probe whose work is most like its
requests' work.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

EVERY_S = 0.05
WINDOW = 7


def _hilbert_elimination(n: int):
    a = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            factor = a[r][c] / a[c][c]
            a[r] = [x - factor * y for x, y in zip(a[r], a[c])]


def _fraction_work():
    """Exact elimination on the 9x9 Hilbert matrix."""
    _hilbert_elimination(9)


def _request_work():
    """A smaller elimination, plus what a small request spends in parsing and
    emitting: building an argument parser, parsing an argv, a JSON round trip."""
    _hilbert_elimination(7)
    parser = argparse.ArgumentParser(prog="probe")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("alpha", "beta", "gamma"):
        command = sub.add_parser(name)
        command.add_argument("--n", type=int, required=True)
        command.add_argument("--w", default="1,2")
    parser.parse_args(["--format", "csv", "beta", "--n", "3"])
    rows = [{"k": i, "v": str(Fraction(i, 7))} for i in range(40)]
    json.loads(json.dumps({"rows": rows}, separators=(",", ":")))


@dataclass(frozen=True)
class Probe:
    name: str
    work: Callable[[], None]
    reference_s: float

    def time(self) -> float:
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start


FRACTION = Probe("fraction", _fraction_work, 0.00175)
REQUEST = Probe("request", _request_work, 0.0017)
PROBES = {probe.name: probe for probe in (FRACTION, REQUEST)}


class Speed:
    """Probe times along a run, and the scale factor they give each moment."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.samples: list[tuple[float, float]] = []

    def sample(self):
        self.samples.append((time.perf_counter(), self.probe.time()))

    def sample_if_due(self):
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()

    def factors(self, moments) -> list[float]:
        while len(self.samples) < WINDOW:
            self.sample()
        times = [t for t, _ in self.samples]
        out = []
        for moment in moments:
            i = bisect_left(times, moment)
            lo = max(0, min(i - WINDOW // 2, len(times) - WINDOW))
            window = [d for _, d in self.samples[lo:lo + WINDOW]]
            out.append(self.probe.reference_s / statistics.median(window))
        return out
