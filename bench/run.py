"""Benchmark of the seshadri CLI: seeded request workloads through cli.main.

    python3 bench/run.py --workload jets --seed 1 --seconds 20 --trace 0

One closed-loop client sends each workload's requests one after another, in
process, to ``seshadri.cli.main(argv)`` and captures stdout. With ``--trace 0``
the run times requests for ``--seconds`` seconds (whole blocks). Between
requests, outside the timed calls, it checks every answer against an
independent reference, repeats a seeded sample to check that stdout is
byte-identical, and times fresh interpreters for ``setup_s``. With
``--trace 1`` it runs a batch fixed by seed and ``--seconds`` twice per
request, untraced and traced, and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a readable table goes to stderr. Metric names and units
come from BENCHMARK.json. The program is imported from ``src/`` of the
checkout; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 21
REPEAT_SHARE = 0.1  # share of requests asked again for the determinism check
# A traced run must end well within its time limit even if the program slows.
TRACE_WALL_LIMIT_S = 120.0
# A fresh interpreter imports seshadri.cli (which builds the reproduce table)
# and builds the parser, then prints the monotonic clock at that moment and,
# after it, the median of seven probes run in the same process.
_SETUP_CHILD = (
    "import time, seshadri.cli as c; c.build_parser(); ready = time.monotonic()\n"
    "import statistics, sys; sys.path.insert(0, {bench!r}); from speed import PROBES\n"
    "print(ready, statistics.median(PROBES[{probe!r}].time() for _ in range(7)))"
)


def setup_sample(probe: speed.Probe) -> tuple[float, float]:
    """(raw, speed-scaled) seconds from spawning an interpreter to its being
    ready for the first request. Scaled by the child's own probes, which ran
    on the core and in the spell that the child ran in."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = _SETUP_CHILD.format(bench=str(ROOT / "bench"), probe=probe.name)
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", child], env=env, cwd=ROOT, check=True,
                          capture_output=True, text=True)
    ready, child_probe = (float(x) for x in proc.stdout.split())
    raw = ready - spawned
    return raw, raw * probe.reference_s / child_probe


def call(cli, argv) -> tuple[float, object, str]:
    """One request: (seconds, exit code or error text, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing request is a failed request
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def verdict(request: workloads.Request, code, stdout: str):
    """None when the request succeeded, else the reason it failed."""
    if code != 0:
        return f"exit {code!r}"
    try:
        return request.check(stdout, request.expected)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable answer ({type(exc).__name__}: {exc}): {stdout[:120]!r}"


class Tally:
    """Requests attempted per slot, and the failed ones with their reasons."""

    def __init__(self):
        self.slots: Counter = Counter()
        self.failures: list[tuple[workloads.Request, str]] = []

    @property
    def attempted(self) -> int:
        return sum(self.slots.values())

    def record(self, request: workloads.Request, reason):
        self.slots[request.slot] += 1
        if reason:
            self.failures.append((request, reason))


def run_untraced(cli, workload, seed: int, seconds: float):
    """Closed loop for ``seconds`` (whole blocks). Returns the tally, the raw
    and scaled request latencies, and the raw and scaled setup samples."""
    blocks = workload.blocks(seed)
    sampler = random.Random(f"determinism:{seed}")
    tally, clock = Tally(), speed.Speed(workload.probe)
    starts, raw = array("d"), array("d")
    setup = []
    subprocess.run([sys.executable, "-c", "import seshadri.cli"], cwd=ROOT, check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))  # writes bytecode caches
    begin = time.perf_counter()
    deadline = begin + seconds
    while time.perf_counter() < deadline:
        repeats = []
        for request in next(blocks):
            clock.sample_if_due()
            starts.append(time.perf_counter())
            elapsed, code, stdout = call(cli, request.argv)
            raw.append(elapsed)
            reason = verdict(request, code, stdout)
            tally.record(request, reason)
            if sampler.random() < REPEAT_SHARE and not reason:
                repeats.append((request, code, stdout))
        for request, code, stdout in repeats:
            if call(cli, request.argv)[1:] != (code, stdout):
                tally.failures.append((request, "stdout differs on a same-seed repeat"))
        due = (time.perf_counter() - begin) * SETUP_SAMPLES / seconds
        if len(setup) < min(due, SETUP_SAMPLES):
            setup.append(setup_sample(workload.probe))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(workload.probe))
    for request in workload.closing(seed):
        _, code, stdout = call(cli, request.argv)
        tally.record(request, verdict(request, code, stdout))
    clock.sample()
    scaled = [x * f for x, f in zip(raw, clock.factors(starts))]
    return tally, list(raw), scaled, [s for s, _ in setup], [s for _, s in setup]


def end_to_end(latencies: list[float], setup: list[float]) -> dict[str, float]:
    return {
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1000,
        "throughput_rps": len(latencies) / sum(latencies),
        "setup_s": statistics.median(setup),
    }


def run_traced(cli, workload, seed: int, seconds: float):
    """Each request of a fixed batch runs untraced, then traced. Returns the
    tally and the per-layer table."""
    from tracing import Tracer

    tracer, tally = Tracer(), Tally()
    n_blocks = max(1, round(seconds * workload.trace_blocks_per_second))
    blocks = workload.blocks(seed)
    batch = [request for _ in range(n_blocks) for request in next(blocks)]
    batch += workload.closing(seed)
    untraced_s = traced_s = 0.0
    begin = time.perf_counter()
    for i, request in enumerate(batch):
        if time.perf_counter() - begin > TRACE_WALL_LIMIT_S:
            print(f"warning: traced batch cut after {i} of {len(batch)} requests", file=sys.stderr)
            break
        elapsed, code, stdout = call(cli, request.argv)
        untraced_s += elapsed
        with tracer.active(i):
            elapsed, traced_code, traced_stdout = call(cli, request.argv)
        traced_s += elapsed
        reason = verdict(request, code, stdout)
        if not reason and (traced_code, traced_stdout) != (code, stdout):
            reason = "stdout differs when traced"
        tally.record(request, reason)
    for name in tracer.missing:
        print(f"warning: layer {name} not found; its metrics read 0", file=sys.stderr)
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")
    table = tracer.table()
    table["trace.overhead_ratio"] = untraced_s / traced_s
    return tally, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seshadri" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'seshadri'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    from seshadri import cli

    if Path(cli.__file__).resolve().parent != SRC / "seshadri":
        print(f"error: imported seshadri from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    if args.trace:
        tally, values = run_traced(cli, workload, args.seed, args.seconds)
        wanted = spec["per_layer"]
        notes = [f"traced batch: {tally.attempted} requests, each run untraced then traced"]
    else:
        tally, raw, latencies, setup_raw, setup = run_untraced(cli, workload, args.seed, args.seconds)
        values = end_to_end(latencies, setup)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = spec["end_to_end"]
        beyond = sum(x * 1000 > values["latency_p90_ms"] for x in latencies)
        notes = [
            f"timed: {len(raw)} requests, {sum(raw):.2f} s inside cli.main, one closed-loop client; "
            f"{beyond} lie beyond p90",
            "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in end_to_end(raw, setup_raw).items()),
            f"setup: median of {len(setup)} fresh interpreters",
            f"failed_ratio: {len(tally.failures)}/{tally.attempted}",
        ]
    notes.append("mix: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.slots.items())))
    notes.append(f"python {platform.python_version()}, {os.cpu_count()} cpus")
    for request, reason in tally.failures[:5]:
        notes.append(f"FAILED {request.slot} {' '.join(request.argv)[:100]}: {reason}")

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"{name:<{width}}  {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    for note in notes:
        print(note, file=sys.stderr)
    failed = len(tally.failures)
    print(json.dumps({"correct": not failed, "attempted": tally.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
