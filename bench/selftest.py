"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks that a tiny run of every workload prints every metric that
BENCHMARK.json names, with its unit; that a deliberately corrupted reference
is counted as a failure; and that a checkout holding only BENCHMARK.json and
bench/ exits with an error and prints no result. Exits 1 on any failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import workloads
from run import OUT, ROOT, SRC, call, verdict

SEED = 7
problems: list[str] = []


def expect(ok: bool, message: str):
    if not ok:
        problems.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def run_bench(cwd, *args) -> subprocess.CompletedProcess:
    command = [sys.executable, "bench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def tiny_runs(spec: dict):
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, "--workload", name, "--seed", str(SEED), "--seconds", "1",
                             "--trace", str(trace))
            label = f"{name} --trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}")
            if proc.returncode:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
            units = {m: v["unit"] for m, v in result["metrics"].items()}
            expect(units == {m["name"]: m["unit"] for m in spec[key]}, f"{label}: metrics or units differ")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: {result['failed']}/{result['attempted']} failed")
            print(f"ok   {label}: {result['attempted']} requests, {len(units)} metrics", file=sys.stderr)


def corrupted_references():
    sys.path.insert(0, str(SRC))
    from seshadri import cli

    for name, workload in workloads.WORKLOADS.items():
        requests = next(workload.blocks(SEED)) + workload.closing(SEED)
        for request in requests:
            _, code, stdout = call(cli, request.argv)
            expect(verdict(request, code, stdout) is None, f"{request.slot}: correct answer rejected")
            wrong = dataclasses.replace(request, expected=workloads.perturb(request.expected))
            expect(verdict(wrong, code, stdout) is not None, f"{request.slot}: corrupted reference accepted")
        print(f"ok   {name}: {len(requests)} corrupted references caught", file=sys.stderr)


def bare_checkout():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "--workload", "toolkit", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if proc.returncode != 0 and not proc.stdout.strip():
        print(f"ok   bare checkout: exit {proc.returncode}, {proc.stderr.strip()}", file=sys.stderr)
    else:
        expect(False, f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    corrupted_references()
    bare_checkout()
    tiny_runs(spec)
    print(f"{len(problems)} problems", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
