#!/usr/bin/env python3
"""Closed-loop benchmark of mfclab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's experiments serially in this process, checks every
experiment's output outside the timed region, checks the logs of the
digest seeds against ``digests.json``, and prints one JSON object as the
last line of standard output.  With ``--trace 0`` it measures S seconds of
experiment time and reports the end-to-end metrics.  With ``--trace 1`` it
runs the same rounds of experiments untraced and traced for about S
seconds and reports the per-layer metrics.  ``README.md`` describes the
workloads and metrics, ``layers.json`` which layer metric should move which
end-to-end metric on which workload.

Exit codes: 0 result printed; 2 mfclab or its pinned backend could not be
loaded, and no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import pin

DIGEST_SEEDS = (0, 7)  # 0 is the default seed, 7 the held-out one
SETUP_PROBES = 7
WARMUP_HORIZON = 10.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(pin.WORKLOAD_BACKEND))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _setup_probe(workload: str) -> float:
    """Set-up time of this fresh process: import mfclab on the pinned backend
    and build and validate the workload's configs."""
    start = time.perf_counter()
    pin.pin(pin.WORKLOAD_BACKEND[workload])
    import workloads

    workloads.WORKLOADS[workload].configs()
    return time.perf_counter() - start


def _setup_seconds(workload: str) -> float:
    """Median set-up time over fresh processes, after one that warms the
    bytecode and file caches."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise pin.PinError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples[1:])


class Runner:
    """Runs rounds of experiments, checks them and counts the failures."""

    def __init__(self, workload, workdir: Path, horizon=None):
        self.workload = workload
        self.workdir = workdir
        self.horizon = horizon  # None: the workload's own horizon
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def cells(self, seed: int, r: int, horizon=None):
        """Round ``r`` of a run with ``seed``."""
        return self.workload.cells(seed * 10_000 + r, horizon or self.horizon)

    def fail(self, problem: str, count: int = 1):
        self.failed += count
        self.problems.append(problem)

    def round(self, cells, tracer=None):
        """Run ``cells``, then check each one; return the experiments' wall
        times in ns and their CSV bytes."""
        execute = self.workload.execute
        if tracer is not None:
            tracer.install()
            execute = tracer.span("bench.experiment", execute)
        results, times = [], []
        try:
            for i, cell in enumerate(cells):
                path = self.workdir / f"log-{i}.csv"
                path.unlink(missing_ok=True)
                start = time.perf_counter_ns()
                try:
                    raw = execute(cell, path)
                except Exception:  # a crashing experiment is a failed one
                    raw = traceback.format_exc(limit=-1).strip().splitlines()[-1]
                times.append(time.perf_counter_ns() - start)
                results.append((cell, raw, path))
        finally:
            if tracer is not None:
                tracer.uninstall()
        blobs = []
        for cell, raw, path in results:
            self.attempted += 1
            blob = path.read_bytes() if path.is_file() else b""
            blobs.append(blob)
            if isinstance(raw, str):
                self.fail(f"{cell.label}: raised {raw}")
                continue
            problem = self.workload.check(cell, raw, blob, self.workdir / "expected.csv")
            if problem:
                self.fail(f"{cell.label}: {problem}")
        return times, blobs

    def check_digests(self):
        recorded = json.loads((pin.BENCH_DIR / "digests.json").read_text())
        for seed in DIGEST_SEEDS:
            cells = self.workload.cells(seed)
            _, blobs = self.round(cells)
            digest = hashlib.sha256(b"".join(blobs)).hexdigest()
            if digest != recorded[self.workload.name].get(str(seed)):
                self.fail(f"seed {seed}: log digest {digest} differs from digests.json", len(cells))


def _steps(cells) -> int:
    return sum(cell.config.n_records for cell in cells)


def measure_end_to_end(runner: Runner, seed: int, seconds: float, setup_s: float) -> dict:
    # a round is one seed's experiments (the sweep's 8 grid points); its
    # mean keeps the sweep's median off the gap between grid sizes
    per_experiment, experiments, steps, total_ns = [], 0, 0, 0
    while total_ns < seconds * 1e9 or not experiments:
        cells = runner.cells(seed, len(per_experiment))
        times, _ = runner.round(cells)
        per_experiment.append(sum(times) / len(times))
        experiments += len(times)
        steps += _steps(cells)
        total_ns += sum(times)
    total_s = total_ns / 1e9
    print(f"{experiments} timed experiments, {steps} steps in {total_s:.3f} s")
    metrics = {
        "setup_s": (setup_s, "s"),
        "experiment_s": (statistics.median(per_experiment) / 1e9, "s"),
        "steps_per_s": (steps / total_s, "steps/s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def measure_layers(runner: Runner, seed: int, seconds: float) -> dict:
    import spans

    tracer = spans.Tracer()
    plain_ns, steps, r = 0, 0, 0
    start = time.perf_counter()
    while r == 0 or time.perf_counter() - start < seconds:
        cells = runner.cells(seed, r)
        plain_ns += sum(runner.round(cells)[0])
        runner.round(cells, tracer)
        steps += _steps(cells)
        r += 1
    if sum(tracer.self_ns.values()) != tracer.root_ns:
        runner.fail("span self times do not add up to the traced end-to-end time")
    print(f"{r} rounds traced, {steps} steps")
    return spans.layer_metrics(tracer, steps, plain_ns)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        if args.setup_probe:
            print(repr(_setup_probe(args.workload)))
            return 0
        setup_s = _setup_seconds(args.workload) if args.trace == 0 else 0.0
        pin.pin(pin.WORKLOAD_BACKEND[args.workload])
    except (ImportError, pin.PinError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    pin.WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=pin.WORK_DIR))
    try:
        workload.prepare(workdir)
        runner = Runner(workload, workdir)
        runner.round(runner.cells(args.seed, 9_999, WARMUP_HORIZON))
        if args.trace:
            metrics = measure_layers(runner, args.seed, args.seconds)
        else:
            metrics = measure_end_to_end(runner, args.seed, args.seconds, setup_s)
        runner.check_digests()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in runner.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"error_rate {runner.failed / runner.attempted} ({runner.failed} of {runner.attempted})")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
