#!/usr/bin/env python3
"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

For each workload, in a fresh process pinned to its backend: runs the
end-to-end and the traced measurement on short experiments, checks that
they report exactly the metrics and units ``BENCHMARK.json`` names and that
two traced runs give identical counts, and shows that the output check is
not vacuous:
a log with one altered digit, or with its last row cut off, must raise the
error rate.  ``layers.json`` must map every per-layer metric.  The digests
are checked by every benchmark run, not here, as they need full-size logs.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pin

TOY_HORIZON = 4.0
COUNT_METRICS = (
    "core.holder_gain.calls_per_step",
    "core.gain_params_built_per_step",
    "core.atleast_1d_calls_per_step",
)


def _alter_digit(path: Path):
    lines = path.read_text().splitlines(keepends=True)
    row = lines[2]
    i = next(i for i, ch in enumerate(row) if ch.isdigit())
    lines[2] = row[:i] + str((int(row[i]) + 1) % 10) + row[i + 1 :]
    path.write_text("".join(lines))


def _drop_last_row(path: Path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _names(section: str):
    spec = json.loads((pin.ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def _reported(metrics: dict):
    return [(name, m["unit"]) for name, m in metrics.items()]


def worker(name: str) -> list:
    """Run the checks for one workload; return what failed."""
    pin.pin(pin.WORKLOAD_BACKEND[name])
    import run
    import workloads

    failures = []
    workload = workloads.WORKLOADS[name]
    horizon = None if name == "sweep_compiled" else TOY_HORIZON
    pin.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=pin.WORK_DIR) as tmp:
        workload.prepare(Path(tmp))
        runner = run.Runner(workload, Path(tmp), horizon)

        e2e = run.measure_end_to_end(runner, seed=0, seconds=0, setup_s=1.0)
        if _reported(e2e) != _names("end_to_end"):
            failures.append(f"end-to-end metrics {_reported(e2e)} differ from BENCHMARK.json")
        layers = [run.measure_layers(runner, seed=0, seconds=0) for _ in range(2)]
        if _reported(layers[0]) != _names("per_layer"):
            failures.append("per-layer metrics or units differ from BENCHMARK.json")
        for metric in COUNT_METRICS:
            if layers[0][metric] != layers[1][metric]:
                failures.append(f"{metric} differs between two traced runs")
        if runner.failed:
            failures.append(f"clean toy experiments failed: {runner.problems}")

        original = workload.execute
        for corrupt in (_alter_digit, _drop_last_row):
            def execute(cell, path, corrupt=corrupt):
                raw = original(cell, path)
                corrupt(path)
                return raw

            workload.execute = execute
            before = runner.failed
            try:
                runner.round(runner.cells(0, 0))
            finally:
                del workload.execute
            if runner.failed == before:
                failures.append(f"a log passed the output check after {corrupt.__name__}")
        rate = runner.failed / runner.attempted
        print(f"{name}: error_rate {rate:.3f} after the corrupted rounds")
    return failures


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--worker":
        failures = worker(sys.argv[2])
        for failure in failures:
            print(f"FAIL {sys.argv[2]}: {failure}")
        return 1 if failures else 0
    mapped = set(json.loads((pin.BENCH_DIR / "layers.json").read_text())["layers"])
    status = 0
    missing = [name for name, _ in _names("per_layer") if name not in mapped]
    if missing:
        print(f"FAIL layers.json does not map {missing}")
        status = 1
    for name in pin.WORKLOAD_BACKEND:
        proc = subprocess.run([sys.executable, __file__, "--worker", name], timeout=600)
        status = status or proc.returncode
    print("self-test", "passed" if status == 0 else "FAILED")
    return status


if __name__ == "__main__":
    sys.exit(main())
