"""The benchmark's workloads: inputs made from a seed, the timed experiment,
and the output check that runs after it.

Import this module only after ``pin.pin`` has loaded mfclab on the
workload's backend.  Library calls go through module attributes
(``mfclab.run_closed_loop``, ``cli.main``) so that the traced run's
wrappers, installed on those attributes, see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

import mfclab
from mfclab import cli


@dataclass(frozen=True)
class Cell:
    """One experiment: its full configuration and a label for messages."""

    config: mfclab.ExperimentConfig
    label: str
    config_path: Optional[Path] = None  # CLI experiments read their config from here

    @property
    def cutoff(self) -> float:
        return self.config.horizon / 4.0


def _round_trip(config: mfclab.ExperimentConfig) -> mfclab.ExperimentConfig:
    """Validate a config through the JSON codec, as ``mfclab run`` would see it."""
    again = mfclab.config_from_dict(mfclab.config_to_dict(config))
    if again != config:
        raise ValueError("config changed through config_to_dict/config_from_dict")
    return again


class Workload:
    """Experiments through the Python API: run, CSV write, CSV read-back and
    ``compute_metrics``, which is what ``mfclab run --out`` followed by
    ``mfclab metrics`` does."""

    name: str
    horizon: float

    def configs(self) -> List[mfclab.ExperimentConfig]:
        """Build and validate the workload's configs (the set-up work)."""
        raise NotImplementedError

    def prepare(self, workdir: Path) -> None:
        """Make the inputs of the experiments (the sweep writes config files)."""
        self._base = self.configs()

    def cells(self, seed: int, horizon: Optional[float] = None) -> List[Cell]:
        horizon = self.horizon if horizon is None else horizon
        return [
            Cell(dataclasses.replace(c, seed=seed, horizon=horizon), f"{self.name}-{seed}")
            for c in self._base
        ]

    def execute(self, cell: Cell, csv_path: Path):
        log = mfclab.run_closed_loop(cell.config)
        mfclab.write_log_csv(log, csv_path)
        back = mfclab.read_log_csv(csv_path)
        return log, back, mfclab.compute_metrics(back, cell.cutoff)

    def check(self, cell: Cell, raw, csv_bytes: bytes, scratch: Path) -> Optional[str]:
        """Return why the experiment's output is wrong, or None."""
        log, back, metrics = raw
        problem = _check_log(cell, log, csv_bytes, scratch)
        if problem:
            return problem
        if not all(np.array_equal(a, b) for a, b in zip(_columns(back), _columns(log))):
            return "CSV read-back differs from the in-memory log"
        if metrics != mfclab.compute_metrics(log, cell.cutoff):
            return "metrics of the read-back differ from those of the in-memory log"
        return None


def _columns(log) -> list:
    names = [f.name for f in dataclasses.fields(log) if f.name not in ("diverged", "meta")]
    return [getattr(log, name) for name in names]


def _check_log(cell: Cell, log, csv_bytes: bytes, scratch: Path) -> Optional[str]:
    """Checks common to every workload on the log the experiment produced."""
    if log.diverged:
        return "run diverged"
    if log.n != cell.config.n_records:
        return f"{log.n} rows logged, expected {cell.config.n_records}"
    if not all(np.isfinite(col).all() for col in _columns(log)):
        return "log holds a non-finite value"
    mfclab.write_log_csv(log, scratch)
    if scratch.read_bytes() != csv_bytes:
        return "CSV file differs from the serialised in-memory log"
    return None


class PendulumPython(Workload):
    name = "pendulum_python"
    horizon = 120.0

    def configs(self):
        return [_round_trip(dataclasses.replace(mfclab.demo_config(), horizon=self.horizon))]


class SyntheticSine(Workload):
    name = "synthetic_sine"
    horizon = 300.0

    def configs(self):
        demo = mfclab.demo_config()
        config = dataclasses.replace(
            demo,
            plant=mfclab.SyntheticUlmParams(
                f_mode="sine",
                f_value=0.5,
                f_period=2.0,
                desired_mode="sine",
                desired_amplitude=1.0,
                desired_period=5.0,
            ),
            ulm=dataclasses.replace(demo.ulm, observer_order="second"),
            horizon=self.horizon,
        )
        return [_round_trip(config)]

    def check(self, cell, raw, csv_bytes, scratch):
        problem = super().check(cell, raw, csv_bytes, scratch)
        if problem:
            return problem
        log = raw[0]
        y = log.y_true
        # the oracle plant: y[k+2] = 2 y[k+1] - y[k] + F_true[k] + G[k] u[k]
        predicted = 2.0 * y[1:-1] - y[:-2] + log.f_true[:-2] + log.g[:-2] * log.u[:-2]
        if not np.allclose(y[2:], predicted, rtol=0.0, atol=1e-12 * max(1.0, np.abs(y).max())):
            return "synthetic plant identity y[k+2] = 2y[k+1] - y[k] + F + G u fails"
        return None


class SweepCompiled(Workload):
    """Serial sweep of short pendulum experiments through ``mfclab.cli.main``:
    sample rate x noise on/off for each seed."""

    name = "sweep_compiled"
    horizon = 10.0
    rates = (5.0, 10.0, 20.0, 50.0)

    def configs(self):
        demo = mfclab.demo_config()
        return [
            _round_trip(dataclasses.replace(demo, horizon=self.horizon, sample_rate=r))
            for r in self.rates
        ]

    def prepare(self, workdir):
        self._files = []
        for config in self.configs():
            path = workdir / f"sweep-{config.sample_rate:g}hz.json"
            mfclab.write_config(config, path)
            self._files.append((config, path))

    def cells(self, seed, horizon=None):
        if horizon not in (None, self.horizon):
            raise ValueError("sweep experiments read their horizon from the config files")
        return [
            Cell(
                dataclasses.replace(config, seed=seed, noise=config.noise if noisy else None),
                f"{self.name}-{seed}-{config.sample_rate:g}hz-{'noise' if noisy else 'clean'}",
                path,
            )
            for config, path in self._files
            for noisy in (True, False)
        ]

    def execute(self, cell, csv_path):
        argv = ["run", str(cell.config_path), "--out", str(csv_path)]
        argv += ["--seed", str(cell.config.seed)]
        if cell.config.noise is None:
            argv.append("--no-noise")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = (
                cli.main(argv),
                cli.main(["metrics", str(csv_path), "--cutoff", repr(cell.cutoff)]),
            )
        return codes, out.getvalue()

    def check(self, cell, raw, csv_bytes, scratch):
        codes, stdout = raw
        if codes != (0, 0):
            return f"exit codes {codes}, expected (0, 0)"
        # the CLI keeps its log to itself: the expected log is the same run
        # through the Python API
        log = mfclab.run_closed_loop(cell.config)
        problem = _check_log(cell, log, csv_bytes, scratch)
        if problem:
            return problem
        metrics = mfclab.compute_metrics(log, cell.cutoff).as_dict()
        printed = set(stdout.splitlines())
        if any(f"{key}: {value}" not in printed for key, value in metrics.items()):
            return "printed metrics differ from those of the expected log"
        return None


WORKLOADS = {w.name: w for w in (PendulumPython(), SyntheticSine(), SweepCompiled())}
