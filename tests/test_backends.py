import dataclasses
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from loop_runs import explicit_examples, loop_runs

import mfclab
from mfclab import (
    PendulumParams,
    PendulumState,
    SyntheticUlmParams,
    _kernels_py,
    cli,
    demo_config,
    generate_desired_trajectory,
    harness,
    plants,
    rk4_advance,
    run_closed_loop,
    write_config,
    write_log_csv,
)

PARAMS = (1.5, 0.5, 1.4, 0.84, 9.8, 0.028, 0.0032)


def random_states(n=50, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield tuple(rng.uniform(-3.0, 3.0, size=4)), float(rng.uniform(-5.0, 5.0))


def assert_same_bits(a, b):
    """Equal bit for bit up to the NaN payload: NaN matches NaN, and zeros
    match only with the same sign."""
    assert [float(v).hex() for v in a] == [float(v).hex() for v in b]


EDGE_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -1e-310)


def edge_cases(n, seed):
    """(state, force, dt, params) drawn around the demo constants, each value
    replaced by an IEEE edge value with probability 0.15."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        values = np.concatenate([
            rng.uniform(-3.0, 3.0, size=4),
            rng.uniform(-5.0, 5.0, size=1),
            rng.uniform(0.001, 0.5, size=1),
            np.array(PARAMS) * rng.uniform(0.5, 2.0, size=7),
        ]).tolist()
        for i in np.flatnonzero(rng.random(len(values)) < 0.15):
            values[i] = EDGE_VALUES[rng.integers(len(EDGE_VALUES))]
        yield values[:4], values[4], values[5], values[6:]


def outcome(fn, *args):
    """The hex bits ``fn`` returns, or the name of the exception it raises."""
    try:
        return [float(v).hex() for v in fn(*args)]
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__


def test_backend_name_is_valid():
    assert mfclab.BACKEND in ("compiled", "python")


def test_env_override_forces_python_backend():
    env = dict(os.environ, MFCLAB_PURE_PYTHON="1")
    out = subprocess.run(
        [sys.executable, "-c", "import mfclab; print(mfclab.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "python"


def test_accel_agrees_across_backends(compiled_kernels):
    for state, force in random_states():
        assert_same_bits(
            compiled_kernels.pendulum_accel(*state, force, *PARAMS),
            _kernels_py.pendulum_accel(*state, force, *PARAMS),
        )
    # random constants: with the demo ones mp * (lp * lp) == (mp * lp) * lp
    for state, force, _, params in edge_cases(n=400, seed=4):
        want = outcome(_kernels_py.pendulum_accel, *state, force, *params)
        if isinstance(want, list):  # where ``math`` raises, C gives NaN
            assert outcome(compiled_kernels.pendulum_accel, *state, force, *params) == want


def test_twins_define_the_same_entry_points(compiled_kernels):
    for module in (_kernels_py, compiled_kernels):
        public = {
            name
            for name, value in vars(module).items()
            if callable(value)
            and not name.startswith("_")
            and getattr(value, "__module__", None) == module.__name__
        }
        assert public == {
            "pendulum_accel", "rk4_advance", "trajgen_advance", "run_loop",
            "format_rows", "parse_rows",
        }


@pytest.mark.parametrize(
    "dt, substeps, n, seed", [(0.02, 1, 50, 1), (0.5, 250, 10, 2)], ids=["1", "250"]
)
def test_rk4_advance_agrees_across_backends(compiled_kernels, dt, substeps, n, seed):
    for state, force in random_states(n=n, seed=seed):
        assert_same_bits(
            compiled_kernels.rk4_advance(*state, force, dt, substeps, *PARAMS),
            _kernels_py.rk4_advance(*state, force, dt, substeps, *PARAMS),
        )


def test_trajgen_agrees_across_backends(compiled_kernels):
    # (0.02, 10) is the closed loop's reference advance at 50 Hz
    for dt, substeps in ((0.5, 250), (0.02, 10)):
        for state, _ in random_states(n=10, seed=3):
            assert_same_bits(
                compiled_kernels.trajgen_advance(*state, dt, substeps, *PARAMS),
                _kernels_py.trajgen_advance(*state, dt, substeps, *PARAMS),
            )


def stagewise_advance(accel, state, force, feedback, dt, substeps, params):
    """Classical RK4 written stage by stage on a twin's own ``accel``; with
    ``feedback`` set each stage's force is the reference feedback of its
    state.  The fused advances of both twins must reproduce it bit for bit."""
    cx, cth = params[5], params[6]

    def deriv(s):
        f = -cx * s[2] - 0.5 * cth * s[3] - 0.1 * cx * s[0] if feedback else force
        return (s[2], s[3], *accel(*s, f, *params))

    h = dt / substeps
    s = tuple(state)
    for _ in range(substeps):
        k1 = deriv(s)
        k2 = deriv([v + 0.5 * h * k for v, k in zip(s, k1)])
        k3 = deriv([v + 0.5 * h * k for v, k in zip(s, k2)])
        k4 = deriv([v + h * k for v, k in zip(s, k3)])
        s = tuple(
            v + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
            for v, a, b, c, d in zip(s, k1, k2, k3, k4)
        )
    return s


@pytest.mark.parametrize("substeps", [1, 2, 10])
def test_advances_match_stagewise_reference(kernels, substeps):
    accel = kernels.pendulum_accel
    for state, force, dt, params in edge_cases(n=400, seed=substeps):
        assert outcome(kernels.rk4_advance, *state, force, dt, substeps, *params) == outcome(
            stagewise_advance, accel, state, force, False, dt, substeps, params
        )
        assert outcome(kernels.trajgen_advance, *state, dt, substeps, *params) == outcome(
            stagewise_advance, accel, state, 0.0, True, dt, substeps, params
        )


@settings(max_examples=150, deadline=None)
@given(run=loop_runs())
@explicit_examples
def test_run_loop_agrees_across_twins(compiled_kernels, run):
    """Both twins' ``run_loop`` on the arguments the harness passes: the same
    row bytes, row count and divergence flag."""
    config, oracle_f, f_hat_bias = run
    results = []
    for twin in (_kernels_py, compiled_kernels):
        with mock.patch.object(plants, "kernels", twin):
            rows, diverged = harness._run_loop(config, oracle_f, f_hat_bias)
        rows = bytes(rows)
        results.append((rows, len(rows) // (13 * 8), diverged))
    assert results[0] == results[1]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("rate", [5.0, 20.0, 50.0, 100.0])
def test_logs_byte_equal_across_backends(rate, seed, compiled_kernels, monkeypatch, tmp_path):
    config = dataclasses.replace(demo_config(seed), sample_rate=rate, horizon=20.0)
    logs = []
    for module in (_kernels_py, compiled_kernels):
        monkeypatch.setattr(plants, "kernels", module)
        plants._theta_samples.cache_clear()  # each twin computes its reference
        path = tmp_path / f"{module.BACKEND_NAME}.csv"
        write_log_csv(run_closed_loop(config), path)
        logs.append(path.read_bytes())
    assert logs[0] == logs[1]


def test_cli_round_trips_alike_across_backends(compiled_kernels, monkeypatch, tmp_path, capsys):
    """``run --out`` then ``metrics`` over the sweep grid: the same log bytes
    and the same printed metrics from either twin's kernels and codec."""
    outputs = []
    for module in (_kernels_py, compiled_kernels):
        monkeypatch.setattr(plants, "kernels", module)
        plants._theta_samples.cache_clear()  # each twin computes its reference
        runs = []
        for rate in (5.0, 10.0, 20.0, 50.0):
            config = tmp_path / f"{rate:g}hz.json"
            grid_point = dataclasses.replace(demo_config(), horizon=10.0, sample_rate=rate)
            write_config(grid_point, config)
            for flags in ([], ["--no-noise"]):
                log = tmp_path / "log.csv"
                assert cli.main(["run", str(config), "--out", str(log), *flags]) == 0
                capsys.readouterr()
                assert cli.main(["metrics", str(log), "--cutoff", "2.5"]) == 0
                runs.append((rate, flags, log.read_bytes(), capsys.readouterr().out))
        outputs.append(runs)
    assert outputs[0] == outputs[1]


def test_cli_round_trips_alike_beyond_the_fast_range(
    compiled_kernels, monkeypatch, tmp_path, capsys
):
    """A synthetic-plant log whose values lie below, inside and above the C
    writer's fast range (1e-16 <= |x| < 2**128), and whose tokens lie on
    both sides of the C reader's: the same log bytes and printed metrics
    from either twin."""
    plant = SyntheticUlmParams(f_mode="constant", f_value=1e-20, y0=1e39, y1=1e39)
    config = tmp_path / "tiny-forcing.json"
    write_config(dataclasses.replace(demo_config(), plant=plant, horizon=10.0), config)
    outputs = []
    for module in (_kernels_py, compiled_kernels):
        monkeypatch.setattr(plants, "kernels", module)
        log = tmp_path / f"{module.BACKEND_NAME}.csv"
        assert cli.main(["run", str(config), "--out", str(log)]) == 0
        capsys.readouterr()
        assert cli.main(["metrics", str(log), "--cutoff=-inf"]) == 0
        outputs.append((log.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    values = np.abs(np.loadtxt(log, delimiter=",", skiprows=1))
    assert ((values > 0) & (values < 1e-16)).any()
    assert ((values >= 1e-16) & (values < 2.0**128)).any()
    assert (values >= 2.0**128).any()


def test_substeps_checked_alike(kernels, monkeypatch):
    monkeypatch.setattr(plants, "kernels", kernels)
    params, state = PendulumParams(), PendulumState(theta=0.1)
    with pytest.raises(ValueError, match="substeps must be >= 1"):
        generate_desired_trajectory(params, state, 1.0, 0.02, substeps=0)
    with pytest.raises(ZeroDivisionError):
        kernels.trajgen_advance(*state.as_tuple(), 0.02, 0, *PARAMS)
    # substeps is an index, as ``range`` takes it: a float is a TypeError
    with pytest.raises(TypeError):
        generate_desired_trajectory(params, state, 1.0, 0.02, substeps=10.0)
    with pytest.raises(TypeError):
        rk4_advance(state, 0.4, 0.02, params, substeps=10.0)
