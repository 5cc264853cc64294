import dataclasses
import inspect
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from loop_runs import SEED_WIDTH_RUNS, explicit_examples, loop_runs, seed_width_examples
from oracle import pendulum_accel

import mfclab
from mfclab import (
    PendulumState,
    SyntheticUlmParams,
    _kernels_py,
    cli,
    demo_config,
    gain_args,
    harness,
    plants,
    run_closed_loop,
    write_config,
    write_log_csv,
)

PARAMS = (1.5, 0.5, 1.4, 0.84, 9.8, 0.028, 0.0032)

# the twin contract: what each twin exposes, and nothing else
ENTRY_POINTS = {"reference", "run_loop", "format_rows", "parse_rows"}


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


# run in a fresh interpreter: the compiled twin registered as
# ``mfclab._kernels`` before the package is imported, then every command
COMPILED_PROCESS = """
import dataclasses, importlib.util, sys
kernels_path, config, log = sys.argv[1:]
spec = importlib.util.spec_from_file_location("mfclab._kernels", kernels_path)
sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sys.modules[spec.name])
import mfclab
from mfclab import cli
assert mfclab.BACKEND == "compiled"
assert cli.main(["demo-paper", "--out", config]) == 0
short = dataclasses.replace(mfclab.read_config(config), horizon=2.0)
mfclab.write_config(short, config)
assert cli.main(["run", config, "--out", log]) == 0
assert cli.main(["metrics", log, "--cutoff", "1"]) == 0
print(sorted(name for name in sys.modules if name.startswith(("mfclab", "numpy.random"))))
"""


def test_compiled_process_never_imports_the_python_twin(compiled_kernels, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(mfclab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    ))
    env.pop("MFCLAB_PURE_PYTHON", None)
    out = subprocess.run(
        [sys.executable, "-c", COMPILED_PROCESS, compiled_kernels.__file__,
         str(tmp_path / "demo.json"), str(tmp_path / "log.csv")],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded = out.stdout.splitlines()[-1]
    assert "'mfclab._kernels'" in loaded
    assert "mfclab._kernels_py" not in loaded
    # the demo run is noisy, and the C twin draws its noise itself
    assert "numpy.random" not in loaded


def test_twins_define_the_same_entry_points(compiled_kernels):
    for module in (_kernels_py, compiled_kernels):
        public = {
            name
            for name, value in vars(module).items()
            if callable(value)
            and not name.startswith("_")
            and getattr(value, "__module__", None) == module.__name__
        }
        assert public == ENTRY_POINTS


def test_library_calls_every_entry_point():
    """Each entry point has a caller in ``src/mfclab`` outside the twins, so
    a twin holds no function that the library does not run."""
    package = Path(mfclab.__file__).parent
    code = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(package.glob("*.py"))
        if path.name != "_kernels_py.py"
    )
    for name in sorted(ENTRY_POINTS):
        assert re.search(rf"\bkernels\.{name}\(", code), name


def reference_outcome(twin, state, dt, params, count):
    """The hex bits that ``twin.reference`` leaves in a buffer of ``count``
    copies of 1234.5 (the samples it wrote, then 1234.5), and what it
    returned."""
    out = np.full(count, 1234.5)
    finite = twin.reference(out, *state, dt, *params)
    return [v.hex() for v in out.tolist()], finite


# the seeds and sizes of the edge-case draws in the twin parity tests
EDGE_DRAWS = [(1, 400), (2, 400), (10, 400), (250, 20)]


@pytest.mark.parametrize("seed, n", EDGE_DRAWS)
def test_reference_agrees_across_twins(compiled_kernels, seed, n):
    """From edge-value initial states, dt and constants: the same samples,
    or both twins stop at the same sample."""
    stopped = 0
    for state, _, dt, params in edge_cases(n=n, seed=seed):
        want = reference_outcome(_kernels_py, state, dt, params, 6)
        assert reference_outcome(compiled_kernels, state, dt, params, 6) == want
        stopped += not want[1]
    assert 0 < stopped < n


def test_reference_agrees_across_twins_on_the_demo_constants(compiled_kernels):
    # 0.02 is the closed loop's reference advance at 50 Hz
    for dt in (0.5, 0.02):
        for state, _ in random_states(n=10, seed=3):
            want = reference_outcome(_kernels_py, state, dt, PARAMS, 4)
            assert want[1]
            assert reference_outcome(compiled_kernels, state, dt, PARAMS, 4) == want


def pendulum_rows(twin, state, force, dt, params, n=4):
    """The rows and divergence flag of ``twin.run_loop`` on a noiseless
    pendulum run of ``n`` rows from the raw ``state``, with the demo gains,
    a zero reference and ``f_hat_bias = -force``.  The first advance holds
    0.0 and each later one the law's input, which carries the bias."""
    config = demo_config()
    gains = (
        *gain_args(config.observer), *gain_args(config.ulm.gain),
        *gain_args(config.controller.gain),
    )
    rows, diverged = twin.run_loop(
        *gains, False, 1.0, 0.35, False, False, -force, dt, n, np.zeros(n + 1), 0.0,
        state, params, None, 0.0, None,
    )
    return np.frombuffer(bytes(rows)), diverged


@pytest.mark.parametrize("seed, n", EDGE_DRAWS)
def test_held_force_advance_agrees_across_twins(compiled_kernels, seed, n):
    """The C twin's held-force advance, reached through ``run_loop`` from
    edge-value initial truth, dt and constants: the same rows and flag as
    the Python twin's.  A non-finite input stops the loop before it
    advances, so an infinite or NaN force never reaches either advance."""
    advanced = 0
    for state, force, dt, params in edge_cases(n=n, seed=100 + seed):
        rows, diverged = pendulum_rows(_kernels_py, state, force, dt, params)
        got, got_diverged = pendulum_rows(compiled_kernels, state, force, dt, params)
        assert_same_bits(got, rows)
        assert got_diverged == diverged
        advanced += not diverged
    assert 0 < advanced < n


def stagewise_advance(accel, state, force, feedback, dt, substeps, params):
    """Classical RK4 written stage by stage on ``accel``; with ``feedback``
    set each stage's force is the reference feedback of its state.  The
    fused advance must reproduce it bit for bit."""
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
def test_advances_match_stagewise_reference(substeps):
    """The Python twin's fused ``_advance``, with a held force and with the
    reference feedback, against the stage-by-stage RK4 over the oracle's
    ``pendulum_accel``; the twin parity tests above carry the check to the
    C twin's."""
    advance = _kernels_py._advance
    for state, force, dt, params in edge_cases(n=400, seed=substeps):
        for held, feedback in ((force, False), (0.0, True)):
            assert outcome(advance, *state, held, feedback, dt, substeps, *params) == outcome(
                stagewise_advance, pendulum_accel, state, held, feedback, dt, substeps, params
            )


def assert_twins_agree(compiled, run):
    """The Python twin's and ``compiled``'s ``run_loop`` on the arguments the
    harness passes for ``run``: the same row bytes, row count and divergence
    flag."""
    config, oracle_f, f_hat_bias = run
    results = []
    for twin in (_kernels_py, compiled):
        with mock.patch.object(plants, "kernels", twin):
            rows, diverged = harness._run_loop(config, oracle_f, f_hat_bias)
        rows = bytes(rows)
        results.append((rows, len(rows) // (13 * 8), diverged))
    assert results[0] == results[1]


@settings(max_examples=150, deadline=None)
@given(run=loop_runs())
@explicit_examples
@seed_width_examples
def test_run_loop_agrees_across_twins(compiled_kernels, run):
    assert_twins_agree(compiled_kernels, run)


@pytest.mark.parametrize("run", SEED_WIDTH_RUNS, ids=lambda run: f"{run[0].seed.bit_length()}bits")
def test_every_seed_width_agrees_on_the_build_without_int128(kernels_without_int128, run):
    assert_twins_agree(kernels_without_int128, run)


SYNTHETIC = dataclasses.replace(demo_config(), plant=SyntheticUlmParams(), horizon=0.1)
# the names of run_loop's arguments, in order
RUN_LOOP_PARAMETERS = list(inspect.signature(_kernels_py.run_loop).parameters)


def run_loop_args(config):
    """The arguments ``harness._run_loop`` passes to the kernels'
    ``run_loop`` for ``config``."""
    recorder = mock.Mock(return_value=(b"", False))
    with mock.patch.object(plants.kernels, "run_loop", recorder):
        harness._run_loop(config, False, 0.0)
    return list(recorder.call_args.args)


@pytest.mark.parametrize(
    "seed, error",
    [(-1, ValueError), (-(2**70), ValueError), (1.0, TypeError), ("1", TypeError),
     ([1], TypeError)],
)
def test_seed_checked_alike(kernels, seed, error):
    """``run_loop`` takes an int seed, by the index protocol, that is not
    negative; numpy's Generator would also take a str or a sequence."""
    *args, last = run_loop_args(SYNTHETIC)
    assert last == SYNTHETIC.seed
    with pytest.raises(error):
        kernels.run_loop(*args, seed)


def entry_point_args(name):
    """The arguments of a call of the entry point ``name`` that returns."""
    if name == "reference":
        return [np.empty(3), *PendulumState(theta=0.1).as_tuple(), 0.02, *PARAMS]
    if name == "run_loop":
        return run_loop_args(SYNTHETIC)
    if name == "format_rows":
        return [np.zeros((1, _kernels_py._ROW))]
    return [io.StringIO(",".join(["0"] * _kernels_py._ROW) + "\n")]


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_take_their_count_of_arguments_alike(kernels, name):
    entry_point = getattr(kernels, name)
    args = entry_point_args(name)
    for wrong in (args[:-1], [*args, args[-1]]):
        with pytest.raises(TypeError):
            entry_point(*wrong)
    entry_point(*args)


@pytest.mark.parametrize("name, value", [("dt", "0.02"), ("n", 2.0)])
def test_run_loop_rejects_an_argument_of_another_type_alike(kernels, name, value):
    args = run_loop_args(SYNTHETIC)
    args[RUN_LOOP_PARAMETERS.index(name)] = value
    with pytest.raises(TypeError):
        kernels.run_loop(*args)


@pytest.mark.parametrize(
    "config, name",
    [(dataclasses.replace(demo_config(), horizon=0.1), "y_d"), (SYNTHETIC, "y_d"),
     (SYNTHETIC, "f_signal")],
    ids=["pendulum-y_d", "synthetic-y_d", "synthetic-f_signal"],
)
def test_c_run_loop_rejects_a_signal_one_double_short(compiled_kernels, config, name):
    # the Python twin runs until it reads past the end, an IndexError
    args = run_loop_args(config)
    i = RUN_LOOP_PARAMETERS.index(name)
    compiled_kernels.run_loop(*args)
    args[i] = args[i][:-1]
    with pytest.raises(ValueError, match="run_loop\\(\\) takes y_d as"):
        compiled_kernels.run_loop(*args)


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


@pytest.mark.parametrize("count", [0, 1, 2])
def test_reference_takes_a_c_contiguous_buffer_of_doubles(kernels, count):
    args = (*PendulumState(theta=0.1).as_tuple(), 0.02)
    for out in (np.empty(count, dtype=np.float32), np.empty((2, 2))[:, 0]):
        with pytest.raises(TypeError, match="C-contiguous buffer of doubles"):
            kernels.reference(out, *args, *PARAMS)
