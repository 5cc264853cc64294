"""Checks of the closed loop that need no stored digest, on both kernel
twins: a reference loop built from the numpy laws of ``oracle`` must write
the same CSV bytes, the mirror image of a run must be its exact negation
(with noise, the reference loop's image with every sample negated), and a
run must be the first rows of the same run made longer.  The Python
twin's loop must call the library's steps."""

import contextlib
import dataclasses
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from loop_runs import explicit_examples, loop_runs

from oracle import (
    OutputObserverState,
    UlmObserverState,
    control_rhs_second_order,
    fts_observer_step,
    holder_gain,
    influence_gain,
    rk4_advance,
    solve_input,
    synthetic_ulm_plant_step,
    ulm_predict,
)

from mfclab import (
    BumpNoiseStream,
    DivergenceError,
    NoiseModel,
    PendulumParams,
    PendulumState,
    RunLog,
    SyntheticUlmParams,
    _kernels_py,
    controller,
    demo_config,
    observers,
    plants,
    run_closed_loop,
    ulm,
    write_log_csv,
)

# the kernels fixture hands each example the same module; nothing to reset
TWIN_SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def reference_loop(config, oracle_f, f_hat_bias, negate_noise=False):
    """The rows of ``run_closed_loop(config, ...)``, flat, and its divergence
    flag, from ``BumpNoiseStream``, the numpy laws of ``oracle``
    (``fts_observer_step``, ``ulm_predict``, ``control_rhs_second_order``,
    ``holder_gain``, ``influence_gain``, ``solve_input`` and
    ``synthetic_ulm_plant_step``) and the Python twin's RK4 through
    ``rk4_advance``.  F is reconstructed here, per plant.  With
    ``negate_noise`` every noise sample is negated."""
    rows = []
    n, dt = config.n_records, config.dt
    ctl, plant = config.controller, config.plant
    mu = ctl.mu
    pendulum = isinstance(plant, PendulumParams)
    lag = 1 if pendulum else 0
    if n == 0:
        return rows, False
    try:
        if pendulum:
            y_d = plants._desired_theta_samples(plant, n + 1, dt)
        else:
            y_d = plant.desired_samples(n + 2, dt)
    except DivergenceError:
        return rows, True
    noise = None
    if config.noise is not None:
        noise = BumpNoiseStream(config.noise.width, config.seed)
    if pendulum:
        state = plant.initial
        y_true, y_hat0 = [state.theta], plant.theta_estimate
    else:
        y_true, y_hat0 = [plant.y0, plant.y1], plant.y0
    y_hat = []
    signal = y_hat if pendulum else y_true
    estimator = UlmObserverState.initial(1, config.ulm.observer_order)
    known = []  # the reconstructed values of F
    effect = 0.0
    for k in range(n):
        y_k = y_true[k]
        sample = noise.sample() if noise is not None else 0.0
        y_m = y_k + (-sample if negate_noise else sample)
        if k == 0:
            observer = OutputObserverState.initial(y_hat0, y_m)
        else:
            observer = fts_observer_step(observer, y_m, config.observer)
        y_hat.append(float(observer.estimate[0]))
        e_o = float(observer.last_error[0])

        j = k - lag
        if j >= 1:
            if pendulum:
                f_new = ((signal[j + 1] - signal[j]) - (signal[j] - signal[j - 1])) - effect
            else:
                f_new = (signal[j + 1] - 2.0 * signal[j] + signal[j - 1]) - effect
            known.append(f_new)
        f_hat, estimator = ulm_predict(estimator, known, config.ulm)
        if not pendulum:
            f_true = plant.f_signal(k, dt)
        elif k < 2:
            f_true = 0.0
        else:
            f_true = ((y_true[k] - y_true[k - 1]) - (y_true[k - 1] - y_true[k - 2])) - effect
        f_used = (f_true if oracle_f else float(f_hat[0])) + f_hat_bias

        if j >= 0:
            e_j, e_j1 = signal[j] - y_d[j], signal[j + 1] - y_d[j + 1]
            rhs = control_rhs_second_order(
                e_j, e_j1, y_d[j], y_d[j + 1], y_d[j + 2], f_used, ctl
            )
            e_1 = e_j1 - e_j
            s = e_1 + mu * e_j
            c = holder_gain(s, ctl.gain)
            g = influence_gain(ctl.influence_policy, -(1.0 - c) * s - mu * e_1 - f_used)
            u = float(solve_input(g, rhs)[0])
            if not np.isfinite(u):
                return rows, True
        else:
            s, u = 0.0, 0.0
            g = influence_gain(ctl.influence_policy, 0.0)
        g = float(np.reshape(g, -1)[0])
        effect = g * u
        rows.extend([
            k * dt, y_d[k], y_k, y_m, y_hat[k], y_k - y_d[k], e_o,
            f_true, f_used, f_used - f_true, s, u, g,
        ])
        if k < n - lag:
            if pendulum:
                state = rk4_advance(state, u, dt, plant)
                if state is None:
                    return rows, True
                y_true.append(state.theta)
            else:
                y_next = float(synthetic_ulm_plant_step(y_true[k], y_true[k + 1], f_true, g, u)[0])
                if not np.isfinite(y_next):
                    del rows[-13:]
                    return rows, True
                y_true.append(y_next)
    return rows, False


def _csv_bytes(log, path):
    write_log_csv(log, path)
    return path.read_bytes()


@TWIN_SETTINGS
@given(run=loop_runs())
@explicit_examples
def test_loop_matches_reference_built_from_the_steps(kernels, run, tmp_path_factory):
    config, oracle_f, f_hat_bias = run
    path = tmp_path_factory.mktemp("loop") / "log.csv"
    with np.errstate(all="ignore"), mock.patch.object(plants, "kernels", kernels):
        rows, diverged = reference_loop(config, oracle_f, f_hat_bias)
        expected = RunLog(array("d", rows), diverged)
        log = run_closed_loop(config, oracle_f=oracle_f, f_hat_bias=f_hat_bias)
        assert (log.n, log.diverged) == (expected.n, expected.diverged)
        assert _csv_bytes(log, path) == _csv_bytes(expected, path)


def mirrored(config):
    """``config`` with the plant's initial state and estimate (and for the
    synthetic plant its forcing and reference amplitude) negated."""
    plant = config.plant
    if isinstance(plant, PendulumParams):
        plant = dataclasses.replace(
            plant,
            initial=PendulumState(*(-v for v in plant.initial.as_tuple())),
            theta_estimate=-plant.theta_estimate,
        )
    else:
        plant = dataclasses.replace(
            plant,
            y0=-plant.y0,
            y1=-plant.y1,
            f_value=-plant.f_value,
            desired_amplitude=-plant.desired_amplitude,
        )
    return dataclasses.replace(config, plant=plant)


SIGNED = ("y_d", "y_true", "y_meas", "y_hat", "e", "e_o", "f_true", "f_hat", "e_f", "s", "u")


@TWIN_SETTINGS
@given(run=loop_runs())
@explicit_examples
def test_noiseless_mirror_image_negates_every_signed_column(kernels, run):
    # every gain reads e*e, the adaptive influence sqrt(x*x), the law is
    # odd in the errors and glibc's sin and tanh are odd and cos even; the
    # bias mirrors too.  Compared with ==: the bias add may turn -0.0 to 0.0
    config, oracle_f, f_hat_bias = run
    config = dataclasses.replace(config, noise=None)
    with mock.patch.object(plants, "kernels", kernels):
        log = run_closed_loop(config, oracle_f=oracle_f, f_hat_bias=f_hat_bias)
        image = run_closed_loop(mirrored(config), oracle_f=oracle_f, f_hat_bias=-f_hat_bias)
    assert (image.n, image.diverged) == (log.n, log.diverged)
    for name in SIGNED:
        assert (getattr(image, name) == -getattr(log, name)).all(), name
    assert (image.t == log.t).all() and (image.g == log.g).all()


@TWIN_SETTINGS
@given(run=loop_runs())
@explicit_examples
def test_run_is_the_prefix_of_a_longer_run(kernels, run):
    # the reference, the noise and the loop are causal.  A longer run
    # repeats a diverging one; a run that ends before the longer one
    # diverges is not diverged.  Compared with ==, as the mirror test does
    config, oracle_f, f_hat_bias = run
    longer = dataclasses.replace(config, horizon=2 * config.horizon)
    with mock.patch.object(plants, "kernels", kernels):
        log = run_closed_loop(config, oracle_f=oracle_f, f_hat_bias=f_hat_bias)
        long = run_closed_loop(longer, oracle_f=oracle_f, f_hat_bias=f_hat_bias)
    n = config.n_records
    if long.diverged and long.n == 0 < log.n:
        # no row survives a reference that fails, which it may do after n
        return
    assert log.n == min(n, long.n)
    assert log.diverged == (long.diverged and long.n < n)
    assert (long.rows[: log.n] == log.rows).all()


@TWIN_SETTINGS
@given(run=loop_runs())
@explicit_examples
def test_mirror_image_with_negated_noise_negates_every_signed_column(kernels, run):
    # the noise-on half of the mirror: the twins draw their noise inside
    # run_loop, so the image runs on the reference loop, whose samples can
    # be negated.  Noise is switched on where the run has none
    config, oracle_f, f_hat_bias = run
    if config.noise is None:
        config = dataclasses.replace(config, noise=NoiseModel(width=0.018))
    with np.errstate(all="ignore"), mock.patch.object(plants, "kernels", kernels):
        log = run_closed_loop(config, oracle_f=oracle_f, f_hat_bias=f_hat_bias)
        rows, diverged = reference_loop(
            mirrored(config), oracle_f, -f_hat_bias, negate_noise=True
        )
    image = RunLog(array("d", rows), diverged)
    assert (image.n, image.diverged) == (log.n, log.diverged)
    for name in SIGNED:
        assert (getattr(image, name) == -getattr(log, name)).all(), name
    assert (image.t == log.t).all() and (image.g == log.g).all()


def _library_calls(config, steps):
    """The log of ``config`` run on the Python twin, and for each name of
    ``steps`` (name -> (module, attribute)) a mock that wraps that step."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(plants, "kernels", _kernels_py))
        calls = {
            name: stack.enter_context(
                mock.patch.object(module, attr, wraps=getattr(module, attr))
            )
            for name, (module, attr) in steps.items()
        }
        return run_closed_loop(config), calls


RECONSTRUCTIONS = {
    "differences": (ulm, "f_of_differences"),
    "second_difference": (ulm, "f_of_second_difference"),
}


@pytest.mark.parametrize("order", ["first", "second"])
def test_python_twin_calls_the_library_steps(order):
    # the Python twin's loop states no law of its own: it calls the
    # library's steps, looked up when the run starts
    config = demo_config()
    config = dataclasses.replace(config, ulm=dataclasses.replace(config.ulm, observer_order=order))
    steps = {
        "observe": (observers, "fts_observer_step"),
        "estimate": (ulm, f"{order}_order_step"),
        "law": (controller, "control_rhs_second_order"),
        "influence": (controller, "influence_gain"),
        **RECONSTRUCTIONS,
    }
    log, calls = _library_calls(config, steps)
    assert (log.n, log.diverged) == (3501, False)
    # the first step takes the initial estimate; the law anchors one step
    # in arrears; the estimator absorbs its first value of F at step 2,
    # which the second order spends priming its difference
    assert calls["observe"].call_count == log.n - 1
    assert calls["estimate"].call_count == log.n - (2 if order == "first" else 3)
    assert calls["law"].call_count == log.n - 1
    assert calls["influence"].call_count == log.n
    # from step 2 on, once for the estimator's F and once for the true F
    assert calls["differences"].call_count == 2 * (log.n - 2)
    assert calls["second_difference"].call_count == 0


def test_python_twin_reconstructs_the_synthetic_f_with_the_library_law():
    # the synthetic plant's law anchors at step k, so F is reconstructed
    # from step 1 on; its true F is the plant's forcing
    config = demo_config()
    config = dataclasses.replace(config, horizon=10.0, plant=SyntheticUlmParams(f_mode="sine"))
    log, calls = _library_calls(config, RECONSTRUCTIONS)
    assert (log.n, log.diverged) == (501, False)
    assert calls["second_difference"].call_count == log.n - 1
    assert calls["differences"].call_count == 0
