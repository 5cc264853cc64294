"""Hypothesis strategy of closed-loop runs for the loop tests.

``loop_runs()`` draws ``(config, oracle_f, f_hat_bias)``: both plants,
first- and second-order ULM, fixed and adaptive influences, the oracle on
and off, a bias, noise off and on (seeds 0-20), and inputs that diverge.
A run has at most ``max_steps + 1`` rows.  ``explicit_examples`` adds an
explicit example of each way a run diverges, ``seed_width_examples`` one
noisy run per width of seed.
"""

import dataclasses

from hypothesis import example
from hypothesis import strategies as st

from mfclab import (
    AdaptiveInfluence,
    ControllerConfig,
    ExperimentConfig,
    FixedInfluence,
    HolderGainParams,
    NoiseModel,
    PendulumParams,
    PendulumState,
    SyntheticUlmParams,
    UlmConfig,
    demo_config,
)


def _between(lo, hi):
    return st.floats(lo, hi)


@st.composite
def _or_rarely(draw, common, *rare):
    """A draw of ``common``, or about one time in eight one of the ``rare``
    values."""
    if draw(st.sampled_from(range(8))) == 7:
        return draw(st.sampled_from(rare))
    return draw(common)


@st.composite
def _pendulum(draw):
    # a fast initial swing sends the reference non-finite: no row survives
    truth = _or_rarely(
        st.builds(
            PendulumState,
            x=_between(-1.0, 1.0),
            theta=_between(-0.5, 0.5),
            x_dot=_between(-1.0, 1.0),
            theta_dot=_between(-1.0, 1.0),
        ),
        PendulumState(theta=0.1, theta_dot=1e5),
    )
    # a huge estimate makes the first input non-finite
    estimate = _or_rarely(_between(-0.5, 0.5), 1e200)
    return PendulumParams(initial=draw(truth), theta_estimate=draw(estimate))


@st.composite
def _synthetic(draw):
    return SyntheticUlmParams(
        f_mode=draw(st.sampled_from(["zero", "constant", "sine"])),
        # a huge forcing overflows the law or the plant
        f_value=draw(_or_rarely(_between(-1.0, 1.0), 1e300)),
        f_period=draw(_between(0.5, 5.0)),
        y0=draw(_between(-1.0, 1.0)),
        # a huge output overflows the first advance
        y1=draw(_or_rarely(_between(-1.0, 1.0), 1e308)),
        desired_mode=draw(st.sampled_from(["zero", "sine"])),
        desired_amplitude=draw(_between(-1.0, 1.0)),
        desired_period=draw(_between(1.0, 10.0)),
    )


@st.composite
def _influence(draw):
    kind = draw(st.sampled_from(["adaptive", "fixed"]))
    if kind == "adaptive":
        return AdaptiveInfluence(draw(_between(0.1, 5.0)))
    # a tiny influence gives a huge input: the pendulum's truth diverges
    value = draw(_or_rarely(_between(0.2, 5.0) | _between(-5.0, -0.2), 1e-5, 1e-300))
    return FixedInfluence(value)


@st.composite
def loop_runs(draw, max_steps=200):
    rate = draw(st.sampled_from([5.0, 10.0, 20.0, 50.0]))
    steps = draw(st.integers(0, max_steps))
    plant = draw(st.one_of(_pendulum(), _synthetic()))
    observer = HolderGainParams(
        weight=draw(_between(0.5, 5.0)),
        margin=draw(_between(1.0, 3.0)),
        exponent=draw(_between(1.2, 1.9)),
    )
    # the controller's margin and exponent lie below the observer's
    controller = ControllerConfig(
        margin=draw(st.floats(0.1, observer.margin, exclude_max=True)),
        exponent=draw(st.floats(1.05, observer.exponent, exclude_max=True)),
        mu=draw(_between(0.05, 0.9)),
        influence_policy=draw(_influence()),
    )
    ulm = UlmConfig(
        margin=draw(_between(0.5, 3.0)),
        exponent=draw(_between(1.1, 1.9)),
        observer_order=draw(st.sampled_from(["first", "second"])),
    )
    width = draw(_between(0.001, 0.1))
    noise = draw(st.sampled_from([None, NoiseModel(width)]))
    config = ExperimentConfig(
        plant=plant,
        horizon=steps / rate,
        sample_rate=rate,
        observer=observer,
        ulm=ulm,
        controller=controller,
        noise=noise,
        seed=draw(st.integers(0, 20)),
    )
    f_hat_bias = draw(st.just(0.0) | _between(-1.0, 1.0))
    return config, draw(st.booleans()), f_hat_bias


def _demo(**changes):
    return dataclasses.replace(demo_config(), horizon=1.0, noise=None, **changes)


def _fixed(value):
    return dataclasses.replace(demo_config().controller, influence_policy=FixedInfluence(value))


# (config, oracle_f, f_hat_bias) of runs that diverge, each another way
DIVERGING_RUNS = (
    # finite inputs send the pendulum's RK4 non-finite after 37 rows
    (_demo(controller=_fixed(1e-5)), False, 0.0),
    # a non-finite input at step 1
    (_demo(plant=PendulumParams(theta_estimate=1e200)), False, 0.0),
    # the reference
    (_demo(plant=PendulumParams(initial=PendulumState(theta=0.1, theta_dot=1e5))), False, 0.0),
    # the synthetic plant's error overflows the law at step 1
    (_demo(plant=SyntheticUlmParams(f_mode="constant", f_value=1e300)), False, 0.0),
    # a finite input overflows the synthetic plant at step 0
    (_demo(plant=SyntheticUlmParams(f_mode="constant", f_value=-1e308)), False, 1e308),
)


def explicit_examples(test):
    """``test`` with an explicit example of each way a run diverges."""
    for run in DIVERGING_RUNS:
        test = example(run=run)(test)
    return test


# seeds that numpy's SeedSequence splits into 1, 2, 3, 4, 5, 5 and 104
# 32-bit words: from 5 words on, the words past the fourth are mixed into
# the pool one by one
SEEDS_OF_EVERY_WIDTH = (
    2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 10**40, int("1234567890" * 100),
)

# (config, oracle_f, f_hat_bias) of a noisy demo run per seed
SEED_WIDTH_RUNS = tuple(
    (dataclasses.replace(demo_config(seed), horizon=2.0), False, 0.0)
    for seed in SEEDS_OF_EVERY_WIDTH
)


def seed_width_examples(test):
    """``test`` with an explicit example of a noisy run per width of seed."""
    for run in SEED_WIDTH_RUNS:
        test = example(run=run)(test)
    return test
