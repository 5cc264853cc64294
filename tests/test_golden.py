"""Golden digests: the SHA-256 of the CSV bytes of six fixed runs.

The values were measured once and pin the log bytes across refactors of
the loop; a change that moves any of them changes behaviour.  Never
regenerate a value to make a change pass.
"""

import copy
import dataclasses
import hashlib

import pytest

from mfclab import (
    FIRST_ORDER,
    SECOND_ORDER,
    FixedInfluence,
    HolderGainParams,
    SyntheticUlmParams,
    config_from_dict,
    config_to_dict,
    demo_config,
    plants,
    run_closed_loop,
    write_log_csv,
)

DEMO = demo_config()


def _synthetic_sine(horizon, seed):
    return dataclasses.replace(
        DEMO,
        plant=SyntheticUlmParams(
            f_mode="sine",
            f_value=0.5,
            f_period=2.0,
            desired_mode="sine",
            desired_amplitude=1.0,
            desired_period=5.0,
        ),
        ulm=dataclasses.replace(DEMO.ulm, observer_order="second"),
        horizon=horizon,
        seed=seed,
    )


def _fixed(value):
    return dataclasses.replace(DEMO.controller, influence_policy=FixedInfluence(value))


# id -> (config, run_closed_loop keywords, rows, diverged, SHA-256 of the CSV)
GOLDEN = {
    "demo-seed0": (
        demo_config(0), {}, 3501, False,
        "3274696dd70e609949b029016448b4c282d20038f0a0f3948b4251e80812eb32",
    ),
    "synthetic-sine-second-order-noisy": (
        _synthetic_sine(20.0, 3), {}, 1001, False,
        "dde7d3e001f439de6b107e27608731323e4542528ec94a99f2f98b7ee0fcf4ad",
    ),
    "demo-20hz-fixed-influence": (
        dataclasses.replace(
            demo_config(1),
            sample_rate=20.0,
            horizon=10.0,
            observer=HolderGainParams(weight=2.1, margin=2.0, exponent=1.4),
            controller=_fixed(1.5),
        ),
        {}, 201, False,
        "d57d7603a63cd351f566591b9dd052bd3939c3bd7c8c25f107e3850760f07d0f",
    ),
    "synthetic-sine-oracle-biased": (
        _synthetic_sine(10.0, 3), {"oracle_f": True, "f_hat_bias": 0.05}, 501, False,
        "bf9e96c386f7f689e685b3d1b4233a7de010bc8e0418171eeee55e1449ca4785",
    ),
    "synthetic-constant-first-order-clean": (
        dataclasses.replace(
            DEMO,
            plant=SyntheticUlmParams(f_mode="constant", f_value=0.3, y0=0.2, y1=0.1),
            noise=None,
            horizon=10.0,
        ),
        {}, 501, False,
        "6aee4091daa8d6f41957332015de1a1d871cff22e45ab4ca27c77e4a2b7d57e3",
    ),
    "demo-diverging-input": (
        dataclasses.replace(DEMO, horizon=1.0, noise=None, controller=_fixed(1e-300)),
        {}, 2, True,
        "d7abb41a2b10ce71a2286fc8e6720510af3ce84a82b13537196590b3653ee7fc",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_log_bytes_pinned(name, tmp_path):
    # run cold, then warm on the reference the cold run left in the memo
    config, kwargs, rows, diverged, expected = GOLDEN[name]
    plants._theta_samples.cache_clear()
    for _ in ("cold", "warm"):
        log = run_closed_loop(config, **kwargs)
        assert (log.n, log.diverged) == (rows, diverged)
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


@pytest.mark.parametrize("name", list(GOLDEN))
def test_log_bytes_pinned_on_compiled_kernels(name, compiled_kernels, monkeypatch, tmp_path):
    monkeypatch.setattr(plants, "kernels", compiled_kernels)
    test_log_bytes_pinned(name, tmp_path)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_log_bytes_pinned_on_a_contracting_build(name, contracting_kernels, monkeypatch, tmp_path):
    # the same bytes whatever the build flags: _kernels.c forbids the
    # contraction of a*b + c into a fused multiply-add itself
    monkeypatch.setattr(plants, "kernels", contracting_kernels)
    test_log_bytes_pinned(name, tmp_path)


def _leaf_paths(d, prefix=()):
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


def _with(d, key, value):
    """A copy of the config dict ``d`` with ``value`` at the path ``key``."""
    d = copy.deepcopy(d)
    parent = d
    for name in key[:-1]:
        parent = parent[name]
    parent[key[-1]] = value
    return d


def _other_values(value):
    """Values other than the leaf ``value`` of a config dict, in the order
    tried; those the constructors reject are skipped."""
    if value is None:
        return [5]
    if isinstance(value, str):  # the modes and the observer orders
        return [v for v in ("zero", "constant", "sine", FIRST_ORDER, SECOND_ORDER) if v != value]
    if type(value) is int:
        return [value + 1]
    return [value * 1.1 + 0.01, value * 0.9 - 0.01]


@pytest.mark.parametrize(
    "config",
    [dataclasses.replace(DEMO, horizon=2.0), GOLDEN["synthetic-sine-second-order-noisy"][0]],
    ids=["demo-2s", "synthetic-sine"],
)
def test_every_key_is_read(config, tmp_path):
    # a key whose every other accepted value leaves the log's bytes as they
    # are is no fact of the run.  Exempt: "kind", which picks the class of
    # the object it is in, not a value, and allow_unseparated_gains, a
    # policy on which configs construct, read before any run
    path = tmp_path / "log.csv"

    def log_bytes(config):
        write_log_csv(run_closed_loop(config), path)
        return path.read_bytes()

    base = config_to_dict(config)
    expected = log_bytes(config)
    unread = []
    for key in _leaf_paths(base):
        if key[-1] in ("kind", "allow_unseparated_gains"):
            continue
        leaf = base
        for name in key:
            leaf = leaf[name]
        for value in _other_values(leaf):
            try:
                changed = config_from_dict(_with(base, key, value))
            except ValueError:
                continue
            if log_bytes(changed) != expected:
                break
        else:
            unread.append(".".join(key))
    assert unread == []
