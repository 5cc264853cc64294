import copy
import dataclasses
import json
import math
import pickle
import types
import typing

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracle import holder_gain as vector_gain

import mfclab
from mfclab import (
    CSV_HEADER,
    AdaptiveInfluence,
    ControllerConfig,
    ExperimentConfig,
    FixedInfluence,
    HolderGainParams,
    NoiseModel,
    PendulumParams,
    PendulumState,
    RunLog,
    SyntheticUlmParams,
    UlmConfig,
    compute_metrics,
    config_from_dict,
    config_to_dict,
    demo_config,
    plants,
    read_config,
    read_log_csv,
    run_closed_loop,
    write_config,
    write_log_csv,
)
from mfclab.cli import main
from mfclab.core import float_gain, gain_args


def synthetic_config(horizon=10.0, seed=0, f_mode="sine", noise=None):
    return ExperimentConfig(
        plant=SyntheticUlmParams(
            f_mode=f_mode, f_value=0.3, f_period=7.0, y0=0.2, y1=0.15
        ),
        horizon=horizon,
        sample_rate=50.0,
        observer=HolderGainParams(weight=2.1, margin=2.0, exponent=1.4),
        ulm=UlmConfig(margin=1.5, exponent=9.0 / 7.0),
        controller=ControllerConfig(
            margin=1.0,
            exponent=11.0 / 9.0,
            mu=0.35,
            influence_policy=FixedInfluence(2.0),
        ),
        noise=noise,
        seed=seed,
    )


def noisy_config(plant, seed):
    """The demo, or the synthetic plant, with measurement noise on."""
    if plant == "pendulum":
        return demo_config(seed)
    return synthetic_config(seed=seed, noise=NoiseModel(width=0.01))


def _key_paths(d, prefix=()):
    for key, value in d.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _targets(*configs):
    """(config dict, key path) for every key, top-level or nested."""
    return [
        (base, path)
        for base in map(config_to_dict, configs)
        for path in _key_paths(base)
    ]


def _with_value(base, path, value):
    """A copy of the config dict ``base`` with ``value`` at ``path``."""
    d = copy.deepcopy(base)
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return d


CODEC_TARGETS = _targets(demo_config(), synthetic_config(seed=5, noise=NoiseModel(width=0.01)))
# 1 s runs of both plants, so that a fuzzed config that decodes runs quickly
RUN_TARGETS = _targets(
    dataclasses.replace(demo_config(), horizon=1.0),
    synthetic_config(horizon=1.0, seed=5, noise=NoiseModel(width=0.01)),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def _with_numpy_numbers(value):
    """The config dataclass tree ``value`` built again with every float a
    ``np.float64`` and every int a ``np.int64``."""
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return type(value)(**{f.name: _with_numpy_numbers(getattr(value, f.name)) for f in fields})
    if type(value) is float:
        return np.float64(value)
    if type(value) is int:
        return np.int64(value)
    return value


def _dataclasses_reachable(tp, found):
    """``found`` plus the dataclasses reachable from the annotation ``tp``
    through field annotations, in the order met."""
    if dataclasses.is_dataclass(tp):
        if tp not in found:
            found.append(tp)
            for hint in typing.get_type_hints(tp).values():
                _dataclasses_reachable(hint, found)
    else:
        for arg in typing.get_args(tp):
            _dataclasses_reachable(arg, found)
    return found


def _instances(value, found):
    """``found`` plus the first instance of each dataclass in the tree of
    ``value``, by class."""
    if dataclasses.is_dataclass(value):
        found.setdefault(type(value), value)
        for f in dataclasses.fields(value):
            _instances(getattr(value, f.name), found)
    return found


# a valid instance of every dataclass of a config, to vary one field of
SAMPLES = _instances(
    synthetic_config(noise=NoiseModel(width=0.01)), _instances(demo_config(), {})
)
# (class, field) for every field annotated float in the dataclasses
# reachable from ExperimentConfig
FLOAT_FIELDS = [
    (cls, name)
    for cls in _dataclasses_reachable(ExperimentConfig, [])
    for name, hint in typing.get_type_hints(cls).items()
    if hint is float
]
# (class, field) for every field annotated int
INT_FIELDS = [
    (cls, name)
    for cls in _dataclasses_reachable(ExperimentConfig, [])
    for name, hint in typing.get_type_hints(cls).items()
    if hint is int
]
# (class, field, annotation) for every field annotated bool, a dataclass or
# a union of dataclasses: the fields that no number check covers
TYPED_FIELDS = [
    (cls, name, hint)
    for cls in _dataclasses_reachable(ExperimentConfig, [])
    for name, hint in typing.get_type_hints(cls).items()
    if hint is bool or any(map(dataclasses.is_dataclass, typing.get_args(hint) or (hint,)))
]


def _values_of_another_type(hint):
    """Values that the annotation ``hint`` does not admit: numbers, a
    string, a tuple, and a config dataclass of another class."""
    admitted = typing.get_args(hint) or (hint,)
    other = next(value for cls, value in SAMPLES.items() if cls not in admitted)
    values = [0.5, 1, "no", (0.1, 0.2, 0.3, 0.4), other]
    return values if type(None) in admitted else [None, *values]


def test_package_exports_the_modules_public_names():
    modules = (
        mfclab.controller, mfclab.core, mfclab.harness,
        mfclab.observers, mfclab.plants, mfclab.ulm,
    )
    public = {
        name
        for name, value in vars(mfclab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set().union(*(m.__all__ for m in modules))


def test_public_api_is_pinned():
    # a public name added or dropped shows here, in review
    assert sorted(mfclab.__all__) == [
        "AdaptiveInfluence", "BACKEND", "BumpNoiseStream", "CSV_HEADER", "ControllerConfig",
        "DivergenceError", "ExperimentConfig", "FIRST_ORDER", "FixedInfluence",
        "HolderGainParams", "NoiseModel", "PendulumParams", "PendulumState", "RunLog",
        "RunMetrics", "SECOND_ORDER", "SyntheticUlmParams", "UlmConfig",
        "compute_metrics", "config_from_dict", "config_to_dict",
        "control_rhs_second_order", "demo_config", "f_of_differences",
        "f_of_second_difference", "first_order_step", "float_gain", "fts_observer_step",
        "gain_args", "influence_gain", "read_config", "read_log_csv", "run_closed_loop",
        "second_order_step", "synthetic_ulm_plant_step", "write_config", "write_log_csv",
    ]


class TestExperimentConfig:
    def test_demo_matches_published_constants(self):
        cfg = demo_config()
        assert cfg.horizon == 70.0
        assert cfg.sample_rate == 50.0
        assert cfg.observer.weight == 2.1
        assert cfg.observer.margin == 2.0
        assert cfg.observer.exponent == pytest.approx(1.4)
        assert cfg.ulm.margin == 1.5
        assert cfg.ulm.exponent == pytest.approx(9.0 / 7.0)
        assert cfg.controller.margin == 1.0
        assert cfg.controller.exponent == pytest.approx(11.0 / 9.0)
        assert cfg.controller.mu == 0.35
        assert cfg.controller.influence_policy == AdaptiveInfluence(1.5)
        assert cfg.noise == NoiseModel(width=0.018)
        assert cfg.plant.initial == PendulumState(0.45, -0.14, -0.3, 0.05)
        assert cfg.plant.theta_estimate == 0.102

    def test_separation_ordering_enforced(self):
        bad_ctl = ControllerConfig(
            margin=2.5,
            exponent=11.0 / 9.0,
            mu=0.35,
            influence_policy=AdaptiveInfluence(1.5),
        )
        with pytest.raises(ValueError, match="separation"):
            dataclasses.replace(demo_config(), controller=bad_ctl)
        with pytest.warns(UserWarning, match="separation"):
            dataclasses.replace(
                demo_config(), controller=bad_ctl, allow_unseparated_gains=True
            )

    def test_gains_built_once_and_kept_by_copies(self):
        cfg = demo_config()
        for owner in (cfg.ulm, cfg.controller):
            assert owner.gain is owner.gain
            for dup in (pickle.loads(pickle.dumps(owner)), copy.deepcopy(owner)):
                assert (dup, hash(dup), dup.gain) == (owner, hash(owner), owner.gain)
        moved = dataclasses.replace(cfg.ulm, margin=1.2)
        assert moved.gain.margin == 1.2

    def test_horizon_and_rate_validation(self):
        with pytest.raises(ValueError):
            dataclasses.replace(demo_config(), horizon=-1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(demo_config(), sample_rate=0.0)

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"horizon": math.inf}, "horizon must be finite"),
            ({"horizon": math.nan}, "horizon must be finite"),
            ({"sample_rate": math.inf}, "sample_rate must be finite"),
            ({"horizon": 1e308}, "overflows"),
            ({"horizon": 10**400}, "horizon must be finite"),
            ({"horizon": 10**5000}, "horizon must be finite"),
            ({"horizon": -(10**5000)}, "horizon must be non-negative"),
            ({"seed": -(10**5000)}, "seed must be non-negative"),
        ],
        ids=[
            "horizon-inf",
            "horizon-nan",
            "rate-inf",
            "record-count-overflow",
            "horizon-int-1e400",
            "horizon-int-1e5000",
            "horizon-int--1e5000",
            "seed-int--1e5000",
        ],
    )
    def test_non_finite_horizon_and_rate_rejected(self, changes, match):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(demo_config(), **changes)

    @pytest.mark.parametrize(
        "cls, name", FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS]
    )
    @pytest.mark.parametrize(
        "value",
        ["1.5", 10**400, 10**5000, math.nan, (1.5,), True],
        ids=["str", "int-1e400", "int-1e5000", "nan", "tuple", "bool"],
    )
    def test_float_field_rejects_what_is_no_finite_number(self, cls, name, value):
        with pytest.raises(ValueError, match=f"^{name} must "):
            dataclasses.replace(SAMPLES[cls], **{name: value})

    @pytest.mark.parametrize(
        "cls, name", INT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in INT_FIELDS]
    )
    @pytest.mark.parametrize(
        "value", ["1", 2.0, True, math.nan], ids=["str", "float", "bool", "nan"]
    )
    def test_int_field_rejects_what_is_no_integer(self, cls, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            dataclasses.replace(SAMPLES[cls], **{name: value})

    @pytest.mark.parametrize(
        "cls, name, value",
        [
            pytest.param(cls, name, v, id=f"{cls.__name__}.{name}-{type(v).__name__}")
            for cls, name, hint in TYPED_FIELDS
            for v in _values_of_another_type(hint)
        ],
    )
    def test_typed_field_rejects_another_type(self, cls, name, value):
        # at construction, naming the field, as the decoder does for a file
        with pytest.raises(ValueError, match=f"^{name} must be a "):
            dataclasses.replace(SAMPLES[cls], **{name: value})

    def test_typed_fields_found(self):
        names = {f"{cls.__name__}.{name}" for cls, name, _ in TYPED_FIELDS}
        assert names == {
            "ExperimentConfig.plant",
            "ExperimentConfig.observer",
            "ExperimentConfig.ulm",
            "ExperimentConfig.controller",
            "ExperimentConfig.noise",
            "ExperimentConfig.allow_unseparated_gains",
            "PendulumParams.initial",
            "ControllerConfig.influence_policy",
        }

    def test_allow_unseparated_gains_must_be_a_boolean(self):
        # a truthy string would turn the separation error into a warning
        message = "allow_unseparated_gains must be a boolean, got 'no'"
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(demo_config(), allow_unseparated_gains="no")

    def test_int_fields_found(self):
        names = {f"{cls.__name__}.{name}" for cls, name in INT_FIELDS}
        assert names == {"ExperimentConfig.seed"}

    def test_number_fields_hold_python_numbers(self):
        # a config built from numpy numbers stores int and float
        config = _with_numpy_numbers(demo_config(seed=3))
        assert config == demo_config(seed=3)
        for obj in _instances(config, {}).values():
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if not dataclasses.is_dataclass(value):
                    assert type(value) in (float, int, bool, str, type(None)), f.name

    @pytest.mark.parametrize(
        "bias", [math.nan, math.inf, 10**400, True], ids=["nan", "inf", "int-1e400", "bool"]
    )
    def test_non_finite_f_hat_bias_rejected(self, bias):
        config = dataclasses.replace(demo_config(), horizon=1.0)
        with pytest.raises(ValueError, match="^f_hat_bias must be finite, got "):
            run_closed_loop(config, f_hat_bias=bias)

    def test_float_fields_found(self):
        names = {f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS}
        assert names >= {
            "ExperimentConfig.horizon",
            "HolderGainParams.margin",
            "ControllerConfig.mu",
            "ControllerConfig.exponent",
            "UlmConfig.margin",
            "PendulumParams.theta_estimate",
            "AdaptiveInfluence.base",
            "PendulumState.theta_dot",
            "SyntheticUlmParams.f_value",
        }


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "config",
        [demo_config(seed=3), synthetic_config(seed=5, noise=NoiseModel(width=0.01))],
        ids=["demo", "synthetic"],
    )
    def test_each_float_field_is_checked_once(self, config, monkeypatch):
        """Decoding a config checks each float field of its tree once: no
        constructor checks a value that another has checked."""
        checked = []
        check_finite = mfclab.core.check_finite

        def counting(name, *args):
            checked.append(name)
            return check_finite(name, *args)

        monkeypatch.setattr(mfclab.core, "check_finite", counting)
        assert config_from_dict(config_to_dict(config)) == config
        floats = [
            name
            for obj in _instances(config, {}).values()
            for name, hint in typing.get_type_hints(type(obj)).items()
            if hint is float
        ]
        assert sorted(checked) == sorted(floats)

    def test_demo_round_trip(self, tmp_path):
        cfg = demo_config(seed=3)
        path = tmp_path / "config.json"
        write_config(cfg, path)
        assert read_config(path) == cfg

    def test_synthetic_round_trip(self, tmp_path):
        cfg = synthetic_config(seed=5, noise=NoiseModel(width=0.01))
        path = tmp_path / "config.json"
        write_config(cfg, path)
        assert read_config(path) == cfg

    def test_numpy_numbers_round_trip(self, tmp_path):
        cfg = dataclasses.replace(
            demo_config(),
            seed=np.int64(3),
            horizon=np.int64(70),
            noise=NoiseModel(width=np.float32(0.018)),
        )
        path = tmp_path / "config.json"
        write_config(cfg, path)
        assert read_config(path) == cfg

    @pytest.mark.parametrize("config", [demo_config(), synthetic_config()], ids=["demo", "synthetic"])
    def test_equal_configs_hash_equal(self, config):
        # a config is a tree of frozen dataclasses of numbers: it keys a dict
        decoded = config_from_dict(config_to_dict(config))
        assert decoded == config and hash(decoded) == hash(config)
        assert {config: "run"}[decoded] == "run"

    def test_unknown_top_level_key_rejected(self):
        d = config_to_dict(demo_config())
        d["extra"] = 1
        with pytest.raises(ValueError, match="extra"):
            config_from_dict(d)

    def test_unknown_nested_key_rejected(self):
        d = config_to_dict(demo_config())
        d["observer"]["typo"] = 1
        with pytest.raises(ValueError, match="typo"):
            config_from_dict(d)
        d = config_to_dict(demo_config())
        d["plant"]["bogus"] = 2.0
        with pytest.raises(ValueError, match="bogus"):
            config_from_dict(d)

    def test_missing_key_reported(self):
        d = config_to_dict(demo_config())
        del d["observer"]["margin"]
        with pytest.raises(ValueError, match="margin"):
            config_from_dict(d)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON"):
            read_config(path)

    @settings(max_examples=300, deadline=None)
    @given(target=st.sampled_from(CODEC_TARGETS), value=JSON_VALUES)
    def test_any_json_value_decodes_or_raises_value_error(self, target, value):
        try:
            config = config_from_dict(_with_value(*target, value))
        except ValueError:
            return
        assert isinstance(config, ExperimentConfig)

    # small numbers as well, so that about one fuzzed config in ten decodes
    @settings(max_examples=200, deadline=None)
    @given(target=st.sampled_from(RUN_TARGETS), value=st.floats(-3.0, 3.0) | JSON_VALUES)
    def test_any_json_value_runs_through_main(self, target, value, tmp_path_factory):
        d = _with_value(*target, value)
        try:
            config = config_from_dict(d)
        except ValueError:
            exits = (1,)
        else:
            assume(config.horizon * config.sample_rate <= 100)
            exits = (0, 1, 2)
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert main(["run", str(path)]) in exits

    def test_omitted_noise_decodes_to_none_and_runs(self):
        d = config_to_dict(dataclasses.replace(demo_config(), horizon=1.0))
        del d["noise"]
        config = config_from_dict(d)
        assert config.noise is None
        log = run_closed_loop(config)
        assert (log.n, log.diverged) == (51, False)
        np.testing.assert_array_equal(log.y_meas, log.y_true)


class TestRunClosedLoop:
    def test_zero_horizon_empty_log(self):
        log = run_closed_loop(dataclasses.replace(demo_config(), horizon=0.0))
        assert log.n == 0
        assert not log.diverged

    def test_record_count(self):
        log = run_closed_loop(dataclasses.replace(demo_config(), horizon=2.0))
        assert log.n == 2 * 50 + 1

    def test_deterministic_given_seed(self):
        cfg = dataclasses.replace(demo_config(seed=11), horizon=2.0)
        a = run_closed_loop(cfg)
        b = run_closed_loop(cfg)
        for name in ("y_true", "y_meas", "y_hat", "e", "u", "s", "f_hat", "g"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_seed_changes_noise(self):
        base = dataclasses.replace(demo_config(seed=0), horizon=1.0)
        other = dataclasses.replace(base, seed=1)
        a, b = run_closed_loop(base), run_closed_loop(other)
        assert not np.array_equal(a.y_meas, b.y_meas)

    @pytest.mark.parametrize("rate", [5.0, 50.0])
    @pytest.mark.parametrize("plant", ["pendulum", "synthetic"])
    def test_longer_run_extends_shorter(self, kernels, monkeypatch, plant, rate):
        # everything logged at step k uses information available at k, so a
        # longer horizon must reproduce the shorter run as its prefix, value
        # for value, on either kernel twin
        monkeypatch.setattr(plants, "kernels", kernels)
        plants._theta_samples.cache_clear()  # this twin computes the references
        base = dataclasses.replace(noisy_config(plant, seed=5), sample_rate=rate)
        short, long = (run_closed_loop(dataclasses.replace(base, horizon=h)) for h in (7.0, 20.0))
        assert (short.n, long.n) == (7 * rate + 1, 20 * rate + 1)
        assert not short.diverged and not long.diverged
        assert (long.rows[: short.n] == short.rows).all()

    def test_observer_initialization_error(self):
        log = run_closed_loop(
            dataclasses.replace(demo_config(), horizon=1.0, noise=None)
        )
        # initial estimate 0.102 against the true initial output -0.14
        assert log.e_o[0] == pytest.approx(0.242)
        assert log.y_hat[0] == pytest.approx(0.102)
        assert abs(log.e_o[20]) < abs(log.e_o[0])

    @pytest.mark.parametrize(
        "config, kwargs, rows",
        [
            pytest.param(
                dataclasses.replace(
                    demo_config(),
                    horizon=1.0,
                    noise=None,
                    controller=ControllerConfig(
                        margin=1.0,
                        exponent=11.0 / 9.0,
                        mu=0.35,
                        influence_policy=FixedInfluence(1e-300),
                    ),
                ),
                {},
                2,
                id="pendulum-tiny-influence",
            ),
            pytest.param(
                dataclasses.replace(
                    demo_config(),
                    horizon=1.0,
                    noise=None,
                    controller=ControllerConfig(
                        margin=1.0,
                        exponent=11.0 / 9.0,
                        mu=0.35,
                        influence_policy=FixedInfluence(1e-5),
                    ),
                ),
                {},
                37,
                # inputs of ~1e7 N, finite, until RK4 leaves the doubles: the
                # Python twin raises in cos(inf), the C twin gets a NaN state
                id="pendulum-truth-diverges",
            ),
            pytest.param(
                dataclasses.replace(
                    demo_config(), horizon=1.0, plant=PendulumParams(theta_estimate=1e200)
                ),
                {},
                1,
                id="pendulum-huge-estimate",
            ),
            pytest.param(
                dataclasses.replace(
                    demo_config(),
                    horizon=1.0,
                    plant=PendulumParams(initial=PendulumState(theta=0.1, theta_dot=1e5)),
                ),
                {},
                0,
                id="pendulum-reference-diverges",
            ),
            pytest.param(
                dataclasses.replace(
                    synthetic_config(horizon=1.0),
                    plant=SyntheticUlmParams(f_mode="constant", f_value=1e300),
                ),
                {},
                1,
                id="synthetic-huge-forcing",
            ),
            pytest.param(
                dataclasses.replace(
                    synthetic_config(horizon=1.0), plant=SyntheticUlmParams(y1=1e308)
                ),
                {},
                0,
                id="synthetic-huge-output",
            ),
            pytest.param(
                dataclasses.replace(
                    synthetic_config(horizon=1.0),
                    plant=SyntheticUlmParams(f_mode="constant", f_value=-1e308),
                ),
                {"f_hat_bias": 1e308},
                0,
                # a finite input whose effect overflows the plant's next
                # output: the failed advance after step 0 keeps k + lag rows
                id="synthetic-plant-overflows",
            ),
        ],
    )
    def test_divergence_truncates_and_flags(self, kernels, monkeypatch, config, kwargs, rows):
        monkeypatch.setattr(plants, "kernels", kernels)
        plants._theta_samples.cache_clear()  # this twin computes the reference
        log = run_closed_loop(config, **kwargs)
        assert log.diverged
        assert log.n == rows

    def test_synthetic_noiseless_observer_is_exact(self):
        log = run_closed_loop(synthetic_config(horizon=5.0))
        np.testing.assert_array_equal(log.y_hat, log.y_meas)
        np.testing.assert_array_equal(log.e_o, np.zeros(log.n))

    def test_synthetic_oracle_follows_ideal_recursion(self):
        cfg = synthetic_config(horizon=20.0)
        log = run_closed_loop(cfg, oracle_f=True)
        gain = float_gain(*gain_args(cfg.controller.gain))
        for k in range(log.n - 1):
            ideal = gain(log.s[k]) * log.s[k]
            assert log.s[k + 1] == pytest.approx(
                ideal, abs=1e-10 * max(1.0, abs(log.s[k]))
            )

    def test_synthetic_zero_forcing(self):
        log = run_closed_loop(synthetic_config(horizon=2.0, f_mode="zero"))
        assert (log.n, log.diverged) == (101, False)
        np.testing.assert_array_equal(log.f_true, np.zeros(log.n))

    def test_synthetic_estimator_tracks_constant_forcing(self):
        cfg = dataclasses.replace(
            synthetic_config(horizon=30.0, f_mode="constant"),
            plant=SyntheticUlmParams(f_mode="constant", f_value=0.4, y0=0.2, y1=0.15),
        )
        log = run_closed_loop(cfg)
        assert abs(log.e_f[-1]) < 1e-4
        assert abs(log.e[-1]) < 1e-3

    def test_wall_time_recorded(self):
        log = run_closed_loop(dataclasses.replace(demo_config(), horizon=0.5))
        assert log.meta["wall_time_s"] > 0.0
        assert log.meta["backend"] in ("compiled", "python")

    def test_noisy_steady_state_observer_error_report(self):
        # empirical report: with bump noise of amplitude a = width/2 the
        # steady errors against measurement and truth stay within 2a
        cfg = dataclasses.replace(demo_config(seed=13), horizon=5.0)
        log = run_closed_loop(cfg)
        amplitude = cfg.noise.width / 2.0
        steady = log.t >= 2.0
        worst_meas = float(np.max(np.abs(log.e_o[steady])))
        worst_truth = float(np.max(np.abs(log.y_hat[steady] - log.y_true[steady])))
        print(
            f"steady observer error: vs measurement {worst_meas:.2e}, "
            f"vs truth {worst_truth:.2e}, noise amplitude {amplitude:.2e}"
        )
        assert worst_meas <= 2.0 * amplitude
        assert worst_truth <= 2.0 * amplitude


def _csv_bytes(log, tmp_path):
    path = tmp_path / "log.csv"
    write_log_csv(log, path)
    return path.read_bytes()


class TestReferenceMemo:
    """Runs that share a pendulum reference compute it once, and the memo
    never changes a log byte."""

    BASE = dataclasses.replace(demo_config(seed=0), horizon=2.0)

    @pytest.mark.parametrize(
        "changes, kwargs",
        [
            ({"seed": 1}, {}),
            ({"noise": None}, {}),
            ({}, {"oracle_f": True}),
            ({}, {"f_hat_bias": 0.05}),
            ({"plant": PendulumParams(theta_estimate=-0.3)}, {}),
        ],
        ids=["seed", "noise-off", "oracle", "bias", "theta-estimate"],
    )
    def test_shared_reference_computed_once(self, changes, kwargs, monkeypatch, tmp_path):
        calls = []
        reference = plants.kernels.reference

        def counting(out, *args):
            calls.append(len(out))
            return reference(out, *args)

        monkeypatch.setattr(plants.kernels, "reference", counting)
        config = dataclasses.replace(self.BASE, **changes)
        plants._theta_samples.cache_clear()
        cold = _csv_bytes(run_closed_loop(config, **kwargs), tmp_path)
        # one kernel call, for a reference one sample past the last logged row
        assert calls == [self.BASE.n_records + 1]
        plants._theta_samples.cache_clear()
        run_closed_loop(self.BASE)
        calls.clear()
        warm = _csv_bytes(run_closed_loop(config, **kwargs), tmp_path)
        assert calls == []
        assert warm == cold

    @pytest.mark.parametrize(
        "a, b",
        [
            (
                {"plant": PendulumParams(initial=PendulumState(theta=-0.0))},
                {"plant": PendulumParams(initial=PendulumState(theta=0.0))},
            ),
            (
                {"plant": PendulumParams(cart_mass=2, gravity=10)},
                {"plant": PendulumParams(cart_mass=2.0, gravity=10.0)},
            ),
        ],
        ids=["signed-zero", "int-float"],
    )
    @pytest.mark.parametrize("order", ["a-first", "b-first"])
    def test_equal_but_unlike_configs_keep_their_bytes(self, a, b, order, tmp_path):
        configs = [dataclasses.replace(self.BASE, **changes) for changes in (a, b)]
        if order == "b-first":
            configs.reverse()
        cold = []
        for config in configs:
            plants._theta_samples.cache_clear()
            cold.append(_csv_bytes(run_closed_loop(config), tmp_path))
        plants._theta_samples.cache_clear()
        assert [_csv_bytes(run_closed_loop(c), tmp_path) for c in configs] == cold


def _same_float(a, b):
    """Equal bit for bit up to the NaN payload: NaN matches NaN, and zeros
    match only with the same sign."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308]
)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


class TestFloatGain:
    """The float gain, on the arguments the harness passes to ``run_loop``,
    against the numpy gain of ``oracle`` on a 1-vector."""

    @settings(max_examples=1000, deadline=None)
    @given(
        e=st.floats(allow_subnormal=True) | EDGE_FLOATS,
        weight=POSITIVE,
        margin=POSITIVE,
        exponent=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
    )
    def test_matches_holder_gain_bit_for_bit(self, e, weight, margin, exponent):
        params = HolderGainParams(weight=weight, margin=margin, exponent=exponent)
        with np.errstate(all="ignore"):
            expected = vector_gain(np.array([e]), params)
        assert _same_float(float_gain(*gain_args(params))(e), expected)


class TestMetrics:
    def test_all_zero_log(self):
        n = 11
        rows = np.zeros((n, 13))
        rows[:, 0] = np.arange(n) * 0.1
        log = RunLog(rows)
        m = compute_metrics(log, 0.5)
        assert m.max_abs_e == 0.0
        assert m.rms_e == 0.0
        assert m.max_abs_e_o == 0.0
        assert m.rms_u == 0.0
        assert m.first_step_e_o_below == 0
        assert m.first_step_e_f_below == 0

    @pytest.mark.parametrize(
        "top, rms", [(1e150, math.sqrt(1e150 * 1e150 / 2)), (1e300, 1e300 * math.sqrt(0.5))]
    )
    def test_rms_is_finite_where_the_mean_square_overflows(self, top, rms, recwarn):
        """Where the mean square is finite, the RMS is its root; where it
        overflows, the RMS of the scaled values times the scale, with no
        warning."""
        rows = np.zeros((2, 13))
        rows[:, 0] = (0.0, 0.1)
        rows[:, 5] = rows[:, 11] = (0.0, top)  # e and u
        m = compute_metrics(RunLog(rows), 0.0)
        assert m.rms_e == m.rms_u == rms
        assert not recwarn.list

    def test_cutoff_beyond_horizon_rejected(self):
        log = run_closed_loop(dataclasses.replace(demo_config(), horizon=1.0))
        with pytest.raises(ValueError, match="cutoff"):
            compute_metrics(log, 2.0)

    def test_empty_log_rejected(self):
        log = run_closed_loop(dataclasses.replace(demo_config(), horizon=0.0))
        with pytest.raises(ValueError, match="empty"):
            compute_metrics(log, 0.0)

    @pytest.mark.parametrize(
        "cutoff, shown",
        [
            ("1", "'1'"),
            (None, "None"),
            (True, "True"),
            (math.nan, "nan"),
            (10**400, "an int too large for a float"),
            (-(10**400), "an int too large for a float"),
            (np.array([0.1, 0.2]), r"\[0.1 0.2\]"),
        ],
        ids=["str", "none", "bool", "nan", "int-1e400", "int--1e400", "array"],
    )
    def test_cutoff_that_is_no_number_rejected(self, cutoff, shown):
        rows = np.zeros((11, 13))
        rows[:, 0] = np.arange(11) * 0.1
        with pytest.raises(ValueError, match=f"^cutoff must be a number of seconds, got {shown}$"):
            compute_metrics(RunLog(rows), cutoff)

    def test_cutoff_masks_transient(self):
        log = run_closed_loop(dataclasses.replace(demo_config(seed=2), horizon=3.0))
        early = compute_metrics(log, 0.0)
        late = compute_metrics(log, 2.0)
        assert late.max_abs_e <= early.max_abs_e


class TestCsvLog:
    def test_header_and_row_count(self, tmp_path):
        cfg = dataclasses.replace(demo_config(), horizon=1.0)
        log = run_closed_loop(cfg)
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + int(1.0 * 50.0) + 1

    def test_byte_identical_given_seed(self, tmp_path):
        cfg = dataclasses.replace(demo_config(seed=21), horizon=1.5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_log_csv(run_closed_loop(cfg), p1)
        write_log_csv(run_closed_loop(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_values(self, tmp_path):
        log = run_closed_loop(dataclasses.replace(demo_config(), horizon=1.0))
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        back = read_log_csv(path)
        for name in ("t", "y_true", "y_meas", "e", "u", "s", "g"):
            np.testing.assert_array_equal(getattr(back, name), getattr(log, name))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_log_csv(path)
