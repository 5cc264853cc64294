"""Closed-loop experiment runner, configuration and log formats, metrics.

One run wires measurement noise -> output observer -> ultra-local-model
estimator -> tracking controller -> plant and records every per-step
quantity.  Runs are deterministic given the configuration and seed.

The kernel backend's ``run_loop`` steps one loop for both plants, which
differ in where the law anchors:

* cart-pendulum: only the current measurement exists at decision time, so
  the tracking law is evaluated one step in arrears (the (k-1, k)
  error pair plays the role of the (k, k+1) pair) on the observer
  estimates, and the newest reconstructable F value lags two samples;
* synthetic plant: its step-k state is the output pair (y[k], y[k+1]), so
  the law is evaluated at its natural anchor on truth and controller
  identities hold exactly per step.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from array import array
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Union

import numpy as np

from . import plants
from .controller import AdaptiveInfluence, ControllerConfig, FixedInfluence
from .core import (
    HolderGainParams, _field_types, _kind, check_fields, check_finite, gain_args, is_finite,
    is_number, shown,
)
from .plants import (
    BACKEND,
    DivergenceError,
    NoiseModel,
    PendulumParams,
    SyntheticUlmParams,
    _desired_theta_samples,
)
from .ulm import SECOND_ORDER, UlmConfig

__all__ = [
    "CSV_HEADER",
    "ExperimentConfig",
    "RunLog",
    "RunMetrics",
    "demo_config",
    "run_closed_loop",
    "compute_metrics",
    "write_log_csv",
    "read_log_csv",
    "config_to_dict",
    "config_from_dict",
    "write_config",
    "read_config",
]

CSV_HEADER = "t,y_d,y_true,y_meas,y_hat,e,e_o,F_true,F_hat,e_F,s,u,G"

_COLUMNS = tuple(CSV_HEADER.lower().split(","))
# rows per ``format_rows`` call in ``write_log_csv``: ~64 KB of text, where
# the whole log at once would hold megabytes
_BLOCK_ROWS = 256
# first_step_e_o_below and first_step_e_f_below: the first |value| <= this
_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ExperimentConfig:
    """Full reproducibility record of one closed-loop run."""

    plant: Union[PendulumParams, SyntheticUlmParams]
    horizon: float
    sample_rate: float
    observer: HolderGainParams
    ulm: UlmConfig
    controller: ControllerConfig
    noise: Optional[NoiseModel]
    seed: int  # of the noise stream, the one random input of a run
    allow_unseparated_gains: bool = False

    def __post_init__(self):
        check_fields(
            self,
            # NaN passes the sign rule, to be reported as not finite
            horizon=(lambda h: not h < 0, "be non-negative"),
            sample_rate=(lambda r: r > 0.0, "be positive"),
            seed=(lambda s: s >= 0, "be non-negative"),
        )
        if not math.isfinite(self.horizon * self.sample_rate):
            raise ValueError("horizon * sample_rate (the record count) overflows")
        separated = (
            self.controller.margin < self.observer.margin
            and self.controller.exponent < self.observer.exponent
        )
        if not separated:
            msg = (
                "controller gains do not respect the separation ordering "
                "(margin < observer margin and exponent < observer exponent)"
            )
            if self.allow_unseparated_gains:
                warnings.warn(msg, stacklevel=2)
            else:
                raise ValueError(msg + "; set allow_unseparated_gains to override")

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def n_records(self) -> int:
        if self.horizon == 0.0:
            return 0
        return int(math.floor(self.horizon * self.sample_rate + 1e-9)) + 1


def demo_config(seed: int = 0) -> ExperimentConfig:
    """Built-in benchmark configuration: the noisy cart-pendulum swing
    tracked at 50 Hz for 70 s."""
    return ExperimentConfig(
        plant=PendulumParams(),
        horizon=70.0,
        sample_rate=50.0,
        observer=HolderGainParams(weight=2.1, margin=2.0, exponent=7.0 / 5.0),
        ulm=UlmConfig(margin=1.5, exponent=9.0 / 7.0),
        controller=ControllerConfig(
            margin=1.0,
            exponent=11.0 / 9.0,
            mu=0.35,
            influence_policy=AdaptiveInfluence(base=1.5),
        ),
        noise=NoiseModel(width=0.018),
        seed=seed,
    )


def _column_views(cls):
    """``cls`` with a property per name of ``_COLUMNS``: its column of ``rows``."""
    for i, name in enumerate(_COLUMNS):
        setattr(cls, name, property(lambda log, i=i: log.rows[:, i]))
    return cls


@_column_views
@dataclass
class RunLog:
    """Per-step record of one run: ``rows``, a read-only ``(n, 13)`` array
    with one row per step and the columns in CSV header order, is the
    buffer of doubles that ``run_loop`` or ``parse_rows`` returned, taken
    with ``np.frombuffer``, or the array given, uncopied.  ``t``, ``y_d``,
    ..., ``g`` are read-only views of its columns.

    ``e`` is the truth tracking error y_true - y_d (the controller acts on
    the estimate-based error, whose deviation from ``e`` is ``e_o``);
    ``f_true``/``f_hat`` are the newest truth-reconstructed value of F and
    the estimator output the controller used at that step.
    """

    rows: np.ndarray
    diverged: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.rows, np.ndarray):
            self.rows = np.frombuffer(self.rows, dtype=float)
        self.rows = self.rows.reshape(-1, len(_COLUMNS))
        self.rows.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.rows)


def run_closed_loop(
    config: ExperimentConfig,
    *,
    oracle_f: bool = False,
    f_hat_bias: float = 0.0,
) -> RunLog:
    """Run the experiment described by ``config`` and return its log.

    ``oracle_f`` feeds the controller the true forcing signal instead of
    the estimator output (for the pendulum: the newest truth-reconstructed
    value); ``f_hat_bias`` adds a constant offset to whichever estimate is
    used, which is the robustness-injection hook; it must be finite.
    """
    f_hat_bias = check_finite("f_hat_bias", f_hat_bias)
    start = time.perf_counter()
    meta = {
        "config": config,
        "seed": config.seed,
        "oracle_f": oracle_f,
        "f_hat_bias": f_hat_bias,
        "backend": BACKEND,
    }
    rows, diverged = b"", False
    if config.n_records > 0:
        rows, diverged = _run_loop(config, oracle_f, f_hat_bias)
    meta["wall_time_s"] = time.perf_counter() - start
    return RunLog(rows, diverged, meta)


def _run_loop(config: ExperimentConfig, oracle_f: bool, f_hat_bias: float):
    """The rows of the run, row-major doubles, and whether it diverged.

    The reference and the synthetic plant's forcing are computed here, the
    loop by the kernel backend's ``run_loop``; no row survives a failed
    reference.  The Python twin's loop is built from the library's float
    steps; ``tests/test_loop.py`` checks both twins against a reference
    loop built from the numpy laws of ``tests/oracle.py``, and that the
    Python twin calls the steps.
    """
    n = config.n_records
    dt = config.dt
    plant = config.plant
    if isinstance(plant, PendulumParams):
        try:
            y_d = _desired_theta_samples(plant, n + 1, dt)
        except DivergenceError:
            return b"", True
        truth, y_hat0 = plant.initial.as_tuple(), plant.theta_estimate
        params, f_signal = plant.as_tuple(), None
    else:
        y_d = plant.desired_samples(n + 2, dt)
        truth, y_hat0 = (plant.y0, plant.y1), plant.y0
        params, f_signal = None, array("d", [plant.f_signal(k, dt) for k in range(n)])
    ctl = config.controller
    policy = ctl.influence_policy
    if isinstance(policy, FixedInfluence):
        influence = (False, policy.value)
    else:
        influence = (True, policy.base)
    width, seed = 0.0, None
    if config.noise is not None:
        width, seed = config.noise.width, config.seed
    return plants.kernels.run_loop(
        *gain_args(config.observer), *gain_args(config.ulm.gain), *gain_args(ctl.gain),
        *influence, ctl.mu, config.ulm.observer_order == SECOND_ORDER, oracle_f, f_hat_bias,
        dt, n, y_d, y_hat0, truth, params, f_signal, width, seed,
    )


@dataclass(frozen=True)
class RunMetrics:
    """Post-transient summary of one log."""

    max_abs_e: float
    rms_e: float
    max_abs_e_o: float
    max_abs_e_f: float
    first_step_e_o_below: Optional[int]
    first_step_e_f_below: Optional[int]
    rms_u: float

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _first_below(values: np.ndarray) -> Optional[int]:
    hits = np.nonzero(np.abs(values) <= _TOLERANCE)[0]
    return int(hits[0]) if hits.size else None


def _rms(values: np.ndarray) -> float:
    """The root mean square of finite ``values``.  Where the mean square
    overflows, it is taken of the values scaled by their largest magnitude,
    which keeps it finite."""
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(values ** 2)))
    if math.isinf(rms):
        scale = np.max(np.abs(values))
        rms = float(scale * np.sqrt(np.mean((values / scale) ** 2)))
    return rms


def compute_metrics(log: RunLog, transient_cutoff: float) -> RunMetrics:
    """Summary statistics of a run after discarding the transient.

    Tracking-error and F-estimate statistics are taken for t >= cutoff;
    the observer-error maximum, the first steps with |e_o| and |e_f| at
    most ``_TOLERANCE`` and the control effort cover the whole run.
    """
    if log.n == 0:
        raise ValueError("log is empty")
    cutoff = transient_cutoff
    # an infinite cutoff is a number of seconds; an int too large for a float is none
    if not (is_finite(cutoff) or is_number(cutoff) and abs(cutoff) == math.inf):
        raise ValueError(f"cutoff must be a number of seconds, got {shown(cutoff)}")
    if cutoff > log.t[-1]:
        raise ValueError(f"cutoff {cutoff} s lies beyond the horizon {log.t[-1]} s")
    mask = log.t >= cutoff
    return RunMetrics(
        max_abs_e=float(np.max(np.abs(log.e[mask]))),
        rms_e=_rms(log.e[mask]),
        max_abs_e_o=float(np.max(np.abs(log.e_o))),
        max_abs_e_f=float(np.max(np.abs(log.e_f[mask]))),
        first_step_e_o_below=_first_below(log.e_o),
        first_step_e_f_below=_first_below(log.e_f),
        rms_u=_rms(log.u),
    )


def write_log_csv(log: RunLog, path) -> None:
    """Write the log as CSV: fixed header, 17 significant digits, LF.

    The kernel backend's ``format_rows`` formats ``log.rows``, as doubles,
    ``_BLOCK_ROWS`` rows a call, which bounds the memory the text takes."""
    rows = np.ascontiguousarray(log.rows, dtype=float)
    with open(path, "wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        for start in range(0, log.n, _BLOCK_ROWS):
            fh.write(plants.kernels.format_rows(rows[start : start + _BLOCK_ROWS]))


def read_log_csv(path) -> RunLog:
    """Read a log CSV produced by ``write_log_csv``; blank lines are skipped.
    Every value must be finite, as in every log a run writes.

    The kernel backend's ``parse_rows`` reads the body in one call.  A body
    it does not turn into finite rows of the log's width, an empty one
    included, is read again line by line, which gives every error message."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        rows = plants.kernels.parse_rows(fh)
        if rows is None:
            # back to the start of the body, which the parser consumed
            fh.seek(0)
            fh.readline()
            rows = _read_lines(fh, path)
    return RunLog(rows, meta={"source": str(path)})


def _read_lines(fh, path) -> array:
    """The rest of ``fh`` as row-major values, line by line.  A line that
    does not parse is reported before a value that is not finite, wherever
    the two lie."""
    width = len(_COLUMNS)
    names = CSV_HEADER.split(",")
    rows = array("d")
    not_finite = None  # the message for the first value that is not finite
    for lineno, line in enumerate(fh, start=2):
        values = line.split(",")
        if len(values) != width:
            if line.isspace():
                continue
            raise ValueError(
                f"{path}, line {lineno}: expected {width} columns, "
                f"got {len(values)}"
            )
        try:
            row = list(map(float, values))
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
        rows.extend(row)
        if not_finite is None and not all(map(math.isfinite, row)):
            name, value = next((n, v) for n, v in zip(names, row) if not math.isfinite(v))
            not_finite = f"{path}, line {lineno}: {name} must be finite, got {value}"
    if not_finite is not None:
        raise ValueError(not_finite)
    return rows


# ---------------------------------------------------------------------------
# configuration (de)serialization
#
# The JSON format is the dataclass tree: one object per dataclass, its keys
# the field names in field order.  Everything else is written down here.

# members of the two unions carry a "kind" tag, written first
_KINDS = {
    PendulumParams: "pendulum",
    SyntheticUlmParams: "synthetic_ulm",
    AdaptiveInfluence: "adaptive",
    FixedInfluence: "fixed",
}
# keys a file may omit: the field default applies, or null without one
_OPTIONAL = {
    ExperimentConfig: {"noise", "allow_unseparated_gains"},
    SyntheticUlmParams: {f.name for f in fields(SyntheticUlmParams)} - {"f_mode"},
    UlmConfig: {"observer_order"},
}
_JSON_TYPES = {
    type(None): "null", bool: "a boolean", int: "an integer", float: "a number",
    str: "a string", list: "a list", dict: "an object",
}


def _encode(value):
    if value is None or isinstance(value, (int, float, str)):
        return value
    cls = type(value)
    d = {"kind": _KINDS[cls]} if cls in _KINDS else {}
    for name in _field_types(cls):
        d[name] = _encode(getattr(value, name))
    return d


def config_to_dict(config: ExperimentConfig) -> dict:
    return _encode(config)


def _type_error(path: str, expected: str, raw) -> ValueError:
    got = _JSON_TYPES.get(type(raw), type(raw).__name__)
    return ValueError(f"{path or 'config'} must be {expected}, got {got}")


def _decode(tp, raw, path: str):
    """``raw`` checked against the JSON type of the annotation ``tp`` and
    decoded through it; the constructors check the values."""
    kind, inner = _kind(tp)
    if kind == "scalar":
        if type(raw) is not tp and not (tp is float and type(raw) is int):
            raise _type_error(path, _JSON_TYPES[tp], raw)
        return raw
    if kind == "dataclass":
        return _decode_object(tp, raw, path)
    if kind == "optional":
        return None if raw is None else _decode(inner, raw, path)
    return _decode_tagged(inner, raw, path)


def _decode_tagged(members, raw, path: str):
    if not isinstance(raw, dict):
        raise _type_error(path, "an object", raw)
    if "kind" not in raw:
        raise ValueError(f"missing key '{path}.kind'")
    kind = _decode(str, raw["kind"], f"{path}.kind")
    by_kind = {_KINDS[m]: m for m in members}
    if kind not in by_kind:
        raise ValueError(
            f"unknown {path}.kind {kind!r}, expected one of {sorted(by_kind)}"
        )
    rest = {key: value for key, value in raw.items() if key != "kind"}
    return _decode_object(by_kind[kind], rest, path)


def _decode_object(cls, raw, path: str):
    if not isinstance(raw, dict):
        raise _type_error(path, "an object", raw)
    types = _field_types(cls)
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in {path or 'config'}")
    kwargs = {}
    for name, (f, tp) in types.items():
        key = f"{path}.{name}" if path else name
        if name in raw:
            kwargs[name] = _decode(tp, raw[name], key)
        elif name not in _OPTIONAL.get(cls, ()):
            raise ValueError(f"missing key {key!r}")
        elif f.default is MISSING:
            kwargs[name] = None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if not path:
            raise
        raise ValueError(f"{path}: {exc}") from None


def config_from_dict(d: dict) -> ExperimentConfig:
    """Decode a config object, checking every value against its field's
    annotation; any malformed value raises a ``ValueError`` naming its key."""
    return _decode_object(ExperimentConfig, d, "")


def _config_json(config: ExperimentConfig) -> str:
    """The JSON text of a config file: two-space indent, final newline."""
    return json.dumps(config_to_dict(config), indent=2) + "\n"


def write_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_config_json(config))


def read_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
        except RecursionError:
            raise ValueError(f"{path}: invalid JSON (nested too deeply)") from None
    return config_from_dict(raw)
