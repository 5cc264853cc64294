"""Closed-loop experiment runner, configuration and log formats, metrics.

One run wires measurement noise -> output observer -> ultra-local-model
estimator -> tracking controller -> plant and records every per-step
quantity.  Runs are deterministic given the configuration and seed.

A single step loop serves both plants; a small per-run plant object
supplies what differs between them:

* cart-pendulum: only the current measurement exists at decision time, so
  the second-order law is evaluated one step in arrears (the (k-1, k)
  error pair plays the role of the (k, k+1) pair) on the observer
  estimates, and the newest reconstructable F value lags two samples;
* synthetic plant: its step-k state is the output pair (y[k], y[k+1]), so
  the law is evaluated at its natural anchor on truth and controller
  identities hold exactly per step.
"""

from __future__ import annotations

import functools
import json
import math
import time
import typing
import warnings
from array import array
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import Optional, Union

import numpy as np

from . import plants
from .controller import AdaptiveInfluence, ControllerConfig, FixedInfluence
from .core import HolderGainParams, check_finite, require_finite, require_int
from .plants import (
    BACKEND,
    BumpNoiseStream,
    DivergenceError,
    NoiseModel,
    PendulumParams,
    PendulumState,
    SyntheticUlmParams,
    _SUBSTEPS,
    _desired_theta_samples,
    _kernel,
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

_COLUMNS = (
    "t", "y_d", "y_true", "y_meas", "y_hat", "e", "e_o",
    "f_true", "f_hat", "e_f", "s", "u", "g",
)
# rows per ``format_rows`` call in ``write_log_csv``: ~64 KB of text, where
# the whole log at once would hold megabytes
_BLOCK_ROWS = 256


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
    initial_truth: PendulumState
    initial_estimates: PendulumState
    seed: int
    allow_unseparated_gains: bool = False

    def __post_init__(self):
        require_finite(self, "sample_rate", ok=lambda r: r > 0.0, rule="be positive")
        # NaN passes the sign rule, to be reported as not finite
        require_finite(self, "horizon", ok=lambda h: not h < 0, rule="be non-negative")
        if not math.isfinite(self.horizon * self.sample_rate):
            raise ValueError("horizon * sample_rate (the record count) overflows")
        require_int(self, "seed", ok=lambda s: s >= 0, rule="be non-negative")
        if self.ulm.order_nu != 2 or self.controller.order_nu != 2:
            raise ValueError("the closed-loop harness implements the second-order law")
        _siso_value(self.observer.weight, "observer.weight")
        policy = self.controller.influence_policy
        key = "controller.influence_policy.value"
        if isinstance(policy, FixedInfluence) and _siso_value(policy.value, key) == 0.0:
            raise ValueError(f"{key} must be nonzero")
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
        ulm=UlmConfig(order_nu=2, margin=1.5, exponent=9.0 / 7.0),
        controller=ControllerConfig(
            margin=1.0,
            exponent=11.0 / 9.0,
            coefficients=(0.35,),
            influence_policy=AdaptiveInfluence(base=1.5),
        ),
        noise=NoiseModel(width=0.018),
        initial_truth=PendulumState(x=0.45, theta=-0.14, x_dot=-0.3, theta_dot=0.05),
        initial_estimates=PendulumState(x=0.0, theta=0.102, x_dot=0.0, theta_dot=0.0),
        seed=seed,
    )


@dataclass
class RunLog:
    """Per-step record of one run; column arrays share a common length.

    ``e`` is the truth tracking error y_true - y_d (the controller acts on
    the estimate-based error, whose deviation from ``e`` is ``e_o``);
    ``f_true``/``f_hat`` are the newest truth-reconstructed value of F and
    the estimator output the controller used at that step.
    """

    t: np.ndarray
    y_d: np.ndarray
    y_true: np.ndarray
    y_meas: np.ndarray
    y_hat: np.ndarray
    e: np.ndarray
    e_o: np.ndarray
    f_true: np.ndarray
    f_hat: np.ndarray
    e_f: np.ndarray
    s: np.ndarray
    u: np.ndarray
    g: np.ndarray
    diverged: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.t)


def _log_from_rows(rows, diverged: bool, meta: dict) -> RunLog:
    """The log whose rows are ``rows``, a buffer of doubles, row-major, one
    value per column."""
    data = np.frombuffer(rows, dtype=float).reshape(-1, len(_COLUMNS))
    cols = {name: data[:, i].copy() for i, name in enumerate(_COLUMNS)}
    return RunLog(diverged=diverged, meta=meta, **cols)


def _siso_value(value, key: str) -> float:
    """A weight or influence as a float; the harness runs SISO loops, so it
    must be a scalar or 1x1."""
    shape = np.shape(value)
    if shape not in ((), (1, 1)):
        raise ValueError(
            f"{key} must be a scalar or 1x1 in the SISO loop, got shape {shape}"
        )
    return float(np.reshape(value, -1)[0])


def _float_gain(params: HolderGainParams):
    """``holder_gain`` of a scalar error for ``params``, as a function on
    floats.

    It rounds as ``quadratic_form`` does: w*(e*e) for a scalar weight,
    (e*w)*e for a 1x1 one, and a form that is not positive (zero or NaN)
    gives exactly -1.
    """
    matrix = not isinstance(params.weight, float)
    w = _siso_value(params.weight, "weight")
    margin = params.margin
    a = 1.0 - 1.0 / params.exponent
    exp, log = math.exp, math.log

    def gain(e: float) -> float:
        x = (e * w) * e if matrix else w * (e * e)
        if not x > 0.0:
            return -1.0
        z = exp(a * log(x))
        return (z - margin) / (z + margin)

    return gain


def _float_influence(policy):
    """``influence_gain`` of a scalar feedback total, as a function on floats."""
    if isinstance(policy, FixedInfluence):
        value = _siso_value(policy.value, "value")
        return lambda feedback_total: value
    base = policy.base
    return lambda feedback_total: base * (
        1.0 + math.tanh(math.sqrt(feedback_total * feedback_total))
    )


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
    check_finite("f_hat_bias", f_hat_bias)
    start = time.perf_counter()
    meta = {
        "config": config_to_dict(config),
        "seed": config.seed,
        "oracle_f": oracle_f,
        "f_hat_bias": f_hat_bias,
        "backend": BACKEND,
    }
    rows = array("d")
    diverged = False
    if config.n_records > 0:
        plant = _PLANTS[type(config.plant)](config)
        diverged = _run_loop(config, plant, oracle_f, f_hat_bias, rows)
    meta["wall_time_s"] = time.perf_counter() - start
    return _log_from_rows(rows, diverged, meta)


class _PendulumPlant:
    """Cart-pendulum truth advanced by RK4.  Only the current measurement
    exists at decision time, so the law runs one step in arrears on the
    observer estimates."""

    lag = 1
    reads_estimates = True

    def __init__(self, config: ExperimentConfig):
        self.params = config.plant
        self.raw_params = config.plant.as_tuple()
        self.dt = config.dt
        self.initial = config.initial_truth
        self.state = config.initial_truth.as_tuple()
        self.y = [config.initial_truth.theta]
        self.initial_estimate = config.initial_estimates.theta

    def reference(self, count: int) -> np.ndarray:
        return _desired_theta_samples(
            self.params, self.initial, count, self.dt, _SUBSTEPS
        )

    @staticmethod
    def reconstruct(y, j: int, effect: float) -> float:
        return ((y[j + 1] - y[j]) - (y[j] - y[j - 1])) - effect

    def f_true(self, k: int, effect: float) -> float:
        # the newest value reconstructable from truth; none before step 2
        if k < 2:
            return 0.0
        return self.reconstruct(self.y, k - 1, effect)

    def advance(self, k: int, g: float, u: float, f: float) -> None:
        self.state = _kernel(
            "rk4_advance", *self.state, u, self.dt, _SUBSTEPS, *self.raw_params
        )
        self.y.append(self.state[1])


class _SyntheticPlant:
    """Exact discrete plant whose step-k state is the output pair
    (y[k], y[k+1]); the law runs at its natural anchor on truth, so the
    controller identities hold exactly per step."""

    lag = 0
    reads_estimates = False

    def __init__(self, config: ExperimentConfig):
        self.params = config.plant
        self.dt = config.dt
        self.y = [self.params.y0, self.params.y1]
        self.initial_estimate = self.params.y0

    def reference(self, count: int) -> np.ndarray:
        return self.params.desired_samples(count, self.dt)

    @staticmethod
    def reconstruct(y, j: int, effect: float) -> float:
        return (y[j + 1] - 2.0 * y[j] + y[j - 1]) - effect

    def f_true(self, k: int, effect: float) -> float:
        return self.params.f_signal(k, self.dt)

    def advance(self, k: int, g: float, u: float, f: float) -> None:
        # f is f_true(k), evaluated once per step
        y = self.y
        y_next = 2.0 * y[k + 1] - y[k] + f + g * u
        if not math.isfinite(y_next):
            raise DivergenceError("synthetic plant produced a non-finite output")
        y.append(y_next)


_PLANTS = {PendulumParams: _PendulumPlant, SyntheticUlmParams: _SyntheticPlant}


def _run_loop(config, plant, oracle_f, f_hat_bias, rows: array) -> bool:
    """Step the closed loop on floats, appending each step's row to
    ``rows``; True when it diverged.

    At step k the law anchors at j = k - lag: it uses the errors at
    (j, j+1) and y_d[j..j+2], and shapes y[j+2].  F is reconstructed from
    the signal window [j-1, j+1] with the input effect of step k-1, the
    input that shaped y[j+1].  The advance after step k yields y[j+2];
    when it fails the log keeps its first k + lag rows.

    The arithmetic is that of ``fts_observer_step``, ``ulm_predict``,
    ``control_rhs_second_order``, ``influence_gain``, ``solve_input`` and
    the plant steps, in their order of evaluation, so the log is the one
    those functions give value for value.
    """
    ctl = config.controller
    mu = ctl.mu
    observer_gain = _float_gain(config.observer)
    ulm_gain = _float_gain(config.ulm.gain)
    ctl_gain = _float_gain(ctl.gain)
    influence = _float_influence(ctl.influence_policy)
    second_order = config.ulm.observer_order == SECOND_ORDER
    dt = config.dt
    n = config.n_records
    lag = plant.lag
    noise = None
    if config.noise is not None:
        seed = config.noise.seed if config.noise.seed is not None else config.seed
        noise = BumpNoiseStream(config.noise.width, seed)
    y_true = plant.y
    y_hat = []
    signal = y_hat if plant.reads_estimates else y_true
    reconstruct = plant.reconstruct
    # the F estimator: its estimate, the last value it absorbed (None
    # before the first) and, second order only, its estimate of F's first
    # difference
    f_hat = 0.0
    f_prev = None
    delta_hat = 0.0
    e_o = 0.0  # observer estimate minus measurement
    effect = 0.0  # G u of the previous step
    k = 0
    try:
        y_d = plant.reference(n + 2 - lag).tolist()
        for k in range(n):
            y_k = y_true[k]
            y_m = y_k + (noise.sample() if noise is not None else 0.0)
            if k == 0:
                y_hat_k = plant.initial_estimate
            else:
                y_hat_k = y_m + observer_gain(e_o) * e_o
            e_o = y_hat_k - y_m
            y_hat.append(y_hat_k)

            j = k - lag
            if j >= 1:
                f_new = reconstruct(signal, j, effect)
                if not second_order:
                    err = f_hat - f_new
                    f_hat = ulm_gain(err) * err + f_new
                elif f_prev is not None:
                    delta = f_new - f_prev
                    err = delta_hat - delta
                    delta_hat = ulm_gain(err) * err + delta
                    err = f_hat - f_new
                    f_hat = ulm_gain(err) * err + f_new + delta_hat
                f_prev = f_new
            f_true_k = plant.f_true(k, effect)
            # the bias is added even when it is 0.0: that turns -0.0 into 0.0
            f_hat_k = (f_true_k if oracle_f else f_hat) + f_hat_bias

            if j >= 0:
                e_j = signal[j] - y_d[j]
                e_j1 = signal[j + 1] - y_d[j + 1]
                e_1 = e_j1 - e_j
                s_k = e_1 + mu * e_j
                c = ctl_gain(s_k)
                rhs = (
                    y_d[j + 2] - 2.0 * y_d[j + 1] + y_d[j] - (1.0 - c) * e_1
                    + c * mu * e_j - mu * e_j1 - f_hat_k
                )
                g_k = influence(-(1.0 - c) * s_k - mu * e_1 - f_hat_k)
                u_k = rhs / g_k
                if not math.isfinite(u_k):
                    raise DivergenceError("control input is not finite")
            else:
                s_k = 0.0
                g_k = influence(0.0)
                u_k = 0.0
            effect = g_k * u_k

            rows.extend((
                k * dt, y_d[k], y_k, y_m, y_hat_k, y_k - y_d[k], e_o,
                f_true_k, f_hat_k, f_hat_k - f_true_k, s_k, u_k, g_k,
            ))
            if k < n - lag:
                plant.advance(k, g_k, u_k, f_true_k)
    except DivergenceError:
        # no row survives a failed reference; a failed input keeps k rows
        del rows[(k + lag) * len(_COLUMNS) :]
        return True
    return False


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
        return asdict(self)


def _first_below(values: np.ndarray, tol: float) -> Optional[int]:
    hits = np.nonzero(np.abs(values) <= tol)[0]
    return int(hits[0]) if hits.size else None


def compute_metrics(
    log: RunLog,
    transient_cutoff: float,
    e_o_tol: float = 1e-6,
    e_f_tol: float = 1e-6,
) -> RunMetrics:
    """Summary statistics of a run after discarding the transient.

    Tracking-error and F-estimate statistics are taken for t >= cutoff;
    the observer-error maximum, the first-step-below indices and the
    control effort cover the whole run.
    """
    if log.n == 0:
        raise ValueError("log is empty")
    if math.isnan(transient_cutoff):
        raise ValueError(f"cutoff must be a number of seconds, got {transient_cutoff}")
    if transient_cutoff > log.t[-1]:
        raise ValueError(
            f"cutoff {transient_cutoff} s lies beyond the horizon {log.t[-1]} s"
        )
    mask = log.t >= transient_cutoff
    return RunMetrics(
        max_abs_e=float(np.max(np.abs(log.e[mask]))),
        rms_e=float(np.sqrt(np.mean(log.e[mask] ** 2))),
        max_abs_e_o=float(np.max(np.abs(log.e_o))),
        max_abs_e_f=float(np.max(np.abs(log.e_f[mask]))),
        first_step_e_o_below=_first_below(log.e_o, e_o_tol),
        first_step_e_f_below=_first_below(log.e_f, e_f_tol),
        rms_u=float(np.sqrt(np.mean(log.u ** 2))),
    )


def write_log_csv(log: RunLog, path) -> None:
    """Write the log as CSV: fixed header, 17 significant digits, LF.

    The kernel backend's ``format_rows`` formats the rows ``_BLOCK_ROWS``
    at a time, which bounds the memory the text takes."""
    columns = [getattr(log, name) for name in _COLUMNS]
    with open(path, "wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        for start in range(0, log.n, _BLOCK_ROWS):
            block = np.column_stack([c[start : start + _BLOCK_ROWS] for c in columns])
            block = block.astype(float, copy=False)
            fh.write(plants.kernels.format_rows(block, len(_COLUMNS)))


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
        rows = plants.kernels.parse_rows(fh, len(_COLUMNS))
        if rows is None:
            # back to the start of the body, which the parser consumed
            fh.seek(0)
            fh.readline()
            rows = _read_lines(fh, path)
    return _log_from_rows(rows, False, {"source": str(path)})


def _read_lines(fh, path) -> array:
    """The rest of ``fh`` as row-major values, line by line."""
    width = len(_COLUMNS)
    rows = array("d")
    blank = []  # per skipped blank line, the count of values read before it
    for lineno, line in enumerate(fh, start=2):
        values = line.split(",")
        if len(values) != width:
            if line.isspace():
                blank.append(len(rows))
                continue
            raise ValueError(
                f"{path}, line {lineno}: expected {width} columns, "
                f"got {len(values)}"
            )
        try:
            rows.extend(map(float, values))
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
    finite = np.isfinite(np.frombuffer(rows, dtype=float))
    if not finite.all():
        i = int(np.argmin(finite))
        lineno = i // width + 2 + sum(n <= i for n in blank)
        name = CSV_HEADER.split(",")[i % width]
        raise ValueError(f"{path}, line {lineno}: {name} must be finite, got {rows[i]}")
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
    NoiseModel: {"seed"},
}
_JSON_TYPES = {
    type(None): "null", bool: "a boolean", int: "an integer", float: "a number",
    str: "a string", list: "a list", dict: "an object",
}


def _encode(value):
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    cls = type(value)
    d = {"kind": _KINDS[cls]} if cls in _KINDS else {}
    for name in _field_types(cls):
        d[name] = _encode(getattr(value, name))
    return d


def config_to_dict(config: ExperimentConfig) -> dict:
    return _encode(config)


@functools.lru_cache(maxsize=None)
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: (f, hints[f.name]) for f in fields(cls)}


def _type_error(path: str, expected: str, raw) -> ValueError:
    got = _JSON_TYPES.get(type(raw), type(raw).__name__)
    return ValueError(f"{path or 'config'} must be {expected}, got {got}")


def _decode(tp, raw, path: str):
    """``raw`` checked against the annotation ``tp`` and converted to it."""
    if tp in (float, int, str, bool):
        if type(raw) is not tp and not (tp is float and type(raw) is int):
            raise _type_error(path, _JSON_TYPES[tp], raw)
        if tp is not float:
            return raw
        try:
            value = float(raw)
        except OverflowError:
            raise ValueError(f"{path} is too large for a float") from None
        if not math.isfinite(value):
            raise ValueError(f"{path} must be finite, got {value}")
        return value
    if is_dataclass(tp):
        return _decode_object(tp, raw, path)
    if tp is np.ndarray:
        # the dataclass turns the nested list into its array
        element = Union[float, np.ndarray]
        return [_decode(element, v, f"{path}[{i}]") for i, v in enumerate(raw)]
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        if not isinstance(raw, list):
            raise _type_error(path, "a list", raw)
        return tuple(_decode(args[0], v, f"{path}[{i}]") for i, v in enumerate(raw))
    # a Union
    if raw is None and type(None) in args:
        return None
    members = [a for a in args if a is not type(None)]
    if len(members) == 1:
        return _decode(members[0], raw, path)
    if all(m in _KINDS for m in members):
        return _decode_tagged(members, raw, path)
    # a weight: a number, or a nested list of numbers
    return _decode(np.ndarray if isinstance(raw, list) else float, raw, path)


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
    return config_from_dict(raw)
