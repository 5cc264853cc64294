"""Spans and counters around mfclab's entry points, installed from outside
the library for the traced run.

A span records, per name, its calls and its self time: its duration minus
the part covered by spans it caused.  The self times of all spans therefore
add up, to the nanosecond, to the duration of the outermost spans.  A
counter only counts calls.  Each wrapper replaces every binding of the
original function in mfclab's modules (``harness`` calls
``rk4_advance`` through its own import of it), and ``uninstall`` puts the
originals back.  A name that a later version of the library no longer
has is skipped, and its metric reads 0.
"""

from __future__ import annotations

import sys
import time
import types
from collections import Counter

import numpy as np

from mfclab import core, plants

# (span name, module, attribute) for functions; a span name may cover
# several entry points.
FUNCTION_SPANS = (
    ("cli.main", "mfclab.cli", "main"),
    ("harness.run_closed_loop", "mfclab.harness", "run_closed_loop"),
    ("harness.write_log_csv", "mfclab.harness", "write_log_csv"),
    ("harness.read_log_csv", "mfclab.harness", "read_log_csv"),
    ("harness.read_config", "mfclab.harness", "read_config"),
    ("harness.compute_metrics", "mfclab.harness", "compute_metrics"),
    ("observers.fts_observer_step", "mfclab.observers", "fts_observer_step"),
    ("ulm.reconstruct_f", "mfclab.ulm", "reconstruct_f"),
    ("ulm.ulm_predict", "mfclab.ulm", "ulm_predict"),
    ("controller.control_rhs_second_order", "mfclab.controller", "control_rhs_second_order"),
    ("controller.influence", "mfclab.controller", "influence_gain"),
    ("controller.solve_input", "mfclab.controller", "solve_input"),
    ("plants.rk4_advance", "mfclab.plants", "rk4_advance"),
    ("plants.reference", "mfclab.plants", "_desired_theta_samples"),
    ("plants.synthetic_step", "mfclab.plants", "synthetic_ulm_plant_step"),
)
METHOD_SPANS = (
    ("plants.noise", plants.BumpNoiseStream, "sample"),
    ("plants.reference", plants.SyntheticUlmParams, "desired_samples"),
)
KERNEL_SPANS = (
    ("kernels.rk4_advance", "rk4_advance"),
    ("kernels.trajgen_advance", "trajgen_advance"),
)
COUNTERS = (
    ("core.holder_gain", core, "holder_gain"),
    ("core.gain_params_built", core.HolderGainParams, "__post_init__"),
    ("core.atleast_1d", np, "atleast_1d"),
)


class Tracer:
    """Per-name self time (ns) and calls; ``root_ns`` sums the outermost spans."""

    def __init__(self):
        self.self_ns = Counter()
        self.calls = Counter()
        self.root_ns = 0
        self._stack = []
        self._undo = []

    def span(self, name, fn):
        stack, self_ns, calls, clock = self._stack, self.self_ns, self.calls, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total = clock() - start
                self_ns[name] += total - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += total
                else:
                    self.root_ns += total

        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement):
        for name, module in list(sys.modules.items()):
            if name != "mfclab" and not name.startswith("mfclab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self):
        for name, module_name, attr in FUNCTION_SPANS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is not None:
                self._rebind(original, self.span(name, original))
        for name, owner, attr in METHOD_SPANS:
            if hasattr(owner, attr):
                self._set(owner, attr, self.span(name, getattr(owner, attr)))
        kernels = getattr(plants, "kernels", None)
        if kernels is not None:
            # the compiled module's attributes are left alone: plants reaches
            # the kernels through a wrapped copy of its namespace instead
            proxy = types.SimpleNamespace(
                **{k: v for k, v in vars(kernels).items() if not k.startswith("__")}
            )
            for name, attr in KERNEL_SPANS:
                setattr(proxy, attr, self.span(name, getattr(kernels, attr)))
            self._rebind(kernels, proxy)
        for name, owner, attr in COUNTERS:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self.counter(name, original)
            if isinstance(owner, types.ModuleType) and owner.__name__.startswith("mfclab"):
                self._rebind(original, wrapper)
            else:
                self._set(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, steps: int, plain_ns: int) -> dict:
    """Per-layer metrics of a traced run over ``steps`` logged steps, against
    ``plain_ns`` of untraced time for the same experiments."""
    self_ns, calls = tracer.self_ns, tracer.calls

    def per_step(name):
        return self_ns[name] / 1e3 / steps

    def per_call(name):
        return self_ns[name] / 1e3 / calls[name] if calls[name] else 0.0

    metrics = {
        "core.holder_gain.calls_per_step": (calls["core.holder_gain"] / steps, "calls/step"),
        "core.gain_params_built_per_step": (calls["core.gain_params_built"] / steps, "calls/step"),
        "core.atleast_1d_calls_per_step": (calls["core.atleast_1d"] / steps, "calls/step"),
    }
    for name in (
        "observers.fts_observer_step",
        "ulm.reconstruct_f",
        "ulm.ulm_predict",
        "controller.control_rhs_second_order",
        "controller.influence",
        "controller.solve_input",
        "plants.rk4_advance",
        "kernels.rk4_advance",
        "kernels.trajgen_advance",
        "plants.reference",
        "plants.noise",
        "plants.synthetic_step",
    ):
        metrics[f"{name}.us_per_step"] = (per_step(name), "us/step")
    metrics["harness.loop_self.us_per_step"] = (per_step("harness.run_closed_loop"), "us/step")
    metrics["harness.write_log_csv.us_per_row"] = (per_step("harness.write_log_csv"), "us/row")
    metrics["harness.read_log_csv.us_per_row"] = (per_step("harness.read_log_csv"), "us/row")
    for name in ("harness.read_config", "harness.compute_metrics"):
        metrics[f"{name}.us_per_call"] = (per_call(name), "us/call")
    metrics["cli.main.self_us_per_call"] = (per_call("cli.main"), "us/call")
    metrics["trace.overhead_ratio"] = (tracer.root_ns / plain_ns, "ratio")
    metrics["trace.traced_e2e_s"] = (tracer.root_ns / 1e9, "s")
    metrics["trace.self_time_sum_s"] = (sum(self_ns.values()) / 1e9, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
