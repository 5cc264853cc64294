"""Command-line interface.

Subcommands:

* ``run <config.json> [--out log.csv] [--seed N] [--oracle-f] [--no-noise]``
* ``demo-paper [--out config.json]`` -- emit the built-in benchmark config
* ``metrics <log.csv> [--cutoff S]``

Exit codes: 0 success, 1 configuration or usage error (a run too large to
allocate included), 2 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys

from .harness import (
    _config_json,
    compute_metrics,
    demo_config,
    read_config,
    read_log_csv,
    run_closed_loop,
    write_config,
    write_log_csv,
)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_DIVERGENCE = 2


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ``ValueError`` instead of printing the
    usage and exiting 2, the divergence code, and reads every negative
    number that ``float`` accepts (``-1e3``, ``-inf``, ``-nan``) as a value,
    where argparse takes only ``-1`` and ``-1.5``; subparsers inherit both."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\.?\d|inf|nan)", re.IGNORECASE
        )

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by later ones: it
    keeps no state between parses."""
    parser = _Parser(
        prog="mfclab",
        description="Model-free control experiments: run, inspect, summarize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a closed-loop experiment")
    run_p.add_argument("config", help="experiment configuration (JSON)")
    run_p.add_argument("--out", help="write the per-step log as CSV")
    run_p.add_argument("--seed", type=int, help="seed the noise stream (overrides the config)")
    run_p.add_argument(
        "--oracle-f",
        action="store_true",
        help="feed the controller the true forcing signal",
    )
    run_p.add_argument(
        "--no-noise", action="store_true", help="disable measurement noise"
    )

    demo_p = sub.add_parser(
        "demo-paper",
        help="emit the built-in benchmark configuration (noisy cart-pendulum, "
        "50 Hz, 70 s)",
    )
    demo_p.add_argument("--out", help="write to a file instead of stdout")

    met_p = sub.add_parser("metrics", help="summarize a log CSV")
    met_p.add_argument("log", help="log CSV produced by `run --out`")
    met_p.add_argument(
        "--cutoff", type=float, default=20.0, help="transient cutoff in seconds"
    )
    return parser


def _cmd_run(args) -> int:
    config = read_config(args.config)
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.no_noise:
        changes["noise"] = None
    if changes:
        config = dataclasses.replace(config, **changes)
    log = run_closed_loop(config, oracle_f=args.oracle_f)
    if args.out:
        write_log_csv(log, args.out)
    print(
        f"run: {log.n} steps, backend={log.meta['backend']}, "
        f"wall={log.meta['wall_time_s']:.3f}s"
        + (f", log written to {args.out}" if args.out else "")
    )
    if log.diverged:
        print("run diverged: log truncated at the last finite step", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def _cmd_demo(args) -> int:
    if args.out:
        write_config(demo_config(), args.out)
    else:
        sys.stdout.write(_config_json(demo_config()))
    return EXIT_OK


def _cmd_metrics(args) -> int:
    log = read_log_csv(args.log)
    metrics = compute_metrics(log, args.cutoff)
    for key, value in metrics.as_dict().items():
        print(f"{key}: {value}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "demo-paper":
            return _cmd_demo(args)
        return _cmd_metrics(args)
    except (ValueError, OSError, MemoryError) as exc:
        # a MemoryError: a valid config whose arrays cannot be allocated
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
