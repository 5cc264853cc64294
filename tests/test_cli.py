import dataclasses
import hashlib
import json
import math

import pytest

from mfclab import (
    CSV_HEADER,
    ControllerConfig,
    FixedInfluence,
    config_from_dict,
    config_to_dict,
    demo_config,
    plants,
    read_log_csv,
    write_config,
)
from mfclab.cli import main


def _demo_with(value, *path):
    """The demo config as JSON text with the value at ``path`` replaced."""
    d = config_to_dict(demo_config())
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(d)


def _metrics_both_spellings(log, cutoff: str, capsys):
    """(exit code, stdout, stderr) of ``metrics --cutoff=<cutoff>``, once
    ``metrics --cutoff <cutoff>`` has given the same three."""
    outcomes = []
    for argv in (["--cutoff=" + cutoff], ["--cutoff", cutoff]):
        code = main(["metrics", str(log), *argv])
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


# case id -> (config file text, the key its error message must name)
BAD_CONFIGS = {
    "missing-keys": ('{"horizon": 1.0}', "plant"),
    "horizon-null": (_demo_with(None, "horizon"), "horizon"),
    "plant-number": (_demo_with(5, "plant"), "plant"),
    "observer-null": (_demo_with(None, "observer"), "observer"),
    "coefficients-number": (
        _demo_with(5, "controller", "coefficients"),
        "coefficients",
    ),
    "horizon-infinite": (_demo_with(math.inf, "horizon"), "horizon"),
    "sample-rate-infinite": (_demo_with(math.inf, "sample_rate"), "sample_rate"),
    "seed-fractional": (_demo_with(1.5, "seed"), "seed"),
    "seed-bool": (_demo_with(True, "seed"), "seed"),
    "horizon-string": (_demo_with("1", "horizon"), "horizon"),
    "allow-unseparated-string": (
        _demo_with("no", "allow_unseparated_gains"),
        "allow_unseparated_gains",
    ),
    "seed-negative": (_demo_with(-1, "seed"), "seed"),
    "noise-seed-negative": (
        _demo_with({"width": 0.018, "seed": -1}, "noise"),
        "noise: seed",
    ),
    "observer-weight-2x2": (
        _demo_with([[2.1, 0.0], [0.0, 2.1]], "observer", "weight"),
        "observer.weight",
    ),
    "fixed-influence-2x2": (
        _demo_with(
            {"kind": "fixed", "value": [[1.0, 0.0], [0.0, 1.0]]},
            "controller",
            "influence_policy",
        ),
        "controller.influence_policy.value",
    ),
    "fixed-influence-zero-1x1": (
        _demo_with({"kind": "fixed", "value": [[0.0]]}, "controller", "influence_policy"),
        "controller.influence_policy.value",
    ),
    "fixed-influence-nan-1x1": (
        _demo_with(
            {"kind": "fixed", "value": [[math.nan]]}, "controller", "influence_policy"
        ),
        "controller.influence_policy.value",
    ),
    "adaptive-base-infinite": (
        _demo_with(math.inf, "controller", "influence_policy", "base"),
        "controller.influence_policy.base",
    ),
    "observer-weight-nan-1x1": (
        _demo_with([[math.nan]], "observer", "weight"),
        "observer.weight",
    ),
    "cart-mass-infinite": (
        _demo_with(math.inf, "plant", "cart_mass"),
        "plant.cart_mass",
    ),
    "plant-kind-unknown": (_demo_with("rocket", "plant", "kind"), "plant.kind"),
    "horizon-too-large-for-float": (_demo_with(10**400, "horizon"), "horizon"),
}


_ROW = ",".join(["0.5"] * 13)
_ROW_12 = ",".join(["0.5"] * 12)
_ROW_F_HAT_MINUS_INF = ",".join(["0.5"] * 8 + ["-Infinity"] + ["0.5"] * 4)

# case id -> (log file text, what its error message must contain)
MALFORMED_LOGS = {
    "row-with-12-fields": (f"{CSV_HEADER}\n{_ROW}\n{_ROW_12}\n", "line 3"),
    "ragged": (f"{CSV_HEADER}\n{_ROW}\n{_ROW},0.5\n{_ROW_12}\n", "line 3"),
    "non-numeric-field": (
        f"{CSV_HEADER}\n{_ROW}\n{_ROW.replace('0.5', 'abc', 1)}\n",
        "abc",
    ),
    "header-only": (f"{CSV_HEADER}\n", "empty"),
    "nan": (
        f"{CSV_HEADER}\n{_ROW}\n{_ROW.replace('0.5', 'nan', 1)}\n",
        "line 3: t must be finite, got nan",
    ),
    "inf": (f"{CSV_HEADER}\n{_ROW_12},inf\n", "line 2: G must be finite, got inf"),
    "minus-infinity-after-blank-lines": (
        f"{CSV_HEADER}\n\n{_ROW}\n\n{_ROW_F_HAT_MINUS_INF}\n",
        "line 5: F_hat must be finite, got -inf",
    ),
}


@pytest.fixture
def short_config(tmp_path):
    path = tmp_path / "config.json"
    write_config(dataclasses.replace(demo_config(), horizon=1.0), path)
    return path


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["run"],
            ["frobnicate"],
            ["metrics", "x.csv", "--cutoff", "abc"],
            ["run", "{config}", "--seed", "x"],
        ],
        ids=["no-command", "run-no-config", "unknown-command", "bad-cutoff", "bad-seed"],
    )
    def test_usage_error_is_config_error(self, short_config, capsys, argv):
        argv = [a.format(config=short_config) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: mfclab")

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: mfclab" in capsys.readouterr().out

    def test_negative_seed_is_a_value(self, short_config, capsys):
        assert main(["run", str(short_config), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"

    def test_usage_error_leaves_no_state(self, short_config, tmp_path):
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        assert main(["run", str(short_config), "--out", str(before)]) == 0
        assert main(
            ["run", str(short_config), "--no-noise", "--oracle-f", "--seed", "x"]
        ) == 1
        assert main(["run", str(short_config), "--out", str(after)]) == 0
        assert after.read_bytes() == before.read_bytes()


class TestDemoPaper:
    def test_emits_parseable_config(self, capsys):
        assert main(["demo-paper"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert config_from_dict(payload) == demo_config()

    def test_writes_file(self, tmp_path):
        out = tmp_path / "demo.json"
        assert main(["demo-paper", "--out", str(out)]) == 0
        assert config_from_dict(json.loads(out.read_text())) == demo_config()

    def test_file_bytes_equal_stdout_bytes(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        assert main(["demo-paper"]) == 0
        assert main(["demo-paper", "--out", str(out)]) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")

    def test_output_bytes_pinned(self, capsys):
        assert main(["demo-paper"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == (
            "7730bb3bc75ec11881005c0393aec583af5c0139de6b36131ecf33184f3583e3"
        )


class TestRun:
    def test_run_writes_log(self, short_config, tmp_path, capsys):
        out = tmp_path / "log.csv"
        assert main(["run", str(short_config), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 52
        assert "51 steps" in capsys.readouterr().out

    def test_seed_override_changes_noise(self, short_config, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", str(short_config), "--out", str(out1), "--seed", "3"]) == 0
        assert main(["run", str(short_config), "--out", str(out2), "--seed", "4"]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_no_noise_measurement_equals_truth(self, short_config, tmp_path):
        out = tmp_path / "log.csv"
        assert main(["run", str(short_config), "--out", str(out), "--no-noise"]) == 0
        log = read_log_csv(out)
        assert (log.y_meas == log.y_true).all()

    def test_oracle_flag_accepted(self, short_config, tmp_path):
        assert main(["run", str(short_config), "--oracle-f"]) == 0

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(BAD_CONFIGS))
    def test_bad_config_is_config_error(self, tmp_path, capsys, case):
        text, key = BAD_CONFIGS[case]
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
        assert key in err

    @pytest.mark.parametrize(
        "text, message",
        [
            # json.load gives up
            ("[" * 100_000, "invalid JSON (nested too deeply)"),
            # the decoder gives up on a weight 900 lists deep
            (
                _demo_with("W", "observer", "weight").replace('"W"', "[" * 900 + "2.1" + "]" * 900),
                "config is nested too deeply",
            ),
        ],
        ids=["json", "weight"],
    )
    def test_deep_config_is_config_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "horizon, message",
        [(1e16, "Unable to allocate"), (1e300, "Maximum allowed dimension exceeded")],
        ids=["1e16", "1e300"],
    )
    def test_run_too_large_to_allocate_is_config_error(
        self, kernels, monkeypatch, tmp_path, capsys, horizon, message
    ):
        # 5e17 samples of the reference are 3.5 EiB, past any address space
        # (2^57 bytes with five-level paging), and 5e301 are past numpy's
        # largest dimension, so either allocation fails at once; a size that
        # could be mapped must never be tried here
        monkeypatch.setattr(plants, "kernels", kernels)
        path = tmp_path / "config.json"
        write_config(dataclasses.replace(demo_config(), horizon=horizon), path)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {message}")

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = dataclasses.replace(
            demo_config(),
            horizon=1.0,
            controller=ControllerConfig(
                margin=1.0,
                exponent=11.0 / 9.0,
                coefficients=(0.35,),
                influence_policy=FixedInfluence(1e-300),
            ),
        )
        path = tmp_path / "config.json"
        write_config(cfg, path)
        out = tmp_path / "log.csv"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "diverged" in capsys.readouterr().err
        # the truncated log is still written
        assert out.exists()

    def test_reference_divergence_exit_code(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        write_config(
            dataclasses.replace(demo_config(), sample_rate=1e-300, horizon=1.0), path
        )
        out = tmp_path / "log.csv"
        assert main(["run", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "0 steps" in captured.out
        assert captured.err == "run diverged: log truncated at the last finite step\n"
        assert out.read_text(encoding="utf-8") == CSV_HEADER + "\n"


class TestMetricsCommand:
    def test_prints_summary(self, short_config, tmp_path, capsys):
        out = tmp_path / "log.csv"
        main(["run", str(short_config), "--out", str(out)])
        capsys.readouterr()
        assert main(["metrics", str(out), "--cutoff", "0.5"]) == 0
        text = capsys.readouterr().out
        assert "max_abs_e:" in text
        assert "rms_u:" in text

    def test_cutoff_beyond_horizon_is_error(self, short_config, tmp_path, capsys):
        out = tmp_path / "log.csv"
        main(["run", str(short_config), "--out", str(out)])
        assert main(["metrics", str(out), "--cutoff", "5.0"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff", ["nan", "-nan", "NaN"])
    def test_nan_cutoff_is_error(self, short_config, tmp_path, capsys, cutoff):
        out = tmp_path / "log.csv"
        main(["run", str(short_config), "--out", str(out)])
        capsys.readouterr()
        code, _, err = _metrics_both_spellings(out, cutoff, capsys)
        assert code == 1
        assert err == "error: cutoff must be a number of seconds, got nan\n"

    @pytest.mark.parametrize(
        "cutoff, code",
        [("inf", 1), ("-inf", 0), ("-Infinity", 0), ("-1e3", 0), ("0.25", 0)],
    )
    def test_infinite_and_finite_cutoffs_as_before(self, short_config, tmp_path, capsys,
                                                   cutoff, code):
        out = tmp_path / "log.csv"
        main(["run", str(short_config), "--out", str(out)])
        capsys.readouterr()
        assert _metrics_both_spellings(out, cutoff, capsys)[::2] == (
            code,
            "" if code == 0 else f"error: cutoff {cutoff} s lies beyond the "
            f"horizon {read_log_csv(out).t[-1]} s\n",
        )

    @pytest.mark.parametrize("case", list(MALFORMED_LOGS))
    def test_malformed_log_is_error(self, tmp_path, capsys, case):
        text, needle = MALFORMED_LOGS[case]
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["metrics", str(path), "--cutoff", "0.0"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
        assert needle in err

    def test_trailing_blank_line_reads(self, short_config, tmp_path, capsys):
        out = tmp_path / "log.csv"
        main(["run", str(short_config), "--out", str(out)])
        capsys.readouterr()
        assert main(["metrics", str(out), "--cutoff", "0.5"]) == 0
        expected = capsys.readouterr().out
        with open(out, "a", encoding="utf-8") as fh:
            fh.write("\n")
        assert main(["metrics", str(out), "--cutoff", "0.5"]) == 0
        assert capsys.readouterr().out == expected
