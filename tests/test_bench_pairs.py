"""``tools/bench_pairs.py``'s summary of paired runs, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

LOWER = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
HIGHER = {"name": "steps_per_s", "better": "higher", "bound": 0.25}


def runs(name, values):
    return [{name: v} for v in values]


def test_a_clear_gain_is_claimed():
    old = runs("peak_rss_mb", [44.0, 44.2, 44.1, 44.3, 44.4, 44.0, 44.2, 44.1, 44.3, 44.2])
    new = runs("peak_rss_mb", [41.9, 41.8, 42.0, 41.9, 41.8, 41.9, 42.0, 41.9, 41.8, 41.9])
    (row,) = bench_pairs.summarize(old, new, [LOWER])
    assert row["parent_median"] == 44.2
    assert row["change_median"] == 41.9
    assert row["parent_iqr"] == pytest.approx((44.1, 44.275))
    assert (row["wins"], row["losses"], row["pairs"]) == (10, 0, 10)
    assert row["claim_holds"] and row["verdict"] == "within"


def test_ties_count_for_neither_side_and_eight_wins_claim_nothing():
    old = runs("steps_per_s", [100.0] * 10)
    new = runs("steps_per_s", [110.0] * 8 + [100.0, 90.0])
    (row,) = bench_pairs.summarize(old, new, [HIGHER])
    assert (row["wins"], row["losses"]) == (8, 1)
    assert not row["claim_holds"]
    assert row["verdict"] == "within"


def test_nine_wins_inside_the_parents_spread_claim_nothing():
    old = runs("steps_per_s", [90.0, 110.0] * 5)
    new = runs("steps_per_s", [91.0, 111.0] * 4 + [91.0, 100.0])
    (row,) = bench_pairs.summarize(old, new, [HIGHER])
    assert row["wins"] == 9
    assert not row["claim_holds"]


def test_a_loss_past_the_bound_is_flagged():
    old = runs("peak_rss_mb", [40.0] * 10)
    (row,) = bench_pairs.summarize(old, runs("peak_rss_mb", [44.5] * 10), [LOWER])
    assert row["verdict"] == "OUTSIDE"
    (row,) = bench_pairs.summarize(old, runs("peak_rss_mb", [43.9] * 10), [LOWER])
    assert row["verdict"] == "within" and not row["claim_holds"]


def test_fewer_than_ten_pairs_claim_nothing():
    old = runs("peak_rss_mb", [44.0, 44.2, 44.1])
    (row,) = bench_pairs.summarize(old, runs("peak_rss_mb", [41.9] * 3), [LOWER])
    assert (row["wins"], row["pairs"]) == (3, 3)
    assert not row["claim_holds"] and row["verdict"] == "within"


def test_a_parent_spread_wider_than_the_bound_leaves_the_bound_unresolved():
    # a spread like that of pendulum_python's experiment_s between runs of
    # one tree: the IQR (0.216-0.293 s) is 34% of the median, past the bound
    spec = {"name": "experiment_s", "better": "lower", "bound": 0.25}
    old = runs("experiment_s", [0.209, 0.212, 0.213, 0.226, 0.226, 0.226, 0.293, 0.293, 0.300,
                                0.350])
    (row,) = bench_pairs.summarize(old, runs("experiment_s", [0.226] * 10), [spec])
    assert row["parent_median"] == 0.226 and row["parent_iqr"] == pytest.approx((0.21625, 0.293))
    assert row["verdict"] == "unresolved"
    (row,) = bench_pairs.summarize(old, runs("experiment_s", [0.30] * 10), [spec])
    assert row["verdict"] == "OUTSIDE"
    # unless every run of the change beats every run of the parent
    (row,) = bench_pairs.summarize(old, runs("experiment_s", [0.20] * 10), [spec])
    assert row["verdict"] == "within"


def test_fewer_than_two_pairs_are_refused_before_any_run(monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["parent", "change", "--workload", "sweep_compiled", "--pairs", "1"])
    assert exit_info.value.code == 2
    assert "--pairs must be at least 2, got 1" in capsys.readouterr().err
