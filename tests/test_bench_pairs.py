"""The aggregation of ``tools/bench_pairs.py`` on canned result lines; no benchmark runs."""

import importlib.util
import os
import time

import pytest

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_pairs.py")


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(side, seed, epoch_s, test_acc, setup_s=1.0, failed=False):
    """One ``run_once`` record as a run of ``seed`` on ``side`` would leave it."""
    result = None if failed else {"correct": True, "attempted": 36, "failed": 0, "metrics": {
        "epoch_s": {"value": epoch_s, "unit": "s"}, "test_acc": {"value": test_acc, "unit": "fraction"},
        "setup_s": {"value": setup_s, "unit": "s"}}}
    return {"side": side, "seed": seed, "returncode": 1 if failed else 0, "result": result,
            "stderr": {"raw CPU seconds": {"epoch": 0.9 * epoch_s}}, "proc": {"cpu_s": 5.0, "minflt": 1000 + seed}}


SPEC = {"epoch_s": {"better": "lower", "bound": 0.24}, "test_acc": {"better": "higher", "bound": 0.2},
        "setup_s": {"better": "lower", "bound": 0.25}}


def test_stderr_objects_reads_the_json_lines_of_a_run(bench_pairs):
    text = 'environment: {"nproc": 2}\ncheck PASS: x: {not json\nraw CPU seconds: {"epoch": 0.5}\n'
    assert bench_pairs.stderr_objects(text) == {"environment": {"nproc": 2}, "raw CPU seconds": {"epoch": 0.5}}


def test_summarize_gives_medians_iqr_pairs_won_and_verdicts(bench_pairs):
    start = time.perf_counter()
    runs = []
    for i, seed in enumerate(range(10)):
        # the change is 10% faster in 9 pairs and slower in one; test_acc is equal;
        # setup_s is 30% slower, past its bound
        parent, change = 1.0 + 0.01 * i, (0.9 + 0.01 * i) if i != 4 else 1.2
        runs += [canned("parent", seed, parent, 0.5), canned("change", seed, change, 0.5, setup_s=1.3)]
    runs.append(canned("change", 10, 0.1, 0.5))  # a seed with no parent run is no pair
    runs += [canned("parent", 11, 1.0, 0.5), canned("change", 11, 0.0, 0.0, failed=True)]
    rows = {r["metric"]: r for r in bench_pairs.summarize(runs, SPEC)}
    epoch = rows["epoch_s"]
    assert epoch["pairs"] == 10 and epoch["won"] == 9 and epoch["verdict"] == "gain"
    assert epoch["parent"] == pytest.approx(1.045) and epoch["change"] == pytest.approx(0.955)
    assert epoch["parent_iqr"] == pytest.approx(0.045)
    assert (rows["test_acc"]["won"], rows["test_acc"]["verdict"]) == (0, "same")
    assert rows["setup_s"]["verdict"] == "worse"
    # raw and process figures are aggregated but carry no verdict
    assert rows["raw.epoch"]["won"] is None and rows["raw.epoch"]["verdict"] == ""
    assert rows["proc.minflt"]["parent"] == pytest.approx(1004.5)
    table = bench_pairs.format_table(bench_pairs.summarize(runs, SPEC))
    assert "9/10  gain" in table and table.count("\n") == len(rows)
    assert time.perf_counter() - start < 1.0


def test_a_lead_within_the_parent_spread_is_no_gain(bench_pairs):
    runs = []
    for seed in range(10):
        parent = 1.0 + 0.1 * (seed % 5)
        runs += [canned("parent", seed, parent, 0.5), canned("change", seed, parent - 0.01, 0.5)]
    rows = {r["metric"]: r for r in bench_pairs.summarize(runs, SPEC)}
    assert rows["epoch_s"]["won"] == 10 and rows["epoch_s"]["verdict"] == "same"


def test_gain_needs_the_minimum_pair_count(bench_pairs):
    # one pair won 1 of 1 with no parent spread, so without a minimum a 2% win would read gain
    one = [canned("parent", 0, 1.0, 0.5), canned("change", 0, 0.98, 0.5)]
    row = {r["metric"]: r for r in bench_pairs.summarize(one, SPEC)}["epoch_s"]
    assert (row["pairs"], row["won"], row["parent_iqr"], row["verdict"]) == (1, 1, 0.0, "same")
    # ten pairs, each won by 5%, against a parent spread of about 2%
    ten = []
    for seed in range(bench_pairs.MIN_PAIRS):
        parent = 1.0 + 0.005 * seed
        ten += [canned("parent", seed, parent, 0.5), canned("change", seed, 0.95 * parent, 0.5)]
    row = {r["metric"]: r for r in bench_pairs.summarize(ten, SPEC)}["epoch_s"]
    assert row["pairs"] == bench_pairs.MIN_PAIRS == 10 and row["won"] == 10
    assert row["parent"] - row["change"] > row["parent_iqr"] > 0.0 and row["verdict"] == "gain"
    # the same ten less one pair: nine pairs cannot read gain
    row = {r["metric"]: r for r in bench_pairs.summarize(ten[2:], SPEC)}["epoch_s"]
    assert (row["pairs"], row["won"], row["verdict"]) == (9, 9, "same")
