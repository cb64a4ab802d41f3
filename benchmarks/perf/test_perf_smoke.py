"""Smoke test of the perf benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Runs the real command in ``--smoke`` mode (3 s windows, ~3 min in all)
and checks what later issues rely on: every named metric is there with
its unit, nothing is wrong, counts repeat exactly for one seed, another
seed changes the data but not the metric set — and a wrong oracle row
really does fail the run.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path, then imports the benchmark)
from metrics import BY_NAME, END_TO_END, PER_LAYER, UNTRACED, is_count  # noqa: E402
from workloads import WORKLOADS, Bench  # noqa: E402


def _smoke(out: pathlib.Path, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *extra],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perf")
    return _smoke(tmp / "a.json"), _smoke(tmp / "b.json")


def test_benchmark_json_agrees_with_the_metric_table():
    declared = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in declared["end_to_end"]] == list(UNTRACED)
    assert [m["name"] for m in declared["per_layer"]] == [m.name for m in PER_LAYER]
    for entry in declared["end_to_end"] + declared["per_layer"]:
        metric = BY_NAME[entry["name"]]
        assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)


def test_every_metric_is_reported_with_its_unit_and_nothing_is_wrong(two_runs):
    for result in two_runs:
        assert result["claim"] is None
        assert list(result["workloads"]) == list(WORKLOADS)
        for name, workload in result["workloads"].items():
            metrics = workload["metrics"]
            wanted = {m.name for m in END_TO_END + PER_LAYER}
            assert set(metrics) == wanted, (name, set(metrics) ^ wanted)
            for metric_name, metric in metrics.items():
                assert metric["unit"] == BY_NAME[metric_name].unit
            assert metrics["error_rate"]["value"] == 0
            assert workload["correct"] and workload["failed"] == 0
            assert (metrics["write_p50_ms"]["value"] > 0) == (name == "prepared_fresh")


def test_counts_repeat_exactly_for_one_seed(two_runs):
    a, b = two_runs
    for name in WORKLOADS:
        ma, mb = a["workloads"][name]["metrics"], b["workloads"][name]["metrics"]
        differ = {
            m: (ma[m]["value"], mb[m]["value"])
            for m in ma
            if is_count(m) and ma[m]["value"] != mb[m]["value"]
        }
        assert not differ, (name, differ)


def test_another_seed_changes_the_data_but_not_the_metric_set(two_runs, tmp_path):
    base = two_runs[0]["workloads"]["plan_heavy"]["metrics"]
    other = _smoke(tmp_path / "c.json", "--workload", "plan_heavy", "--seed", "7")
    metrics = other["workloads"]["plan_heavy"]["metrics"]
    assert set(metrics) == set(base)
    assert metrics["bytes_moved"]["value"] != base["bytes_moved"]["value"]
    assert metrics["error_rate"]["value"] == 0


def test_a_wrong_oracle_row_fails_the_run(monkeypatch, capsys):
    honest = Bench.oracle_answers

    def one_row_off(self):
        answers = honest(self)
        answers["Q3"] = answers["Q3"][:-1] + [("not", "a", "row", "of", "Q3")]
        return answers

    monkeypatch.setattr(Bench, "oracle_answers", one_row_off)
    status = run.main(
        ["--workload", "plan_heavy", "--seconds", "1", "--trace", "0", "--seed", "7"]
    )
    verdict = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status != 0
    assert verdict["correct"] is False
    assert 0 < verdict["failed"] <= verdict["attempted"]


def _result(tmp_path, name, round_ms, failed=0):
    metrics = {
        "round_p50_ms": {"value": round_ms, "unit": "ms", "n": 30, "iqr": 1.0},
        "error_rate": {"value": failed / 60, "unit": "ratio"},
    }
    path = tmp_path / name
    path.write_text(json.dumps({"workloads": {"plan_heavy": {"metrics": metrics}}}))
    return str(path)


def test_compare_applies_the_bounds(tmp_path, capsys):
    base = _result(tmp_path, "base.json", 100.0)
    assert run.main(["--compare", base, _result(tmp_path, "same.json", 105.0)]) == 0
    assert run.main(["--compare", base, _result(tmp_path, "slow.json", 120.0)]) == 1
    assert "regressed" in capsys.readouterr().out
    assert run.main(["--compare", base, _result(tmp_path, "bad.json", 100.0, failed=1)]) == 1
