"""The calibration harness: measurement, fit, and Q-error improvement.

The CI-gating property: after fitting, the median Q-error of the cost
model against measured per-operator timings must not be worse than the
seed constants' — in practice it improves by a large factor, since the
seed constants were never derived from this executor.
"""

import json

import pytest

from repro.calibrate.fit import (
    evaluate_constants,
    fit_constants,
    predicted_units,
    q_error,
)
from repro.calibrate.harness import Observation, run_workload
from repro.calibrate.workload import build_workload
from repro.engine.cost import CostModel
from repro.engine.profiles import (
    CALIBRATABLE_CONSTANTS,
    clear_calibrated,
    dump_calibrated,
    load_calibrated,
    profile_base,
    profile_for,
    set_calibrated,
)


def test_q_error_definition():
    assert q_error(10.0, 10.0) == 1.0
    assert q_error(20.0, 10.0) == 2.0
    assert q_error(5.0, 10.0) == 2.0
    assert q_error(0.0, 10.0) > 1.0  # floored, never divides by zero


def test_fit_recovers_planted_constants():
    """Synthetic observations from known constants: the fit finds them."""
    profile = profile_base("postgres")
    truth = {
        "seq_scan_cost_per_row": 3.0,
        "cpu_tuple_cost": 0.5,
        "hash_build_cost_per_row": 1.5,
        "sort_cost_factor": 0.25,
        "foreign_fetch_cost_per_row": 40.0,
    }
    observations = []
    cases = [
        ("SeqScan", {"seq_scan_cost_per_row": 1000.0}),
        ("Filter", {"cpu_tuple_cost": 800.0}),
        ("Project", {"cpu_tuple_cost": 500.0}),
        ("Sort", {"sort_cost_factor": 4000.0}),
        ("ForeignScan", {"foreign_fetch_cost_per_row": 100.0}),
        (
            "HashJoin",
            {"hash_build_cost_per_row": 300.0, "cpu_tuple_cost": 900.0},
        ),
        (
            "HashAggregate",
            {"hash_build_cost_per_row": 700.0, "cpu_tuple_cost": 700.0},
        ),
    ]
    for op, features in cases:
        units = predicted_units(features, truth)
        observations.append(
            Observation(
                op=op,
                query="synthetic",
                features=features,
                seconds=units / profile.calibration,
            )
        )
    fitted = fit_constants(observations, profile)
    for name, expected in truth.items():
        assert fitted[name] == pytest.approx(expected, rel=1e-6), name


def test_fit_keeps_seed_value_without_observations():
    profile = profile_base("mariadb")
    observations = [
        Observation(
            op="SeqScan",
            query="only-scans",
            features={"seq_scan_cost_per_row": 1000.0},
            seconds=1000.0 * 2.0 / profile.calibration,
        )
    ]
    fitted = fit_constants(observations, profile)
    assert set(fitted) == set(CALIBRATABLE_CONSTANTS)
    assert fitted["sort_cost_factor"] == profile.sort_cost_factor


def test_workload_covers_every_constant():
    observations = run_workload("postgres", rows=2000, repeat=1)
    driven = {
        name for obs in observations for name in obs.features
    }
    assert driven == set(CALIBRATABLE_CONSTANTS)


def test_calibration_smoke_improves_median_q_error():
    """The acceptance gate, CI-sized: post-fit median Q <= pre-fit."""
    profile = profile_base("postgres")
    observations = run_workload("postgres", rows=4000, repeat=2)
    assert len(observations) >= 30
    before = evaluate_constants(
        observations, profile.constants(), profile.calibration
    )
    fitted = fit_constants(observations, profile)
    after = evaluate_constants(
        observations, fitted, profile.calibration
    )
    assert after["median_q_error"] <= before["median_q_error"]


def test_calibrated_overlay_reaches_cost_model(tmp_path):
    """set_calibrated, and a dumped overlay read back by
    load_calibrated, propagate through profile_for into CostModel."""
    base = profile_base("hive")
    try:
        calibrated = base.with_constants(cpu_tuple_cost=123.0)
        set_calibrated([calibrated])
        served = profile_for("hive")
        assert served.cpu_tuple_cost == 123.0
        assert CostModel(profile_for("hive")).profile.cpu_tuple_cost == 123.0
        clear_calibrated()

        path = tmp_path / "calibrated_profiles.json"
        path.write_text(
            json.dumps(
                dump_calibrated([base.with_constants(cpu_tuple_cost=7.5)])
            )
        )
        (loaded,) = load_calibrated(str(path))
        assert loaded.name == "hive" and loaded.cpu_tuple_cost == 7.5
        assert profile_for("hive").cpu_tuple_cost == 7.5
        assert profile_for("hive").constants() == loaded.constants()
    finally:
        clear_calibrated()
    assert profile_for("hive").cpu_tuple_cost == base.cpu_tuple_cost


def test_with_constants_rejects_uncalibratable_fields():
    # ``calibration`` defines the units-to-seconds currency the fit
    # solves in; it must never be refit (startup_cost/startup_latency
    # are intercept-fitted and therefore allowed).
    from repro.errors import CatalogError

    with pytest.raises(CatalogError):
        profile_base("postgres").with_constants(calibration=1.0)


def test_instrumented_spans_carry_exec_seconds():
    """The harness's data source: operator spans export measured time."""
    from repro.obs.context import QueryContext

    workload = build_workload("postgres", rows=500)
    workload.local.instrument_execution = True
    with QueryContext(label="probe") as ctx:
        workload.local.execute("SELECT id, val FROM fact")

    def operator_spans(span):
        found = []
        if span.kind == "operator":
            found.append(span)
        for child in span.children:
            found.extend(operator_spans(child))
        return found

    spans = [
        s
        for s in operator_spans(ctx.root)
        if s.attributes.get("db") == workload.local.name
    ]
    assert spans, "no operator spans mirrored into the context"
    assert any(
        s.attributes.get("exec_seconds", 0.0) > 0.0 for s in spans
    )
    assert all("exec_seconds" in s.attributes for s in spans)


def test_self_seconds_of_a_read_through_plan_sum_to_at_most_the_root():
    """scan → narrowing project → filter → hash-join probe: the probe
    reads through the filter and the projection, and their pulls are
    timed too, so no one's time is counted twice."""
    from repro.engine.database import Database
    from repro.engine.instrument import instrument_plan, self_seconds
    from repro.relational.builder import build_plan
    from repro.relational.schema import Field, Schema
    from repro.sql.parser import parse_statement
    from repro.sql.types import DOUBLE, INTEGER, varchar

    database = Database("D")
    database.create_table(
        "fact",
        Schema([Field("id", INTEGER), Field("did", INTEGER), Field("v", DOUBLE),
                Field("g", varchar(8))]),
        [(i, i % 50, float(i % 97), "g%d" % (i % 7)) for i in range(6000)],
    )
    database.create_table(
        "dim",
        Schema([Field("id", INTEGER), Field("name", varchar(8))]),
        [(i, "n%d" % i) for i in range(50)],
    )
    sql = "SELECT f.id, d.name FROM dim d, fact f WHERE d.id = f.did AND f.v > 40"
    plan = database.planner.optimize(build_plan(parse_statement(sql), database.catalog))
    root = instrument_plan(database.planner.to_physical(plan))
    rows = [row for chunk in root.batches() for row in chunk]
    assert rows
    (join,) = [node for node in root.walk() if node.label().startswith("HashJoin")]
    assert join.build_left
    probe_chain = list(join.right.walk())
    assert [node.label().split("[")[0] for node in probe_chain] == [
        "Filter", "Project", "SeqScan"
    ]
    assert all(node.exec_seconds > 0.0 for node in probe_chain)
    total = sum(self_seconds(node) for node in root.walk())
    assert total <= root.exec_seconds * (1 + 1e-9)
