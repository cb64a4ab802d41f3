"""The re-enterable planning pipeline: stages, re-entry, labels.

``XDB.submit`` used to own a monolithic planning block; these tests pin
the extracted :class:`~repro.core.pipeline.PlanPipeline` — stage
sequencing, re-entry at every stage, label plumbing, and the phase /
span parity the reports were already asserting indirectly.
"""

import pytest

from repro.core.client import XDB, RecoveryReport
from repro.core.pipeline import STAGES, PlanPipeline, _stage_index
from repro.errors import OptimizerError
from repro.feedback import qerror
from repro.sql import ast
from repro.sql.parser import parse_statement

from conftest import assert_same_rows

JOIN_QUERY = """
    SELECT u.name, SUM(e.weight) AS total
    FROM users u, events e
    WHERE u.id = e.user_id AND e.kind = 'login'
    GROUP BY u.name
    ORDER BY total DESC, u.name
"""


def test_stage_order_is_the_paper_pipeline():
    assert STAGES == (
        "parse",
        "catalog",
        "optimize",
        "annotate",
        "finalize",
        "delegate",
        "execute",
    )
    assert _stage_index("parse") < _stage_index("optimize")
    assert _stage_index("annotate") < _stage_index("delegate")


def test_unknown_stage_raises_structured_error():
    with pytest.raises(OptimizerError, match="unknown pipeline stage"):
        _stage_index("reticulate")


def test_label_of_sql_text_is_identity():
    assert PlanPipeline.label_of(JOIN_QUERY) is JOIN_QUERY


def test_label_of_ast_renders_sql():
    select = parse_statement("SELECT u.id FROM users u")
    label = PlanPipeline.label_of(select)
    assert label != "<ast>"
    assert "users" in label.lower()


def test_ast_submission_context_carries_rendered_label(two_db_deployment):
    xdb = XDB(two_db_deployment)
    select = parse_statement(JOIN_QUERY)
    report = xdb.submit(select)
    assert report.context.label != "<ast>"
    assert "users" in report.context.label.lower()


def test_plan_offline_runs_every_stage(two_db_deployment):
    xdb = XDB(two_db_deployment)
    state = xdb.pipeline.new_state(JOIN_QUERY, budget=0)
    xdb.pipeline.plan(state)
    assert state.select is not None
    assert state.logical_plan is not None
    assert state.annotation is not None
    assert state.dplan is not None
    assert state.stage == "delegate"


@pytest.mark.parametrize("entry", ["parse", "catalog", "optimize"])
def test_plan_offline_reenters_at_stage(two_db_deployment, entry):
    """Resetting ``state.stage`` re-runs that stage and everything after."""
    xdb = XDB(two_db_deployment)
    state = xdb.pipeline.new_state(JOIN_QUERY, budget=0)
    xdb.pipeline.plan(state)
    first_plan = state.dplan
    state.stage = entry
    xdb.pipeline.plan(state)
    assert state.stage == "delegate"
    assert state.dplan is not None
    assert state.dplan is not first_plan  # the suffix actually re-ran


def test_reentry_at_annotate_keeps_logical_plan(two_db_deployment):
    """Annotate-stage re-entry (outage repair, adaptation) must not
    re-run the optimizer."""
    xdb = XDB(two_db_deployment)
    state = xdb.pipeline.new_state(JOIN_QUERY, budget=0)
    xdb.pipeline.plan(state)
    logical = state.logical_plan
    state.stage = "annotate"
    state.dplan = None
    xdb.pipeline.plan(state)
    assert state.logical_plan is logical
    assert state.dplan is not None


def test_reentry_at_optimize_skips_catalog_refresh(two_db_deployment):
    """Prepared-query replans re-enter at ``optimize`` and must trust
    the (drift-refreshed) catalog rather than re-introspecting."""
    xdb = XDB(two_db_deployment)
    xdb.warm_metadata()
    state = xdb.pipeline.new_state(JOIN_QUERY, budget=0)
    xdb.pipeline.plan(state)
    xdb.pipeline.metadata_fresh = False  # a refresh would flip this back
    state.stage = "optimize"
    xdb.pipeline.plan(state)
    assert xdb.pipeline.metadata_fresh is False


def test_submit_reports_the_four_phases(two_db_deployment):
    xdb = XDB(two_db_deployment)
    report = xdb.submit(JOIN_QUERY)
    assert set(report.phases) == {"prep", "lopt", "ann", "exec"}
    assert all(seconds >= 0.0 for seconds in report.phases.values())
    assert report.phases["exec"] > 0.0


def test_submit_span_tree_has_the_stage_steps(two_db_deployment):
    xdb = XDB(two_db_deployment)
    report = xdb.submit(JOIN_QUERY)
    names = {span.name for span in report.context.root.iter_spans()}
    for expected in ("prep", "lopt", "ann", "exec", "parse", "optimize",
                     "annotate", "finalize", "delegate", "execute",
                     "schedule"):
        assert expected in names, f"missing {expected} span"


def test_submit_parity_with_plan_query(two_db_deployment):
    """The traced and offline planning paths build the same plan.

    Compared by scan placement and task shape — execution attributes
    per-edge movement stats that the offline plan cannot have.
    """
    xdb = XDB(two_db_deployment)
    offline = xdb.plan_query(JOIN_QUERY)
    report = xdb.submit(JOIN_QUERY)
    assert PlanPipeline.placement(report.plan) == PlanPipeline.placement(
        offline
    )
    assert report.plan.task_count() == offline.task_count()
    assert report.plan.root.annotation == offline.root.annotation


def test_recovery_report_reexported_from_client():
    from repro.core import pipeline

    assert RecoveryReport is pipeline.RecoveryReport


def test_recovery_report_describe_variants():
    quiet = RecoveryReport()
    assert quiet.describe() == "no repair needed"

    adapted = RecoveryReport(
        adaptations=1, blown_estimates=[(1, 42.0)], pinned_tasks=[1]
    )
    text = adapted.describe()
    assert "mid-query adaptation" in text
    assert "42.0" in text and "[1]" in text

    infinite = RecoveryReport(
        adaptations=1,
        blown_estimates=[(2, qerror.INFINITE)],
        pinned_tasks=[2],
    )
    assert "inf" in infinite.describe()

    replanned = RecoveryReport(adaptations=1)
    assert "feedback replan" in replanned.describe()


@pytest.mark.parametrize(
    "recovery, expected",
    [
        (
            RecoveryReport(drift_events=1, drifted_tables=[("A", "t")]),
            "1 drift(s) absorbed on A.t",
        ),
        (
            RecoveryReport(branch_events=[("failover", "p4", "t__p3")]),
            "branch failover: p4.t__p3",
        ),
        (
            RecoveryReport(completeness=0.75, missing_partitions=["t__p3"]),
            "partial answer: 75.0% complete",
        ),
    ],
)
def test_report_describes_every_recovery_scope(
    two_db_deployment, recovery, expected
):
    """Drift, branch repair and partial answers used to be dropped:
    the report printed its recovery line for repairs and adaptations
    only."""
    assert recovery.touched and expected in recovery.describe()
    report = XDB(two_db_deployment).submit(JOIN_QUERY)
    assert "recovery:" not in report.describe()
    report.recovery = recovery
    assert f"recovery: {recovery.describe()}" in report.describe()
    assert expected in report.explain_analyze()


def test_prepared_query_label_is_the_source_sql(two_db_deployment):
    xdb = XDB(two_db_deployment)
    with xdb.prepare(JOIN_QUERY) as prepared:
        report = prepared.execute()
        assert report.context.label == JOIN_QUERY
        assert report.context.label != "prepared"


def test_pipeline_results_match_direct_submission(two_db_deployment):
    xdb = XDB(two_db_deployment)
    first = xdb.submit(JOIN_QUERY)
    second = xdb.submit(JOIN_QUERY)
    assert_same_rows(first.result.rows, second.result.rows)


def test_replace_subtree_identity_semantics():
    from repro.core.pipeline import _replace_subtree
    from repro.relational import algebra
    from repro.relational.schema import Field, Schema
    from repro.sql.types import INTEGER

    schema = Schema([Field("id", INTEGER)])
    left = algebra.Scan(table="t1", binding="t1", schema=schema)
    right = algebra.Scan(table="t2", binding="t2", schema=schema)
    stand_in = algebra.Scan(table="pin", binding="pin", schema=schema)

    replaced_root, hit = _replace_subtree(left, left, stand_in)
    assert hit and replaced_root is stand_in

    # By identity, not equality: an equal-but-distinct scan is not it.
    twin = algebra.Scan(table="t1", binding="t1", schema=schema)
    same_root, hit = _replace_subtree(left, twin, stand_in)
    assert not hit and same_root is left

    _unused = right
