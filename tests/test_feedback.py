"""The Q-Error loop: arithmetic, store, overlay, and both replan paths.

Covers the feedback package bottom-up — Q-Error corner cases,
fingerprint invariance, store round-trip and drift invalidation — and
then the two integration paths: the offline loop (a warmed store
re-steers the next submission's join order) and mid-query adaptivity
(a blown estimate at a materialization boundary pins the snapshot and
replans the suffix, with result parity throughout).
"""

import math

import pytest

from repro.core.client import XDB
from repro.feedback import qerror
from repro.feedback.fingerprint import (
    base_tables,
    fingerprint,
    scan_fingerprint,
    table_key,
)
from repro.feedback.report import median_q_error, qerror_table
from repro.feedback.store import (
    FeedbackOverlay,
    FeedbackStore,
    Observation,
)

from conftest import assert_same_rows

JOIN_QUERY = """
    SELECT u.name, SUM(e.weight) AS total
    FROM users u, events e
    WHERE u.id = e.user_id AND e.kind = 'login'
    GROUP BY u.name
    ORDER BY total DESC, u.name
"""


# -- Q-Error arithmetic -----------------------------------------------------


def test_q_error_is_symmetric():
    assert qerror.q_error(10, 1000) == qerror.q_error(1000, 10) == 100.0


def test_q_error_exact_is_one():
    assert qerror.q_error(42, 42) == 1.0


def test_q_error_zero_corners():
    assert qerror.q_error(0, 0) == 1.0
    assert qerror.q_error(0, 50) == qerror.INFINITE
    assert qerror.q_error(50, 0) == qerror.INFINITE
    assert qerror.q_error(None, None) == 1.0


def test_direction_classification():
    assert qerror.direction(10, 100) == qerror.UNDER_EST
    assert qerror.direction(100, 10) == qerror.OVER_EST
    assert qerror.direction(0, 10) == qerror.ZERO_EST
    assert qerror.direction(7, 7) == qerror.EXACT


def test_median_handles_infinity_and_empty():
    assert qerror.median([]) == 0.0
    assert qerror.median([1.0, 3.0, 2.0]) == 2.0
    assert qerror.median([1.0, qerror.INFINITE]) == qerror.INFINITE


def test_routing_table_covers_the_blown_join():
    rewrites, why = qerror.hypothesis(qerror.JOIN, qerror.UNDER_EST)
    assert "P2" in rewrites and why


# -- fingerprints -----------------------------------------------------------


def test_fingerprint_is_join_order_insensitive(two_db_deployment):
    xdb = XDB(two_db_deployment)
    xdb.warm_metadata()
    plan_ab = xdb.pipeline.optimizer.optimize(
        xdb.pipeline.parse(
            "SELECT u.id FROM users u, events e WHERE u.id = e.user_id"
        )
    )
    plan_ba = xdb.pipeline.optimizer.optimize(
        xdb.pipeline.parse(
            "SELECT u.id FROM events e, users u WHERE e.user_id = u.id"
        )
    )
    assert fingerprint(plan_ab) == fingerprint(plan_ba)


def test_scan_fingerprint_and_table_key_casefold():
    assert scan_fingerprint("DbA", "Users") == scan_fingerprint(
        "dba", "users"
    )
    assert table_key("A", "Users") == "a.users"


def test_base_tables_of_optimized_plan(two_db_deployment):
    xdb = XDB(two_db_deployment)
    xdb.warm_metadata()
    plan = xdb.pipeline.optimizer.optimize(xdb.pipeline.parse(JOIN_QUERY))
    assert set(base_tables(plan)) == {"a.users", "b.events"}


# -- store ------------------------------------------------------------------


def _obs(fp="fp1", tables=("a.users",), est=10.0, act=100.0):
    return Observation(
        fingerprint=fp,
        kind="task",
        locus=qerror.JOIN,
        tables=list(tables),
        estimated_rows=est,
        actual_rows=act,
        label="task 1@A",
    )


def test_store_observe_and_correction():
    store = FeedbackStore()
    store.observe(_obs())
    assert len(store) == 1
    assert store.correction("fp1") == 100.0
    assert store.correction("missing") is None


def test_store_refresh_bumps_hits():
    store = FeedbackStore()
    store.observe(_obs(act=100.0))
    store.observe(_obs(act=120.0))
    entry = store.get("fp1")
    assert entry.hits == 2
    assert entry.actual_rows == 120.0


def test_store_round_trip_through_json(tmp_path):
    path = str(tmp_path / "feedback.json")
    store = FeedbackStore(path=path)
    store.observe(_obs())
    store.observe(_obs(fp="fp2", est=0.0, act=5.0))  # infinite q-error

    reloaded = FeedbackStore(path=path)
    assert len(reloaded) == 2
    assert reloaded.correction("fp1") == 100.0
    entry = reloaded.get("fp2")
    assert entry.qerror == qerror.INFINITE  # -1.0 sentinel decodes back


def test_store_invalidate_table_drops_touching_entries():
    store = FeedbackStore()
    store.observe(_obs(fp="fp1", tables=["a.users"]))
    store.observe(_obs(fp="fp2", tables=["a.users", "b.events"]))
    store.observe(_obs(fp="fp3", tables=["b.events"]))
    dropped = store.invalidate_table("A", "Users")
    assert dropped == 2
    assert store.correction("fp3") is not None
    assert store.correction("fp1") is None


# -- overlay ----------------------------------------------------------------


def test_overlay_pin_beats_store():
    store = FeedbackStore()
    store.observe(_obs(fp="fp1", act=100.0))
    overlay = FeedbackOverlay(store)

    class _Fake:
        pass

    fake = _Fake()
    overlay._fingerprints[id(fake)] = (fake, "fp1")  # bypass rendering
    assert overlay.correct(fake, default_rows=10.0) == 100.0
    overlay.pin("fp1", 7.0)
    assert overlay.correct(fake, default_rows=10.0) == 7.0
    assert overlay.applied == 2


def test_overlay_without_knowledge_keeps_model_estimate():
    overlay = FeedbackOverlay()

    class _Fake:
        pass

    fake = _Fake()
    overlay._fingerprints[id(fake)] = (fake, "unknown")
    assert overlay.correct(fake, default_rows=10.0) is None
    assert overlay.applied == 0


# -- report rendering -------------------------------------------------------


def test_qerror_table_flags_worst_as_planning_locus():
    observations = [
        _obs(fp="fine", est=10.0, act=10.0),
        _obs(fp="blown", est=2.0, act=3000.0),
    ]
    text = qerror_table(observations)
    first_line = text.splitlines()[1]
    assert "planning locus" in first_line
    assert "1500.00" in first_line
    assert "hypothesis:" in text  # JOIN × UNDER_EST routes to P2


def test_median_q_error_of_observations():
    observations = [
        _obs(est=10.0, act=10.0),
        _obs(est=10.0, act=50.0),
        _obs(est=10.0, act=90.0),
    ]
    assert median_q_error(observations) == 5.0
    assert median_q_error([]) == 0.0


# -- the offline feedback loop ----------------------------------------------


def test_feedback_loop_learns_and_preserves_results(two_db_deployment):
    """Skewed stats mislead the cold plan; the warmed store corrects
    the next submission without changing a single result row."""
    store = FeedbackStore()
    xdb = XDB(two_db_deployment, feedback=store)
    xdb.warm_metadata()
    xdb.catalog.override_stats("B", "events", 1)  # events is *not* tiny

    cold = xdb.submit(JOIN_QUERY)
    assert cold.feedback, "execution must harvest observations"
    assert len(store) > 0
    assert median_q_error(cold.feedback) > 1.0

    warm = xdb.submit(JOIN_QUERY)
    assert_same_rows(cold.result.rows, warm.result.rows)
    assert median_q_error(warm.feedback) < median_q_error(cold.feedback)


def test_feedback_disabled_by_default(two_db_deployment):
    xdb = XDB(two_db_deployment)
    report = xdb.submit(JOIN_QUERY)
    # Observations still ride on the report (explain_analyze needs
    # them) but nothing persists and no overlay perturbs planning.
    assert xdb.feedback is None
    assert xdb.feedback_overlay is None
    assert report.feedback


def test_feedback_path_persists_across_clients(
    two_db_deployment, tmp_path
):
    path = str(tmp_path / "fb.json")
    first = XDB(two_db_deployment, feedback=FeedbackStore(path=path))
    first.warm_metadata()
    first.catalog.override_stats("B", "events", 1)
    first.submit(JOIN_QUERY)

    second = XDB(two_db_deployment, feedback=FeedbackStore(path=path))
    assert len(second.feedback) > 0


def test_explain_analyze_renders_qerror_section(two_db_deployment):
    xdb = XDB(two_db_deployment, feedback=FeedbackStore())
    xdb.warm_metadata()
    xdb.catalog.override_stats("B", "events", 1)
    text = xdb.explain_analyze(JOIN_QUERY)
    assert "q-error (worst first):" in text
    assert "planning locus" in text


# -- mid-query adaptivity ---------------------------------------------------


def test_mid_query_adaptation_pins_and_preserves(two_db_deployment):
    """Explicit movement + a blown estimate at the materialization
    boundary: the submission adapts mid-query (pinning the snapshot)
    and still returns exactly the oracle rows."""
    oracle = XDB(two_db_deployment, movement_policy="explicit")
    baseline = oracle.submit(JOIN_QUERY)

    store = FeedbackStore()
    xdb = XDB(
        two_db_deployment,
        movement_policy="explicit",
        feedback=store,
        adaptivity_threshold=2.0,
    )
    xdb.warm_metadata()
    xdb.catalog.override_stats("B", "events", 1)
    report = xdb.submit(JOIN_QUERY)

    assert report.recovery.adaptations == 1
    assert report.recovery.pinned_tasks
    assert report.recovery.blown_estimates
    worst = max(q for _, q in report.recovery.blown_estimates)
    assert worst > 2.0
    assert "mid-query adaptation" in report.recovery.describe()
    assert_same_rows(baseline.result.rows, report.result.rows)


def test_adaptation_cleans_up_every_object(two_db_deployment):
    """Nothing may leak: kept snapshots are re-fenced under the new
    epoch and dropped with the adapted deployment's cleanup."""
    store = FeedbackStore()
    xdb = XDB(
        two_db_deployment,
        movement_policy="explicit",
        feedback=store,
        adaptivity_threshold=2.0,
    )
    xdb.warm_metadata()
    xdb.catalog.override_stats("B", "events", 1)
    report = xdb.submit(JOIN_QUERY)
    assert report.recovery.adaptations == 1
    assert xdb.ledger.leaked_count() == 0
    for name, member in two_db_deployment.databases.items():
        for table in member.catalog.tables():
            assert not table.name.lower().startswith(("xf_", "xm_", "xv_")), (
                f"leaked {table.name} on {name}"
            )


def test_adaptation_is_one_round_per_submission(two_db_deployment):
    store = FeedbackStore()
    xdb = XDB(
        two_db_deployment,
        movement_policy="explicit",
        feedback=store,
        adaptivity_threshold=1.01,  # everything trips it
    )
    xdb.warm_metadata()
    xdb.catalog.override_stats("B", "events", 1)
    report = xdb.submit(JOIN_QUERY)
    assert report.recovery.adaptations <= 1


def test_adaptivity_off_without_threshold(two_db_deployment):
    store = FeedbackStore()
    xdb = XDB(
        two_db_deployment, movement_policy="explicit", feedback=store
    )
    xdb.warm_metadata()
    xdb.catalog.override_stats("B", "events", 1)
    report = xdb.submit(JOIN_QUERY)
    assert report.recovery.adaptations == 0


# -- prepared queries -------------------------------------------------------


def test_prepared_query_replans_after_blown_estimates(two_db_deployment):
    """A prepared handle re-enters the pipeline at ``optimize`` once the
    warmed store knows the real cardinalities."""
    store = FeedbackStore()
    xdb = XDB(two_db_deployment, feedback=store, adaptivity_threshold=2.0)
    xdb.warm_metadata()
    xdb.catalog.override_stats("B", "events", 1)
    with xdb.prepare(JOIN_QUERY) as prepared:
        first = prepared.execute()
        assert prepared.state.estimates_blown
        second = prepared.execute()
        assert second.recovery is not None
        assert second.recovery.adapted
        assert "feedback replan" in second.recovery.describe()
        assert_same_rows(first.result.rows, second.result.rows)


def test_drift_invalidates_learned_cardinalities(two_db_deployment):
    """Re-introspection after drift must also forget the corrections
    observed under the old schema."""
    store = FeedbackStore()
    xdb = XDB(two_db_deployment, feedback=store)
    xdb.warm_metadata()
    xdb.submit(JOIN_QUERY)
    assert any(
        "b.events" in entry.tables for entry in store.entries()
    )
    store_len_before = len(store)
    dropped = store.invalidate_table("B", "events")
    assert dropped > 0
    assert len(store) < store_len_before


def test_infinite_q_error_feeds_back_safely():
    obs = _obs(est=0.0, act=5.0)
    assert obs.q_error == qerror.INFINITE
    assert obs.direction == qerror.ZERO_EST
    assert not math.isnan(obs.q_error)
    text = qerror_table([obs])
    assert "inf" in text
