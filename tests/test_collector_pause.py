"""The cyclic garbage collector is paused for one submission.

``XDB._run``, the body of both ``XDB.submit`` and ``PreparedQuery.
execute``, turns the collector off on entry and back on when it
returns or raises, but only when it was the call that turned it off
(DESIGN.md §7 "The cycle collector").  Member engines called directly
(``Database.execute``) keep the collector as they found it.

Collections are counted through ``gc.callbacks``, never by time.
"""

from __future__ import annotations

import gc

import pytest

from repro.bench.scenarios import build_tpch_deployment
from repro.core.client import XDB
from repro.faults import EngineOutage, FaultInjector, FaultPolicy
from repro.workloads.tpch import query

from conftest import ground_truth_database

Q3 = query("Q3")


@pytest.fixture(autouse=True)
def collector_left_on():
    """A failing check must not leave the collector off for the rest
    of the session."""
    assert gc.isenabled()
    yield
    gc.enable()


@pytest.fixture(scope="module")
def deployment():
    dep, _ = build_tpch_deployment("TD1", 0.002)
    return dep


def collections_during(call):
    """``(result, generations)``: ``call()``'s result and the generation
    of every collection that started while it ran.  The allocation
    counters start at zero, so every collection counted is the call's
    own."""
    started = []
    running = False

    def watch(phase, info):
        if running and phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(watch)
    running = True
    try:
        result = call()
    finally:
        running = False
        gc.callbacks.remove(watch)
    return result, started


def test_no_collection_starts_inside_a_submission(deployment):
    xdb = XDB(deployment)
    xdb.warm_metadata()
    # cold (plans and delegates), memo hit (deploys a kept cascade),
    # kept run (refreshes it)
    for _ in range(3):
        report, started = collections_during(lambda: xdb.submit(Q3))
        assert report.result.rows
        assert started == []
        assert gc.isenabled()
    xdb.close()


def test_no_collection_starts_inside_a_prepared_execution(deployment):
    xdb = XDB(deployment)
    xdb.warm_metadata()
    with xdb.prepare(Q3) as handle:
        for _ in range(2):
            report, started = collections_during(handle.execute)
            assert report.result.rows
            assert started == []
            assert gc.isenabled()
    xdb.close()


def test_an_engine_called_directly_still_collects(deployment):
    """The pause is the submission's, not the engine's: the same query
    on a plain ``Database`` triggers the collector as it always did."""
    database = ground_truth_database(deployment)
    result, started = collections_during(lambda: database.execute(Q3))
    assert result.rows
    assert len(started) >= 1


def test_a_failed_submission_turns_the_collector_back_on(deployment):
    xdb = XDB(deployment, repair_budget=0)
    xdb.warm_metadata()
    injector = FaultInjector(
        FaultPolicy(outages=(EngineOutage(db="db1"),))
    ).install(deployment)
    try:
        with pytest.raises(Exception) as err:
            xdb.submit(Q3)
    finally:
        injector.uninstall()
    assert err.value.context is not None
    assert gc.isenabled()


def test_a_caller_that_turned_the_collector_off_keeps_it_off(deployment):
    xdb = XDB(deployment)
    xdb.warm_metadata()
    gc.disable()
    try:
        xdb.submit(Q3)
        with xdb.prepare(Q3) as handle:
            handle.execute()
        still_off = not gc.isenabled()
    finally:
        gc.enable()
    xdb.close()
    assert still_off
