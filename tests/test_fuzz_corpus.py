"""The fuzzer's regression corpus and a small seeded campaign.

Every file in ``tests/corpus/`` is a minimized spec for a bug that has
been fixed; replaying it must pass forever.  The seeded campaign is a
fast CI-sized slice of the full ``python -m repro.fuzz`` run.
"""

import os

import pytest

from repro.engine import vector
from repro.fuzz.corpus import load_corpus, replay_corpus, save_case
from repro.fuzz.generators import generate_case, spec_to_statement
from repro.fuzz.oracle import run_case
from repro.fuzz.runner import run_fuzz
from repro.fuzz.shrink import shrink_case

import random

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def test_corpus_is_nonempty_and_wellformed():
    entries = load_corpus(CORPUS_DIR)
    assert len(entries) >= 8
    for filename, entry in entries:
        assert entry["name"], filename
        assert entry["description"], filename
        assert entry["spec"]["kind"], filename


def test_corpus_replay_passes():
    assert replay_corpus(CORPUS_DIR) == []


def test_seeded_fuzz_run_survives():
    """A CI-sized slice of the campaign: zero surviving failures."""
    report = run_fuzz(seed=7, cases=60, corpus_dir=CORPUS_DIR)
    assert report.ok, (report.failures, report.regressions)
    # The generator mix covers every oracle family.
    assert {"foreign_table", "query", "pushdown"} <= set(report.kinds)


def test_generator_is_deterministic():
    a = [generate_case(random.Random(7 * 1_000_003 + i)) for i in range(20)]
    b = [generate_case(random.Random(7 * 1_000_003 + i)) for i in range(20)]
    assert a == b


def test_generated_specs_are_statement_convertible():
    for i in range(50):
        spec = generate_case(random.Random(i))
        if spec["kind"] in ("pushdown", "partition", "partial", "memo"):
            continue
        spec_to_statement(spec)  # must not raise


def test_shrinker_minimizes_while_preserving_failure():
    spec = {
        "kind": "foreign_table",
        "name": "some long irrelevant'name",
        "columns": [
            ["keep'me", ["VARCHAR", 25]],
            ["extra column", ["DOUBLE"]],
            ["another", ["DATE"]],
        ],
        "server": "srv",
        "remote_object": "obj",
    }

    # Synthetic failure predicate: "fails" while any identifier has a
    # quote.  The shrinker must keep a quote but shed everything else.
    def still_fails(candidate):
        texts = [candidate["name"]] + [
            name for name, _ in candidate["columns"]
        ]
        return any("'" in text for text in texts)

    shrunk = shrink_case(spec, still_fails)
    assert still_fails(shrunk)
    assert len(shrunk["columns"]) == 1
    import json

    assert len(json.dumps(shrunk)) < len(json.dumps(spec))


def test_save_case_roundtrips(tmp_path):
    spec = {"kind": "drop", "name": "t", "objkind": "TABLE",
            "if_exists": True}
    save_case(str(tmp_path), "example", "why", spec)
    entries = load_corpus(str(tmp_path))
    assert entries[0][1]["spec"] == spec
    assert run_case(spec) == []


def test_shrinker_switches_a_needless_join_off():
    """``{"join": false}`` is longer JSON than ``{"join": true}``; the
    flip still counts as smaller, so a join-free failure loses its join."""
    spec = {
        "kind": "query",
        "join": True,
        "select": ["a"],
        "where": ["a", ">", 3],
        "distinct": False,
        "order": False,
        "limit": None,
    }
    shrunk = shrink_case(spec, lambda candidate: candidate.get("where") is not None)
    assert shrunk["join"] is False
    assert shrunk["where"] == ["a", ">", 3]


#: One spec per invariant that sqlite judges besides the differential
#: one, each filtering on ``a > 10`` (or ``rt.a > 10``) over data that
#: holds rows with ``a = 10``.
_GREATER_THAN_SPECS = {
    "pushdown": {
        "kind": "pushdown",
        "remote_profile": "postgres",
        "where_value": 10,
        "project_all": True,
    },
    "drift": {
        "kind": "drift",
        "remote_profile": "postgres",
        "query": "SELECT lt.b, rt.c FROM lt, rt WHERE lt.a = rt.a AND rt.a > 10",
        "drift": {"kind": "retype_column", "column": "c", "new_type": ["INTEGER"]},
    },
    "feedback": {
        "kind": "feedback",
        "remote_profile": "postgres",
        "query": "SELECT lt.b, rt.c FROM lt, rt WHERE lt.a = rt.a AND rt.a > 10",
        "skew": {"db": "R", "table": "rt", "row_count": 1},
    },
    "partition": {
        "kind": "partition",
        "scheme": "hash",
        "partitions": 2,
        "bounds": [],
        "co_partition": False,
        "query": {
            "kind": "query",
            "join": False,
            "select": ["a", "b"],
            "where": ["a", ">", 10],
            "distinct": False,
            "order": False,
            "limit": None,
        },
    },
    "partial": {
        "kind": "partial",
        "scheme": "range",
        "partitions": 3,
        "bounds": [23, 46],
        "co_partition": False,
        "dead_shard": 2,
        "completeness_floor": 0.0,
        "query": {
            "kind": "query",
            "join": False,
            "select": ["a", "b"],
            "where": ["a", ">", 10],
            "distinct": False,
            "order": False,
            "limit": None,
        },
    },
}


@pytest.mark.parametrize("kind", sorted(_GREATER_THAN_SPECS))
def test_a_fault_every_federation_shares_fails_the_invariant(kind, monkeypatch):
    """A comparison fault planted in the engine's kernels runs on both
    sides of any comparison between federations; sqlite does not
    share it."""
    spec = _GREATER_THAN_SPECS[kind]
    assert run_case(spec) == []
    monkeypatch.setitem(vector._OPERATORS, ">", ">=")
    assert run_case(spec), f"{kind} passed with '>' evaluated as '>='"
